//! The parallel flow engine must be indistinguishable from the sequential
//! one on every benchmark: same designs (sources, estimates, tuned
//! parameters), same selected targets, same rendered trace — byte for
//! byte. Wall-clock durations live only in the structured trace and are
//! never rendered, so this comparison is exact.

use psaflow::benchsuite;
use psaflow::core::context::psa_benchsuite_shim;
use psaflow::core::flows::{full_psa_flow_cached_on, full_psa_flow_on};
use psaflow::core::trace::{self, TraceEvent};
use psaflow::core::{EvalCache, FlowEngine, FlowMode, PsaParams};
use psaflow::interp::Engine;
use std::sync::Arc;

fn params_for(b: &benchsuite::Benchmark) -> PsaParams {
    PsaParams {
        sp_safe: b.sp_safe,
        scale: psa_benchsuite_shim::ScaleFactors {
            compute: b.scale.compute,
            data: b.scale.data,
            threads: b.scale.threads,
        },
        ..PsaParams::default()
    }
}

/// Parallel engines checked against the sequential reference: pinned
/// pools (so work stealing is exercised even on single-CPU hosts) with
/// more workers than any branch has paths, fewer, and exactly one (which
/// fans out on the calling thread).
fn parallel_engines() -> [FlowEngine; 3] {
    [
        FlowEngine::parallel().with_workers(4),
        FlowEngine::parallel().with_workers(2),
        FlowEngine::parallel().with_workers(1),
    ]
}

/// One full sweep: every benchmark × both flow modes, DAG-scheduled on
/// each of [`parallel_engines`] against the single-threaded reference
/// scheduler.
fn assert_dag_matches_sequential_reference() {
    for bench in benchsuite::all() {
        for mode in [FlowMode::Informed, FlowMode::Uninformed] {
            let seq = full_psa_flow_on(
                FlowEngine::sequential(),
                &bench.source,
                &bench.key,
                mode,
                params_for(&bench),
            )
            .unwrap_or_else(|e| panic!("{} {mode:?} (sequential): {e}", bench.key));
            for engine in parallel_engines() {
                let par =
                    full_psa_flow_on(engine, &bench.source, &bench.key, mode, params_for(&bench))
                        .unwrap_or_else(|e| panic!("{} {mode:?} ({engine:?}): {e}", bench.key));

                let ctx = format!("{} {mode:?} {engine:?}", bench.key);
                assert_eq!(par.log, seq.log, "{ctx}: rendered traces diverge");
                assert_eq!(
                    par.selected_target, seq.selected_target,
                    "{ctx}: selected target"
                );
                assert_eq!(
                    par.reference_time_s, seq.reference_time_s,
                    "{ctx}: reference time"
                );
                assert_eq!(par.designs.len(), seq.designs.len(), "{ctx}: design count");
                for (p, s) in par.designs.iter().zip(&seq.designs) {
                    assert_eq!(
                        p.source, s.source,
                        "{ctx}: design source for {:?}",
                        p.device
                    );
                    // Everything else (estimates, params, notes, flags) via the
                    // full Debug form: identical computations give identical
                    // bits, so the formatted values match exactly.
                    assert_eq!(format!("{p:?}"), format!("{s:?}"), "{ctx}: design metadata");
                }
            }
        }
    }
}

#[test]
fn parallel_engine_matches_sequential_on_all_benchmarks() {
    assert_dag_matches_sequential_reference();
}

/// The same sweep must hold under *both* interpreter engines. The engine
/// default is process-global (`OnceLock`), so `dag_vs_sequential_child`
/// covers this process's engine and a child process covers the other: this
/// test binary re-run with `PSA_INTERP_ENGINE` pinned and only
/// `dag_vs_sequential_child` selected.
#[test]
fn dag_determinism_holds_under_both_interp_engines() {
    let other = match Engine::default_engine() {
        Engine::Vm => "tree",
        Engine::Tree => "vm",
    };
    let exe = std::env::current_exe().expect("test binary path");
    // Captured rather than inherited, so the child's report cannot
    // interleave with this harness's own per-test lines.
    let out = std::process::Command::new(&exe)
        .args(["--exact", "dag_vs_sequential_child", "--test-threads=1"])
        .env("PSA_INTERP_ENGINE", other)
        .output()
        .expect("spawn child sweep");
    assert!(
        out.status.success(),
        "DAG determinism broke under the {other} interp engine:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The sweep under the interpreter engine this process resolved: the
/// default in the main harness, the pinned one when spawned by
/// `dag_determinism_holds_under_both_interp_engines` — which must be the
/// engine actually in effect, or the child would re-check the default.
#[test]
fn dag_vs_sequential_child() {
    let pinned = match std::env::var("PSA_INTERP_ENGINE").as_deref() {
        Ok("tree") => Some(Engine::Tree),
        Ok("vm") => Some(Engine::Vm),
        _ => None,
    };
    if let Some(pinned) = pinned {
        assert_eq!(
            Engine::default_engine(),
            pinned,
            "pinned interp engine in effect"
        );
    }
    assert_dag_matches_sequential_reference();
}

/// The legacy chain builder and the native graph builder describe the same
/// Fig. 4 flow: executing either representation produces byte-identical
/// rendered traces and designs.
#[test]
fn chain_and_graph_forms_are_byte_identical() {
    use psaflow::artisan::Ast;
    use psaflow::core::context::FlowContext;
    use psaflow::core::flows::{build_flow, build_graph};

    let bench = &benchsuite::all()[0];
    for mode in [FlowMode::Informed, FlowMode::Uninformed] {
        let make_ctx = || {
            FlowContext::new(
                Ast::from_source(&bench.source, &bench.key).expect("benchmark parses"),
                params_for(bench),
            )
        };
        for engine in parallel_engines() {
            let mut chain_ctx = make_ctx();
            engine
                .execute(&build_flow(mode), &mut chain_ctx)
                .unwrap_or_else(|e| panic!("{mode:?} (chain): {e}"));
            let mut graph_ctx = make_ctx();
            engine
                .execute_graph(&build_graph(mode), &mut graph_ctx)
                .unwrap_or_else(|e| panic!("{mode:?} (graph): {e}"));
            assert_eq!(
                chain_ctx.trace_lines(),
                graph_ctx.trace_lines(),
                "{mode:?}: rendered traces diverge between chain and graph forms"
            );
            let sources = |c: &FlowContext| -> Vec<String> {
                c.designs.iter().map(|d| d.source.clone()).collect()
            };
            assert_eq!(
                sources(&chain_ctx),
                sources(&graph_ctx),
                "{mode:?}: designs"
            );
        }
    }
}

/// The evaluation cache must be semantically invisible: a flow over a live
/// shared cache (even one pre-warmed by a previous flow) produces exactly
/// the designs and rendered trace of a flow with caching disabled.
#[test]
fn cache_never_changes_designs_or_rendered_traces() {
    let live = Arc::new(EvalCache::new());
    for bench in benchsuite::all() {
        for mode in [FlowMode::Informed, FlowMode::Uninformed] {
            let cached = full_psa_flow_cached_on(
                FlowEngine::parallel(),
                &bench.source,
                &bench.key,
                mode,
                params_for(&bench),
                Arc::clone(&live),
            )
            .unwrap_or_else(|e| panic!("{} {mode:?} (cached): {e}", bench.key));
            let uncached = full_psa_flow_cached_on(
                FlowEngine::parallel(),
                &bench.source,
                &bench.key,
                mode,
                params_for(&bench),
                Arc::new(EvalCache::disabled()),
            )
            .unwrap_or_else(|e| panic!("{} {mode:?} (uncached): {e}", bench.key));

            let ctx = format!("{} {mode:?}", bench.key);
            assert_eq!(cached.log, uncached.log, "{ctx}: rendered traces diverge");
            assert_eq!(
                cached.selected_target, uncached.selected_target,
                "{ctx}: selected target"
            );
            assert_eq!(
                cached.reference_time_s, uncached.reference_time_s,
                "{ctx}: reference time"
            );
            assert_eq!(
                cached.designs.len(),
                uncached.designs.len(),
                "{ctx}: design count"
            );
            for (c, u) in cached.designs.iter().zip(&uncached.designs) {
                assert_eq!(format!("{c:?}"), format!("{u:?}"), "{ctx}: design");
            }
        }
    }
    // The second mode of every benchmark reruns over state the first mode
    // warmed — the shared cache must actually have been exercised.
    let stats = live.stats();
    assert!(stats.hits > 0, "shared cache saw no hits: {stats:?}");
    assert!(stats.entries > 0, "shared cache stored nothing: {stats:?}");
}

#[test]
fn outcome_log_is_the_rendering_of_the_structured_trace() {
    let bench = &benchsuite::all()[0];
    let outcome = full_psa_flow_on(
        FlowEngine::parallel(),
        &bench.source,
        &bench.key,
        FlowMode::Uninformed,
        params_for(bench),
    )
    .unwrap();
    assert_eq!(outcome.log, trace::render_lines(&outcome.trace));
    assert!(
        outcome
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Task { wall_ns, .. } if *wall_ns > 0)),
        "trace carries task spans with durations"
    );
    assert!(
        outcome
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Branch { .. })),
        "trace carries branch events"
    );
}
