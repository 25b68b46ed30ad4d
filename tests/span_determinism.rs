//! Span-id and forensic-bundle determinism: under a fixed seed and the
//! sequential engine, two runs of the same flow must produce **identical
//! span ids and identical dump bundles** once wall-clock fields are
//! zeroed. This is the tier-1 guarantee that makes recorder dumps
//! comparable across runs (and bisectable across commits).
//!
//! The flight recorder is process-global state, and a sibling test
//! flipping the gate mid-run would corrupt the snapshots, so every test
//! here holds `RECORDER` for its whole run. (Other recorder tests live in
//! `psa-obs` and serialise via an in-crate lock.)

use psaflow::benchsuite;
use psaflow::core::context::psa_benchsuite_shim;
use psaflow::core::dse::BLOCKSIZE_CANDIDATES;
use psaflow::core::flows::full_psa_flow_cached_on;
use psaflow::core::{EvalCache, FlowEngine, FlowMode, PsaParams};
use psaflow::obs::recorder::{self, EventKind, Snapshot};
use std::sync::{Arc, Mutex};

static RECORDER: Mutex<()> = Mutex::new(());

fn recorded_run(mode: FlowMode) -> Snapshot {
    recorder::reset();
    let bench = benchsuite::by_key("kmeans").unwrap();
    let params = PsaParams {
        sp_safe: bench.sp_safe,
        scale: psa_benchsuite_shim::ScaleFactors {
            compute: bench.scale.compute,
            data: bench.scale.data,
            threads: bench.scale.threads,
        },
        ..PsaParams::default()
    };
    full_psa_flow_cached_on(
        FlowEngine::sequential(),
        &bench.source,
        &bench.key,
        mode,
        params,
        Arc::new(EvalCache::new()),
    )
    .expect("flow runs clean");
    let mut snapshot = recorder::snapshot();
    // Wall-clock is the one legitimately non-deterministic field.
    for w in &mut snapshot.workers {
        for e in &mut w.events {
            e.wall_ns = 0;
        }
    }
    for s in &mut snapshot.spans {
        s.open_ns = 0;
        s.close_ns = s.close_ns.map(|_| 0);
    }
    snapshot
}

#[test]
fn two_seeded_runs_produce_identical_span_ids_and_bundles() {
    let _gate = RECORDER.lock().unwrap_or_else(|p| p.into_inner());
    recorder::set_enabled(true);
    let first = recorded_run(FlowMode::Informed);
    let second = recorded_run(FlowMode::Informed);
    recorder::set_enabled(false);

    // Span ids are structural (FNV over names + seed), so the span tables
    // must match entry for entry — same ids, same order, same labels.
    assert!(!first.spans.is_empty(), "the run opened spans");
    assert_eq!(
        first.spans, second.spans,
        "span ids must be deterministic under a fixed seed"
    );

    // And the rendered forensic bundles must be byte-identical modulo the
    // wall-clock fields zeroed above.
    let a = recorder::render_bundle(&first);
    let b = recorder::render_bundle(&second);
    assert_eq!(a, b, "dump bundles must be byte-identical");

    // The causal chain in the bundle reaches the flow root: every parent
    // id is either the zero sentinel or present in the span table.
    let ids: Vec<u64> = first.spans.iter().map(|s| s.ctx.span_id).collect();
    let mut roots = 0;
    for s in &first.spans {
        if s.ctx.parent_id == 0 {
            roots += 1;
        } else {
            assert!(
                ids.contains(&s.ctx.parent_id),
                "span {:016x} has a dangling parent {:016x}",
                s.ctx.span_id,
                s.ctx.parent_id
            );
        }
    }
    assert!(roots >= 1, "at least the flow root span is parentless");
}

#[test]
fn sequential_run_records_on_one_worker_with_dse_estimates_attributed() {
    let _gate = RECORDER.lock().unwrap_or_else(|p| p.into_inner());
    recorder::set_enabled(true);
    // The uninformed flow maps kmeans to every device, GPUs included.
    let snapshot = recorded_run(FlowMode::Uninformed);
    recorder::set_enabled(false);

    // The sequential engine spawns nothing: the flow, its branch paths and
    // its DSE sweeps all record on the calling thread's ring.
    assert_eq!(snapshot.workers.len(), 1, "one recorder worker");
    assert!(snapshot.spans.iter().all(|s| s.worker == 0));

    // Between a `Blocksize DSE` span's open and close (the ring evicts
    // oldest-first, so a surviving open keeps its whole sweep), the sweep
    // journals one GPU estimate per candidate, each under that span.
    let label = |id: u64| {
        snapshot
            .spans
            .iter()
            .find(|s| s.ctx.span_id == id)
            .map(|s| s.label.as_str())
    };
    let mut open_sweep: Option<(u64, usize)> = None;
    let mut sweeps = 0;
    for e in &snapshot.workers[0].events {
        let span = e.span.map(|s| s.span_id);
        match (&e.kind, open_sweep) {
            (EventKind::SpanOpen { label: l }, None) if l == "Blocksize DSE" => {
                open_sweep = span.map(|id| (id, 0));
            }
            (EventKind::Estimate { site }, Some((id, n))) => {
                assert!(site.starts_with("gpu-estimate/"), "{site}");
                assert_eq!(span, Some(id), "estimate outside its sweep span");
                assert_eq!(label(id), Some("Blocksize DSE"));
                open_sweep = Some((id, n + 1));
            }
            (EventKind::SpanClose, Some((id, n))) if span == Some(id) => {
                assert_eq!(n, BLOCKSIZE_CANDIDATES.len(), "one estimate per candidate");
                open_sweep = None;
                sweeps += 1;
            }
            _ => {}
        }
    }
    assert!(sweeps > 0, "a whole blocksize sweep survived in the ring");
}
