//! Regenerate Fig. 5: accelerated hotspot speedups of the auto-generated
//! designs vs the unoptimised single-thread CPU reference, paper vs
//! measured, plus the informed PSA's target selections.

use psa_bench::faultargs::{run_or_exit, FaultArgs};
use psa_bench::obsout::ObsArgs;
use psa_bench::{fmt_speedup, run_all_cached_on};
use psa_benchsuite::paper;
use psaflow_core::{EvalCache, FlowEngine};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // `--sequential` forces the single-threaded engine and runs the
    // benchmarks one at a time — the timing baseline for the parallel
    // default. `--no-cache` swaps the shared evaluation cache for a
    // pass-through — the memoisation baseline. Stdout is byte-identical
    // under every combination; only the stderr timing summary differs.
    // `--engine=tree|vm` pins the interpreter engine for every profiled
    // run (the default is the VM; `PSA_INTERP_ENGINE` works too). Stdout
    // must be byte-identical either way — CI diffs the two.
    // `--trace-out` / `--metrics-out` / `--profile-out` write observability
    // artefacts to files; parsed up front so metrics collection is live
    // before any flow runs. Stdout stays byte-identical regardless.
    // `--fail-policy` / `--fault-plan` / `--task-deadline-ms` /
    // `--flow-deadline-ms` configure fault tolerance; with no fault plan
    // installed stdout is byte-identical under every policy (failure
    // reports go to stderr only).
    let obs = ObsArgs::parse();
    let faults = FaultArgs::parse();
    let sequential = std::env::args().any(|a| a == "--sequential");
    let no_cache = std::env::args().any(|a| a == "--no-cache");
    for arg in std::env::args() {
        let interp_engine = match arg.as_str() {
            "--engine=tree" => psa_interp::Engine::Tree,
            "--engine=vm" => psa_interp::Engine::Vm,
            _ => continue,
        };
        assert!(
            psa_interp::set_default_engine(interp_engine),
            "engine already selected"
        );
    }
    let engine = faults.engine(if sequential {
        FlowEngine::sequential()
    } else {
        FlowEngine::parallel()
    });
    let cache = Arc::new(if no_cache {
        EvalCache::disabled()
    } else {
        EvalCache::new()
    });
    println!("Fig. 5 — Hotspot speedups vs 1-thread CPU reference");
    println!("(paper value → measured value; informed PSA selection marked)\n");
    let started = Instant::now();
    let results = run_or_exit(run_all_cached_on(engine, Arc::clone(&cache)));
    let elapsed = started.elapsed();
    faults.report_failures(&results);

    println!(
        "{:<14} {:>16} {:>16} {:>16} {:>16} {:>16} {:>16}   informed target",
        "App", "Auto-Selected", "OMP", "HIP 1080Ti", "HIP 2080Ti", "oneAPI A10", "oneAPI S10"
    );
    for (row, _) in &results {
        let p = paper::fig5_row(&row.key).expect("paper row");
        let cell = |paper: Option<f64>, measured: Option<f64>| -> String {
            let ps = match paper {
                Some(v) => format!("{v}x"),
                None => "n/a".to_string(),
            };
            format!("{ps}→{}", fmt_speedup(measured))
        };
        println!(
            "{:<14} {:>16} {:>16} {:>16} {:>16} {:>16} {:>16}   {:?}",
            row.key,
            cell(Some(p.auto_selected), row.auto_selected),
            cell(Some(p.omp), row.omp),
            cell(Some(p.hip_1080), row.hip_1080),
            cell(Some(p.hip_2080), row.hip_2080),
            cell(p.oneapi_a10, row.oneapi_a10),
            cell(p.oneapi_s10, row.oneapi_s10),
            row.selected_target,
        );
    }

    println!("\nShape checks (paper's qualitative claims):");
    for (row, _) in &results {
        let p = paper::fig5_row(&row.key).unwrap();
        let expected = match p.target {
            paper::PaperTarget::MultiThreadCpu => "MultiThreadCpu",
            paper::PaperTarget::CpuGpu => "CpuGpu",
            paper::PaperTarget::CpuFpga => "CpuFpga",
        };
        let got = row
            .selected_target
            .map(|t| format!("{t:?}"))
            .unwrap_or_default();
        println!(
            "  {:<14} informed target: paper {expected:<14} measured {got:<14} {}",
            row.key,
            if got == expected { "OK" } else { "MISMATCH" }
        );
    }

    eprintln!(
        "\nall flows completed in {:.2}s ({} engine{})",
        elapsed.as_secs_f64(),
        if sequential { "sequential" } else { "parallel" },
        if no_cache { ", cache disabled" } else { "" }
    );

    let cold = cache.stats();
    if !no_cache {
        eprintln!(
            "eval cache (cold sweep): {} hits / {} misses ({:.1}% hit rate), {} entries",
            cold.hits,
            cold.misses,
            cold.hit_rate() * 100.0,
            cold.entries
        );

        // A second sweep over the warmed cache shows the steady-state cost
        // of re-running the experiments: every profiled run and model
        // estimate is already memoised. Results are discarded — they are
        // bit-identical to the first sweep — so stdout stays untouched.
        let warm_started = Instant::now();
        let warm_results = run_or_exit(run_all_cached_on(engine, Arc::clone(&cache)));
        let warm_elapsed = warm_started.elapsed();
        assert_eq!(warm_results.len(), results.len(), "warm sweep row count");
        let warm = cache.stats().since(&cold);
        eprintln!(
            "eval cache (warm sweep): {} hits / {} misses ({:.1}% hit rate); \
             cold {:.2}s → warm {:.2}s ({:.1}x)",
            warm.hits,
            warm.misses,
            warm.hit_rate() * 100.0,
            elapsed.as_secs_f64(),
            warm_elapsed.as_secs_f64(),
            elapsed.as_secs_f64() / warm_elapsed.as_secs_f64().max(1e-9)
        );
    }

    // When the profiled runs go through the VM, report the static
    // type-specialisation rate of each compiled program (stderr only —
    // stdout must stay byte-identical across engines for the CI diff).
    if psa_interp::Engine::default_engine() == psa_interp::Engine::Vm {
        eprintln!("\nVM type specialisation (static census of compiled bytecode):");
        for bench in psa_benchsuite::all() {
            let module = psa_minicpp::parse_module(&bench.source, &bench.key).expect("parses");
            let program = psa_interp::Program::compile(&module, &psa_interp::RunConfig::default());
            let (specialized, total, deferred) = program.specialization_stats();
            eprintln!(
                "  {:<14} {:>4}/{:<4} instructions specialised ({:>5.1}%), {} deferred loop{}",
                bench.key,
                specialized,
                total,
                specialized as f64 / total.max(1) as f64 * 100.0,
                deferred,
                if deferred == 1 { "" } else { "s" }
            );
        }
    }

    if let Err(e) = obs.write_artifacts() {
        eprintln!("fig5: failed to write observability artefacts: {e}");
        std::process::exit(1);
    }
}
