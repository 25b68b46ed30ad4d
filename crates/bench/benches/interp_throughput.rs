//! Interpreter-throughput benchmark: profiled execution of all five
//! benchsuite applications under both engines (tree walker vs bytecode VM).
//!
//! Hand-timed harness (`harness = false`) rather than criterion: each
//! sample is one full profiled execution. The VM compiles each app once
//! and reuses the [`psa_interp::Program`] across samples — steady-state
//! throughput, which is what design-space exploration actually pays: every
//! description is executed many times (per configuration, per analysis)
//! against a single compilation.
//!
//! Tree and VM samples are interleaved (one of each per round) so machine
//! contention lands on both engines alike, and each engine reports its
//! *minimum* over the rounds: execution is deterministic, so the true cost
//! is a constant and all timing noise is additive — the minimum is the
//! robust estimator of that constant. Emits machine-readable results to
//! `BENCH_interp.json` at the workspace root. Each app row also records
//! the VM's `dispatches` and `specialized_dispatches` for one run: they are
//! deterministic, so CI compares them with the committed file and a change
//! to what the VM executes shows up as a diff.
//!
//! Run with: `cargo bench -p psa-bench --bench interp_throughput`

use psa_interp::{Engine, Program, RunConfig, Vm};
use psa_minicpp::parse_module;
use std::sync::Arc;
use std::time::Instant;

const SAMPLES: usize = 15;

struct Row {
    key: String,
    cycles: u64,
    tree_ms: f64,
    vm_ms: f64,
    /// Fraction of VM dispatches that took a type-specialised route
    /// (typed opcodes + deferred-loop iteration credit) in one run.
    spec_fraction: f64,
    dispatches: u64,
    spec_dispatches: u64,
}

fn config(engine: Engine) -> RunConfig {
    RunConfig {
        engine,
        ..RunConfig::default()
    }
}

/// Interleaved min-of-`SAMPLES` timing of both engines on one module.
/// Returns `(tree_ms, vm_ms, virtual_cycles, dispatches, spec_dispatches)`.
fn time_engines(module: &psa_minicpp::Module) -> (f64, f64, u64, u64, u64) {
    let program = Arc::new(Program::compile(module, &config(Engine::Vm)));

    // Warmups (also validate the runs and cross-check the engines and the
    // one-shot vs compile-once VM paths against each other). The metered
    // warmup run also yields the dispatch-class counts (deterministic, so
    // one run is exact).
    let tree = psa_interp::run_main_profiled(module, config(Engine::Tree)).expect("benchmark runs");
    let cycles = tree.profile.total_cycles;
    let mut vm = Vm::with_program(Arc::clone(&program), config(Engine::Vm));
    vm.run_main().expect("benchmark runs");
    assert_eq!(vm.profile().total_cycles, cycles, "engines diverged");
    let (dispatches, spec_dispatches) = (vm.dispatches(), vm.specialized_dispatches());
    let one_shot =
        psa_interp::run_main_profiled(module, config(Engine::Vm)).expect("benchmark runs");
    assert_eq!(
        one_shot.profile.total_cycles, cycles,
        "compile paths diverged"
    );

    let mut tree_min = f64::INFINITY;
    let mut vm_min = f64::INFINITY;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        let r =
            psa_interp::run_main_profiled(module, config(Engine::Tree)).expect("benchmark runs");
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r.profile.total_cycles, cycles, "non-deterministic run");
        tree_min = tree_min.min(elapsed);

        let start = Instant::now();
        let r = psa_interp::run_compiled(&program, config(Engine::Vm)).expect("benchmark runs");
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r.profile.total_cycles, cycles, "non-deterministic run");
        vm_min = vm_min.min(elapsed);
    }
    (tree_min, vm_min, cycles, dispatches, spec_dispatches)
}

fn main() {
    let mut rows = Vec::new();
    println!(
        "{:<14} {:>14} {:>12} {:>12} {:>9} {:>11}",
        "benchmark", "virtual cycles", "tree ms", "vm ms", "speedup", "spec disp"
    );
    for bench in psa_benchsuite::all() {
        let module = parse_module(&bench.source, &bench.key).expect("parses");
        let (tree_ms, vm_ms, cycles, dispatches, spec_dispatches) = time_engines(&module);
        let spec_fraction = spec_dispatches as f64 / dispatches.max(1) as f64;
        println!(
            "{:<14} {:>14} {:>12.3} {:>12.3} {:>8.2}x {:>10.1}%",
            bench.key,
            cycles,
            tree_ms,
            vm_ms,
            tree_ms / vm_ms,
            spec_fraction * 100.0
        );
        rows.push(Row {
            key: bench.key.clone(),
            cycles,
            tree_ms,
            vm_ms,
            spec_fraction,
            dispatches,
            spec_dispatches,
        });
    }

    let total_tree: f64 = rows.iter().map(|r| r.tree_ms).sum();
    let total_vm: f64 = rows.iter().map(|r| r.vm_ms).sum();
    let geomean: f64 =
        (rows.iter().map(|r| (r.tree_ms / r.vm_ms).ln()).sum::<f64>() / rows.len() as f64).exp();
    println!(
        "{:<14} {:>14} {:>12.3} {:>12.3} {:>8.2}x  (geomean {:.2}x)",
        "total",
        "",
        total_tree,
        total_vm,
        total_tree / total_vm,
        geomean
    );

    // Machine-readable record (hand-formatted; the compat serde shim has no
    // serializer for ad-hoc structs and this keeps the schema explicit).
    let mut json = String::from("{\n  \"benchmark\": \"interp_throughput\",\n");
    json.push_str("  \"unit\": \"ms_min_of_15_interleaved_steady_state_runs\",\n  \"apps\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"key\": \"{}\", \"virtual_cycles\": {}, \"dispatches\": {}, \"specialized_dispatches\": {}, \"tree_ms\": {:.3}, \"vm_ms\": {:.3}, \"speedup\": {:.2}, \"specialized_dispatch_fraction\": {:.4}}}{}\n",
            r.key,
            r.cycles,
            r.dispatches,
            r.spec_dispatches,
            r.tree_ms,
            r.vm_ms,
            r.tree_ms / r.vm_ms,
            r.spec_fraction,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let total_dispatches: u64 = rows.iter().map(|r| r.dispatches).sum();
    let total_spec: u64 = rows.iter().map(|r| r.spec_dispatches).sum();
    json.push_str(&format!(
        "  ],\n  \"total_tree_ms\": {:.3},\n  \"total_vm_ms\": {:.3},\n  \"total_speedup\": {:.2},\n  \"geomean_speedup\": {:.2},\n  \"specialized_dispatch_fraction\": {:.4}\n}}\n",
        total_tree,
        total_vm,
        total_tree / total_vm,
        geomean,
        total_spec as f64 / total_dispatches.max(1) as f64
    ));

    // Workspace root = two levels above this crate's manifest.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{root}/BENCH_interp.json");
    std::fs::write(&path, json).expect("write BENCH_interp.json");
    println!("wrote {path}");
}
