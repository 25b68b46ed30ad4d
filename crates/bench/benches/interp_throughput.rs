//! Interpreter-throughput benchmark: profiled execution of all five
//! benchsuite applications under both engines (tree walker vs bytecode VM).
//!
//! Each sample is one full profiled execution. The VM compiles each app
//! once and reuses the [`psa_interp::Program`] across samples — steady-state
//! throughput, which is what design-space exploration actually pays: every
//! description is executed many times (per configuration, per analysis)
//! against a single compilation. Execution is deterministic, so each engine
//! reports its minimum over the pairs (see [`psa_bench::measure`]). Each
//! app row also records the VM's `dispatches` and `specialized_dispatches`
//! for one run: they are exact, so CI compares them with the committed
//! file and a change to what the VM executes shows up as a diff.
//!
//! Run with: `cargo bench -p psa-bench --bench interp_throughput`

use psa_bench::measure::{num, paired, write_record, Summary, PAIRS};
use psa_interp::{Engine, Program, RunConfig, Vm};
use psa_minicpp::parse_module;
use psa_obs::json::Json;
use std::sync::Arc;

struct Row {
    key: String,
    cycles: u64,
    dispatches: u64,
    spec_dispatches: u64,
    times: Summary,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.times.a_min / self.times.b_min
    }

    /// Fraction of VM dispatches that took a type-specialised route
    /// (typed opcodes + deferred-loop iteration credit) in one run.
    fn spec_fraction(&self) -> f64 {
        self.spec_dispatches as f64 / self.dispatches.max(1) as f64
    }
}

fn config(engine: Engine) -> RunConfig {
    RunConfig {
        engine,
        ..RunConfig::default()
    }
}

/// Both engines on one module: tree walker as side A, VM as side B.
fn time_engines(key: &str, module: &psa_minicpp::Module) -> Row {
    let program = Arc::new(Program::compile(module, &config(Engine::Vm)));

    // Cross-check the engines and the one-shot vs compile-once VM paths
    // against each other. The metered run also yields the dispatch-class
    // counts (deterministic, so one run is exact).
    let tree = psa_interp::run_main_profiled(module, config(Engine::Tree)).expect("benchmark runs");
    let cycles = tree.profile.total_cycles;
    let mut vm = Vm::with_program(Arc::clone(&program), config(Engine::Vm));
    vm.run_main().expect("benchmark runs");
    assert_eq!(vm.profile().total_cycles, cycles, "engines diverged");
    let one_shot =
        psa_interp::run_main_profiled(module, config(Engine::Vm)).expect("benchmark runs");
    assert_eq!(
        one_shot.profile.total_cycles, cycles,
        "compile paths diverged"
    );

    let samples = paired(
        || (),
        |_| {
            let r = psa_interp::run_main_profiled(module, config(Engine::Tree))
                .expect("benchmark runs");
            assert_eq!(r.profile.total_cycles, cycles, "non-deterministic run");
        },
        |_| {
            let r = psa_interp::run_compiled(&program, config(Engine::Vm)).expect("benchmark runs");
            assert_eq!(r.profile.total_cycles, cycles, "non-deterministic run");
        },
    );
    Row {
        key: key.to_string(),
        cycles,
        dispatches: vm.dispatches(),
        spec_dispatches: vm.specialized_dispatches(),
        times: samples.summary(),
    }
}

fn main() {
    let rows: Vec<Row> = psa_benchsuite::all()
        .iter()
        .map(|bench| {
            let module = parse_module(&bench.source, &bench.key).expect("parses");
            time_engines(&bench.key, &module)
        })
        .collect();
    let total_tree: f64 = rows.iter().map(|r| r.times.a_min).sum();
    let total_vm: f64 = rows.iter().map(|r| r.times.b_min).sum();
    let geomean: f64 =
        (rows.iter().map(|r| r.speedup().ln()).sum::<f64>() / rows.len() as f64).exp();
    let total_dispatches: u64 = rows.iter().map(|r| r.dispatches).sum();
    let total_spec: u64 = rows.iter().map(|r| r.spec_dispatches).sum();
    let apps = rows.iter().map(|r| {
        Json::object([
            ("key", r.key.as_str().into()),
            ("virtual_cycles", r.cycles.into()),
            ("dispatches", r.dispatches.into()),
            ("specialized_dispatches", r.spec_dispatches.into()),
            ("tree_ms", num(r.times.a_min, 3)),
            ("vm_ms", num(r.times.b_min, 3)),
            ("speedup", num(r.speedup(), 2)),
            ("specialized_dispatch_fraction", num(r.spec_fraction(), 4)),
            ("paired", r.times.ratio_json("vm/tree")),
        ])
    });
    write_record(
        "interp",
        "interp_throughput",
        "ms: per-engine min over alternating tree/vm pairs of steady-state runs",
        Some(PAIRS),
        vec![
            ("apps", Json::Array(apps.collect())),
            ("total_tree_ms", num(total_tree, 3)),
            ("total_vm_ms", num(total_vm, 3)),
            ("total_speedup", num(total_tree / total_vm, 2)),
            ("geomean_speedup", num(geomean, 2)),
            (
                "specialized_dispatch_fraction",
                num(total_spec as f64 / total_dispatches.max(1) as f64, 4),
            ),
        ],
    );
}
