//! DAG-scheduling benchmark: wall-clock of graph-shaped flows versus the
//! legacy chain shape. Emits `BENCH_dag.json` at the workspace root.
//!
//! Two measurements:
//!
//! 1. **Multi-device estimate fan-out** (the fig5/table1 shape): one
//!    preparation module feeding five per-device estimate modules and a
//!    collector. Each estimate performs a real profiled interpreter run
//!    plus a modeled device round-trip latency (an external-toolchain
//!    query, which blocks but does not compute). Chain-shaped, the five
//!    round-trips serialize; DAG-shaped they overlap, so the speedup holds
//!    even on a single-CPU host.
//! 2. **Full PSA-flow on every benchmark**: the chain form
//!    (`build_flow(...).graph()`, width 1) versus the native DAG form
//!    (`build_graph`), both on the default engine. This guards the other
//!    direction: graph scheduling must not make any real flow slower.
//!
//! Both claims are medians of paired dag/chain ratios
//! (see [`psa_bench::measure`]).
//!
//! Run with: `cargo bench -p psa-bench --bench flow_dag_speedup`

use psa_artisan::Ast;
use psa_bench::measure::{num, paired, write_record, Summary, PAIRS};
use psa_obs::json::Json;
use psaflow_core::context::{FlowContext, PsaParams};
use psaflow_core::flows::{build_flow, build_graph};
use psaflow_core::{
    DeviceKind, Flow, FlowEngine, FlowError, FlowGraph, FlowMode, GraphBuilder, Module, ModuleInfo,
    TaskClass,
};
use std::sync::Arc;
use std::time::Duration;

/// Modeled device/toolchain round-trip per estimate (blocking, not CPU).
const DEVICE_LATENCY_MS: u64 = 20;

/// A small compute kernel the estimate modules actually execute.
const ESTIMATE_SRC: &str = "int main() {\
    int n = 64;\
    double* a = alloc_double(n);\
    fill_random(a, n, 3);\
    double s = 0.0;\
    for (int i = 0; i < n; i++) { s = s + a[i] * 1.5; }\
    sink(s);\
    return 0;\
}";

/// A bookkeeping step that only logs its name.
struct Step(&'static str);
impl Module for Step {
    fn info(&self) -> ModuleInfo {
        ModuleInfo::new(self.0, TaskClass::Analysis, false)
    }
    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ctx.log(self.0);
        Ok(())
    }
}

/// One per-device platform estimate: a profiled run of the kernel (real
/// CPU work) plus the modeled round-trip to the device's toolchain.
struct EstimateOnDevice {
    device: DeviceKind,
    module: Arc<psa_minicpp::Module>,
}
impl Module for EstimateOnDevice {
    fn info(&self) -> ModuleInfo {
        ModuleInfo::new("Estimate On Device", TaskClass::Analysis, true)
    }
    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let run = psa_interp::run_main_profiled(&self.module, psa_interp::RunConfig::default())
            .map_err(|e| FlowError::analysis(format!("estimate run failed: {e}")))?;
        std::thread::sleep(Duration::from_millis(DEVICE_LATENCY_MS));
        ctx.log(format!(
            "estimated {:?}: {} cycles",
            self.device, run.profile.total_cycles
        ));
        Ok(())
    }
}

const DEVICES: [DeviceKind; 5] = [
    DeviceKind::Epyc7543,
    DeviceKind::Gtx1080Ti,
    DeviceKind::Rtx2080Ti,
    DeviceKind::Arria10,
    DeviceKind::Stratix10,
];

/// One estimate module per device, sharing one parsed kernel.
fn estimates() -> [EstimateOnDevice; 5] {
    let kernel = psa_minicpp::parse_module(ESTIMATE_SRC, "estimate").expect("kernel parses");
    let module = Arc::new(kernel);
    DEVICES.map(|device| EstimateOnDevice {
        device,
        module: Arc::clone(&module),
    })
}

/// The fan-out shape as a chain: estimates run one after another.
fn fanout_chain() -> FlowGraph {
    let prep = Flow::new("estimates").then(Step("Prepare Estimates"));
    let flow = estimates().into_iter().fold(prep, Flow::then);
    flow.then(Step("Collect Estimates")).graph()
}

/// The same modules as a DAG: all five estimates depend only on the prep.
fn fanout_graph() -> FlowGraph {
    let mut b = GraphBuilder::new("estimates");
    let prep = b.add(Step("Prepare Estimates"));
    let estimates = estimates().map(|e| b.add_after(e, &[prep]));
    b.add_after(Step("Collect Estimates"), &estimates);
    b.finish().expect("fan-out graph validates")
}

/// A fresh flow context on `source` (built outside the timed region).
fn context(source: &str, key: &str, params: &PsaParams) -> FlowContext {
    FlowContext::new(
        Ast::from_source(source, key).expect("flow source parses"),
        params.clone(),
    )
}

/// The flow as a chain (side A) against its DAG form (side B).
fn time_shapes(
    (chain_engine, chain): (FlowEngine, &FlowGraph),
    (dag_engine, dag): (FlowEngine, &FlowGraph),
    setup: impl FnMut() -> FlowContext,
) -> Summary {
    paired(
        setup,
        |c| {
            chain_engine.execute_graph(chain, c).expect("flow runs");
        },
        |c| {
            dag_engine.execute_graph(dag, c).expect("flow runs");
        },
    )
    .summary()
}

fn main() {
    // Fan-out: chain runs the five round-trips back to back; the DAG
    // overlaps them (workers pinned so the overlap is exercised even where
    // `available_parallelism` is 1 — the latency is blocking, not CPU).
    let fanout = time_shapes(
        (FlowEngine::parallel(), &fanout_chain()),
        (
            FlowEngine::parallel().with_workers(DEVICES.len()),
            &fanout_graph(),
        ),
        || context("int main() { return 0; }", "t", &PsaParams::default()),
    );
    let fanout_speedup = 1.0 / fanout.ratio_median;

    // Full flows: the DAG form must not be slower than the chain form.
    let engine = FlowEngine::parallel();
    let chain = build_flow(FlowMode::Uninformed).graph();
    let dag = build_graph(FlowMode::Uninformed);
    let mut apps = Vec::new();
    let mut max_full_ratio = 0.0f64;
    for bench in psa_benchsuite::all() {
        let params = psa_bench::params_for(&bench);
        let times = time_shapes((engine, &chain), (engine, &dag), || {
            context(&bench.source, &bench.key, &params)
        });
        max_full_ratio = max_full_ratio.max(times.ratio_median);
        apps.push(Json::object([
            ("key", bench.key.as_str().into()),
            ("chain_ms", num(times.a_median, 3)),
            ("dag_ms", num(times.b_median, 3)),
            ("ratio", num(times.ratio_median, 3)),
            ("paired", times.ratio_json("dag/chain")),
        ]));
    }

    write_record(
        "dag",
        "flow_dag_speedup",
        "ms: per-shape median; speedup and ratio: median of per-pair dag/chain ratios",
        Some(PAIRS),
        vec![
            ("device_latency_ms", DEVICE_LATENCY_MS.into()),
            (
                "fanout",
                Json::object([
                    ("chain_ms", num(fanout.a_median, 3)),
                    ("dag_ms", num(fanout.b_median, 3)),
                    ("speedup", num(fanout_speedup, 2)),
                    ("paired", fanout.ratio_json("dag/chain")),
                ]),
            ),
            ("min_fanout_speedup", num(fanout_speedup, 2)),
            ("apps", Json::Array(apps)),
            ("max_full_ratio", num(max_full_ratio, 3)),
        ],
    );
}
