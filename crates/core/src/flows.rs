//! The complete implemented PSA-flow (paper Fig. 4): target-independent
//! tasks → branch point A (target mapping) → target-specific tasks →
//! device-level branch points B (GPUs) and C (FPGAs) → device-specific
//! optimisation + DSE → design generation.
//!
//! Two equivalent representations are built here:
//!
//! * [`build_flow`] — the legacy chain form (every step totally ordered);
//! * [`build_graph`] — the native [`FlowGraph`] form, where the five
//!   analysis evidence tasks fan out concurrently from
//!   [`tindep::ComputeKernelAnalysis`].
//!
//! Both produce byte-identical traces (the graph's stable topological
//! order equals the chain order); the `full_psa_flow*` entry points run
//! the graph form.

use crate::context::{FlowContext, PsaParams};
use crate::engine::FlowEngine;
use crate::flow::{Flow, FlowError};
use crate::graph::{FlowGraph, GraphBuilder};
use crate::report::{DeviceKind, FlowOutcome, TargetKind};
use crate::strategy::{SelectAll, TargetSelect, PATH_CPU, PATH_FPGA, PATH_GPU};
use crate::task::Task;
use crate::tasks::{cpu, fpga, gpu, tindep};
use crate::trace::TraceEvent;
use psa_artisan::Ast;
use psa_evalcache::EvalCache;
use std::sync::Arc;

/// Informed (Fig. 3 strategy at branch point A) vs uninformed (all paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowMode {
    /// "Informed. We execute the PSA-flow… incorporating the PSA strategy
    /// from Fig. 3 at branch point A."
    Informed,
    /// "Uninformed. We modify branch point A to automatically select all
    /// paths, generating all design versions."
    Uninformed,
}

/// The name the flow gives the extracted kernel function.
pub const KERNEL_NAME: &str = "psa_kernel";

fn cpu_path() -> Flow {
    Flow::new("cpu-omp")
        .then(cpu::MultiThreadParallelLoops)
        .then(cpu::OmpNumThreadsDse)
        .then(cpu::GenerateOpenMpDesign)
}

fn gpu_device_path(device: DeviceKind) -> Flow {
    Flow::new(format!("gpu-{}", device.label()))
        .then(gpu::BlocksizeDseTask { device })
        .then(gpu::GenerateHipDesign { device })
}

/// The SP transforms appear on both the GPU and the FPGA paths; one shared
/// instance serves both (tasks are stateless `Send + Sync` objects).
fn sp_transforms() -> (Arc<dyn Task>, Arc<dyn Task>) {
    (
        Arc::new(gpu::EmploySpMathFns),
        Arc::new(gpu::EmploySpNumericLiterals),
    )
}

fn gpu_path(sp_math: Arc<dyn Task>, sp_literals: Arc<dyn Task>) -> Flow {
    Flow::new("cpu+gpu")
        .then_shared(sp_math)
        .then_shared(sp_literals)
        .then(gpu::EmploySpecialisedMathFns)
        .then(gpu::IntroduceSharedMemBuf)
        .then(gpu::EmployHipPinnedMemory)
        .branch(
            "B (GPU device)",
            SelectAll,
            vec![
                ("gtx-1080-ti".into(), gpu_device_path(DeviceKind::Gtx1080Ti)),
                ("rtx-2080-ti".into(), gpu_device_path(DeviceKind::Rtx2080Ti)),
            ],
        )
}

fn fpga_device_path(device: DeviceKind, zero_copy: bool) -> Flow {
    let mut flow = Flow::new(format!("fpga-{}", device.label()));
    if zero_copy {
        flow = flow.then(fpga::ZeroCopyDataTransfer);
    }
    flow.then(fpga::UnrollUntilOvermapDse { device })
        .then(fpga::GenerateOneApiDesign { device })
}

fn fpga_path(sp_math: Arc<dyn Task>, sp_literals: Arc<dyn Task>) -> Flow {
    Flow::new("cpu+fpga")
        .then(fpga::UnrollFixedLoops)
        .then_shared(sp_math)
        .then_shared(sp_literals)
        .branch(
            "C (FPGA device)",
            SelectAll,
            vec![
                (
                    "arria10".into(),
                    fpga_device_path(DeviceKind::Arria10, false),
                ),
                (
                    "stratix10".into(),
                    fpga_device_path(DeviceKind::Stratix10, true),
                ),
            ],
        )
}

/// The branch-A paths (shared between the chain and graph forms).
fn branch_a_paths() -> Vec<(String, Flow)> {
    let (sp_math, sp_literals) = sp_transforms();
    vec![
        (
            PATH_GPU.to_string(),
            gpu_path(Arc::clone(&sp_math), Arc::clone(&sp_literals)),
        ),
        (PATH_FPGA.to_string(), fpga_path(sp_math, sp_literals)),
        (PATH_CPU.to_string(), cpu_path()),
    ]
}

/// Assemble the Fig. 4 PSA-flow in its legacy chain form.
pub fn build_flow(mode: FlowMode) -> Flow {
    match mode {
        FlowMode::Informed => build_flow_with_strategy(TargetSelect, "A (target mapping)"),
        FlowMode::Uninformed => {
            build_flow_with_strategy(SelectAll, "A (target mapping, all paths)")
        }
    }
}

/// Assemble the Fig. 4 PSA-flow (chain form) with a *custom* strategy at
/// branch point A — how alternative deciders (e.g. the learned
/// [`crate::strategy::ml::MlTargetSelect`]) plug into the standard flow.
pub fn build_flow_with_strategy(
    strategy: impl crate::strategy::PsaStrategy + 'static,
    branch_name: &str,
) -> Flow {
    let base = Flow::new("psa-flow")
        .then(tindep::IdentifyHotspotLoops)
        .then(tindep::HotspotLoopExtraction {
            kernel_name: KERNEL_NAME.to_string(),
        })
        .then(tindep::ComputeKernelAnalysis)
        .then(tindep::PointerAnalysis)
        .then(tindep::ArithmeticIntensityAnalysis)
        .then(tindep::DataInOutAnalysis)
        .then(tindep::LoopDependenceAnalysis)
        .then(tindep::LoopTripCountAnalysis)
        .then(tindep::RemoveArrayAccumulation);
    base.branch(branch_name, strategy, branch_a_paths())
}

/// Assemble the Fig. 4 PSA-flow in its native graph form.
pub fn build_graph(mode: FlowMode) -> FlowGraph {
    match mode {
        FlowMode::Informed => build_graph_with_strategy(TargetSelect, "A (target mapping)"),
        FlowMode::Uninformed => {
            build_graph_with_strategy(SelectAll, "A (target mapping, all paths)")
        }
    }
}

/// Assemble the Fig. 4 PSA-flow as a [`FlowGraph`]: hotspot detection →
/// kernel extraction → analysis computation → the five evidence tasks
/// **fanned out concurrently** (they only read the analysis record) → the
/// reduction rewrite → branch point A. The insertion order equals the
/// chain order, so the stable topological order — and therefore the trace
/// — is byte-identical to [`build_flow_with_strategy`].
pub fn build_graph_with_strategy(
    strategy: impl crate::strategy::PsaStrategy + 'static,
    branch_name: &str,
) -> FlowGraph {
    let mut b = GraphBuilder::new("psa-flow");
    let h = b.add(tindep::IdentifyHotspotLoops);
    let x = b.add_after(
        tindep::HotspotLoopExtraction {
            kernel_name: KERNEL_NAME.to_string(),
        },
        &[h],
    );
    let ka = b.add_after(tindep::ComputeKernelAnalysis, &[x]);
    let evidence = [
        b.add_after(tindep::PointerAnalysis, &[ka]),
        b.add_after(tindep::ArithmeticIntensityAnalysis, &[ka]),
        b.add_after(tindep::DataInOutAnalysis, &[ka]),
        b.add_after(tindep::LoopDependenceAnalysis, &[ka]),
        b.add_after(tindep::LoopTripCountAnalysis, &[ka]),
    ];
    let ra = b.add_after(tindep::RemoveArrayAccumulation, &evidence);
    let paths = branch_a_paths()
        .into_iter()
        .map(|(label, flow)| (label, flow.graph()))
        .collect();
    b.branch_after(branch_name, Arc::new(strategy), paths, &[ra]);
    b.finish().expect("the Fig. 4 flow graph validates")
}

/// Run the full flow with a custom branch-A strategy on the default
/// (parallel) engine, with a fresh evaluation cache.
pub fn full_psa_flow_with_strategy(
    source: &str,
    app_name: &str,
    strategy: impl crate::strategy::PsaStrategy + 'static,
    params: PsaParams,
) -> Result<FlowOutcome, FlowError> {
    let ast = Ast::from_source(source, app_name)
        .map_err(|e| FlowError::precondition(format!("parse error: {e}")))?;
    let mut ctx = FlowContext::new(ast, params);
    // Causal root span: structural (app name + entry-point discriminant),
    // so reruns of the same flow produce identical span ids.
    ctx.span = psa_obs::SpanCtx::root(&format!("psa-flow/{app_name}"), 2);
    let before = ctx.cache.stats();
    FlowEngine::default().execute_graph(
        &build_graph_with_strategy(strategy, "A (custom strategy)"),
        &mut ctx,
    )?;
    push_cache_stats(&mut ctx, &before);
    let selected_target = ctx.selected_target;
    Ok(package_outcome(app_name, ctx, selected_target))
}

/// Parse an application, run the full PSA-flow on the default (parallel)
/// engine, and package the outcome.
pub fn full_psa_flow(
    source: &str,
    app_name: &str,
    mode: FlowMode,
    params: PsaParams,
) -> Result<FlowOutcome, FlowError> {
    full_psa_flow_on(FlowEngine::default(), source, app_name, mode, params)
}

/// [`full_psa_flow`] on a caller-chosen engine
/// ([`FlowEngine::sequential`] forces single-threaded execution).
pub fn full_psa_flow_on(
    engine: FlowEngine,
    source: &str,
    app_name: &str,
    mode: FlowMode,
    params: PsaParams,
) -> Result<FlowOutcome, FlowError> {
    full_psa_flow_cached_on(
        engine,
        source,
        app_name,
        mode,
        params,
        Arc::new(EvalCache::new()),
    )
}

/// [`full_psa_flow_on`] with a caller-provided evaluation cache. Every
/// path of this flow shares the cache (branch contexts clone the `Arc`),
/// and passing the same cache to several flows — e.g. an informed and an
/// uninformed run over the same application — lets later flows hit the
/// profiled runs and model estimates warmed by earlier ones.
pub fn full_psa_flow_cached_on(
    engine: FlowEngine,
    source: &str,
    app_name: &str,
    mode: FlowMode,
    params: PsaParams,
    cache: Arc<EvalCache>,
) -> Result<FlowOutcome, FlowError> {
    full_psa_flow_faulted_on(engine, source, app_name, mode, params, cache, None)
}

/// [`full_psa_flow_cached_on`] with an optional **context-local** fault
/// plan: the plan travels with the [`FlowContext`] (and its per-path
/// clones), so concurrent flows carrying different plans never interfere —
/// unlike the process-global [`psa_faults::install`]. This is the
/// deterministic soak-test entry point.
pub fn full_psa_flow_faulted_on(
    engine: FlowEngine,
    source: &str,
    app_name: &str,
    mode: FlowMode,
    params: PsaParams,
    cache: Arc<EvalCache>,
    faults: Option<Arc<psa_faults::FaultPlan>>,
) -> Result<FlowOutcome, FlowError> {
    run_flow_job(
        engine,
        FlowJob {
            source,
            app_name,
            mode,
            params,
            cache,
            faults,
            span_root: None,
            cancel: None,
        },
    )
}

/// One fully-specified PSA-flow run: everything
/// [`full_psa_flow_faulted_on`] takes, plus the service-layer extras — a
/// custom causal root span (a server roots jobs at
/// `psa-serve/{tenant}/{job}` so per-job forensic bundles filter by trace
/// id) and a shared [`crate::cancel::CancelToken`] for cooperative
/// cancellation mid-run.
pub struct FlowJob<'a> {
    pub source: &'a str,
    pub app_name: &'a str,
    pub mode: FlowMode,
    pub params: PsaParams,
    pub cache: Arc<EvalCache>,
    /// Context-local fault plan (travels with per-path clones).
    pub faults: Option<Arc<psa_faults::FaultPlan>>,
    /// Root span override; `None` = the standard structural
    /// `psa-flow/{app}` + mode-discriminant root.
    pub span_root: Option<psa_obs::SpanCtx>,
    /// Cooperative cancellation token polled by the engine.
    pub cancel: Option<Arc<crate::cancel::CancelToken>>,
}

/// Run one [`FlowJob`] on `engine`. This is the single entry point every
/// `full_psa_flow*` convenience wrapper (and the service layer) funnels
/// through, so offline and served runs share byte-identical semantics.
pub fn run_flow_job(engine: FlowEngine, job: FlowJob<'_>) -> Result<FlowOutcome, FlowError> {
    let FlowJob {
        source,
        app_name,
        mode,
        params,
        cache,
        faults,
        span_root,
        cancel,
    } = job;
    let ast = Ast::from_source(source, app_name)
        .map_err(|e| FlowError::precondition(format!("parse error: {e}")))?;
    let mut ctx = FlowContext::with_cache(ast, params, cache);
    // Causal root span: structural (app name + flow mode), so reruns of
    // the same flow produce identical span ids.
    ctx.span = span_root.unwrap_or_else(|| {
        psa_obs::SpanCtx::root(
            &format!("psa-flow/{app_name}"),
            match mode {
                FlowMode::Uninformed => 0,
                FlowMode::Informed => 1,
            },
        )
    });
    if let Some(plan) = faults {
        ctx = ctx.with_faults(plan);
    }
    if let Some(token) = cancel {
        ctx = ctx.with_cancel(token);
    }
    let graph = build_graph(mode);
    let before = ctx.cache.stats();
    engine.execute_graph(&graph, &mut ctx)?;
    push_cache_stats(&mut ctx, &before);

    // The informed strategy records its decision (with evidence) in the
    // context at branch time — *before* target-specific transforms reshape
    // the kernel.
    let selected_target = match mode {
        FlowMode::Uninformed => None,
        FlowMode::Informed => ctx.selected_target,
    };

    Ok(package_outcome(app_name, ctx, selected_target))
}

/// Record this flow's share of cache activity as a structured (never
/// rendered) trace event.
fn push_cache_stats(ctx: &mut FlowContext, before: &psa_evalcache::CacheStats) {
    let delta = ctx.cache.stats().since(before);
    ctx.push_event(TraceEvent::CacheStats {
        flow: "psa-flow".to_string(),
        hits: delta.hits,
        misses: delta.misses,
        evictions: delta.evictions,
        entries: delta.entries,
    });
}

fn package_outcome(
    app_name: &str,
    ctx: FlowContext,
    selected_target: Option<TargetKind>,
) -> FlowOutcome {
    FlowOutcome {
        app: app_name.to_string(),
        reference_time_s: ctx.reference_time_s.unwrap_or(0.0),
        designs: ctx.designs,
        selected_target,
        log: crate::trace::render_lines(&ctx.trace),
        trace: ctx.trace,
        failures: ctx.failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compute-parallel kernel with no inner loops → GPU path with two
    /// device designs.
    #[test]
    fn informed_gpu_bound_app_generates_two_designs() {
        let src = "int main() {\
            int n = 128;\
            double* a = alloc_double(n);\
            double* b = alloc_double(n);\
            fill_random(a, n, 3);\
            for (int i = 0; i < n; i++) { b[i] = exp(a[i]) * sqrt(a[i] + 2.0); }\
            sink(b[0]);\
            return 0;\
        }";
        let outcome =
            full_psa_flow(src, "gpuapp", FlowMode::Informed, PsaParams::default()).unwrap();
        assert_eq!(
            outcome.selected_target,
            Some(TargetKind::CpuGpu),
            "{:?}",
            outcome.log
        );
        assert_eq!(outcome.designs.len(), 2, "{:?}", outcome.log);
        let devices: Vec<DeviceKind> = outcome.designs.iter().map(|d| d.device).collect();
        assert!(devices.contains(&DeviceKind::Gtx1080Ti));
        assert!(devices.contains(&DeviceKind::Rtx2080Ti));
    }

    /// Memory-bound streaming kernel → CPU path, one design.
    #[test]
    fn informed_memory_bound_app_goes_openmp() {
        let src = "int main() {\
            int n = 4096;\
            double* a = alloc_double(n);\
            double* b = alloc_double(n);\
            fill_random(a, n, 3);\
            for (int i = 0; i < n; i++) { b[i] = a[i] * 1.5 + 2.0; }\
            sink(b[0]);\
            return 0;\
        }";
        let outcome =
            full_psa_flow(src, "memapp", FlowMode::Informed, PsaParams::default()).unwrap();
        assert_eq!(
            outcome.selected_target,
            Some(TargetKind::MultiThreadCpu),
            "{:?}",
            outcome.log
        );
        assert_eq!(outcome.designs.len(), 1);
        assert_eq!(outcome.designs[0].device, DeviceKind::Epyc7543);
    }

    /// Uninformed mode generates all five designs.
    #[test]
    fn uninformed_mode_generates_all_five() {
        let src = "int main() {\
            int n = 96;\
            double* a = alloc_double(n);\
            double* b = alloc_double(n);\
            fill_random(a, n, 3);\
            for (int i = 0; i < n; i++) { b[i] = exp(a[i]) + a[i] * a[i]; }\
            sink(b[0]);\
            return 0;\
        }";
        let outcome =
            full_psa_flow(src, "allapp", FlowMode::Uninformed, PsaParams::default()).unwrap();
        assert_eq!(outcome.designs.len(), 5, "{:?}", outcome.log);
        assert!(outcome.selected_target.is_none());
        let mut devices: Vec<&str> = outcome.designs.iter().map(|d| d.device.label()).collect();
        devices.sort_unstable();
        assert_eq!(devices.len(), 5);
    }

    /// Sequential recurrence: the flow terminates without designs.
    #[test]
    fn informed_sequential_app_terminates() {
        let src = "int main() {\
            int n = 64;\
            double* a = alloc_double(n);\
            for (int i = 1; i < n; i++) { a[i] = a[i - 1] * 0.9 + 0.1; }\
            sink(a[0]);\
            return 0;\
        }";
        let outcome =
            full_psa_flow(src, "seqapp", FlowMode::Informed, PsaParams::default()).unwrap();
        assert!(outcome.designs.is_empty(), "{:?}", outcome.log);
        assert_eq!(outcome.selected_target, None);
    }
}
