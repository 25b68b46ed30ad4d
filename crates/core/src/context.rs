//! The shared state a design-flow threads through its tasks.

use crate::report::{DesignArtifact, DesignParams, PathFailure, TargetKind};
use crate::trace::{DecisionEvidence, TraceEvent};
use psa_analyses::hotspot::HotspotReport;
use psa_analyses::KernelAnalysis;
use psa_artisan::Ast;
use psa_benchsuite_shim::ScaleFactors;
use psa_evalcache::EvalCache;
use psa_faults::FaultPlan;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Re-exported scale factors without depending on the benchmark suite
/// (applications outside the suite pass their own).
pub mod psa_benchsuite_shim {
    use serde::{Deserialize, Serialize};

    /// Multipliers from the analysis workload to the evaluation workload.
    /// Identical in shape to `psa_benchsuite::ScaleFactors`.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct ScaleFactors {
        pub compute: f64,
        pub data: f64,
        pub threads: f64,
    }

    impl Default for ScaleFactors {
        fn default() -> Self {
            ScaleFactors {
                compute: 1.0,
                data: 1.0,
                threads: 1.0,
            }
        }
    }
}

/// Tunable parameters of the PSA strategy and DSE tasks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PsaParams {
    /// The paper's `X`: kernels below this FLOPs/byte are memory-bound and
    /// never offloaded.
    pub ai_threshold: f64,
    /// Maximum static trip count the FPGA path will fully unroll.
    pub full_unroll_limit: u64,
    /// Thread counts the OpenMP DSE sweeps.
    pub omp_max_threads: u32,
    /// Optional cost budget in currency units for one evaluation-workload
    /// execution; exceeding it triggers the Fig. 3 revise-design feedback.
    pub budget: Option<f64>,
    /// Nominal hourly prices (currency/hour) for cost evaluation:
    /// (CPU node, GPU node, FPGA node).
    pub hourly_prices: (f64, f64, f64),
    /// Whether SP (single-precision) transforms may be applied — set from
    /// the application's numerical requirements (Rush Larsen: no).
    pub sp_safe: bool,
    /// Analysis→evaluation workload scaling.
    pub scale: ScaleFactors,
}

impl Default for PsaParams {
    fn default() -> Self {
        PsaParams {
            ai_threshold: 0.5,
            full_unroll_limit: 64,
            omp_max_threads: 64,
            budget: None,
            hourly_prices: (0.8, 2.2, 1.8),
            sp_safe: true,
            scale: ScaleFactors::default(),
        }
    }
}

/// The mutable state of one flow execution.
///
/// The engine gives every graph node and every branch path its own
/// context, so everything here is `Clone`; designs produced on diverging
/// paths are merged back into the parent by the flow engine. The working
/// AST sits behind an `Arc` and is copied on write: cloning a context
/// shares the AST, and only a task that rewrites the program (through
/// [`Self::module_mut`]) pays for a private copy, so a sibling path or the
/// caller never sees another context's rewrite.
#[derive(Debug, Clone)]
pub struct FlowContext {
    /// The working AST (starts as the unoptimised reference). Shared
    /// between contexts; read it through auto-deref (`ctx.ast.module`),
    /// rewrite it only through [`Self::module_mut`].
    pub ast: Arc<Ast>,
    /// The extracted kernel's name, once partitioning has happened.
    pub kernel: Option<String>,
    /// The hotspot-detection report (partitioning evidence).
    pub hotspot: Option<HotspotReport>,
    /// Aggregated target-independent analysis evidence.
    pub analysis: Option<KernelAnalysis>,
    /// Parameters chosen by DSE / transform tasks on the current path,
    /// consumed by the code-generation tasks.
    pub tuned: DesignParams,
    /// Arrays selected for shared-memory staging on the GPU path.
    pub shared_mem_arrays: Vec<String>,
    /// Fraction of kernel memory traffic served by the staged arrays
    /// (shared-memory tiles turn per-thread global loads into per-block
    /// loads).
    pub smem_staged_fraction: f64,
    /// The target the informed strategy selected at branch point A.
    pub selected_target: Option<TargetKind>,
    /// Set when the FPGA path discovered the design overmaps at unroll 1
    /// (the design is emitted but flagged not synthesizable).
    pub fpga_unsynthesizable: Option<String>,
    /// Strategy/DSE knobs.
    pub params: PsaParams,
    /// Single-thread reference execution time at the evaluation workload,
    /// seconds (fixed once analyses have run).
    pub reference_time_s: Option<f64>,
    /// Designs produced so far.
    pub designs: Vec<DesignArtifact>,
    /// The shared content-addressed evaluation cache: profiled runs,
    /// analysis aggregates and platform-model estimates are memoized here,
    /// keyed by structural AST fingerprint plus workload/config content.
    /// Cloned contexts (branch paths) share the same cache through the
    /// `Arc`, so sibling paths and re-runs reuse each other's evaluations.
    pub cache: Arc<EvalCache>,
    /// Paths dropped so far under
    /// [`crate::engine::FailurePolicy::DegradePaths`]; the engine merges
    /// sub-path failures back in branch order, then path-index order.
    pub failures: Vec<PathFailure>,
    /// Context-local fault-injection plan consulted at the engine's probe
    /// seams before the process-global ambient plan (`psa_faults::install`).
    /// Branch-path clones share the plan (and its occurrence counters)
    /// through the `Arc`. `None` (the default) costs one pointer check.
    pub faults: Option<Arc<FaultPlan>>,
    /// Cooperative cancellation token, polled by the engine before every
    /// module and branch expansion. Branch-path clones share the token
    /// through the `Arc`, so one trip unwinds every path of the run.
    /// `None` (the default) costs one pointer check per poll.
    pub cancel: Option<Arc<crate::cancel::CancelToken>>,
    /// The causal span this context executes under: the flow root for the
    /// trunk, a branch-path child span on `Selection` path clones. The
    /// engine derives per-node spans from it (`span.child(node, id)`);
    /// tasks never mutate it. Ids are structural
    /// ([`psa_obs::span::SpanCtx`]), so they are byte-identical across
    /// reruns and scheduler interleavings.
    pub span: psa_obs::SpanCtx,
    /// Structured trace of what the flow did (mirrors the paper's narrative
    /// of which branch was taken and why). Read it through [`Self::trace`]
    /// or [`Self::trace_lines`]; the engine owns its tree structure.
    pub(crate) trace: Vec<TraceEvent>,
    /// Typed evidence staged by the deciding strategy, consumed by the
    /// engine into the next [`TraceEvent::Branch`].
    pub(crate) pending_decision: Option<DecisionEvidence>,
}

impl FlowContext {
    /// Start a flow over a parsed application with a fresh enabled
    /// evaluation cache.
    pub fn new(ast: impl Into<Arc<Ast>>, params: PsaParams) -> Self {
        Self::with_cache(ast, params, Arc::new(EvalCache::new()))
    }

    /// Start a flow sharing a caller-owned evaluation cache (e.g. one cache
    /// across an informed and an uninformed run of the same application, or
    /// [`EvalCache::disabled`] to force every evaluation to recompute).
    pub fn with_cache(ast: impl Into<Arc<Ast>>, params: PsaParams, cache: Arc<EvalCache>) -> Self {
        FlowContext {
            ast: ast.into(),
            kernel: None,
            hotspot: None,
            analysis: None,
            tuned: DesignParams::default(),
            shared_mem_arrays: Vec::new(),
            smem_staged_fraction: 0.0,
            selected_target: None,
            fpga_unsynthesizable: None,
            params,
            reference_time_s: None,
            designs: Vec::new(),
            cache,
            failures: Vec::new(),
            faults: None,
            cancel: None,
            span: psa_obs::SpanCtx::default(),
            trace: Vec::new(),
            pending_decision: None,
        }
    }

    /// Attach a context-local fault-injection plan (builder style). Used by
    /// tests and the fault-soak harness; the `--fault-plan=` CLI flag
    /// installs a process-global plan instead.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attach a shared cancellation token (builder style). The engine
    /// polls it wherever it checks flow deadlines; see [`crate::cancel`].
    pub fn with_cancel(mut self, token: Arc<crate::cancel::CancelToken>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Probe a fault-injection seam: the context-local plan if one is
    /// attached, else the process-global ambient plan. The site name is
    /// only built when some plan is installed, so the disabled path costs
    /// one pointer check plus one relaxed atomic load.
    pub fn probe_fault(
        &self,
        seam: psa_faults::Seam,
        site: impl FnOnce() -> String,
    ) -> Option<psa_faults::FaultAction> {
        if let Some(plan) = &self.faults {
            return plan.probe(seam, &site());
        }
        psa_faults::probe(seam, site)
    }

    /// The working module, for a task that rewrites it. Copies the AST
    /// first when another context still shares it (`Arc::make_mut`), so
    /// call it only once a rewrite is certain: a task that finds nothing
    /// to change should decide that on `&ctx.ast.module` and leave the
    /// AST shared.
    pub fn module_mut(&mut self) -> &mut psa_minicpp::Module {
        &mut Arc::make_mut(&mut self.ast).module
    }

    /// Append a free-form trace line (recorded as a [`TraceEvent::Note`]).
    pub fn log(&mut self, line: impl Into<String>) {
        self.trace.push(TraceEvent::Note { text: line.into() });
    }

    /// Append a structured trace event (tasks use this for DSE results).
    pub fn push_event(&mut self, event: TraceEvent) {
        self.trace.push(event);
    }

    /// Stage typed evidence for the branch decision currently being made.
    /// The engine attaches it to the branch's [`TraceEvent::Branch`].
    pub fn record_decision(&mut self, evidence: DecisionEvidence) {
        self.pending_decision = Some(evidence);
    }

    /// The structured trace recorded so far.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The trace flattened into the legacy human-readable lines.
    pub fn trace_lines(&self) -> Vec<String> {
        crate::trace::render_lines(&self.trace)
    }

    /// The kernel name, or a flow error message.
    pub fn kernel_name(&self) -> Result<&str, crate::flow::FlowError> {
        self.kernel.as_deref().ok_or_else(|| {
            crate::flow::FlowError::precondition("no kernel extracted yet; run partitioning first")
        })
    }

    /// The analysis record, or a flow error message.
    pub fn analysis(&self) -> Result<&KernelAnalysis, crate::flow::FlowError> {
        self.analysis.as_ref().ok_or_else(|| {
            crate::flow::FlowError::precondition("target-independent analyses have not run yet")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_match_the_paper() {
        let p = PsaParams::default();
        assert_eq!(p.ai_threshold, 0.5);
        assert_eq!(p.full_unroll_limit, 64);
        assert!(p.budget.is_none());
        assert!(p.sp_safe);
    }

    #[test]
    fn context_accessors_error_before_partitioning() {
        let ast = Ast::from_source("int main() { return 0; }", "t").unwrap();
        let ctx = FlowContext::new(ast, PsaParams::default());
        assert!(ctx.kernel_name().is_err());
        assert!(ctx.analysis().is_err());
    }
}
