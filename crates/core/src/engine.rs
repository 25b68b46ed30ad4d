//! The flow execution engine.
//!
//! Since the flow-graph redesign, [`FlowEngine`] executes a
//! [`FlowGraph`]: a dependency DAG of modules and branch points
//! ([`crate::graph`]). The linear [`Flow`] API still works —
//! [`FlowEngine::execute`] converts the chain to a graph
//! ([`Flow::graph`]) and runs it through the same scheduler.
//!
//! ## Scheduling and determinism
//!
//! Independent nodes run concurrently on a work-stealing executor
//! ([`crate::sched`]); [`ExecMode::Sequential`] runs the same node
//! closure over the stable topological order on one thread. Observable
//! output is byte-identical under both (CI-gated), because nothing
//! order-sensitive depends on execution timing:
//!
//! * every node runs on a private context whose *accumulator channels*
//!   (trace, designs, path failures) start empty; the per-node deltas are
//!   concatenated in **stable topological order** afterwards — tasks only
//!   ever append designs and never read `ctx.designs` (the engine
//!   invariant since PR 1), so delta concatenation reproduces the chain
//!   engine's in-place accumulation exactly;
//! * a node with several dependencies materialises its input context by
//!   the **latest-writer-per-port** join plan ([`crate::graph`]), a
//!   function of the graph's structure alone;
//! * a failing node does not stop the scheduler — every non-skipped node
//!   still runs, then assembly keeps exactly the deltas of nodes at topo
//!   positions up to and including the **first error in topological
//!   order** and propagates that error, so an error run's output is also
//!   schedule-independent;
//! * `Selection::Many` branch paths execute concurrently through
//!   [`FlowEngine::fan_out`] (the same work-stealing scheduler, each path
//!   on a fork of the context's value state) and merge back **in
//!   path-index order**, exactly as before the redesign;
//! * node and path contexts share one AST (`Arc<Ast>`); a task that
//!   rewrites the program copies it first ([`FlowContext::module_mut`]),
//!   so no context ever observes a sibling's or a dependent's rewrite and
//!   sharing cannot leak into output;
//! * wall-clock durations are recorded in the trace but never rendered.
//!
//! ## Fault tolerance
//!
//! The hardening semantics carry over from the chain engine unchanged:
//!
//! * every module `run` (and every strategy `select`) executes under
//!   `catch_unwind`; a panic becomes [`FlowError::Internal`];
//! * a [`FailurePolicy`] decides what a failing `Many`-path does to the
//!   sweep: [`FailurePolicy::FailFast`] (default) propagates the first
//!   error by path index, [`FailurePolicy::DegradePaths`] drops the
//!   injured path with a [`TraceEvent::PathFailed`] record and a
//!   [`PathFailure`] log entry while the survivors' designs still merge
//!   in index order, and [`FailurePolicy::Retry`] re-runs failing
//!   *transient* modules with a deterministic virtual backoff. Node
//!   failures outside a `Many` branch propagate under every policy;
//! * optional per-task and per-flow wall-clock deadlines convert overlong
//!   runs into [`FlowError::Timeout`], enforced at the module-span seam;
//! * named fault-injection seams (`psa-faults`) address DAG sites as
//!   `{flow}/{module}` and `{flow}/{branch}` — unchanged from the chain
//!   engine, so existing fault plans keep firing.

use crate::context::FlowContext;
use crate::flow::{BranchPoint, Flow, FlowError, Selection};
use crate::graph::{FlowGraph, GraphNode};
use crate::ports;
use crate::report::{DesignArtifact, PathFailure};
use crate::sched;
use crate::task::TaskInfo;
use crate::trace::{DseTrace, PathTrace, SelectionTrace, TraceEvent};
use psa_faults::{FaultAction, Seam};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How independent graph nodes (and `Selection::Many` branch paths) are
/// executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Work-stealing execution of graph nodes and of selected branch paths
    /// (the default).
    #[default]
    Parallel,
    /// The reference scheduler: every node inline on the calling thread,
    /// in stable topological order; branch paths in index order.
    Sequential,
}

/// Deterministic exponential backoff schedule for [`FailurePolicy::Retry`].
/// The delays are *virtual*: recorded in the trace as `backoff_ms` but
/// never slept, so retrying stays deterministic and free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Backoff before the first retry, milliseconds.
    pub base_ms: u64,
    /// Multiplier applied per further retry.
    pub factor: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            base_ms: 10,
            factor: 2,
        }
    }
}

impl Backoff {
    /// The virtual delay before 1-based retry `attempt`:
    /// `base_ms · factor^(attempt-1)`, saturating.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        self.base_ms
            .saturating_mul(self.factor.saturating_pow(attempt.saturating_sub(1)))
    }
}

/// What the engine does when a module or `Many`-branch path fails.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FailurePolicy {
    /// Propagate the first failure (by path index); the legacy behaviour
    /// and the default.
    #[default]
    FailFast,
    /// Drop a failing `Many`-path — recording [`TraceEvent::PathFailed`]
    /// and a [`PathFailure`] log entry — and keep the surviving paths'
    /// designs, which merge in index order byte-identically to a fault-free
    /// run. Failures outside a `Many` branch still propagate.
    DegradePaths,
    /// Re-run a failing module marked [`TaskInfo::transient`] up to
    /// `attempts` times in total, recording each retry with its virtual
    /// backoff; a module still failing after the last attempt propagates as
    /// under `FailFast`.
    Retry { attempts: u32, backoff: Backoff },
}

impl FailurePolicy {
    /// Parse a `--fail-policy=` CLI value: `failfast`, `degrade`, or
    /// `retry[:attempts[:base_ms[:factor]]]` (defaults `retry:3:10:2`).
    pub fn parse(s: &str) -> Result<FailurePolicy, String> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or_default();
        match head {
            "failfast" => Ok(FailurePolicy::FailFast),
            "degrade" => Ok(FailurePolicy::DegradePaths),
            "retry" => {
                let mut num = |default: u64| -> Result<u64, String> {
                    match parts.next() {
                        None => Ok(default),
                        Some(p) => p.parse().map_err(|_| format!("bad retry field `{p}`")),
                    }
                };
                let attempts = num(3)? as u32;
                let base_ms = num(10)?;
                let factor = num(2)?;
                if attempts == 0 {
                    return Err("retry needs at least 1 attempt".to_string());
                }
                Ok(FailurePolicy::Retry {
                    attempts,
                    backoff: Backoff { base_ms, factor },
                })
            }
            other => Err(format!(
                "unknown failure policy `{other}` (expected failfast|degrade|retry[:n[:ms[:f]]])"
            )),
        }
    }
}

/// Deadline state threaded through one `execute` call tree (the flow
/// deadline is anchored once, when the run starts).
#[derive(Debug, Clone, Copy)]
struct RunState {
    flow_deadline_at: Option<Instant>,
}

/// Executes flow graphs. `Default` is the parallel engine with `FailFast`
/// and no deadlines.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowEngine {
    mode: ExecMode,
    policy: FailurePolicy,
    task_deadline: Option<Duration>,
    flow_deadline: Option<Duration>,
    /// Worker-pool size override; `None` = available parallelism.
    workers: Option<usize>,
}

/// What one graph node left behind: its value-state context (taken by its
/// last consumer or the final join), its accumulator deltas, and how it
/// ended. The assembly step stitches the deltas together in stable
/// topological order.
struct NodeOutcome {
    /// Value state after the node ran; `None` once moved out, or for a
    /// skipped node.
    ctx: Option<FlowContext>,
    trace: Vec<TraceEvent>,
    designs: Vec<DesignArtifact>,
    failures: Vec<PathFailure>,
    error: Option<FlowError>,
    /// The node never ran: some dependency was skipped, terminated, or
    /// failed.
    skipped: bool,
    /// A branch strategy selected no path here; all dependents are skipped
    /// ("the design-flow terminates without modifying the input").
    terminated: bool,
}

impl NodeOutcome {
    fn skipped() -> Self {
        NodeOutcome {
            ctx: None,
            trace: Vec::new(),
            designs: Vec::new(),
            failures: Vec::new(),
            error: None,
            skipped: true,
            terminated: false,
        }
    }
}

impl FlowEngine {
    /// The parallel engine (same as `Default`).
    pub fn parallel() -> Self {
        FlowEngine {
            mode: ExecMode::Parallel,
            ..FlowEngine::default()
        }
    }

    /// The single-threaded reference engine.
    pub fn sequential() -> Self {
        FlowEngine {
            mode: ExecMode::Sequential,
            ..FlowEngine::default()
        }
    }

    /// This engine's execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// This engine's failure policy.
    pub fn policy(&self) -> FailurePolicy {
        self.policy
    }

    /// Set the failure policy (builder style).
    pub fn with_policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set a wall-clock deadline for each individual module. A module whose
    /// `run` outlives it fails with [`FlowError::Timeout`] (checked when
    /// the module returns — modules have no cancellation points).
    pub fn with_task_deadline(mut self, deadline: Duration) -> Self {
        self.task_deadline = Some(deadline);
        self
    }

    /// Set a wall-clock deadline for each whole `execute` call. Checked
    /// before each module starts: no module starts once the deadline has
    /// passed.
    pub fn with_flow_deadline(mut self, deadline: Duration) -> Self {
        self.flow_deadline = Some(deadline);
        self
    }

    /// Pin the parallel engine's worker-pool size instead of deriving it
    /// from `available_parallelism` (still capped by graph width or
    /// fan-out size, and ignored by the sequential engine). Determinism
    /// tests use this to exercise the work-stealing scheduler even on
    /// single-CPU hosts.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Worker threads for `width` independent units: 1 on the sequential
    /// engine, else the pinned or available parallelism capped at `width`.
    fn workers_for(&self, width: usize) -> usize {
        match self.mode {
            ExecMode::Sequential => 1,
            ExecMode::Parallel => self
                .workers
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|p| p.get())
                        .unwrap_or(1)
                })
                .min(width),
        }
    }

    /// Run `f(0)`, …, `f(n - 1)` as independent units of work and return
    /// the results in index order — the one fan-out path for branch paths
    /// and benchmark sweeps.
    ///
    /// With one worker (always on the sequential engine) the items run in
    /// order on the calling thread and nothing is spawned. Otherwise they
    /// run on the work-stealing scheduler over fresh scoped threads, so
    /// nested fan-outs never wait on each other's workers. A panicking
    /// item does not strand its siblings: every item still runs, then the
    /// first panic by index resumes on the calling thread.
    pub fn fan_out<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.workers_for(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let exec = |i: usize, _: &[Mutex<Option<std::thread::Result<T>>>]| {
            catch_unwind(AssertUnwindSafe(|| f(i)))
        };
        sched::run_work_stealing(n, &vec![Vec::new(); n], &vec![0; n], workers, exec)
            .into_iter()
            .map(|slot| match slot.expect("scheduler fills every slot") {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }

    /// Run a linear [`Flow`] to completion against `ctx` (the chain is
    /// converted to its [`FlowGraph`] and scheduled like any other graph).
    pub fn execute(&self, flow: &Flow, ctx: &mut FlowContext) -> Result<(), FlowError> {
        self.execute_graph(&flow.graph(), ctx)
    }

    /// Run a [`FlowGraph`] to completion against `ctx`.
    pub fn execute_graph(&self, graph: &FlowGraph, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let state = RunState {
            flow_deadline_at: self.flow_deadline.map(|d| Instant::now() + d),
        };
        if let Some(d) = self.flow_deadline {
            psa_obs::recorder::record_deadline_arm("flow", d.as_millis() as u64);
        }
        // Open the flow's root span so the forensic span table always
        // contains the top of the causal tree (node spans parent into it).
        // The label carries the app name: with several flows in one dump
        // (a benchmark sweep) the roots must be tellable apart.
        let root_label = format!("{}/{}", graph.name, ctx.ast.module.name);
        let _root_guard = psa_obs::span::enter(ctx.span, &root_label);
        self.run_graph(graph, ctx, state)
    }

    /// Execute `graph` against a live context: run every node on a private
    /// delta context, then append the deltas to `ctx`'s channels in stable
    /// topological order and adopt the final value state. Also the
    /// recursion point for branch-path sub-graphs.
    fn run_graph(
        &self,
        graph: &FlowGraph,
        ctx: &mut FlowContext,
        state: RunState,
    ) -> Result<(), FlowError> {
        let n = graph.len();
        if n == 0 {
            return Ok(());
        }
        let entry = value_state(ctx);
        // Remaining consumers per node: when the last one claims a
        // predecessor's context it takes (moves) it instead of cloning, so
        // a chain-shaped graph threads one context end to end, clone-free.
        let consumers: Vec<AtomicUsize> = (0..n)
            .map(|i| AtomicUsize::new(graph.succs(i).len()))
            .collect();
        let exec = |i: usize, slots: &[Mutex<Option<NodeOutcome>>]| -> NodeOutcome {
            // Backstop: exec_node's seams already catch panics; if the
            // engine itself unwinds, fail the node rather than the pool.
            catch_unwind(AssertUnwindSafe(|| {
                self.exec_node(graph, i, &entry, slots, &consumers, state)
            }))
            .unwrap_or_else(|payload| NodeOutcome {
                ctx: None,
                trace: Vec::new(),
                designs: Vec::new(),
                failures: Vec::new(),
                error: Some(FlowError::internal(format!(
                    "node `{}` scheduling panicked: {}",
                    graph.node_name(i),
                    panic_message(payload)
                ))),
                skipped: false,
                terminated: false,
            })
        };

        let workers = self.workers_for(graph.width());
        let mut outcomes: Vec<NodeOutcome> = if workers <= 1 {
            sched::run_sequential(n, graph.topo(), exec)
        } else {
            let indegree: Vec<usize> = (0..n).map(|i| graph.deps(i).len()).collect();
            let succs: Vec<Vec<usize>> = (0..n).map(|i| graph.succs(i).to_vec()).collect();
            sched::run_work_stealing(n, &succs, &indegree, workers, exec)
        }
        .into_iter()
        .map(|o| o.expect("scheduler fills every slot"))
        .collect();

        // Assembly: concatenate per-node deltas in stable topological
        // order. On failure, keep everything up to and including the first
        // error's topo position (matching the chain engine, where nothing
        // after a failing step runs), then propagate that error.
        let first_err: Option<(usize, FlowError)> = graph
            .topo()
            .iter()
            .enumerate()
            .find_map(|(pos, &i)| outcomes[i].error.clone().map(|e| (pos, e)));
        for (pos, &i) in graph.topo().iter().enumerate() {
            if let Some((err_pos, _)) = &first_err {
                if pos > *err_pos {
                    break;
                }
            }
            let o = &mut outcomes[i];
            if o.skipped {
                continue;
            }
            ctx.trace.append(&mut o.trace);
            ctx.designs.append(&mut o.designs);
            ctx.failures.append(&mut o.failures);
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }

        // Final value state: a virtual sink join over the *effective
        // terminals* — non-skipped nodes none of whose dependents ran.
        let terminals: Vec<usize> = (0..n)
            .filter(|&i| {
                !outcomes[i].skipped && graph.succs(i).iter().all(|&s| outcomes[s].skipped)
            })
            .collect();
        let plan = graph.join_plan(&terminals);
        let base = plan
            .base
            .expect("root nodes never skip: some terminal exists");
        let mut fin = outcomes[base]
            .ctx
            .take()
            .expect("terminal contexts are never consumed");
        for (p, set) in &plan.imports {
            let src = outcomes[*p]
                .ctx
                .as_ref()
                .expect("terminal contexts are never consumed");
            for port in set.iter() {
                ports::copy_port(&mut fin, src, port);
            }
        }
        adopt_value_state(ctx, fin);
        Ok(())
    }

    /// Execute one graph node: decide skip, materialise the input context
    /// from predecessor slots (join plan + take-when-last-consumer), run
    /// the module or branch, and drain the accumulator deltas.
    fn exec_node(
        &self,
        graph: &FlowGraph,
        i: usize,
        entry: &FlowContext,
        slots: &[Mutex<Option<NodeOutcome>>],
        consumers: &[AtomicUsize],
        state: RunState,
    ) -> NodeOutcome {
        let deps = graph.deps(i);
        let skip = deps.iter().any(|&d| {
            let slot = sched::lock(&slots[d]);
            let o = slot.as_ref().expect("scheduler runs dependencies first");
            o.skipped || o.terminated || o.error.is_some()
        });
        if skip {
            // Still release the claims so sibling consumers can take.
            for &d in deps {
                consumers[d].fetch_sub(1, Ordering::AcqRel);
            }
            return NodeOutcome::skipped();
        }

        let mut input: Option<FlowContext> = if deps.is_empty() {
            Some(entry.clone())
        } else {
            None
        };
        let plan = graph.join_plan(deps);
        for &d in deps {
            // The slot lock serialises copy/take with the consumer-count
            // decrement: a consumer that observes itself last (fetch_sub
            // returns 1) knows every sibling has already copied.
            let mut slot = sched::lock(&slots[d]);
            let last = consumers[d].fetch_sub(1, Ordering::AcqRel) == 1;
            let o = slot.as_mut().expect("scheduler runs dependencies first");
            if Some(d) == plan.base {
                let ctx = if last { o.ctx.take() } else { o.ctx.clone() };
                input = Some(ctx.expect("non-skipped dependency keeps its context"));
                continue;
            }
            if let Some((_, set)) = plan.imports.iter().find(|(p, _)| *p == d) {
                let src = o
                    .ctx
                    .as_ref()
                    .expect("non-skipped dependency keeps its context");
                let dst = input
                    .as_mut()
                    .expect("the join base is the smallest dependency, visited first");
                for port in set.iter() {
                    ports::copy_port(dst, src, port);
                }
            }
            if last {
                // Nothing reads this context again: a node with a running
                // dependent is no terminal of the final join. Dropping it
                // releases its share of the AST, so a rewrite downstream
                // does not copy for a reader that is gone.
                o.ctx = None;
            }
        }
        let mut input = input.expect("every non-root node has a join base");

        // The node's causal span: a structural child of the enclosing
        // flow/path span keyed on `(node name, node id)` — identical across
        // reruns and scheduler interleavings. The ambient guard attributes
        // every seam event below (cache lookups, estimates, VM runs,
        // faults) to this node until it finishes.
        let node_name = graph.node_name(i);
        let node_span = input.span.child(&node_name, i as u64);
        let _node_guard = psa_obs::span::enter(node_span, &node_name);

        let (result, terminated) = match &graph.nodes[i].kind {
            GraphNode::Module(m) => (
                self.run_module(&graph.name, m.as_ref(), &mut input, state),
                false,
            ),
            GraphNode::Branch(bp) => match self.run_branch(&graph.name, bp, &mut input, state) {
                Ok(continues) => (Ok(()), !continues),
                Err(e) => (Err(e), false),
            },
        };

        NodeOutcome {
            trace: std::mem::take(&mut input.trace),
            designs: std::mem::take(&mut input.designs),
            failures: std::mem::take(&mut input.failures),
            error: result.err(),
            ctx: Some(input),
            skipped: false,
            terminated,
        }
    }

    /// Run one module, wrapping everything it records into a
    /// [`TraceEvent::Task`] span (also on error or panic, so the trace
    /// stays well-formed). Retries transient modules under
    /// [`FailurePolicy::Retry`] and enforces both deadlines.
    fn run_module(
        &self,
        flow_name: &str,
        module: &dyn crate::task::Module,
        ctx: &mut FlowContext,
        state: RunState,
    ) -> Result<(), FlowError> {
        let info = module.info();
        // Cooperative cancellation: polled at the same seam as the flow
        // deadline, so a tripped token stops the run before the next
        // module starts (one pointer check when no token is attached).
        if let Some(token) = &ctx.cancel {
            if token.is_cancelled() {
                psa_obs::counter_add("psa_flow_cancellations_total", &[("scope", "task")], 1);
                return Err(token.error());
            }
        }
        // Flow deadline: checked before the span opens — a module never
        // starts once the whole-flow budget is spent.
        if let Some(at) = state.flow_deadline_at {
            if Instant::now() >= at {
                psa_obs::counter_add("psa_flow_timeouts_total", &[("scope", "flow")], 1);
                psa_obs::recorder::record_deadline_expired("flow");
                return Err(FlowError::timeout(format!(
                    "flow `{}` deadline elapsed before task `{}`",
                    flow_name, info.name
                )));
            }
        }
        if let Some(limit) = self.task_deadline {
            psa_obs::recorder::record_deadline_arm("task", limit.as_millis() as u64);
        }
        let start = ctx.trace.len();
        let t0 = Instant::now();
        let max_attempts = match (self.policy, info.transient) {
            (FailurePolicy::Retry { attempts, .. }, true) => attempts.max(1),
            _ => 1,
        };
        let mut result = attempt_module(flow_name, module, &info, ctx);
        let mut attempt = 1u32;
        while attempt < max_attempts {
            let err = match &result {
                Err(e) if e.is_transient() => e.clone(),
                _ => break,
            };
            let backoff_ms = match self.policy {
                FailurePolicy::Retry { backoff, .. } => backoff.delay_ms(attempt),
                _ => 0,
            };
            ctx.trace.push(TraceEvent::TaskRetry {
                flow: flow_name.to_string(),
                task: info.name.to_string(),
                attempt,
                backoff_ms,
                error: err.message(),
            });
            psa_obs::counter_add("psa_flow_task_retries_total", &[("task", info.name)], 1);
            psa_obs::recorder::record_retry(info.name, attempt as u64);
            attempt += 1;
            result = attempt_module(flow_name, module, &info, ctx);
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        // Task deadline: the span's wall-clock converts an overlong run
        // into a typed timeout once the module hands control back.
        if result.is_ok() {
            if let Some(limit) = self.task_deadline {
                if t0.elapsed() > limit {
                    psa_obs::counter_add("psa_flow_timeouts_total", &[("scope", "task")], 1);
                    psa_obs::recorder::record_deadline_expired("task");
                    result = Err(FlowError::timeout(format!(
                        "task `{}` ran {}ms, over its {}ms deadline",
                        info.name,
                        t0.elapsed().as_millis(),
                        limit.as_millis()
                    )));
                }
            }
        }
        psa_obs::counter_add(
            "psa_flow_tasks_total",
            &[("task", info.name), ("class", info.class.code())],
            1,
        );
        psa_obs::observe("psa_flow_task_wall_ns", &[("task", info.name)], wall_ns);
        let events = ctx.trace.split_off(start);
        let virtual_s = dse_virtual_s(&events);
        ctx.trace.push(TraceEvent::Task {
            flow: flow_name.to_string(),
            name: info.name.to_string(),
            class: info.class.code().to_string(),
            dynamic: info.dynamic,
            wall_ns,
            virtual_s,
            events,
        });
        result
    }

    /// Run one branch point. Returns `Ok(false)` when the strategy selected
    /// no path (every dependent of the branch node is skipped).
    fn run_branch(
        &self,
        flow_name: &str,
        bp: &BranchPoint,
        ctx: &mut FlowContext,
        state: RunState,
    ) -> Result<bool, FlowError> {
        // Cancellation is also polled before a branch expands: selecting
        // paths (and cloning contexts for them) is exactly the fan-out a
        // draining service wants to suppress.
        if let Some(token) = &ctx.cancel {
            if token.is_cancelled() {
                psa_obs::counter_add("psa_flow_cancellations_total", &[("scope", "branch")], 1);
                return Err(token.error());
            }
        }
        let start = ctx.trace.len();
        // The select seam: fault-injectable and panic-isolated like a
        // module run — a panicking strategy surfaces as a typed error.
        let selected = catch_unwind(AssertUnwindSafe(|| {
            match ctx.probe_fault(Seam::Select, || format!("{}/{}", flow_name, bp.name)) {
                None => {}
                Some(FaultAction::Delay { ms }) => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                Some(FaultAction::Error { kind, message }) => {
                    return Err(FlowError::injected(&kind, message));
                }
                Some(FaultAction::Panic { message }) => panic!("injected fault: {message}"),
            }
            bp.strategy.select(bp, ctx)
        }))
        .unwrap_or_else(|payload| {
            let msg = panic_message(payload);
            psa_obs::recorder::mark_trigger(&format!(
                "panic:strategy `{}` at branch `{}`: {msg}",
                bp.strategy.name(),
                bp.name
            ));
            Err(FlowError::internal(format!(
                "strategy `{}` panicked at branch `{}`: {msg}",
                bp.strategy.name(),
                bp.name
            )))
        });
        let evidence = ctx.trace.split_off(start);
        let decision = ctx.pending_decision.take();
        let selected = match selected {
            Ok(s) => s,
            Err(e) => {
                // Keep whatever the strategy recorded before failing.
                ctx.trace.extend(evidence);
                return Err(e);
            }
        };

        // Validate every selected index up front so an out-of-range
        // selection never launches sibling work.
        let indices: Vec<usize> = match &selected {
            Selection::None => Vec::new(),
            Selection::One(i) => vec![*i],
            Selection::Many(is) => is.clone(),
        };
        if let Some(&bad) = indices.iter().find(|&&i| i >= bp.paths.len()) {
            ctx.trace.extend(evidence);
            return Err(FlowError::selection(&bp.name, bad));
        }
        psa_obs::counter_add(
            "psa_flow_branches_total",
            &[("branch", &bp.name), ("strategy", bp.strategy.name())],
            1,
        );
        psa_obs::counter_add(
            "psa_flow_paths_total",
            &[("branch", &bp.name)],
            indices.len() as u64,
        );

        let push_branch =
            |ctx: &mut FlowContext, selection: SelectionTrace, paths: Vec<PathTrace>| {
                ctx.trace.push(TraceEvent::Branch {
                    flow: flow_name.to_string(),
                    branch: bp.name.clone(),
                    strategy: bp.strategy.name().to_string(),
                    evidence,
                    decision,
                    selection,
                    paths,
                });
            };

        match selected {
            Selection::None => {
                push_branch(ctx, SelectionTrace::None, Vec::new());
                Ok(false)
            }
            Selection::One(index) => {
                let (label, subgraph) = &bp.paths[index];
                // A single path continues on the live context: its state
                // (AST edits, tuned parameters) persists past the branch.
                // Its causal span is a child of the branch node's span
                // (ambient here) so the sub-graph's node spans nest under
                // the path; restored afterwards since the trunk continues.
                let saved_span = ctx.span;
                ctx.span = psa_obs::span::current()
                    .unwrap_or(saved_span)
                    .child(label, index as u64);
                let path_guard = psa_obs::span::enter(ctx.span, label);
                let result = self.run_graph(subgraph, ctx, state);
                drop(path_guard);
                ctx.span = saved_span;
                let events = ctx.trace.split_off(start);
                let path = PathTrace {
                    index,
                    label: label.clone(),
                    events,
                };
                push_branch(
                    ctx,
                    SelectionTrace::One {
                        index,
                        label: label.clone(),
                    },
                    vec![path],
                );
                result.map(|()| true)
            }
            Selection::Many(_) => {
                let labels: Vec<String> = indices.iter().map(|&i| bp.paths[i].0.clone()).collect();
                // run_many never unwinds: path panics are converted to
                // typed errors, so completed sibling traces always attach
                // to the branch event below — even when the error then
                // propagates under `FailFast`.
                let (paths, first_err) = self.run_many(flow_name, bp, ctx, &indices, state);
                push_branch(ctx, SelectionTrace::Many { indices, labels }, paths);
                match first_err {
                    Some(e) => Err(e),
                    None => Ok(true),
                }
            }
        }
    }

    /// Execute the selected paths of a `Many` branch, each on a fork of
    /// `ctx`'s value state, and merge their designs back into `ctx` in
    /// index order.
    /// Returns the per-path traces plus the first (by index) propagating
    /// path error. Never unwinds: path panics arrive here already converted
    /// to [`FlowError::Internal`], so sibling traces are always preserved.
    fn run_many(
        &self,
        flow_name: &str,
        bp: &BranchPoint,
        ctx: &mut FlowContext,
        indices: &[usize],
        state: RunState,
    ) -> (Vec<PathTrace>, Option<FlowError>) {
        let mut paths = Vec::with_capacity(indices.len());
        let mut first_err: Option<FlowError> = None;
        // Branch-path spans hang off the branch node's span (the ambient
        // span on this thread). Captured here because fanned-out paths may
        // run on scheduler threads whose ambient stacks start empty.
        let branch_span = psa_obs::span::current().unwrap_or(ctx.span);

        // One merge step: fold a finished path's context back into the
        // parent according to the failure policy. `merge_designs` is false
        // once fail-fast has latched an earlier error (legacy semantics:
        // paths after the first failure keep their traces, not designs).
        let mut merge = |ctx: &mut FlowContext,
                         first_err: &mut Option<FlowError>,
                         index: usize,
                         res: Result<(), FlowError>,
                         mut pctx: FlowContext| {
            let label = &bp.paths[index].0;
            // A path starts with no designs, so all it holds are its own.
            let suffix = std::mem::take(&mut pctx.designs);
            let mut events = std::mem::take(&mut pctx.trace);
            // Failures degraded inside the path (nested branches) bubble
            // up into the parent's failure log, before the path's own.
            ctx.failures.append(&mut pctx.failures);
            match res {
                Ok(()) => {
                    if first_err.is_none() {
                        ctx.designs.extend(suffix);
                    }
                }
                Err(e) => match self.policy {
                    FailurePolicy::DegradePaths => {
                        psa_obs::counter_add(
                            "psa_flow_path_failures_total",
                            &[("branch", &bp.name)],
                            1,
                        );
                        events.push(TraceEvent::PathFailed {
                            flow: flow_name.to_string(),
                            branch: bp.name.clone(),
                            index,
                            label: label.clone(),
                            error: e.clone(),
                        });
                        ctx.failures.push(PathFailure {
                            flow: flow_name.to_string(),
                            branch: bp.name.clone(),
                            index,
                            label: label.clone(),
                            error: e,
                        });
                    }
                    _ => {
                        if first_err.is_none() {
                            *first_err = Some(e);
                        }
                    }
                },
            }
            paths.push(PathTrace {
                index,
                label: label.clone(),
                events,
            });
        };

        // One path on its own context, under a span hanging off the branch.
        let run_one = |index: usize, mut pctx: FlowContext| {
            let (label, subgraph) = &bp.paths[index];
            pctx.span = branch_span.child(label, index as u64);
            let res = self.run_path(subgraph, &mut pctx, state, label);
            (res, pctx)
        };

        match self.mode {
            ExecMode::Sequential => {
                for &index in indices {
                    let (res, pctx) = run_one(index, value_state(ctx));
                    let failed = res.is_err();
                    merge(ctx, &mut first_err, index, res, pctx);
                    if failed && self.policy != FailurePolicy::DegradePaths {
                        // As in the legacy engine: stop at the first
                        // failing path; earlier paths' designs stay.
                        break;
                    }
                }
            }
            ExecMode::Parallel => {
                let pctxs: Vec<Mutex<Option<FlowContext>>> = indices
                    .iter()
                    .map(|_| Mutex::new(Some(value_state(ctx))))
                    .collect();
                let joined = self.fan_out(indices.len(), |k| {
                    let pctx = sched::lock(&pctxs[k])
                        .take()
                        .expect("each path context is taken once");
                    run_one(indices[k], pctx)
                });
                for (&index, (res, pctx)) in indices.iter().zip(joined) {
                    merge(ctx, &mut first_err, index, res, pctx);
                }
            }
        }
        (paths, first_err)
    }

    /// Run one branch path's sub-graph under the path's span, with a panic
    /// backstop: any unwind that escapes the module/select seams (i.e. a
    /// bug in the engine or a non-send panic site) still becomes a typed
    /// error for this path instead of tearing down the sweep.
    fn run_path(
        &self,
        subgraph: &FlowGraph,
        pctx: &mut FlowContext,
        state: RunState,
        label: &str,
    ) -> Result<(), FlowError> {
        let _path_guard = psa_obs::span::enter(pctx.span, label);
        match catch_unwind(AssertUnwindSafe(|| self.run_graph(subgraph, pctx, state))) {
            Ok(r) => r,
            Err(payload) => {
                let msg = panic_message(payload);
                psa_obs::recorder::mark_trigger(&format!("panic:path `{label}`: {msg}"));
                Err(FlowError::internal(format!(
                    "path `{label}` panicked: {msg}"
                )))
            }
        }
    }
}

/// One attempt at a module's `run`: the fault-probe for the task seam plus
/// a `catch_unwind` converting panics (injected or genuine) into
/// [`FlowError::Internal`]. Fault sites keep the chain-era
/// `{flow}/{module}` shape.
fn attempt_module(
    flow_name: &str,
    module: &dyn crate::task::Module,
    info: &TaskInfo,
    ctx: &mut FlowContext,
) -> Result<(), FlowError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        match ctx.probe_fault(Seam::Task, || format!("{}/{}", flow_name, info.name)) {
            None => {}
            Some(FaultAction::Delay { ms }) => std::thread::sleep(Duration::from_millis(ms)),
            Some(FaultAction::Error { kind, message }) => {
                return Err(FlowError::injected(&kind, message));
            }
            Some(FaultAction::Panic { message }) => panic!("injected fault: {message}"),
        }
        module.run(ctx)
    }));
    outcome.unwrap_or_else(|payload| {
        let msg = panic_message(payload);
        psa_obs::recorder::mark_trigger(&format!("panic:task `{}`: {msg}", info.name));
        Err(FlowError::internal(format!(
            "task `{}` panicked: {msg}",
            info.name
        )))
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A fork of a context's *value state*: the ports, the pending decision
/// and the shared plumbing (cache, fault plan, cancel token, span), with
/// the accumulator channels empty, so whatever runs on it records pure
/// deltas. The start of every graph run and of every branch path. The
/// AST is shared, not copied.
fn value_state(ctx: &FlowContext) -> FlowContext {
    FlowContext {
        ast: std::sync::Arc::clone(&ctx.ast),
        kernel: ctx.kernel.clone(),
        hotspot: ctx.hotspot.clone(),
        analysis: ctx.analysis.clone(),
        tuned: ctx.tuned,
        shared_mem_arrays: ctx.shared_mem_arrays.clone(),
        smem_staged_fraction: ctx.smem_staged_fraction,
        selected_target: ctx.selected_target,
        fpga_unsynthesizable: ctx.fpga_unsynthesizable.clone(),
        params: ctx.params.clone(),
        reference_time_s: ctx.reference_time_s,
        designs: Vec::new(),
        cache: std::sync::Arc::clone(&ctx.cache),
        failures: Vec::new(),
        faults: ctx.faults.clone(),
        cancel: ctx.cancel.clone(),
        span: ctx.span,
        trace: Vec::new(),
        pending_decision: ctx.pending_decision.clone(),
    }
}

/// Move a finished graph run's value state into the live context. The
/// run's own channels are empty (assembly already appended every node's
/// deltas to the live context's), and its plumbing is the live context's,
/// shared, so the live context keeps only its channels.
fn adopt_value_state(dst: &mut FlowContext, mut src: FlowContext) {
    src.trace = std::mem::take(&mut dst.trace);
    src.designs = std::mem::take(&mut dst.designs);
    src.failures = std::mem::take(&mut dst.failures);
    *dst = src;
}

/// The estimated execution time a module's DSE settled on, if it ran one.
fn dse_virtual_s(events: &[TraceEvent]) -> Option<f64> {
    let mut v = None;
    for e in events {
        if let TraceEvent::Dse(
            DseTrace::OmpThreads { est_s, .. } | DseTrace::Blocksize { est_s, .. },
        ) = e
        {
            v = Some(*est_s);
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PsaParams;
    use crate::flow::Selection;
    use crate::report::{DesignArtifact, DesignParams, DeviceKind, TargetKind};
    use crate::strategy::PsaStrategy;
    use crate::task::{Task, TaskClass, TaskInfo};
    use psa_artisan::Ast;
    use std::sync::Arc;

    struct Emit(&'static str, u64);
    impl Task for Emit {
        fn info(&self) -> TaskInfo {
            TaskInfo::new(self.0, TaskClass::CodeGen, false)
        }
        fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
            // A deliberately non-uniform delay so parallel completion order
            // differs from index order.
            std::thread::sleep(std::time::Duration::from_millis(self.1));
            ctx.log(format!("emitting {}", self.0));
            ctx.designs.push(DesignArtifact {
                target: TargetKind::MultiThreadCpu,
                device: DeviceKind::Epyc7543,
                source: format!("// {}", self.0),
                loc: 1,
                estimated_time_s: Some(1.0),
                synthesizable: true,
                params: DesignParams::default(),
                notes: vec![],
            });
            Ok(())
        }
    }

    struct All;
    impl PsaStrategy for All {
        fn name(&self) -> &str {
            "all"
        }
        fn select(&self, bp: &BranchPoint, _ctx: &mut FlowContext) -> Result<Selection, FlowError> {
            Ok(Selection::Many((0..bp.paths.len()).collect()))
        }
    }

    struct Failing;
    impl Task for Failing {
        fn info(&self) -> TaskInfo {
            TaskInfo::new("failing", TaskClass::Transform, false)
        }
        fn run(&self, _ctx: &mut FlowContext) -> Result<(), FlowError> {
            Err(FlowError::transform("induced failure"))
        }
    }

    fn ctx() -> FlowContext {
        FlowContext::new(
            Ast::from_source("int main() { return 0; }", "t").unwrap(),
            PsaParams::default(),
        )
    }

    fn fan_out() -> Flow {
        // Outer Many branch whose second path contains a nested Many
        // branch, with sleeps arranged so threads finish out of order.
        Flow::new("outer").branch(
            "B",
            All,
            vec![
                ("slow".into(), Flow::new("slow").then(Emit("slow", 30))),
                (
                    "nested".into(),
                    Flow::new("nested").branch(
                        "C",
                        All,
                        vec![
                            ("n-slow".into(), Flow::new("ns").then(Emit("n-slow", 20))),
                            ("n-fast".into(), Flow::new("nf").then(Emit("n-fast", 0))),
                        ],
                    ),
                ),
                ("fast".into(), Flow::new("fast").then(Emit("fast", 0))),
            ],
        )
    }

    #[test]
    fn parallel_matches_sequential_bytewise() {
        let flow = fan_out();
        let mut par = ctx();
        let mut seq = ctx();
        FlowEngine::parallel().execute(&flow, &mut par).unwrap();
        FlowEngine::sequential().execute(&flow, &mut seq).unwrap();
        assert_eq!(par.trace_lines(), seq.trace_lines());
        let sources = |c: &FlowContext| -> Vec<String> {
            c.designs.iter().map(|d| d.source.clone()).collect()
        };
        assert_eq!(sources(&par), sources(&seq));
        assert_eq!(
            sources(&par),
            ["// slow", "// n-slow", "// n-fast", "// fast"],
            "designs merge in path-index order, not completion order"
        );
    }

    #[test]
    fn fan_out_returns_results_in_index_order_on_both_engines() {
        let engines = [
            FlowEngine::sequential(),
            FlowEngine::parallel(),
            FlowEngine::parallel().with_workers(3),
        ];
        for engine in engines {
            // Earlier items sleep longer, so they finish last.
            let got = engine.fan_out(6, |i| {
                std::thread::sleep(Duration::from_millis(6 - i as u64));
                i * 10
            });
            assert_eq!(got, [0, 10, 20, 30, 40, 50], "{engine:?}");
        }
    }

    #[test]
    fn fan_out_with_one_worker_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for engine in [
            FlowEngine::sequential(),
            FlowEngine::parallel().with_workers(1),
        ] {
            let threads = engine.fan_out(4, |_| std::thread::current().id());
            assert!(threads.iter().all(|&t| t == caller), "{engine:?}");
        }
    }

    #[test]
    fn fan_out_completes_with_more_items_than_workers() {
        let engine = FlowEngine::parallel().with_workers(2);
        let got = engine.fan_out(50, |i| i * i);
        assert_eq!(got, (0..50).map(|i| i * i).collect::<Vec<_>>());
        // Nested fan-outs start their own workers and never wait on the
        // outer ones.
        let nested = engine.fan_out(3, |i| {
            engine.fan_out(3, |j| i * 3 + j).iter().sum::<usize>()
        });
        assert_eq!(nested, [3, 12, 21]);
    }

    #[test]
    fn fan_out_resumes_the_first_panic_by_index_after_every_item_ran() {
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            FlowEngine::parallel().with_workers(2).fan_out(4, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i % 2 == 1 {
                    panic!("item {i}");
                }
            })
        }));
        let payload = caught.expect_err("an item panicked");
        assert_eq!(panic_message(payload), "item 1");
        assert_eq!(ran.load(Ordering::Relaxed), 4, "siblings still ran");
    }

    /// Latency demonstration (ignored by default: it is a timing
    /// measurement, not a correctness property). The fan-out's sleeps model
    /// blocking work — 30+20+0 ms sequentially vs max(30, 20, 0) ms in
    /// parallel — so the parallel engine wins on any host with more than
    /// one available CPU (one CPU means one worker, which runs in order).
    /// Run with `cargo test -p psaflow-core -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing measurement, not a correctness check"]
    fn parallel_hides_blocking_latency() {
        let flow = fan_out();
        let time = |engine: FlowEngine| {
            let mut c = ctx();
            let t0 = Instant::now();
            engine.execute(&flow, &mut c).unwrap();
            t0.elapsed()
        };
        let seq = time(FlowEngine::sequential());
        let par = time(FlowEngine::parallel());
        println!("sequential {seq:?} vs parallel {par:?}");
        assert!(
            seq.as_millis() >= 50,
            "sequential pays every path's latency"
        );
        assert!(par < seq, "parallel overlaps path latencies");
    }

    #[test]
    fn first_error_by_index_wins_in_parallel() {
        let flow = Flow::new("f").branch(
            "B",
            All,
            vec![
                ("ok".into(), Flow::new("ok").then(Emit("ok", 20))),
                ("bad".into(), Flow::new("bad").then(Failing)),
                (
                    "late-bad".into(),
                    Flow::new("lb").then(Emit("x", 0)).then(Failing),
                ),
            ],
        );
        let mut c = ctx();
        let err = FlowEngine::parallel().execute(&flow, &mut c).unwrap_err();
        assert_eq!(err, FlowError::transform("induced failure"));
        // The successful path before the failure still merged its design.
        assert_eq!(c.designs.len(), 1);
    }

    struct Panicking;
    impl Task for Panicking {
        fn info(&self) -> TaskInfo {
            TaskInfo::new("panicking", TaskClass::Transform, false)
        }
        fn run(&self, _ctx: &mut FlowContext) -> Result<(), FlowError> {
            panic!("boom")
        }
    }

    /// Fails (transiently) as long as its shared fuse is non-zero.
    struct Flaky(std::sync::Arc<std::sync::atomic::AtomicU32>);
    impl Task for Flaky {
        fn info(&self) -> TaskInfo {
            TaskInfo::new("flaky", TaskClass::Transform, false).transient()
        }
        fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
            use std::sync::atomic::Ordering;
            if self.0.load(Ordering::SeqCst) > 0 {
                self.0.fetch_sub(1, Ordering::SeqCst);
                return Err(FlowError::transform("transient glitch"));
            }
            ctx.log("flaky succeeded");
            Ok(())
        }
    }

    struct PickOne(usize);
    impl PsaStrategy for PickOne {
        fn name(&self) -> &str {
            "pick-one"
        }
        fn select(
            &self,
            _bp: &BranchPoint,
            _ctx: &mut FlowContext,
        ) -> Result<Selection, FlowError> {
            Ok(Selection::One(self.0))
        }
    }

    struct PickNone;
    impl PsaStrategy for PickNone {
        fn name(&self) -> &str {
            "pick-none"
        }
        fn select(
            &self,
            _bp: &BranchPoint,
            _ctx: &mut FlowContext,
        ) -> Result<Selection, FlowError> {
            Ok(Selection::None)
        }
    }

    /// A Many branch with an ok / panicking / ok path layout.
    fn panicking_fan_out() -> Flow {
        Flow::new("outer").branch(
            "B",
            All,
            vec![
                ("left".into(), Flow::new("left").then(Emit("left", 10))),
                ("bad".into(), Flow::new("bad").then(Panicking)),
                ("right".into(), Flow::new("right").then(Emit("right", 0))),
            ],
        )
    }

    fn branch_paths(c: &FlowContext) -> &[PathTrace] {
        match &c.trace()[0] {
            TraceEvent::Branch { paths, .. } => paths,
            other => panic!("expected a branch event, got {other:?}"),
        }
    }

    #[test]
    fn panicking_path_fails_fast_with_sibling_traces_intact() {
        let flow = panicking_fan_out();
        let mut c = ctx();
        let err = FlowEngine::parallel().execute(&flow, &mut c).unwrap_err();
        match &err {
            FlowError::Internal { message } => {
                assert!(message.contains("panicked"), "{message}");
                assert!(message.contains("boom"), "{message}");
            }
            other => panic!("expected an internal error, got {other:?}"),
        }
        // The branch event still recorded, with every sibling's trace.
        let paths = branch_paths(&c);
        assert_eq!(paths.len(), 3);
        assert!(paths[0].events.iter().any(|e| matches!(
            e,
            TraceEvent::Task { name, .. } if name == "left"
        )));
    }

    #[test]
    fn degrade_drops_panicking_path_and_keeps_survivors_in_order() {
        let flow = panicking_fan_out();
        for engine in [FlowEngine::parallel(), FlowEngine::sequential()] {
            let mut c = ctx();
            engine
                .with_policy(FailurePolicy::DegradePaths)
                .execute(&flow, &mut c)
                .unwrap();
            let sources: Vec<&str> = c.designs.iter().map(|d| d.source.as_str()).collect();
            assert_eq!(sources, ["// left", "// right"], "survivors in index order");
            assert_eq!(c.failures.len(), 1);
            let f = &c.failures[0];
            assert_eq!(
                (f.branch.as_str(), f.index, f.label.as_str()),
                ("B", 1, "bad")
            );
            assert!(matches!(&f.error, FlowError::Internal { .. }));
            // The injured path's trace ends with the PathFailed record.
            let paths = branch_paths(&c);
            assert!(matches!(
                paths[1].events.last(),
                Some(TraceEvent::PathFailed { index: 1, .. })
            ));
        }
    }

    #[test]
    fn degrade_is_bytewise_identical_across_engines() {
        let flow = panicking_fan_out();
        let run = |engine: FlowEngine| {
            let mut c = ctx();
            engine
                .with_policy(FailurePolicy::DegradePaths)
                .execute(&flow, &mut c)
                .unwrap();
            c
        };
        let par = run(FlowEngine::parallel());
        let seq = run(FlowEngine::sequential());
        assert_eq!(par.trace_lines(), seq.trace_lines());
        assert_eq!(
            par.failures
                .iter()
                .map(PathFailure::render)
                .collect::<Vec<_>>(),
            seq.failures
                .iter()
                .map(PathFailure::render)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn retry_reruns_transient_task_with_virtual_backoff() {
        let fuse = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(2));
        let flow = Flow::new("f").then(Flaky(std::sync::Arc::clone(&fuse)));
        let mut c = ctx();
        FlowEngine::sequential()
            .with_policy(FailurePolicy::parse("retry:3").unwrap())
            .execute(&flow, &mut c)
            .unwrap();
        let TraceEvent::Task { events, .. } = &c.trace()[0] else {
            panic!("expected a task span");
        };
        let backoffs: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TaskRetry {
                    attempt,
                    backoff_ms,
                    ..
                } => {
                    assert!(*attempt >= 1);
                    Some(*backoff_ms)
                }
                _ => None,
            })
            .collect();
        assert_eq!(backoffs, [10, 20], "exponential virtual backoff recorded");
    }

    #[test]
    fn retry_exhaustion_propagates_the_last_error() {
        let fuse = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(10));
        let flow = Flow::new("f").then(Flaky(std::sync::Arc::clone(&fuse)));
        let mut c = ctx();
        let err = FlowEngine::sequential()
            .with_policy(FailurePolicy::parse("retry:3").unwrap())
            .execute(&flow, &mut c)
            .unwrap_err();
        assert_eq!(err, FlowError::transform("transient glitch"));
        // 3 attempts total: the fuse burned exactly thrice.
        assert_eq!(fuse.load(std::sync::atomic::Ordering::SeqCst), 7);
    }

    #[test]
    fn retry_skips_tasks_not_marked_transient() {
        let flow = Flow::new("f").then(Failing);
        let mut c = ctx();
        let err = FlowEngine::sequential()
            .with_policy(FailurePolicy::parse("retry:5").unwrap())
            .execute(&flow, &mut c)
            .unwrap_err();
        assert_eq!(err, FlowError::transform("induced failure"));
        let TraceEvent::Task { events, .. } = &c.trace()[0] else {
            panic!("expected a task span");
        };
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, TraceEvent::TaskRetry { .. })),
            "non-transient tasks never retry"
        );
    }

    #[test]
    fn task_deadline_converts_overlong_runs_into_timeouts() {
        let flow = Flow::new("f").then(Emit("slow", 25));
        let mut c = ctx();
        let err = FlowEngine::sequential()
            .with_task_deadline(Duration::from_millis(1))
            .execute(&flow, &mut c)
            .unwrap_err();
        assert!(
            matches!(&err, FlowError::Timeout { what } if what.contains("task `slow`")),
            "{err:?}"
        );
        // The span is still recorded (the task did run to completion).
        assert!(matches!(&c.trace()[0], TraceEvent::Task { .. }));
    }

    #[test]
    fn flow_deadline_stops_before_the_next_task() {
        let flow = Flow::new("f")
            .then(Emit("first", 25))
            .then(Emit("second", 0));
        let mut c = ctx();
        let err = FlowEngine::sequential()
            .with_flow_deadline(Duration::from_millis(5))
            .execute(&flow, &mut c)
            .unwrap_err();
        assert!(
            matches!(
                &err,
                FlowError::Timeout { what }
                    if what.contains("flow `f`") && what.contains("task `second`")
            ),
            "{err:?}"
        );
        // The first task ran; the second never started.
        assert_eq!(c.designs.len(), 1);
    }

    /// Trips a shared cancel token, then returns Ok.
    struct TripCancel(std::sync::Arc<crate::cancel::CancelToken>);
    impl Task for TripCancel {
        fn info(&self) -> TaskInfo {
            TaskInfo::new("trip-cancel", TaskClass::Analysis, false)
        }
        fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
            ctx.log("tripping the token");
            self.0.cancel("test drain");
            Ok(())
        }
    }

    #[test]
    fn cancellation_stops_before_the_next_task() {
        let token = std::sync::Arc::new(crate::cancel::CancelToken::new());
        let flow = Flow::new("f")
            .then(Emit("first", 0))
            .then(TripCancel(std::sync::Arc::clone(&token)))
            .then(Emit("second", 0));
        for engine in [FlowEngine::sequential(), FlowEngine::parallel()] {
            token.cancel("test drain"); // idempotent: first reason sticks
            let mut c = ctx().with_cancel(std::sync::Arc::clone(&token));
            let err = engine.execute(&flow, &mut c).unwrap_err();
            assert_eq!(err, FlowError::cancelled("test drain"));
            assert!(c.designs.is_empty(), "no module starts once cancelled");
        }
    }

    #[test]
    fn mid_flow_cancellation_keeps_completed_work() {
        let token = std::sync::Arc::new(crate::cancel::CancelToken::new());
        let flow = Flow::new("f")
            .then(Emit("first", 0))
            .then(TripCancel(std::sync::Arc::clone(&token)))
            .then(Emit("second", 0));
        let mut c = ctx().with_cancel(std::sync::Arc::clone(&token));
        let err = FlowEngine::sequential().execute(&flow, &mut c).unwrap_err();
        assert_eq!(err, FlowError::cancelled("test drain"));
        // The chain engine keeps deltas up to the first error: the first
        // task's design survives, the post-trip task never ran.
        assert_eq!(c.designs.len(), 1);
        assert!(!err.is_transient(), "retry never resurrects a cancellation");
    }

    #[test]
    fn cancellation_suppresses_branch_fan_out() {
        let token = std::sync::Arc::new(crate::cancel::CancelToken::new());
        token.cancel("pre-cancelled");
        let flow = fan_out();
        let mut c = ctx().with_cancel(std::sync::Arc::clone(&token));
        let err = FlowEngine::parallel().execute(&flow, &mut c).unwrap_err();
        assert_eq!(err, FlowError::cancelled("pre-cancelled"));
        assert!(c.designs.is_empty());
    }

    #[test]
    fn out_of_range_selection_is_a_typed_error_in_parallel() {
        let flow = Flow::new("f").branch("B", PickOne(99), vec![("only".into(), Flow::new("p"))]);
        let mut c = ctx();
        let err = FlowEngine::parallel().execute(&flow, &mut c).unwrap_err();
        assert_eq!(err, FlowError::selection("B", 99));
    }

    #[test]
    fn selection_none_terminates_the_flow_level_in_parallel() {
        let flow = Flow::new("f")
            .branch("B", PickNone, vec![("only".into(), Flow::new("p"))])
            .then(Emit("after", 0));
        let mut c = ctx();
        FlowEngine::parallel().execute(&flow, &mut c).unwrap();
        assert!(
            c.designs.is_empty(),
            "steps after a None selection never run"
        );
        assert!(matches!(
            &c.trace()[0],
            TraceEvent::Branch {
                selection: SelectionTrace::None,
                ..
            }
        ));
    }

    /// Outer Many branch whose middle path holds a nested Many branch with
    /// one failing inner path.
    fn nested_failing_fan_out() -> Flow {
        Flow::new("outer").branch(
            "B",
            All,
            vec![
                ("left".into(), Flow::new("left").then(Emit("left", 0))),
                (
                    "nested".into(),
                    Flow::new("nested").branch(
                        "C",
                        All,
                        vec![
                            ("inner-bad".into(), Flow::new("ib").then(Failing)),
                            ("inner-good".into(), Flow::new("ig").then(Emit("inner", 0))),
                        ],
                    ),
                ),
                ("right".into(), Flow::new("right").then(Emit("right", 0))),
            ],
        )
    }

    #[test]
    fn nested_many_inner_failure_under_each_policy() {
        let flow = nested_failing_fan_out();
        for mode in [FlowEngine::parallel(), FlowEngine::sequential()] {
            // FailFast and Retry (inner task is not transient): the inner
            // error propagates through both branch levels.
            for policy in [
                FailurePolicy::FailFast,
                FailurePolicy::parse("retry:3").unwrap(),
            ] {
                let mut c = ctx();
                let err = mode.with_policy(policy).execute(&flow, &mut c).unwrap_err();
                assert_eq!(err, FlowError::transform("induced failure"));
            }
            // DegradePaths: only the inner-bad path is dropped; its failure
            // bubbles into the outer context's log.
            let mut c = ctx();
            mode.with_policy(FailurePolicy::DegradePaths)
                .execute(&flow, &mut c)
                .unwrap();
            let sources: Vec<&str> = c.designs.iter().map(|d| d.source.as_str()).collect();
            assert_eq!(sources, ["// left", "// inner", "// right"]);
            assert_eq!(c.failures.len(), 1);
            assert_eq!(c.failures[0].branch, "C");
            assert_eq!(c.failures[0].label, "inner-bad");
        }
    }

    #[test]
    fn failure_policy_parse_forms() {
        assert_eq!(
            FailurePolicy::parse("failfast"),
            Ok(FailurePolicy::FailFast)
        );
        assert_eq!(
            FailurePolicy::parse("degrade"),
            Ok(FailurePolicy::DegradePaths)
        );
        assert_eq!(
            FailurePolicy::parse("retry"),
            Ok(FailurePolicy::Retry {
                attempts: 3,
                backoff: Backoff {
                    base_ms: 10,
                    factor: 2
                }
            })
        );
        assert_eq!(
            FailurePolicy::parse("retry:5:100:3"),
            Ok(FailurePolicy::Retry {
                attempts: 5,
                backoff: Backoff {
                    base_ms: 100,
                    factor: 3
                }
            })
        );
        assert!(FailurePolicy::parse("retry:0").is_err());
        assert!(FailurePolicy::parse("retry:x").is_err());
        assert!(FailurePolicy::parse("bogus").is_err());
    }

    #[test]
    fn injected_task_fault_is_deterministic_and_policy_scoped() {
        use psa_faults::{FaultPlan, Seam};
        let plan = std::sync::Arc::new(FaultPlan::new(42).fail(
            Seam::Task,
            "left/left",
            "transform",
            "injected left failure",
        ));
        let flow = Flow::new("outer")
            .branch(
                "B",
                All,
                vec![
                    ("left".into(), Flow::new("left").then(Emit("left", 0))),
                    ("right".into(), Flow::new("right").then(Emit("right", 0))),
                ],
            )
            .then(Emit("after", 0));
        let mut c = ctx().with_faults(std::sync::Arc::clone(&plan));
        let err = FlowEngine::parallel().execute(&flow, &mut c).unwrap_err();
        assert_eq!(err, FlowError::transform("injected left failure"));
        assert_eq!(plan.fired(), 1);
        // Degrade: same plan, same site — the sweep survives.
        let mut c = ctx().with_faults(std::sync::Arc::clone(&plan));
        FlowEngine::parallel()
            .with_policy(FailurePolicy::DegradePaths)
            .execute(&flow, &mut c)
            .unwrap();
        let sources: Vec<&str> = c.designs.iter().map(|d| d.source.as_str()).collect();
        assert_eq!(sources, ["// right", "// after"]);
        assert_eq!(plan.fired(), 2);
    }

    /// The ASTs runs saw, by task name.
    type Seen = Arc<Mutex<Vec<(&'static str, Arc<Ast>)>>>;

    /// Records the AST each run sees, under a name.
    struct SeeAst(&'static str, Seen);
    impl Task for SeeAst {
        fn info(&self) -> TaskInfo {
            TaskInfo::new(self.0, TaskClass::Analysis, false)
        }
        fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
            sched::lock(&self.1).push((self.0, Arc::clone(&ctx.ast)));
            Ok(())
        }
    }

    /// Marks the program's first loop with a pragma.
    struct MarkLoop;
    impl Task for MarkLoop {
        fn info(&self) -> TaskInfo {
            TaskInfo::new("mark-loop", TaskClass::Transform, false)
        }
        fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
            let stmt = psa_artisan::query::loops(&ctx.ast.module, |_| true)[0].stmt_id;
            psa_artisan::edit::add_pragma(ctx.module_mut(), stmt, "marked")?;
            Ok(())
        }
    }

    #[test]
    fn contexts_share_the_ast_until_a_node_rewrites_it() {
        let seen: Seen = Arc::default();
        let see = |name| SeeAst(name, Arc::clone(&seen));
        let flow = Flow::new("f").then(see("trunk")).branch(
            "B",
            All,
            vec![
                ("read".into(), Flow::new("read").then(see("read"))),
                (
                    "write".into(),
                    Flow::new("write").then(MarkLoop).then(see("write")),
                ),
                ("read-too".into(), Flow::new("rt").then(see("read-too"))),
            ],
        );
        for engine in [
            FlowEngine::sequential(),
            FlowEngine::parallel().with_workers(2),
        ] {
            sched::lock(&seen).clear();
            let mut c = FlowContext::new(
                Ast::from_source(
                    "int main() { for (int i = 0; i < 4; i++) { } return 0; }",
                    "t",
                )
                .unwrap(),
                PsaParams::default(),
            );
            let entry = Arc::clone(&c.ast);
            let before = entry.export();
            engine.execute(&flow, &mut c).unwrap();

            let seen = sched::lock(&seen);
            let ast = |name| &seen.iter().find(|(n, _)| *n == name).unwrap().1;
            for name in ["trunk", "read", "read-too"] {
                assert!(Arc::ptr_eq(ast(name), &entry), "{name} on {engine:?}");
                assert_eq!(ast(name).export(), before, "{name} on {engine:?}");
            }
            assert!(!Arc::ptr_eq(ast("write"), &entry), "{engine:?}");
            assert!(ast("write").export().contains("#pragma marked"));
            // The caller's AST is the one it passed in, unchanged.
            assert!(Arc::ptr_eq(&c.ast, &entry), "{engine:?}");
            assert_eq!(c.ast.export(), before, "{engine:?}");
        }
    }

    #[test]
    fn task_spans_record_wall_clock_but_do_not_render_it() {
        let flow = Flow::new("f").then(Emit("only", 5));
        let mut c = ctx();
        FlowEngine::sequential().execute(&flow, &mut c).unwrap();
        match &c.trace()[0] {
            TraceEvent::Task {
                wall_ns, events, ..
            } => {
                assert!(*wall_ns > 0);
                assert_eq!(events.len(), 1);
            }
            other => panic!("expected a task span, got {other:?}"),
        }
        assert_eq!(
            c.trace_lines(),
            vec!["[f] task `only` (CG)", "emitting only"],
            "rendered lines carry no duration"
        );
    }
}
