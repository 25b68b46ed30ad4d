//! The psa-serve daemon core: a bounded worker pool behind per-tenant
//! admission control, with cooperative cancellation, end-to-end deadlines
//! (queue wait counts), one shared evaluation cache, and graceful drain.
//!
//! Fault isolation is layered: the flow engine already catches panics at
//! every task and path seam; each worker additionally wraps the whole job
//! in `catch_unwind` under its own causal root span
//! (`psa-serve/{tenant}/{job}`), so a job that explodes outside the
//! engine's seams — or in the service glue itself — costs exactly that
//! job, never the worker and never the daemon.
//!
//! Determinism contract: with a paused-start server (admit everything,
//! then `resume`), every admission decision, queue-wait deadline and job
//! outcome is a pure function of the submission stream — results carry no
//! wall-clock values and `wait` emits them in submission order, so two
//! runs of the same stream produce byte-identical output.
//!
//! Each result is delivered once: `wait` moves the results no earlier
//! `wait` returned out of the server and emits them in submission order.
//! The server keeps no rendered outcome after handing it over — only a
//! finished-job counter and, when drain flushes bundles, a small
//! `(tenant, id, trace id)` record per job.

use crate::admission::{AdmissionController, TenantPolicy};
use crate::proto::{
    decode_request, JobResult, JobSpec, JobStatus, ProtoError, RejectReason, Request, Response,
    StatsSnapshot,
};
use psa_evalcache::EvalCache;
use psaflow_core::{CancelToken, FailurePolicy, FlowEngine, FlowError, FlowJob, PsaParams};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Global queue bound; submissions beyond it shed with `queue_full`.
    pub queue_capacity: usize,
    /// Admission policy for tenants without an override.
    pub default_policy: TenantPolicy,
    /// Per-tenant policy overrides.
    pub tenants: Vec<(String, TenantPolicy)>,
    /// Start paused: admit jobs but run nothing until `resume` (or
    /// `wait`/`drain`, which imply it). This is the deterministic mode —
    /// admission sees the whole stream before execution interleaves.
    pub paused: bool,
    /// Shared evaluation-cache capacity (entries), across all tenants.
    pub cache_capacity: usize,
    /// Per-domain entry quota inside the shared cache, so one tenant's
    /// hot domain cannot evict everyone else's working set.
    pub cache_domain_quota: Option<usize>,
    /// Where drain flushes per-job forensic bundles (requires the
    /// recorder to be enabled); `None` skips bundle flushing.
    pub bundle_dir: Option<PathBuf>,
    /// Where drain flushes a final Prometheus metrics snapshot.
    pub metrics_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 1024,
            default_policy: TenantPolicy::default(),
            tenants: Vec::new(),
            paused: false,
            cache_capacity: 4096,
            cache_domain_quota: Some(1024),
            bundle_dir: None,
            metrics_path: None,
        }
    }
}

/// One admitted, not-yet-executed job.
struct Admitted {
    seq: u64,
    spec: JobSpec,
    cancel: Arc<CancelToken>,
}

#[derive(Default)]
struct Stats {
    accepted: u64,
    rejected_rate_limit: u64,
    rejected_in_flight_quota: u64,
    rejected_queue_full: u64,
    rejected_draining: u64,
    bad_requests: u64,
    done: u64,
    failed: u64,
    panicked: u64,
    deadline_expired: u64,
    cancelled: u64,
}

struct State {
    admission: AdmissionController,
    queue: VecDeque<Admitted>,
    /// Finished results no `wait` has returned yet, by submission seq.
    results: BTreeMap<u64, JobResult>,
    /// Jobs that reached a terminal state since the server started.
    finished: u64,
    /// `(tenant, id, trace id)` of every finished job, by submission seq,
    /// for drain's per-job bundle flush; kept only with a bundle dir.
    bundle_jobs: BTreeMap<u64, (String, String, u64)>,
    /// Cancellation handles for queued + running jobs, by job id.
    cancels: HashMap<String, Arc<CancelToken>>,
    stats: Stats,
    next_seq: u64,
    running: usize,
    /// High-water mark of the submission stream's virtual clock.
    virtual_now_ms: u64,
    paused: bool,
    draining: bool,
    shutdown: bool,
}

struct Inner {
    cfg: ServerConfig,
    cache: Arc<EvalCache>,
    state: Mutex<State>,
    /// Signals workers: queue non-empty, unpaused, or shutdown.
    work: Condvar,
    /// Signals waiters: a job reached a terminal state.
    done: Condvar,
    shutdown_flag: AtomicBool,
}

impl Inner {
    /// Lock the state, recovering from poisoning: a panicking worker is
    /// exactly the failure this server is built to survive, so a poisoned
    /// mutex must not take the daemon down with it.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The daemon. Construct with [`Server::new`], feed it with
/// [`Server::handle_request`] or [`Server::serve_lines`]; `drain` (or
/// drop) shuts it down gracefully.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    pub fn new(cfg: ServerConfig) -> Server {
        let mut admission = AdmissionController::new(cfg.default_policy, cfg.queue_capacity);
        for (tenant, policy) in &cfg.tenants {
            admission.set_policy(tenant.clone(), *policy);
        }
        let cache = Arc::new(match cfg.cache_domain_quota {
            Some(q) => EvalCache::with_domain_quota(cfg.cache_capacity, q),
            None => EvalCache::with_capacity(cfg.cache_capacity),
        });
        let paused = cfg.paused;
        let worker_count = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            cfg,
            cache,
            state: Mutex::new(State {
                admission,
                queue: VecDeque::new(),
                results: BTreeMap::new(),
                finished: 0,
                bundle_jobs: BTreeMap::new(),
                cancels: HashMap::new(),
                stats: Stats::default(),
                next_seq: 0,
                running: 0,
                virtual_now_ms: 0,
                paused,
                draining: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            shutdown_flag: AtomicBool::new(false),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("psa-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Server {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The shared evaluation cache (for tests and benchmarks).
    pub fn cache(&self) -> &Arc<EvalCache> {
        &self.inner.cache
    }

    /// True once drain completed (or the server was dropped).
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown_flag.load(Ordering::Acquire)
    }

    /// Handle one request; returns the response lines to emit, in order.
    pub fn handle_request(&self, req: &Request) -> Vec<Response> {
        match req {
            Request::Submit(spec) => vec![self.submit(spec)],
            Request::Cancel { id } => vec![self.cancel_job(id)],
            Request::Resume => {
                self.resume();
                vec![Response::Resumed]
            }
            Request::Wait => self.wait(),
            Request::Stats => vec![Response::Stats(self.stats())],
            Request::Metrics => vec![Response::Metrics {
                text: psa_obs::global().render_prometheus(),
            }],
            Request::Drain => vec![self.drain()],
        }
    }

    fn submit(&self, spec: &JobSpec) -> Response {
        let mut s = self.inner.lock();
        s.virtual_now_ms = s.virtual_now_ms.max(spec.arrive_ms);
        let queued_now = s.queue.len();
        let draining = s.draining || s.shutdown;
        match s
            .admission
            .admit(&spec.tenant, spec.arrive_ms, queued_now, draining)
        {
            Ok(()) => {
                let seq = s.next_seq;
                s.next_seq += 1;
                let cancel = Arc::new(CancelToken::new());
                s.cancels.insert(spec.id.clone(), Arc::clone(&cancel));
                s.queue.push_back(Admitted {
                    seq,
                    spec: spec.clone(),
                    cancel,
                });
                s.stats.accepted += 1;
                psa_obs::counter_add("psa_serve_admitted_total", &[("tenant", &spec.tenant)], 1);
                psa_obs::gauge_set("psa_serve_queue_depth", &[], s.queue.len() as f64);
                let paused = s.paused;
                drop(s);
                if !paused {
                    self.inner.work.notify_one();
                }
                Response::Accepted {
                    id: spec.id.clone(),
                    seq,
                }
            }
            Err(reason) => {
                let detail = match reason {
                    RejectReason::RateLimit => format!(
                        "tenant \"{}\" exceeded its admission rate at t={}ms",
                        spec.tenant, spec.arrive_ms
                    ),
                    RejectReason::InFlightQuota => {
                        format!("tenant \"{}\" is at its in-flight quota", spec.tenant)
                    }
                    RejectReason::QueueFull => {
                        format!("queue is at capacity ({queued_now} jobs); shedding load")
                    }
                    RejectReason::Draining => "server is draining".to_owned(),
                };
                match reason {
                    RejectReason::RateLimit => s.stats.rejected_rate_limit += 1,
                    RejectReason::InFlightQuota => s.stats.rejected_in_flight_quota += 1,
                    RejectReason::QueueFull => s.stats.rejected_queue_full += 1,
                    RejectReason::Draining => s.stats.rejected_draining += 1,
                }
                psa_obs::counter_add("psa_serve_rejected_total", &[("reason", reason.label())], 1);
                Response::Rejected {
                    id: spec.id.clone(),
                    reason,
                    detail,
                }
            }
        }
    }

    fn cancel_job(&self, id: &str) -> Response {
        let s = self.inner.lock();
        let found = match s.cancels.get(id) {
            Some(token) => {
                token.cancel(format!("job \"{id}\" cancelled by client"));
                true
            }
            None => false,
        };
        Response::CancelAck {
            id: id.to_owned(),
            found,
        }
    }

    fn resume(&self) {
        let mut s = self.inner.lock();
        if s.paused {
            s.paused = false;
            drop(s);
            self.inner.work.notify_all();
        }
    }

    /// Block until every accepted job reached a terminal state, then emit
    /// the results no earlier `wait` returned, in submission order. Each
    /// result is handed over once and dropped by the server. Implies
    /// `resume` (waiting on a paused queue would deadlock by construction).
    fn wait(&self) -> Vec<Response> {
        self.resume();
        let mut s = self.all_finished();
        std::mem::take(&mut s.results)
            .into_values()
            .map(|r| Response::Result(Box::new(r)))
            .collect()
    }

    /// Lock the state once every accepted job reached a terminal state.
    fn all_finished(&self) -> MutexGuard<'_, State> {
        let mut s = self.inner.lock();
        while s.finished < s.stats.accepted {
            s = self.inner.done.wait(s).unwrap_or_else(|p| p.into_inner());
        }
        s
    }

    fn stats(&self) -> StatsSnapshot {
        let s = self.inner.lock();
        StatsSnapshot {
            accepted: s.stats.accepted,
            rejected_rate_limit: s.stats.rejected_rate_limit,
            rejected_in_flight_quota: s.stats.rejected_in_flight_quota,
            rejected_queue_full: s.stats.rejected_queue_full,
            rejected_draining: s.stats.rejected_draining,
            bad_requests: s.stats.bad_requests,
            done: s.stats.done,
            failed: s.stats.failed,
            panicked: s.stats.panicked,
            deadline_expired: s.stats.deadline_expired,
            cancelled: s.stats.cancelled,
            queued: s.queue.len() as u64,
            running: s.running as u64,
            draining: s.draining,
        }
    }

    /// Graceful drain: stop admitting, let everything already admitted
    /// finish (or deadline-out), flush the metrics snapshot and per-job
    /// forensic bundles, then stop the workers.
    fn drain(&self) -> Response {
        {
            let mut s = self.inner.lock();
            s.draining = true;
            s.paused = false;
        }
        self.inner.work.notify_all();
        drop(self.all_finished());
        let bundles = self.flush_artifacts();
        // Stop and reap the workers.
        {
            let mut s = self.inner.lock();
            s.shutdown = true;
        }
        self.inner.work.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(|p| p.into_inner()));
        for h in handles {
            let _ = h.join();
        }
        self.inner.shutdown_flag.store(true, Ordering::Release);
        let completed = self.inner.lock().finished;
        Response::Drained { completed, bundles }
    }

    /// Flush the final metrics snapshot and one forensic bundle per job
    /// (filtered to the job's trace id). Returns bundles written.
    fn flush_artifacts(&self) -> u64 {
        if let Some(path) = &self.inner.cfg.metrics_path {
            let text = psa_obs::global().render_prometheus();
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("psa-serve: metrics flush to {} failed: {e}", path.display());
            }
        }
        let dir = match &self.inner.cfg.bundle_dir {
            Some(d) if psa_obs::recorder::enabled() => d.clone(),
            _ => return 0,
        };
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("psa-serve: bundle dir {} failed: {e}", dir.display());
            return 0;
        }
        let snap = psa_obs::recorder::snapshot();
        let jobs: Vec<(String, String, u64)> =
            self.inner.lock().bundle_jobs.values().cloned().collect();
        let mut written = 0;
        for (tenant, id, trace_id) in jobs {
            let per_job = snap.for_trace(trace_id);
            if per_job.spans.is_empty() {
                continue;
            }
            let name = format!("{}-{}.json", sanitize(&tenant), sanitize(&id));
            match std::fs::write(dir.join(&name), psa_obs::recorder::render_bundle(&per_job)) {
                Ok(()) => written += 1,
                Err(e) => eprintln!("psa-serve: bundle {name} failed: {e}"),
            }
        }
        written
    }

    /// Serve line-delimited requests from `reader`, writing responses to
    /// `writer`. Returns after `drain` or at EOF (EOF implies a graceful
    /// drain, so Ctrl-D / closing the pipe is a clean shutdown).
    pub fn serve_lines<R: BufRead, W: Write>(
        &self,
        reader: R,
        mut writer: W,
    ) -> std::io::Result<()> {
        let mut drained = false;
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match decode_request(&line) {
                Ok(req) => {
                    for resp in self.handle_request(&req) {
                        writeln!(writer, "{}", resp.encode())?;
                    }
                    writer.flush()?;
                    if matches!(req, Request::Drain) {
                        drained = true;
                        break;
                    }
                }
                Err(err) => {
                    self.note_bad_request(&err);
                    let resp = Response::BadRequest {
                        code: 400,
                        label: err.label().to_owned(),
                        detail: err.to_string(),
                    };
                    writeln!(writer, "{}", resp.encode())?;
                    writer.flush()?;
                }
            }
        }
        if !drained && !self.is_shutdown() {
            let resp = self.drain();
            writeln!(writer, "{}", resp.encode())?;
            writer.flush()?;
        }
        Ok(())
    }

    fn note_bad_request(&self, err: &ProtoError) {
        let mut s = self.inner.lock();
        s.stats.bad_requests += 1;
        drop(s);
        psa_obs::counter_add("psa_serve_bad_requests_total", &[("kind", err.label())], 1);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        {
            let mut s = self.inner.lock();
            s.shutdown = true;
        }
        self.inner.work.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(|p| p.into_inner()));
        for h in handles {
            let _ = h.join();
        }
        self.inner.shutdown_flag.store(true, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// workers

fn worker_loop(inner: &Inner) {
    loop {
        let (job, wait_ms) = {
            let mut s = inner.lock();
            loop {
                if s.shutdown {
                    return;
                }
                if !s.paused && !s.queue.is_empty() {
                    break;
                }
                s = inner.work.wait(s).unwrap_or_else(|p| p.into_inner());
            }
            // Loop condition guarantees a job is present.
            let Some(job) = s.queue.pop_front() else {
                continue;
            };
            s.running += 1;
            psa_obs::gauge_set("psa_serve_queue_depth", &[], s.queue.len() as f64);
            let wait_ms = s.virtual_now_ms.saturating_sub(job.spec.arrive_ms);
            (job, wait_ms)
        };
        let tenant = job.spec.tenant.clone();
        let id = job.spec.id.clone();
        let result = execute(inner, job, wait_ms);
        psa_obs::counter_add(
            "psa_serve_jobs_total",
            &[("status", result.status.label())],
            1,
        );
        let mut s = inner.lock();
        s.admission.complete(&tenant);
        s.cancels.remove(&id);
        s.running -= 1;
        match result.status {
            JobStatus::Done => s.stats.done += 1,
            JobStatus::Failed => s.stats.failed += 1,
            JobStatus::Panicked => s.stats.panicked += 1,
            JobStatus::DeadlineExpired => s.stats.deadline_expired += 1,
            JobStatus::Cancelled => s.stats.cancelled += 1,
        }
        s.finished += 1;
        if inner.cfg.bundle_dir.is_some() {
            s.bundle_jobs
                .insert(result.seq, (tenant, id, result.trace_id));
        }
        s.results.insert(result.seq, result);
        drop(s);
        inner.done.notify_all();
    }
}

/// Run one admitted job to a terminal state. Never panics: the flow is
/// wrapped in `catch_unwind` under the job's own root span.
fn execute(inner: &Inner, job: Admitted, wait_ms: u64) -> JobResult {
    let Admitted { seq, spec, cancel } = job;
    let root_label = format!("psa-serve/{}/{}", spec.tenant, spec.id);
    let span_root = psa_obs::SpanCtx::root(&root_label, seq);
    // Record the job's root span so the per-job forensic bundle has the
    // tenant/job span as its causal root even when the flow never runs
    // (queue-deadline expiry, pre-start cancellation).
    let _job_span = psa_obs::span::enter(span_root, &root_label);
    psa_obs::observe("psa_serve_queue_wait_ms", &[], wait_ms);
    let mut result = JobResult {
        seq,
        id: spec.id.clone(),
        tenant: spec.tenant.clone(),
        status: JobStatus::Failed,
        detail: String::new(),
        outcome: None,
        trace_id: span_root.trace_id,
        queue_wait_ms: wait_ms,
    };
    // Queue-wait deadline, on the virtual clock so it is deterministic.
    if let Some(deadline) = spec.deadline_ms {
        if wait_ms > deadline {
            psa_obs::recorder::record_deadline_expired("serve-queue");
            result.status = JobStatus::DeadlineExpired;
            result.detail = format!("deadline {deadline}ms elapsed after {wait_ms}ms in queue");
            return result;
        }
    }
    if cancel.is_cancelled() {
        result.status = JobStatus::Cancelled;
        result.detail = cancel.reason().to_owned();
        return result;
    }
    // Resolve the program. Unknown benchmark keys are job failures (the
    // protocol layer cannot know the suite), as are re-parse failures of
    // specs validated at decode time.
    let (source, params) = match &spec.bench {
        Some(key) => match psa_benchsuite::by_key(key) {
            Some(b) => (b.source.clone(), bench_params(&b)),
            None => {
                result.detail = format!("unknown benchmark \"{key}\"");
                return result;
            }
        },
        None => match &spec.source {
            Some(src) => (src.clone(), PsaParams::default()),
            None => {
                result.detail = "job has neither bench nor source".to_owned();
                return result;
            }
        },
    };
    let policy = match FailurePolicy::parse(&spec.policy) {
        Ok(p) => p,
        Err(e) => {
            result.detail = format!("bad policy: {e}");
            return result;
        }
    };
    let faults = match &spec.faults {
        Some(plan) => match psa_faults::FaultPlan::parse(plan) {
            Ok(p) => Some(Arc::new(p)),
            Err(e) => {
                result.detail = format!("bad fault plan: {e}");
                return result;
            }
        },
        None => None,
    };
    // The sequential engine keeps served outcomes byte-identical to the
    // offline reference (and the engine-equivalence gate makes parallel
    // equal to sequential anyway). On a live server the remaining
    // deadline budget is armed as the engine's flow deadline, so queue
    // wait counts against the total; a paused-start (deterministic)
    // server enforces deadlines purely on the virtual clock — the clock
    // cannot advance mid-flow, so arming a real-time deadline there
    // would only reintroduce machine-speed races into the soak counts.
    let mut engine = FlowEngine::sequential().with_policy(policy);
    if !inner.cfg.paused {
        if let Some(deadline) = spec.deadline_ms {
            engine = engine.with_flow_deadline(Duration::from_millis(deadline - wait_ms));
        }
    }
    let app_name = spec.app_name().to_owned();
    let cache = Arc::clone(&inner.cache);
    let started = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        psaflow_core::run_flow_job(
            engine,
            FlowJob {
                source: &source,
                app_name: &app_name,
                mode: spec.mode,
                params,
                cache,
                faults,
                span_root: Some(span_root),
                cancel: Some(cancel),
            },
        )
    }));
    psa_obs::observe(
        "psa_serve_exec_ms",
        &[],
        started.elapsed().as_millis() as u64,
    );
    match run {
        Ok(Ok(outcome)) => {
            result.status = JobStatus::Done;
            result.outcome = Some(crate::proto::render_outcome(&outcome));
        }
        Ok(Err(FlowError::Cancelled { reason })) => {
            result.status = JobStatus::Cancelled;
            result.detail = reason;
        }
        Ok(Err(FlowError::Timeout { what })) => {
            result.status = JobStatus::DeadlineExpired;
            result.detail = what;
        }
        Ok(Err(e)) => {
            result.status = JobStatus::Failed;
            result.detail = e.message();
        }
        Err(payload) => {
            result.status = JobStatus::Panicked;
            result.detail = panic_message(&payload);
        }
    }
    result
}

/// Replicates the benchmark→parameter mapping used by the offline
/// harness (kept local to avoid a dependency cycle with `psa-bench`).
fn bench_params(b: &psa_benchsuite::Benchmark) -> PsaParams {
    PsaParams {
        sp_safe: b.sp_safe,
        scale: psaflow_core::context::psa_benchsuite_shim::ScaleFactors {
            compute: b.scale.compute,
            data: b.scale.data,
            threads: b.scale.threads,
        },
        ..PsaParams::default()
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    out.truncate(80);
    if out.is_empty() {
        out.push('_');
    }
    out
}

// ---------------------------------------------------------------------------
// TCP front-end

/// Accept connections on `listener`, serving each on its own thread until
/// some client drains the server. The accept loop polls so it can stop
/// promptly after shutdown without help from platform-specific signals.
pub fn serve_tcp(server: &Arc<Server>, listener: std::net::TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !server.is_shutdown() {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let server = Arc::clone(server);
                let handle = std::thread::Builder::new()
                    .name("psa-serve-conn".to_owned())
                    .spawn(move || {
                        stream.set_nonblocking(false).ok();
                        let reader = std::io::BufReader::new(match stream.try_clone() {
                            Ok(s) => s,
                            Err(e) => {
                                eprintln!("psa-serve: connection clone failed: {e}");
                                return;
                            }
                        });
                        if let Err(e) = server.serve_lines(reader, stream) {
                            eprintln!("psa-serve: connection error: {e}");
                        }
                    })?;
                conns.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
    for h in conns {
        let _ = h.join();
    }
    Ok(())
}
