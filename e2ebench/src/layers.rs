//! The traced run: time attributed to each crate.
//!
//! The spans are the benchmark's own, around calls into each crate's
//! public functions; nothing inside the program is instrumented. A traced
//! run has three parts:
//!
//! 1. an untraced phase (a third of the time) for the tracing-overhead
//!    line;
//! 2. a traced phase in which every flow runs alone on the sequential
//!    engine with a span around it, so its task spans (`FlowOutcome.trace`)
//!    add up to its wall time minus the engine's own overhead, and the
//!    cache's per-domain counters say which layers ran on a miss. Served
//!    batches are also replayed offline on a cache shaped like the
//!    server's, then served, with spans around each protocol call;
//! 3. per-call probes of every layer on the workload's programs.
//!
//! The reconciliation line multiplies each per-call cost by how often a
//! flow made that call and compares the sum, plus the time outside every
//! task, with the flow's wall time.

use crate::oracle::{self, SweepOracle};
use crate::stats::{self, mean, metric};
use crate::stream;
use crate::workloads::{self, Run, Workload};
use psa_artisan::Ast;
use psa_evalcache::KeyBuilder;
use psa_interp::{Program, RunConfig};
use psa_platform::{CpuModel, FpgaModel, GpuModel};
use psa_serve::{JobResult, JobSpec, JobStatus, Request, Response, Server};
use psaflow_core::dse::{blocksize_dse, omp_threads_dse, BLOCKSIZE_CANDIDATES};
use psaflow_core::flows::KERNEL_NAME;
use psaflow_core::{
    CacheStats, DseTrace, EvalCache, FlowContext, FlowEngine, FlowMode, FlowOutcome, PsaParams,
    TraceEvent,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Cache domains keyed by a module fingerprint: each lookup fingerprints.
const MODULE_DOMAINS: [&str; 3] = [
    "analyses/hotspots",
    "analyses/kernel",
    "interp/profiled-run",
];

/// Per-layer samples, by metric name, in the metric's unit.
#[derive(Default)]
struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Time `f` into `name` (microseconds).
    fn us<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = black_box(f());
        self.add(name, t.elapsed().as_secs_f64() * 1e6);
        out
    }

    fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| mean(v))
    }
}

/// What the traced flows did, summed over flows.
#[derive(Default)]
struct Flows {
    count: u64,
    wall_s: f64,
    task_s: f64,
    /// Task wall time by task name.
    by_task: BTreeMap<String, f64>,
    nodes: u64,
    designs: u64,
    dse_calls: u64,
    /// Per-domain cache activity while the flows ran.
    domains: BTreeMap<&'static str, CacheStats>,
}

fn domain_snapshot(cache: &EvalCache) -> BTreeMap<&'static str, CacheStats> {
    cache.domain_stats().into_iter().collect()
}

fn walk(events: &[TraceEvent], visit: &mut impl FnMut(&TraceEvent)) {
    for e in events {
        visit(e);
        match e {
            TraceEvent::Task { events, .. } => walk(events, visit),
            TraceEvent::Branch {
                evidence, paths, ..
            } => {
                walk(evidence, visit);
                for p in paths {
                    walk(&p.events, visit);
                }
            }
            _ => {}
        }
    }
}

impl Flows {
    /// Run one flow alone with a span around it, recording its tasks and
    /// the cache activity it caused.
    fn run(
        &mut self,
        cache: &EvalCache,
        flow: impl FnOnce() -> Result<FlowOutcome, String>,
    ) -> Result<FlowOutcome, String> {
        let before = domain_snapshot(cache);
        let t = Instant::now();
        let outcome = flow()?;
        self.wall_s += t.elapsed().as_secs_f64();
        for (domain, after) in domain_snapshot(cache) {
            let delta = before.get(domain).map_or(after, |b| after.since(b));
            let sum = self.domains.entry(domain).or_default();
            sum.hits += delta.hits;
            sum.misses += delta.misses;
        }
        self.count += 1;
        self.designs += outcome.designs.len() as u64;
        walk(&outcome.trace, &mut |e| match e {
            TraceEvent::Task { name, wall_ns, .. } => {
                let s = *wall_ns as f64 * 1e-9;
                self.task_s += s;
                *self.by_task.entry(name.clone()).or_default() += s;
                self.nodes += 1;
            }
            TraceEvent::Dse(DseTrace::Blocksize { .. } | DseTrace::OmpThreads { .. }) => {
                self.dse_calls += 1;
            }
            _ => {}
        });
        Ok(outcome)
    }

    fn per_flow(&self, n: u64) -> f64 {
        n as f64 / self.count.max(1) as f64
    }

    fn misses(&self, domain: &str) -> u64 {
        self.domains.get(domain).map_or(0, |s| s.misses)
    }

    fn estimate_misses(&self) -> u64 {
        self.domains
            .iter()
            .filter(|(d, _)| d.starts_with("platform/"))
            .map(|(_, s)| s.misses)
            .sum()
    }

    fn lookups(&self) -> (u64, u64) {
        let hits = self.domains.values().map(|s| s.hits).sum();
        let misses = self.domains.values().map(|s| s.misses).sum();
        (hits, misses)
    }

    fn fingerprinted_lookups(&self) -> u64 {
        MODULE_DOMAINS
            .iter()
            .filter_map(|d| self.domains.get(d))
            .map(|s| s.hits + s.misses)
            .sum()
    }
}

/// Protocol-layer spans of served batches.
#[derive(Default)]
struct Served {
    batches: u64,
    jobs: u64,
    failed: u64,
    /// Σ offline flow time of the batches' jobs.
    busy_s: f64,
    /// Σ workers × batch turnaround.
    capacity_s: f64,
    resent: u64,
}

/// Replay `jobs` offline on `shadow` (a cache in the state the server's
/// is in), then serve them. The offline replay is the reference each
/// served outcome must equal.
fn traced_batch(
    server: &Server,
    shadow: &Arc<EvalCache>,
    jobs: &[JobSpec],
    hot: &BTreeMap<String, String>,
    flows: &mut Flows,
    spans: &mut Spans,
    served: &mut Served,
) -> Result<(), String> {
    let mut replayed = Vec::new();
    let mut busy = 0.0;
    for spec in jobs {
        let wall = flows.wall_s;
        let outcome = flows.run(shadow, || oracle::offline(spec, Arc::clone(shadow)))?;
        busy += flows.wall_s - wall;
        let text = spans.us("serve.render_us", || {
            let text = psa_serve::render_outcome(&outcome);
            let line = Response::Result(Box::new(JobResult {
                seq: 0,
                id: spec.id.clone(),
                tenant: spec.tenant.clone(),
                status: JobStatus::Done,
                detail: String::new(),
                outcome: Some(text.clone()),
                trace_id: 0,
                queue_wait_ms: 0,
            }))
            .encode();
            black_box(line);
            text
        });
        if stream::hot_key(spec)
            .and_then(|k| hot.get(&k))
            .is_some_and(|want| *want != text)
        {
            served.failed += 1;
        }
        replayed.push(text);
    }
    let requests = workloads::submissions(jobs);
    for req in &requests {
        let line = psa_serve::encode_request(req);
        spans
            .us("serve.decode_us", || psa_serve::decode_request(&line))
            .map_err(|e| format!("decode: {e}"))?;
    }
    let t = Instant::now();
    let mut first = None;
    for req in &requests {
        match spans
            .us("serve.submit_us", || server.handle_request(req))
            .as_slice()
        {
            [Response::Accepted { seq, .. }] => {
                first.get_or_insert(*seq);
            }
            other => return Err(format!("submission refused: {other:?}")),
        }
    }
    let responses = server.handle_request(&Request::Wait);
    let turnaround = t.elapsed().as_secs_f64();
    // Every job is done, so this wait measures only the re-sending of the
    // results accumulated since the server started.
    spans.us("serve.resend_us", || server.handle_request(&Request::Wait));
    let first = first.unwrap_or(u64::MAX);
    let results: Vec<JobResult> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Result(r) if r.seq >= first => Some((**r).clone()),
            _ => None,
        })
        .collect();
    served.resent += (responses.len() - results.len()) as u64;
    served.batches += 1;
    served.jobs += jobs.len() as u64;
    served.busy_s += busy;
    served.capacity_s += workloads::server_config().workers as f64 * turnaround;
    served.failed += jobs.len().saturating_sub(results.len()) as u64;
    served.failed += results
        .iter()
        .zip(&replayed)
        .filter(|(r, want)| workloads::rendered(r).ok() != Some(want.as_str()))
        .count() as u64;
    Ok(())
}

/// Per-call probes of every layer on one program. Probes use their own
/// scratch cache, so they never touch the workload's.
fn probe(source: &str, app: &str, params: PsaParams, spans: &mut Spans) -> Result<(), String> {
    let ast = spans
        .us("minicpp.parse_us", || Ast::from_source(source, app))
        .map_err(|e| format!("{app}: {e}"))?;
    for _ in 0..5 {
        spans.us("minicpp.fingerprint_us", || {
            psa_minicpp::module_fingerprint(&ast.module)
        });
    }
    let t = Instant::now();
    let report =
        psa_analyses::hotspot::detect_hotspots(&ast.module).map_err(|e| format!("{app}: {e}"))?;
    spans.add("analyses.hotspot_ms", t.elapsed().as_secs_f64() * 1e3);
    let hottest = report
        .hottest()
        .ok_or_else(|| format!("{app}: no hotspot"))?
        .stmt_id;
    let mut module = ast.module.clone();
    spans
        .us("artisan.extract_us", || {
            psa_artisan::transforms::extract::extract_kernel(&mut module, hottest, KERNEL_NAME)
        })
        .map_err(|e| format!("{app}: {e}"))?;

    // The interpreter as a kernel analysis drives it on a cache miss.
    let config = RunConfig {
        watch_function: Some(KERNEL_NAME.to_owned()),
        ..RunConfig::default()
    };
    let program = Arc::new(spans.us("interp.compile_us", || Program::compile(&module, &config)));
    let t = Instant::now();
    let run =
        psa_interp::run_compiled(&program, config.clone()).map_err(|e| format!("{app}: {e}"))?;
    let run_s = t.elapsed().as_secs_f64();
    spans.add("interp.run_ms", run_s * 1e3);
    spans.add(
        "interp.mcycles_per_s",
        run.profile.total_cycles as f64 / run_s / 1e6,
    );

    // Kernel analysis self time: its profiled run is already cached.
    let scratch = Arc::new(EvalCache::new());
    psa_analyses::dynamic_run_cached(&module, KERNEL_NAME, &scratch)
        .map_err(|e| format!("{app}: {e}"))?;
    let t = Instant::now();
    let analysis = psa_analyses::analyze_kernel_cached(&module, KERNEL_NAME, &scratch)
        .map_err(|e| format!("{app}: {e}"))?;
    spans.add("analyses.kernel_ms", t.elapsed().as_secs_f64() * 1e3);

    // The kernel rewrites the GPU and FPGA paths apply, on one copy.
    let mut rewritten = module.clone();
    spans.us("artisan.transform_us", || -> Result<(), String> {
        use psa_artisan::transforms::{mathopt, precision, reduction};
        let loops = psa_artisan::query::loops(&rewritten, |l| l.function == KERNEL_NAME);
        for l in loops {
            reduction::remove_array_accumulation(&mut rewritten, l.stmt_id)
                .map_err(|e| e.to_string())?;
        }
        precision::employ_sp_math(&mut rewritten, KERNEL_NAME).map_err(|e| e.to_string())?;
        precision::employ_sp_literals(&mut rewritten, KERNEL_NAME).map_err(|e| e.to_string())?;
        mathopt::employ_specialised_math(&mut rewritten, KERNEL_NAME).map_err(|e| e.to_string())?;
        Ok(())
    })?;

    // The context the engine clones for a node once analyses ran.
    let mut ctx = FlowContext::with_cache(
        Ast::from_module(module.clone()),
        params,
        Arc::clone(&scratch),
    );
    ctx.kernel = Some(KERNEL_NAME.to_owned());
    ctx.analysis = Some((*analysis).clone());
    for _ in 0..5 {
        spans.us("minicpp.clone_us", || ctx.clone());
    }
    let work = psaflow_core::work::kernel_work(&ctx).map_err(|e| format!("{app}: {e}"))?;

    let gpus = [
        GpuModel::new(psa_platform::gtx_1080_ti()),
        GpuModel::new(psa_platform::rtx_2080_ti()),
    ];
    let cpu = CpuModel::new(psa_platform::epyc_7543());
    let fpga = FpgaModel::new(psa_platform::arria10());
    // The thread counts `omp_threads_dse` sweeps with its default maximum.
    let threads: Vec<u32> = {
        let mut t: Vec<u32> =
            std::iter::successors(Some(1u32), |t| (t * 2 <= 64).then_some(t * 2)).collect();
        t.push(cpu.spec.cores.min(64));
        t.sort_unstable();
        t.dedup();
        t
    };
    for gpu in &gpus {
        for b in BLOCKSIZE_CANDIDATES {
            spans.us("platform.estimate_us", || gpu.estimate(&work, b, false));
        }
    }
    for &t in &threads {
        spans.us("platform.estimate_us", || cpu.time_openmp(&work, t));
    }
    for unroll in [1, 2, 4] {
        spans.us("platform.estimate_us", || {
            fpga.hls_report(&work.ops, work.fp64, unroll)
        });
    }

    spans
        .us("codegen.generate_us", || {
            psa_codegen::openmp::generate(
                &module,
                KERNEL_NAME,
                psa_codegen::openmp::OmpConfig { threads: 32 },
            )
        })
        .map_err(|e| format!("{app}: {e}"))?;
    let hip = psa_codegen::hip::HipConfig {
        device: "gtx-1080-ti".to_owned(),
        blocksize: 256,
        pinned: false,
        shared_mem_arrays: Vec::new(),
    };
    spans
        .us("codegen.generate_us", || {
            psa_codegen::hip::generate(&module, KERNEL_NAME, &hip)
        })
        .map_err(|e| format!("{app}: {e}"))?;
    let oneapi = psa_codegen::oneapi::OneApiConfig {
        device: "arria10".to_owned(),
        unroll: 1,
        zero_copy: false,
    };
    spans
        .us("codegen.generate_us", || {
            psa_codegen::oneapi::generate(&module, KERNEL_NAME, &oneapi)
        })
        .map_err(|e| format!("{app}: {e}"))?;

    // DSE on a warm cache: whatever is not its own estimates is the
    // sweep's thread and join overhead.
    let dse = |spans: &mut Spans| -> Result<(f64, f64), String> {
        let t = Instant::now();
        blocksize_dse(&gpus[0], &work, false, &scratch).map_err(|e| e.to_string())?;
        let blocksize = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        omp_threads_dse(&cpu, &work, 64, &scratch).map_err(|e| e.to_string())?;
        let omp = t.elapsed().as_secs_f64() * 1e6;
        spans.add("core.dse_us", blocksize);
        spans.add("core.dse_us", omp);
        Ok((blocksize, omp))
    };
    let mut warm = Spans::default();
    dse(&mut warm)?;
    for _ in 0..3 {
        let (blocksize, omp) = dse(spans)?;
        let t = Instant::now();
        for b in BLOCKSIZE_CANDIDATES {
            black_box(gpus[0].estimate_cached(&work, b, false, &scratch));
        }
        spans.add(
            "core.dse_spawn_us",
            blocksize - t.elapsed().as_secs_f64() * 1e6,
        );
        let t = Instant::now();
        for &th in &threads {
            black_box(cpu.time_openmp_cached(&work, th, &scratch));
        }
        spans.add("core.dse_spawn_us", omp - t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(())
}

/// Mean time of a cache hit on `cache`, in microseconds.
fn timed_hit(cache: &EvalCache, spans: &mut Spans) {
    const HITS: u32 = 2000;
    let key = KeyBuilder::new("e2ebench/probe").u64(1).finish();
    cache.get_or_compute(key, || 0u64);
    let t = Instant::now();
    for _ in 0..HITS {
        black_box(cache.get_or_compute(key, || 0u64));
    }
    spans.add(
        "evalcache.hit_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(HITS),
    );
}

/// The traced phase of a sweep workload: every flow of each sweep alone,
/// with a span around it, on the sequential engine; then the sweep's ten
/// flows served as one batch, to a fresh server (`sweep_cold`) or a
/// warmed one (`sweep_warm`).
fn traced_sweeps(
    warm: bool,
    seconds: f64,
    flows: &mut Flows,
    spans: &mut Spans,
    served: &mut Served,
) -> Result<(CacheStats, u64), String> {
    let oracle = SweepOracle::build()?;
    let benches = psa_benchsuite::all();
    let warm_cache = warm.then(|| Arc::new(EvalCache::new()));
    if let Some(cache) = &warm_cache {
        psa_bench::run_all_cached_on(FlowEngine::sequential(), Arc::clone(cache))?;
    }
    let mut failed = 0;
    let mut latest = None;
    workloads::measure(seconds, 3, || {
        let cache = warm_cache
            .clone()
            .unwrap_or_else(|| Arc::new(EvalCache::new()));
        latest = Some(Arc::clone(&cache));
        let t = Instant::now();
        for (i, b) in benches.iter().enumerate() {
            let mut outcomes = Vec::new();
            for mode in [FlowMode::Uninformed, FlowMode::Informed] {
                let flow = || {
                    psaflow_core::flows::full_psa_flow_cached_on(
                        FlowEngine::sequential(),
                        &b.source,
                        &b.key,
                        mode,
                        psa_bench::params_for(b),
                        Arc::clone(&cache),
                    )
                    .map_err(|e| e.to_string())
                };
                outcomes.push(flows.run(&cache, flow));
            }
            let ok = match (&outcomes[0], &outcomes[1]) {
                (Ok(u), Ok(inf)) => {
                    u.log == oracle.log(i) && inf.selected_target == oracle.target(i)
                }
                _ => false,
            };
            failed += if ok { 0 } else { 2 };
        }
        t.elapsed().as_secs_f64()
    });

    // The same ten flows, served. The sweep's own traced flows above give
    // the `core.*` metrics; the offline replays here are only the served
    // outcomes' reference.
    let hot_jobs = stream::hot_set();
    let mut hot = BTreeMap::new();
    for spec in &hot_jobs {
        hot.insert(
            stream::hot_key(spec).expect("hot jobs name a benchmark"),
            oracle::offline_render(spec)?,
        );
    }
    let mut replays = Flows::default();
    let mut warm_server = None;
    if warm {
        let server = Server::new(workloads::server_config());
        let shadow = Arc::new(workloads::server_shaped_cache());
        workloads::submit_and_wait(&server, &workloads::submissions(&hot_jobs))?;
        for spec in &hot_jobs {
            oracle::offline(spec, Arc::clone(&shadow))?;
        }
        warm_server = Some((server, shadow));
    }
    let mut error = None;
    workloads::measure(seconds / 4.0, 3, || {
        let t = Instant::now();
        let fresh;
        let (server, shadow) = match &warm_server {
            Some((server, shadow)) => (server, shadow),
            None => {
                fresh = (
                    Server::new(workloads::server_config()),
                    Arc::new(workloads::server_shaped_cache()),
                );
                (&fresh.0, &fresh.1)
            }
        };
        if let Err(e) = traced_batch(server, shadow, &hot_jobs, &hot, &mut replays, spans, served) {
            error.get_or_insert(e);
        }
        t.elapsed().as_secs_f64()
    });
    if let Some(e) = error {
        return Err(e);
    }
    // The cache of the last traced sweep (the warm one on `sweep_warm`).
    let cache = latest.expect("at least one traced sweep");
    let stats = cache.stats();
    timed_hit(&cache, spans);
    for b in &benches {
        probe(&b.source, &b.key, psa_bench::params_for(b), spans)?;
    }
    Ok((stats, failed))
}

/// The traced phase of `serve_mixed`: each batch replayed offline on a
/// cache shaped like the server's, then served.
fn traced_serve(
    seed: u64,
    seconds: f64,
    flows: &mut Flows,
    spans: &mut Spans,
    served: &mut Served,
) -> Result<CacheStats, String> {
    /// Fresh programs probed layer by layer, besides the hot set.
    const PROBED_FRESH: usize = 5;
    let mut setup = workloads::serve_setup(seed)?;
    let shadow = Arc::new(workloads::server_shaped_cache());
    for spec in stream::hot_set() {
        oracle::offline(&spec, Arc::clone(&shadow))?;
    }
    let batch_len = workloads::JOBS_PER_WORKER * workloads::server_config().workers;
    let mut probed = Vec::new();
    let mut error = None;
    workloads::measure(seconds, 3, || {
        let jobs = setup.stream.batch(batch_len);
        let t = Instant::now();
        if let Err(e) = traced_batch(
            &setup.server,
            &shadow,
            &jobs,
            &setup.hot,
            flows,
            spans,
            served,
        ) {
            error.get_or_insert(e);
        }
        let room = PROBED_FRESH.saturating_sub(probed.len());
        probed.extend(jobs.into_iter().filter(|j| j.source.is_some()).take(room));
        t.elapsed().as_secs_f64()
    });
    if let Some(e) = error {
        return Err(e);
    }
    let stats = setup.server.cache().stats();
    timed_hit(setup.server.cache(), spans);
    setup.server.handle_request(&Request::Drain);
    for b in psa_benchsuite::all() {
        probe(&b.source, &b.key, psa_bench::params_for(&b), spans)?;
    }
    for spec in probed {
        let (source, params) = oracle::job_program(&spec)?;
        probe(&source, spec.app_name(), params, spans)?;
    }
    Ok(stats)
}

pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Result<Run, String> {
    let untraced = workloads::end_to_end(workload, seed, seconds / 3.0, 3)?;
    // The untraced sweeps run one client per CPU; the traced flows run one
    // at a time, so they compare with one client's share.
    let clients = match workload {
        Workload::ServeMixed => 1.0,
        _ => stats::nproc() as f64,
    };
    let untraced_fps = untraced
        .metrics
        .iter()
        .find(|m| m.name == "flows_per_s")
        .map_or(0.0, |m| m.value / clients);

    let (mut flows, mut spans, mut served) =
        (Flows::default(), Spans::default(), Served::default());
    let traced_seconds = seconds * 2.0 / 3.0;
    let t = Instant::now();
    let (cache, sweep_failed) = match workload {
        Workload::SweepCold => {
            traced_sweeps(false, traced_seconds, &mut flows, &mut spans, &mut served)?
        }
        Workload::SweepWarm => {
            traced_sweeps(true, traced_seconds, &mut flows, &mut spans, &mut served)?
        }
        Workload::ServeMixed => (
            traced_serve(seed, traced_seconds, &mut flows, &mut spans, &mut served)?,
            0,
        ),
    };
    let traced_wall = t.elapsed().as_secs_f64();
    let traced_fps = if workload == Workload::ServeMixed {
        served.jobs as f64 / served.capacity_s * workloads::server_config().workers as f64
    } else {
        flows.count as f64 / flows.wall_s
    };

    let per_flow_ms = |s: f64| s * 1e3 / flows.count.max(1) as f64;
    let flow_ms = per_flow_ms(flows.wall_s);
    let task_ms = per_flow_ms(flows.task_s);
    let unattributed_ms = flow_ms - task_ms;
    let (hits, misses) = flows.lookups();
    let hotspot_misses = flows.per_flow(flows.misses("analyses/hotspots"));
    let run_misses = flows.per_flow(flows.misses("interp/profiled-run"));
    let kernel_misses = flows.per_flow(flows.misses("analyses/kernel"));
    let estimates = flows.per_flow(flows.estimate_misses());
    let m = |name: &str| spans.mean(name);

    // Σ per-call cost × calls per flow, in milliseconds. Parsing and the
    // per-node context clones happen in the engine, outside every task, so
    // they are set against `core.unattributed_ms`; everything else runs
    // inside a task.
    let in_tasks = [
        (
            "minicpp.fingerprint",
            m("minicpp.fingerprint_us") * flows.per_flow(flows.fingerprinted_lookups()) / 1e3,
        ),
        (
            "interp",
            run_misses * (m("interp.run_ms") + m("interp.compile_us") / 1e3),
        ),
        (
            "analyses",
            hotspot_misses * m("analyses.hotspot_ms") + kernel_misses * m("analyses.kernel_ms"),
        ),
        (
            "artisan",
            (m("artisan.extract_us") + m("artisan.transform_us")) / 1e3,
        ),
        ("platform", estimates * m("platform.estimate_us") / 1e3),
        (
            "codegen",
            flows.per_flow(flows.designs) * m("codegen.generate_us") / 1e3,
        ),
        (
            "evalcache",
            flows.per_flow(hits) * m("evalcache.hit_us") / 1e3,
        ),
        (
            "core.dse_spawn",
            flows.per_flow(flows.dse_calls) * m("core.dse_spawn_us") / 1e3,
        ),
    ];
    let in_engine = [
        ("minicpp.parse", m("minicpp.parse_us") / 1e3),
        (
            "minicpp.clone (at most one per node)",
            m("minicpp.clone_us") * flows.per_flow(flows.nodes) / 1e3,
        ),
    ];
    let layers_ms: f64 = in_tasks.iter().map(|(_, v)| v).sum();
    let engine_ms: f64 = in_engine.iter().map(|(_, v)| v).sum();
    let gap = flow_ms - (layers_ms + unattributed_ms);

    let metrics = vec![
        metric("minicpp.parse_us", m("minicpp.parse_us"), "us"),
        metric("minicpp.fingerprint_us", m("minicpp.fingerprint_us"), "us"),
        metric("minicpp.clone_us", m("minicpp.clone_us"), "us"),
        metric("interp.compile_us", m("interp.compile_us"), "us"),
        metric("interp.run_ms", m("interp.run_ms"), "ms"),
        metric(
            "interp.mcycles_per_s",
            m("interp.mcycles_per_s"),
            "Mcycle/s",
        ),
        metric("interp.runs_per_flow", hotspot_misses + run_misses, "count"),
        metric("analyses.hotspot_ms", m("analyses.hotspot_ms"), "ms"),
        metric("analyses.kernel_ms", m("analyses.kernel_ms"), "ms"),
        metric("artisan.extract_us", m("artisan.extract_us"), "us"),
        metric("artisan.transform_us", m("artisan.transform_us"), "us"),
        metric("platform.estimate_us", m("platform.estimate_us"), "us"),
        metric("platform.estimates_per_flow", estimates, "count"),
        metric("codegen.generate_us", m("codegen.generate_us"), "us"),
        metric(
            "evalcache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        metric("evalcache.hit_us", m("evalcache.hit_us"), "us"),
        metric("evalcache.evictions", cache.evictions as f64, "count"),
        metric("evalcache.entries", cache.entries as f64, "count"),
        metric("core.flow_ms", flow_ms, "ms"),
        metric("core.task_ms", task_ms, "ms"),
        metric("core.unattributed_ms", unattributed_ms, "ms"),
        metric(
            "core.unattributed_ratio",
            unattributed_ms / flow_ms,
            "ratio",
        ),
        metric("core.dse_us", m("core.dse_us"), "us"),
        metric("core.dse_spawn_us", m("core.dse_spawn_us"), "us"),
        metric("serve.submit_us", m("serve.submit_us"), "us"),
        metric("serve.decode_us", m("serve.decode_us"), "us"),
        metric("serve.render_us", m("serve.render_us"), "us"),
        metric(
            "serve.worker_idle_ratio",
            1.0 - served.busy_s / served.capacity_s,
            "ratio",
        ),
        metric("serve.resend_us", m("serve.resend_us"), "us"),
        metric(
            "serve.resent_per_wait",
            served.resent as f64 / served.batches.max(1) as f64,
            "count",
        ),
    ];

    let mut notes = untraced.notes;
    notes.push(format!(
        "traced: {} flows alone on the sequential engine, {} served batches ({} jobs), \
         {traced_wall:.1} s",
        flows.count, served.batches, served.jobs
    ));
    let shares = |parts: &[(&str, f64)]| -> String {
        parts
            .iter()
            .map(|(name, v)| format!("{name} {v:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut tasks: Vec<(&str, f64)> = flows
        .by_task
        .iter()
        .map(|(name, s)| (name.as_str(), per_flow_ms(*s)))
        .collect();
    tasks.sort_by(|a, b| b.1.total_cmp(&a.1));
    tasks.truncate(5);
    notes.push(format!("slowest tasks, ms per flow: {}", shares(&tasks)));
    notes.push(format!("per-flow ms inside tasks: {}", shares(&in_tasks)));
    notes.push(format!("per-flow ms in the engine: {}", shares(&in_engine)));
    notes.push(format!(
        "reconcile: core.flow_ms {flow_ms:.3} - (layers {layers_ms:.3} + core.unattributed_ms \
         {unattributed_ms:.3}) = {gap:.3} ms ({:.1}% of the flow); parse and clones explain \
         {engine_ms:.3} ms of core.unattributed_ms",
        gap / flow_ms * 100.0
    ));
    notes.push(format!(
        "tracing overhead: untraced {untraced_fps:.2} (per client) - traced {traced_fps:.2} \
         = {:.2} flows/s",
        untraced_fps - traced_fps
    ));
    Ok(Run {
        attempted: untraced.attempted + flows.count + served.jobs,
        failed: untraced.failed + sweep_failed + served.failed,
        metrics,
        notes,
    })
}
