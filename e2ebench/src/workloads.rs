//! The three workloads, measured end to end with no tracing.
//!
//! All three are closed loops: a client starts its next sweep or batch
//! only when the previous one returned. The sweeps run one client thread
//! per CPU, `serve_mixed` one client. Time spent checking outputs is
//! outside the measured turnarounds.

use crate::oracle::{self, SweepOracle, FLOWS_PER_SWEEP};
use crate::stats::{self, metric, Metric};
use crate::stream::{self, Stream};
use psa_evalcache::fnv64_of;
use psa_serve::{
    JobResult, JobSpec, JobStatus, Request, Response, Server, ServerConfig, TenantPolicy,
};
use psaflow_core::{EvalCache, FlowEngine};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Set-up is repeated and its median reported, so one slow start does not
/// read as a regression.
pub const SETUP_REPEATS: usize = 5;
/// With at least 100 samples, at least 10 lie beyond the nearest-rank p90.
pub const MIN_SAMPLES: usize = 100;
/// A served batch holds this many jobs per worker.
pub const JOBS_PER_WORKER: usize = 4;
/// The turnaround percentiles are taken within each of this many
/// consecutive stretches of the run and averaged. A shared host runs
/// faster or slower in phases of seconds; a percentile over the whole run
/// jumps from one phase's value to the other's as their shares cross, an
/// average over stretches moves with the shares.
pub const STRETCHES: usize = 20;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepCold,
    SweepWarm,
    ServeMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sweep_cold" => Some(Workload::SweepCold),
            "sweep_warm" => Some(Workload::SweepWarm),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }
}

/// The outcome of one benchmark invocation.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// Repeat `unit` until `seconds` have passed and `min_samples` units ran;
/// `unit` returns its own turnaround in seconds.
pub fn measure(seconds: f64, min_samples: usize, mut unit: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_samples || start.elapsed().as_secs_f64() < seconds {
        samples.push(unit());
    }
    samples
}

/// Run `setup` [`SETUP_REPEATS`] times; keep the last state, return the
/// median time.
fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        state = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up"), stats::median(&times)))
}

pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    min_samples: usize,
) -> Result<Run, String> {
    match workload {
        Workload::SweepCold => sweep(false, seconds, min_samples),
        Workload::SweepWarm => sweep(true, seconds, min_samples),
        Workload::ServeMixed => serve(seed, seconds, min_samples),
    }
}

/// The end-to-end metrics of a run whose clients each ran units (sweeps or
/// batches) of `flows_per_unit` flows, one after the other; `samples[c]`
/// holds client `c`'s turnarounds in seconds, in the order they ran.
fn summary(
    setup_s: f64,
    samples: &[Vec<f64>],
    flows_per_unit: usize,
    (attempted, failed): (u64, u64),
    unit: &str,
    rss_mb: f64,
) -> Run {
    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    let flows_per_s: f64 = samples
        .iter()
        .map(|c| (c.len() * flows_per_unit) as f64 / c.iter().sum::<f64>())
        .sum();
    let ms: Vec<Vec<f64>> = samples
        .iter()
        .map(|c| c.iter().map(|s| s * 1e3).collect())
        .collect();
    let stretches: Vec<&[f64]> = ms
        .iter()
        .flat_map(|c| c.chunks(c.len().div_ceil(STRETCHES)))
        .collect();
    let ms = ms.concat();
    let stretch_mean = |p: f64| {
        stats::mean(
            &stretches
                .iter()
                .map(|s| stats::percentile(s, p))
                .collect::<Vec<_>>(),
        )
    };
    Run {
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("flows_per_s", flows_per_s * (1.0 - fail_ratio), "1/s"),
            metric("turnaround_ms_p50", stretch_mean(50.0), "ms"),
            metric("turnaround_ms_p90", stretch_mean(90.0), "ms"),
            metric("peak_rss_mb", rss_mb, "MB"),
        ],
        notes: vec![
            format!(
                "samples: {} {unit} turnarounds from {} client(s); flows_per_s over the \
                 whole window, summed over clients; turnaround percentiles nearest-rank in \
                 each of {} stretches, averaged; set-up median of {SETUP_REPEATS}",
                ms.len(),
                samples.len(),
                stretches.len()
            ),
            format!(
                "whole-window nearest-rank turnaround: p50 {:.3} ms, p90 {:.3} ms, \
                 {} samples beyond p90",
                stats::median(&ms),
                stats::percentile(&ms, 90.0),
                stats::beyond(&ms, 90.0)
            ),
            format!("fail_ratio {fail_ratio} ({failed} of {attempted} flows)"),
        ],
    }
}

/// `sweep_cold` and `sweep_warm`: `run_all_cached_on` on the sequential
/// engine, back to back, on a fresh cache per sweep or on one cache warmed
/// at set-up, by one client per CPU at once.
///
/// Each sweep runs on its client's thread. The parallel engine runs ten
/// flows and their graph workers on `nproc` cores, so its figures follow
/// the host's scheduler; and concurrent misses on one key may each compute
/// it, so how much work a cold sweep does depends on thread timing. One
/// client per CPU keeps every CPU busy, so a run's rate follows the mean
/// speed of the host's CPUs, which drift apart in phases, not the speed of
/// whichever CPU one client happened to run on.
fn sweep(warm: bool, seconds: f64, min_samples: usize) -> Result<Run, String> {
    let clients = stats::nproc();
    let ((oracle, warm_caches), setup_s) = timed_setup(|| {
        let oracle = SweepOracle::build()?;
        let mut caches = Vec::new();
        for _ in 0..if warm { clients } else { 0 } {
            let cache = Arc::new(EvalCache::new());
            let first = psa_bench::run_all_cached_on(FlowEngine::sequential(), Arc::clone(&cache));
            if oracle.mismatched_flows(&first) > 0 {
                return Err("the warm-up sweep differs from the reference".into());
            }
            caches.push(cache);
        }
        Ok((oracle, caches))
    })?;
    let client = |c: usize| {
        let mut failed = 0;
        let samples = measure(seconds, min_samples.div_ceil(clients), || {
            let cache = warm_caches
                .get(c)
                .cloned()
                .unwrap_or_else(|| Arc::new(EvalCache::new()));
            let t = Instant::now();
            let sweep = psa_bench::run_all_cached_on(FlowEngine::sequential(), cache);
            let dt = t.elapsed().as_secs_f64();
            failed += oracle.mismatched_flows(&sweep);
            dt
        });
        (samples, failed)
    };
    let runs: Vec<(Vec<f64>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|c| s.spawn(move || client(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep client panicked"))
            .collect()
    });
    let attempted = runs.iter().map(|(s, _)| s.len() as u64).sum::<u64>() * FLOWS_PER_SWEEP;
    let failed = runs.iter().map(|(_, f)| f).sum();
    let samples: Vec<Vec<f64>> = runs.into_iter().map(|(s, _)| s).collect();
    Ok(summary(
        setup_s,
        &samples,
        FLOWS_PER_SWEEP as usize,
        (attempted, failed),
        "sweep",
        stats::peak_rss_mb(),
    ))
}

/// Admission wide open, no deadlines, one worker per CPU.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: stats::nproc(),
        queue_capacity: 1 << 20,
        default_policy: TenantPolicy {
            rate_per_sec: 1e12,
            burst: 1e12,
            max_in_flight: usize::MAX,
        },
        ..ServerConfig::default()
    }
}

/// A cache shaped like the server's shared one.
pub fn server_shaped_cache() -> EvalCache {
    let cfg = ServerConfig::default();
    match cfg.cache_domain_quota {
        Some(q) => EvalCache::with_domain_quota(cfg.cache_capacity, q),
        None => EvalCache::with_capacity(cfg.cache_capacity),
    }
}

/// Submit `jobs` and `wait`. Returns this batch's results, in submission
/// order, and how many results the `wait` returned in total.
pub fn submit_and_wait(
    server: &Server,
    jobs: &[Request],
) -> Result<(Vec<JobResult>, usize), String> {
    let mut first = None;
    for req in jobs {
        match server.handle_request(req).as_slice() {
            [Response::Accepted { seq, .. }] => {
                first.get_or_insert(*seq);
            }
            other => return Err(format!("submission refused: {other:?}")),
        }
    }
    let responses = server.handle_request(&Request::Wait);
    let total = responses.len();
    let first = first.unwrap_or(u64::MAX);
    let results = responses
        .into_iter()
        .filter_map(|r| match r {
            Response::Result(r) if r.seq >= first => Some(*r),
            _ => None,
        })
        .collect();
    Ok((results, total))
}

pub fn submissions(jobs: &[JobSpec]) -> Vec<Request> {
    jobs.iter().cloned().map(Request::Submit).collect()
}

/// The rendered outcome of a finished job, or why it has none.
pub fn rendered(result: &JobResult) -> Result<&str, String> {
    match (result.status, &result.outcome) {
        (JobStatus::Done, Some(o)) => Ok(o),
        _ => Err(format!(
            "job {} ended {}: {}",
            result.id,
            result.status.label(),
            result.detail
        )),
    }
}

/// A started server with the hot set warmed and its reference outcomes.
pub struct ServeSetup {
    pub server: Server,
    pub stream: Stream,
    pub hot: BTreeMap<String, String>,
}

pub fn serve_setup(seed: u64) -> Result<ServeSetup, String> {
    let stream = Stream::new(seed);
    let hot_jobs = stream::hot_set();
    let mut hot = BTreeMap::new();
    for spec in &hot_jobs {
        let key = stream::hot_key(spec).expect("hot jobs name a benchmark");
        hot.insert(key, oracle::offline_render(spec)?);
    }
    let server = Server::new(server_config());
    let (results, _) = submit_and_wait(&server, &submissions(&hot_jobs))?;
    for (spec, result) in hot_jobs.iter().zip(&results) {
        let want = &hot[&stream::hot_key(spec).expect("hot")];
        if rendered(result)? != want {
            return Err(format!("warm-up job {} differs from offline", spec.id));
        }
    }
    Ok(ServeSetup {
        server,
        stream,
        hot,
    })
}

/// `serve_mixed`: batches of [`JOBS_PER_WORKER`] × workers jobs to an
/// in-process server, each batch submitted then waited for.
fn serve(seed: u64, seconds: f64, min_samples: usize) -> Result<Run, String> {
    let (mut setup, setup_s) = timed_setup(|| serve_setup(seed))?;
    let batch_len = JOBS_PER_WORKER * server_config().workers;
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Fresh programs are checked after the window: (spec, outcome hash).
    let mut fresh: Vec<(JobSpec, u64)> = Vec::new();
    let mut resent = 0usize;
    let samples = measure(seconds, min_samples, || {
        let jobs = setup.stream.batch(batch_len);
        let requests = submissions(&jobs);
        let t = Instant::now();
        let served = submit_and_wait(&setup.server, &requests);
        let dt = t.elapsed().as_secs_f64();
        attempted += jobs.len() as u64;
        let (results, total) = match served {
            Ok(r) => r,
            Err(_) => {
                failed += jobs.len() as u64;
                return dt;
            }
        };
        resent += total - results.len();
        failed += jobs.len().saturating_sub(results.len()) as u64;
        for (spec, result) in jobs.into_iter().zip(&results) {
            match (rendered(result), stream::hot_key(&spec)) {
                (Ok(got), Some(key)) if setup.hot.get(&key).is_some_and(|w| w == got) => {}
                (Ok(got), None) => fresh.push((spec, fnv64_of(got))),
                _ => failed += 1,
            }
        }
        dt
    });
    let rss = stats::peak_rss_mb();
    let batches = samples.len();
    setup.server.handle_request(&Request::Drain);
    failed += verify_fresh(&fresh);
    let mut run = summary(
        setup_s,
        &[samples],
        batch_len,
        (attempted, failed),
        "batch",
        rss,
    );
    run.notes.push(format!(
        "batches of {batch_len} jobs on {} workers; {} fresh programs checked offline; \
         wait re-sent {:.1} earlier results per batch",
        server_config().workers,
        fresh.len(),
        resent as f64 / batches as f64
    ));
    Ok(run)
}

/// Check every fresh program's served outcome against an offline run,
/// one checker thread per CPU. Returns the number that differ.
fn verify_fresh(fresh: &[(JobSpec, u64)]) -> u64 {
    let chunk = fresh.len().div_ceil(stats::nproc()).max(1);
    std::thread::scope(|s| {
        let checkers: Vec<_> = fresh
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter(|(spec, got)| {
                            oracle::offline_render(spec).map(|o| fnv64_of(&o)) != Ok(*got)
                        })
                        .count() as u64
                })
            })
            .collect();
        checkers
            .into_iter()
            .map(|c| c.join().expect("fresh-program checker panicked"))
            .sum()
    })
}
