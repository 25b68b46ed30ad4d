//! psa-serve throughput benchmark: a live (unpaused) daemon absorbing a
//! seeded no-fault, no-deadline job stream from three tenants, measured
//! wall-clock from first submission to the last result.
//!
//! One session, not paired: throughput is jobs/s over the whole session;
//! latency quantiles come from the service's own `psa_serve_exec_us`
//! histogram (psa-obs log₂ buckets), reported in milliseconds. Emits
//! `BENCH_serve.json` at the workspace root through
//! [`psa_bench::measure::write_record`]; CI guards a conservative
//! throughput floor and a nonzero median.
//!
//! Run with: `cargo bench -p psa-bench --bench serve_throughput`

use psa_bench::measure::{num, write_record};
use psa_serve::loadgen::{generate, LoadConfig};
use psa_serve::{JobStatus, Request, Response, Server, ServerConfig, TenantPolicy};
use std::time::Instant;

const JOBS: usize = 300;
const WORKERS: usize = 4;

fn main() {
    psa_obs::set_enabled(true);

    // No faults, no tight deadlines: every accepted job should succeed,
    // so the number measures the service machinery plus the flows.
    let requests = generate(&LoadConfig {
        seed: 11,
        jobs: JOBS,
        tenants: vec!["alpha".into(), "bravo".into(), "charlie".into()],
        arrive_step_ms: 1,
        deadline_frac: 0.0,
        fault_frac: 0.0,
    });
    // Admission opened wide: this benchmark measures execution, not
    // rate-limit shedding.
    let server = Server::new(ServerConfig {
        workers: WORKERS,
        queue_capacity: JOBS,
        default_policy: TenantPolicy {
            rate_per_sec: 1e9,
            burst: 1e9,
            max_in_flight: JOBS,
        },
        ..ServerConfig::default()
    });

    let start = Instant::now();
    let mut accepted = 0usize;
    for req in &requests {
        match server.handle_request(req).remove(0) {
            Response::Accepted { .. } => accepted += 1,
            other => panic!("benchmark stream must admit cleanly, got {other:?}"),
        }
    }
    let results = server.handle_request(&Request::Wait);
    let elapsed_s = start.elapsed().as_secs_f64();

    assert_eq!(accepted, JOBS, "every generated job admitted");
    let done = results
        .iter()
        .filter(|r| matches!(r, Response::Result(r) if r.status == JobStatus::Done))
        .count();
    assert_eq!(done, JOBS, "no faults, no deadlines: every job succeeds");
    match server.handle_request(&Request::Drain).remove(0) {
        Response::Drained { completed, .. } => assert_eq!(completed as usize, JOBS),
        other => panic!("drain must ack, got {other:?}"),
    }

    let exec = psa_obs::global().histogram("psa_serve_exec_us", &[]);
    let exec_ms = |q| num(exec.quantile(q).unwrap_or(0.0) / 1000.0, 3);
    write_record(
        "serve",
        "serve_throughput",
        "one session: wall clock from the first submission to the last result",
        None,
        vec![
            ("jobs", JOBS.into()),
            ("workers", WORKERS.into()),
            ("elapsed_s", num(elapsed_s, 3)),
            ("throughput_jobs_per_s", num(JOBS as f64 / elapsed_s, 1)),
            ("exec_ms_p50", exec_ms(0.50)),
            ("exec_ms_p99", exec_ms(0.99)),
        ],
    );
}
