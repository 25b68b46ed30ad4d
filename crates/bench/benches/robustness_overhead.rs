//! Fault-tolerance overhead benchmark: the full five-benchmark sweep under
//! each failure policy, with **no fault plan installed** — measuring what
//! the robustness machinery (policy dispatch, catch_unwind at every task
//! and path, seam probes, deadline checks) costs when nothing ever fails.
//!
//! Each run is a cold `run_all_cached_on` with a fresh evaluation cache on
//! the sequential engine. Every other policy is paired against failfast,
//! and its overhead is the median of the paired ratios (see
//! [`psa_bench::measure`]). Emits `BENCH_robustness.json` at the workspace
//! root; CI guards `max_overhead_pct <= 5`.
//!
//! Run with: `cargo bench -p psa-bench --bench robustness_overhead`

use psa_bench::measure::{num, paired, write_record, PAIRS};
use psa_bench::run_all_cached_on;
use psa_obs::json::Json;
use psaflow_core::{EvalCache, FailurePolicy, FlowEngine};
use std::sync::Arc;

fn sweep(policy: FailurePolicy) {
    let engine = FlowEngine::sequential().with_policy(policy);
    let rows = run_all_cached_on(engine, Arc::new(EvalCache::new())).expect("sweep runs");
    assert_eq!(rows.len(), 5, "all five benchmarks produce rows");
    assert!(
        rows.iter().all(|(_, o)| o.failures.is_empty()),
        "no fault plan is installed, so nothing may fail"
    );
}

fn main() {
    let policies = [
        ("degrade", FailurePolicy::DegradePaths),
        (
            "retry",
            FailurePolicy::parse("retry:3").expect("valid policy"),
        ),
    ];
    let mut rows = Vec::new();
    let mut max_overhead_pct = f64::NEG_INFINITY;
    for (name, policy) in policies {
        let times = paired(|| (), |_| sweep(FailurePolicy::FailFast), |_| sweep(policy)).summary();
        let overhead_pct = (times.ratio_median - 1.0) * 100.0;
        max_overhead_pct = max_overhead_pct.max(overhead_pct);
        rows.push(Json::object([
            ("policy", name.into()),
            ("failfast_ms", num(times.a_median, 3)),
            ("sweep_ms", num(times.b_median, 3)),
            ("overhead_pct", num(overhead_pct, 2)),
            ("paired", times.ratio_json(&format!("{name}/failfast"))),
        ]));
    }
    write_record(
        "robustness",
        "robustness_overhead",
        "ms: median of cold sequential sweeps; overhead_pct: median of per-pair policy/failfast ratios",
        Some(PAIRS),
        vec![
            ("policies", Json::Array(rows)),
            ("max_overhead_pct", num(max_overhead_pct, 2)),
        ],
    );
}
