//! Flight-recorder overhead benchmark: the full five-benchmark sweep with
//! the recorder off (one relaxed atomic load per instrumentation site)
//! versus armed (span stack, ring journaling, span table) — measuring what
//! `--recorder-dump=` costs while no dump is ever written.
//!
//! One side of a pair is [`SWEEPS`] cold `run_all_cached_on` sweeps, each
//! with a fresh evaluation cache on the sequential engine; the overhead is
//! the median of the paired on/off ratios (see [`psa_bench::measure`]).
//! Emits `BENCH_obs.json` at the workspace root; CI guards
//! `overhead_pct <= 5`.
//!
//! Run with: `cargo bench -p psa-bench --bench obs_overhead`

use psa_bench::measure::{num, paired, write_record, PAIRS};
use psa_bench::run_all_cached_on;
use psaflow_core::{EvalCache, FlowEngine};
use std::sync::Arc;

/// Cold sweeps per side of a pair, so single-sweep jitter (±15% on a busy
/// box) averages down before the pair ratio is taken.
const SWEEPS: usize = 3;

fn sweeps(recorder: bool) {
    psa_obs::recorder::set_enabled(recorder);
    for _ in 0..SWEEPS {
        psa_obs::recorder::reset();
        let r = run_all_cached_on(FlowEngine::sequential(), Arc::new(EvalCache::new()))
            .expect("sweep runs");
        assert_eq!(r.len(), 5, "all five benchmarks produce rows");
    }
}

fn main() {
    let times = paired(|| (), |_| sweeps(false), |_| sweeps(true)).summary();
    // Events journaled by one more, untimed, recorded sweep (ring residue +
    // evicted), whichever side the last pair ran second.
    sweeps(true);
    let snapshot = psa_obs::recorder::snapshot();
    let events_recorded: u64 = snapshot
        .workers
        .iter()
        .map(|w| w.dropped + w.events.len() as u64)
        .sum();
    psa_obs::recorder::set_enabled(false);

    write_record(
        "obs",
        "obs_overhead",
        "ms: per-side median of cold sequential sweeps; overhead_pct: median of per-pair on/off ratios",
        Some(PAIRS),
        vec![
            ("sweeps_per_side", SWEEPS.into()),
            ("baseline_ms", num(times.a_median / SWEEPS as f64, 3)),
            ("recorder_ms", num(times.b_median / SWEEPS as f64, 3)),
            ("overhead_pct", num((times.ratio_median - 1.0) * 100.0, 2)),
            ("paired", times.ratio_json("on/off")),
            ("events_recorded", events_recorded.into()),
        ],
    );
}
