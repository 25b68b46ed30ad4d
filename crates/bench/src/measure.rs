//! The one timing harness behind the `BENCH_*.json` records.
//!
//! Every A-vs-B claim the benches make (tree walker vs VM, chain vs DAG,
//! recorder off vs on, failfast vs another failure policy) is sampled by
//! [`paired`]: each side runs once as a warm-up, then [`PAIRS`] pairs
//! alternate which side goes first, A on even rounds and B on odd ones.
//! Load on a shared host drifts far slower than one pair, so both runs of
//! a pair see the same load, and the alternation cancels any
//! first/second-run effect. What one side executes is the bench's choice.
//!
//! [`Paired::summary`] reduces the samples. Deterministic runs (the
//! interpreter) claim per-side minima, because their true cost is a
//! constant and timing noise only adds; every other claim is the median
//! paired ratio. [`write_record`] writes each record behind one header:
//! `benchmark`, `sampling`, `nproc` and, for paired records, `pairs`.

use psa_obs::json::Json;
use std::time::Instant;

/// Alternating pairs per A-vs-B comparison: enough that a median paired
/// ratio with an interquartile range of 0.2 (the full-flow DAG ratios on a
/// 2-CPU host) moves by about ±3% between runs.
pub const PAIRS: usize = 41;

/// Wall-clock samples in ms, one per pair and side, in round order.
pub struct Paired {
    pub a: Vec<f64>,
    pub b: Vec<f64>,
}

/// Time `a` against `b` in [`PAIRS`] alternating pairs, after one warm-up
/// run of each. Every run gets a fresh `setup()` value, built and dropped
/// outside the timed region.
pub fn paired<S>(
    mut setup: impl FnMut() -> S,
    mut a: impl FnMut(&mut S),
    mut b: impl FnMut(&mut S),
) -> Paired {
    a(&mut setup());
    b(&mut setup());
    let mut time = |side: &mut dyn FnMut(&mut S)| {
        let mut state = setup();
        let start = Instant::now();
        side(&mut state);
        start.elapsed().as_secs_f64() * 1e3
    };
    let mut samples = Paired {
        a: vec![],
        b: vec![],
    };
    for round in 0..PAIRS {
        if round % 2 == 0 {
            samples.a.push(time(&mut a));
            samples.b.push(time(&mut b));
        } else {
            samples.b.push(time(&mut b));
            samples.a.push(time(&mut a));
        }
    }
    samples
}

/// What a [`Paired`] run shows.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub a_min: f64,
    pub a_median: f64,
    pub b_min: f64,
    pub b_median: f64,
    /// Median of the per-pair B/A ratios.
    pub ratio_median: f64,
    /// Third minus first quartile of the per-pair B/A ratios.
    pub ratio_iqr: f64,
    /// Pairs in which B ran faster than A.
    pub b_won: usize,
}

impl Paired {
    pub fn summary(&self) -> Summary {
        let ratios = sorted(self.a.iter().zip(&self.b).map(|(a, b)| b / a).collect());
        let (a, b) = (sorted(self.a.clone()), sorted(self.b.clone()));
        Summary {
            a_min: a[0],
            a_median: quantile(&a, 0.5),
            b_min: b[0],
            b_median: quantile(&b, 0.5),
            ratio_median: quantile(&ratios, 0.5),
            ratio_iqr: quantile(&ratios, 0.75) - quantile(&ratios, 0.25),
            b_won: self.a.iter().zip(&self.b).filter(|(a, b)| b < a).count(),
        }
    }
}

impl Summary {
    /// The paired-ratio statistics as a record field; `ratio` names the
    /// ratio, B over A (`"vm/tree"`).
    pub fn ratio_json(&self, ratio: &str) -> Json {
        Json::object([
            ("ratio", ratio.into()),
            ("median", num(self.ratio_median, 4)),
            ("iqr", num(self.ratio_iqr, 4)),
            ("pairs_won", self.b_won.into()),
        ])
    }
}

fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Linear-interpolated quantile of sorted, non-empty samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = (sorted.len() - 1) as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `x` rounded to `decimals` places, as a JSON number.
pub fn num(x: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((x * scale).round() / scale)
}

/// Print and write `BENCH_<stem>.json` at the workspace root: the header
/// (`benchmark`, `sampling`, `nproc`, and `pairs` when given), then
/// `fields` in order.
pub fn write_record(
    stem: &str,
    benchmark: &str,
    sampling: &str,
    pairs: Option<usize>,
    fields: Vec<(&str, Json)>,
) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header = [
        ("benchmark", benchmark.into()),
        ("sampling", sampling.into()),
        ("nproc", nproc.into()),
    ];
    let pairs = pairs.map(|p| ("pairs", p.into()));
    let record = Json::object(header.into_iter().chain(pairs).chain(fields));
    let text = format!("{record}\n");
    print!("{text}");
    // Workspace root = two levels above this crate's manifest.
    let path = format!("{}/../../BENCH_{stem}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_pairs_samples_by_round() {
        // Ratios 1.1, 0.9, 1.1, 1.2, 1.05 → sorted 0.9, 1.05, 1.1, 1.1, 1.2.
        let p = Paired {
            a: vec![10.0, 10.0, 20.0, 10.0, 10.0],
            b: vec![11.0, 9.0, 22.0, 12.0, 10.5],
        };
        let s = p.summary();
        assert_eq!((s.a_min, s.a_median), (10.0, 10.0));
        assert_eq!((s.b_min, s.b_median), (9.0, 11.0));
        assert!((s.ratio_median - 1.1).abs() < 1e-12);
        assert!((s.ratio_iqr - 0.05).abs() < 1e-12);
        assert_eq!(s.b_won, 1);
    }

    #[test]
    fn paired_alternates_which_side_runs_first() {
        let order = std::cell::RefCell::new(String::new());
        let p = paired(
            || (),
            |_| order.borrow_mut().push('a'),
            |_| order.borrow_mut().push('b'),
        );
        assert_eq!((p.a.len(), p.b.len()), (PAIRS, PAIRS));
        let order = order.into_inner();
        // Warm-ups, then A first on even rounds and B first on odd ones.
        assert_eq!(&order[..10], "ababbaabba");
        assert_eq!(order.len(), 2 + 2 * PAIRS);
    }
}
