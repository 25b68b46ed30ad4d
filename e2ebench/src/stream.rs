//! The seeded job stream of `serve_mixed`.
//!
//! Half the jobs repeat a hot set (the five paper benchmarks, warmed at
//! set-up); the other half are programs the server has never seen: a
//! benchsuite generator at a freshly drawn size, named after the job, so
//! its cache address is new even when a size repeats. That keeps the
//! cold/warm mix the same from the first batch to the last. Jobs are 3:1
//! informed to uninformed. The stream is a pure function of the seed.

use psa_serve::JobSpec;
use psaflow_core::FlowMode;

/// Share of jobs drawn from the hot set.
pub const HOT_SHARE: f64 = 0.5;
/// Share of jobs run in informed mode.
pub const INFORMED_SHARE: f64 = 0.75;

/// A benchsuite generator: name, source of size `n`, and the inclusive
/// size range drawn from.
type Generator = (&'static str, fn(usize) -> String, usize, usize);

/// The ranges sit at or below each benchmark's analysis workload, so a
/// fresh job costs about as much as a cold hot-set job.
const FRESH: [Generator; 5] = [
    ("nbody", psa_benchsuite::nbody::source, 96, 192),
    ("kmeans", psa_benchsuite::kmeans::source, 1024, 2048),
    ("rushlarsen", psa_benchsuite::rushlarsen::source, 128, 256),
    (
        "adpredictor",
        psa_benchsuite::adpredictor::source,
        512,
        1024,
    ),
    ("bezier", psa_benchsuite::bezier::source, 12, 24),
];

/// SplitMix64: small, seedable, and the same on every platform. Not
/// `psa_serve::loadgen::Rng`, which seeds with `seed | 1` and so gives
/// seeds 2k and 2k + 1 the same stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

fn mode_label(mode: FlowMode) -> &'static str {
    match mode {
        FlowMode::Informed => "informed",
        FlowMode::Uninformed => "uninformed",
    }
}

fn job(
    id: String,
    bench: Option<String>,
    source: Option<String>,
    mode: FlowMode,
    at: u64,
) -> JobSpec {
    JobSpec {
        id,
        tenant: "e2ebench".to_owned(),
        bench,
        source,
        mode,
        policy: "degrade".to_owned(),
        deadline_ms: None,
        arrive_ms: at,
        faults: None,
    }
}

/// The hot set: every paper benchmark in both modes, in sweep order.
pub fn hot_set() -> Vec<JobSpec> {
    let mut out = Vec::new();
    for b in psa_benchsuite::all() {
        for mode in [FlowMode::Uninformed, FlowMode::Informed] {
            let id = format!("warm-{}-{}", b.key, mode_label(mode));
            out.push(job(id, Some(b.key.clone()), None, mode, 0));
        }
    }
    out
}

/// Key under which a hot job's reference outcome is stored.
pub fn hot_key(spec: &JobSpec) -> Option<String> {
    let bench = spec.bench.as_ref()?;
    Some(format!("{bench}/{}", mode_label(spec.mode)))
}

/// An endless, seeded stream of job submissions.
pub struct Stream {
    rng: Rng,
    next: u64,
    hot_keys: Vec<String>,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: Rng::new(seed),
            next: 0,
            hot_keys: psa_benchsuite::all().into_iter().map(|b| b.key).collect(),
        }
    }

    pub fn next_job(&mut self) -> JobSpec {
        let i = self.next;
        self.next += 1;
        let hot = self.rng.chance(HOT_SHARE);
        let mode = if self.rng.chance(INFORMED_SHARE) {
            FlowMode::Informed
        } else {
            FlowMode::Uninformed
        };
        if hot {
            let key = self.hot_keys[self.rng.below(self.hot_keys.len())].clone();
            job(format!("h{i}-{key}"), Some(key), None, mode, i)
        } else {
            let (name, source, lo, hi) = FRESH[self.rng.below(FRESH.len())];
            let n = lo + self.rng.below(hi - lo + 1);
            job(format!("f{i}-{name}{n}"), None, Some(source(n)), mode, i)
        }
    }

    pub fn batch(&mut self, len: usize) -> Vec<JobSpec> {
        (0..len).map(|_| self.next_job()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_serve::{encode_request, Request};

    fn wire(seed: u64, jobs: usize) -> String {
        let mut s = Stream::new(seed);
        s.batch(jobs)
            .into_iter()
            .map(|j| encode_request(&Request::Submit(j)) + "\n")
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        assert_eq!(wire(7, 300), wire(7, 300));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(wire(7, 300), wire(8, 300));
        assert_ne!(wire(0, 300), wire(1, 300));
    }

    #[test]
    fn shares_hit_their_targets() {
        let jobs = Stream::new(42).batch(4000);
        let hot = jobs.iter().filter(|j| j.bench.is_some()).count() as f64 / 4000.0;
        let informed = jobs.iter().filter(|j| j.mode == FlowMode::Informed).count() as f64 / 4000.0;
        assert!((hot - HOT_SHARE).abs() < 0.03, "hot share {hot}");
        assert!(
            (informed - INFORMED_SHARE).abs() < 0.03,
            "informed share {informed}"
        );
        // Every fresh job is a program the server has not seen: its id is
        // its app name, and ids never repeat.
        let mut ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
        // Fresh jobs are inline sources, hot jobs name a benchmark.
        assert!(jobs.iter().all(|j| j.bench.is_some() != j.source.is_some()));
    }

    #[test]
    fn hot_set_covers_every_benchmark_in_both_modes() {
        let hot = hot_set();
        assert_eq!(hot.len(), 10);
        let mut keys: Vec<String> = hot.iter().filter_map(hot_key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 10);
    }
}
