//! Dynamic loop trip-count analysis.
//!
//! "dynamic loop trip-count analysis to characterise the behaviour of
//! program loops" (§III). Static bounds cover fixed loops; for
//! runtime-bound loops (N-Body's `i < n`) the observed mean trip count from
//! a profiled run parameterises the platform models (e.g. GPU thread count
//! = outer trips, FPGA pipeline fill = inner trips).

use psa_artisan::query;
use psa_interp::{LoopStats, Profile};
use psa_minicpp::{Module, NodeId};
use serde::{Deserialize, Serialize};

/// Observed behaviour of one loop in the kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopTrips {
    /// [`psa_minicpp::ForLoop`] node id.
    pub id: NodeId,
    pub var: String,
    pub depth: usize,
    /// Times the loop was entered.
    pub entries: u64,
    /// Total iterations across entries.
    pub iterations: u64,
    /// Mean trip count per entry.
    pub mean_trip: f64,
    /// The static trip count when bounds were literal (cross-check).
    pub static_trip: Option<u64>,
}

/// Whole-kernel trip-count report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TripCountReport {
    /// Kernel loops in source order.
    pub loops: Vec<LoopTrips>,
}

impl TripCountReport {
    /// Mean trip count of the outermost kernel loop (≈ available thread
    /// parallelism for offload).
    pub fn outer_mean_trip(&self) -> f64 {
        self.loops
            .iter()
            .find(|l| l.depth == 0)
            .map_or(0.0, |l| l.mean_trip)
    }

    /// Look up a loop by node id.
    pub fn get(&self, id: NodeId) -> Option<&LoopTrips> {
        self.loops.iter().find(|l| l.id == id)
    }
}

/// Join static loop structure with the profiled run's per-loop statistics.
pub fn analyze_from_run(module: &Module, kernel: &str, profile: &Profile) -> TripCountReport {
    report(module, kernel, |_, m| {
        profile.loop_stats.get(&m.id).copied().unwrap_or_default()
    })
}

/// Join static loop structure with observed statistics given per kernel
/// loop in source order (a loop missing from `stats` was never entered).
pub fn from_stats(module: &Module, kernel: &str, stats: &[LoopStats]) -> TripCountReport {
    report(module, kernel, |i, _| {
        stats.get(i).copied().unwrap_or_default()
    })
}

fn report(
    module: &Module,
    kernel: &str,
    stats_of: impl Fn(usize, &query::LoopMatch) -> LoopStats,
) -> TripCountReport {
    let loops = query::loops(module, |l| l.function == kernel)
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            let stats = stats_of(i, &m);
            LoopTrips {
                id: m.id,
                var: m.var,
                depth: m.depth,
                entries: stats.entries,
                iterations: stats.iterations,
                mean_trip: stats.mean_trip_count(),
                static_trip: m.static_trip_count,
            }
        })
        .collect();
    TripCountReport { loops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic_run;
    use psa_minicpp::parse_module;

    #[test]
    fn observed_trips_match_bounds() {
        let src = "void knl(double* a, int n) {\
                     for (int i = 0; i < n; i++) {\
                       for (int j = 0; j < 4; j++) { a[i * 4 + j] = 1.0; }\
                     }\
                   }\
                   int main() { double* a = alloc_double(64); knl(a, 16); return 0; }";
        let m = parse_module(src, "t").unwrap();
        let run = dynamic_run(&m, "knl").unwrap();
        let report = analyze_from_run(&m, "knl", &run.profile);
        assert_eq!(report.loops.len(), 2);
        let outer = &report.loops[0];
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.entries, 1);
        assert_eq!(outer.iterations, 16);
        assert_eq!(outer.static_trip, None);
        assert_eq!(report.outer_mean_trip(), 16.0);
        let inner = &report.loops[1];
        assert_eq!(inner.entries, 16);
        assert_eq!(inner.iterations, 64);
        assert_eq!(inner.mean_trip, 4.0);
        assert_eq!(inner.static_trip, Some(4));
    }

    #[test]
    fn multiple_kernel_calls_average() {
        let src = "void knl(double* a, int n) { for (int i = 0; i < n; i++) { a[i] = 0.0; } }\
                   int main() { double* a = alloc_double(32); knl(a, 8); knl(a, 24); return 0; }";
        let m = parse_module(src, "t").unwrap();
        let run = dynamic_run(&m, "knl").unwrap();
        let report = analyze_from_run(&m, "knl", &run.profile);
        let outer = &report.loops[0];
        assert_eq!(outer.entries, 2);
        assert_eq!(outer.iterations, 32);
        assert_eq!(outer.mean_trip, 16.0);
    }

    #[test]
    fn loops_outside_kernel_are_excluded() {
        let src = "void knl(double* a) { for (int i = 0; i < 2; i++) { a[i] = 0.0; } }\
                   int main() { double* a = alloc_double(8); for (int k = 0; k < 3; k++) { knl(a); } return 0; }";
        let m = parse_module(src, "t").unwrap();
        let run = dynamic_run(&m, "knl").unwrap();
        let report = analyze_from_run(&m, "knl", &run.profile);
        assert_eq!(report.loops.len(), 1);
        assert_eq!(report.loops[0].var, "i");
    }
}
