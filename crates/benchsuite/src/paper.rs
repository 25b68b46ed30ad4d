//! The numbers printed in the paper, for paper-vs-measured reporting.
//!
//! Fig. 5 speedups are read off the figure's bar labels; Table I is quoted
//! directly. The abstract quotes "up to 779×" for HIP CPU+GPU while Fig. 5
//! labels N-Body's 2080 Ti bar 751× — the figure value is recorded here.

/// Which target family the informed PSA strategy selects at branch point A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperTarget {
    MultiThreadCpu,
    CpuGpu,
    CpuFpga,
}

/// One application's row of Fig. 5 (hotspot speedups vs 1-thread CPU).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    pub key: &'static str,
    /// Fastest auto-selected design (leftmost bar).
    pub auto_selected: f64,
    pub omp: f64,
    pub hip_1080: f64,
    pub hip_2080: f64,
    /// `None` = design not synthesizable (Rush Larsen).
    pub oneapi_a10: Option<f64>,
    pub oneapi_s10: Option<f64>,
    /// The branch the informed strategy takes.
    pub target: PaperTarget,
}

/// One application's row of Table I (added LOC % per design).
#[derive(Debug, Clone, PartialEq)]
pub struct TableIRow {
    pub key: &'static str,
    pub omp_pct: f64,
    pub hip_pct: f64,
    /// `None` = excluded (unsynthesizable FPGA designs).
    pub a10_pct: Option<f64>,
    pub s10_pct: Option<f64>,
    pub total_pct: Option<f64>,
}

/// Fig. 5, all five applications.
pub fn fig5() -> Vec<Fig5Row> {
    vec![
        Fig5Row {
            key: "rushlarsen",
            auto_selected: 98.0,
            omp: 28.0,
            hip_1080: 63.0,
            hip_2080: 98.0,
            oneapi_a10: None,
            oneapi_s10: None,
            target: PaperTarget::CpuGpu,
        },
        Fig5Row {
            key: "nbody",
            auto_selected: 751.0,
            omp: 30.0,
            hip_1080: 337.0,
            hip_2080: 751.0,
            oneapi_a10: Some(1.1),
            oneapi_s10: Some(1.4),
            target: PaperTarget::CpuGpu,
        },
        Fig5Row {
            key: "bezier",
            auto_selected: 67.0,
            omp: 28.0,
            hip_1080: 63.0,
            hip_2080: 67.0,
            oneapi_a10: Some(23.0),
            oneapi_s10: Some(27.0),
            target: PaperTarget::CpuGpu,
        },
        Fig5Row {
            key: "adpredictor",
            auto_selected: 32.0,
            omp: 28.0,
            hip_1080: 10.0,
            hip_2080: 10.0,
            oneapi_a10: Some(14.0),
            oneapi_s10: Some(32.0),
            target: PaperTarget::CpuFpga,
        },
        Fig5Row {
            key: "kmeans",
            auto_selected: 29.0,
            omp: 29.0,
            hip_1080: 19.0,
            hip_2080: 24.0,
            oneapi_a10: Some(7.0),
            oneapi_s10: Some(13.0),
            target: PaperTarget::MultiThreadCpu,
        },
    ]
}

/// Table I, all five applications (percent added LOC per design).
pub fn table1() -> Vec<TableIRow> {
    vec![
        TableIRow {
            key: "rushlarsen",
            omp_pct: 0.4,
            hip_pct: 6.0,
            a10_pct: None,
            s10_pct: None,
            total_pct: None,
        },
        TableIRow {
            key: "nbody",
            omp_pct: 2.0,
            hip_pct: 37.0,
            a10_pct: Some(52.0),
            s10_pct: Some(69.0),
            total_pct: Some(197.0),
        },
        TableIRow {
            key: "bezier",
            omp_pct: 2.0,
            hip_pct: 26.0,
            a10_pct: Some(34.0),
            s10_pct: Some(42.0),
            total_pct: Some(130.0),
        },
        TableIRow {
            key: "adpredictor",
            omp_pct: 2.0,
            hip_pct: 31.0,
            a10_pct: Some(42.0),
            s10_pct: Some(63.0),
            total_pct: Some(169.0),
        },
        TableIRow {
            key: "kmeans",
            omp_pct: 4.0,
            hip_pct: 81.0,
            a10_pct: Some(101.0),
            s10_pct: Some(147.0),
            total_pct: Some(414.0),
        },
    ]
}

/// Fig. 5 row for one benchmark key.
pub fn fig5_row(key: &str) -> Option<Fig5Row> {
    fig5().into_iter().find(|r| r.key == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_every_benchmark() {
        let keys: Vec<&str> = crate::all()
            .iter()
            .map(|b| b.key.as_str())
            .map(|k| {
                // leak-free static comparison via match below
                match k {
                    "rushlarsen" => "rushlarsen",
                    "nbody" => "nbody",
                    "bezier" => "bezier",
                    "adpredictor" => "adpredictor",
                    "kmeans" => "kmeans",
                    other => panic!("unknown key {other}"),
                }
            })
            .collect();
        for k in keys {
            assert!(fig5_row(k).is_some(), "{k}");
            assert!(table1().iter().any(|r| r.key == k), "{k}");
        }
    }

    #[test]
    fn auto_selected_is_the_best_generated_design() {
        for row in fig5() {
            let best = [
                Some(row.omp),
                Some(row.hip_1080),
                Some(row.hip_2080),
                row.oneapi_a10,
                row.oneapi_s10,
            ]
            .into_iter()
            .flatten()
            .fold(0.0f64, f64::max);
            assert!(
                (row.auto_selected - best).abs() < 1e-9,
                "{}: informed PSA must pick the winner ({} vs best {best})",
                row.key,
                row.auto_selected
            );
        }
    }

    #[test]
    fn headline_claims_hold() {
        let rows = fig5();
        let max_omp = rows.iter().map(|r| r.omp).fold(0.0f64, f64::max);
        let max_gpu = rows
            .iter()
            .map(|r| r.hip_1080.max(r.hip_2080))
            .fold(0.0f64, f64::max);
        let max_fpga = rows
            .iter()
            .filter_map(|r| match (r.oneapi_a10, r.oneapi_s10) {
                (Some(a), Some(s)) => Some(a.max(s)),
                _ => None,
            })
            .fold(0.0f64, f64::max);
        assert_eq!(max_omp, 30.0, "paper: up to 30× OpenMP");
        assert_eq!(max_fpga, 32.0, "paper: up to 32× oneAPI CPU+FPGA");
        assert_eq!(
            max_gpu, 751.0,
            "figure: 751× HIP CPU+GPU (abstract rounds to 779×)"
        );
    }
}
