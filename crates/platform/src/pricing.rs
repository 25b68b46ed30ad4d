//! Cloud pricing model — the Fig. 6 cost/performance trade-off study.
//!
//! "Cloud resources are typically priced based on the time for which they
//! are provisioned… the most performant design for a given application and
//! workload might not be the most cost effective." (§IV-D)
//!
//! Fig. 6 plots the *relative cost* of FPGA vs GPU execution as the price
//! ratio between the two resources sweeps from 1/4 to 4: cost is
//! `time × price`, so `cost_fpga / cost_gpu = (t_fpga / t_gpu) × (p_fpga /
//! p_gpu)` and the crossover sits at `p_fpga / p_gpu = t_gpu / t_fpga`.

/// One application's cost curve inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct CostCase {
    pub app: String,
    /// Measured FPGA (Stratix10) execution time, seconds.
    pub t_fpga_s: f64,
    /// Measured GPU (2080 Ti) execution time, seconds.
    pub t_gpu_s: f64,
}

impl CostCase {
    /// `cost_fpga / cost_gpu` at a given `p_fpga / p_gpu` price ratio.
    pub fn relative_cost(&self, price_ratio: f64) -> f64 {
        (self.t_fpga_s / self.t_gpu_s) * price_ratio
    }

    /// The price ratio at which FPGA and GPU cost the same. Above it the
    /// GPU is more cost-effective; below it the FPGA is.
    pub fn crossover_price_ratio(&self) -> f64 {
        self.t_gpu_s / self.t_fpga_s
    }

    /// Is the FPGA the cheaper resource at this price ratio?
    pub fn fpga_more_cost_effective(&self, price_ratio: f64) -> bool {
        self.relative_cost(price_ratio) < 1.0
    }
}

/// The standard Fig. 6 sweep points (price ratios 1/4 … 4).
pub fn fig6_price_ratios() -> Vec<f64> {
    vec![0.25, 1.0 / 3.0, 0.5, 1.0, 2.0, 3.0, 4.0]
}

/// A whole Fig. 6 dataset: one curve per application.
#[derive(Debug, Clone, PartialEq)]
pub struct CostStudy {
    pub cases: Vec<CostCase>,
}

impl CostStudy {
    /// Evaluate every case at every standard ratio:
    /// rows = (app, ratio, relative cost).
    pub fn table(&self) -> Vec<(String, f64, f64)> {
        let mut rows = Vec::new();
        for case in &self.cases {
            for r in fig6_price_ratios() {
                rows.push((case.app.clone(), r, case.relative_cost(r)));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_matches_the_papers_adpredictor_story() {
        // AdPredictor runs ~3.2× faster on the Stratix10 than the 2080 Ti
        // (32× vs 10× speedups): GPU only becomes more cost-effective when
        // the FPGA price exceeds 3.2× the GPU price.
        let case = CostCase {
            app: "AdPredictor".into(),
            t_fpga_s: 1.0,
            t_gpu_s: 3.2,
        };
        assert!((case.crossover_price_ratio() - 3.2).abs() < 1e-12);
        assert!(case.fpga_more_cost_effective(3.0));
        assert!(!case.fpga_more_cost_effective(3.5));
    }

    #[test]
    fn crossover_matches_the_papers_bezier_story() {
        // Bezier runs ~2.5× faster on the 2080 Ti (67× vs 27×): the FPGA
        // becomes more cost-effective when the GPU price exceeds ~2.5× the
        // FPGA price, i.e. price ratio below 1/2.5.
        let case = CostCase {
            app: "Bezier".into(),
            t_fpga_s: 2.5,
            t_gpu_s: 1.0,
        };
        let crossover = case.crossover_price_ratio();
        assert!((crossover - 0.4).abs() < 1e-12);
        assert!(case.fpga_more_cost_effective(0.3));
        assert!(!case.fpga_more_cost_effective(1.0));
    }

    #[test]
    fn relative_cost_is_linear_in_price_ratio() {
        let case = CostCase {
            app: "x".into(),
            t_fpga_s: 2.0,
            t_gpu_s: 1.0,
        };
        let c1 = case.relative_cost(1.0);
        let c2 = case.relative_cost(2.0);
        assert!((c2 / c1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_covers_the_figures_axis() {
        let ratios = fig6_price_ratios();
        assert_eq!(ratios.first(), Some(&0.25));
        assert_eq!(ratios.last(), Some(&4.0));
        assert!(ratios.windows(2).all(|w| w[0] < w[1]));
        let study = CostStudy {
            cases: vec![CostCase {
                app: "a".into(),
                t_fpga_s: 1.0,
                t_gpu_s: 1.0,
            }],
        };
        assert_eq!(study.table().len(), ratios.len());
    }
}
