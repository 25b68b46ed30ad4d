//! # psa-benchsuite — the paper's five benchmark applications
//!
//! "we apply the implemented PSA-flow to five HPC and AI applications,
//! namely: N-Body Simulation, K-Means Classification, AdPredictor, Rush
//! Larsen ODE Solver, and Bezier Surface Generation." (§IV-A)
//!
//! Each benchmark is a self-contained, runnable MiniC++ *unoptimised
//! high-level description*: plain sequential loops, no pragmas, no target
//! annotations — exactly the shape the PSA-flow consumes. Two workload
//! configurations exist per benchmark:
//!
//! * the **analysis workload** baked into the source's `main`, sized so the
//!   dynamic analyses (which interpret the program) finish quickly;
//! * the **evaluation workload** of the paper-scale experiment, reached by
//!   scaling the measured work profile with [`ScaleFactors`] (each
//!   benchmark documents its complexity law).
//!
//! [`paper`] records the numbers printed in the paper's Fig. 5 / Table I so
//! the experiment harness can put *paper vs. measured* side by side.

pub mod adpredictor;
pub mod bezier;
pub mod kmeans;
pub mod nbody;
pub mod paper;
pub mod rushlarsen;

/// Multipliers from the analysis workload to the evaluation workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleFactors {
    /// Multiplies kernel compute (FLOPs, cycles, kernel memory traffic,
    /// pipeline iterations).
    pub compute: f64,
    /// Multiplies host↔device transfer bytes.
    pub data: f64,
    /// Multiplies the exposed outer-loop parallelism.
    pub threads: f64,
}

/// One benchmark application.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Paper name, e.g. "N-Body Simulation".
    pub name: String,
    /// Short key used in reports and file names, e.g. `nbody`.
    pub key: String,
    /// The unoptimised high-level description (runnable MiniC++).
    pub source: String,
    /// Whether single-precision transforms are numerically acceptable
    /// (Rush Larsen's stiff gating ODEs are not).
    pub sp_safe: bool,
    /// Analysis→evaluation workload scaling.
    pub scale: ScaleFactors,
}

/// All five benchmarks in the paper's Table I order.
pub fn all() -> Vec<Benchmark> {
    vec![
        rushlarsen::benchmark(),
        nbody::benchmark(),
        bezier::benchmark(),
        adpredictor::benchmark(),
        kmeans::benchmark(),
    ]
}

/// Look up one benchmark by key.
pub fn by_key(key: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.key == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_papers_five() {
        let names: Vec<String> = all().into_iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec!["Rush Larsen", "N-Body", "Bezier", "AdPredictor", "K-Means",]
        );
    }

    #[test]
    fn keys_are_unique_and_resolvable() {
        let mut keys: Vec<String> = all().into_iter().map(|b| b.key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 5);
        for k in keys {
            assert!(by_key(&k).is_some());
        }
        assert!(by_key("nope").is_none());
    }

    #[test]
    fn every_source_parses_and_runs() {
        for b in all() {
            let m = psa_minicpp::parse_module(&b.source, &b.key).expect(&b.key);
            let mut interp = psa_interp::Interpreter::new(&m, psa_interp::RunConfig::default());
            interp
                .run_main()
                .unwrap_or_else(|e| panic!("{} failed: {e}", b.key));
            assert!(
                interp.profile().total_cycles > 10_000,
                "{} too trivial",
                b.key
            );
        }
    }

    #[test]
    fn scale_factors_are_sane() {
        for b in all() {
            assert!(b.scale.compute >= 1.0, "{}", b.key);
            assert!(b.scale.data >= 1.0, "{}", b.key);
            assert!(b.scale.threads >= 1.0, "{}", b.key);
            // Superlinear-compute apps must scale compute at least as fast
            // as data.
            assert!(b.scale.compute >= b.scale.threads * 0.99, "{}", b.key);
        }
    }
}
