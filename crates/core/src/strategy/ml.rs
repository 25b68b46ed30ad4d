//! A learned PSA strategy — the paper's stated future work ("developing
//! sophisticated ML-based PSA strategies", §VI), implemented as a small
//! CART-style decision tree over the same analysis evidence the
//! hand-written Fig. 3 strategy consumes.
//!
//! Training data comes from wherever ground truth is available — typically
//! uninformed-mode runs, where every design is generated and the fastest
//! target is known. The learned tree can then replace [`super::TargetSelect`]
//! at branch point A via [`MlTargetSelect`].

use crate::context::FlowContext;
use crate::flow::{BranchPoint, FlowError, Selection};
use crate::report::TargetKind;
use crate::strategy::{PsaStrategy, PATH_CPU, PATH_FPGA, PATH_GPU};
use crate::work::kernel_work;
use psa_platform::{epyc_7543, rtx_2080_ti, CpuModel};

/// The feature vector a kernel presents to the learned strategy.
///
/// Deliberately the *same evidence* the Fig. 3 strategy reads, so learned
/// and hand-written strategies are directly comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelFeatures {
    /// Static arithmetic intensity, FLOPs/byte.
    pub ai: f64,
    /// Estimated transfer time over single-thread CPU time (log10).
    pub log_transfer_ratio: f64,
    /// 1.0 when the outer loop is parallel.
    pub outer_parallel: f64,
    /// 1.0 when dependence-carrying inner loops exist.
    pub has_inner_deps: f64,
    /// 1.0 when all of those are fully unrollable.
    pub inner_unrollable: f64,
    /// Fraction of memory traffic through data-dependent gathers.
    pub gather_fraction: f64,
    /// Estimated GPU registers per thread / 255.
    pub reg_pressure: f64,
    /// log10 of the exposed outer parallelism.
    pub log_threads: f64,
}

pub const FEATURE_COUNT: usize = 8;

impl KernelFeatures {
    /// Flatten for the tree learner.
    pub fn as_array(&self) -> [f64; FEATURE_COUNT] {
        [
            self.ai,
            self.log_transfer_ratio,
            self.outer_parallel,
            self.has_inner_deps,
            self.inner_unrollable,
            self.gather_fraction,
            self.reg_pressure,
            self.log_threads,
        ]
    }

    /// Feature names (reports / tree printing).
    pub fn names() -> [&'static str; FEATURE_COUNT] {
        [
            "ai",
            "log_transfer_ratio",
            "outer_parallel",
            "has_inner_deps",
            "inner_unrollable",
            "gather_fraction",
            "reg_pressure",
            "log_threads",
        ]
    }

    /// Extract features from a flow context that has completed its
    /// target-independent analyses.
    pub fn from_context(ctx: &FlowContext) -> Result<KernelFeatures, FlowError> {
        let analysis = ctx.analysis()?;
        let w = kernel_work(ctx)?;
        let cpu = CpuModel::new(epyc_7543());
        let t_cpu = cpu.time_single_thread(&w).max(1e-12);
        let gpu = rtx_2080_ti();
        let t_transfer = (w.bytes_in + w.bytes_out) / (gpu.pcie_gbs * 1e9 * gpu.pinned_factor);
        let inner = analysis.deps.inner_loops_with_deps();
        Ok(KernelFeatures {
            ai: analysis.intensity.flops_per_byte,
            log_transfer_ratio: (t_transfer.max(1e-12) / t_cpu).log10(),
            outer_parallel: f64::from(u8::from(analysis.deps.outer_parallel())),
            has_inner_deps: f64::from(u8::from(!inner.is_empty())),
            inner_unrollable: f64::from(u8::from(
                analysis
                    .deps
                    .inner_deps_fully_unrollable(ctx.params.full_unroll_limit),
            )),
            gather_fraction: w.gather_fraction,
            reg_pressure: f64::from(w.regs_per_thread) / 255.0,
            log_threads: w.threads.max(1.0).log10(),
        })
    }
}

/// A labelled training example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Example {
    pub features: KernelFeatures,
    pub label: TargetKind,
}

/// A binary decision tree over [`KernelFeatures`].
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionTree {
    Leaf(TargetKind),
    Split {
        /// Index into [`KernelFeatures::as_array`].
        feature: usize,
        threshold: f64,
        /// Taken when `features[feature] <= threshold`.
        low: Box<DecisionTree>,
        high: Box<DecisionTree>,
    },
}

impl DecisionTree {
    /// Classify one feature vector.
    pub fn classify(&self, f: &KernelFeatures) -> TargetKind {
        match self {
            DecisionTree::Leaf(t) => *t,
            DecisionTree::Split {
                feature,
                threshold,
                low,
                high,
            } => {
                if f.as_array()[*feature] <= *threshold {
                    low.classify(f)
                } else {
                    high.classify(f)
                }
            }
        }
    }

    /// Number of decision nodes (model-size reporting).
    pub fn splits(&self) -> usize {
        match self {
            DecisionTree::Leaf(_) => 0,
            DecisionTree::Split { low, high, .. } => 1 + low.splits() + high.splits(),
        }
    }

    /// Render the tree as indented text (reports).
    pub fn render(&self) -> String {
        fn go(t: &DecisionTree, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            match t {
                DecisionTree::Leaf(target) => {
                    out.push_str(&format!("{pad}→ {}\n", target.label()));
                }
                DecisionTree::Split {
                    feature,
                    threshold,
                    low,
                    high,
                } => {
                    let name = KernelFeatures::names()[*feature];
                    out.push_str(&format!("{pad}if {name} <= {threshold:.3}:\n"));
                    go(low, depth + 1, out);
                    out.push_str(&format!("{pad}else:\n"));
                    go(high, depth + 1, out);
                }
            }
        }
        let mut out = String::new();
        go(self, 0, &mut out);
        out
    }
}

fn gini(examples: &[Example]) -> f64 {
    if examples.is_empty() {
        return 0.0;
    }
    let n = examples.len() as f64;
    let mut impurity = 1.0;
    for target in [
        TargetKind::MultiThreadCpu,
        TargetKind::CpuGpu,
        TargetKind::CpuFpga,
    ] {
        let p = examples.iter().filter(|e| e.label == target).count() as f64 / n;
        impurity -= p * p;
    }
    impurity
}

fn majority(examples: &[Example]) -> TargetKind {
    let mut best = (TargetKind::MultiThreadCpu, 0usize);
    for target in [
        TargetKind::MultiThreadCpu,
        TargetKind::CpuGpu,
        TargetKind::CpuFpga,
    ] {
        let count = examples.iter().filter(|e| e.label == target).count();
        if count > best.1 {
            best = (target, count);
        }
    }
    best.0
}

/// Learn a CART tree by exhaustive threshold search (the candidate
/// thresholds are midpoints between adjacent observed values), greedy Gini
/// reduction, depth-limited.
pub fn train(examples: &[Example], max_depth: usize) -> DecisionTree {
    if examples.is_empty() {
        return DecisionTree::Leaf(TargetKind::MultiThreadCpu);
    }
    if max_depth == 0 || gini(examples) == 0.0 {
        return DecisionTree::Leaf(majority(examples));
    }

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, weighted gini)
    for feature in 0..FEATURE_COUNT {
        let mut values: Vec<f64> = examples
            .iter()
            .map(|e| e.features.as_array()[feature])
            .collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        values.dedup();
        for pair in values.windows(2) {
            let threshold = (pair[0] + pair[1]) / 2.0;
            let (low, high): (Vec<Example>, Vec<Example>) = examples
                .iter()
                .partition(|e| e.features.as_array()[feature] <= threshold);
            let n = examples.len() as f64;
            let weighted = gini(&low) * low.len() as f64 / n + gini(&high) * high.len() as f64 / n;
            if best.is_none_or(|(_, _, g)| weighted < g - 1e-12) {
                best = Some((feature, threshold, weighted));
            }
        }
    }

    match best {
        None => DecisionTree::Leaf(majority(examples)),
        Some((feature, threshold, _)) => {
            let (low, high): (Vec<Example>, Vec<Example>) = examples
                .iter()
                .partition(|e| e.features.as_array()[feature] <= threshold);
            if low.is_empty() || high.is_empty() {
                return DecisionTree::Leaf(majority(examples));
            }
            DecisionTree::Split {
                feature,
                threshold,
                low: Box::new(train(&low, max_depth - 1)),
                high: Box::new(train(&high, max_depth - 1)),
            }
        }
    }
}

/// Classification accuracy on a labelled set.
pub fn accuracy(tree: &DecisionTree, examples: &[Example]) -> f64 {
    if examples.is_empty() {
        return 1.0;
    }
    let hits = examples
        .iter()
        .filter(|e| tree.classify(&e.features) == e.label)
        .count();
    hits as f64 / examples.len() as f64
}

/// The learned strategy, pluggable at branch point A.
pub struct MlTargetSelect {
    pub tree: DecisionTree,
}

impl PsaStrategy for MlTargetSelect {
    fn name(&self) -> &str {
        "ml-target-select"
    }

    fn select(&self, bp: &BranchPoint, ctx: &mut FlowContext) -> Result<Selection, FlowError> {
        // The alias gate stays a hard rule: no model may overrule
        // soundness.
        if ctx.analysis()?.alias.may_alias {
            ctx.log("[PSA A/ml] aliasing pointer arguments — terminating".to_string());
            ctx.selected_target = None;
            return Ok(Selection::None);
        }
        let features = KernelFeatures::from_context(ctx)?;
        let target = self.tree.classify(&features);
        ctx.log(format!(
            "[PSA A/ml] decision tree ({} splits) chose {} for features {:?}",
            self.tree.splits(),
            target.label(),
            features
        ));
        ctx.selected_target = Some(target);
        let label = match target {
            TargetKind::MultiThreadCpu => PATH_CPU,
            TargetKind::CpuGpu => PATH_GPU,
            TargetKind::CpuFpga => PATH_FPGA,
        };
        let idx = bp
            .paths
            .iter()
            .position(|(l, _)| l == label)
            .ok_or_else(|| FlowError::precondition(format!("branch has no path `{label}`")))?;
        Ok(Selection::One(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(ai: f64, parallel: f64, unrollable: f64) -> KernelFeatures {
        KernelFeatures {
            ai,
            log_transfer_ratio: -2.0,
            outer_parallel: parallel,
            has_inner_deps: unrollable, // deps exist whenever unrollable flag is set here
            inner_unrollable: unrollable,
            gather_fraction: 0.0,
            reg_pressure: 0.2,
            log_threads: 5.0,
        }
    }

    fn toy_training_set() -> Vec<Example> {
        // The Fig. 3 geometry: memory-bound → CPU; compute-bound parallel
        // without unrollable inner deps → GPU; with → FPGA.
        let mut out = Vec::new();
        for ai in [0.05, 0.1, 0.2, 0.3, 0.4] {
            out.push(Example {
                features: feat(ai, 1.0, 0.0),
                label: TargetKind::MultiThreadCpu,
            });
        }
        for ai in [0.8, 1.5, 3.0, 10.0] {
            out.push(Example {
                features: feat(ai, 1.0, 0.0),
                label: TargetKind::CpuGpu,
            });
            out.push(Example {
                features: feat(ai, 1.0, 1.0),
                label: TargetKind::CpuFpga,
            });
        }
        out
    }

    #[test]
    fn tree_learns_the_fig3_geometry() {
        let data = toy_training_set();
        let tree = train(&data, 4);
        assert_eq!(accuracy(&tree, &data), 1.0, "{}", tree.render());
        // Held-out probes.
        assert_eq!(
            tree.classify(&feat(0.15, 1.0, 0.0)),
            TargetKind::MultiThreadCpu
        );
        assert_eq!(tree.classify(&feat(5.0, 1.0, 0.0)), TargetKind::CpuGpu);
        assert_eq!(tree.classify(&feat(5.0, 1.0, 1.0)), TargetKind::CpuFpga);
    }

    #[test]
    fn depth_zero_yields_majority_leaf() {
        let data = toy_training_set();
        let tree = train(&data, 0);
        assert_eq!(tree.splits(), 0);
        let majority_label = tree.classify(&feat(1.0, 1.0, 0.0));
        // 5 CPU vs 4 GPU vs 4 FPGA examples.
        assert_eq!(majority_label, TargetKind::MultiThreadCpu);
    }

    #[test]
    fn pure_sets_stop_splitting() {
        let data: Vec<Example> = (0..5)
            .map(|i| Example {
                features: feat(i as f64, 1.0, 0.0),
                label: TargetKind::CpuGpu,
            })
            .collect();
        let tree = train(&data, 4);
        assert_eq!(tree.splits(), 0);
    }

    #[test]
    fn render_names_features() {
        let tree = train(&toy_training_set(), 4);
        let text = tree.render();
        assert!(
            text.contains("ai") || text.contains("inner_unrollable"),
            "{text}"
        );
        assert!(text.contains("CPU+GPU"), "{text}");
    }

    #[test]
    fn trees_are_cloneable_and_comparable() {
        let tree = train(&toy_training_set(), 4);
        let clone = tree.clone();
        assert_eq!(tree, clone);
    }
}
