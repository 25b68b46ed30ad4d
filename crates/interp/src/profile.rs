//! Virtual-clock cost model and execution profile.
//!
//! The interpreter charges every operation a configurable number of *virtual
//! cycles*. A cycle here is "one scalar ALU operation on the reference CPU";
//! the CPU platform model turns cycles into seconds via its clock frequency.
//! Costs approximate issue-latency ratios of a modern OoO core — enough for
//! the *relative* hotspot and intensity judgements the PSA strategy makes,
//! which is all the paper's dynamic analyses extract.

use psa_minicpp::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-operation virtual cycle costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Integer add/sub/compare/logic.
    pub int_op: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide / remainder.
    pub int_div: u64,
    /// Floating add/sub/mul (fused pipelines make these comparable).
    pub fp_op: u64,
    /// Floating divide.
    pub fp_div: u64,
    /// Square root.
    pub sqrt: u64,
    /// Transcendentals (exp, log, pow, trig, erf, tanh).
    pub transcendental: u64,
    /// One memory load (beyond address arithmetic).
    pub load: u64,
    /// One memory store.
    pub store: u64,
    /// Taken branch / loop back-edge.
    pub branch: u64,
    /// Function call + return overhead.
    pub call: u64,
    /// FLOP-equivalents charged for one transcendental when counting FLOPs
    /// (the paper's arithmetic-intensity metric counts the *work*, not the
    /// instruction).
    pub transcendental_flops: u64,
    /// FLOP-equivalents for one sqrt.
    pub sqrt_flops: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            int_op: 1,
            int_mul: 2,
            int_div: 20,
            fp_op: 1,
            fp_div: 8,
            sqrt: 12,
            transcendental: 20,
            load: 1,
            store: 2,
            branch: 1,
            call: 6,
            transcendental_flops: 8,
            sqrt_flops: 4,
        }
    }
}

/// Statistics for one loop (keyed by the `ForLoop`/`While` statement's
/// [`NodeId`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopStats {
    /// How many times execution entered the loop from above.
    pub entries: u64,
    /// Total iterations across all entries.
    pub iterations: u64,
    /// Inclusive virtual cycles spent inside the loop (body + control).
    pub cycles: u64,
}

impl LoopStats {
    /// Average trip count per entry.
    pub fn mean_trip_count(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.iterations as f64 / self.entries as f64
        }
    }
}

/// Everything the interpreter measures during one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Total virtual cycles.
    pub total_cycles: u64,
    /// Floating-point operations (work-equivalents; see [`CostModel`]).
    pub flops: u64,
    /// Integer ALU operations.
    pub int_ops: u64,
    /// Memory loads (count).
    pub loads: u64,
    /// Memory stores (count).
    pub stores: u64,
    /// Bytes loaded.
    pub bytes_loaded: u64,
    /// Bytes stored.
    pub bytes_stored: u64,
    /// Per-loop inclusive statistics.
    pub loop_stats: HashMap<NodeId, LoopStats>,
    /// Loop-watch records, one per watched loop in
    /// [`crate::LoopWatch::loops`] order (empty without a loop watch).
    pub loop_windows: Vec<crate::LoopWindow>,
    /// Cycles spent inside the watched kernel function (inclusive).
    pub kernel_cycles: u64,
    /// FLOPs inside the watched kernel.
    pub kernel_flops: u64,
    /// Bytes loaded inside the watched kernel.
    pub kernel_bytes_loaded: u64,
    /// Bytes stored inside the watched kernel.
    pub kernel_bytes_stored: u64,
    /// Calls to the watched kernel.
    pub kernel_calls: u64,
    /// Pointer arguments of each top-level watched-kernel call:
    /// `(parameter name, pointer value)` — the raw material for the dynamic
    /// pointer-alias analysis.
    pub kernel_arg_ptrs: Vec<Vec<(String, crate::Pointer)>>,
}

impl Profile {
    /// Arithmetic intensity of the watched kernel in FLOPs/byte — the
    /// quantity the PSA strategy compares against its threshold `X`.
    pub fn kernel_arithmetic_intensity(&self) -> f64 {
        let bytes = self.kernel_bytes_loaded + self.kernel_bytes_stored;
        if bytes == 0 {
            return f64::INFINITY;
        }
        self.kernel_flops as f64 / bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_intensity_handles_zero_bytes() {
        let mut p = Profile {
            kernel_flops: 10,
            ..Default::default()
        };
        assert!(p.kernel_arithmetic_intensity().is_infinite());
        p.kernel_bytes_loaded = 40;
        assert!((p.kernel_arithmetic_intensity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mean_trip_count() {
        let s = LoopStats {
            entries: 4,
            iterations: 40,
            cycles: 0,
        };
        assert!((s.mean_trip_count() - 10.0).abs() < 1e-12);
        assert_eq!(LoopStats::default().mean_trip_count(), 0.0);
    }
}
