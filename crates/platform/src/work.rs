//! The workload-characterisation record shared by all platform models.

use crate::resources::OpCounts;

/// Everything a platform model needs to know about one kernel + workload.
///
/// Built by the design-flow from the target-independent analysis reports
/// (dynamic FLOP/byte/trip measurements) plus the static op-count and
/// register-pressure extraction in [`crate::resources`], then scaled from
/// the analysis workload to the evaluation workload by the benchmark's
/// scaling rules.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelWork {
    /// FLOP-equivalents executed in the kernel that map to FMA-class
    /// pipelines (add/sub/mul/div).
    pub flops_fma: f64,
    /// FLOP-equivalents that map to special-function pipelines
    /// (sqrt, exp, log, trig, erf).
    pub flops_sfu: f64,
    /// Virtual cycles of the single-thread reference execution — the basis
    /// of `T_CPU`.
    pub cycles_1t: f64,
    /// Bytes moved between the compute units and device memory inside the
    /// kernel (roofline denominator).
    pub bytes_mem: f64,
    /// The fraction of `bytes_mem` accessed through data-dependent
    /// (gather/scatter) subscripts. GPUs lose coalescing on these; FPGA
    /// on-chip tables and CPU caches do not care.
    pub gather_fraction: f64,
    /// Bytes that must cross the host↔device interconnect before launch.
    pub bytes_in: f64,
    /// Bytes that must cross back after completion.
    pub bytes_out: f64,
    /// Independent work-items exposed by the (parallel) outer loop.
    pub threads: f64,
    /// Total innermost pipeline iterations (FPGA initiation count).
    pub pipeline_iters: f64,
    /// True when the kernel must run in double precision (SP transforms
    /// not applicable / not numerically safe).
    pub fp64: bool,
    /// Estimated registers per GPU thread (capped at 255 like real
    /// compilers).
    pub regs_per_thread: u32,
    /// True when every dependence-carrying inner loop has been fully
    /// unrolled (or none exist): the FPGA pipeline processes one *outer*
    /// iteration per initiation and outer-loop unrolling replicates the
    /// whole datapath.
    pub flat_pipeline: bool,
    /// Straight-line operation counts of one pipeline iteration (FPGA
    /// resource estimation input).
    pub ops: OpCounts,
}

impl KernelWork {
    /// Total FLOP-equivalents.
    pub fn flops(&self) -> f64 {
        self.flops_fma + self.flops_sfu
    }

    /// Fraction of work in special-function pipelines.
    pub fn sfu_fraction(&self) -> f64 {
        let total = self.flops();
        if total == 0.0 {
            0.0
        } else {
            self.flops_sfu / total
        }
    }

    /// Deterministic content hash of the whole record (floats by
    /// `to_bits`) — the workload part of a cached estimate's address.
    pub fn content_hash(&self) -> u64 {
        psa_evalcache::fnv64_of(&(
            (
                self.flops_fma.to_bits(),
                self.flops_sfu.to_bits(),
                self.cycles_1t.to_bits(),
                self.bytes_mem.to_bits(),
                self.gather_fraction.to_bits(),
                self.bytes_in.to_bits(),
                self.bytes_out.to_bits(),
            ),
            (
                self.threads.to_bits(),
                self.pipeline_iters.to_bits(),
                self.fp64,
                self.regs_per_thread,
                self.flat_pipeline,
            ),
            self.ops.content_hash(),
        ))
    }

    /// Scale the workload-dependent measures from the analysis workload to
    /// the evaluation workload: `compute` multiplies FLOPs/cycles/bytes_mem/
    /// pipeline iterations, `data` multiplies transfer bytes, `threads`
    /// multiplies the exposed parallelism.
    pub fn scaled(&self, compute: f64, data: f64, threads: f64) -> KernelWork {
        KernelWork {
            flops_fma: self.flops_fma * compute,
            flops_sfu: self.flops_sfu * compute,
            cycles_1t: self.cycles_1t * compute,
            bytes_mem: self.bytes_mem * compute,
            bytes_in: self.bytes_in * data,
            bytes_out: self.bytes_out * data,
            threads: self.threads * threads,
            pipeline_iters: self.pipeline_iters * compute,
            ..self.clone()
        }
    }
}

impl Default for KernelWork {
    fn default() -> Self {
        KernelWork {
            flops_fma: 0.0,
            flops_sfu: 0.0,
            cycles_1t: 0.0,
            bytes_mem: 0.0,
            gather_fraction: 0.0,
            bytes_in: 0.0,
            bytes_out: 0.0,
            threads: 1.0,
            pipeline_iters: 1.0,
            fp64: true,
            regs_per_thread: 32,
            flat_pipeline: false,
            ops: OpCounts::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_multiplies_the_right_fields() {
        let w = KernelWork {
            flops_fma: 10.0,
            flops_sfu: 5.0,
            cycles_1t: 100.0,
            bytes_mem: 50.0,
            bytes_in: 8.0,
            bytes_out: 4.0,
            threads: 16.0,
            pipeline_iters: 64.0,
            ..Default::default()
        };
        let s = w.scaled(4.0, 2.0, 2.0);
        assert_eq!(s.flops(), 60.0);
        assert_eq!(s.cycles_1t, 400.0);
        assert_eq!(s.bytes_mem, 200.0);
        assert_eq!(s.bytes_in, 16.0);
        assert_eq!(s.bytes_out, 8.0);
        assert_eq!(s.threads, 32.0);
        assert_eq!(s.pipeline_iters, 256.0);
        assert_eq!(s.regs_per_thread, w.regs_per_thread);
    }

    #[test]
    fn sfu_fraction_bounds() {
        let mut w = KernelWork::default();
        assert_eq!(w.sfu_fraction(), 0.0);
        w.flops_fma = 3.0;
        w.flops_sfu = 1.0;
        assert!((w.sfu_fraction() - 0.25).abs() < 1e-12);
    }
}
