//! The SIMT GPU performance model (HIP targets).
//!
//! Structure follows how real CUDA/HIP kernels behave:
//!
//! * **occupancy** — resident threads per SM are limited by the register
//!   file (`regs_per_thread × blocksize` per block) and the architecture's
//!   resident-thread ceiling; below an occupancy knee the SM can no longer
//!   hide latency (the Rush Larsen effect: 255 regs/thread saturates the
//!   Pascal card but not the Turing one);
//! * **throughput** — FMA-class work runs against `peak_fp32 × arch_eff`,
//!   transcendental work against the SFU rate; FP64 work pays the consumer
//!   1/32 ratio (FMA) or a software-expansion divisor (SFU);
//! * **utilisation** — kernels exposing fewer threads than the card can
//!   keep resident scale down proportionally (the Bezier effect: neither
//!   GPU saturated ⇒ similar speedups);
//! * **roofline** — memory-bound kernels sit at `bytes / mem_bw`;
//! * **transfer** — PCIe cost each way, reduced by pinned host memory
//!   (the "Employ HIP Pinned Memory" task).

use crate::devices::GpuSpec;
use crate::work::KernelWork;
use crate::Seconds;
use psa_evalcache::{EvalCache, KeyBuilder};

/// FLOP-equivalents per native SFU operation (the work measures count a
/// sqrt as 4 and a transcendental as 8 FLOP-equivalents; the SFU retires
/// roughly one sqrt or half a transcendental per op).
const SFU_FLOPS_PER_OP: f64 = 4.0;

/// SFU-op expansion factor for double-precision transcendentals (software
/// polynomial expansion on consumer parts).
const FP64_SFU_MULT: f64 = 16.0;

/// Achieved fraction of peak DRAM bandwidth for strided-but-coalesced
/// kernels.
const MEM_EFF: f64 = 0.65;

/// Achieved fraction of peak DRAM bandwidth for data-dependent gathers:
/// each 32-thread warp touches scattered cache lines, so most of every
/// fetched line is wasted.
const GATHER_EFF: f64 = 0.015;

/// Detailed timing breakdown for one launch configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuEstimate {
    pub kernel_s: f64,
    pub transfer_s: f64,
    pub total_s: f64,
    /// Achieved occupancy in [0, 1].
    pub occupancy: f64,
    /// True when the register file (not the thread ceiling) limited
    /// occupancy.
    pub regs_limited: bool,
}

/// Analytic GPU model for one device.
#[derive(Debug, Clone)]
pub struct GpuModel {
    pub spec: GpuSpec,
}

impl GpuModel {
    pub fn new(spec: GpuSpec) -> Self {
        GpuModel { spec }
    }

    /// Occupancy achieved at `blocksize` with `regs` registers per thread.
    /// Returns `(occupancy, regs_limited)`; occupancy 0 means the block
    /// cannot launch at all (one block's registers exceed the file).
    pub fn occupancy(&self, blocksize: u32, regs: u32) -> (f64, bool) {
        let b = blocksize.clamp(32, 1024);
        let regs = regs.clamp(16, 255);
        let per_block = u64::from(regs) * u64::from(b);
        let blocks_by_regs = u64::from(self.spec.regs_per_sm) / per_block;
        if blocks_by_regs == 0 {
            return (0.0, true);
        }
        let resident_by_regs = blocks_by_regs * u64::from(b);
        let ceiling = u64::from(self.spec.max_threads_per_sm);
        let resident = resident_by_regs.min(ceiling);
        (resident as f64 / ceiling as f64, resident_by_regs < ceiling)
    }

    /// Kernel execution time at the given blocksize.
    pub fn kernel_time(&self, w: &KernelWork, blocksize: u32) -> Option<Seconds> {
        let (occ, _) = self.occupancy(blocksize, w.regs_per_thread);
        if occ == 0.0 {
            return None;
        }
        let s = &self.spec;

        // Throughput rates.
        let fma_rate = if w.fp64 {
            s.peak_fp32() * s.fp64_ratio * 0.8
        } else {
            s.peak_fp32() * s.arch_eff
        };
        // Convert FLOP-equivalents to native SFU operations.
        let sfu_ops = w.flops_sfu / SFU_FLOPS_PER_OP * if w.fp64 { FP64_SFU_MULT } else { 1.0 };
        let sfu_rate = s.peak_sfu();

        // Latency hiding degrades below the knee (square-root falloff:
        // partially-hidden latency, not a cliff).
        let latency_factor = (occ / s.occupancy_knee).min(1.0).sqrt();

        // Under-utilisation when the grid exposes fewer threads than the
        // card can keep resident at this occupancy.
        let resident_capacity = f64::from(s.sms) * f64::from(s.max_threads_per_sm) * occ;
        let utilisation = (w.threads / resident_capacity).min(1.0);

        let compute =
            (w.flops_fma / fma_rate + sfu_ops / sfu_rate) / (latency_factor * utilisation);
        let gather_bytes = w.bytes_mem * w.gather_fraction.clamp(0.0, 1.0);
        let linear_bytes = w.bytes_mem - gather_bytes;
        let memory = linear_bytes / (s.mem_bw_gbs * 1e9 * MEM_EFF)
            + gather_bytes / (s.mem_bw_gbs * 1e9 * GATHER_EFF);
        Some(compute.max(memory) + s.launch_overhead_s)
    }

    /// Host↔device transfer time; `pinned` models the "Employ HIP Pinned
    /// Memory" optimisation.
    pub fn transfer_time(&self, w: &KernelWork, pinned: bool) -> Seconds {
        let bw = self.spec.pcie_gbs * 1e9 * if pinned { self.spec.pinned_factor } else { 1.0 };
        (w.bytes_in + w.bytes_out) / bw + 20e-6
    }

    /// Full estimate (kernel + transfers) for one launch configuration.
    /// `None` when the blocksize cannot launch.
    pub fn estimate(&self, w: &KernelWork, blocksize: u32, pinned: bool) -> Option<GpuEstimate> {
        psa_obs::counter_add(
            "psa_platform_estimates_total",
            &[("model", "gpu-estimate"), ("device", &self.spec.name)],
            1,
        );
        let kernel_s = self.kernel_time(w, blocksize)?;
        let transfer_s = self.transfer_time(w, pinned);
        let (occupancy, regs_limited) = self.occupancy(blocksize, w.regs_per_thread);
        Some(GpuEstimate {
            kernel_s,
            transfer_s,
            total_s: kernel_s + transfer_s,
            occupancy,
            regs_limited,
        })
    }

    /// Cached [`GpuModel::estimate`], addressed by device spec, workload
    /// content and launch configuration. Un-launchable configurations are
    /// cached too (the stored value is the `Option`), so blocksize sweeps
    /// never re-probe a known-bad point.
    pub fn estimate_cached(
        &self,
        w: &KernelWork,
        blocksize: u32,
        pinned: bool,
        cache: &EvalCache,
    ) -> Option<GpuEstimate> {
        // Flight-recorder witness first, so an estimate that then faults
        // (the `apply` below can panic) still leaves its event in the ring.
        if psa_obs::recorder::enabled() {
            psa_obs::recorder::record_estimate(&format!("gpu-estimate/{}", self.spec.name));
        }
        // Fault-injection seam for the (simulated) vendor GPU model probe.
        psa_faults::apply(psa_faults::Seam::Estimate, || {
            format!("gpu-estimate/{}", self.spec.name)
        });
        let key = KeyBuilder::new("platform/gpu-estimate")
            .u64(self.spec.content_hash())
            .u64(w.content_hash())
            .u32(blocksize)
            .bool(pinned)
            .finish();
        *cache.get_or_compute(key, || self.estimate(w, blocksize, pinned))
    }

    /// Total time; infinity when the configuration cannot launch (lets DSE
    /// sweeps compare uniformly).
    pub fn total_time(&self, w: &KernelWork, blocksize: u32, pinned: bool) -> Seconds {
        self.estimate(w, blocksize, pinned)
            .map_or(f64::INFINITY, |e| e.total_s)
    }

    /// Cached [`GpuModel::total_time`].
    pub fn total_time_cached(
        &self,
        w: &KernelWork,
        blocksize: u32,
        pinned: bool,
        cache: &EvalCache,
    ) -> Seconds {
        self.estimate_cached(w, blocksize, pinned, cache)
            .map_or(f64::INFINITY, |e| e.total_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{gtx_1080_ti, rtx_2080_ti};

    fn parallel_fp32_work() -> KernelWork {
        KernelWork {
            flops_fma: 20e9,
            flops_sfu: 8e9,
            cycles_1t: 100e9,
            bytes_mem: 2e9,
            bytes_in: 8e6,
            bytes_out: 8e6,
            threads: 200_000.0,
            fp64: false,
            regs_per_thread: 48,
            ..Default::default()
        }
    }

    #[test]
    fn occupancy_limits() {
        let g = GpuModel::new(rtx_2080_ti());
        // Light kernel: full occupancy at 256 threads/block.
        let (occ, limited) = g.occupancy(256, 32);
        assert_eq!(occ, 1.0);
        assert!(!limited);
        // 255-register kernel: register file caps residency at 256 threads.
        let (occ, limited) = g.occupancy(256, 255);
        assert!(limited);
        assert!((occ - 0.25).abs() < 1e-9, "{occ}");
        // Pascal's 2048-thread ceiling makes the same kernel look worse.
        let p = GpuModel::new(gtx_1080_ti());
        let (occ_p, _) = p.occupancy(256, 255);
        assert!((occ_p - 0.125).abs() < 1e-9, "{occ_p}");
    }

    #[test]
    fn oversized_blocks_cannot_launch() {
        let g = GpuModel::new(rtx_2080_ti());
        let (occ, limited) = g.occupancy(512, 255);
        assert_eq!(occ, 0.0);
        assert!(limited);
        let w = KernelWork {
            regs_per_thread: 255,
            ..parallel_fp32_work()
        };
        assert!(g.kernel_time(&w, 512).is_none());
        assert_eq!(g.total_time(&w, 512, true), f64::INFINITY);
    }

    #[test]
    fn register_pressure_hurts_pascal_more() {
        let w = KernelWork {
            regs_per_thread: 255,
            ..parallel_fp32_work()
        };
        let light = parallel_fp32_work();
        let turing = GpuModel::new(rtx_2080_ti());
        let pascal = GpuModel::new(gtx_1080_ti());
        let slowdown_turing =
            turing.kernel_time(&w, 128).unwrap() / turing.kernel_time(&light, 128).unwrap();
        let slowdown_pascal =
            pascal.kernel_time(&w, 128).unwrap() / pascal.kernel_time(&light, 128).unwrap();
        assert!(
            slowdown_pascal > slowdown_turing,
            "pascal {slowdown_pascal} vs turing {slowdown_turing}"
        );
    }

    #[test]
    fn fp64_pays_a_heavy_penalty() {
        let g = GpuModel::new(rtx_2080_ti());
        let sp = parallel_fp32_work();
        let dp = KernelWork {
            fp64: true,
            ..parallel_fp32_work()
        };
        let ratio = g.kernel_time(&dp, 256).unwrap() / g.kernel_time(&sp, 256).unwrap();
        assert!(ratio > 4.0, "{ratio}");
    }

    #[test]
    fn undersaturated_grids_lose_throughput() {
        let g = GpuModel::new(rtx_2080_ti());
        let full = parallel_fp32_work();
        // Same total work from only 2k threads.
        let narrow = KernelWork {
            threads: 2_000.0,
            ..parallel_fp32_work()
        };
        assert!(g.kernel_time(&narrow, 256).unwrap() > 5.0 * g.kernel_time(&full, 256).unwrap());
    }

    #[test]
    fn undersaturated_grids_equalise_the_two_gpus() {
        // The Bezier effect: when neither GPU is saturated, their times
        // converge (clocks are near-identical).
        let narrow = KernelWork {
            threads: 8_000.0,
            ..parallel_fp32_work()
        };
        let t_turing = GpuModel::new(rtx_2080_ti())
            .kernel_time(&narrow, 128)
            .unwrap();
        let t_pascal = GpuModel::new(gtx_1080_ti())
            .kernel_time(&narrow, 128)
            .unwrap();
        let full = parallel_fp32_work();
        let f_turing = GpuModel::new(rtx_2080_ti())
            .kernel_time(&full, 128)
            .unwrap();
        let f_pascal = GpuModel::new(gtx_1080_ti())
            .kernel_time(&full, 128)
            .unwrap();
        let narrow_gap = t_pascal / t_turing;
        let full_gap = f_pascal / f_turing;
        assert!(
            narrow_gap < full_gap,
            "narrow {narrow_gap} vs saturated {full_gap}"
        );
    }

    #[test]
    fn pinned_memory_speeds_up_transfers() {
        let g = GpuModel::new(rtx_2080_ti());
        let w = parallel_fp32_work();
        assert!(g.transfer_time(&w, true) < g.transfer_time(&w, false));
    }

    #[test]
    fn memory_bound_work_sits_on_the_roofline() {
        let g = GpuModel::new(rtx_2080_ti());
        let w = KernelWork {
            flops_fma: 1e6,
            bytes_mem: 4.004e9, // 10 ms at 616 GB/s × MEM_EFF (0.65)
            threads: 1e6,
            fp64: false,
            ..Default::default()
        };
        let t = g.kernel_time(&w, 256).unwrap();
        assert!((t - 0.01).abs() < 0.001, "{t}");
    }

    #[test]
    fn estimate_reports_breakdown() {
        let g = GpuModel::new(rtx_2080_ti());
        let w = parallel_fp32_work();
        let e = g.estimate(&w, 256, true).unwrap();
        assert!(e.kernel_s > 0.0 && e.transfer_s > 0.0);
        assert!((e.total_s - (e.kernel_s + e.transfer_s)).abs() < 1e-12);
        assert!(e.occupancy > 0.9);
        assert!(!e.regs_limited);
    }
}
