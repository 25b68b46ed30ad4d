//! The HLS FPGA model (oneAPI targets): resource estimation ("partial
//! compile report") and pipeline timing.
//!
//! Mirrors how the paper's `unroll_until_overmap` meta-program interacts
//! with real tooling (Fig. 2): the DSE inserts `#pragma unroll N`, runs a
//! partial compile, reads estimated LUT utilisation from the report, and
//! doubles the factor until `report.LUT ≥ 0.9`. [`FpgaModel::hls_report`]
//! is that report generator; [`FpgaModel::estimate`] is the corresponding
//! performance model:
//!
//! * a **flat pipeline** (all dependence-carrying inner loops fully
//!   unrolled, or none present) initiates one *outer* iteration per II
//!   cycles, and outer-loop unrolling by U replicates the datapath for U×
//!   throughput — the AdPredictor case;
//! * a **shared datapath** (inner loops with runtime bounds) initiates one
//!   *innermost* iteration per cycle and unrolling cannot replicate it —
//!   the N-Body case, whose FPGA designs barely beat one CPU thread;
//! * initiation interval grows when one iteration needs more memory ports
//!   than the board provides;
//! * designs whose base (U = 1) resource demand exceeds the overmap
//!   threshold are **not synthesizable** — the Rush Larsen case, reported
//!   as an error exactly like the paper excludes those designs.

use crate::devices::FpgaSpec;
use crate::resources::OpCounts;
use crate::work::KernelWork;
use crate::Seconds;
use psa_evalcache::{EvalCache, KeyBuilder};
use std::fmt;

/// Memory ports available to one kernel datapath (HLS banks and replicates
/// on-chip tables to feed unrolled lanes).
const MEM_PORTS: f64 = 16.0;

/// Effective fraction of PCIe bandwidth a zero-copy USM stream sustains
/// (host-memory access latency is only partially hidden by prefetching).
const USM_STREAM_EFF: f64 = 0.55;

/// The HLS-style resource report the unroll DSE consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaReport {
    pub unroll: u64,
    pub luts_used: f64,
    pub lut_util: f64,
    pub dsps_used: f64,
    pub dsp_util: f64,
    /// Achievable clock after place-and-route pressure, MHz.
    pub fmax_mhz: f64,
    /// `true` when utilisation exceeds the overmap threshold — the DSE's
    /// stop condition.
    pub overmapped: bool,
}

/// Why a timing estimate could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FpgaTimeError {
    /// The design exceeds device resources even at unroll 1 — the paper's
    /// "designs are sizeable and exceed the capacity of our current FPGA
    /// devices" (Rush Larsen).
    NotSynthesizable { lut_util_at_unroll1: String },
}

impl fmt::Display for FpgaTimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FpgaTimeError::NotSynthesizable {
                lut_util_at_unroll1,
            } => {
                write!(
                    f,
                    "design not synthesizable: LUT utilisation {lut_util_at_unroll1} at unroll 1"
                )
            }
        }
    }
}

impl std::error::Error for FpgaTimeError {}

/// Timing breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaEstimate {
    pub pipeline_s: f64,
    pub ddr_s: f64,
    pub transfer_s: f64,
    pub total_s: f64,
    pub ii: f64,
    pub report: FpgaReport,
}

/// Analytic HLS/FPGA model for one card.
#[derive(Debug, Clone)]
pub struct FpgaModel {
    pub spec: FpgaSpec,
}

impl FpgaModel {
    pub fn new(spec: FpgaSpec) -> Self {
        FpgaModel { spec }
    }

    /// Produce the "partial compile" resource report for a datapath of
    /// `ops` replicated `unroll` times.
    pub fn hls_report(&self, ops: &OpCounts, fp64: bool, unroll: u64) -> FpgaReport {
        psa_obs::counter_add(
            "psa_platform_estimates_total",
            &[("model", "fpga-hls"), ("device", &self.spec.name)],
            1,
        );
        let unroll = unroll.max(1);
        let shell = self.spec.luts as f64 * self.spec.shell_overhead;
        let luts_used = shell + ops.luts(fp64) * unroll as f64;
        let dsps_used = ops.dsps(fp64) * unroll as f64;
        let lut_util = luts_used / self.spec.luts as f64;
        let dsp_util = if self.spec.dsps == 0 {
            0.0
        } else {
            dsps_used / self.spec.dsps as f64
        };
        // Routing pressure erodes Fmax as the device fills.
        let pressure = (lut_util.max(dsp_util) - 0.5).max(0.0);
        let fmax_mhz = self.spec.clock_mhz * (1.0 - 0.3 * pressure);
        FpgaReport {
            unroll,
            luts_used,
            lut_util,
            dsps_used,
            dsp_util,
            fmax_mhz,
            overmapped: lut_util >= self.spec.overmap_threshold
                || dsp_util >= self.spec.overmap_threshold,
        }
    }

    /// Initiation interval of one pipeline iteration.
    pub fn initiation_interval(&self, w: &KernelWork) -> f64 {
        if w.flat_pipeline {
            // One outer iteration per initiation; memory ports bound II.
            (w.ops.mem_ops / MEM_PORTS).ceil().max(1.0)
        } else {
            // Shared datapath streams innermost iterations at II = 1.
            1.0
        }
    }

    /// Cached [`FpgaModel::hls_report`]: the analytic partial compile is
    /// memoized by device spec, datapath op counts, precision and unroll
    /// factor — exactly the inputs the report is a pure function of. The
    /// unroll DSE's doubling probes and the subsequent estimate's clamping
    /// probes all land on these entries.
    pub fn hls_report_cached(
        &self,
        ops: &OpCounts,
        fp64: bool,
        unroll: u64,
        cache: &EvalCache,
    ) -> FpgaReport {
        // Flight-recorder witness first, so an estimate that then faults
        // (the `apply` below can panic) still leaves its event in the ring.
        if psa_obs::recorder::enabled() {
            psa_obs::recorder::record_estimate(&format!("fpga-hls/{}", self.spec.name));
        }
        // Fault-injection seam for the (simulated) HLS partial compile.
        psa_faults::apply(psa_faults::Seam::Estimate, || {
            format!("fpga-hls/{}", self.spec.name)
        });
        let key = KeyBuilder::new("platform/fpga-hls")
            .u64(self.spec.content_hash())
            .u64(ops.content_hash())
            .bool(fp64)
            .u64(unroll.max(1))
            .finish();
        *cache.get_or_compute(key, || self.hls_report(ops, fp64, unroll))
    }

    /// Full timing estimate at the given unroll factor.
    pub fn estimate(&self, w: &KernelWork, unroll: u64) -> Result<FpgaEstimate, FpgaTimeError> {
        self.estimate_via(w, unroll, &|u| self.hls_report(&w.ops, w.fp64, u))
    }

    /// Cached [`FpgaModel::estimate`]: the whole breakdown is memoized by
    /// spec, workload and unroll, and on a miss the resource probes go
    /// through [`FpgaModel::hls_report_cached`], so entries warmed by the
    /// unroll DSE are reused. Unsynthesizable verdicts are recomputed (only
    /// successes are stored) but still hit the cached unroll-1 report.
    pub fn estimate_cached(
        &self,
        w: &KernelWork,
        unroll: u64,
        cache: &EvalCache,
    ) -> Result<FpgaEstimate, FpgaTimeError> {
        let key = KeyBuilder::new("platform/fpga-estimate")
            .u64(self.spec.content_hash())
            .u64(w.content_hash())
            .u64(unroll)
            .finish();
        cache
            .try_get_or_compute(key, || {
                self.estimate_via(w, unroll, &|u| {
                    self.hls_report_cached(&w.ops, w.fp64, u, cache)
                })
            })
            .map(|e| *e)
    }

    /// The estimate algorithm, parameterised over the report source so the
    /// cached and uncached paths share one implementation.
    fn estimate_via(
        &self,
        w: &KernelWork,
        unroll: u64,
        report_at: &dyn Fn(u64) -> FpgaReport,
    ) -> Result<FpgaEstimate, FpgaTimeError> {
        let base = report_at(1);
        if base.overmapped {
            return Err(FpgaTimeError::NotSynthesizable {
                lut_util_at_unroll1: format!("{:.0}%", base.lut_util * 100.0),
            });
        }
        // Clamp the requested unroll to the largest factor that still fits
        // (the DSE keeps the last fitting design). Shared datapaths ignore
        // unrolling entirely: HLS cannot replicate a pipeline whose inner
        // loop bounds are unknown, so the pragma neither helps nor costs.
        let mut fit = if w.flat_pipeline { unroll.max(1) } else { 1 };
        while fit > 1 && report_at(fit).overmapped {
            fit /= 2;
        }
        let report = report_at(fit);

        let ii = self.initiation_interval(w);
        let replicas = if w.flat_pipeline { fit as f64 } else { 1.0 };
        let clock = report.fmax_mhz * 1e6;
        let pipeline_s = w.pipeline_iters * ii / (replicas * clock);
        // On-chip BRAM holds the reused tables; DDR streams the kernel's
        // in/out footprint.
        let ddr_s = (w.bytes_in + w.bytes_out) / (self.spec.mem_bw_gbs * 1e9);
        let transfer_bytes = w.bytes_in + w.bytes_out;
        let (transfer_s, total_s) = if self.spec.usm_zero_copy {
            // Zero-copy USM: host memory is streamed while the pipeline
            // runs; transfers overlap compute but sustain only a fraction
            // of the link's peak.
            let t = transfer_bytes / (self.spec.pcie_gbs * 1e9 * USM_STREAM_EFF);
            (t, pipeline_s.max(ddr_s).max(t) + 200e-6)
        } else {
            let t = transfer_bytes / (self.spec.pcie_gbs * 1e9) + 100e-6;
            (t, pipeline_s.max(ddr_s) + t + 200e-6)
        };
        Ok(FpgaEstimate {
            pipeline_s,
            ddr_s,
            transfer_s,
            total_s,
            ii,
            report,
        })
    }

    /// Total seconds, or an error for unsynthesizable designs.
    pub fn total_time(&self, w: &KernelWork, unroll: u64) -> Result<Seconds, FpgaTimeError> {
        Ok(self.estimate(w, unroll)?.total_s)
    }

    /// Cached [`FpgaModel::total_time`].
    pub fn total_time_cached(
        &self,
        w: &KernelWork,
        unroll: u64,
        cache: &EvalCache,
    ) -> Result<Seconds, FpgaTimeError> {
        Ok(self.estimate_cached(w, unroll, cache)?.total_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{arria10, stratix10};

    fn flat_work(transcendentals: f64) -> KernelWork {
        KernelWork {
            flops_fma: 1e9,
            flops_sfu: 1e9,
            bytes_mem: 1e8,
            bytes_in: 1e7,
            bytes_out: 1e6,
            threads: 1e6,
            pipeline_iters: 1e6,
            fp64: false,
            flat_pipeline: true,
            ops: OpCounts {
                fp_add: 20.0,
                fp_mul: 10.0,
                transcendental: transcendentals,
                mem_ops: 8.0,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn report_grows_with_unroll_until_overmap() {
        let m = FpgaModel::new(arria10());
        let w = flat_work(4.0);
        let mut last_util = 0.0;
        let mut overmapped_at = None;
        for exp in 0..8 {
            let r = m.hls_report(&w.ops, w.fp64, 1 << exp);
            assert!(r.lut_util > last_util, "monotone in unroll");
            last_util = r.lut_util;
            if r.overmapped {
                overmapped_at = Some(1 << exp);
                break;
            }
        }
        assert!(overmapped_at.is_some(), "doubling must eventually overmap");
    }

    #[test]
    fn stratix10_fits_larger_unrolls() {
        let w = flat_work(4.0);
        let a10 = FpgaModel::new(arria10());
        let s10 = FpgaModel::new(stratix10());
        let max_fit = |m: &FpgaModel| {
            let mut u = 1u64;
            while !m.hls_report(&w.ops, w.fp64, u * 2).overmapped {
                u *= 2;
            }
            u
        };
        assert!(max_fit(&s10) > max_fit(&a10));
    }

    #[test]
    fn unrolling_speeds_up_flat_pipelines() {
        let m = FpgaModel::new(stratix10());
        let w = flat_work(2.0);
        let t1 = m.estimate(&w, 1).unwrap();
        let t4 = m.estimate(&w, 4).unwrap();
        assert!(t4.pipeline_s < t1.pipeline_s / 3.0);
    }

    #[test]
    fn unrolling_does_not_help_shared_datapaths() {
        let m = FpgaModel::new(stratix10());
        let w = KernelWork {
            flat_pipeline: false,
            ..flat_work(2.0)
        };
        let t1 = m.estimate(&w, 1).unwrap();
        let t8 = m.estimate(&w, 8).unwrap();
        assert!((t8.pipeline_s - t1.pipeline_s).abs() / t1.pipeline_s < 1e-9);
        assert_eq!(t1.ii, 1.0, "shared datapath streams at II=1");
    }

    #[test]
    fn memory_ports_bound_the_initiation_interval() {
        let m = FpgaModel::new(arria10());
        let mut w = flat_work(2.0);
        w.ops.mem_ops = 64.0;
        assert_eq!(m.initiation_interval(&w), 4.0);
        w.ops.mem_ops = 2.0;
        assert_eq!(m.initiation_interval(&w), 1.0);
    }

    #[test]
    fn transcendental_soup_is_not_synthesizable() {
        // Rush Larsen-like: ~65 fp64 transcendentals per iteration.
        let w = KernelWork {
            fp64: true,
            ops: OpCounts {
                transcendental: 65.0,
                fp_add: 120.0,
                fp_mul: 80.0,
                mem_ops: 10.0,
                ..Default::default()
            },
            ..flat_work(0.0)
        };
        for spec in [arria10(), stratix10()] {
            let m = FpgaModel::new(spec);
            let err = m.total_time(&w, 1).unwrap_err();
            assert!(
                matches!(err, FpgaTimeError::NotSynthesizable { .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn requested_unroll_is_clamped_to_fit() {
        let m = FpgaModel::new(arria10());
        let w = flat_work(4.0);
        let e = m.estimate(&w, 1 << 20).unwrap();
        assert!(!e.report.overmapped);
        assert!(e.report.unroll >= 1);
        assert!(e.report.lut_util < m.spec.overmap_threshold);
    }

    #[test]
    fn zero_copy_overlaps_transfers() {
        let w = KernelWork {
            bytes_in: 4e9,
            ..flat_work(2.0)
        }; // large input
        let a10 = FpgaModel::new(arria10()).estimate(&w, 1).unwrap();
        // A10 serialises the transfer; its total must include it additively.
        assert!(a10.total_s >= a10.transfer_s + a10.pipeline_s.max(a10.ddr_s));
        let s10 = FpgaModel::new(stratix10()).estimate(&w, 1).unwrap();
        // S10 overlaps: total ≈ max(pipeline, transfer), not the sum.
        assert!(s10.total_s < s10.transfer_s + s10.pipeline_s + 1e-3);
    }

    #[test]
    fn fmax_degrades_under_routing_pressure() {
        let m = FpgaModel::new(arria10());
        let w = flat_work(4.0);
        let light = m.hls_report(&w.ops, false, 1);
        let mut heavy_unroll = 1;
        while !m.hls_report(&w.ops, false, heavy_unroll * 2).overmapped {
            heavy_unroll *= 2;
        }
        let heavy = m.hls_report(&w.ops, false, heavy_unroll);
        assert!(heavy.fmax_mhz <= light.fmax_mhz);
    }
}
