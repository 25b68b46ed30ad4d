//! The device catalog: the five platforms from the paper's evaluation
//! (§IV-A), with published datasheet figures where available and calibrated
//! efficiency factors where the datasheet says nothing (documented per
//! field).

/// A multicore CPU target (OpenMP path + the single-thread reference).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    pub name: String,
    /// Physical cores.
    pub cores: u32,
    /// Base clock in GHz.
    pub clock_ghz: f64,
    /// Sustained scalar instructions-per-cycle against the interpreter's
    /// virtual-cycle scale (calibrated: an OoO core retires ~3 of our
    /// "cycles" per real cycle).
    pub ipc: f64,
    /// Aggregate DRAM bandwidth, GB/s (8-channel DDR4-3200).
    pub mem_bw_gbs: f64,
    /// Per-thread OpenMP efficiency loss per extra thread (fork/join,
    /// NUMA): effective threads = t × (base_eff - eff_slope·t).
    pub omp_base_eff: f64,
    pub omp_eff_slope: f64,
}

/// A discrete GPU target (HIP path).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    pub name: String,
    /// Streaming multiprocessors.
    pub sms: u32,
    /// FP32 lanes per SM.
    pub cores_per_sm: u32,
    /// Boost clock, GHz.
    pub clock_ghz: f64,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Maximum resident threads per SM (2048 Pascal, 1024 Turing).
    pub max_threads_per_sm: u32,
    /// Special-function units per SM (transcendental throughput).
    pub sfu_per_sm: u32,
    /// FP64 throughput as a fraction of FP32 (1/32 on consumer parts).
    pub fp64_ratio: f64,
    /// Device memory bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// Host↔device PCIe bandwidth, GB/s (effective, pageable).
    pub pcie_gbs: f64,
    /// Bandwidth multiplier when pinned host memory is employed.
    pub pinned_factor: f64,
    /// Sustained fraction of peak FLOPs a tuned but straightforward kernel
    /// achieves (calibrated; Turing's concurrent FP+INT pipes roughly
    /// double Pascal's sustained rate on address-heavy loops).
    pub arch_eff: f64,
    /// Occupancy below this knee no longer hides latency (fraction).
    pub occupancy_knee: f64,
    /// Fixed kernel-launch + driver overhead, seconds.
    pub launch_overhead_s: f64,
}

impl GpuSpec {
    /// Peak FP32 FLOPs/s (2 ops per lane-clock via FMA).
    pub fn peak_fp32(&self) -> f64 {
        f64::from(self.sms) * f64::from(self.cores_per_sm) * 2.0 * self.clock_ghz * 1e9
    }

    /// Peak transcendental op rate (SFU ops/s).
    pub fn peak_sfu(&self) -> f64 {
        f64::from(self.sms) * f64::from(self.sfu_per_sm) * self.clock_ghz * 1e9
    }
}

/// An FPGA accelerator card (oneAPI path).
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaSpec {
    pub name: String,
    /// Logic budget in ALM/LUT units.
    pub luts: u64,
    /// Hardened DSP blocks.
    pub dsps: u64,
    /// Achievable kernel clock for a mapped design, MHz.
    pub clock_mhz: f64,
    /// On-card DDR bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// Host↔card PCIe bandwidth, GB/s.
    pub pcie_gbs: f64,
    /// Unified-shared-memory zero-copy host access (Stratix10 BSPs only,
    /// per the paper §III): transfers overlap the pipeline instead of
    /// serialising before/after it.
    pub usm_zero_copy: bool,
    /// Fraction of logic consumed by the static shell / BSP.
    pub shell_overhead: f64,
    /// Utilisation ceiling before the paper's DSE calls a design
    /// overmapped (`report.LUT ≥ 0.9`).
    pub overmap_threshold: f64,
}

impl FpgaSpec {
    /// LUTs available to the kernel after the shell.
    pub fn usable_luts(&self) -> f64 {
        self.luts as f64 * (1.0 - self.shell_overhead)
    }

    /// Deterministic content hash of every model-relevant field — the
    /// device part of a cached evaluation's address.
    pub fn content_hash(&self) -> u64 {
        psa_evalcache::fnv64_of(&(
            self.name.as_str(),
            self.luts,
            self.dsps,
            self.clock_mhz.to_bits(),
            self.mem_bw_gbs.to_bits(),
            self.pcie_gbs.to_bits(),
            self.usm_zero_copy,
            self.shell_overhead.to_bits(),
            self.overmap_threshold.to_bits(),
        ))
    }
}

impl CpuSpec {
    /// Deterministic content hash of every model-relevant field — the
    /// device part of a cached evaluation's address.
    pub fn content_hash(&self) -> u64 {
        psa_evalcache::fnv64_of(&(
            self.name.as_str(),
            self.cores,
            self.clock_ghz.to_bits(),
            self.ipc.to_bits(),
            self.mem_bw_gbs.to_bits(),
            self.omp_base_eff.to_bits(),
            self.omp_eff_slope.to_bits(),
        ))
    }
}

impl GpuSpec {
    /// Deterministic content hash of every model-relevant field — the
    /// device part of a cached evaluation's address.
    pub fn content_hash(&self) -> u64 {
        psa_evalcache::fnv64_of(&(
            (
                self.name.as_str(),
                self.sms,
                self.cores_per_sm,
                self.clock_ghz.to_bits(),
                self.regs_per_sm,
                self.max_threads_per_sm,
                self.sfu_per_sm,
            ),
            (
                self.fp64_ratio.to_bits(),
                self.mem_bw_gbs.to_bits(),
                self.pcie_gbs.to_bits(),
                self.pinned_factor.to_bits(),
                self.arch_eff.to_bits(),
                self.occupancy_knee.to_bits(),
                self.launch_overhead_s.to_bits(),
            ),
        ))
    }
}

/// AMD EPYC 7543, 32 cores @ 2.8 GHz — the paper's CPU host.
pub fn epyc_7543() -> CpuSpec {
    CpuSpec {
        name: "AMD EPYC 7543".into(),
        cores: 32,
        clock_ghz: 2.8,
        ipc: 3.0,
        mem_bw_gbs: 204.8,
        omp_base_eff: 0.95,
        omp_eff_slope: 0.0016,
    }
}

/// NVIDIA GeForce GTX 1080 Ti (Pascal, 28 SMs × 128 lanes).
pub fn gtx_1080_ti() -> GpuSpec {
    GpuSpec {
        name: "GeForce GTX 1080 Ti".into(),
        sms: 28,
        cores_per_sm: 128,
        clock_ghz: 1.582,
        regs_per_sm: 65536,
        max_threads_per_sm: 2048,
        sfu_per_sm: 32,
        fp64_ratio: 1.0 / 32.0,
        mem_bw_gbs: 484.0,
        pcie_gbs: 10.0,
        pinned_factor: 1.05,
        arch_eff: 0.10,
        occupancy_knee: 0.35,
        launch_overhead_s: 50e-6,
    }
}

/// NVIDIA GeForce RTX 2080 Ti (Turing, 68 SMs × 64 lanes).
pub fn rtx_2080_ti() -> GpuSpec {
    GpuSpec {
        name: "GeForce RTX 2080 Ti".into(),
        sms: 68,
        cores_per_sm: 64,
        clock_ghz: 1.545,
        regs_per_sm: 65536,
        max_threads_per_sm: 1024,
        sfu_per_sm: 16,
        fp64_ratio: 1.0 / 32.0,
        mem_bw_gbs: 616.0,
        pcie_gbs: 11.0,
        pinned_factor: 1.05,
        arch_eff: 0.19,
        occupancy_knee: 0.30,
        launch_overhead_s: 50e-6,
    }
}

/// Intel PAC with Arria 10 GX 1150.
pub fn arria10() -> FpgaSpec {
    FpgaSpec {
        name: "PAC Arria10".into(),
        luts: 427_200,
        dsps: 1518,
        clock_mhz: 240.0,
        mem_bw_gbs: 34.0,
        pcie_gbs: 6.0,
        usm_zero_copy: false,
        shell_overhead: 0.20,
        overmap_threshold: 0.90,
    }
}

/// Intel Stratix 10 SX 2800 PAC (D5005).
pub fn stratix10() -> FpgaSpec {
    FpgaSpec {
        name: "PAC Stratix10".into(),
        luts: 933_120,
        dsps: 5760,
        clock_mhz: 400.0,
        mem_bw_gbs: 76.8,
        pcie_gbs: 8.0,
        usm_zero_copy: true,
        shell_overhead: 0.18,
        overmap_threshold: 0.90,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rates_match_datasheets() {
        // 1080 Ti ≈ 11.3 TFLOPs FP32; 2080 Ti ≈ 13.4 TFLOPs.
        let p1080 = gtx_1080_ti().peak_fp32();
        let p2080 = rtx_2080_ti().peak_fp32();
        assert!((p1080 / 1e12 - 11.3).abs() < 0.2, "{p1080}");
        assert!((p2080 / 1e12 - 13.45).abs() < 0.2, "{p2080}");
        assert!(p2080 > p1080);
    }

    #[test]
    fn stratix10_is_the_bigger_newer_card() {
        let a10 = arria10();
        let s10 = stratix10();
        assert!(s10.luts > 2 * a10.luts);
        assert!(s10.clock_mhz > a10.clock_mhz);
        assert!(s10.usm_zero_copy && !a10.usm_zero_copy);
        assert!(s10.usable_luts() < s10.luts as f64);
    }

    #[test]
    fn epyc_matches_paper_setup() {
        let c = epyc_7543();
        assert_eq!(c.cores, 32);
        assert!((c.clock_ghz - 2.8).abs() < 1e-9);
    }
}
