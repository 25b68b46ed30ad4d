//! Flow outcomes: generated designs and their estimated performance.

use crate::flow::FlowError;
use crate::trace::TraceEvent;

/// Target family (branch point A's alternatives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetKind {
    MultiThreadCpu,
    CpuGpu,
    CpuFpga,
}

impl TargetKind {
    pub fn label(&self) -> &'static str {
        match self {
            TargetKind::MultiThreadCpu => "Multi-Thread CPU",
            TargetKind::CpuGpu => "CPU+GPU",
            TargetKind::CpuFpga => "CPU+FPGA",
        }
    }
}

/// Concrete devices (branch points B and C's alternatives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    Epyc7543,
    Gtx1080Ti,
    Rtx2080Ti,
    Arria10,
    Stratix10,
}

impl DeviceKind {
    pub fn label(&self) -> &'static str {
        match self {
            DeviceKind::Epyc7543 => "AMD EPYC 7543",
            DeviceKind::Gtx1080Ti => "GeForce GTX 1080 Ti",
            DeviceKind::Rtx2080Ti => "GeForce RTX 2080 Ti",
            DeviceKind::Arria10 => "PAC Arria10",
            DeviceKind::Stratix10 => "PAC Stratix10",
        }
    }

    pub fn target(&self) -> TargetKind {
        match self {
            DeviceKind::Epyc7543 => TargetKind::MultiThreadCpu,
            DeviceKind::Gtx1080Ti | DeviceKind::Rtx2080Ti => TargetKind::CpuGpu,
            DeviceKind::Arria10 | DeviceKind::Stratix10 => TargetKind::CpuFpga,
        }
    }
}

/// Tuning parameters the DSE tasks chose for a design.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DesignParams {
    /// OpenMP thread count.
    pub threads: Option<u32>,
    /// GPU blocksize.
    pub blocksize: Option<u32>,
    /// FPGA unroll factor.
    pub unroll: Option<u64>,
    /// GPU occupancy achieved at the chosen blocksize.
    pub occupancy: Option<f64>,
    /// FPGA LUT utilisation of the final design.
    pub lut_util: Option<f64>,
    /// GPU pinned host memory employed.
    pub pinned: Option<bool>,
    /// FPGA zero-copy USM data transfer employed.
    pub zero_copy: Option<bool>,
}

/// One generated design plus its estimate.
#[derive(Debug, Clone)]
pub struct DesignArtifact {
    pub target: TargetKind,
    pub device: DeviceKind,
    /// The emitted source text.
    pub source: String,
    /// Non-blank LOC of the emitted source.
    pub loc: usize,
    /// Estimated hotspot execution time at the evaluation workload,
    /// seconds. `None` when unsynthesizable.
    pub estimated_time_s: Option<f64>,
    /// False for designs that overmap the device (Rush Larsen FPGA).
    pub synthesizable: bool,
    /// DSE-chosen parameters.
    pub params: DesignParams,
    /// Free-form notes carried into reports.
    pub notes: Vec<String>,
}

impl DesignArtifact {
    /// Speedup vs the single-thread reference.
    pub fn speedup(&self, reference_time_s: f64) -> Option<f64> {
        self.estimated_time_s.map(|t| reference_time_s / t)
    }
}

/// One `Many`-branch path that failed and was dropped under
/// [`crate::engine::FailurePolicy::DegradePaths`]. The flow's failure log
/// is the report-side view of the [`crate::trace::TraceEvent::PathFailed`]
/// records embedded in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PathFailure {
    /// Name of the flow whose branch degraded.
    pub flow: String,
    /// Branch-point name.
    pub branch: String,
    /// Index of the failed path.
    pub index: usize,
    /// The failed path's label.
    pub label: String,
    /// Why the path failed.
    pub error: FlowError,
}

impl PathFailure {
    /// One-line human-readable summary (what `fig5 --fail-policy=degrade`
    /// prints to stderr per dropped path).
    pub fn render(&self) -> String {
        format!(
            "[{}] branch `{}`: path {} `{}` failed: {}",
            self.flow,
            self.branch,
            self.index,
            self.label,
            self.error.message()
        )
    }
}

/// The final product of running a PSA-flow.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Application name.
    pub app: String,
    /// Single-thread reference time at the evaluation workload, seconds.
    pub reference_time_s: f64,
    /// Every generated design.
    pub designs: Vec<DesignArtifact>,
    /// The target family the informed strategy selected (None in
    /// uninformed mode or when the flow terminated without offloading).
    pub selected_target: Option<TargetKind>,
    /// The flow's execution trace rendered as human-readable lines.
    pub log: Vec<String>,
    /// The structured execution trace (task spans with durations, branch
    /// decisions with evidence, DSE results). `log` is its rendering.
    pub trace: Vec<TraceEvent>,
    /// Paths dropped under `FailurePolicy::DegradePaths`, in the order the
    /// engine recorded them (branch order, then path-index order). Empty on
    /// a clean run and always empty under `FailFast` (the first failure
    /// aborts the flow instead).
    pub failures: Vec<PathFailure>,
}

impl FlowOutcome {
    /// The design a deployment would pick: fastest synthesizable design
    /// (the paper's "Auto-Selected" bar takes the fastest of the generated
    /// device variants).
    pub fn best_design(&self) -> Option<&DesignArtifact> {
        self.designs
            .iter()
            .filter(|d| d.synthesizable && d.estimated_time_s.is_some())
            .min_by(|a, b| {
                a.estimated_time_s
                    .unwrap()
                    .partial_cmp(&b.estimated_time_s.unwrap())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Speedup of the best design vs the reference.
    pub fn auto_selected_speedup(&self) -> Option<f64> {
        self.best_design()
            .and_then(|d| d.speedup(self.reference_time_s))
    }

    /// Look up a design by device.
    pub fn design_for(&self, device: DeviceKind) -> Option<&DesignArtifact> {
        self.designs.iter().find(|d| d.device == device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(device: DeviceKind, time: Option<f64>, synth: bool) -> DesignArtifact {
        DesignArtifact {
            target: device.target(),
            device,
            source: String::new(),
            loc: 0,
            estimated_time_s: time,
            synthesizable: synth,
            params: DesignParams::default(),
            notes: vec![],
        }
    }

    #[test]
    fn best_design_skips_unsynthesizable() {
        let outcome = FlowOutcome {
            app: "x".into(),
            reference_time_s: 10.0,
            designs: vec![
                artifact(DeviceKind::Arria10, None, false),
                artifact(DeviceKind::Rtx2080Ti, Some(0.1), true),
                artifact(DeviceKind::Gtx1080Ti, Some(0.2), true),
            ],
            selected_target: Some(TargetKind::CpuGpu),
            log: vec![],
            trace: vec![],
            failures: vec![],
        };
        assert_eq!(outcome.best_design().unwrap().device, DeviceKind::Rtx2080Ti);
        assert!((outcome.auto_selected_speedup().unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn device_target_mapping() {
        assert_eq!(DeviceKind::Epyc7543.target(), TargetKind::MultiThreadCpu);
        assert_eq!(DeviceKind::Gtx1080Ti.target(), TargetKind::CpuGpu);
        assert_eq!(DeviceKind::Stratix10.target(), TargetKind::CpuFpga);
        assert_eq!(TargetKind::CpuFpga.label(), "CPU+FPGA");
    }
}
