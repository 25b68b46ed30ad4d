//! # psa-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§IV):
//!
//! | Artefact | Binary | What it prints |
//! |----------|--------|----------------|
//! | Fig. 5   | `fig5`   | hotspot speedups of all generated designs vs the 1-thread reference, paper vs measured |
//! | Table I  | `table1` | added LOC per generated design |
//! | Fig. 6   | `fig6`   | relative FPGA/GPU cost across price ratios |
//! | Table II | `table2` | the related-work capability matrix |
//!
//! The library half hosts the shared runner: apply the full PSA-flow (both
//! modes) to each of the five benchmarks and collect measured speedups,
//! and [`measure`], the sampler and record writer of the benches.

pub mod faultargs;
pub mod measure;
pub mod obsout;

use psa_benchsuite::{Benchmark, ScaleFactors};
use psaflow_core::context::psa_benchsuite_shim;
use psaflow_core::flows::full_psa_flow_cached_on;
use psaflow_core::{
    DeviceKind, EvalCache, FlowEngine, FlowMode, FlowOutcome, PsaParams, TargetKind,
};
use std::sync::Arc;

/// Measured counterpart of one Fig. 5 row.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    pub key: String,
    pub name: String,
    pub auto_selected: Option<f64>,
    pub omp: Option<f64>,
    pub hip_1080: Option<f64>,
    pub hip_2080: Option<f64>,
    pub oneapi_a10: Option<f64>,
    pub oneapi_s10: Option<f64>,
    /// Target family the informed strategy selected.
    pub selected_target: Option<TargetKind>,
    /// Reference (1-thread CPU) time at the evaluation workload.
    pub reference_time_s: f64,
}

/// Convert benchmark scale factors into the flow's parameter shim.
pub fn params_for(bench: &Benchmark) -> PsaParams {
    PsaParams {
        sp_safe: bench.sp_safe,
        scale: shim(bench.scale),
        ..PsaParams::default()
    }
}

fn shim(s: ScaleFactors) -> psa_benchsuite_shim::ScaleFactors {
    psa_benchsuite_shim::ScaleFactors {
        compute: s.compute,
        data: s.data,
        threads: s.threads,
    }
}

/// Run the uninformed flow (all design versions) and the informed decision
/// for one benchmark; collect speedups per device. The two flow modes fan
/// out through [`FlowEngine::fan_out`] and share `cache`, so the uninformed
/// sweep hits the profiled runs and model estimates the informed flow
/// already paid for (and vice versa); outputs are identical either way.
fn run_benchmark_cached_on(
    engine: FlowEngine,
    bench: &Benchmark,
    cache: Arc<EvalCache>,
) -> Result<(MeasuredRow, FlowOutcome), String> {
    const MODES: [FlowMode; 2] = [FlowMode::Uninformed, FlowMode::Informed];
    let params = params_for(bench);
    let mut outcomes = engine
        .fan_out(MODES.len(), |k| {
            full_psa_flow_cached_on(
                engine,
                &bench.source,
                &bench.key,
                MODES[k],
                params.clone(),
                Arc::clone(&cache),
            )
            .map_err(|e| format!("{}: {e}", bench.key))
        })
        .into_iter();
    let uninformed = outcomes.next().expect("one outcome per mode")?;
    let informed = outcomes.next().expect("one outcome per mode")?;

    let speedup = |device: DeviceKind| -> Option<f64> {
        uninformed
            .design_for(device)?
            .speedup(uninformed.reference_time_s)
    };

    // Auto-Selected: the fastest design generated by the *informed* flow
    // (for GPU/FPGA targets that is the best of the two device variants).
    let auto_selected = informed.auto_selected_speedup();

    let row = MeasuredRow {
        key: bench.key.clone(),
        name: bench.name.clone(),
        auto_selected,
        omp: speedup(DeviceKind::Epyc7543),
        hip_1080: speedup(DeviceKind::Gtx1080Ti),
        hip_2080: speedup(DeviceKind::Rtx2080Ti),
        oneapi_a10: speedup(DeviceKind::Arria10),
        oneapi_s10: speedup(DeviceKind::Stratix10),
        selected_target: informed.selected_target,
        reference_time_s: uninformed.reference_time_s,
    };
    Ok((row, uninformed))
}

/// Run all five benchmarks on a caller-chosen engine (sequential = one
/// benchmark at a time, for timing baselines and debugging). Results are
/// collected in benchmark order, so the rows are identical on every
/// engine. All benchmarks and both flow modes share one evaluation cache.
pub fn run_all_on(engine: FlowEngine) -> Result<Vec<(MeasuredRow, FlowOutcome)>, String> {
    run_all_cached_on(engine, Arc::new(EvalCache::new()))
}

/// [`run_all_on`] with a caller-provided evaluation cache. Pass
/// [`EvalCache::disabled`] to measure the uncached baseline, or reuse the
/// same cache across repeated sweeps for fully warm runs.
pub fn run_all_cached_on(
    engine: FlowEngine,
    cache: Arc<EvalCache>,
) -> Result<Vec<(MeasuredRow, FlowOutcome)>, String> {
    let benches = psa_benchsuite::all();
    engine
        .fan_out(benches.len(), |i| {
            run_benchmark_cached_on(engine, &benches[i], Arc::clone(&cache))
        })
        .into_iter()
        .collect()
}

/// Format an optional speedup.
pub fn fmt_speedup(v: Option<f64>) -> String {
    match v {
        Some(x) if x >= 100.0 => format!("{x:.0}x"),
        Some(x) => format!("{x:.1}x"),
        None => "n/a".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_propagate_benchmark_metadata() {
        let rl = psa_benchsuite::by_key("rushlarsen").unwrap();
        let p = params_for(&rl);
        assert!(!p.sp_safe);
        assert!(p.scale.compute > 1000.0);
        let nb = psa_benchsuite::by_key("nbody").unwrap();
        assert!(params_for(&nb).sp_safe);
    }

    #[test]
    fn fmt_speedup_forms() {
        assert_eq!(fmt_speedup(Some(751.4)), "751x");
        assert_eq!(fmt_speedup(Some(1.42)), "1.4x");
        assert_eq!(fmt_speedup(None), "n/a");
    }
}
