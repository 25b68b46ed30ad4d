//! Reference outputs every measured run is checked against.
//!
//! A sweep's reference is the same sweep on the sequential engine with the
//! cache disabled, whose informed targets must also be the paper's. A
//! served job's reference is an offline `run_flow_job` of the same spec.

use psa_bench::MeasuredRow;
use psa_benchsuite::paper::PaperTarget;
use psa_serve::JobSpec;
use psaflow_core::{
    EvalCache, FailurePolicy, FlowEngine, FlowJob, FlowOutcome, PsaParams, TargetKind,
};
use std::sync::Arc;

/// Flows in one sweep: every benchmark, uninformed and informed.
pub const FLOWS_PER_SWEEP: u64 = 10;

pub type Sweep = Result<Vec<(MeasuredRow, FlowOutcome)>, String>;

pub struct SweepOracle {
    rows: Vec<String>,
    logs: Vec<Vec<String>>,
    targets: Vec<Option<TargetKind>>,
}

impl SweepOracle {
    pub fn build() -> Result<SweepOracle, String> {
        let reference = psa_bench::run_all_cached_on(
            FlowEngine::sequential(),
            Arc::new(EvalCache::disabled()),
        )?;
        for (row, _) in &reference {
            let paper = psa_benchsuite::paper::fig5_row(&row.key)
                .ok_or_else(|| format!("{}: no Fig. 5 row", row.key))?;
            let selected = row.selected_target.map(|t| match t {
                TargetKind::MultiThreadCpu => PaperTarget::MultiThreadCpu,
                TargetKind::CpuGpu => PaperTarget::CpuGpu,
                TargetKind::CpuFpga => PaperTarget::CpuFpga,
            });
            if selected != Some(paper.target) {
                return Err(format!(
                    "{}: informed flow selected {selected:?}, the paper {:?}",
                    row.key, paper.target
                ));
            }
        }
        Ok(SweepOracle {
            rows: reference.iter().map(|(r, _)| format!("{r:?}")).collect(),
            targets: reference.iter().map(|(r, _)| r.selected_target).collect(),
            logs: reference.into_iter().map(|(_, o)| o.log).collect(),
        })
    }

    /// Flows of `sweep` whose output differs from the reference. A
    /// benchmark's row carries both of its flows, so a differing row or
    /// log counts both.
    pub fn mismatched_flows(&self, sweep: &Sweep) -> u64 {
        let Ok(rows) = sweep else {
            return FLOWS_PER_SWEEP;
        };
        if rows.len() != self.rows.len() {
            return FLOWS_PER_SWEEP;
        }
        let per_bench = FLOWS_PER_SWEEP / self.rows.len() as u64;
        rows.iter()
            .zip(self.rows.iter().zip(&self.logs))
            .filter(|((row, outcome), (want_row, want_log))| {
                format!("{row:?}") != **want_row || outcome.log != **want_log
            })
            .count() as u64
            * per_bench
    }

    /// The reference uninformed log of the `i`th benchmark.
    pub fn log(&self, i: usize) -> &[String] {
        &self.logs[i]
    }

    /// The reference informed target of the `i`th benchmark.
    pub fn target(&self, i: usize) -> Option<TargetKind> {
        self.targets[i]
    }
}

/// Source, app name and parameters of a served job, resolved exactly as
/// the server resolves them.
pub fn job_program(spec: &JobSpec) -> Result<(String, PsaParams), String> {
    match (&spec.bench, &spec.source) {
        (Some(key), None) => {
            let b =
                psa_benchsuite::by_key(key).ok_or_else(|| format!("unknown benchmark {key}"))?;
            Ok((b.source.clone(), psa_bench::params_for(&b)))
        }
        (None, Some(src)) => Ok((src.clone(), PsaParams::default())),
        _ => Err(format!("job {} names no single program", spec.id)),
    }
}

/// Run a served job's spec offline on `cache` and return its outcome.
pub fn offline(spec: &JobSpec, cache: Arc<EvalCache>) -> Result<FlowOutcome, String> {
    let (source, params) = job_program(spec)?;
    let policy = FailurePolicy::parse(&spec.policy)?;
    psaflow_core::run_flow_job(
        FlowEngine::sequential().with_policy(policy),
        FlowJob {
            source: &source,
            app_name: spec.app_name(),
            mode: spec.mode,
            params,
            cache,
            faults: None,
            span_root: None,
            cancel: None,
        },
    )
    .map_err(|e| format!("job {}: {e}", spec.id))
}

/// The rendered reference outcome of a served job (cache disabled).
pub fn offline_render(spec: &JobSpec) -> Result<String, String> {
    offline(spec, Arc::new(EvalCache::disabled())).map(|o| psa_serve::render_outcome(&o))
}
