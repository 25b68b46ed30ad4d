//! Observability artefact output for the experiment binaries.
//!
//! Every binary accepts four optional flags:
//!
//! * `--trace-out=<path>` — arm the flight recorder and write its Perfetto
//!   / Chrome `trace_event` timeline there on exit: one process per flow
//!   root span, one track per worker thread, one `B`/`E` pair per span
//!   (load in <https://ui.perfetto.dev> or `chrome://tracing`), plus one
//!   `vmprof` process per benchmark app when profiling too;
//! * `--metrics-out=<path>` — the process-global metrics registry in
//!   Prometheus text exposition format;
//! * `--profile-out=<path>` — collapsed-stack (flamegraph) text from VM
//!   frame-profiled runs of the five benchmark applications;
//! * `--recorder-dump=<path>` — arm the flight recorder and write its
//!   forensic bundle (triggers, span table, per-worker event rings,
//!   embedded Perfetto timeline) there on exit — immediately on a flow
//!   failure, or after the last run on success.
//!
//! Both the trace and the bundle render the timeline through
//! [`psa_obs::recorder::timeline`]. All four write to files only: **stdout
//! is byte-identical with and without the flags** (CI diffs the two).
//! Metrics collection is enabled lazily — without `--metrics-out` the
//! registry stays off and every instrumentation site costs a single
//! relaxed atomic load; the flight recorder has its own independent gate,
//! armed by `--trace-out` or `--recorder-dump`.

use psa_interp::{run_main_profiled_vm_with_profile, RunConfig, VmProfile};
use psa_obs::perfetto::ArgValue;
use psa_obs::recorder;
use std::path::PathBuf;

/// The parsed observability flags.
#[derive(Debug, Default)]
pub struct ObsArgs {
    pub trace_out: Option<PathBuf>,
    pub metrics_out: Option<PathBuf>,
    pub profile_out: Option<PathBuf>,
    pub recorder_dump: Option<PathBuf>,
}

impl ObsArgs {
    /// Parse the flags from `std::env::args`. Must run before any flow
    /// executes: requesting metrics turns the global registry on.
    pub fn parse() -> Self {
        let mut out = ObsArgs::default();
        for arg in std::env::args() {
            if let Some(p) = arg.strip_prefix("--trace-out=") {
                out.trace_out = Some(p.into());
            } else if let Some(p) = arg.strip_prefix("--metrics-out=") {
                out.metrics_out = Some(p.into());
            } else if let Some(p) = arg.strip_prefix("--profile-out=") {
                out.profile_out = Some(p.into());
            } else if let Some(p) = arg.strip_prefix("--recorder-dump=") {
                out.recorder_dump = Some(p.into());
            }
        }
        if out.metrics_out.is_some() {
            psa_obs::set_enabled(true);
        }
        if let Some(path) = &out.recorder_dump {
            recorder::set_dump_path(Some(path.clone()));
        }
        if out.trace_out.is_some() || out.recorder_dump.is_some() {
            recorder::set_enabled(true);
        }
        out
    }

    /// Write every requested artefact. Binaries that run no flows still
    /// produce valid (empty) ones.
    pub fn write_artifacts(&self) -> std::io::Result<()> {
        // Snapshot before the profiling runs below, so the timeline holds
        // only the binary's own flows.
        let timeline = self
            .trace_out
            .is_some()
            .then(|| recorder::timeline(&recorder::snapshot()));
        let profiles = if self.profile_out.is_some() {
            benchmark_profiles()
        } else {
            Vec::new()
        };

        if let (Some(path), Some(mut tb)) = (&self.trace_out, timeline) {
            // When profiling too, attach each app's per-frame self/total
            // table as instant events on its own process.
            for (i, (app, profile)) in profiles.iter().enumerate() {
                let pid = 1000 + i as u32;
                tb.process_name(pid, &format!("vmprof {app}"));
                tb.thread_name(pid, 0, "frames");
                for (j, row) in profile.rows.iter().enumerate() {
                    tb.instant(
                        pid,
                        0,
                        j as u64,
                        &row.name,
                        vec![
                            ("self_cycles".into(), ArgValue::from(row.self_cycles)),
                            ("total_cycles".into(), ArgValue::from(row.total_cycles)),
                            ("self_wall_ns".into(), ArgValue::from(row.self_wall_ns)),
                            ("entries".into(), ArgValue::from(row.entries)),
                        ],
                    );
                }
            }
            std::fs::write(path, tb.to_json())?;
        }

        if let Some(path) = &self.profile_out {
            let mut out = String::new();
            for (_, profile) in &profiles {
                out.push_str(&profile.collapsed_text());
            }
            std::fs::write(path, out)?;
        }

        if let Some(path) = &self.metrics_out {
            std::fs::write(path, psa_obs::global().render_prometheus())?;
        }

        if self.recorder_dump.is_some() {
            recorder::flush_dump()?;
        }
        Ok(())
    }
}

/// Run every benchmark application once on the frame-profiled VM. Profiles
/// key each collapsed stack's root by the app name.
fn benchmark_profiles() -> Vec<(String, VmProfile)> {
    psa_benchsuite::all()
        .iter()
        .filter_map(|b| {
            let module = psa_minicpp::parse_module(&b.source, &b.key).ok()?;
            run_main_profiled_vm_with_profile(&module, RunConfig::default())
                .ok()
                .map(|(_, vp)| (b.key.clone(), vp))
        })
        .collect()
}
