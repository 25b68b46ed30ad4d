//! # psa-obs — the observability layer
//!
//! Every other crate in the workspace reports *what happened* through this
//! one: the flow engine's task/branch/path spans, the evaluation cache's
//! hit/miss/eviction counts, the VM's dispatch and call totals, the DSE
//! sweeps' evaluation counts and the platform models' estimate calls. The
//! crate has three parts:
//!
//! * [`registry`] — a thread-safe [`MetricsRegistry`] of atomic counters,
//!   gauges and log-scale histograms with labels, plus a Prometheus
//!   text-exposition writer;
//! * [`perfetto`] — a Chrome `trace_event` builder ([`perfetto::TraceBuilder`])
//!   serialising begin/end spans and instant events into a
//!   `chrome://tracing` / Perfetto-loadable JSON file;
//! * [`json`] — a minimal JSON reader and writer: the parser tests use to
//!   validate the emitted artefacts, and the one string escaper and value
//!   renderer the emitters share (the workspace has no JSON library).
//!
//! ## Pay-for-what-you-use
//!
//! Metrics recording is globally gated by [`set_enabled`]: the instrumented
//! seams call the guarded helpers ([`counter_add`], [`gauge_set`],
//! [`observe`]) which cost exactly **one relaxed atomic load** when
//! observability is off. Nothing else — no allocation, no lock, no label
//! formatting — happens until a consumer (a `--metrics-out` flag, a test)
//! turns the registry on. The `interp_throughput` benchmark regression gate
//! in CI holds this guarantee honest.

pub mod json;
pub mod perfetto;
pub mod recorder;
pub mod registry;
pub mod span;

pub use registry::{Counter, Gauge, Histogram, MetricsRegistry};
pub use span::SpanCtx;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn global metrics recording on or off (off by default). The seams
/// keep their instrumentation dormant until this is flipped on.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the guarded helpers currently record anything.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide registry the guarded helpers record into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Add `n` to the global counter `name{labels}` — a no-op (one relaxed
/// load) while observability is disabled.
#[inline]
pub fn counter_add(name: &'static str, labels: &[(&str, &str)], n: u64) {
    if enabled() {
        global().counter(name, labels).add(n);
    }
}

/// Set the global gauge `name{labels}` — a no-op while disabled.
#[inline]
pub fn gauge_set(name: &'static str, labels: &[(&str, &str)], v: f64) {
    if enabled() {
        global().gauge(name, labels).set(v);
    }
}

/// Record `v` into the global log-scale histogram `name{labels}` — a no-op
/// while disabled.
#[inline]
pub fn observe(name: &'static str, labels: &[(&str, &str)], v: u64) {
    if enabled() {
        global().histogram(name, labels).observe(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_helpers_are_inert_until_enabled() {
        // Uses throwaway metric names so the global registry state cannot
        // collide with other tests (tests run in one process).
        counter_add("obs_test_inert_total", &[], 5);
        assert_eq!(global().counter("obs_test_inert_total", &[]).get(), 0);
        set_enabled(true);
        counter_add("obs_test_inert_total", &[], 5);
        set_enabled(false);
        assert_eq!(global().counter("obs_test_inert_total", &[]).get(), 5);
    }
}
