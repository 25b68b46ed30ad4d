//! # psa-analyses — the target-independent design-flow task repository
//!
//! Implements the **T-INDEP** tasks from the paper's Fig. 4 (classification
//! letters as in the paper — A = analysis, T = transform; ⚡ = dynamic,
//! requires program execution):
//!
//! | Paper task                         | Kind  | Module          |
//! |------------------------------------|-------|-----------------|
//! | Identify Hotspot Loops             | A ⚡  | [`hotspot`]     |
//! | Hotspot Loop Extraction            | T     | [`hotspot`] (delegates to `psa-artisan`) |
//! | Pointer Analysis                   | A ⚡  | [`alias`]       |
//! | Arithmetic Intensity Analysis      | A     | [`intensity`]   |
//! | Data In/Out Analysis               | A ⚡  | [`datamove`]    |
//! | Loop Dependence Analysis           | A     | [`deps`]        |
//! | Loop Trip-Count Analysis           | A ⚡  | [`tripcount`]   |
//! | Remove Array `+=` Dependency       | T     | `psa-artisan::transforms::reduction` |
//!
//! [`analyze_kernel`] bundles all kernel-scoped analyses into one
//! [`KernelAnalysis`] record — the evidence the PSA strategy at branch
//! point A consumes (paper Fig. 3). For a kernel just extracted from the
//! hottest loop, [`analyze_outlined`] builds the same record from what the
//! hotspot detection run observed inside that loop, so a flow executes the
//! program once, not twice.

pub mod alias;
pub mod datamove;
pub mod deps;
pub mod hotspot;
pub mod intensity;
pub mod tripcount;

use hotspot::HotLoopWindow;
use psa_evalcache::{CacheKey, EvalCache, KeyBuilder};
use psa_interp::{Memory, Profile, ProfiledRun, RunConfig};
use psa_minicpp::Module;
use std::sync::Arc;

/// Aggregated evidence about an extracted kernel, produced by running every
/// target-independent analysis.
#[derive(Debug, Clone)]
pub struct KernelAnalysis {
    /// Kernel function name.
    pub kernel: String,
    /// Dynamic pointer-alias verdict.
    pub alias: alias::AliasReport,
    /// Static arithmetic intensity (FLOPs/byte).
    pub intensity: intensity::IntensityReport,
    /// Dynamic data movement requirements.
    pub data: datamove::DataMovementReport,
    /// Static per-loop dependence structure.
    pub deps: deps::DependenceReport,
    /// Dynamic per-loop trip counts.
    pub trips: tripcount::TripCountReport,
    /// Single-thread CPU virtual cycles spent in the kernel (reference
    /// execution) — the `T_CPU` the PSA offload test compares against.
    pub kernel_cycles: u64,
    /// Dynamic FLOPs observed in the kernel.
    pub kernel_flops: u64,
    /// Bytes loaded inside the kernel (access traffic, not footprint).
    pub kernel_bytes_loaded: u64,
    /// Bytes stored inside the kernel.
    pub kernel_bytes_stored: u64,
}

impl KernelAnalysis {
    /// Total kernel memory traffic in bytes.
    pub fn kernel_bytes(&self) -> u64 {
        self.kernel_bytes_loaded + self.kernel_bytes_stored
    }

    /// Dynamic arithmetic intensity (cross-check for the static report).
    pub fn dynamic_intensity(&self) -> f64 {
        if self.kernel_bytes() == 0 {
            f64::INFINITY
        } else {
            self.kernel_flops as f64 / self.kernel_bytes() as f64
        }
    }
}

/// Errors any analysis can raise.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The program failed to execute (dynamic analyses run it).
    Runtime(String),
    /// The requested function/loop does not exist.
    NotFound(String),
    /// A structural precondition failed.
    Structure(String),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Runtime(m) => write!(f, "dynamic analysis failed to execute: {m}"),
            AnalysisError::NotFound(m) => write!(f, "not found: {m}"),
            AnalysisError::Structure(m) => write!(f, "structural error: {m}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<psa_interp::RuntimeError> for AnalysisError {
    fn from(e: psa_interp::RuntimeError) -> Self {
        AnalysisError::Runtime(e.to_string())
    }
}

/// Run every kernel-scoped analysis against `kernel` in `module`.
///
/// The module must contain a runnable `main` that calls the kernel (hotspot
/// extraction leaves the application in exactly this shape).
pub fn analyze_kernel(module: &Module, kernel: &str) -> Result<KernelAnalysis, AnalysisError> {
    if module.function(kernel).is_none() {
        return Err(AnalysisError::NotFound(format!("function `{kernel}`")));
    }
    // One watched run serves every dynamic analysis.
    let run = dynamic_run(module, kernel)?;
    aggregate(module, kernel, &run.profile, &run.memory)
}

/// Cached variant of [`analyze_kernel`].
///
/// Addressed by the module's structural fingerprint plus the kernel name,
/// so the record is shared by every flow instance analysing the same
/// program state — the engine's parallel branch paths and the bench
/// harness's informed/uninformed pair all hit one entry. On a miss the
/// underlying profiled execution itself goes through the cache
/// ([`psa_interp::run_profiled_cached`]), so even a partially warm cache
/// skips the expensive interpreter run.
pub fn analyze_kernel_cached(
    module: &Module,
    kernel: &str,
    cache: &EvalCache,
) -> Result<Arc<KernelAnalysis>, AnalysisError> {
    if module.function(kernel).is_none() {
        return Err(AnalysisError::NotFound(format!("function `{kernel}`")));
    }
    cache.try_get_or_compute(kernel_key(module, kernel), || {
        let run = dynamic_run_cached(module, kernel, cache)?;
        aggregate(module, kernel, &run.profile, &run.memory)
    })
}

/// Build `kernel`'s record without executing the program: `module` is the
/// module right after extracting the hottest loop of a hotspot report into
/// `kernel`, and `window` is what that report's detection run observed
/// inside the loop. The record is identical to [`analyze_kernel`]'s
/// (errors included): the window holds exactly what a watch of the
/// outlined kernel records, and the static analyses read `module`.
pub fn analyze_outlined(
    module: &Module,
    kernel: &str,
    window: &HotLoopWindow,
) -> Result<KernelAnalysis, AnalysisError> {
    if module.function(kernel).is_none() {
        return Err(AnalysisError::NotFound(format!("function `{kernel}`")));
    }
    if window.data.calls == 0 {
        return Err(never_called(kernel));
    }
    assemble(
        module,
        kernel,
        window.alias.clone(),
        window.data.clone(),
        tripcount::from_stats(module, kernel, &window.loops),
        [
            window.cycles,
            window.flops,
            window.bytes_loaded,
            window.bytes_stored,
        ],
    )
}

/// Cached variant of [`analyze_outlined`], under [`analyze_kernel_cached`]'s
/// address: the records are identical, so either fills the entry the other
/// reads.
pub fn analyze_outlined_cached(
    module: &Module,
    kernel: &str,
    window: &HotLoopWindow,
    cache: &EvalCache,
) -> Result<Arc<KernelAnalysis>, AnalysisError> {
    if module.function(kernel).is_none() {
        return Err(AnalysisError::NotFound(format!("function `{kernel}`")));
    }
    cache.try_get_or_compute(kernel_key(module, kernel), || {
        analyze_outlined(module, kernel, window)
    })
}

/// The cache address of `kernel`'s record in `module`.
fn kernel_key(module: &Module, kernel: &str) -> CacheKey {
    KeyBuilder::new("analyses/kernel")
        .u64(psa_minicpp::module_fingerprint(module))
        .str(kernel)
        .finish()
}

/// Build the aggregated record from a completed watched execution.
fn aggregate(
    module: &Module,
    kernel: &str,
    profile: &Profile,
    memory: &Memory,
) -> Result<KernelAnalysis, AnalysisError> {
    assemble(
        module,
        kernel,
        alias::analyze_from_run(profile),
        datamove::analyze_from_run(profile, memory),
        tripcount::analyze_from_run(module, kernel, profile),
        [
            profile.kernel_cycles,
            profile.kernel_flops,
            profile.kernel_bytes_loaded,
            profile.kernel_bytes_stored,
        ],
    )
}

/// Join the dynamic reports and the kernel's cycles, FLOPs, bytes loaded
/// and bytes stored with the static analyses of `module`.
fn assemble(
    module: &Module,
    kernel: &str,
    alias: alias::AliasReport,
    data: datamove::DataMovementReport,
    trips: tripcount::TripCountReport,
    [cycles, flops, loaded, stored]: [u64; 4],
) -> Result<KernelAnalysis, AnalysisError> {
    let intensity = intensity::analyze(module, kernel)?;
    let deps = deps::analyze(module, kernel)?;
    Ok(KernelAnalysis {
        kernel: kernel.to_string(),
        alias,
        intensity,
        data,
        deps,
        trips,
        kernel_cycles: cycles,
        kernel_flops: flops,
        kernel_bytes_loaded: loaded,
        kernel_bytes_stored: stored,
    })
}

fn never_called(kernel: &str) -> AnalysisError {
    AnalysisError::Structure(format!(
        "`main` never called kernel `{kernel}`; dynamic analyses have nothing to observe"
    ))
}

/// The artefacts of one watched execution, shared by the dynamic analyses.
pub struct DynamicRun {
    pub profile: psa_interp::Profile,
    pub memory: psa_interp::Memory,
}

/// Execute `main` with `kernel` watched.
pub fn dynamic_run(module: &Module, kernel: &str) -> Result<DynamicRun, AnalysisError> {
    let config = psa_interp::RunConfig {
        watch_function: Some(kernel.to_string()),
        ..Default::default()
    };
    let run = psa_interp::run_main_profiled(module, config)?;
    let (profile, memory) = (run.profile, run.memory);
    if profile.kernel_calls == 0 {
        return Err(never_called(kernel));
    }
    Ok(DynamicRun { profile, memory })
}

/// Cached variant of [`dynamic_run`]: the watched execution is memoized in
/// `cache` via [`psa_interp::run_profiled_cached`], keyed by the module
/// fingerprint and the run configuration.
pub fn dynamic_run_cached(
    module: &Module,
    kernel: &str,
    cache: &EvalCache,
) -> Result<Arc<ProfiledRun>, AnalysisError> {
    let config = RunConfig {
        watch_function: Some(kernel.to_string()),
        ..Default::default()
    };
    let run = psa_interp::run_profiled_cached(module, config, cache)?;
    if run.profile.kernel_calls == 0 {
        return Err(never_called(kernel));
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_minicpp::parse_module;

    const APP: &str = "void knl(double* a, double* b, int n) {\
        for (int i = 0; i < n; i++) { b[i] = sqrt(a[i]) * 2.0; }\
      }\
      int main() {\
        int n = 64;\
        double* a = alloc_double(n);\
        double* b = alloc_double(n);\
        fill_random(a, n, 11);\
        knl(a, b, n);\
        return 0;\
      }";

    #[test]
    fn analyze_kernel_aggregates_all_reports() {
        let m = parse_module(APP, "t").unwrap();
        let k = analyze_kernel(&m, "knl").unwrap();
        assert_eq!(k.kernel, "knl");
        assert!(!k.alias.may_alias);
        assert!(k.kernel_cycles > 0);
        assert!(k.intensity.flops_per_byte > 0.0);
        assert_eq!(k.data.calls, 1);
        assert_eq!(k.deps.loops.len(), 1);
        assert!(k.deps.loops[0].parallel);
    }

    #[test]
    fn missing_kernel_is_reported() {
        let m = parse_module(APP, "t").unwrap();
        assert!(matches!(
            analyze_kernel(&m, "nope"),
            Err(AnalysisError::NotFound(_))
        ));
    }

    #[test]
    fn cached_analysis_matches_uncached_and_hits_on_reuse() {
        let m = parse_module(APP, "t").unwrap();
        let cache = EvalCache::new();
        let uncached = analyze_kernel(&m, "knl").unwrap();
        let first = analyze_kernel_cached(&m, "knl", &cache).unwrap();
        // Identical record via either path (Debug form covers every field).
        assert_eq!(format!("{uncached:?}"), format!("{first:?}"));
        let warm = cache.stats();
        let second = analyze_kernel_cached(&m, "knl", &cache).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second lookup is a hit");
        assert_eq!(cache.stats().since(&warm).misses, 0);
        assert!(cache.stats().hits > warm.hits);
    }

    #[test]
    fn structurally_different_modules_do_not_share_entries() {
        let m1 = parse_module(APP, "t").unwrap();
        // Same program scaled differently: n = 32 instead of 64.
        let m2 = parse_module(&APP.replace("int n = 64;", "int n = 32;"), "t").unwrap();
        let cache = EvalCache::new();
        let a1 = analyze_kernel_cached(&m1, "knl", &cache).unwrap();
        let a2 = analyze_kernel_cached(&m2, "knl", &cache).unwrap();
        assert_ne!(a1.kernel_cycles, a2.kernel_cycles);
        assert_eq!(cache.stats().hits, 0, "distinct content, distinct keys");
    }

    #[test]
    fn outlined_record_fills_the_kernel_entry_without_a_run() {
        use psa_artisan::transforms::extract::extract_kernel;
        let src =
            "int main() { int n = 64; double* a = alloc_double(n); double* b = alloc_double(n);\
                   fill_random(a, n, 11);\
                   for (int i = 0; i < n; i++) { b[i] = sqrt(a[i]) * 2.0; }\
                   return 0; }";
        let mut m = parse_module(src, "t").unwrap();
        let report = hotspot::detect_hotspots(&m).unwrap();
        extract_kernel(&mut m, report.hottest().unwrap().stmt_id, "knl").unwrap();
        let window = report.hottest_window.as_ref().expect("hot loop observed");
        let cache = EvalCache::new();
        let derived = analyze_outlined_cached(&m, "knl", window, &cache).unwrap();
        let warm = cache.stats();
        let record = analyze_kernel_cached(&m, "knl", &cache).unwrap();
        assert!(Arc::ptr_eq(&derived, &record), "one entry serves both");
        assert_eq!(cache.stats().since(&warm).misses, 0, "no profiled run");
        assert_eq!(
            format!("{:?}", *record),
            format!("{:?}", analyze_kernel(&m, "knl").unwrap())
        );
    }

    #[test]
    fn uncalled_kernel_is_a_structure_error() {
        let src = "void knl(double* a) { a[0] = 1.0; } int main() { return 0; }";
        let m = parse_module(src, "t").unwrap();
        assert!(matches!(
            analyze_kernel(&m, "knl"),
            Err(AnalysisError::Structure(_))
        ));
    }
}
