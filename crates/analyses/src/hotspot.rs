//! Hotspot loop identification and extraction — the partitioning stage.
//!
//! "Hotspot detection instruments the application with loop timers and
//! executes the instrumented code to dynamically identify time-consuming
//! loops as candidates for acceleration." (§II-B)
//!
//! The paper instruments because Artisan measures native code. Here the
//! interpreter's virtual clock already records inclusive cycles for every
//! loop on every run ([`psa_interp::Profile::loop_stats`]), so the detector
//! executes the program once, uninstrumented, and ranks the candidate loops
//! by those statistics. Timer probes would charge no cycles, so the ranking
//! and the shares are the ones timers would measure: the mechanism departs
//! from the paper, its results do not.
//!
//! The same run watches every candidate loop ([`psa_interp::loopwatch`]).
//! The report keeps what the run observed inside the hottest loop — a
//! [`HotLoopWindow`] — so the dynamic analyses of the kernel that
//! extracting that loop produces follow without running the program again
//! ([`crate::analyze_outlined`]).

use crate::alias::{self, AliasReport};
use crate::datamove::{self, DataMovementReport};
use crate::AnalysisError;
use psa_artisan::query::{self, LoopMatch};
use psa_artisan::sym::function_symbols;
use psa_artisan::transforms::extract::{extract_kernel, ExtractedKernel};
use psa_interp::{LoopStats, LoopWatch, LoopWindow, ProfiledRun, RunConfig, Value, WatchedLoop};
use psa_minicpp::ast::StmtKind;
use psa_minicpp::{Module, NodeId};
use std::sync::Arc;

/// One timed candidate loop.
#[derive(Debug, Clone)]
pub struct HotspotCandidate {
    /// Statement id of the loop in the *original* module.
    pub stmt_id: NodeId,
    /// Function containing the loop.
    pub function: String,
    /// Induction variable (for human-readable reports).
    pub var: String,
    /// Virtual cycles measured inside the loop.
    pub cycles: u64,
    /// Fraction of whole-program cycles.
    pub share: f64,
}

/// What the detection run observed inside the hottest loop: the dynamic
/// facts a function watch of the kernel that outlines the loop would
/// record.
#[derive(Debug, Clone)]
pub struct HotLoopWindow {
    /// Virtual cycles inside the loop.
    pub cycles: u64,
    /// FLOPs inside the loop.
    pub flops: u64,
    /// Bytes loaded inside the loop.
    pub bytes_loaded: u64,
    /// Bytes stored inside the loop.
    pub bytes_stored: u64,
    /// The alias verdict over the loop's free pointer variables at each
    /// entry (the outlined kernel's pointer arguments).
    pub alias: AliasReport,
    /// The loop's data movement; `calls` counts its entries.
    pub data: DataMovementReport,
    /// Statistics of the loop and the loops nested in it, in source order.
    pub loops: Vec<LoopStats>,
}

/// The hotspot detection report: candidates sorted hottest-first.
#[derive(Debug, Clone)]
pub struct HotspotReport {
    pub candidates: Vec<HotspotCandidate>,
    /// Total program cycles of the detection run.
    pub total_cycles: u64,
    /// What the run observed inside the hottest candidate. `None` without
    /// candidates, or when the observation cannot stand in for a watch of
    /// the outlined kernel: the loop was entered while another observed
    /// loop (or itself) was running, or a pointer it would pass to the
    /// kernel was out of scope or not a pointer at entry. Shared, so flow
    /// contexts that fork copy a pointer, not the reports.
    pub hottest_window: Option<Arc<HotLoopWindow>>,
}

impl HotspotReport {
    /// The hottest loop, if any loops were found.
    pub fn hottest(&self) -> Option<&HotspotCandidate> {
        self.candidates.first()
    }
}

impl HotLoopWindow {
    /// Condense the detection run's record of candidate `hot` (watched
    /// with `pointers`). Returns `None` when the record differs from what
    /// watching the outlined kernel would observe: the loop was entered
    /// while a watched window was open (through recursion, or from inside
    /// another candidate), so some entries went unrecorded and the kernel's
    /// own call charges would differ; or a pointer variable was out of
    /// scope or held no pointer at entry, where passing it to the kernel
    /// would fail.
    fn observe(
        module: &Module,
        hot: &LoopMatch,
        pointers: usize,
        window: &LoopWindow,
        run: &ProfiledRun,
    ) -> Option<Arc<HotLoopWindow>> {
        if window.nested > 0 {
            return None;
        }
        let calls = window
            .pointers
            .iter()
            .map(|values| {
                let ptrs: Vec<_> = values
                    .iter()
                    .filter_map(|(name, v)| match v {
                        Value::Ptr(p) => Some((name.clone(), *p)),
                        _ => None,
                    })
                    .collect();
                (ptrs.len() == pointers).then_some(ptrs)
            })
            .collect::<Option<Vec<_>>>()?;
        let memory = &run.memory;
        let touched = window.access.iter().map(|(&id, &range)| {
            (
                memory.buffer(id).label.as_str(),
                memory.elem_bytes(id),
                range,
            )
        });
        let loops = query::loops(module, |l| l.id == hot.id || l.ancestors.contains(&hot.id))
            .iter()
            .map(|l| {
                run.profile
                    .loop_stats
                    .get(&l.id)
                    .copied()
                    .unwrap_or_default()
            })
            .collect();
        Some(Arc::new(HotLoopWindow {
            cycles: window.cycles,
            flops: window.flops,
            bytes_loaded: window.bytes_loaded,
            bytes_stored: window.bytes_stored,
            alias: alias::analyze_calls(&calls),
            data: datamove::from_accesses(touched, window.windows),
            loops,
        }))
    }
}

/// Free variables of candidate `c` that the outlined kernel would take as
/// pointer parameters, in parameter order.
fn pointer_parameters(module: &Module, c: &LoopMatch) -> Vec<String> {
    let Some(func) = module.function(&c.function) else {
        return Vec::new();
    };
    let Some(StmtKind::For(l)) = query::find_stmt(module, c.stmt_id).map(|s| &s.kind) else {
        return Vec::new();
    };
    let symbols = function_symbols(module, func);
    query::free_variables(module, l)
        .into_iter()
        .filter(|name| symbols.get(name).is_some_and(|ty| ty.is_pointer()))
        .collect()
}

/// Execute the program once with every outermost loop outside
/// already-extracted kernels watched, and rank those loops by their
/// inclusive virtual cycles.
///
/// Only *outermost* loops are candidates: the paper extracts a whole hotspot
/// region, and an inner loop's time is already included in its parent's.
pub fn detect_hotspots(module: &Module) -> Result<HotspotReport, AnalysisError> {
    // Candidates: outermost loops in any function (typically `main`), except
    // functions already marked as kernels.
    let kernels: Vec<String> = module
        .items
        .iter()
        .filter_map(|item| match item {
            psa_minicpp::Item::Function(f)
                if f.pragmas.iter().any(|p| p.text.trim() == "psa kernel") =>
            {
                Some(f.name.clone())
            }
            _ => None,
        })
        .collect();
    let candidates = query::loops(module, |l| l.is_outermost && !kernels.contains(&l.function));
    if candidates.is_empty() {
        return Ok(HotspotReport {
            candidates: Vec::new(),
            total_cycles: 0,
            hottest_window: None,
        });
    }

    let watch = LoopWatch {
        loops: candidates
            .iter()
            .map(|c| WatchedLoop {
                id: c.id,
                pointers: pointer_parameters(module, c),
            })
            .collect(),
    };
    let run = psa_interp::run_main_watching_loops(module, RunConfig::default(), &watch)?;
    let total_cycles = run.profile.total_cycles;

    let mut ranked: Vec<(usize, HotspotCandidate)> = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let cycles = run.profile.loop_stats.get(&c.id).map_or(0, |s| s.cycles);
            let candidate = HotspotCandidate {
                stmt_id: c.stmt_id,
                function: c.function.clone(),
                var: c.var.clone(),
                cycles,
                share: if total_cycles == 0 {
                    0.0
                } else {
                    cycles as f64 / total_cycles as f64
                },
            };
            (i, candidate)
        })
        .collect();
    ranked.sort_by(|(_, a), (_, b)| b.cycles.cmp(&a.cycles).then(a.stmt_id.cmp(&b.stmt_id)));
    let hot = ranked[0].0;
    let hottest_window = HotLoopWindow::observe(
        module,
        &candidates[hot],
        watch.loops[hot].pointers.len(),
        &run.profile.loop_windows[hot],
        &run,
    );
    Ok(HotspotReport {
        candidates: ranked.into_iter().map(|(_, c)| c).collect(),
        total_cycles,
        hottest_window,
    })
}

/// Cached variant of [`detect_hotspots`], addressed by the module's
/// structural fingerprint. The detection run is skipped entirely on a hit;
/// only the ranked report (with the hottest loop's window) is stored.
pub fn detect_hotspots_cached(
    module: &Module,
    cache: &psa_evalcache::EvalCache,
) -> Result<Arc<HotspotReport>, AnalysisError> {
    let key = psa_evalcache::KeyBuilder::new("analyses/hotspots")
        .u64(psa_minicpp::module_fingerprint(module))
        .finish();
    cache.try_get_or_compute(key, || detect_hotspots(module))
}

/// Detect the hottest loop and extract it into `kernel_name`, mutating
/// `module` in place. Returns the extraction record and the detection
/// report.
pub fn detect_and_extract(
    module: &mut Module,
    kernel_name: &str,
) -> Result<(ExtractedKernel, HotspotReport), AnalysisError> {
    let report = detect_hotspots(module)?;
    let hottest = report
        .hottest()
        .ok_or_else(|| AnalysisError::Structure("no candidate loops found".into()))?;
    let extracted = extract_kernel(module, hottest.stmt_id, kernel_name)
        .map_err(|e| AnalysisError::Structure(e.to_string()))?;
    Ok((extracted, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_minicpp::{parse_module, print_module};

    /// Two loops: a cold init loop and a hot O(n²) loop.
    const APP: &str = "int main() {\
        int n = 48;\
        double* a = alloc_double(n);\
        double* b = alloc_double(n);\
        for (int i = 0; i < n; i++) { a[i] = (double)i; }\
        for (int i = 0; i < n; i++) {\
          for (int j = 0; j < n; j++) { b[i] += a[j] * 0.5; }\
        }\
        return (int)b[0];\
      }";

    #[test]
    fn detects_the_quadratic_loop_as_hottest() {
        let m = parse_module(APP, "t").unwrap();
        let report = detect_hotspots(&m).unwrap();
        assert_eq!(
            report.candidates.len(),
            2,
            "only outermost loops are candidates"
        );
        let hottest = report.hottest().unwrap();
        // The hot loop dominates: > 90% of program time.
        assert!(hottest.share > 0.9, "share = {}", hottest.share);
        assert!(report.candidates[1].cycles < hottest.cycles / 10);
    }

    #[test]
    fn detection_does_not_mutate_the_module() {
        let m = parse_module(APP, "t").unwrap();
        let printed_before = print_module(&m);
        detect_hotspots(&m).unwrap();
        assert_eq!(print_module(&m), printed_before);
    }

    #[test]
    fn detect_and_extract_produces_runnable_module() {
        use psa_interp::{Interpreter, Value};
        let reference = {
            let m = parse_module(APP, "t").unwrap();
            Interpreter::new(&m, RunConfig::default())
                .run_main()
                .unwrap()
        };
        let mut m = parse_module(APP, "t").unwrap();
        let (k, _) = detect_and_extract(&mut m, "hotspot_knl").unwrap();
        assert_eq!(k.name, "hotspot_knl");
        let result = Interpreter::new(&m, RunConfig::default())
            .run_main()
            .unwrap();
        assert_eq!(reference, result);
        let Value::Int(_) = result else { panic!() };
        // The kernel function exists and contains the nest.
        let out = print_module(&m);
        assert!(out.contains("void hotspot_knl("), "{out}");
        assert!(
            out.contains("hotspot_knl(n, b, a);") || out.contains("hotspot_knl("),
            "{out}"
        );
    }

    #[test]
    fn second_round_skips_extracted_kernels() {
        let mut m = parse_module(APP, "t").unwrap();
        detect_and_extract(&mut m, "knl0").unwrap();
        let report = detect_hotspots(&m).unwrap();
        // Only main's remaining init loop is a candidate now.
        assert_eq!(report.candidates.len(), 1);
        assert_eq!(report.candidates[0].function, "main");
    }

    #[test]
    fn program_without_loops_yields_empty_report() {
        let m = parse_module("int main() { return 3; }", "t").unwrap();
        let report = detect_hotspots(&m).unwrap();
        assert!(report.candidates.is_empty());
        assert!(report.hottest().is_none());
    }
}
