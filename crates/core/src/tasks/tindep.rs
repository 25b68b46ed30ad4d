//! The `T-INDEP` task group: partitioning + target-independent analyses.

use super::{ensure_analysis, reanalyze};
use crate::context::FlowContext;
use crate::flow::FlowError;
use crate::ports::{ModulePorts, Port};
use crate::task::{Task, TaskClass, TaskInfo};
use psa_artisan::query;
use psa_artisan::transforms::reduction::{accumulation_sites, remove_array_accumulation};

/// "Identify Hotspot Loops" (A ⚡): execute the program once and rank the
/// candidate loops by their inclusive virtual cycles.
///
/// The paper times candidates with inserted probes because Artisan measures
/// native code; the interpreter records per-loop statistics on every run,
/// and probes would charge no cycles, so the ranking is the one they would
/// give. The same run watches the candidates, and the report keeps what it
/// observed inside the hottest one for [`HotspotLoopExtraction`].
pub struct IdentifyHotspotLoops;

impl Task for IdentifyHotspotLoops {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Identify Hotspot Loops", TaskClass::Analysis, true)
    }

    fn ports(&self) -> ModulePorts {
        ModulePorts::new()
            .reads(&[Port::Ast, Port::Params])
            .writes(&[Port::Hotspot])
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let report = psa_analyses::hotspot::detect_hotspots_cached(&ctx.ast.module, &ctx.cache)?;
        let report = (*report).clone();
        let Some(hottest) = report.hottest() else {
            return Err(FlowError::precondition(
                "application contains no candidate loops",
            ));
        };
        ctx.log(format!(
            "hotspot: loop over `{}` in `{}` takes {:.1}% of execution ({} candidates timed)",
            hottest.var,
            hottest.function,
            hottest.share * 100.0,
            report.candidates.len()
        ));
        ctx.hotspot = Some(report);
        Ok(())
    }
}

/// "Hotspot Loop Extraction" (T): outline the hottest loop into a kernel
/// function. The hotspot run observed the loop, so extraction also fills
/// the kernel's analysis record from that observation
/// ([`psa_analyses::analyze_outlined_cached`]) instead of leaving it to a
/// second execution. A hot loop the run never entered leaves the record
/// empty, and [`ComputeKernelAnalysis`] reports the failure as before.
pub struct HotspotLoopExtraction {
    /// Name for the new kernel function.
    pub kernel_name: String,
}

impl Task for HotspotLoopExtraction {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Hotspot Loop Extraction", TaskClass::Transform, false)
    }

    fn ports(&self) -> ModulePorts {
        // Writes `analysis`: outlining invalidates any prior record, and
        // the hotspot run's observation of the loop yields the new one.
        ModulePorts::new()
            .reads(&[Port::Ast, Port::Hotspot])
            .writes(&[Port::Ast, Port::Kernel, Port::Analysis])
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let report = ctx
            .hotspot
            .as_ref()
            .ok_or_else(|| FlowError::precondition("hotspot detection has not run"))?;
        let hottest = report
            .hottest()
            .ok_or_else(|| FlowError::precondition("no hotspot to extract"))?;
        let stmt_id = hottest.stmt_id;
        let window = report.hottest_window.clone();
        let extracted = psa_artisan::transforms::extract::extract_kernel(
            ctx.module_mut(),
            stmt_id,
            &self.kernel_name,
        )?;
        ctx.log(format!(
            "extracted hotspot into `{}({})`",
            extracted.name,
            extracted
                .params
                .iter()
                .map(|(n, t)| format!("{t} {n}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        ctx.analysis = match window.filter(|w| w.data.calls > 0) {
            Some(window) => Some(
                (*psa_analyses::analyze_outlined_cached(
                    &ctx.ast.module,
                    &extracted.name,
                    &window,
                    &ctx.cache,
                )?)
                .clone(),
            ),
            None => None,
        };
        ctx.kernel = Some(extracted.name);
        Ok(())
    }
}

/// "Compute Kernel Analysis" (A ⚡): materialise the bundled
/// target-independent analyses (and the single-thread reference time) for
/// the extracted kernel. Extraction has usually filled the record already
/// from the hotspot run; otherwise this runs the kernel watched. Records
/// no log lines of its own — the evidence tasks below render the findings
/// — but giving the computation its own graph node makes those evidence
/// tasks *read-only*, so a [`FlowGraph`] can fan them out concurrently.
///
/// [`FlowGraph`]: crate::graph::FlowGraph
pub struct ComputeKernelAnalysis;

impl Task for ComputeKernelAnalysis {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Compute Kernel Analysis", TaskClass::Analysis, true)
    }

    fn ports(&self) -> ModulePorts {
        ModulePorts::new()
            .reads(&[Port::Ast, Port::Kernel, Port::Params])
            .writes(&[Port::Analysis, Port::ReferenceTime])
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ensure_analysis(ctx)
    }
}

/// "Pointer Analysis" (A ⚡).
pub struct PointerAnalysis;

/// The evidence tasks' shared signature: they render findings from the
/// analysis record and write nothing. (Their `ensure_analysis` call is a
/// lazy materialisation of the declared `analysis` input — in a validated
/// graph an Analysis-writing ancestor such as [`ComputeKernelAnalysis`]
/// has already run, so it never fires.)
fn evidence_ports() -> ModulePorts {
    ModulePorts::new().reads(&[Port::Ast, Port::Kernel, Port::Analysis, Port::Params])
}

impl Task for PointerAnalysis {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Pointer Analysis", TaskClass::Analysis, true)
    }

    fn ports(&self) -> ModulePorts {
        evidence_ports()
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ensure_analysis(ctx)?;
        let alias = ctx.analysis()?.alias.clone();
        ctx.log(if alias.may_alias {
            format!(
                "pointer analysis: {} aliasing pair(s) observed",
                alias.pairs.len()
            )
        } else {
            format!(
                "pointer analysis: no aliasing across {} kernel call(s)",
                alias.calls_observed
            )
        });
        Ok(())
    }
}

/// "Arithmetic Intensity Analysis" (A).
pub struct ArithmeticIntensityAnalysis;

impl Task for ArithmeticIntensityAnalysis {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Arithmetic Intensity Analysis", TaskClass::Analysis, false)
    }

    fn ports(&self) -> ModulePorts {
        evidence_ports()
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ensure_analysis(ctx)?;
        let a = ctx.analysis()?;
        let (ai, dynamic) = (a.intensity.flops_per_byte, a.dynamic_intensity());
        let x = ctx.params.ai_threshold;
        ctx.log(format!(
            "arithmetic intensity: {ai:.3} FLOPs/B static ({dynamic:.3} dynamic) — {}",
            if ai < x {
                "memory-bound"
            } else {
                "compute-bound"
            }
        ));
        Ok(())
    }
}

/// "Data In/Out Analysis" (A ⚡).
pub struct DataInOutAnalysis;

impl Task for DataInOutAnalysis {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Data In/Out Analysis", TaskClass::Analysis, true)
    }

    fn ports(&self) -> ModulePorts {
        evidence_ports()
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ensure_analysis(ctx)?;
        let data = &ctx.analysis()?.data;
        let line = format!(
            "data movement: {} B in, {} B out across {} buffer(s)",
            data.total_bytes_in,
            data.total_bytes_out,
            data.buffers.len()
        );
        ctx.log(line);
        Ok(())
    }
}

/// "Loop Dependence Analysis" (A).
pub struct LoopDependenceAnalysis;

impl Task for LoopDependenceAnalysis {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Loop Dependence Analysis", TaskClass::Analysis, false)
    }

    fn ports(&self) -> ModulePorts {
        evidence_ports()
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ensure_analysis(ctx)?;
        let deps = &ctx.analysis()?.deps;
        let line = format!(
            "dependence: outer {}; {} inner dep loop(s){}",
            if deps.outer_parallel() {
                "parallel"
            } else {
                "NOT parallel"
            },
            deps.inner_loops_with_deps().len(),
            if deps.inner_deps_fully_unrollable(64) {
                " (fully unrollable)"
            } else {
                ""
            }
        );
        ctx.log(line);
        Ok(())
    }
}

/// "Loop Trip-Count Analysis" (A ⚡).
pub struct LoopTripCountAnalysis;

impl Task for LoopTripCountAnalysis {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Loop Trip-Count Analysis", TaskClass::Analysis, true)
    }

    fn ports(&self) -> ModulePorts {
        evidence_ports()
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ensure_analysis(ctx)?;
        let trips = &ctx.analysis()?.trips;
        let summary: Vec<String> = trips
            .loops
            .iter()
            .map(|l| format!("{}@d{}≈{:.0}", l.var, l.depth, l.mean_trip))
            .collect();
        ctx.log(format!("trip counts: {}", summary.join(", ")));
        Ok(())
    }
}

/// "Remove Array `+=` Dependency" (T): try the reduction rewrite on every
/// kernel loop; reanalyse if anything changed.
pub struct RemoveArrayAccumulation;

impl Task for RemoveArrayAccumulation {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Remove Array += Dependency", TaskClass::Transform, false)
    }

    fn ports(&self) -> ModulePorts {
        // Rewrites re-run the analysis, so the record (and, lazily, the
        // reference time) count as outputs.
        ModulePorts::new()
            .reads(&[Port::Ast, Port::Kernel, Port::Analysis, Port::Params])
            .writes(&[Port::Ast, Port::Analysis, Port::ReferenceTime])
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let kernel = ctx.kernel_name()?.to_string();
        let loops = query::loops(&ctx.ast.module, |l| l.function == kernel);
        // Rewrite (and so copy a shared AST) only once some loop has an
        // eligible accumulation. Up to the first such loop the rewrites
        // would all be no-ops, so checking the unchanged module finds the
        // same sites and the same errors they would.
        let mut rewrite = false;
        for m in &loops {
            if accumulation_sites(&ctx.ast.module, m.stmt_id)? > 0 {
                rewrite = true;
                break;
            }
        }
        let mut total = 0;
        if rewrite {
            for m in &loops {
                total += remove_array_accumulation(ctx.module_mut(), m.stmt_id)?;
            }
        }
        if total > 0 {
            ctx.log(format!(
                "reduction rewrite: hoisted {total} array accumulation(s)"
            ));
            reanalyze(ctx)?;
        } else {
            ctx.log("reduction rewrite: no eligible array accumulations".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PsaParams;
    use psa_artisan::Ast;

    const APP: &str = "int main() {\
        int n = 64;\
        double* a = alloc_double(n);\
        double* b = alloc_double(n);\
        fill_random(a, n, 3);\
        for (int i = 0; i < n; i++) {\
            for (int j = 0; j < n; j++) { b[i] += a[j] * 0.25; }\
        }\
        double s = 0.0;\
        for (int i = 0; i < n; i++) { s += b[i]; }\
        sink(s);\
        return 0;\
    }";

    fn run_tindep() -> FlowContext {
        let ast = Ast::from_source(APP, "t").unwrap();
        let mut ctx = FlowContext::new(ast, PsaParams::default());
        IdentifyHotspotLoops.run(&mut ctx).unwrap();
        HotspotLoopExtraction {
            kernel_name: "hotspot_0".into(),
        }
        .run(&mut ctx)
        .unwrap();
        PointerAnalysis.run(&mut ctx).unwrap();
        ArithmeticIntensityAnalysis.run(&mut ctx).unwrap();
        DataInOutAnalysis.run(&mut ctx).unwrap();
        LoopDependenceAnalysis.run(&mut ctx).unwrap();
        LoopTripCountAnalysis.run(&mut ctx).unwrap();
        ctx
    }

    #[test]
    fn full_tindep_sequence_populates_context() {
        let ctx = run_tindep();
        assert_eq!(ctx.kernel.as_deref(), Some("hotspot_0"));
        assert!(ctx.analysis.is_some());
        assert!(ctx.reference_time_s.unwrap() > 0.0);
        assert!(ctx.trace_lines().iter().any(|l| l.contains("hotspot")));
        assert!(ctx
            .trace_lines()
            .iter()
            .any(|l| l.contains("arithmetic intensity")));
        assert!(ctx.trace_lines().iter().any(|l| l.contains("trip counts")));
    }

    #[test]
    fn extraction_fills_the_analysis_without_a_cache() {
        let ast = Ast::from_source(APP, "t").unwrap();
        let cache = std::sync::Arc::new(psa_evalcache::EvalCache::disabled());
        let mut ctx = FlowContext::with_cache(ast, PsaParams::default(), cache);
        IdentifyHotspotLoops.run(&mut ctx).unwrap();
        HotspotLoopExtraction {
            kernel_name: "hotspot_0".into(),
        }
        .run(&mut ctx)
        .unwrap();
        let derived = format!("{:?}", ctx.analysis.as_ref().expect("filled by extraction"));
        let watched = psa_analyses::analyze_kernel(&ctx.ast.module, "hotspot_0").unwrap();
        assert_eq!(derived, format!("{watched:?}"));
        assert!(ctx.reference_time_s.is_none());
        ComputeKernelAnalysis.run(&mut ctx).unwrap();
        assert!(ctx.reference_time_s.unwrap() > 0.0);
    }

    #[test]
    fn reduction_rewrite_unblocks_the_inner_loop() {
        let mut ctx = run_tindep();
        // Before: the inner loop accumulates b[i] — a reduction dep at
        // loop-invariant (wrt j) index.
        let before = ctx.analysis.as_ref().unwrap().deps.clone();
        let inner_before = before.loops.iter().find(|l| l.depth == 1).unwrap();
        assert!(!inner_before.parallel);
        RemoveArrayAccumulation.run(&mut ctx).unwrap();
        assert!(ctx.trace_lines().iter().any(|l| l.contains("hoisted 1")));
        // After: the accumulation goes through a scalar; the array write
        // moved out of the inner loop.
        let after = &ctx.analysis.as_ref().unwrap().deps;
        let inner_after = after.loops.iter().find(|l| l.depth == 1).unwrap();
        assert!(
            inner_after.reduction_only || inner_after.parallel,
            "{inner_after:?}"
        );
        // Program still computes the same thing (kernel remains runnable).
        let mut interp =
            psa_interp::Interpreter::new(&ctx.ast.module, psa_interp::RunConfig::default());
        interp.run_main().unwrap();
    }

    #[test]
    fn extraction_without_detection_errors() {
        let ast = Ast::from_source(APP, "t").unwrap();
        let mut ctx = FlowContext::new(ast, PsaParams::default());
        let err = HotspotLoopExtraction {
            kernel_name: "k".into(),
        }
        .run(&mut ctx)
        .unwrap_err();
        assert!(err.to_string().contains("hotspot detection"));
    }

    #[test]
    fn loopless_app_reports_cleanly() {
        let ast = Ast::from_source("int main() { return 1; }", "t").unwrap();
        let mut ctx = FlowContext::new(ast, PsaParams::default());
        assert!(IdentifyHotspotLoops.run(&mut ctx).is_err());
    }
}
