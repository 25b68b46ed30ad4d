//! The `CPU-OMP` task group: multi-thread parallelisation + thread DSE +
//! OpenMP design generation.

use super::ensure_analysis;
use crate::context::FlowContext;
use crate::dse::omp_threads_dse;
use crate::flow::FlowError;
use crate::report::{DesignArtifact, DeviceKind, TargetKind};
use crate::task::{Task, TaskClass, TaskInfo};
use crate::trace::{DseTrace, TraceEvent};
use crate::work::kernel_work;
use psa_artisan::{edit, query};
use psa_platform::{epyc_7543, CpuModel};

/// "Multi-Thread Parallel Loops" (T): annotate the kernel's parallel outer
/// loop with `omp parallel for` (the readable-source story: the annotation
/// lives in the AST and survives export).
pub struct MultiThreadParallelLoops;

impl Task for MultiThreadParallelLoops {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Multi-Thread Parallel Loops", TaskClass::Transform, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ensure_analysis(ctx)?;
        let kernel = ctx.kernel_name()?.to_string();
        let deps = ctx.analysis()?.deps.clone();
        let outer = deps
            .loops
            .iter()
            .find(|l| l.depth == 0)
            .ok_or_else(|| FlowError::precondition("kernel has no outer loop"))?;
        if !outer.parallel {
            return Err(FlowError::precondition(
                "outer loop carries dependences; refusing to parallelise",
            ));
        }
        let matches = query::loops(&ctx.ast.module, |l| l.function == kernel && l.is_outermost);
        let stmt = matches
            .first()
            .ok_or_else(|| FlowError::transform("outer loop not found"))?
            .stmt_id;
        edit::add_pragma(ctx.module_mut(), stmt, "omp parallel for")?;
        ctx.log("annotated kernel outer loop with `#pragma omp parallel for`".to_string());
        Ok(())
    }
}

/// "OMP Num. Threads DSE" (O).
pub struct OmpNumThreadsDse;

impl Task for OmpNumThreadsDse {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("OMP Num. Threads DSE", TaskClass::Optimisation, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ensure_analysis(ctx)?;
        let w = kernel_work(ctx)?;
        let model = CpuModel::new(epyc_7543());
        let dse = omp_threads_dse(&model, &w, ctx.params.omp_max_threads, &ctx.cache)?;
        ctx.tuned.threads = Some(dse.threads);
        ctx.push_event(TraceEvent::Dse(DseTrace::OmpThreads {
            threads: dse.threads,
            est_s: dse.total_s,
        }));
        Ok(())
    }
}

/// "Generate OpenMP design" (CG) + estimate.
pub struct GenerateOpenMpDesign;

impl Task for GenerateOpenMpDesign {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Generate OpenMP Design", TaskClass::CodeGen, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ensure_analysis(ctx)?;
        let kernel = ctx.kernel_name()?.to_string();
        let threads = ctx.tuned.threads.unwrap_or(32);
        let design = psa_codegen::openmp::generate(
            &ctx.ast.module,
            &kernel,
            psa_codegen::openmp::OmpConfig { threads },
        )?;
        let w = kernel_work(ctx)?;
        let model = CpuModel::new(epyc_7543());
        // A hit when the DSE already probed this thread count.
        let time = model.time_openmp_cached(&w, threads, &ctx.cache);
        let loc = design.loc();
        ctx.designs.push(DesignArtifact {
            target: TargetKind::MultiThreadCpu,
            device: DeviceKind::Epyc7543,
            source: design.source,
            loc,
            estimated_time_s: Some(time),
            synthesizable: true,
            params: ctx.tuned,
            notes: vec![format!("OpenMP, {threads} threads")],
        });
        ctx.log(format!(
            "generated OpenMP design ({loc} LOC, est. {time:.3e}s)"
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PsaParams;
    use crate::tasks::tindep::{HotspotLoopExtraction, IdentifyHotspotLoops};
    use psa_artisan::Ast;

    const APP: &str = "int main() {\
        int n = 96;\
        double* a = alloc_double(n);\
        double* b = alloc_double(n);\
        fill_random(a, n, 3);\
        for (int i = 0; i < n; i++) { b[i] = sqrt(a[i]) + a[i] * 2.0; }\
        sink(b[0]);\
        return 0;\
    }";

    fn prepared() -> FlowContext {
        let ast = Ast::from_source(APP, "t").unwrap();
        let mut ctx = FlowContext::new(ast, PsaParams::default());
        IdentifyHotspotLoops.run(&mut ctx).unwrap();
        HotspotLoopExtraction {
            kernel_name: "knl".into(),
        }
        .run(&mut ctx)
        .unwrap();
        ensure_analysis(&mut ctx).unwrap();
        ctx
    }

    #[test]
    fn cpu_path_produces_an_annotated_design() {
        let mut ctx = prepared();
        MultiThreadParallelLoops.run(&mut ctx).unwrap();
        assert!(ctx.ast.export().contains("#pragma omp parallel for"));
        OmpNumThreadsDse.run(&mut ctx).unwrap();
        assert_eq!(
            ctx.tuned.threads,
            Some(32),
            "compute-parallel work uses every core"
        );
        GenerateOpenMpDesign.run(&mut ctx).unwrap();
        let d = &ctx.designs[0];
        assert_eq!(d.device, DeviceKind::Epyc7543);
        assert!(d.source.contains("omp_set_num_threads(32);"));
        let speedup = ctx.reference_time_s.unwrap() / d.estimated_time_s.unwrap();
        assert!((20.0..32.0).contains(&speedup), "OMP speedup {speedup}");
    }

    #[test]
    fn refuses_to_parallelise_sequential_loops() {
        let src = "int main() {\
            int n = 64;\
            double* a = alloc_double(n);\
            for (int i = 1; i < n; i++) { a[i] = a[i - 1] * 0.5 + 1.0; }\
            sink(a[0]);\
            return 0;\
        }";
        let ast = Ast::from_source(src, "t").unwrap();
        let mut ctx = FlowContext::new(ast, PsaParams::default());
        IdentifyHotspotLoops.run(&mut ctx).unwrap();
        HotspotLoopExtraction {
            kernel_name: "knl".into(),
        }
        .run(&mut ctx)
        .unwrap();
        let err = MultiThreadParallelLoops.run(&mut ctx).unwrap_err();
        assert!(err.to_string().contains("refusing to parallelise"));
    }
}
