//! The `GPU` / `GPU-1080` / `GPU-2080` task groups.

use super::ensure_analysis;
use crate::context::FlowContext;
use crate::dse::blocksize_dse;
use crate::flow::FlowError;
use crate::report::{DesignArtifact, DeviceKind, TargetKind};
use crate::task::{Task, TaskClass, TaskInfo};
use crate::trace::{DseTrace, TraceEvent};
use crate::work::kernel_work;
use psa_artisan::query;
use psa_artisan::transforms::{mathopt, precision};
use psa_minicpp::ast::{ExprKind, StmtKind};
use psa_platform::{gtx_1080_ti, rtx_2080_ti, GpuModel, GpuSpec};

/// "Employ SP Math Fns" (T*) — the asterisked tasks are conditional on the
/// application's numerical tolerance (`PsaParams::sp_safe`).
pub struct EmploySpMathFns;

impl Task for EmploySpMathFns {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Employ SP Math Fns", TaskClass::Transform, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        if !ctx.params.sp_safe {
            ctx.log("SP math fns: skipped (application is not SP-safe)".to_string());
            return Ok(());
        }
        let kernel = ctx.kernel_name()?.to_string();
        let n = match precision::sp_math_sites(&ctx.ast.module, &kernel)? {
            0 => 0,
            _ => precision::employ_sp_math(ctx.module_mut(), &kernel)?,
        };
        ctx.log(format!("SP math fns: rewrote {n} call(s)"));
        Ok(())
    }
}

/// "Employ SP Numeric Literals" (T*).
pub struct EmploySpNumericLiterals;

impl Task for EmploySpNumericLiterals {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Employ SP Numeric Literals", TaskClass::Transform, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        if !ctx.params.sp_safe {
            ctx.log("SP literals: skipped (application is not SP-safe)".to_string());
            return Ok(());
        }
        let kernel = ctx.kernel_name()?.to_string();
        let n = match precision::sp_literal_sites(&ctx.ast.module, &kernel)? {
            0 => 0,
            _ => precision::employ_sp_literals(ctx.module_mut(), &kernel)?,
        };
        ctx.log(format!("SP literals: rewrote {n} site(s)"));
        Ok(())
    }
}

/// "Employ Specialised Math Fns" (T): rsqrt / pow-squared peepholes.
pub struct EmploySpecialisedMathFns;

impl Task for EmploySpecialisedMathFns {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Employ Specialised Math Fns", TaskClass::Transform, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let kernel = ctx.kernel_name()?.to_string();
        let n = match mathopt::specialised_math_sites(&ctx.ast.module, &kernel)? {
            0 => 0,
            _ => mathopt::employ_specialised_math(ctx.module_mut(), &kernel)?,
        };
        ctx.log(format!("specialised math: rewrote {n} pattern(s)"));
        Ok(())
    }
}

/// "Introduce Shared Mem Buf" (T): pick pointer parameters whose inner-loop
/// reads are indexed by the inner induction variable alone — every thread
/// of a block reads the same sequence, so staging through shared memory
/// saves global bandwidth. The selection is recorded for the HIP code
/// generator.
pub struct IntroduceSharedMemBuf;

impl Task for IntroduceSharedMemBuf {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Introduce Shared Mem Buf", TaskClass::Transform, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let kernel = ctx.kernel_name()?.to_string();
        let module = &ctx.ast.module;
        let Some(func) = module.function(&kernel) else {
            return Err(FlowError::precondition("kernel missing"));
        };
        let ptr_params: Vec<String> = func
            .params
            .iter()
            .filter(|p| p.ty.is_pointer())
            .map(|p| p.name.clone())
            .collect();

        // Find inner runtime-bound loops and the arrays read at [inner_var].
        let mut candidates: Vec<String> = Vec::new();
        for m in query::loops(module, |l| l.function == kernel && l.depth > 0) {
            let Some(l) = query::find_loop(module, m.id) else {
                continue;
            };
            if l.static_trip_count().is_some() {
                continue;
            }
            collect_var_indexed_reads(&l.body, &l.var, &ptr_params, &mut candidates);
        }
        candidates.sort();
        candidates.dedup();
        // Estimate what fraction of kernel memory *traffic* the staged
        // arrays account for: each staged load becomes one global load per
        // block instead of one per thread. Traffic is weighted by the
        // observed iteration counts, so inner-loop accesses dominate as
        // they do at runtime.
        let mut staged_bytes = 0.0;
        if !candidates.is_empty() {
            let analysis = ctx.analysis()?;
            for m in query::loops(&ctx.ast.module, |l| l.function == kernel && l.depth > 0) {
                let Some(l) = query::find_loop(&ctx.ast.module, m.id) else {
                    continue;
                };
                if l.static_trip_count().is_some() {
                    continue;
                }
                let mut reads: Vec<String> = Vec::new();
                collect_var_indexed_reads(&l.body, &l.var, &candidates, &mut reads);
                // Transforms re-key node ids, so match the trip record
                // structurally (induction variable + depth).
                let iterations = analysis
                    .trips
                    .loops
                    .iter()
                    .find(|t| t.var == l.var && t.depth == m.depth)
                    .map_or(1.0, |t| t.iterations as f64);
                staged_bytes += reads.len() as f64 * 8.0 * iterations;
            }
        }
        if candidates.is_empty() {
            ctx.log("shared-mem staging: no candidate arrays".to_string());
        } else {
            let total_bytes = ctx.analysis()?.kernel_bytes() as f64;
            if total_bytes > 0.0 {
                ctx.smem_staged_fraction = (staged_bytes / total_bytes).clamp(0.0, 1.0);
            }
            ctx.log(format!(
                "shared-mem staging: {candidates:?} covering {:.0}% of kernel memory traffic",
                ctx.smem_staged_fraction * 100.0
            ));
        }
        ctx.shared_mem_arrays = candidates;
        Ok(())
    }
}

/// The GPU-path view of the kernel work: shared-memory staging reduces the
/// global-memory traffic of the staged fraction by the blocksize (one
/// cooperative load per block instead of one per thread).
pub fn gpu_effective_work(
    ctx: &FlowContext,
    blocksize: u32,
) -> Result<psa_platform::KernelWork, FlowError> {
    let mut w = kernel_work(ctx)?;
    let f = ctx.smem_staged_fraction.clamp(0.0, 1.0);
    if f > 0.0 {
        w.bytes_mem *= (1.0 - f) + f / f64::from(blocksize.max(32));
    }
    Ok(w)
}

fn collect_var_indexed_reads(
    block: &psa_minicpp::Block,
    var: &str,
    ptr_params: &[String],
    out: &mut Vec<String>,
) {
    use psa_minicpp::visit::{self, Visit};
    struct Reads<'a> {
        var: &'a str,
        ptr_params: &'a [String],
        out: &'a mut Vec<String>,
    }
    impl Visit for Reads<'_> {
        fn visit_expr(&mut self, e: &psa_minicpp::Expr) {
            if let ExprKind::Index { base, index } = &e.kind {
                if index.as_ident() == Some(self.var) {
                    if let Some(name) = base.as_ident() {
                        if self.ptr_params.contains(&name.to_string()) {
                            self.out.push(name.to_string());
                        }
                    }
                }
            }
            visit::walk_expr(self, e);
        }
    }
    // Only reads: skip assignment targets.
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Assign { value, .. } => {
                Reads {
                    var,
                    ptr_params,
                    out,
                }
                .visit_expr(value);
            }
            _ => {
                let mut r = Reads {
                    var,
                    ptr_params,
                    out,
                };
                psa_minicpp::visit::walk_stmt(&mut r, stmt);
            }
        }
    }
}

/// "Employ HIP Pinned Memory" (T).
pub struct EmployHipPinnedMemory;

impl Task for EmployHipPinnedMemory {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Employ HIP Pinned Memory", TaskClass::Transform, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ctx.tuned.pinned = Some(true);
        ctx.log("pinned host memory enabled for transfers".to_string());
        Ok(())
    }
}

fn spec_for(device: DeviceKind) -> Result<GpuSpec, FlowError> {
    match device {
        DeviceKind::Gtx1080Ti => Ok(gtx_1080_ti()),
        DeviceKind::Rtx2080Ti => Ok(rtx_2080_ti()),
        other => Err(FlowError::precondition(format!(
            "{} is not a GPU",
            other.label()
        ))),
    }
}

/// "GTX 1080 / RTX 2080 Blocksize DSE" (O).
pub struct BlocksizeDseTask {
    pub device: DeviceKind,
}

impl Task for BlocksizeDseTask {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Blocksize DSE", TaskClass::Optimisation, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ensure_analysis(ctx)?;
        let model = GpuModel::new(spec_for(self.device)?);
        let pinned = ctx.tuned.pinned.unwrap_or(false);
        // The staged-traffic reduction depends on the blocksize itself, so
        // sweep with a representative mid-size work and re-evaluate the
        // winner exactly.
        let w = gpu_effective_work(ctx, 256)?;
        let dse = blocksize_dse(&model, &w, pinned, &ctx.cache)?;
        ctx.tuned.blocksize = Some(dse.blocksize);
        ctx.tuned.occupancy = Some(dse.occupancy);
        ctx.push_event(TraceEvent::Dse(DseTrace::Blocksize {
            device: self.device.label().to_string(),
            blocksize: dse.blocksize,
            occupancy: dse.occupancy,
            est_s: dse.total_s,
            evaluated: dse.evaluated,
        }));
        Ok(())
    }
}

/// "Generate HIP Design" (CG) for one device.
pub struct GenerateHipDesign {
    pub device: DeviceKind,
}

impl Task for GenerateHipDesign {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Generate HIP Design", TaskClass::CodeGen, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ensure_analysis(ctx)?;
        let kernel = ctx.kernel_name()?.to_string();
        let blocksize = ctx.tuned.blocksize.unwrap_or(256);
        let pinned = ctx.tuned.pinned.unwrap_or(false);
        let config = psa_codegen::hip::HipConfig {
            device: self.device.label().to_string(),
            blocksize,
            pinned,
            shared_mem_arrays: ctx.shared_mem_arrays.clone(),
        };
        let design = psa_codegen::hip::generate(&ctx.ast.module, &kernel, &config)?;

        let w = gpu_effective_work(ctx, blocksize)?;
        let model = GpuModel::new(spec_for(self.device)?);
        // A hit when the DSE swept this exact configuration.
        let est = model.estimate_cached(&w, blocksize, pinned, &ctx.cache);
        let loc = design.loc();
        let (time, notes) = match est {
            Some(e) => (
                Some(e.total_s),
                vec![format!(
                    "HIP blocksize {blocksize}, occupancy {:.2}{}",
                    e.occupancy,
                    if e.regs_limited {
                        " (register-limited)"
                    } else {
                        ""
                    }
                )],
            ),
            None => (None, vec!["launch configuration infeasible".to_string()]),
        };
        ctx.designs.push(DesignArtifact {
            target: TargetKind::CpuGpu,
            device: self.device,
            source: design.source,
            loc,
            estimated_time_s: time,
            synthesizable: time.is_some(),
            params: ctx.tuned,
            notes,
        });
        ctx.log(format!(
            "generated HIP design for {} ({loc} LOC)",
            self.device.label()
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
        int n = 64;\
        double* pos = alloc_double(n);\
        double* f = alloc_double(n);\
        fill_random(pos, n, 3);\
        for (int i = 0; i < n; i++) {\
            double acc = 0.0;\
            for (int j = 0; j < n; j++) {\
                double d = pos[j] - pos[i];\
                acc += d * (1.0 / sqrt(d * d + 0.1));\
            }\
            f[i] = acc;\
        }\
        sink(f[0]);\
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
    fn gpu_pipeline_produces_designs_for_both_devices() {
        let mut ctx = prepared();
        EmploySpMathFns.run(&mut ctx).unwrap();
        EmploySpNumericLiterals.run(&mut ctx).unwrap();
        EmploySpecialisedMathFns.run(&mut ctx).unwrap();
        IntroduceSharedMemBuf.run(&mut ctx).unwrap();
        EmployHipPinnedMemory.run(&mut ctx).unwrap();
        for device in [DeviceKind::Gtx1080Ti, DeviceKind::Rtx2080Ti] {
            BlocksizeDseTask { device }.run(&mut ctx).unwrap();
            GenerateHipDesign { device }.run(&mut ctx).unwrap();
        }
        assert_eq!(ctx.designs.len(), 2);
        for d in &ctx.designs {
            assert!(d.synthesizable);
            assert!(d.source.contains("__global__"));
            assert!(
                d.source.contains("hipHostRegister"),
                "pinned memory emitted"
            );
        }
    }

    #[test]
    fn sp_transforms_respect_safety_flag() {
        let mut ctx = prepared();
        ctx.params.sp_safe = false;
        EmploySpMathFns.run(&mut ctx).unwrap();
        EmploySpNumericLiterals.run(&mut ctx).unwrap();
        assert!(!ctx.ast.export().contains("sqrtf"), "no SP when unsafe");
        ctx.params.sp_safe = true;
        EmploySpMathFns.run(&mut ctx).unwrap();
        assert!(ctx.ast.export().contains("sqrtf"));
    }

    #[test]
    fn shared_mem_detects_broadcast_reads() {
        let mut ctx = prepared();
        IntroduceSharedMemBuf.run(&mut ctx).unwrap();
        assert_eq!(ctx.shared_mem_arrays, vec!["pos".to_string()]);
    }

    #[test]
    fn specialised_math_rewrites_rsqrt_pattern() {
        let mut ctx = prepared();
        EmploySpecialisedMathFns.run(&mut ctx).unwrap();
        assert!(ctx.ast.export().contains("rsqrt("), "{}", ctx.ast.export());
    }

    #[test]
    fn rewrites_with_nothing_to_change_leave_the_ast_shared() {
        let mut ctx = FlowContext::new(
            Ast::from_source(
                "void knl(float* a, int n) { a[0] = sqrtf(a[1]) * 2.0f; }",
                "t",
            )
            .unwrap(),
            PsaParams::default(),
        );
        ctx.kernel = Some("knl".into());
        let shared = std::sync::Arc::clone(&ctx.ast);
        EmploySpMathFns.run(&mut ctx).unwrap();
        EmploySpNumericLiterals.run(&mut ctx).unwrap();
        EmploySpecialisedMathFns.run(&mut ctx).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&shared, &ctx.ast),
            "no-op rewrites copied"
        );
        assert_eq!(
            ctx.trace_lines(),
            [
                "SP math fns: rewrote 0 call(s)",
                "SP literals: rewrote 0 site(s)",
                "specialised math: rewrote 0 pattern(s)"
            ]
        );

        // A real rewrite copies, and the other holder keeps the original.
        let mut ctx = prepared();
        let shared = std::sync::Arc::clone(&ctx.ast);
        EmploySpMathFns.run(&mut ctx).unwrap();
        assert!(!std::sync::Arc::ptr_eq(&shared, &ctx.ast));
        assert!(ctx.ast.export().contains("sqrtf("));
        assert!(!shared.export().contains("sqrtf("));
    }
}
