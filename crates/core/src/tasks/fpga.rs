//! The `FPGA` / `FPGA-A10` / `FPGA-S10` task groups.

use super::{ensure_analysis, reanalyze};
use crate::context::FlowContext;
use crate::dse::unroll_until_overmap;
use crate::flow::FlowError;
use crate::report::{DesignArtifact, DeviceKind, TargetKind};
use crate::task::{Task, TaskClass, TaskInfo};
use crate::trace::{DseTrace, TraceEvent};
use crate::work::kernel_work;
use psa_artisan::transforms::unroll::fully_unroll;
use psa_artisan::{edit, query};
use psa_platform::{arria10, stratix10, FpgaModel, FpgaSpec};

/// "Unroll Fixed Loops" (T): mark every fixed-bound inner loop with a full
/// `#pragma unroll` so the HLS compiler flattens it into the pipeline
/// datapath. (The resource model already counts fixed-bound loop bodies as
/// replicated hardware, so the pragma is the faithful — and LOC-neutral —
/// way to request it; a source-level flattening transform also exists as
/// [`psa_artisan::transforms::unroll::fully_unroll`].)
pub struct UnrollFixedLoops;

impl Task for UnrollFixedLoops {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Unroll Fixed Loops", TaskClass::Transform, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let kernel = ctx.kernel_name()?.to_string();
        let limit = ctx.params.full_unroll_limit;
        let candidates = query::loops(&ctx.ast.module, |l| {
            l.function == kernel && l.depth > 0 && l.static_trip_count.is_some_and(|t| t <= limit)
        });
        // Idempotent: skip loops already carrying an unroll pragma. The
        // loops are picked on the shared AST, so it is copied only when
        // some loop still needs the pragma.
        let mut unmarked = Vec::new();
        for c in &candidates {
            let stmt = query::find_stmt(&ctx.ast.module, c.stmt_id)
                .ok_or_else(|| FlowError::transform("loop vanished"))?;
            if !stmt.pragmas.iter().any(|p| p.head() == "unroll") {
                unmarked.push(c.stmt_id);
            }
        }
        for &stmt in &unmarked {
            edit::add_pragma(ctx.module_mut(), stmt, "unroll")?;
        }
        let total = unmarked.len();
        if total > 0 {
            ctx.log(format!(
                "marked {total} fixed-bound inner loop(s) with #pragma unroll"
            ));
        } else {
            ctx.log("no fixed-bound inner loops to unroll".to_string());
        }
        Ok(())
    }
}

/// Source-level variant of the fixed-loop unrolling, used by ablation
/// studies: flattens the loops into straight-line code instead of
/// annotating them.
pub struct UnrollFixedLoopsFlatten;

impl Task for UnrollFixedLoopsFlatten {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Unroll Fixed Loops (flatten)", TaskClass::Transform, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let kernel = ctx.kernel_name()?.to_string();
        let limit = ctx.params.full_unroll_limit;
        let mut total = 0u64;
        // Innermost-first, repeated until no fixed-bound inner loops remain.
        loop {
            let candidates = query::loops(&ctx.ast.module, |l| {
                l.function == kernel
                    && l.depth > 0
                    && l.is_innermost
                    && l.static_trip_count.is_some_and(|t| t <= limit)
            });
            let Some(target) = candidates.first() else {
                break;
            };
            let trips = fully_unroll(ctx.module_mut(), target.stmt_id)?;
            total += trips;
        }
        if total > 0 {
            ctx.log(format!(
                "unrolled fixed inner loops ({total} iterations flattened)"
            ));
            reanalyze(ctx)?;
        } else {
            ctx.log("no fixed-bound inner loops to unroll".to_string());
        }
        Ok(())
    }
}

/// "Zero-Copy Data Transfer" (T) — Stratix10 path only: USM host access.
pub struct ZeroCopyDataTransfer;

impl Task for ZeroCopyDataTransfer {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Zero-Copy Data Transfer", TaskClass::Transform, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ctx.tuned.zero_copy = Some(true);
        ctx.log("zero-copy USM data transfer enabled".to_string());
        Ok(())
    }
}

fn spec_for(device: DeviceKind) -> Result<FpgaSpec, FlowError> {
    match device {
        DeviceKind::Arria10 => Ok(arria10()),
        DeviceKind::Stratix10 => Ok(stratix10()),
        other => Err(FlowError::precondition(format!(
            "{} is not an FPGA",
            other.label()
        ))),
    }
}

/// "A10 / S10 Unroll Until Overmap DSE" (O) — the Fig. 2 meta-program.
pub struct UnrollUntilOvermapDse {
    pub device: DeviceKind,
}

impl Task for UnrollUntilOvermapDse {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Unroll Until Overmap DSE", TaskClass::Optimisation, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ensure_analysis(ctx)?;
        let kernel = ctx.kernel_name()?.to_string();
        let w = kernel_work(ctx)?;
        let model = FpgaModel::new(spec_for(self.device)?);
        let cache = std::sync::Arc::clone(&ctx.cache);
        let dse = unroll_until_overmap(ctx.module_mut(), &kernel, &model, &w, &cache)?;
        if dse.factor == 0 {
            let reason = format!(
                "design overmaps {} at unroll 1 (LUT {:.0}%)",
                self.device.label(),
                dse.report.lut_util * 100.0
            );
            ctx.push_event(TraceEvent::Dse(DseTrace::UnrollOvermapped {
                device: self.device.label().to_string(),
                lut_util: dse.report.lut_util,
            }));
            ctx.fpga_unsynthesizable = Some(reason);
            return Ok(());
        }
        ctx.tuned.unroll = Some(dse.factor);
        ctx.tuned.lut_util = Some(dse.report.lut_util);
        ctx.push_event(TraceEvent::Dse(DseTrace::Unroll {
            device: self.device.label().to_string(),
            factor: dse.factor,
            lut_util: dse.report.lut_util,
            iterations: dse.iterations,
        }));
        Ok(())
    }
}

/// "Generate oneAPI Design" (CG) for one device.
pub struct GenerateOneApiDesign {
    pub device: DeviceKind,
}

impl Task for GenerateOneApiDesign {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Generate oneAPI Design", TaskClass::CodeGen, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ensure_analysis(ctx)?;
        let kernel = ctx.kernel_name()?.to_string();
        let unroll = ctx.tuned.unroll.unwrap_or(1);
        let zero_copy = ctx.tuned.zero_copy.unwrap_or(false);
        let config = psa_codegen::oneapi::OneApiConfig {
            device: self.device.label().to_string(),
            unroll,
            zero_copy,
        };
        let design = psa_codegen::oneapi::generate(&ctx.ast.module, &kernel, &config)?;
        let loc = design.loc();

        let (time, synthesizable, notes) = if let Some(reason) = &ctx.fpga_unsynthesizable {
            (None, false, vec![reason.clone()])
        } else {
            let w = kernel_work(ctx)?;
            let model = FpgaModel::new(spec_for(self.device)?);
            // Reuses the HLS reports the unroll DSE warmed for this device.
            match model.estimate_cached(&w, unroll, &ctx.cache) {
                Ok(e) => (
                    Some(e.total_s),
                    true,
                    vec![format!(
                        "oneAPI unroll {unroll}, II {:.0}, LUT {:.0}%{}",
                        e.ii,
                        e.report.lut_util * 100.0,
                        if zero_copy { ", zero-copy USM" } else { "" }
                    )],
                ),
                Err(err) => (None, false, vec![err.to_string()]),
            }
        };
        ctx.designs.push(DesignArtifact {
            target: TargetKind::CpuFpga,
            device: self.device,
            source: design.source,
            loc,
            estimated_time_s: time,
            synthesizable,
            params: ctx.tuned,
            notes,
        });
        ctx.log(format!(
            "generated oneAPI design for {} ({loc} LOC{})",
            self.device.label(),
            if synthesizable {
                ""
            } else {
                ", NOT synthesizable"
            }
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PsaParams;
    use crate::tasks::gpu::{EmploySpMathFns, EmploySpNumericLiterals};
    use crate::tasks::tindep::{HotspotLoopExtraction, IdentifyHotspotLoops};
    use psa_artisan::Ast;

    /// AdPredictor-like: fixed inner reduction, gather lookups.
    const APP: &str = "int main() {\
        int n = 128;\
        double* w = alloc_double(256);\
        double* out = alloc_double(n);\
        fill_random(w, 256, 7);\
        for (int i = 0; i < n; i++) {\
            double acc = 0.0;\
            for (int f = 0; f < 8; f++) {\
                int idx = (i * 37 + f * 11) % 256;\
                acc += exp(w[idx] * 0.1);\
            }\
            out[i] = acc;\
        }\
        sink(out[0]);\
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
    fn unroll_fixed_loops_annotates_the_feature_loop() {
        let mut ctx = prepared();
        UnrollFixedLoops.run(&mut ctx).unwrap();
        let out = ctx.ast.export();
        assert!(out.contains("#pragma unroll"), "{out}");
        // Idempotent.
        UnrollFixedLoops.run(&mut ctx).unwrap();
        assert_eq!(ctx.ast.export().matches("#pragma unroll").count(), 1);
        // The work record reports a flat pipeline (fixed inner dep loop).
        let w = kernel_work(&ctx).unwrap();
        assert!(w.flat_pipeline);
        // Still executable.
        let mut interp =
            psa_interp::Interpreter::new(&ctx.ast.module, psa_interp::RunConfig::default());
        interp.run_main().unwrap();
    }

    #[test]
    fn unroll_fixed_loops_flatten_variant_removes_the_loop() {
        let mut ctx = prepared();
        UnrollFixedLoopsFlatten.run(&mut ctx).unwrap();
        let loops = query::loops(&ctx.ast.module, |l| l.function == "knl");
        assert_eq!(loops.len(), 1, "only the outer loop remains");
        let mut interp =
            psa_interp::Interpreter::new(&ctx.ast.module, psa_interp::RunConfig::default());
        interp.run_main().unwrap();
        let w = kernel_work(&ctx).unwrap();
        assert!(w.flat_pipeline);
    }

    #[test]
    fn full_fpga_path_produces_both_device_designs() {
        let mut ctx = prepared();
        UnrollFixedLoops.run(&mut ctx).unwrap();
        EmploySpMathFns.run(&mut ctx).unwrap();
        EmploySpNumericLiterals.run(&mut ctx).unwrap();

        // A10 path.
        let mut a10 = ctx.clone();
        UnrollUntilOvermapDse {
            device: DeviceKind::Arria10,
        }
        .run(&mut a10)
        .unwrap();
        GenerateOneApiDesign {
            device: DeviceKind::Arria10,
        }
        .run(&mut a10)
        .unwrap();
        // S10 path with zero copy.
        let mut s10 = ctx.clone();
        ZeroCopyDataTransfer.run(&mut s10).unwrap();
        UnrollUntilOvermapDse {
            device: DeviceKind::Stratix10,
        }
        .run(&mut s10)
        .unwrap();
        GenerateOneApiDesign {
            device: DeviceKind::Stratix10,
        }
        .run(&mut s10)
        .unwrap();

        let da = &a10.designs[0];
        let ds = &s10.designs[0];
        assert!(da.synthesizable && ds.synthesizable);
        assert!(ds.params.unroll.unwrap() >= da.params.unroll.unwrap());
        assert!(ds.source.contains("malloc_host"), "zero-copy style");
        assert!(!da.source.contains("malloc_host"), "buffered style");
        // S10 must be faster (bigger unroll, faster clock, overlap).
        assert!(ds.estimated_time_s.unwrap() < da.estimated_time_s.unwrap());
    }

    #[test]
    fn transcendental_soup_is_flagged_not_synthesizable() {
        // Rush Larsen-like double-precision body.
        let mut body = String::new();
        for g in 0..30 {
            body.push_str(&format!(
                "double a{g} = exp(s[i] * 0.0{g}1) / (1.0 + exp(s[i] * 0.02)); double b{g} = exp(s[i] * -0.01); s[i] += a{g} * b{g} * 0.001;"
            ));
        }
        let src = format!(
            "int main() {{ int n = 32; double* s = alloc_double(n); fill_random(s, n, 1);\
             for (int i = 0; i < n; i++) {{ {body} }} sink(s[0]); return 0; }}"
        );
        let ast = Ast::from_source(&src, "t").unwrap();
        let mut ctx = FlowContext::new(
            ast,
            PsaParams {
                sp_safe: false,
                ..Default::default()
            },
        );
        IdentifyHotspotLoops.run(&mut ctx).unwrap();
        HotspotLoopExtraction {
            kernel_name: "knl".into(),
        }
        .run(&mut ctx)
        .unwrap();
        UnrollFixedLoops.run(&mut ctx).unwrap();
        UnrollUntilOvermapDse {
            device: DeviceKind::Arria10,
        }
        .run(&mut ctx)
        .unwrap();
        assert!(ctx.fpga_unsynthesizable.is_some());
        GenerateOneApiDesign {
            device: DeviceKind::Arria10,
        }
        .run(&mut ctx)
        .unwrap();
        let d = &ctx.designs[0];
        assert!(!d.synthesizable);
        assert!(d.estimated_time_s.is_none());
    }
}
