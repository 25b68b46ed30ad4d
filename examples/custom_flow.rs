//! Compose a *custom* PSA-flow — the paper's extensibility story: "To
//! target new technology, target-specific design-flow tasks can be
//! implemented and seamlessly plugged in."
//!
//! This example builds a two-path flow with a hand-written PSA strategy
//! that selects between an "energy-saver" CPU configuration and a
//! performance GPU configuration based on a user budget, and adds a custom
//! task that watermarks generated kernels.
//!
//! ```sh
//! cargo run --example custom_flow
//! ```

use psaflow::artisan::{edit, query, Ast};
use psaflow::core::context::FlowContext;
use psaflow::core::flow::{BranchPoint, Flow, FlowError, Selection};
use psaflow::core::strategy::PsaStrategy;
use psaflow::core::task::{Task, TaskClass, TaskInfo};
use psaflow::core::tasks::{cpu, gpu, tindep};
use psaflow::core::{DeviceKind, PsaParams};

/// A custom transform task: attach a provenance pragma to the kernel's
/// outer loop so generated designs carry their flow lineage.
struct WatermarkKernel;

impl Task for WatermarkKernel {
    fn info(&self) -> TaskInfo {
        TaskInfo::new("Watermark Kernel", TaskClass::Transform, false)
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let kernel = ctx.kernel_name()?.to_string();
        let loops = query::loops(&ctx.ast.module, |l| l.function == kernel && l.is_outermost);
        if let Some(outer) = loops.first() {
            edit::add_pragma(
                ctx.module_mut(),
                outer.stmt_id,
                "psa generated-by custom-flow",
            )?;
        }
        ctx.log("watermarked kernel".to_string());
        Ok(())
    }
}

/// A custom PSA strategy: pick the GPU path only when the (modelled) cost
/// of a GPU run fits the budget; otherwise stay on the CPU.
struct BudgetStrategy {
    budget_currency: f64,
}

impl PsaStrategy for BudgetStrategy {
    fn name(&self) -> &str {
        "budget-aware"
    }

    fn select(&self, bp: &BranchPoint, ctx: &mut FlowContext) -> Result<Selection, FlowError> {
        use psaflow::platform::{rtx_2080_ti, GpuModel};
        let w = psaflow::core::work::kernel_work(ctx)?;
        let gpu_time = GpuModel::new(rtx_2080_ti()).total_time(&w, 256, true);
        let (_, p_gpu, _) = ctx.params.hourly_prices;
        let gpu_cost = gpu_time / 3600.0 * p_gpu;
        let pick = if gpu_cost <= self.budget_currency {
            "performance"
        } else {
            "energy-saver"
        };
        ctx.log(format!(
            "budget strategy: GPU run would cost {gpu_cost:.3e}, budget {:.3e} → `{pick}`",
            self.budget_currency
        ));
        let idx = bp
            .paths
            .iter()
            .position(|(label, _)| label == pick)
            .ok_or_else(|| FlowError::precondition("missing path"))?;
        Ok(Selection::One(idx))
    }
}

const APP: &str = r#"
int main() {
    int n = 2048;
    double* a = alloc_double(n);
    double* b = alloc_double(n);
    fill_random(a, n, 9);
    for (int i = 0; i < n; i++) {
        b[i] = exp(a[i] * 0.5) + a[i] * a[i];
    }
    double s = 0.0;
    for (int i = 0; i < n; i++) { s += b[i]; }
    sink(s);
    return 0;
}
"#;

fn run_with_budget(budget: f64) {
    println!("--- budget = {budget:.1e} currency units per run ---");
    let energy_saver = Flow::new("energy-saver")
        .then(WatermarkKernel)
        .then(cpu::MultiThreadParallelLoops)
        .then(cpu::OmpNumThreadsDse)
        .then(cpu::GenerateOpenMpDesign);
    let performance = Flow::new("performance")
        .then(WatermarkKernel)
        .then(gpu::EmploySpMathFns)
        .then(gpu::EmploySpNumericLiterals)
        .then(gpu::EmployHipPinnedMemory)
        .then(gpu::BlocksizeDseTask {
            device: DeviceKind::Rtx2080Ti,
        })
        .then(gpu::GenerateHipDesign {
            device: DeviceKind::Rtx2080Ti,
        });

    let flow = Flow::new("custom-psa-flow")
        .then(tindep::IdentifyHotspotLoops)
        .then(tindep::HotspotLoopExtraction {
            kernel_name: "my_kernel".into(),
        })
        .then(tindep::PointerAnalysis)
        .then(tindep::LoopDependenceAnalysis)
        .branch(
            "budget gate",
            BudgetStrategy {
                budget_currency: budget,
            },
            vec![
                ("energy-saver".into(), energy_saver),
                ("performance".into(), performance),
            ],
        );

    let ast = Ast::from_source(APP, "custom").expect("parses");
    let mut ctx = FlowContext::new(ast, PsaParams::default());
    flow.execute(&mut ctx).expect("flow runs");

    for line in ctx
        .trace_lines()
        .iter()
        .filter(|l| l.contains("budget strategy"))
    {
        println!("  {line}");
    }
    // The watermark pragma lives in the working AST (design generators emit
    // framework-specific loop headers, so statement pragmas stay with the
    // exported MiniC++ form).
    assert!(ctx.ast.export().contains("psa generated-by custom-flow"));
    for d in &ctx.designs {
        println!(
            "  generated: {} ({} LOC, est. {:.3e} s)",
            d.device.label(),
            d.loc,
            d.estimated_time_s.unwrap_or(f64::NAN)
        );
    }
    println!();
}

fn main() {
    println!("=== custom flow with a budget-aware PSA strategy ===\n");
    run_with_budget(1e-3); // generous: the GPU path wins
    run_with_budget(1e-12); // impossible: fall back to the CPU path
}
