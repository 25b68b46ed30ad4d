//! Regenerate Fig. 6: relative costs of FPGA vs GPU execution for varying
//! resource prices.
//!
//! "Fig. 6 shows the relative cost of FPGA and GPU execution for three
//! applications based on the Stratix10 and 2080 Ti results from Fig. 5."
//! The three applications with both designs and meaningful crossovers are
//! AdPredictor, Bezier, and K-Means.

use psa_bench::faultargs::{run_or_exit, FaultArgs};
use psa_bench::obsout::ObsArgs;
use psa_bench::run_all_on;
use psa_platform::pricing::{fig6_price_ratios, CostCase, CostStudy};
use psaflow_core::{DeviceKind, FlowEngine};

fn main() {
    let obs = ObsArgs::parse();
    let faults = FaultArgs::parse();
    println!("Fig. 6 — Relative cost of FPGA (Stratix10) vs GPU (2080 Ti) execution");
    println!("cost_FPGA / cost_GPU at price ratio p = price_FPGA / price_GPU\n");

    let results = run_or_exit(run_all_on(faults.engine(FlowEngine::default())));
    faults.report_failures(&results);
    // The paper plots three applications; N-Body's FPGA designs are off the
    // 1/4…4 axis entirely (the GPU is ~300× more cost-effective).
    let fig6_apps = ["adpredictor", "bezier", "kmeans"];
    let mut cases = Vec::new();
    for (row, outcome) in &results {
        if !fig6_apps.contains(&row.key.as_str()) {
            continue;
        }
        let (Some(fpga), Some(gpu)) = (
            outcome
                .design_for(DeviceKind::Stratix10)
                .and_then(|d| d.estimated_time_s),
            outcome
                .design_for(DeviceKind::Rtx2080Ti)
                .and_then(|d| d.estimated_time_s),
        ) else {
            continue;
        };
        cases.push(CostCase {
            app: row.key.clone(),
            t_fpga_s: fpga,
            t_gpu_s: gpu,
        });
    }
    let study = CostStudy { cases };

    print!("{:<14}", "price ratio:");
    for r in fig6_price_ratios() {
        print!("{:>9}", format_ratio(r));
    }
    println!();
    for case in &study.cases {
        print!("{:<14}", case.app);
        for r in fig6_price_ratios() {
            print!("{:>9.2}", case.relative_cost(r));
        }
        println!("   crossover at p = {:.2}", case.crossover_price_ratio());
    }

    println!("\nReadings (cost < 1 ⇒ FPGA more cost-effective):");
    for case in &study.cases {
        let c = case.crossover_price_ratio();
        if c > 1.0 {
            println!(
                "  {:<14} FPGA is faster; GPU becomes more cost-effective only when the \
                 FPGA price exceeds {c:.1}× the GPU price (paper: AdPredictor at 3.2×)",
                case.app
            );
        } else {
            println!(
                "  {:<14} GPU is faster; FPGA becomes more cost-effective when the GPU \
                 price exceeds {:.1}× the FPGA price (paper: Bezier at 2.5×)",
                case.app,
                1.0 / c
            );
        }
    }

    if let Err(e) = obs.write_artifacts() {
        eprintln!("fig6: failed to write observability artefacts: {e}");
        std::process::exit(1);
    }
}

fn format_ratio(r: f64) -> String {
    if r < 1.0 {
        format!("1/{:.0}", 1.0 / r)
    } else {
        format!("{r:.0}")
    }
}
