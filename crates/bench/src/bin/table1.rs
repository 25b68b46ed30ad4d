//! Regenerate Table I: added lines of code (LOC) for each generated design
//! compared to the reference unoptimised high-level source.
//!
//! "The generation of five new implementations for a single application
//! requires, on average, an additional 212% of the reference source-code
//! LOC." Unsynthesizable designs (Rush Larsen's FPGA variants) are excluded
//! exactly as the paper excludes them.

use psa_bench::faultargs::{run_or_exit, FaultArgs};
use psa_bench::obsout::ObsArgs;
use psa_bench::{params_for, run_all_on};
use psa_benchsuite::paper;
use psa_minicpp::canonicalise;
use psaflow_core::{DeviceKind, FlowEngine};

fn main() {
    // `--sequential` forces the single-threaded reference scheduler (one
    // benchmark at a time, every flow graph in stable topological order).
    // Stdout is byte-identical to the parallel default — CI diffs the two.
    let obs = ObsArgs::parse();
    let faults = FaultArgs::parse();
    let sequential = std::env::args().any(|a| a == "--sequential");
    println!("Table I — Added LOC per generated design vs reference");
    println!("(cells: paper% → measured%)\n");

    let engine = faults.engine(if sequential {
        FlowEngine::sequential()
    } else {
        FlowEngine::default()
    });
    let results = run_or_exit(run_all_on(engine));
    faults.report_failures(&results);
    println!(
        "{:<14} {:>7} {:>14} {:>14} {:>14} {:>14} {:>14} {:>16}",
        "App",
        "ref LOC",
        "OMP",
        "HIP 1080",
        "HIP 2080",
        "oneAPI A10",
        "oneAPI S10",
        "Total (5 designs)"
    );

    let mut avg_measured = [0.0f64; 5];
    let mut avg_counts = [0usize; 5];
    for (row, outcome) in &results {
        let bench = psa_benchsuite::by_key(&row.key).unwrap();
        let _ = params_for(&bench);
        // Canonicalise the reference so formatting differences cannot skew
        // the deltas.
        let reference = canonicalise(&bench.source, &bench.key).expect("reference parses");
        let ref_loc = reference.lines().filter(|l| !l.trim().is_empty()).count();

        let paper_row = paper::table1()
            .into_iter()
            .find(|r| r.key == row.key)
            .unwrap();
        let delta = |device: DeviceKind| -> Option<f64> {
            let d = outcome.design_for(device)?;
            if !d.synthesizable {
                return None;
            }
            Some((d.loc as f64 - ref_loc as f64) / ref_loc as f64 * 100.0)
        };
        let devices = [
            DeviceKind::Epyc7543,
            DeviceKind::Gtx1080Ti,
            DeviceKind::Rtx2080Ti,
            DeviceKind::Arria10,
            DeviceKind::Stratix10,
        ];
        let paper_vals = [
            Some(paper_row.omp_pct),
            Some(paper_row.hip_pct),
            Some(paper_row.hip_pct),
            paper_row.a10_pct,
            paper_row.s10_pct,
        ];
        let mut cells = Vec::new();
        let mut total = 0.0;
        let mut all_present = true;
        for (i, (device, paper_val)) in devices.iter().zip(paper_vals).enumerate() {
            let measured = delta(*device);
            let cell = match (paper_val, measured) {
                (Some(p), Some(m)) => {
                    total += m;
                    avg_measured[i] += m;
                    avg_counts[i] += 1;
                    format!("+{p:.0}%→+{m:.0}%")
                }
                (None, None) => {
                    all_present = false;
                    "n/a".to_string()
                }
                (p, m) => {
                    all_present = false;
                    format!("{p:?}→{m:?}")
                }
            };
            cells.push(cell);
        }
        let total_cell = if all_present {
            let paper_total = paper_row
                .total_pct
                .map_or("?".to_string(), |t| format!("+{t:.0}%"));
            format!("{paper_total}→+{total:.0}%")
        } else {
            "n/a".to_string()
        };
        println!(
            "{:<14} {:>7} {:>14} {:>14} {:>14} {:>14} {:>14} {:>16}",
            row.key, ref_loc, cells[0], cells[1], cells[2], cells[3], cells[4], total_cell
        );
    }

    println!("\nAverages (measured, over apps where the design exists):");
    let names = ["OMP", "HIP 1080", "HIP 2080", "oneAPI A10", "oneAPI S10"];
    for (i, name) in names.iter().enumerate() {
        if avg_counts[i] > 0 {
            println!(
                "  {name:<12} +{:.0}%",
                avg_measured[i] / avg_counts[i] as f64
            );
        }
    }
    println!("\n(paper averages: OMP +2%, HIP +36%, oneAPI A10 +57%, S10 +81%, total +212%)");

    if let Err(e) = obs.write_artifacts() {
        eprintln!("table1: failed to write observability artefacts: {e}");
        std::process::exit(1);
    }
}
