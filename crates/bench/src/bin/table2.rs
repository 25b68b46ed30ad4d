//! Regenerate Table II: the comparison of design approaches that partition
//! (P), map (M), and/or optimise (O) applications onto specialised hardware.
//!
//! The matrix itself is qualitative; this binary additionally *demonstrates*
//! the "This Work" row by pointing at the concrete subsystems implementing
//! each capability.

use psa_bench::faultargs::FaultArgs;
use psa_bench::obsout::ObsArgs;
use psaflow_core::related;

fn main() {
    let obs = ObsArgs::parse();
    // Parsed for interface uniformity; Table II runs no flows, so the
    // policy and plan never engage.
    let _faults = FaultArgs::parse();
    println!("Table II — Design-approach capability matrix\n");
    print!("{}", related::render_table2());

    println!("\n\"This Work\" row, demonstrated by this repository:");
    println!("  P (partition): hotspot detection + kernel extraction (psa-analyses::hotspot)");
    println!("  M (map):       Fig. 3 PSA strategy at branch point A (psaflow-core::strategy)");
    println!("  O (optimise):  transform + DSE tasks per target (psaflow-core::tasks, ::dse)");
    println!("  Multi-target:  OpenMP CPU, HIP GPUs, oneAPI FPGAs from one source");
    println!("  Scope:         full applications (host code regenerated around the kernel)");

    // Table II runs no flows; the artefacts are valid but empty.
    if let Err(e) = obs.write_artifacts() {
        eprintln!("table2: failed to write observability artefacts: {e}");
        std::process::exit(1);
    }
}
