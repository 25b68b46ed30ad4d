//! One benchmark for the whole repository.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload sweep_cold|sweep_warm|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the workload end to end with all tracing off and
//! prints `setup_s`, `flows_per_s`, `turnaround_ms_p50/p90` and
//! `peak_rss_mb`. `--trace 1` is a separate run that attributes time to
//! each crate (see `layers.rs`). Every run checks every output against a
//! reference and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A wrong output makes the exit code
//! non-zero.

mod layers;
mod oracle;
mod stats;
mod stream;
mod workloads;

use workloads::Workload;

const USAGE: &str = "usage: psa-e2ebench --workload sweep_cold|sweep_warm|serve_mixed \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or_else(|| format!("unknown workload {workload_name}"))?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("psa-e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = if args.trace {
        layers::traced(args.workload, args.seed, args.seconds)
    } else {
        workloads::end_to_end(
            args.workload,
            args.seed,
            args.seconds,
            workloads::MIN_SAMPLES,
        )
    };
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("psa-e2ebench: {}: {e}", args.workload_name);
            std::process::exit(1);
        }
    };
    println!(
        "# workload {} seed {} nproc {} trace {} sampling: closed loops (sweeps: one client \
         per CPU; serve_mixed: one client); every unit in the window is a sample",
        args.workload_name,
        args.seed,
        stats::nproc(),
        u8::from(args.trace)
    );
    for note in &run.notes {
        println!("# {note}");
    }
    for m in &run.metrics {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = run.failed == 0 && run.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        stats::result_json(correct, run.attempted, run.failed, &run.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
