//! Tier-1: the bytecode VM reproduces the tree walker's profiled runs on
//! every benchsuite application — identical results, virtual clocks,
//! counters, and memory arenas, with and without kernel watching.
//!
//! This is the acceptance gate for the VM engine: the whole design flow
//! (hotspot ranking, offload tests, Fig. 5 numbers) reads these artefacts,
//! so any divergence here would silently change the paper's results.

use psaflow::analyses::hotspot::detect_and_extract;
use psaflow::benchsuite;
use psaflow::interp::{self, Engine, ProfiledRun, RunConfig};
use psaflow::minicpp::{parse_module, Module};

fn run(module: &Module, engine: Engine, watch: Option<&str>) -> ProfiledRun {
    let config = RunConfig {
        engine,
        watch_function: watch.map(String::from),
        ..RunConfig::default()
    };
    interp::run_main_profiled(module, config).expect("benchmark runs")
}

fn assert_identical(name: &str, tree: &ProfiledRun, vm: &ProfiledRun) {
    assert_eq!(
        format!("{:?}", tree.result),
        format!("{:?}", vm.result),
        "{name}: result diverged"
    );
    assert_eq!(tree.profile, vm.profile, "{name}: profile diverged");
    assert_eq!(
        format!("{:?}", tree.memory),
        format!("{:?}", vm.memory),
        "{name}: memory arena diverged"
    );
}

/// All five paper benchmarks produce bit-identical `ProfiledRun` artefacts
/// under both engines.
#[test]
fn benchmarks_profile_identically_under_both_engines() {
    for bench in benchsuite::all() {
        let m = parse_module(&bench.source, &bench.key).expect("benchmark parses");
        let tree = run(&m, Engine::Tree, None);
        let vm = run(&m, Engine::Vm, None);
        assert_identical(&bench.key, &tree, &vm);
        assert!(
            tree.profile.total_cycles > 0,
            "{}: trivial run proves nothing",
            bench.key
        );
    }
}

/// With the hottest loop extracted and watched — the configuration every
/// dynamic analysis uses — kernel-scoped accounting (cycles, FLOPs, access
/// ranges, argument pointers) also agrees exactly.
#[test]
fn watched_kernels_profile_identically_under_both_engines() {
    for bench in benchsuite::all() {
        let mut m = parse_module(&bench.source, &bench.key).expect("benchmark parses");
        detect_and_extract(&mut m, "diff_knl").expect("hotspot extraction");
        let tree = run(&m, Engine::Tree, Some("diff_knl"));
        let vm = run(&m, Engine::Vm, Some("diff_knl"));
        assert_identical(&bench.key, &tree, &vm);
        assert!(
            tree.profile.kernel_calls > 0,
            "{}: kernel never executed",
            bench.key
        );
    }
}

/// The kernel analysis hotspot extraction derives from the detection run
/// is the record a watched run of the extracted kernel produces — on every
/// paper benchmark and on the shapes that stress the derivation — under
/// both engines. The engine default is process-global, so each engine gets
/// a child process running the ignored child test.
#[test]
fn outlined_analyses_match_watched_kernel_runs_under_both_engines() {
    let exe = std::env::current_exe().expect("test binary path");
    for engine in ["tree", "vm"] {
        // Captured rather than inherited, so the child's report cannot
        // interleave with this harness's own per-test lines.
        let out = std::process::Command::new(&exe)
            .args([
                "--exact",
                "outlined_analysis_child",
                "--include-ignored",
                "--test-threads=1",
            ])
            .env("PSA_INTERP_ENGINE", engine)
            .output()
            .expect("spawn child");
        assert!(
            out.status.success(),
            "outlined analysis diverged under the {engine} interp engine:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// Hand-written shapes, each with whether the detection run can stand in
/// for a watched run of the extracted kernel.
const SHAPES: [(&str, bool, &str); 6] = [
    (
        "hot loop in a helper",
        true,
        "void work(double* a, double* b, int n) {\
           for (int i = 0; i < n; i++) { b[i] = sqrt(a[i]) * 2.0 + a[i]; }\
         }\
         int main() { int n = 256; double* a = alloc_double(n); double* b = alloc_double(n);\
           fill_random(a, n, 1); work(a, b, n);\
           for (int i = 0; i < 4; i++) { a[i] = 0.0; } sink(b[3]); return 0; }",
    ),
    (
        "candidate called from inside the hottest candidate",
        true,
        "void work(double* a, double* b, int n) {\
           for (int i = 0; i < n; i++) { b[i] += exp(a[i]); }\
         }\
         int main() { int n = 64; double* a = alloc_double(n); double* b = alloc_double(n);\
           fill_random(a, n, 2);\
           for (int r = 0; r < 4; r++) { work(a, b, n); a[r] = b[r]; }\
           sink(b[0]); return 0; }",
    ),
    (
        "hot loop entered several times",
        true,
        "void work(double* a, double* b, int lo, int hi) {\
           for (int i = lo; i < hi; i++) { b[i] = a[i] * a[i]; }\
         }\
         int main() { double* a = alloc_double(96); double* b = alloc_double(96);\
           double* c = alloc_double(96); fill_random(a, 96, 3);\
           work(a, b, 0, 40); work(b, c, 20, 96); work(a, c, 5, 6);\
           sink(c[30]); return 0; }",
    ),
    (
        "aliasing pointer arguments",
        true,
        "int main() { int n = 128; double* buf = alloc_double(n + n); fill_random(buf, n, 4);\
           double* x = buf; double* y = buf + n;\
           for (int i = 0; i < n; i++) { y[i] = x[i] * 0.5 + 1.0; }\
           sink(buf[n]); return 0; }",
    ),
    (
        "hot loop never entered",
        true,
        "int main() { double* a = alloc_double(8); int n = 0;\
           if (n > 0) { for (int i = 0; i < 8; i++) { a[i] = 1.0; } }\
           return 0; }",
    ),
    (
        "hottest candidate also entered inside another candidate",
        false,
        "void work(double* a, int n) {\
           for (int i = 0; i < n; i++) { a[i] = sqrt(a[i] + 1.0); }\
         }\
         int main() { double* a = alloc_double(512); fill_random(a, 512, 5);\
           work(a, 512);\
           for (int r = 0; r < 2; r++) { work(a, 4); }\
           sink(a[1]); return 0; }",
    ),
];

#[test]
#[ignore = "child of outlined_analyses_match_watched_kernel_runs_under_both_engines"]
fn outlined_analysis_child() {
    use psaflow::analyses::hotspot::detect_hotspots;
    use psaflow::analyses::{analyze_kernel, analyze_outlined};
    use psaflow::artisan::transforms::extract::extract_kernel;

    let apps: Vec<(String, bool, String)> = benchsuite::all()
        .into_iter()
        .map(|b| (b.key, true, b.source))
        .chain(
            SHAPES
                .iter()
                .map(|(name, derived, src)| (name.to_string(), *derived, src.to_string())),
        )
        .collect();
    for (name, derived, src) in apps {
        let mut m = parse_module(&src, &name).expect("parses");
        let report = detect_hotspots(&m).expect("detection runs");
        let hot = report.hottest().expect("has a candidate").stmt_id;
        extract_kernel(&mut m, hot, "knl").expect("extracts");
        let Some(window) = &report.hottest_window else {
            assert!(!derived, "{name}: no window to derive from");
            continue;
        };
        assert!(derived, "{name}: a window where none can stand in");
        assert_eq!(
            format!("{:?}", analyze_outlined(&m, "knl", window)),
            format!("{:?}", analyze_kernel(&m, "knl")),
            "{name}: derived analysis diverged"
        );
    }
}
