//! Differential tests: the bytecode VM and the tree-walking evaluator must
//! be observationally identical — results, profiles (virtual clock and all
//! counters), memory arenas, and errors (variant, message, span).

use psa_interp::{Engine, LoopWatch, ProfiledRun, RunConfig, RuntimeError, WatchedLoop};
use psa_minicpp::ast::Item;
use psa_minicpp::parse_module;
use psa_minicpp::visit::collect_loops;

fn config(engine: Engine, watch: Option<&str>) -> RunConfig {
    RunConfig {
        engine,
        watch_function: watch.map(String::from),
        ..RunConfig::default()
    }
}

/// Run under both engines and assert identical outcomes. Debug formatting
/// is the equality notion for the artefacts (float Debug is
/// shortest-roundtrip, so it distinguishes all non-NaN bit patterns while
/// treating NaNs of any payload as equal).
fn assert_engines_agree(src: &str, watch: Option<&str>) -> Result<ProfiledRun, RuntimeError> {
    let m = parse_module(src, "diff").expect("parses");
    let tree = psa_interp::run_main_profiled(&m, config(Engine::Tree, watch));
    let vm = psa_interp::run_main_profiled(&m, config(Engine::Vm, watch));
    match (&tree, &vm) {
        (Ok(t), Ok(v)) => {
            assert_eq!(
                format!("{:?}", t.result),
                format!("{:?}", v.result),
                "result diverged"
            );
            assert_eq!(t.profile, v.profile, "profile diverged");
            assert_eq!(
                format!("{:?}", t.memory),
                format!("{:?}", v.memory),
                "memory diverged"
            );
        }
        (Err(t), Err(v)) => assert_eq!(t, v, "errors diverged"),
        (t, v) => panic!("engines disagree on success: tree={t:?} vm={v:?}"),
    }
    vm
}

/// Same, for programs expected to fail; returns the agreed error.
fn assert_same_error(src: &str) -> RuntimeError {
    assert_engines_agree(src, None).expect_err("program should fail")
}

// ----------------------------------------------------------------------
// Scope and shadowing semantics (the slot-resolution soundness cases).
// ----------------------------------------------------------------------

#[test]
fn shadowing_and_scope_programs_agree() {
    for src in [
        // Inner shadowing, assignment through shadowed names.
        "int main() { int x = 1; { int x = 10; x += 5; } { x += 2; } return x; }",
        // Initialiser sees the outer binding.
        "int main() { int x = 3; { int x = x * 7; sink(x); } return x; }",
        // For-loop induction variable scoping, declaring and not.
        "int main() { int i = 100; for (int i = 0; i < 3; i++) { sink(i); } return i; }",
        "int main() { int i = 0; for (i = 2; i < 9; i += 3) { } return i; }",
        // Loop-body declarations reset each iteration.
        "int main() { int s = 0; for (int i = 0; i < 4; i++) { int t = 1; t += i; s += t; } return s; }",
        // Body assignment to the induction variable is overwritten by the
        // step (which advances from the top-of-iteration value).
        "int main() { int n = 0; for (int i = 0; i < 10; i++) { i = 100; n += 1; } return n; }",
        // While loops, breaks, continues, nested.
        "int main() { int s = 0; int i = 0; while (i < 20) { i++; if (i % 3 == 0) { continue; } if (i > 15) { break; } s += i; } return s; }",
        // Shadowing between function scope and parameters.
        "int f(int x) { { int x = 5; sink(x); } return x; }\
         int main() { return f(9); }",
        // Globals read, written, and shadowed by locals.
        "int g = 7;\
         int bump() { g += 1; return g; }\
         int main() { int a = bump(); int g = 100; sink(g); return a + bump(); }",
        // Global initialisers may call functions and see earlier globals.
        "int a = 5; int b = a * 3;\
         int twice(int x) { return x * 2; }\
         int c = twice(b);\
         int main() { return a + b + c; }",
    ] {
        assert_engines_agree(src, None).unwrap();
    }
}

#[test]
fn arithmetic_conversion_and_ternary_programs_agree() {
    for src in [
        // Mixed-type arithmetic, promotions, casts, negation, not.
        "int main() { double d = 1.5; float f = 2.5; int i = 3; bool b = true;\
           double r = d * f + (double)i - (b ? 0.25 : 4.0);\
           return (int)(r * 1000.0) + (!b ? 1 : 2); }",
        // C assignment conversion keeps the variable's runtime type.
        "int main() { int x = 0; x = 7.9; double d = 0.0; d = 3; return x * 10 + (int)d; }",
        // Short-circuit operators charge per evaluated operand.
        "int divisible(int a, int b) { return a % b == 0 ? 1 : 0; }\
         int main() { int n = 0;\
           for (int i = 1; i < 50; i++) { if (i % 2 == 0 && divisible(i, 3) == 1) { n++; } }\
           for (int i = 1; i < 50; i++) { if (i % 2 == 0 || divisible(i, 3) == 1) { n++; } }\
           return n; }",
        // Pointer arithmetic and indexed compound assignment.
        "int main() { double* a = alloc_double(8); fill_random(a, 8, 42);\
           double* mid = a + 4;\
           for (int i = 0; i < 4; i++) { mid[i] += a[i] * 0.5; }\
           double s = 0.0; for (int i = 0; i < 8; i++) { s += a[i]; }\
           return (int)(s * 4096.0); }",
        // Recursion (call cost + depth accounting).
        "int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }\
         int main() { return fib(12); }",
        // Fractional indices truncate toward zero (both engines use the
        // same integer conversion for index expressions).
        "int main() { double* p = alloc_double(4); p[1] = 8.0; double d = 1.5; return (int)p[d]; }",
        // Math intrinsics of each cost class.
        "int main() { double x = 2.0;\
           double r = sqrt(x) + exp(x) * fabs(0.0 - x) + pow(x, 3.0) + floor(x / 3.0);\
           return (int)(r * 1024.0); }",
    ] {
        assert_engines_agree(src, None).unwrap();
    }
}

#[test]
fn watched_kernel_accounting_agrees() {
    let run = assert_engines_agree(
        "void knl(double* dst, double* src, int n) {\
           for (int i = 0; i < n; i++) { dst[i] = src[i] * 2.0 + 1.0; }\
         }\
         int main() {\
           double* a = alloc_double(32); double* b = alloc_double(32);\
           fill_random(a, 32, 7);\
           knl(b, a, 32); knl(b, a, 32);\
           double s = 0.0; for (int i = 0; i < 32; i++) { s += b[i]; }\
           return (int)(s * 64.0); }",
        Some("knl"),
    )
    .unwrap();
    // Sanity that the watch machinery was actually exercised.
    assert_eq!(run.profile.kernel_calls, 2);
    assert_eq!(run.profile.kernel_arg_ptrs.len(), 2);
    assert!(run.profile.kernel_bytes_loaded > 0);
}

/// Watch every outermost `for` loop of every function, recording the free
/// names in `pointers` at entry, and run under both engines.
fn assert_loop_watch_agrees(src: &str, pointers: &[&str]) -> ProfiledRun {
    let m = parse_module(src, "diff").expect("parses");
    let watch = LoopWatch {
        loops: m
            .items
            .iter()
            .filter_map(|item| match item {
                Item::Function(f) => Some(collect_loops(f)),
                _ => None,
            })
            .flatten()
            .filter(|(_, depth)| *depth == 0)
            .map(|(l, _)| WatchedLoop {
                id: l.id,
                pointers: pointers.iter().map(|p| p.to_string()).collect(),
            })
            .collect(),
    };
    let run = |engine| {
        psa_interp::run_main_watching_loops(&m, config(engine, None), &watch).expect("runs")
    };
    let (tree, vm) = (run(Engine::Tree), run(Engine::Vm));
    assert_eq!(format!("{:?}", tree.result), format!("{:?}", vm.result));
    assert_eq!(tree.profile, vm.profile, "profile diverged");
    assert_eq!(format!("{:?}", tree.memory), format!("{:?}", vm.memory));
    vm
}

#[test]
fn loop_watch_windows_agree() {
    // A hot loop entered twice through a helper, a loop calling the helper
    // (so the helper's loop runs inside its window), a loop that returns
    // from inside its body, and a recursive loop re-entering itself.
    let run = assert_loop_watch_agrees(
        "void scale(double* a, double* b, int n) {\
           for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0; }\
         }\
         int first(double* a, int n) {\
           for (int i = 0; i < n; i++) { if (a[i] > 0.5) { return i; } }\
           return n;\
         }\
         int depth(double* a, int d) {\
           int s = 0;\
           for (int i = 0; i < 2; i++) { a[d] += 1.0; if (d > 0) { s += depth(a, d - 1); } }\
           return s + 1;\
         }\
         int main() {\
           double* a = alloc_double(16); double* b = alloc_double(16);\
           fill_random(a, 16, 3);\
           scale(a, b, 16); scale(b, a, 8);\
           for (int r = 0; r < 3; r++) { scale(a, b, 4); }\
           int f = first(a, 16);\
           return f + depth(b, 2);\
         }",
        &["a", "b"],
    );
    let w = &run.profile.loop_windows;
    assert_eq!(w.len(), 4, "one record per watched loop");
    // `scale`: two windows of its own, three more inside `main`'s loop.
    assert_eq!((w[0].windows, w[0].nested), (2, 3));
    assert_eq!(w[0].pointers.len(), 2);
    assert!(w[0].access.len() == 2 && w[0].cycles > 0);
    // `first` returns from inside its window, which still closes.
    assert_eq!((w[1].windows, w[1].nested), (1, 0));
    // `depth` re-enters itself: one window, the rest nested.
    assert_eq!(w[2].windows, 1);
    assert!(w[2].nested > 0);
    // `main`'s loop window covers the three nested `scale` calls.
    assert_eq!((w[3].windows, w[3].nested), (1, 0));
    assert!(w[3].cycles > 0 && w[3].pointers[0].len() == 2);
    // No window is left open, so no access range is left undrained.
    assert!(run.memory.kernel_touched().is_empty());
}

// ----------------------------------------------------------------------
// Intrinsics error paths: wrong arity, wrong argument types, unknown
// intrinsics — identical RuntimeError variants and spans on both engines.
// ----------------------------------------------------------------------

#[test]
fn intrinsic_wrong_arity_errors_agree() {
    let err = assert_same_error("int main() { double r = sqrt(1.0, 2.0); return (int)r; }");
    match err {
        RuntimeError::Intrinsic { ref message, span } => {
            assert_eq!(message, "`sqrt` expects 1 argument(s)");
            assert!(span.line > 0, "span must point into the source");
        }
        other => panic!("expected intrinsic error, got {other:?}"),
    }

    let err = assert_same_error("int main() { fill_random(alloc_double(4), 4); return 0; }");
    assert!(matches!(
        err,
        RuntimeError::Intrinsic { ref message, .. } if message == "fill_random(ptr, n, seed)"
    ));

    let err = assert_same_error("int main() { double r = pow(2.0); return (int)r; }");
    assert!(matches!(
        err,
        RuntimeError::Intrinsic { ref message, .. } if message == "`pow` expects 2 argument(s)"
    ));
}

#[test]
fn intrinsic_wrong_type_errors_agree() {
    let err = assert_same_error(
        "int main() { double* p = alloc_double(4); double r = sqrt(p); return (int)r; }",
    );
    assert!(matches!(
        err,
        RuntimeError::Intrinsic { ref message, .. } if message == "`sqrt` needs a numeric argument"
    ));

    let err = assert_same_error(
        "int main() { double* p = alloc_double(4); double r = pow(2.0, p); return (int)r; }",
    );
    assert!(matches!(
        err,
        RuntimeError::Intrinsic { ref message, .. } if message == "`pow` needs numeric arguments"
    ));

    let err = assert_same_error(
        "int main() { double* p = alloc_double(4); double* q = alloc_double(p); return 0; }",
    );
    assert!(matches!(
        err,
        RuntimeError::Intrinsic { ref message, .. } if message == "alloc needs an integer length"
    ));

    let err = assert_same_error("int main() { double* p = alloc_double(0 - 3); return 0; }");
    assert!(matches!(
        err,
        RuntimeError::Intrinsic { ref message, .. } if message == "negative allocation length -3"
    ));

    let err = assert_same_error("int main() { fill_random(1, 2, 3); return 0; }");
    assert!(matches!(
        err,
        RuntimeError::Intrinsic { ref message, .. } if message == "fill_random needs a pointer"
    ));
}

#[test]
fn unknown_callee_errors_agree() {
    let err = assert_same_error("int main() { return frobnicate(1); }");
    match err {
        RuntimeError::Unbound { ref name, span } => {
            assert_eq!(name, "frobnicate");
            assert!(span.line > 0);
        }
        other => panic!("expected unbound error, got {other:?}"),
    }
}

#[test]
fn user_function_arity_errors_agree() {
    let err = assert_same_error("int f(int x) { return x; } int main() { return f(1, 2); }");
    assert!(matches!(
        err,
        RuntimeError::Type { ref message, .. } if message == "`f` expects 1 arguments, got 2"
    ));
}

// ----------------------------------------------------------------------
// General runtime error paths.
// ----------------------------------------------------------------------

#[test]
fn runtime_error_paths_agree() {
    for src in [
        // Unbound reads and writes.
        "int main() { return nope; }",
        "int main() { nope = 3; return 0; }",
        "int main() { nope += 3; return 0; }",
        "int main() { for (q = 0; q < 3; q++) { } return 0; }",
        // Division by zero, int and in a loop bound position.
        "int main() { int z = 0; return 4 / z; }",
        "int main() { int z = 0; int s = 0; for (int i = 0; i < 10 / z; i++) { s++; } return s; }",
        // Memory bounds.
        "int main() { double* a = alloc_double(4); return (int)a[9]; }",
        "int main() { double* a = alloc_double(4); a[0 - 1] = 2.0; return 0; }",
        // Type errors in conditions, coercions, indexing.
        "int main() { double* p = alloc_double(1); if (p) { return 1; } return 0; }",
        "int main() { double* p = alloc_double(1); int x = 0; x = p; return x; }",
        "int main() { int x = 5; return (int)x[0]; }",
        "int main() { double* p = alloc_double(4); for (int i = p; i < 3; i++) { } return 0; }",
        // Stack overflow.
        "int loop(int n) { return loop(n + 1); } int main() { return loop(0); }",
        // Negative array length.
        "int main() { int n = 0 - 2; double a[n]; return 0; }",
    ] {
        assert_engines_agree(src, None).expect_err("program should fail");
    }
}

/// The virtual clocks agree at the exact cycle where the budget runs out:
/// sweeping the budget over a window, both engines flip from error to
/// success at the same threshold and report the same error.
#[test]
fn cycle_budget_exhaustion_is_cycle_exact() {
    let src = "int main() { int s = 0; for (int i = 0; i < 9; i++) { s += i * i; } return s; }";
    let m = parse_module(src, "budget").unwrap();
    let mut flips = 0;
    let mut last_ok = false;
    for max_cycles in 0..220 {
        let mk = |engine| RunConfig {
            engine,
            max_cycles,
            ..RunConfig::default()
        };
        let tree = psa_interp::run_main_profiled(&m, mk(Engine::Tree));
        let vm = psa_interp::run_main_profiled(&m, mk(Engine::Vm));
        match (&tree, &vm) {
            (Ok(t), Ok(v)) => assert_eq!(t.profile, v.profile),
            (Err(t), Err(v)) => assert_eq!(t, v),
            _ => panic!("engines disagree at budget {max_cycles}: tree={tree:?} vm={vm:?}"),
        }
        let ok = tree.is_ok();
        if ok != last_ok {
            flips += 1;
            last_ok = ok;
        }
    }
    assert_eq!(flips, 1, "expected a single error→success threshold");
}
