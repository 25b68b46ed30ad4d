//! Property tests: the source-to-source transforms preserve program
//! semantics on randomized inputs — the soundness contract every
//! design-flow task relies on.

use proptest::prelude::*;
use psa_artisan::edit::{insert_stmt, Position};
use psa_artisan::query;
use psa_artisan::transforms::mathopt::employ_specialised_math;
use psa_artisan::transforms::reduction::remove_array_accumulation;
use psa_artisan::transforms::unroll::fully_unroll;
use psa_interp::{Interpreter, RunConfig, Value};
use psa_minicpp::ast::build;
use psa_minicpp::{parse_module, print_module, Module};

fn run(m: &Module) -> Value {
    let mut interp = Interpreter::new(m, RunConfig::default());
    interp.run_main().expect("runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Full unrolling preserves results for arbitrary literal loop shapes.
    #[test]
    fn full_unroll_preserves_semantics(
        trip in 0i64..20,
        step in 1i64..4,
        scale in -5i64..5,
        n in 4usize..32,
    ) {
        let bound = trip * step;
        let src = format!(
            "int main() {{\
               double* a = alloc_double({n});\
               fill_random(a, {n}, 7);\
               double s = 0.0;\
               for (int i = 0; i < {bound}; i += {step}) {{\
                 s += a[(i + {n}) % {n}] * (double){scale};\
               }}\
               return (int)(s * 512.0);\
             }}"
        );
        let reference = run(&parse_module(&src, "p").unwrap());
        let mut m = parse_module(&src, "p").unwrap();
        let target = query::loops(&m, |_| true)[0].stmt_id;
        fully_unroll(&mut m, target).expect("literal bounds unroll");
        prop_assert!(query::loops(&m, |_| true).is_empty());
        prop_assert_eq!(run(&m), reference);
        // And the unrolled module still parses after printing.
        parse_module(&print_module(&m), "p").expect("unrolled form reparses");
    }

    /// The reduction rewrite preserves results whenever it applies.
    #[test]
    fn reduction_rewrite_preserves_semantics(n in 2usize..24, idx in 0usize..4, seed in 0i64..1000) {
        let idx = idx.min(n - 1);
        let src = format!(
            "int main() {{\
               double* acc = alloc_double({n});\
               double* src = alloc_double({n});\
               fill_random(src, {n}, {seed});\
               for (int j = 0; j < {n}; j++) {{\
                 acc[{idx}] += src[j] * 0.5;\
               }}\
               return (int)(acc[{idx}] * 1024.0);\
             }}"
        );
        let reference = run(&parse_module(&src, "p").unwrap());
        let mut m = parse_module(&src, "p").unwrap();
        let target = query::loops(&m, |_| true)[0].stmt_id;
        let rewritten = remove_array_accumulation(&mut m, target).expect("transform runs");
        prop_assert_eq!(rewritten, 1, "the accumulation is eligible");
        prop_assert_eq!(run(&m), reference);
    }

    /// The specialised-math peepholes are value-preserving.
    #[test]
    fn specialised_math_preserves_semantics(x in 0.1f64..50.0) {
        let src = format!(
            "double knl(double v) {{ return 1.0 / sqrt(v) + pow(v, 2.0); }}\
             int main() {{ return (int)(knl({x:?}) * 256.0); }}"
        );
        let reference = run(&parse_module(&src, "p").unwrap());
        let mut m = parse_module(&src, "p").unwrap();
        employ_specialised_math(&mut m, "knl").unwrap();
        prop_assert_eq!(run(&m), reference);
    }

    /// Node-id uniqueness is an invariant across edits: inserting probes at
    /// random loops never produces duplicate ids.
    #[test]
    fn edits_preserve_id_uniqueness(loops in 1usize..5, probe_at in 0usize..5) {
        let body: String = (0..loops)
            .map(|k| format!("for (int i{k} = 0; i{k} < 3; i{k}++) {{ sink(i{k}); }}"))
            .collect();
        let src = format!("int main() {{ {body} return 0; }}");
        let mut m = parse_module(&src, "p").unwrap();
        let all = query::loops(&m, |_| true);
        let target = all[probe_at % all.len()].stmt_id;
        for pos in [Position::Before, Position::After] {
            let probe = build::expr_stmt(build::call("sink", vec![build::int(9)]));
            insert_stmt(&mut m, target, pos, probe).unwrap();
        }

        // Collect every statement/expression id and assert uniqueness.
        use psa_minicpp::visit::{self, Visit};
        #[derive(Default)]
        struct Ids(Vec<u32>);
        impl Visit for Ids {
            fn visit_stmt(&mut self, s: &psa_minicpp::Stmt) {
                self.0.push(s.id.0);
                visit::walk_stmt(self, s);
            }
            fn visit_expr(&mut self, e: &psa_minicpp::Expr) {
                self.0.push(e.id.0);
                visit::walk_expr(self, e);
            }
        }
        let mut ids = Ids::default();
        ids.visit_module(&m);
        let before = ids.0.len();
        ids.0.sort_unstable();
        ids.0.dedup();
        prop_assert_eq!(ids.0.len(), before, "duplicate node ids after edit");

        // The probed program still runs.
        prop_assert_eq!(run(&m), Value::Int(0));
    }
}
