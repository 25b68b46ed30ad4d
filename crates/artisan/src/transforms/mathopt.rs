//! "Employ Specialised Math Fns" — peephole strength reduction into the
//! hardware-friendly intrinsics GPUs provide:
//!
//! * `1.0 / sqrt(x)`  → `rsqrt(x)` (one SFU instruction on NVIDIA parts),
//! * `1.0 / sqrtf(x)` → `rsqrtf(x)`,
//! * `pow(x, 2.0)`    → `x * x` (avoids the transcendental pipeline).

use super::TransformError;
use psa_minicpp::ast::*;
use psa_minicpp::visit::{self, Visit, VisitMut};

/// `1.0 / sqrt(x)` or `1.0 / sqrtf(x)`: the reciprocal-root intrinsic to
/// call instead, and `x`.
fn reciprocal_root(e: &Expr) -> Option<(&'static str, &Expr)> {
    let ExprKind::Binary {
        op: BinOp::Div,
        lhs,
        rhs,
    } = &e.kind
    else {
        return None;
    };
    let one = matches!(lhs.kind, ExprKind::FloatLit { value, .. } if value == 1.0)
        || matches!(lhs.kind, ExprKind::IntLit(1));
    let ExprKind::Call { callee, args } = &rhs.kind else {
        return None;
    };
    let name = match callee.as_str() {
        "sqrt" => "rsqrt",
        "sqrtf" => "rsqrtf",
        _ => return None,
    };
    match args.as_slice() {
        [x] if one => Some((name, x)),
        _ => None,
    }
}

/// `pow(x, 2)` or `powf(x, 2)` with `x` a simple operand: `x` (repeating a
/// complex expression would duplicate work, and side-effect-free analysis
/// is out of scope for a peephole pass).
fn squared_operand(e: &Expr) -> Option<&Expr> {
    let ExprKind::Call { callee, args } = &e.kind else {
        return None;
    };
    if callee != "pow" && callee != "powf" {
        return None;
    }
    let [x, exponent] = args.as_slice() else {
        return None;
    };
    let is_two = matches!(exponent.kind, ExprKind::IntLit(2))
        || matches!(exponent.kind, ExprKind::FloatLit { value, .. } if value == 2.0);
    let is_simple = matches!(
        x.kind,
        ExprKind::Ident(_)
            | ExprKind::Index { .. }
            | ExprKind::IntLit(_)
            | ExprKind::FloatLit { .. }
    );
    (is_two && is_simple).then_some(x)
}

/// Count the patterns [`employ_specialised_math`] would rewrite in
/// `fn_name`, without touching the module (a rewrite never creates or
/// removes a pattern around it, so the count is the rewrite's own).
pub fn specialised_math_sites(module: &Module, fn_name: &str) -> Result<usize, TransformError> {
    struct Count(usize);
    impl Visit for Count {
        fn visit_expr(&mut self, e: &Expr) {
            self.0 += usize::from(reciprocal_root(e).is_some() || squared_operand(e).is_some());
            visit::walk_expr(self, e);
        }
    }
    let func = module
        .function(fn_name)
        .ok_or_else(|| TransformError::new(format!("no function `{fn_name}`")))?;
    let mut v = Count(0);
    v.visit_function(func);
    Ok(v.0)
}

/// Apply the specialised-math rewrites within function `fn_name`. Returns
/// the number of rewrites performed.
pub fn employ_specialised_math(
    module: &mut Module,
    fn_name: &str,
) -> Result<usize, TransformError> {
    struct Rewriter {
        count: usize,
    }

    impl VisitMut for Rewriter {
        fn visit_expr_mut(&mut self, e: &mut Expr) {
            // Bottom-up: rewrite children first so nested patterns compose.
            visit::walk_expr_mut(self, e);

            // 1.0 / sqrt(x)  →  rsqrt(x)
            if let Some((name, x)) = reciprocal_root(e) {
                let call = ExprKind::Call {
                    callee: name.to_string(),
                    args: vec![x.clone()],
                };
                e.kind = call;
                self.count += 1;
                return;
            }

            // pow(x, 2) → x * x
            if let Some(x) = squared_operand(e) {
                let x = x.clone();
                e.kind = ExprKind::Binary {
                    op: BinOp::Mul,
                    lhs: Box::new(x.clone()),
                    rhs: Box::new(x),
                };
                self.count += 1;
            }
        }
    }

    let func = module
        .function_mut(fn_name)
        .ok_or_else(|| TransformError::new(format!("no function `{fn_name}`")))?;
    let mut r = Rewriter { count: 0 };
    r.visit_function_mut(func);
    // Re-key: cloned subexpressions must not share ids.
    let mut body = std::mem::replace(
        &mut module.function_mut(fn_name).expect("still there").body,
        Block {
            id: NodeId(0),
            span: psa_minicpp::Span::SYNTHETIC,
            stmts: Vec::new(),
        },
    );
    let mut next = module.next_id;
    psa_minicpp::ast::refresh_block_ids(&mut next, &mut body);
    module.next_id = next;
    module.function_mut(fn_name).expect("still there").body = body;
    Ok(r.count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_interp::{Interpreter, RunConfig, Value};
    use psa_minicpp::{parse_module, print_module};

    #[test]
    fn rsqrt_pattern() {
        let mut m = parse_module(
            "void knl(double* a, int n) { for (int i = 0; i < n; i++) { a[i] = 1.0 / sqrt(a[i]); } }",
            "t",
        )
        .unwrap();
        assert_eq!(employ_specialised_math(&mut m, "knl").unwrap(), 1);
        let out = print_module(&m);
        assert!(out.contains("a[i] = rsqrt(a[i]);"), "{out}");
    }

    #[test]
    fn rsqrtf_pattern_after_sp() {
        let mut m = parse_module(
            "void knl(float* a, int n) { for (int i = 0; i < n; i++) { a[i] = 1.0f / sqrtf(a[i]); } }",
            "t",
        )
        .unwrap();
        assert_eq!(employ_specialised_math(&mut m, "knl").unwrap(), 1);
        assert!(print_module(&m).contains("rsqrtf(a[i])"));
    }

    #[test]
    fn pow_squared_becomes_multiply() {
        let mut m = parse_module(
            "double knl(double x) { return pow(x, 2.0) + pow(x + 1.0, 2.0); }",
            "t",
        )
        .unwrap();
        // Only the simple-operand pow is rewritten.
        assert_eq!(employ_specialised_math(&mut m, "knl").unwrap(), 1);
        let out = print_module(&m);
        assert!(out.contains("x * x"), "{out}");
        assert!(
            out.contains("pow(x + 1.0, 2.0)"),
            "complex operand kept: {out}"
        );
    }

    #[test]
    fn semantics_preserved() {
        let src = "double knl(double x) { return 1.0 / sqrt(x) + pow(x, 2.0); } \
                   int main() { return (int)(knl(4.0) * 10.0); }";
        let reference = {
            let m = parse_module(src, "t").unwrap();
            Interpreter::new(&m, RunConfig::default())
                .run_main()
                .unwrap()
        };
        let mut m = parse_module(src, "t").unwrap();
        employ_specialised_math(&mut m, "knl").unwrap();
        let result = Interpreter::new(&m, RunConfig::default())
            .run_main()
            .unwrap();
        assert_eq!(reference, result);
        assert_eq!(result, Value::Int(165)); // (0.5 + 16) * 10
    }

    #[test]
    fn site_count_matches_what_the_rewrite_reports() {
        for src in [
            "double knl(double x) { return 1.0 / sqrt(pow(x, 2.0)) + pow(x + 1.0, 2); }",
            "void knl(float* a, int n) { for (int i = 0; i < n; i++) { a[i] = 1 / sqrtf(a[i]); } }",
            "double knl(double x) { return sqrt(x) / 2.0; }",
        ] {
            let mut m = parse_module(src, "t").unwrap();
            let sites = specialised_math_sites(&m, "knl").unwrap();
            assert_eq!(
                employ_specialised_math(&mut m, "knl").unwrap(),
                sites,
                "{src}"
            );
            assert_eq!(specialised_math_sites(&m, "knl").unwrap(), 0, "{src}");
        }
        let m = parse_module("double knl(double x) { return x; }", "t").unwrap();
        assert!(specialised_math_sites(&m, "nope").is_err());
    }

    #[test]
    fn nested_patterns_compose() {
        // pow(x,2) inside 1.0/sqrt(...)'s argument: both rewrites must not
        // interfere (bottom-up traversal).
        let mut m = parse_module(
            "double knl(double x) { return 1.0 / sqrt(pow(x, 2.0)); }",
            "t",
        )
        .unwrap();
        assert_eq!(employ_specialised_math(&mut m, "knl").unwrap(), 2);
        assert!(print_module(&m).contains("rsqrt(x * x)"));
    }
}
