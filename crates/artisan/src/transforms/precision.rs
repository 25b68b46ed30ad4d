//! Single-precision conversion — "Employ SP Numeric Literals" and
//! "Employ SP Math Fns".
//!
//! Both GPU and FPGA paths in the paper's flow apply these: consumer GPUs
//! have far higher FP32 than FP64 throughput, and FP32 FPGA datapaths use a
//! fraction of the DSP/LUT area. The transforms operate on one function
//! (the extracted kernel); the host code keeps double precision.

use super::TransformError;
use psa_interp::intrinsics::sp_variant;
use psa_minicpp::ast::*;
use psa_minicpp::visit::{self, Visit, VisitMut};

/// Count the sites [`employ_sp_literals`] would rewrite in `fn_name`,
/// without touching the module: a caller holding a shared AST can leave it
/// shared when the count is 0.
pub fn sp_literal_sites(module: &Module, fn_name: &str) -> Result<usize, TransformError> {
    struct Count(usize);
    impl Visit for Count {
        fn visit_expr(&mut self, e: &Expr) {
            match &e.kind {
                ExprKind::FloatLit { single: false, .. } => self.0 += 1,
                ExprKind::Cast { ty, .. } if ty.scalar == Scalar::Double => self.0 += 1,
                _ => {}
            }
            visit::walk_expr(self, e);
        }

        fn visit_stmt(&mut self, s: &Stmt) {
            if matches!(&s.kind, StmtKind::Decl(d) if d.ty.scalar == Scalar::Double) {
                self.0 += 1;
            }
            visit::walk_stmt(self, s);
        }
    }

    let func = module
        .function(fn_name)
        .ok_or_else(|| TransformError::new(format!("no function `{fn_name}`")))?;
    let signature = func.params.iter().map(|p| &p.ty).chain([&func.ret]);
    let mut v = Count(signature.filter(|t| t.scalar == Scalar::Double).count());
    v.visit_function(func);
    Ok(v.0)
}

/// Convert every `double` literal, declaration, parameter, and cast in
/// function `fn_name` to `float`. Returns the number of rewrites.
pub fn employ_sp_literals(module: &mut Module, fn_name: &str) -> Result<usize, TransformError> {
    struct ToSp {
        count: usize,
    }
    impl VisitMut for ToSp {
        fn visit_expr_mut(&mut self, e: &mut Expr) {
            match &mut e.kind {
                ExprKind::FloatLit { single, .. } if !*single => {
                    *single = true;
                    self.count += 1;
                }
                ExprKind::Cast { ty, .. } if ty.scalar == Scalar::Double => {
                    ty.scalar = Scalar::Float;
                    self.count += 1;
                }
                _ => {}
            }
            visit::walk_expr_mut(self, e);
        }

        fn visit_stmt_mut(&mut self, s: &mut Stmt) {
            if let StmtKind::Decl(d) = &mut s.kind {
                if d.ty.scalar == Scalar::Double {
                    d.ty.scalar = Scalar::Float;
                    self.count += 1;
                }
            }
            visit::walk_stmt_mut(self, s);
        }
    }

    let func = module
        .function_mut(fn_name)
        .ok_or_else(|| TransformError::new(format!("no function `{fn_name}`")))?;
    let mut v = ToSp { count: 0 };
    for p in &mut func.params {
        if p.ty.scalar == Scalar::Double {
            p.ty.scalar = Scalar::Float;
            v.count += 1;
        }
    }
    if func.ret.scalar == Scalar::Double {
        func.ret.scalar = Scalar::Float;
        v.count += 1;
    }
    v.visit_function_mut(func);
    Ok(v.count)
}

/// Count the calls [`employ_sp_math`] would rewrite in `fn_name`, without
/// touching the module.
pub fn sp_math_sites(module: &Module, fn_name: &str) -> Result<usize, TransformError> {
    struct Count(usize);
    impl Visit for Count {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprKind::Call { callee, .. } = &e.kind {
                self.0 += usize::from(sp_variant(callee).is_some());
            }
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

/// Replace double-precision math calls (`sqrt`, `exp`, …) with their
/// single-precision variants (`sqrtf`, `expf`, …) in function `fn_name`.
/// Returns the number of calls rewritten.
pub fn employ_sp_math(module: &mut Module, fn_name: &str) -> Result<usize, TransformError> {
    struct ToSpMath {
        count: usize,
    }
    impl VisitMut for ToSpMath {
        fn visit_expr_mut(&mut self, e: &mut Expr) {
            if let ExprKind::Call { callee, .. } = &mut e.kind {
                if let Some(sp) = sp_variant(callee) {
                    *callee = sp.to_string();
                    self.count += 1;
                }
            }
            visit::walk_expr_mut(self, e);
        }
    }
    let func = module
        .function_mut(fn_name)
        .ok_or_else(|| TransformError::new(format!("no function `{fn_name}`")))?;
    let mut v = ToSpMath { count: 0 };
    v.visit_function_mut(func);
    Ok(v.count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_minicpp::{parse_module, print_module};

    const KNL: &str = "void knl(double* a, int n) {\
        for (int i = 0; i < n; i++) {\
          double x = (double)i;\
          a[i] = sqrt(x) * 2.0 + exp(x * 0.5);\
        }\
      }";

    #[test]
    fn sp_literals_rewrites_types_and_literals() {
        let mut m = parse_module(KNL, "t").unwrap();
        let n = employ_sp_literals(&mut m, "knl").unwrap();
        assert!(n >= 4, "param, decl, cast, two literals: got {n}");
        let out = print_module(&m);
        assert!(out.contains("void knl(float* a, int n)"), "{out}");
        assert!(out.contains("float x = (float)i;"), "{out}");
        assert!(out.contains("2.0f"), "{out}");
        assert!(out.contains("0.5f"), "{out}");
        parse_module(&out, "t").unwrap();
    }

    #[test]
    fn sp_math_rewrites_calls_only() {
        let mut m = parse_module(KNL, "t").unwrap();
        let n = employ_sp_math(&mut m, "knl").unwrap();
        assert_eq!(n, 2);
        let out = print_module(&m);
        assert!(out.contains("sqrtf("), "{out}");
        assert!(out.contains("expf("), "{out}");
        // Types untouched by the math transform.
        assert!(out.contains("double* a"), "{out}");
    }

    #[test]
    fn transforms_scope_to_named_function_only() {
        let src = format!("{KNL} void host() {{ double y = sqrt(2.0); sink(y); }}");
        let mut m = parse_module(&src, "t").unwrap();
        employ_sp_literals(&mut m, "knl").unwrap();
        employ_sp_math(&mut m, "knl").unwrap();
        let out = print_module(&m);
        assert!(
            out.contains("double y = sqrt(2.0);"),
            "host untouched: {out}"
        );
    }

    #[test]
    fn unknown_function_is_an_error() {
        let mut m = parse_module(KNL, "t").unwrap();
        assert!(employ_sp_literals(&mut m, "nope").is_err());
        assert!(employ_sp_math(&mut m, "nope").is_err());
        assert!(sp_literal_sites(&m, "nope").is_err());
        assert!(sp_math_sites(&m, "nope").is_err());
    }

    #[test]
    fn site_counts_match_what_the_rewrites_report() {
        let nested = "double knl(double x, int n) {\
            double s = 0.0;\
            for (int i = 0; i < n; i++) { s += (double)i * exp(sqrt(x) * 0.5); }\
            return s;\
          }";
        let single = "void knl(float* a, int n) {\
            for (int i = 0; i < n; i++) { a[i] = sqrtf(a[i]) * 2.0f; }\
          }";
        for src in [KNL, nested, single] {
            let m = parse_module(src, "t").unwrap();
            let (literals, math) = (
                sp_literal_sites(&m, "knl").unwrap(),
                sp_math_sites(&m, "knl").unwrap(),
            );
            let mut rewritten = m.clone();
            assert_eq!(employ_sp_literals(&mut rewritten, "knl").unwrap(), literals);
            assert_eq!(employ_sp_math(&mut rewritten, "knl").unwrap(), math);
            assert_eq!(sp_literal_sites(&rewritten, "knl").unwrap(), 0);
            assert_eq!(sp_math_sites(&rewritten, "knl").unwrap(), 0);
        }
        let m = parse_module(single, "t").unwrap();
        assert_eq!(sp_literal_sites(&m, "knl").unwrap(), 0);
        assert_eq!(sp_math_sites(&m, "knl").unwrap(), 0);
    }

    #[test]
    fn idempotent_on_second_application() {
        let mut m = parse_module(KNL, "t").unwrap();
        employ_sp_literals(&mut m, "knl").unwrap();
        let again = employ_sp_literals(&mut m, "knl").unwrap();
        assert_eq!(again, 0);
        employ_sp_math(&mut m, "knl").unwrap();
        assert_eq!(employ_sp_math(&mut m, "knl").unwrap(), 0);
    }
}
