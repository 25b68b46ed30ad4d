//! Static arithmetic-intensity analysis.
//!
//! "static arithmetic intensity analysis to indicate if computations are
//! compute- or memory-bound" (§III). The analysis walks the kernel function
//! *without executing it*, counting FLOP-equivalents and memory-traffic
//! bytes per execution, weighting loop bodies by their static trip counts
//! (runtime-bound loops get a uniform symbolic weight, which cancels in the
//! ratio as nests dominate). The resulting FLOPs/byte is the `X`-threshold
//! input of the PSA strategy in Fig. 3.

use crate::AnalysisError;
use psa_artisan::sym::{function_symbols, SymbolTable};
use psa_minicpp::ast::*;

/// Weight assumed for loops whose trip count is unknown statically.
pub const DYNAMIC_TRIP_WEIGHT: f64 = 1024.0;

/// FLOP-equivalents for transcendental calls (matches the interpreter's
/// cost model so static and dynamic intensities are comparable).
const TRANSCENDENTAL_FLOPS: f64 = 8.0;
const SQRT_FLOPS: f64 = 4.0;

/// The intensity report.
#[derive(Debug, Clone, PartialEq)]
pub struct IntensityReport {
    /// Estimated FLOP-equivalents per kernel execution.
    pub flops: f64,
    /// Estimated bytes of memory traffic per kernel execution.
    pub bytes: f64,
    /// The headline ratio (∞ when no memory is touched).
    pub flops_per_byte: f64,
}

impl IntensityReport {
    /// The PSA strategy's memory-bound test: intensity below threshold `x`.
    pub fn is_memory_bound(&self, x: f64) -> bool {
        self.flops_per_byte < x
    }
}

/// Analyse function `kernel` in `module`.
pub fn analyze(module: &Module, kernel: &str) -> Result<IntensityReport, AnalysisError> {
    let func = module
        .function(kernel)
        .ok_or_else(|| AnalysisError::NotFound(format!("function `{kernel}`")))?;
    let symbols = function_symbols(module, func);
    let mut w = Walker {
        symbols: &symbols,
        flops: 0.0,
        bytes: 0.0,
    };
    w.block(&func.body, 1.0);
    let ratio = if w.bytes == 0.0 {
        f64::INFINITY
    } else {
        w.flops / w.bytes
    };
    Ok(IntensityReport {
        flops: w.flops,
        bytes: w.bytes,
        flops_per_byte: ratio,
    })
}

struct Walker<'a> {
    symbols: &'a SymbolTable,
    flops: f64,
    bytes: f64,
}

impl Walker<'_> {
    fn block(&mut self, block: &Block, weight: f64) {
        for stmt in &block.stmts {
            self.stmt(stmt, weight);
        }
    }

    fn stmt(&mut self, stmt: &Stmt, weight: f64) {
        match &stmt.kind {
            StmtKind::Decl(d) => {
                if let Some(e) = &d.init {
                    self.expr(e, weight);
                }
                if let Some(e) = &d.array_len {
                    self.expr(e, weight);
                }
            }
            StmtKind::Assign { target, op, value } => {
                self.expr(value, weight);
                match &target.kind {
                    ExprKind::Index { base, index } => {
                        self.expr(index, weight);
                        let elem = self.elem_bytes(base);
                        // Compound assignment loads the old value too.
                        if op.bin_op().is_some() {
                            self.bytes += weight * elem;
                            if self.expr_is_floating(value) || self.elem_is_floating(base) {
                                self.flops += weight;
                            }
                        }
                        self.bytes += weight * elem;
                    }
                    _ => {
                        // Scalar (register) assignment: compound ops still
                        // cost a FLOP when floating.
                        if op.bin_op().is_some() && self.expr_is_floating(target) {
                            self.flops += weight;
                        }
                    }
                }
            }
            StmtKind::Expr(e) => self.expr(e, weight),
            StmtKind::If { cond, then, els } => {
                self.expr(cond, weight);
                // Both sides weighted at half: a static branch predictor's
                // agnostic prior.
                self.block(then, weight * 0.5);
                if let Some(els) = els {
                    self.block(els, weight * 0.5);
                }
            }
            StmtKind::For(l) => {
                self.expr(&l.init, weight);
                let trips = l
                    .static_trip_count()
                    .map_or(DYNAMIC_TRIP_WEIGHT, |t| t as f64);
                let inner = weight * trips;
                self.expr(&l.bound, inner);
                self.expr(&l.step, inner);
                self.block(&l.body, inner);
            }
            StmtKind::While { cond, body } => {
                let inner = weight * DYNAMIC_TRIP_WEIGHT;
                self.expr(cond, inner);
                self.block(body, inner);
            }
            StmtKind::Return(Some(e)) => self.expr(e, weight),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Block(b) => self.block(b, weight),
        }
    }

    fn expr(&mut self, e: &Expr, weight: f64) {
        match &e.kind {
            ExprKind::Binary { op, lhs, rhs } => {
                self.expr(lhs, weight);
                self.expr(rhs, weight);
                if op.is_arith() && (self.expr_is_floating(lhs) || self.expr_is_floating(rhs)) {
                    self.flops += weight;
                }
            }
            ExprKind::Unary { expr, op } => {
                self.expr(expr, weight);
                if matches!(op, UnOp::Neg) && self.expr_is_floating(expr) {
                    self.flops += weight;
                }
            }
            ExprKind::Call { callee, args } => {
                for a in args {
                    self.expr(a, weight);
                }
                match psa_interp::intrinsics::lookup(callee) {
                    Some(psa_interp::intrinsics::Intrinsic::Math(f)) => {
                        use psa_interp::intrinsics::MathCost;
                        self.flops += weight
                            * match f.op.cost_class() {
                                MathCost::Cheap => 1.0,
                                MathCost::Sqrt => SQRT_FLOPS,
                                MathCost::Transcendental => TRANSCENDENTAL_FLOPS,
                            };
                    }
                    _ => {
                        // User call: fold in the callee? Conservatively count
                        // nothing — kernels in this flow are leaf functions.
                    }
                }
            }
            ExprKind::Index { base, index } => {
                self.expr(index, weight);
                self.bytes += weight * self.elem_bytes(base);
            }
            ExprKind::Cast { expr, .. } => self.expr(expr, weight),
            ExprKind::Ternary { cond, then, els } => {
                self.expr(cond, weight);
                self.expr(then, weight * 0.5);
                self.expr(els, weight * 0.5);
            }
            ExprKind::IntLit(_)
            | ExprKind::FloatLit { .. }
            | ExprKind::BoolLit(_)
            | ExprKind::Ident(_) => {}
        }
    }

    fn elem_bytes(&self, base: &Expr) -> f64 {
        match base.as_ident().and_then(|n| self.symbols.get(n)) {
            Some(ty) => ty.scalar.size_bytes() as f64,
            None => 8.0,
        }
    }

    fn elem_is_floating(&self, base: &Expr) -> bool {
        base.as_ident()
            .and_then(|n| self.symbols.get(n))
            .is_some_and(|t| t.scalar.is_floating())
    }

    /// Shallow static type test: is this expression floating-valued?
    fn expr_is_floating(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::FloatLit { .. } => true,
            ExprKind::IntLit(_) | ExprKind::BoolLit(_) => false,
            ExprKind::Ident(name) => self
                .symbols
                .get(name)
                .is_some_and(|t| !t.is_pointer() && t.scalar.is_floating()),
            ExprKind::Index { base, .. } => self.elem_is_floating(base),
            ExprKind::Binary { lhs, rhs, op } => {
                op.is_arith() && (self.expr_is_floating(lhs) || self.expr_is_floating(rhs))
            }
            ExprKind::Unary { expr, .. } => self.expr_is_floating(expr),
            ExprKind::Cast { ty, .. } => ty.scalar.is_floating(),
            ExprKind::Call { callee, .. } => matches!(
                psa_interp::intrinsics::lookup(callee),
                Some(psa_interp::intrinsics::Intrinsic::Math(_))
            ),
            ExprKind::Ternary { then, els, .. } => {
                self.expr_is_floating(then) || self.expr_is_floating(els)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_minicpp::parse_module;

    fn report(src: &str) -> IntensityReport {
        let m = parse_module(src, "t").unwrap();
        analyze(&m, "knl").unwrap()
    }

    #[test]
    fn streaming_kernel_is_memory_bound() {
        // K-Means-style: 3 FLOPs per 16 bytes.
        let r = report(
            "void knl(double* p, double* c, int n) {\
               for (int i = 0; i < n; i++) {\
                 double dx = p[i] - c[i];\
                 sink(dx);\
               }\
             }",
        );
        assert!(r.flops_per_byte < 0.5, "ratio {}", r.flops_per_byte);
        assert!(r.is_memory_bound(0.5));
    }

    #[test]
    fn transcendental_kernel_is_compute_bound() {
        let r = report(
            "void knl(double* a, int n) {\
               for (int i = 0; i < n; i++) {\
                 a[i] = exp(a[i]) + sqrt(a[i]) * sin(a[i]);\
               }\
             }",
        );
        assert!(r.flops_per_byte > 0.5, "ratio {}", r.flops_per_byte);
        assert!(!r.is_memory_bound(0.5));
    }

    #[test]
    fn nested_static_loops_multiply_weights() {
        let flat =
            report("void knl(double* a) { for (int i = 0; i < 8; i++) { a[i] = a[i] * 2.0; } }");
        let nested = report(
            "void knl(double* a) { for (int i = 0; i < 8; i++) { for (int j = 0; j < 8; j++) { a[j] = a[j] * 2.0; } } }",
        );
        assert!((nested.flops / flat.flops - 8.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_is_scale_invariant_for_runtime_bounds() {
        // The symbolic trip weight cancels in the ratio for the dominant
        // inner body.
        let r1 = report(
            "void knl(double* a, int n) { for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; } }",
        );
        let r2 = report(
            "void knl(double* a, int n) { for (int i = 0; i < n; i++) { for (int j = 0; j < n; j++) { a[j] = a[j] * 2.0; } } }",
        );
        assert!((r1.flops_per_byte - r2.flops_per_byte).abs() / r1.flops_per_byte < 0.05);
    }

    #[test]
    fn float_buffers_halve_the_bytes() {
        let d = report(
            "void knl(double* a, int n) { for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; } }",
        );
        let f = report(
            "void knl(float* a, int n) { for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0f; } }",
        );
        assert!((f.flops_per_byte / d.flops_per_byte - 2.0).abs() < 0.01);
    }

    #[test]
    fn compound_array_assign_counts_read_and_write() {
        let r =
            report("void knl(double* a, int n) { for (int i = 0; i < n; i++) { a[i] += 1.0; } }");
        // Per iteration: load 8 + store 8 = 16 bytes, 1 FLOP.
        assert!(
            (r.flops_per_byte - 1.0 / 16.0).abs() < 1e-9,
            "{}",
            r.flops_per_byte
        );
    }

    #[test]
    fn integer_only_kernels_have_zero_flops() {
        let r = report("void knl(int* a, int n) { for (int i = 0; i < n; i++) { a[i] = i * 2; } }");
        assert_eq!(r.flops, 0.0);
        assert!(r.is_memory_bound(0.5));
    }
}
