//! Static kernel characterisation: operation counts (FPGA resource
//! estimation input) and GPU register-pressure estimation.
//!
//! Both are what real toolchains surface: an HLS partial compile reports
//! per-op resource usage, and `nvcc`/`hipcc` report registers per thread.
//! The paper's Rush Larsen discussion hinges on exactly these quantities
//! ("the GPU design requires 255 registers per thread"; FPGA designs
//! "exceed the capacity of our current FPGA devices").

use psa_minicpp::ast::*;
use psa_minicpp::Module;

/// Straight-line operation counts for one pipeline iteration of a kernel.
///
/// Loops with static trip counts are counted multiplied (an HLS unroll
/// pragma flattens them into hardware); loops with runtime bounds count
/// once (the datapath is shared across their iterations).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCounts {
    pub fp_add: f64,
    pub fp_mul: f64,
    pub fp_div: f64,
    pub sqrt: f64,
    pub transcendental: f64,
    pub int_ops: f64,
    /// Memory ports touched per iteration (loads + stores).
    pub mem_ops: f64,
}

impl OpCounts {
    /// Estimated LUTs for one replica of this datapath.
    ///
    /// Per-op costs approximate Intel FPGA floating-point IP in ALMs;
    /// `fp64` datapaths cost ~3.5× the single-precision ones (wider
    /// mantissa multipliers dominate).
    pub fn luts(&self, fp64: bool) -> f64 {
        let scale = if fp64 { 3.5 } else { 1.0 };
        scale
            * (self.fp_add * 500.0
                + self.fp_mul * 400.0
                + self.fp_div * 3_000.0
                + self.sqrt * 4_500.0
                + self.transcendental * 10_000.0
                + self.int_ops * 40.0
                + self.mem_ops * 350.0)
    }

    /// Estimated DSP blocks for one replica.
    pub fn dsps(&self, fp64: bool) -> f64 {
        let scale = if fp64 { 4.0 } else { 1.0 };
        scale
            * (self.fp_mul * 1.0 + self.fp_div * 2.0 + self.sqrt * 2.0 + self.transcendental * 4.0)
    }

    /// Elementwise sum.
    pub fn add(&self, other: &OpCounts, weight: f64) -> OpCounts {
        OpCounts {
            fp_add: self.fp_add + other.fp_add * weight,
            fp_mul: self.fp_mul + other.fp_mul * weight,
            fp_div: self.fp_div + other.fp_div * weight,
            sqrt: self.sqrt + other.sqrt * weight,
            transcendental: self.transcendental + other.transcendental * weight,
            int_ops: self.int_ops + other.int_ops * weight,
            mem_ops: self.mem_ops + other.mem_ops * weight,
        }
    }

    /// Fraction of FLOP-equivalents in SFU-class ops (sqrt +
    /// transcendental, using the interpreter's FLOP-equivalents).
    pub fn sfu_flop_fraction(&self) -> f64 {
        let sfu = self.sqrt * 4.0 + self.transcendental * 8.0;
        let fma = self.fp_add + self.fp_mul + self.fp_div;
        if sfu + fma == 0.0 {
            0.0
        } else {
            sfu / (sfu + fma)
        }
    }

    /// Deterministic content hash of the counts (floats by `to_bits`) —
    /// the datapath part of a cached HLS report's address.
    pub fn content_hash(&self) -> u64 {
        psa_evalcache::fnv64_of(&(
            self.fp_add.to_bits(),
            self.fp_mul.to_bits(),
            self.fp_div.to_bits(),
            self.sqrt.to_bits(),
            self.transcendental.to_bits(),
            self.int_ops.to_bits(),
            self.mem_ops.to_bits(),
        ))
    }
}

/// Extract op counts for function `kernel`.
pub fn op_counts(module: &Module, kernel: &str) -> Option<OpCounts> {
    let func = module.function(kernel)?;
    let mut out = OpCounts::default();
    count_block(&func.body, 1.0, &mut out);
    Some(out)
}

fn count_block(block: &Block, weight: f64, out: &mut OpCounts) {
    for stmt in &block.stmts {
        count_stmt(stmt, weight, out);
    }
}

fn count_stmt(stmt: &Stmt, weight: f64, out: &mut OpCounts) {
    match &stmt.kind {
        StmtKind::Decl(d) => {
            if let Some(e) = &d.init {
                count_expr(e, weight, out);
            }
        }
        StmtKind::Assign { target, op, value } => {
            count_expr(value, weight, out);
            if let ExprKind::Index { index, .. } = &target.kind {
                count_expr(index, weight, out);
                out.mem_ops += weight;
                if op.bin_op().is_some() {
                    out.mem_ops += weight;
                    out.fp_add += weight;
                }
            } else if op.bin_op().is_some() {
                out.fp_add += weight;
            }
        }
        StmtKind::Expr(e) => count_expr(e, weight, out),
        StmtKind::If { cond, then, els } => {
            count_expr(cond, weight, out);
            // Hardware instantiates both arms.
            count_block(then, weight, out);
            if let Some(els) = els {
                count_block(els, weight, out);
            }
        }
        StmtKind::For(l) => {
            // Static bound: the HLS unroll pragma flattens it into
            // replicated hardware. Runtime bound: the datapath is shared.
            let w = match l.static_trip_count() {
                Some(t) => weight * t as f64,
                None => weight,
            };
            count_block(&l.body, w, out);
        }
        StmtKind::While { body, .. } => count_block(body, weight, out),
        StmtKind::Return(Some(e)) => count_expr(e, weight, out),
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Block(b) => count_block(b, weight, out),
    }
}

fn count_expr(e: &Expr, weight: f64, out: &mut OpCounts) {
    match &e.kind {
        ExprKind::Binary { op, lhs, rhs } => {
            count_expr(lhs, weight, out);
            count_expr(rhs, weight, out);
            match op {
                BinOp::Add | BinOp::Sub => out.fp_add += weight,
                BinOp::Mul => out.fp_mul += weight,
                BinOp::Div => out.fp_div += weight,
                // `%` is integer-only in MiniC++: cheap LUT logic.
                BinOp::Rem => out.int_ops += weight * 4.0,
                _ => out.int_ops += weight,
            }
        }
        ExprKind::Unary { expr, .. } => {
            count_expr(expr, weight, out);
            out.int_ops += weight;
        }
        ExprKind::Call { callee, args } => {
            for a in args {
                count_expr(a, weight, out);
            }
            use psa_interp::intrinsics::{lookup, Intrinsic, MathCost};
            if let Some(Intrinsic::Math(f)) = lookup(callee) {
                match f.op.cost_class() {
                    MathCost::Cheap => out.fp_add += weight,
                    MathCost::Sqrt => out.sqrt += weight,
                    MathCost::Transcendental => out.transcendental += weight,
                }
            }
        }
        ExprKind::Index { index, .. } => {
            count_expr(index, weight, out);
            out.mem_ops += weight;
        }
        ExprKind::Cast { expr, .. } => count_expr(expr, weight, out),
        ExprKind::Ternary { cond, then, els } => {
            count_expr(cond, weight, out);
            count_expr(then, weight, out);
            count_expr(els, weight, out);
        }
        _ => {}
    }
}

/// Fraction of a kernel's memory operations whose subscripts are
/// data-dependent (contain a modulo, an inner memory load, or a variable
/// derived from one). These gathers defeat GPU coalescing; FPGA on-chip
/// tables and CPU caches absorb them. Returns the weighted fraction in
/// [0, 1].
pub fn gather_fraction(module: &Module, kernel: &str) -> f64 {
    let Some(func) = module.function(kernel) else {
        return 0.0;
    };

    // Fixpoint: variables whose values derive from memory loads or modulo
    // arithmetic are "irregular".
    let mut irregular: std::collections::HashSet<String> = std::collections::HashSet::new();
    loop {
        let before = irregular.len();
        mark_irregular(&func.body, &mut irregular);
        if irregular.len() == before {
            break;
        }
    }

    let mut total = 0.0;
    let mut gathered = 0.0;
    tally_gathers(&func.body, 1.0, &irregular, &mut total, &mut gathered);
    if total == 0.0 {
        0.0
    } else {
        (gathered / total).clamp(0.0, 1.0)
    }
}

fn expr_is_irregular(e: &Expr, irregular: &std::collections::HashSet<String>) -> bool {
    match &e.kind {
        ExprKind::Binary { op: BinOp::Rem, .. } => true,
        ExprKind::Binary { lhs, rhs, .. } => {
            expr_is_irregular(lhs, irregular) || expr_is_irregular(rhs, irregular)
        }
        ExprKind::Unary { expr, .. } | ExprKind::Cast { expr, .. } => {
            expr_is_irregular(expr, irregular)
        }
        ExprKind::Index { .. } => true, // subscript computed from a load
        ExprKind::Ident(name) => irregular.contains(name),
        ExprKind::Call { args, .. } => args.iter().any(|a| expr_is_irregular(a, irregular)),
        ExprKind::Ternary { cond, then, els } => {
            expr_is_irregular(cond, irregular)
                || expr_is_irregular(then, irregular)
                || expr_is_irregular(els, irregular)
        }
        _ => false,
    }
}

fn mark_irregular(block: &Block, irregular: &mut std::collections::HashSet<String>) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Decl(d) => {
                if let Some(init) = &d.init {
                    if expr_is_irregular(init, irregular) {
                        irregular.insert(d.name.clone());
                    }
                }
            }
            StmtKind::Assign { target, value, .. } => {
                if let ExprKind::Ident(name) = &target.kind {
                    if expr_is_irregular(value, irregular) {
                        irregular.insert(name.clone());
                    }
                }
            }
            StmtKind::For(l) => mark_irregular(&l.body, irregular),
            StmtKind::If { then, els, .. } => {
                mark_irregular(then, irregular);
                if let Some(els) = els {
                    mark_irregular(els, irregular);
                }
            }
            StmtKind::While { body, .. } | StmtKind::Block(body) => mark_irregular(body, irregular),
            _ => {}
        }
    }
}

fn tally_gathers(
    block: &Block,
    weight: f64,
    irregular: &std::collections::HashSet<String>,
    total: &mut f64,
    gathered: &mut f64,
) {
    fn tally_expr(
        e: &Expr,
        weight: f64,
        irregular: &std::collections::HashSet<String>,
        total: &mut f64,
        gathered: &mut f64,
    ) {
        match &e.kind {
            ExprKind::Index { base, index } => {
                tally_expr(index, weight, irregular, total, gathered);
                let _ = base;
                *total += weight;
                if expr_is_irregular(index, irregular) {
                    *gathered += weight;
                }
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                tally_expr(lhs, weight, irregular, total, gathered);
                tally_expr(rhs, weight, irregular, total, gathered);
            }
            ExprKind::Unary { expr, .. } | ExprKind::Cast { expr, .. } => {
                tally_expr(expr, weight, irregular, total, gathered)
            }
            ExprKind::Call { args, .. } => {
                for a in args {
                    tally_expr(a, weight, irregular, total, gathered);
                }
            }
            ExprKind::Ternary { cond, then, els } => {
                tally_expr(cond, weight, irregular, total, gathered);
                tally_expr(then, weight, irregular, total, gathered);
                tally_expr(els, weight, irregular, total, gathered);
            }
            _ => {}
        }
    }

    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Decl(d) => {
                if let Some(init) = &d.init {
                    tally_expr(init, weight, irregular, total, gathered);
                }
            }
            StmtKind::Assign { target, value, .. } => {
                tally_expr(value, weight, irregular, total, gathered);
                if let ExprKind::Index { index, .. } = &target.kind {
                    tally_expr(index, weight, irregular, total, gathered);
                    *total += weight;
                    if expr_is_irregular(index, irregular) {
                        *gathered += weight;
                    }
                }
            }
            StmtKind::Expr(e) => tally_expr(e, weight, irregular, total, gathered),
            StmtKind::If { cond, then, els } => {
                tally_expr(cond, weight, irregular, total, gathered);
                tally_gathers(then, weight, irregular, total, gathered);
                if let Some(els) = els {
                    tally_gathers(els, weight, irregular, total, gathered);
                }
            }
            StmtKind::For(l) => {
                let w = match l.static_trip_count() {
                    Some(t) => weight * t as f64,
                    None => weight,
                };
                tally_gathers(&l.body, w, irregular, total, gathered);
            }
            StmtKind::While { body, .. } => tally_gathers(body, weight, irregular, total, gathered),
            StmtKind::Return(Some(e)) => tally_expr(e, weight, irregular, total, gathered),
            _ => {}
        }
    }
}

/// Maximum registers a GPU compiler will allocate per thread.
pub const MAX_REGS_PER_THREAD: u32 = 255;

/// Estimate GPU registers per thread for one outer-loop iteration of
/// `kernel`.
///
/// Heuristic modelled on how register pressure actually accrues: each live
/// scalar needs a register pair (fp64) or single register; transcendental
/// call sites keep wide intermediate state alive; deep nests add address
/// registers. Clamped to [`MAX_REGS_PER_THREAD`] as real compilers do
/// (spilling beyond it).
pub fn estimate_registers(module: &Module, kernel: &str) -> Option<u32> {
    let func = module.function(kernel)?;
    let mut scalars = 0u32;
    let mut transcendentals = 0.0;
    let mut depth = 0u32;

    fn walk(block: &Block, scalars: &mut u32, depth: &mut u32, max_depth: &mut u32) {
        for stmt in &block.stmts {
            match &stmt.kind {
                StmtKind::Decl(d) if d.array_len.is_none() => *scalars += 1,
                StmtKind::For(l) => {
                    *depth += 1;
                    *max_depth = (*max_depth).max(*depth);
                    walk(&l.body, scalars, depth, max_depth);
                    *depth -= 1;
                }
                StmtKind::If { then, els, .. } => {
                    walk(then, scalars, depth, max_depth);
                    if let Some(els) = els {
                        walk(els, scalars, depth, max_depth);
                    }
                }
                StmtKind::While { body, .. } | StmtKind::Block(body) => {
                    walk(body, scalars, depth, max_depth)
                }
                _ => {}
            }
        }
    }
    let mut max_depth = 0;
    walk(&func.body, &mut scalars, &mut depth, &mut max_depth);

    if let Some(ops) = op_counts(module, kernel) {
        transcendentals = ops.transcendental + ops.sqrt;
    }

    let fp64 = kernel_uses_fp64(module, kernel);
    let per_scalar = if fp64 { 2 } else { 1 };
    let estimate = 16
        + scalars * per_scalar * 2
        + (transcendentals as u32) * if fp64 { 3 } else { 2 }
        + max_depth * 4
        + func.params.len() as u32 * 2;
    Some(estimate.min(MAX_REGS_PER_THREAD))
}

/// Does the kernel still use double precision anywhere (params, decls,
/// literals)? Drives the GPU FP64-throughput penalty and the FPGA datapath
/// width.
pub fn kernel_uses_fp64(module: &Module, kernel: &str) -> bool {
    let Some(func) = module.function(kernel) else {
        return true;
    };
    if func.params.iter().any(|p| p.ty.scalar == Scalar::Double) {
        return true;
    }
    fn block_has_double(block: &Block) -> bool {
        block.stmts.iter().any(|stmt| match &stmt.kind {
            StmtKind::Decl(d) => d.ty.scalar == Scalar::Double,
            StmtKind::For(l) => block_has_double(&l.body),
            StmtKind::If { then, els, .. } => {
                block_has_double(then) || els.as_ref().is_some_and(block_has_double)
            }
            StmtKind::While { body, .. } | StmtKind::Block(body) => block_has_double(body),
            _ => false,
        })
    }
    block_has_double(&func.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_minicpp::parse_module;

    #[test]
    fn counts_straight_line_ops() {
        let m = parse_module(
            "void knl(double* a, int n) { for (int i = 0; i < n; i++) { a[i] = sqrt(a[i]) * 2.0 + exp(a[i]); } }",
            "t",
        )
        .unwrap();
        let ops = op_counts(&m, "knl").unwrap();
        assert_eq!(ops.sqrt, 1.0);
        assert_eq!(ops.transcendental, 1.0);
        assert_eq!(ops.fp_mul, 1.0);
        assert_eq!(ops.fp_add, 1.0);
        assert_eq!(ops.mem_ops, 3.0); // two loads + one store
    }

    #[test]
    fn fixed_inner_loops_multiply_hardware() {
        let m = parse_module(
            "void knl(double* a, int n) { for (int i = 0; i < n; i++) { for (int j = 0; j < 8; j++) { a[j] = a[j] * 2.0; } } }",
            "t",
        )
        .unwrap();
        let ops = op_counts(&m, "knl").unwrap();
        assert_eq!(ops.fp_mul, 8.0);
        assert_eq!(ops.mem_ops, 16.0);
    }

    #[test]
    fn runtime_inner_loops_share_hardware() {
        let m = parse_module(
            "void knl(double* a, int n) { for (int i = 0; i < n; i++) { for (int j = 0; j < n; j++) { a[j] = a[j] * 2.0; } } }",
            "t",
        )
        .unwrap();
        let ops = op_counts(&m, "knl").unwrap();
        assert_eq!(ops.fp_mul, 1.0);
    }

    #[test]
    fn fp64_datapaths_cost_more() {
        let ops = OpCounts {
            fp_mul: 10.0,
            transcendental: 2.0,
            ..Default::default()
        };
        assert!(ops.luts(true) > 3.0 * ops.luts(false));
        assert!(ops.dsps(true) > ops.dsps(false));
    }

    #[test]
    fn register_estimate_scales_with_body_complexity() {
        let small = parse_module(
            "void knl(float* a, int n) { for (int i = 0; i < n; i++) { float t = a[i]; a[i] = t * 2.0f; } }",
            "t",
        )
        .unwrap();
        // A transcendental-soup kernel like Rush Larsen.
        let mut big_src =
            String::from("void knl(double* s, int n) { for (int i = 0; i < n; i++) {");
        for g in 0..30 {
            big_src.push_str(&format!(
                "double m{g} = exp(s[i] * 0.1) / (1.0 + exp(s[i] * 0.2)); double h{g} = exp(0.3 * s[i]); s[i] += m{g} * h{g};"
            ));
        }
        big_src.push_str("} }");
        let big = parse_module(&big_src, "t").unwrap();
        let r_small = estimate_registers(&small, "knl").unwrap();
        let r_big = estimate_registers(&big, "knl").unwrap();
        assert!(r_small < 48, "{r_small}");
        assert_eq!(
            r_big, MAX_REGS_PER_THREAD,
            "ODE-style kernels saturate the register file"
        );
    }

    #[test]
    fn fp64_detection() {
        let d = parse_module("void knl(double* a) { a[0] = 1.0; }", "t").unwrap();
        assert!(kernel_uses_fp64(&d, "knl"));
        let f = parse_module("void knl(float* a) { float t = 1.0f; a[0] = t; }", "t").unwrap();
        assert!(!kernel_uses_fp64(&f, "knl"));
    }

    #[test]
    fn gather_fraction_detects_table_lookups() {
        // AdPredictor shape: hashed index into weight tables.
        let m = parse_module(
            "void knl(double* wmu, double* pred, int n) {\
               for (int i = 0; i < n; i++) {\
                 double acc = 0.0;\
                 for (int f = 0; f < 4; f++) {\
                   int idx = (i * 2654435761 + f * 40503) % 4096;\
                   acc += wmu[idx];\
                 }\
                 pred[i] = acc;\
               }\
             }",
            "t",
        )
        .unwrap();
        let g = gather_fraction(&m, "knl");
        // 4 gathered loads vs 1 linear store per outer iteration.
        assert!(g > 0.7, "{g}");
        let linear = parse_module(
            "void knl(double* a, double* b, int n) { for (int i = 0; i < n; i++) { b[i] = a[i]; } }",
            "t",
        )
        .unwrap();
        assert_eq!(gather_fraction(&linear, "knl"), 0.0);
    }

    #[test]
    fn gather_fraction_tracks_derived_indices() {
        // Index loaded from memory (indirect access).
        let m = parse_module(
            "void knl(int* idx, double* w, double* out, int n) {\
               for (int i = 0; i < n; i++) {\
                 int j = idx[i];\
                 out[i] = w[j];\
               }\
             }",
            "t",
        )
        .unwrap();
        let g = gather_fraction(&m, "knl");
        // idx[i] and out[i] linear; w[j] gathered → 1 of 3.
        assert!((g - 1.0 / 3.0).abs() < 0.01, "{g}");
    }

    #[test]
    fn sfu_fraction_reflects_op_mix() {
        let heavy = OpCounts {
            transcendental: 10.0,
            fp_add: 10.0,
            ..Default::default()
        };
        assert!(heavy.sfu_flop_fraction() > 0.8);
        let light = OpCounts {
            fp_add: 100.0,
            sqrt: 1.0,
            ..Default::default()
        };
        assert!(light.sfu_flop_fraction() < 0.1);
    }
}
