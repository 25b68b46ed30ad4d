//! Static loop-dependence analysis.
//!
//! "static loop dependence analysis to identify loop-carried dependencies"
//! (§III). The verdicts feed two PSA decisions (Fig. 3):
//!
//! * *"parallel outer loop?"* — is the outermost kernel loop free of
//!   loop-carried dependences?
//! * *"inner loops w/ deps?"* + *"can fully unroll?"* — do inner loops carry
//!   dependences, and if so do they all have small fixed bounds (so an FPGA
//!   can flatten them into a pipeline)?
//!
//! The analysis is conservative over MiniC++'s subset: array writes indexed
//! by (an expression derived from) the loop variable are taken as
//! iteration-private under the usual injective-affine-subscript assumption;
//! everything it cannot prove private is reported as a carried dependence.

use crate::AnalysisError;
use psa_artisan::query;
use psa_minicpp::ast::*;
use std::collections::HashSet;

/// Kinds of loop-carried dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Accumulation into a fixed location (`s += …`, `a[k] += …`) —
    /// removable by reduction handling.
    Reduction,
    /// A true cross-iteration dependence (output or flow).
    Carried,
}

/// One detected dependence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependence {
    pub kind: DepKind,
    /// Human-readable description, e.g. ``array `fx` accumulated at
    /// loop-invariant index``.
    pub detail: String,
}

/// Per-loop dependence verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopDep {
    /// The loop's [`ForLoop`] node id.
    pub id: NodeId,
    /// The enclosing statement id (edit handle).
    pub stmt_id: NodeId,
    pub var: String,
    /// Nesting depth within the kernel (0 = outermost).
    pub depth: usize,
    /// True when no loop-carried dependences were found.
    pub parallel: bool,
    /// True when every carried dependence is a reduction.
    pub reduction_only: bool,
    pub dependences: Vec<Dependence>,
    pub static_trip: Option<u64>,
}

/// Whole-kernel dependence report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependenceReport {
    /// Loops in source order.
    pub loops: Vec<LoopDep>,
}

impl DependenceReport {
    /// Fig. 3's *"parallel outer loop?"*: the first outermost loop's
    /// verdict (reductions do not count as parallel here — OpenMP could
    /// still handle them, but the strategy stays faithful to the paper).
    pub fn outer_parallel(&self) -> bool {
        self.loops
            .iter()
            .find(|l| l.depth == 0)
            .is_some_and(|l| l.parallel)
    }

    /// Inner loops (depth > 0) that carry dependences.
    pub fn inner_loops_with_deps(&self) -> Vec<&LoopDep> {
        self.loops
            .iter()
            .filter(|l| l.depth > 0 && !l.parallel)
            .collect()
    }

    /// Fig. 3's *"can fully unroll?"*: every dependence-carrying inner loop
    /// has a static trip count no larger than `limit`.
    pub fn inner_deps_fully_unrollable(&self, limit: u64) -> bool {
        let with_deps = self.inner_loops_with_deps();
        !with_deps.is_empty()
            && with_deps
                .iter()
                .all(|l| l.static_trip.is_some_and(|t| t <= limit))
    }
}

/// Analyse every loop of function `kernel`.
pub fn analyze(module: &Module, kernel: &str) -> Result<DependenceReport, AnalysisError> {
    let func = module
        .function(kernel)
        .ok_or_else(|| AnalysisError::NotFound(format!("function `{kernel}`")))?;
    let matches = query::loops(module, |l| l.function == kernel);
    let mut loops = Vec::with_capacity(matches.len());
    for m in &matches {
        let l = query::find_loop(module, m.id).expect("query result resolves");
        let deps = analyze_one(l, func);
        let parallel = deps.is_empty();
        let reduction_only = !deps.is_empty() && deps.iter().all(|d| d.kind == DepKind::Reduction);
        loops.push(LoopDep {
            id: m.id,
            stmt_id: m.stmt_id,
            var: m.var.clone(),
            depth: m.depth,
            parallel,
            reduction_only,
            dependences: deps,
            static_trip: m.static_trip_count,
        });
    }
    Ok(DependenceReport { loops })
}

/// Names transitively derived from the loop variable inside the body —
/// `int base = i * 3;` makes `base` i-derived.
fn derived_from(body: &Block, var: &str) -> HashSet<String> {
    let mut derived: HashSet<String> = HashSet::new();
    derived.insert(var.to_string());
    // Fixpoint over simple forward flows; bounded by the variable count.
    loop {
        let before = derived.len();
        extend_derived(body, &mut derived);
        if derived.len() == before {
            break;
        }
    }
    derived
}

fn extend_derived(block: &Block, derived: &mut HashSet<String>) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Decl(d) => {
                if let Some(init) = &d.init {
                    if reads_any(init, derived) {
                        derived.insert(d.name.clone());
                    }
                }
            }
            StmtKind::Assign { target, value, .. } => {
                if let Some(name) = target.as_ident() {
                    if reads_any(value, derived) {
                        derived.insert(name.to_string());
                    }
                }
            }
            StmtKind::For(l) => extend_derived(&l.body, derived),
            StmtKind::If { then, els, .. } => {
                extend_derived(then, derived);
                if let Some(els) = els {
                    extend_derived(els, derived);
                }
            }
            StmtKind::While { body, .. } | StmtKind::Block(body) => extend_derived(body, derived),
            _ => {}
        }
    }
}

fn reads_any(expr: &Expr, names: &HashSet<String>) -> bool {
    let mut read: HashSet<String> = HashSet::new();
    query::idents_read(expr, &mut read);
    read.iter().any(|n| names.contains(n))
}

/// Scalars declared inside the body (privatisable).
fn declared_in(block: &Block, out: &mut HashSet<String>) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Decl(d) => {
                out.insert(d.name.clone());
            }
            StmtKind::For(l) => {
                if l.declares_var {
                    out.insert(l.var.clone());
                }
                declared_in(&l.body, out);
            }
            StmtKind::If { then, els, .. } => {
                declared_in(then, out);
                if let Some(els) = els {
                    declared_in(els, out);
                }
            }
            StmtKind::While { body, .. } | StmtKind::Block(body) => declared_in(body, out),
            _ => {}
        }
    }
}

/// Try to interpret a subscript as an affine function `coeff·var + offset`
/// with literal coefficient and offset. Returns `None` for anything that is
/// not provably affine in `var` alone (other variables, loads, …), which
/// callers treat conservatively.
fn affine_in(e: &Expr, var: &str) -> Option<(i64, i64)> {
    match &e.kind {
        ExprKind::IntLit(v) => Some((0, *v)),
        ExprKind::Ident(name) if name == var => Some((1, 0)),
        ExprKind::Unary {
            op: UnOp::Neg,
            expr,
        } => {
            let (c, o) = affine_in(expr, var)?;
            Some((-c, -o))
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let l = affine_in(lhs, var)?;
            let r = affine_in(rhs, var)?;
            match op {
                BinOp::Add => Some((l.0 + r.0, l.1 + r.1)),
                BinOp::Sub => Some((l.0 - r.0, l.1 - r.1)),
                BinOp::Mul => {
                    // One side must be constant for the result to stay affine.
                    if l.0 == 0 {
                        Some((r.0 * l.1, r.1 * l.1))
                    } else if r.0 == 0 {
                        Some((l.0 * r.1, l.1 * r.1))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

fn analyze_one(l: &ForLoop, _func: &Function) -> Vec<Dependence> {
    let derived = derived_from(&l.body, &l.var);
    let mut private: HashSet<String> = HashSet::new();
    if l.declares_var {
        private.insert(l.var.clone());
    }
    declared_in(&l.body, &mut private);

    let mut deps: Vec<Dependence> = Vec::new();
    // Collect write/read subscripts per array for flow-dependence checks.
    let mut writes: Vec<(String, Expr, bool, bool)> = Vec::new(); // (array, idx, idx_derived, compound)
    let mut reads: Vec<(String, Expr)> = Vec::new(); // (array, idx)
    collect_accesses(&l.body, &mut writes, &mut reads, &derived);

    use psa_minicpp::printer::print_expr;
    for (arr, idx, idx_derived, compound) in &writes {
        let idx_text = print_expr(idx);
        if !idx_derived {
            if *compound {
                deps.push(Dependence {
                    kind: DepKind::Reduction,
                    detail: format!(
                        "array `{arr}` accumulated at loop-invariant index `{idx_text}`"
                    ),
                });
            } else {
                deps.push(Dependence {
                    kind: DepKind::Carried,
                    detail: format!("array `{arr}` written at loop-invariant index `{idx_text}`"),
                });
            }
            continue;
        }
        // Derived subscript: private per iteration under the injective
        // assumption, but a read of the same array at a *different*
        // subscript may signal a cross-iteration flow (`a[i] = a[i-1]`).
        // A strong-SIV test proves independence when both subscripts are
        // affine in the loop variable with the same stride and an offset
        // difference that is not a multiple of it.
        for (rarr, ridx) in &reads {
            if rarr != arr {
                continue;
            }
            let ridx_text = print_expr(ridx);
            if ridx_text == idx_text {
                continue; // same-location, same-iteration access
            }
            let r_related = derived.iter().any(|d| mentions_word(&ridx_text, d));
            if !r_related {
                continue; // loop-invariant read of a written array: handled
                          // by the injective write assumption
            }
            if let (Some((wc, wo)), Some((rc, ro))) =
                (affine_in(idx, &l.var), affine_in(ridx, &l.var))
            {
                if wc == rc && wc != 0 {
                    let diff = wo - ro;
                    if diff % wc != 0 {
                        continue; // strong SIV: never the same element
                    }
                    if diff == 0 {
                        continue;
                    }
                }
            }
            deps.push(Dependence {
                kind: DepKind::Carried,
                detail: format!(
                    "array `{arr}` written at `{idx_text}` and read at `{ridx_text}`: potential cross-iteration flow"
                ),
            });
        }
    }

    // Scalar writes to non-private variables.
    let mut scalar_writes: Vec<(String, bool)> = Vec::new(); // (name, compound)
    collect_scalar_writes(&l.body, &mut scalar_writes);
    for (name, compound) in scalar_writes {
        if private.contains(&name) {
            continue;
        }
        deps.push(Dependence {
            kind: if compound {
                DepKind::Reduction
            } else {
                DepKind::Carried
            },
            detail: format!("scalar `{name}` live across iterations"),
        });
    }

    deps
}

/// Does `haystack` contain `word` as a whole identifier?
fn mentions_word(haystack: &str, word: &str) -> bool {
    haystack
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|tok| tok == word)
}

#[allow(clippy::type_complexity)]
fn collect_accesses(
    block: &Block,
    writes: &mut Vec<(String, Expr, bool, bool)>,
    reads: &mut Vec<(String, Expr)>,
    derived: &HashSet<String>,
) {
    fn expr_reads(e: &Expr, reads: &mut Vec<(String, Expr)>) {
        use psa_minicpp::visit::{self, Visit};
        struct R<'a> {
            reads: &'a mut Vec<(String, Expr)>,
        }
        impl Visit for R<'_> {
            fn visit_expr(&mut self, e: &Expr) {
                if let ExprKind::Index { base, index } = &e.kind {
                    if let Some(name) = base.as_ident() {
                        self.reads.push((name.to_string(), (**index).clone()));
                    }
                }
                visit::walk_expr(self, e);
            }
        }
        R { reads }.visit_expr(e);
    }

    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Assign { target, op, value } => {
                expr_reads(value, reads);
                if let ExprKind::Index { base, index } = &target.kind {
                    if let Some(arr) = base.as_ident() {
                        let idx_derived = reads_any(index, derived);
                        writes.push((
                            arr.to_string(),
                            (**index).clone(),
                            idx_derived,
                            op.bin_op().is_some(),
                        ));
                    }
                    expr_reads(index, reads);
                }
            }
            StmtKind::Decl(d) => {
                if let Some(init) = &d.init {
                    expr_reads(init, reads);
                }
            }
            StmtKind::Expr(e) => expr_reads(e, reads),
            StmtKind::If { cond, then, els } => {
                expr_reads(cond, reads);
                collect_accesses(then, writes, reads, derived);
                if let Some(els) = els {
                    collect_accesses(els, writes, reads, derived);
                }
            }
            StmtKind::For(inner) => {
                expr_reads(&inner.bound, reads);
                collect_accesses(&inner.body, writes, reads, derived);
            }
            StmtKind::While { cond, body } => {
                expr_reads(cond, reads);
                collect_accesses(body, writes, reads, derived);
            }
            StmtKind::Return(Some(e)) => expr_reads(e, reads),
            _ => {}
        }
    }
}

fn collect_scalar_writes(block: &Block, out: &mut Vec<(String, bool)>) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Assign { target, op, .. } => {
                if let Some(name) = target.as_ident() {
                    out.push((name.to_string(), op.bin_op().is_some()));
                }
            }
            StmtKind::For(l) => {
                // The inner loop's own header updates are private to it.
                let mut inner = Vec::new();
                collect_scalar_writes(&l.body, &mut inner);
                out.extend(
                    inner
                        .into_iter()
                        .filter(|(n, _)| n != &l.var || !l.declares_var),
                );
            }
            StmtKind::If { then, els, .. } => {
                collect_scalar_writes(then, out);
                if let Some(els) = els {
                    collect_scalar_writes(els, out);
                }
            }
            StmtKind::While { body, .. } | StmtKind::Block(body) => {
                collect_scalar_writes(body, out)
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_minicpp::parse_module;

    fn report(src: &str) -> DependenceReport {
        let m = parse_module(src, "t").unwrap();
        analyze(&m, "knl").unwrap()
    }

    #[test]
    fn elementwise_map_is_parallel() {
        let r = report("void knl(double* a, double* b, int n) { for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0; } }");
        assert!(r.loops[0].parallel);
        assert!(r.outer_parallel());
        assert!(r.inner_loops_with_deps().is_empty());
    }

    #[test]
    fn derived_index_is_recognised() {
        let r = report(
            "void knl(double* a, int n) { for (int i = 0; i < n; i++) { int base = i * 3; a[base] = 0.0; a[base + 1] = 0.0; } }",
        );
        assert!(r.loops[0].parallel, "{:?}", r.loops[0].dependences);
    }

    #[test]
    fn scalar_reduction_is_a_reduction_dep() {
        let r = report(
            "void knl(double* a, double* s, int n) { double acc = s[0]; for (int i = 0; i < n; i++) { acc += a[i]; } s[0] = acc; }",
        );
        // `acc` is declared outside the loop: reduction dependence.
        let l = &r.loops[0];
        assert!(!l.parallel);
        assert!(l.reduction_only, "{:?}", l.dependences);
        assert!(!r.outer_parallel());
    }

    #[test]
    fn array_accumulation_at_invariant_index() {
        let r = report(
            "void knl(double* fx, double* px, int i, int n) { for (int j = 0; j < n; j++) { fx[i] += px[j]; } }",
        );
        let l = &r.loops[0];
        assert!(!l.parallel);
        assert_eq!(l.dependences[0].kind, DepKind::Reduction);
    }

    #[test]
    fn loop_invariant_plain_write_is_carried() {
        let r = report(
            "void knl(double* a, int k, int n) { for (int i = 0; i < n; i++) { a[k] = (double)i; } }",
        );
        assert_eq!(r.loops[0].dependences[0].kind, DepKind::Carried);
        assert!(!r.loops[0].reduction_only);
    }

    #[test]
    fn stencil_flow_dependence_detected() {
        let r = report(
            "void knl(double* a, int n) { for (int i = 1; i < n; i++) { a[i] = a[i - 1] * 0.5; } }",
        );
        let l = &r.loops[0];
        assert!(!l.parallel);
        assert!(
            l.dependences.iter().any(|d| d.kind == DepKind::Carried),
            "{:?}",
            l.dependences
        );
    }

    #[test]
    fn same_subscript_read_write_is_fine() {
        let r = report(
            "void knl(double* a, int n) { for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0 + 1.0; } }",
        );
        assert!(r.loops[0].parallel, "{:?}", r.loops[0].dependences);
    }

    #[test]
    fn nbody_shape_outer_parallel_inner_reduction() {
        let r = report(
            "void knl(double* fx, double* px, int n) {\
               for (int i = 0; i < n; i++) {\
                 double acc = 0.0;\
                 for (int j = 0; j < n; j++) { acc += px[j] - px[i]; }\
                 fx[i] = acc;\
               }\
             }",
        );
        let outer = r.loops.iter().find(|l| l.depth == 0).unwrap();
        let inner = r.loops.iter().find(|l| l.depth == 1).unwrap();
        assert!(outer.parallel, "{:?}", outer.dependences);
        assert!(!inner.parallel);
        assert!(inner.reduction_only, "{:?}", inner.dependences);
        // Runtime bound: not fully unrollable.
        assert!(!r.inner_deps_fully_unrollable(64));
    }

    #[test]
    fn fixed_bound_inner_reduction_is_fully_unrollable() {
        let r = report(
            "void knl(double* out, double* w, int n) {\
               for (int i = 0; i < n; i++) {\
                 double acc = 0.0;\
                 for (int j = 0; j < 16; j++) { acc += w[j]; }\
                 out[i] = acc;\
               }\
             }",
        );
        assert!(r.outer_parallel());
        assert!(r.inner_deps_fully_unrollable(64));
        assert!(!r.inner_deps_fully_unrollable(8), "trip 16 > 8");
    }

    #[test]
    fn private_temporaries_do_not_block_parallelism() {
        let r = report(
            "void knl(double* a, int n) { for (int i = 0; i < n; i++) { double t = a[i]; t *= 2.0; a[i] = t; } }",
        );
        assert!(r.loops[0].parallel, "{:?}", r.loops[0].dependences);
    }
}
