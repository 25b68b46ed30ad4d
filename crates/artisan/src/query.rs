//! The query mechanism: programmatic AST search with contextual predicates.
//!
//! Queries return *match records* carrying the context the paper's
//! predicates need — enclosing function, nesting depth, outermost-ness,
//! static trip counts — so a design-flow task can express e.g. the Fig. 2
//! query:
//!
//! ```
//! # use psa_artisan::{Ast, query};
//! let ast = Ast::from_source(
//!     "void knl(double* a, int n) { for (int i = 0; i < n; i++) { a[i] = 0.0; } }",
//!     "app.cpp",
//! ).unwrap();
//! let loops = query::loops(&ast.module, |m| m.function == "knl" && m.is_outermost);
//! assert_eq!(loops.len(), 1);
//! ```

use psa_minicpp::ast::*;
use psa_minicpp::Span;
use std::collections::HashSet;

/// A matched loop together with its structural context.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopMatch {
    /// Node id of the [`ForLoop`].
    pub id: NodeId,
    /// Node id of the enclosing [`Stmt`] (the `StmtKind::For` wrapper),
    /// which is the handle `edit` operations take.
    pub stmt_id: NodeId,
    /// Name of the enclosing function.
    pub function: String,
    /// Loop nesting depth inside the function (0 = outermost).
    pub depth: usize,
    /// Induction variable name.
    pub var: String,
    /// True if no `for` loop encloses this one within the function.
    pub is_outermost: bool,
    /// True if the loop body contains no further `for` loops.
    pub is_innermost: bool,
    /// Compile-time trip count if the bounds are literal.
    pub static_trip_count: Option<u64>,
    /// Node ids of enclosing loops, outermost first.
    pub ancestors: Vec<NodeId>,
    /// Source location.
    pub span: Span,
}

/// Find all `for` loops satisfying `pred`, in source order.
pub fn loops<F: FnMut(&LoopMatch) -> bool>(module: &Module, mut pred: F) -> Vec<LoopMatch> {
    let mut out = Vec::new();
    for item in &module.items {
        if let Item::Function(f) = item {
            let mut ancestors = Vec::new();
            collect(&f.body, f, &mut ancestors, &mut |m| {
                if pred(m) {
                    out.push(m.clone());
                }
            });
        }
    }
    out
}

fn collect<'a>(
    block: &'a Block,
    func: &'a Function,
    ancestors: &mut Vec<NodeId>,
    sink: &mut impl FnMut(&LoopMatch),
) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::For(l) => {
                let m = LoopMatch {
                    id: l.id,
                    stmt_id: stmt.id,
                    function: func.name.clone(),
                    depth: ancestors.len(),
                    var: l.var.clone(),
                    is_outermost: ancestors.is_empty(),
                    is_innermost: !contains_for(&l.body),
                    static_trip_count: l.static_trip_count(),
                    ancestors: ancestors.clone(),
                    span: l.span,
                };
                sink(&m);
                ancestors.push(l.id);
                collect(&l.body, func, ancestors, sink);
                ancestors.pop();
            }
            StmtKind::If { then, els, .. } => {
                collect(then, func, ancestors, sink);
                if let Some(els) = els {
                    collect(els, func, ancestors, sink);
                }
            }
            StmtKind::While { body, .. } => collect(body, func, ancestors, sink),
            StmtKind::Block(b) => collect(b, func, ancestors, sink),
            _ => {}
        }
    }
}

fn contains_for(block: &Block) -> bool {
    block.stmts.iter().any(|s| match &s.kind {
        StmtKind::For(_) => true,
        StmtKind::If { then, els, .. } => {
            contains_for(then) || els.as_ref().is_some_and(contains_for)
        }
        StmtKind::While { body, .. } => contains_for(body),
        StmtKind::Block(b) => contains_for(b),
        _ => false,
    })
}

/// Look up a `for` loop by node id anywhere in the module.
pub fn find_loop(module: &Module, id: NodeId) -> Option<&ForLoop> {
    fn in_block(block: &Block, id: NodeId) -> Option<&ForLoop> {
        for stmt in &block.stmts {
            match &stmt.kind {
                StmtKind::For(l) => {
                    if l.id == id {
                        return Some(l);
                    }
                    if let Some(found) = in_block(&l.body, id) {
                        return Some(found);
                    }
                }
                StmtKind::If { then, els, .. } => {
                    if let Some(found) = in_block(then, id) {
                        return Some(found);
                    }
                    if let Some(els) = els {
                        if let Some(found) = in_block(els, id) {
                            return Some(found);
                        }
                    }
                }
                StmtKind::While { body, .. } | StmtKind::Block(body) => {
                    let b: &Block = body;
                    if let Some(found) = in_block(b, id) {
                        return Some(found);
                    }
                }
                _ => {}
            }
        }
        None
    }
    module.items.iter().find_map(|item| match item {
        Item::Function(f) => in_block(&f.body, id),
        _ => None,
    })
}

/// Find the statement with the given id anywhere in the module.
pub fn find_stmt(module: &Module, id: NodeId) -> Option<&Stmt> {
    fn in_block(block: &Block, id: NodeId) -> Option<&Stmt> {
        for stmt in &block.stmts {
            if stmt.id == id {
                return Some(stmt);
            }
            let found = match &stmt.kind {
                StmtKind::For(l) => in_block(&l.body, id),
                StmtKind::If { then, els, .. } => {
                    in_block(then, id).or_else(|| els.as_ref().and_then(|b| in_block(b, id)))
                }
                StmtKind::While { body, .. } | StmtKind::Block(body) => in_block(body, id),
                _ => None,
            };
            if found.is_some() {
                return found;
            }
        }
        None
    }
    module.items.iter().find_map(|item| match item {
        Item::Function(f) => in_block(&f.body, id),
        Item::Global(s) => (s.id == id).then_some(s),
    })
}

/// Which function (if any) encloses a statement — the `fn.encloses(loop)`
/// predicate.
pub fn enclosing_function(module: &Module, stmt_id: NodeId) -> Option<&Function> {
    module.items.iter().find_map(|item| match item {
        Item::Function(f) => contains_stmt(&f.body, stmt_id).then_some(f),
        _ => None,
    })
}

fn contains_stmt(block: &Block, id: NodeId) -> bool {
    block.stmts.iter().any(|stmt| {
        stmt.id == id
            || match &stmt.kind {
                StmtKind::For(l) => contains_stmt(&l.body, id),
                StmtKind::If { then, els, .. } => {
                    contains_stmt(then, id) || els.as_ref().is_some_and(|b| contains_stmt(b, id))
                }
                StmtKind::While { body, .. } | StmtKind::Block(body) => contains_stmt(body, id),
                _ => false,
            }
    })
}

/// The free variables of loop `l` in `module`: every name the loop uses
/// that it does not declare itself and that is not a module global, in
/// order of first appearance (header, then body). Outlining the loop
/// passes exactly these as the kernel's parameters, in this order.
pub fn free_variables(module: &Module, l: &ForLoop) -> Vec<String> {
    use psa_minicpp::visit::{self, Visit};
    // Globals stay visible inside an outlined kernel.
    let globals: HashSet<&str> = module
        .items
        .iter()
        .filter_map(|item| match item {
            Item::Global(s) => match &s.kind {
                StmtKind::Decl(d) => Some(d.name.as_str()),
                _ => None,
            },
            _ => None,
        })
        .collect();
    // Names declared inside the loop (locals, inner loop vars, own var).
    let mut declared: HashSet<String> = HashSet::new();
    if l.declares_var {
        declared.insert(l.var.clone());
    }
    collect_declared(&l.body, &mut declared);

    struct Free<'a> {
        globals: HashSet<&'a str>,
        declared: HashSet<String>,
        seen: HashSet<String>,
        order: Vec<String>,
    }
    impl Visit for Free<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprKind::Ident(name) = &e.kind {
                if !self.declared.contains(name)
                    && !self.globals.contains(name.as_str())
                    && self.seen.insert(name.clone())
                {
                    self.order.push(name.clone());
                }
            }
            visit::walk_expr(self, e);
        }
    }
    let mut free = Free {
        globals,
        declared,
        seen: HashSet::new(),
        order: Vec::new(),
    };
    free.visit_expr(&l.init);
    free.visit_expr(&l.bound);
    free.visit_expr(&l.step);
    free.visit_block(&l.body);
    free.order
}

fn collect_declared(block: &Block, out: &mut HashSet<String>) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Decl(d) => {
                out.insert(d.name.clone());
            }
            StmtKind::For(l) => {
                if l.declares_var {
                    out.insert(l.var.clone());
                }
                collect_declared(&l.body, out);
            }
            StmtKind::If { then, els, .. } => {
                collect_declared(then, out);
                if let Some(els) = els {
                    collect_declared(els, out);
                }
            }
            StmtKind::While { body, .. } | StmtKind::Block(body) => collect_declared(body, out),
            _ => {}
        }
    }
}

/// All identifiers *read* in an expression subtree.
pub fn idents_read(expr: &Expr, out: &mut HashSet<String>) {
    use psa_minicpp::visit::{self, Visit};
    struct Reads<'a> {
        out: &'a mut HashSet<String>,
    }
    impl Visit for Reads<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprKind::Ident(name) = &e.kind {
                self.out.insert(name.clone());
            }
            visit::walk_expr(self, e);
        }
    }
    Reads { out }.visit_expr(expr);
}

/// Variables assigned (as scalar lvalue base or through array writes) in a
/// block, split into scalar targets and array/pointer targets.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WriteSet {
    /// Names assigned directly (`x = …`, `x += …`).
    pub scalars: HashSet<String>,
    /// Names written through indexing (`a[i] = …`).
    pub arrays: HashSet<String>,
}

/// Compute the write set of a block (recursing through nested control flow).
pub fn write_set(block: &Block) -> WriteSet {
    let mut ws = WriteSet::default();
    fn walk(block: &Block, ws: &mut WriteSet) {
        for stmt in &block.stmts {
            match &stmt.kind {
                StmtKind::Assign { target, .. } => match &target.kind {
                    ExprKind::Ident(name) => {
                        ws.scalars.insert(name.clone());
                    }
                    ExprKind::Index { .. } => {
                        if let Some(base) = target.lvalue_base() {
                            ws.arrays.insert(base.to_string());
                        }
                    }
                    _ => {}
                },
                StmtKind::For(l) => {
                    ws.scalars.insert(l.var.clone());
                    walk(&l.body, ws);
                }
                StmtKind::If { then, els, .. } => {
                    walk(then, ws);
                    if let Some(els) = els {
                        walk(els, ws);
                    }
                }
                StmtKind::While { body, .. } | StmtKind::Block(body) => walk(body, ws),
                _ => {}
            }
        }
    }
    walk(block, &mut ws);
    ws
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_minicpp::parse_module;

    const NESTED: &str = "void knl(double* a, int n) {\
        for (int i = 0; i < n; i++) {\
          for (int j = 0; j < 4; j++) { a[i * 4 + j] = 0.0; }\
        }\
      }\
      int main() { for (int k = 0; k < 2; k++) { knl(0, 0); } return 0; }";

    #[test]
    fn fig2_query_outermost_in_kernel() {
        let m = parse_module(NESTED, "t").unwrap();
        let matches = loops(&m, |l| l.function == "knl" && l.is_outermost);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].var, "i");
        // The nested j-loop and main's k-loop are excluded, as in Fig. 2.
        let all = loops(&m, |_| true);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn loop_context_fields() {
        let m = parse_module(NESTED, "t").unwrap();
        let all = loops(&m, |_| true);
        let j = all.iter().find(|l| l.var == "j").unwrap();
        assert_eq!(j.depth, 1);
        assert!(!j.is_outermost);
        assert!(j.is_innermost);
        assert_eq!(j.static_trip_count, Some(4));
        assert_eq!(j.ancestors.len(), 1);
        let i = all.iter().find(|l| l.var == "i").unwrap();
        assert!(i.is_outermost);
        assert!(!i.is_innermost);
        assert_eq!(i.static_trip_count, None);
    }

    #[test]
    fn find_loop_and_stmt_by_id() {
        let m = parse_module(NESTED, "t").unwrap();
        let all = loops(&m, |_| true);
        let l = find_loop(&m, all[1].id).unwrap();
        assert_eq!(l.var, "j");
        let s = find_stmt(&m, all[0].stmt_id).unwrap();
        assert!(matches!(s.kind, StmtKind::For(_)));
        assert!(find_loop(&m, NodeId(9999)).is_none());
    }

    #[test]
    fn enclosing_function_resolves() {
        let m = parse_module(NESTED, "t").unwrap();
        let all = loops(&m, |_| true);
        assert_eq!(enclosing_function(&m, all[0].stmt_id).unwrap().name, "knl");
        assert_eq!(enclosing_function(&m, all[2].stmt_id).unwrap().name, "main");
    }

    #[test]
    fn write_set_distinguishes_scalars_and_arrays() {
        let m = parse_module(
            "void f(double* a, int n) { double s = 0.0; for (int i = 0; i < n; i++) { s += a[i]; a[i] = 0.0; } }",
            "t",
        )
        .unwrap();
        let ws = write_set(&m.function("f").unwrap().body);
        assert!(ws.scalars.contains("s"));
        assert!(ws.scalars.contains("i"), "loop vars count as scalar writes");
        assert!(ws.arrays.contains("a"));
        assert!(!ws.arrays.contains("s"));
    }

    #[test]
    fn loops_inside_conditionals_are_found() {
        let m = parse_module(
            "void f(int n, bool p) { if (p) { for (int i = 0; i < n; i++) { } } else { for (int j = 0; j < n; j++) { } } }",
            "t",
        )
        .unwrap();
        assert_eq!(loops(&m, |_| true).len(), 2);
    }
}
