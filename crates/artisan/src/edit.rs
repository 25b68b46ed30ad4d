//! The instrument mechanism: splicing statements and pragmas relative to
//! existing nodes — `instrument(before, loop, #pragma unroll $n)` from the
//! paper's Fig. 2 meta-program.

use psa_minicpp::ast::{self, Block, Item, Module, NodeId, Pragma, Stmt, StmtKind};
use psa_minicpp::Span;
use std::fmt;

/// Errors raised by edit operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditError {
    pub message: String,
}

impl EditError {
    pub fn new(message: impl Into<String>) -> Self {
        EditError {
            message: message.into(),
        }
    }
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "edit error: {}", self.message)
    }
}

impl std::error::Error for EditError {}

/// Where to splice relative to the anchor statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Position {
    Before,
    After,
}

/// Apply `f` to the block containing statement `target` (and the statement's
/// index within it). Returns `Err` if no such statement exists.
fn with_containing_block<R>(
    module: &mut Module,
    target: NodeId,
    f: impl FnOnce(&mut Block, usize, &mut u32) -> R,
) -> Result<R, EditError> {
    // Split borrows: the id counter travels separately from the item tree.
    let mut next_id = module.next_id;
    let mut f = Some(f);
    let mut result = None;

    fn search<R>(
        block: &mut Block,
        target: NodeId,
        next_id: &mut u32,
        f: &mut Option<impl FnOnce(&mut Block, usize, &mut u32) -> R>,
        result: &mut Option<R>,
    ) {
        if result.is_some() {
            return;
        }
        if let Some(idx) = block.stmts.iter().position(|s| s.id == target) {
            let g = f.take().expect("callback used once");
            *result = Some(g(block, idx, next_id));
            return;
        }
        for stmt in &mut block.stmts {
            match &mut stmt.kind {
                StmtKind::For(l) => search(&mut l.body, target, next_id, f, result),
                StmtKind::If { then, els, .. } => {
                    search(then, target, next_id, f, result);
                    if let Some(els) = els {
                        search(els, target, next_id, f, result);
                    }
                }
                StmtKind::While { body, .. } => search(body, target, next_id, f, result),
                StmtKind::Block(b) => search(b, target, next_id, f, result),
                _ => {}
            }
            if result.is_some() {
                return;
            }
        }
    }

    for item in &mut module.items {
        if let Item::Function(func) = item {
            search(&mut func.body, target, &mut next_id, &mut f, &mut result);
            if result.is_some() {
                break;
            }
        }
    }
    module.next_id = next_id;
    result.ok_or_else(|| EditError::new(format!("statement {target} not found in any block")))
}

/// Insert `stmt` before or after the statement `target`. Fresh node ids are
/// assigned to the inserted subtree.
pub fn insert_stmt(
    module: &mut Module,
    target: NodeId,
    pos: Position,
    mut stmt: Stmt,
) -> Result<NodeId, EditError> {
    with_containing_block(module, target, move |block, idx, next_id| {
        ast::refresh_stmt_ids(next_id, &mut stmt);
        let id = stmt.id;
        let at = match pos {
            Position::Before => idx,
            Position::After => idx + 1,
        };
        block.stmts.insert(at, stmt);
        id
    })
}

/// Replace the statement `target` with `replacement`, returning the original.
/// Fresh ids are assigned to the replacement subtree.
pub fn replace_stmt(
    module: &mut Module,
    target: NodeId,
    mut replacement: Stmt,
) -> Result<Stmt, EditError> {
    with_containing_block(module, target, move |block, idx, next_id| {
        ast::refresh_stmt_ids(next_id, &mut replacement);
        std::mem::replace(&mut block.stmts[idx], replacement)
    })
}

/// Remove and return the statement `target`.
pub fn take_stmt(module: &mut Module, target: NodeId) -> Result<Stmt, EditError> {
    with_containing_block(module, target, |block, idx, _| block.stmts.remove(idx))
}

/// Attach a pragma line above the statement `target` — the core
/// instrumentation primitive (`#pragma unroll $n`, `omp parallel for`, …).
pub fn add_pragma(
    module: &mut Module,
    target: NodeId,
    text: impl Into<String>,
) -> Result<(), EditError> {
    let text = text.into();
    with_containing_block(module, target, move |block, idx, next_id| {
        let id = NodeId(*next_id);
        *next_id += 1;
        block.stmts[idx].pragmas.push(Pragma {
            id,
            span: Span::SYNTHETIC,
            text,
        });
    })
}

/// Remove all pragmas whose head word is `head` from the statement `target`.
/// Returns how many were removed.
pub fn remove_pragmas(module: &mut Module, target: NodeId, head: &str) -> Result<usize, EditError> {
    let head = head.to_string();
    with_containing_block(module, target, move |block, idx, _| {
        let pragmas = &mut block.stmts[idx].pragmas;
        let before = pragmas.len();
        pragmas.retain(|p| p.head() != head);
        before - pragmas.len()
    })
}

/// Replace any existing `unroll` pragma with `unroll factor` — the DSE tasks
/// re-instrument the same loop each iteration.
pub fn set_unroll_pragma(
    module: &mut Module,
    target: NodeId,
    factor: u64,
) -> Result<(), EditError> {
    remove_pragmas(module, target, "unroll")?;
    add_pragma(module, target, format!("unroll {factor}"))
}

/// Replace the statement `target` with the statements produced by `f`.
/// `f` receives the original statement (by value) and the module's id
/// counter; every returned statement is re-keyed with fresh ids. This is the
/// general primitive behind loop unrolling and reduction rewriting.
pub fn rewrite_stmt(
    module: &mut Module,
    target: NodeId,
    f: impl FnOnce(Stmt, &mut u32) -> Vec<Stmt>,
) -> Result<(), EditError> {
    with_containing_block(module, target, move |block, idx, next_id| {
        let original = block.stmts.remove(idx);
        let mut replacements = f(original, next_id);
        for stmt in &mut replacements {
            ast::refresh_stmt_ids(next_id, stmt);
        }
        // splice in place
        for (offset, stmt) in replacements.into_iter().enumerate() {
            block.stmts.insert(idx + offset, stmt);
        }
    })
}

/// Append a function to the module (kernel extraction creates new
/// functions). Ids inside `func` must already be fresh; this only registers
/// the item.
pub fn add_function(module: &mut Module, func: psa_minicpp::Function) {
    module.items.push(Item::Function(func));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;
    use psa_minicpp::ast::build;
    use psa_minicpp::{parse_module, print_module};

    const SRC: &str =
        "void knl(double* a, int n) {\nfor (int i = 0; i < n; i++) {\na[i] = 0.0;\n}\n}";

    fn first_loop_stmt(m: &Module) -> NodeId {
        query::loops(m, |_| true)[0].stmt_id
    }

    #[test]
    fn insert_before_and_after() {
        let mut m = parse_module(SRC, "t").unwrap();
        let target = first_loop_stmt(&m);
        insert_stmt(
            &mut m,
            target,
            Position::Before,
            build::expr_stmt(build::call("sink", vec![build::int(1)])),
        )
        .unwrap();
        insert_stmt(
            &mut m,
            target,
            Position::After,
            build::expr_stmt(build::call("sink", vec![build::int(2)])),
        )
        .unwrap();
        let out = print_module(&m);
        let p1 = out.find("sink(1);").unwrap();
        let pf = out.find("for (").unwrap();
        let p2 = out.find("sink(2);").unwrap();
        assert!(p1 < pf && pf < p2, "{out}");
    }

    #[test]
    fn inserted_subtrees_get_fresh_ids() {
        let mut m = parse_module(SRC, "t").unwrap();
        let target = first_loop_stmt(&m);
        let before = m.next_id;
        let new_id = insert_stmt(
            &mut m,
            target,
            Position::Before,
            build::expr_stmt(build::int(0)),
        )
        .unwrap();
        assert!(new_id.0 >= before);
        assert!(m.next_id > before);
    }

    #[test]
    fn add_and_remove_pragmas() {
        let mut m = parse_module(SRC, "t").unwrap();
        let target = first_loop_stmt(&m);
        add_pragma(&mut m, target, "unroll 2").unwrap();
        assert!(print_module(&m).contains("#pragma unroll 2"));
        set_unroll_pragma(&mut m, target, 8).unwrap();
        let out = print_module(&m);
        assert!(out.contains("#pragma unroll 8"));
        assert!(
            !out.contains("#pragma unroll 2"),
            "old factor replaced: {out}"
        );
        let removed = remove_pragmas(&mut m, target, "unroll").unwrap();
        assert_eq!(removed, 1);
        assert!(!print_module(&m).contains("#pragma"));
    }

    #[test]
    fn replace_and_take() {
        let mut m = parse_module(SRC, "t").unwrap();
        let target = first_loop_stmt(&m);
        let original = replace_stmt(
            &mut m,
            target,
            build::expr_stmt(build::call("knl2", vec![])),
        )
        .unwrap();
        assert!(matches!(original.kind, StmtKind::For(_)));
        let out = print_module(&m);
        assert!(out.contains("knl2();"));
        assert!(!out.contains("for ("));
    }

    #[test]
    fn editing_nested_statement() {
        let mut m = parse_module(
            "void f(int n, double* a) { for (int i = 0; i < n; i++) { if (i > 0) { a[i] = 1.0; } } }",
            "t",
        )
        .unwrap();
        // Target the innermost assignment.
        let assign_id = {
            let f = m.function("f").unwrap();
            let psa_minicpp::StmtKind::For(l) = &f.body.stmts[0].kind else {
                panic!()
            };
            let psa_minicpp::StmtKind::If { then, .. } = &l.body.stmts[0].kind else {
                panic!()
            };
            then.stmts[0].id
        };
        add_pragma(&mut m, assign_id, "psa note").unwrap();
        assert!(print_module(&m).contains("#pragma psa note"));
    }

    #[test]
    fn missing_target_is_an_error() {
        let mut m = parse_module(SRC, "t").unwrap();
        let err = add_pragma(&mut m, NodeId(123456), "x").unwrap_err();
        assert!(err.to_string().contains("not found"));
    }
}
