//! "Remove Array `+=` Dependency" — rewrite loop-carried memory
//! accumulations into scalar accumulators.
//!
//! A statement `out[e] += v` inside a loop whose index `e` does not depend
//! on the loop variable forces every iteration to read-modify-write the same
//! memory location: a loop-carried dependence that blocks parallelisation
//! and pipelining. The transform hoists the location into a scalar:
//!
//! ```c
//! for (int j = 0; j < n; j++) { fx[i] += f(j); }
//! // becomes
//! double __psa_acc0 = fx[i];
//! for (int j = 0; j < n; j++) { __psa_acc0 += f(j); }
//! fx[i] = __psa_acc0;
//! ```
//!
//! which leaves only a scalar reduction — recognised and handled efficiently
//! by every backend (OpenMP reduction clauses, GPU per-thread registers,
//! FPGA accumulator trees).

use super::TransformError;
use crate::sym::function_symbols;
use crate::{edit, query};
use psa_minicpp::ast::*;
use std::collections::HashSet;

/// Count the accumulations [`remove_array_accumulation`] would hoist out
/// of the loop with statement id `loop_stmt`, without touching the module
/// (a caller holding a shared AST can leave it shared when the count is 0).
pub fn accumulation_sites(module: &Module, loop_stmt: NodeId) -> Result<usize, TransformError> {
    Ok(accumulation_targets(module, loop_stmt)?.len())
}

/// Apply the rewrite to every eligible accumulation directly inside the
/// body of the loop with statement id `loop_stmt`. Returns how many
/// accumulators were introduced.
pub fn remove_array_accumulation(
    module: &mut Module,
    loop_stmt: NodeId,
) -> Result<usize, TransformError> {
    let targets = accumulation_targets(module, loop_stmt)?;
    if targets.is_empty() {
        return Ok(0);
    }

    let n = targets.len();
    edit::rewrite_stmt(module, loop_stmt, move |stmt, _next_id| {
        let StmtKind::For(mut l) = stmt.kind else {
            unreachable!()
        };
        let mut before: Vec<Stmt> = Vec::with_capacity(n);
        let mut after: Vec<Stmt> = Vec::with_capacity(n);
        for (i, (pos, scalar)) in targets.iter().enumerate() {
            let acc = format!("__psa_acc{i}");
            let body_stmt = &mut l.body.stmts[*pos];
            let StmtKind::Assign { target, op, value } = &mut body_stmt.kind else {
                unreachable!()
            };
            // double __psa_accN = arr[idx];
            before.push(Stmt {
                id: NodeId(u32::MAX),
                span: psa_minicpp::Span::SYNTHETIC,
                pragmas: Vec::new(),
                kind: StmtKind::Decl(VarDecl {
                    id: NodeId(u32::MAX),
                    span: psa_minicpp::Span::SYNTHETIC,
                    ty: Type::scalar(*scalar),
                    name: acc.clone(),
                    array_len: None,
                    init: Some(target.clone()),
                }),
            });
            // arr[idx] = __psa_accN;
            after.push(build::assign(
                target.clone(),
                AssignOp::Set,
                build::ident(&acc),
            ));
            // __psa_accN op= value;  (in place)
            *body_stmt = Stmt {
                id: NodeId(u32::MAX),
                span: body_stmt.span,
                pragmas: std::mem::take(&mut body_stmt.pragmas),
                kind: StmtKind::Assign {
                    target: build::ident(&acc),
                    op: *op,
                    value: value.clone(),
                },
            };
        }
        let mut out = before;
        out.push(Stmt {
            id: NodeId(u32::MAX),
            span: psa_minicpp::Span::SYNTHETIC,
            pragmas: Vec::new(),
            kind: StmtKind::For(l),
        });
        out.extend(after);
        out
    })?;
    Ok(n)
}

/// The eligible accumulations directly inside the body of loop
/// `loop_stmt`: each one's position in the body and its element type.
fn accumulation_targets(
    module: &Module,
    loop_stmt: NodeId,
) -> Result<Vec<(usize, Scalar)>, TransformError> {
    let host = query::enclosing_function(module, loop_stmt)
        .ok_or_else(|| TransformError::new(format!("statement {loop_stmt} not in a function")))?;
    let symbols = function_symbols(module, host);

    let stmt = query::find_stmt(module, loop_stmt).expect("in function implies found");
    let StmtKind::For(l) = &stmt.kind else {
        return Err(TransformError::new("target statement is not a for-loop"));
    };
    let loop_var = l.var.clone();

    // Identify eligible accumulations: `arr[idx] op= value` at the top level
    // of the body, where `idx` does not read the loop variable (so it names
    // one fixed location per loop execution) and `arr` is not otherwise
    // written in the body (so the hoisted copy cannot go stale).
    let arrays_written_elsewhere = count_array_writes(&l.body);
    let mut targets = Vec::new();
    for (pos, s) in l.body.stmts.iter().enumerate() {
        if let StmtKind::Assign { target, op, .. } = &s.kind {
            if op.bin_op().is_none() {
                continue;
            }
            let ExprKind::Index { base, index } = &target.kind else {
                continue;
            };
            let Some(arr) = base.as_ident() else { continue };
            let mut read: HashSet<String> = HashSet::new();
            query::idents_read(index, &mut read);
            if read.contains(&loop_var) {
                continue;
            }
            if arrays_written_elsewhere.get(arr).copied().unwrap_or(0) > 1 {
                continue; // other writes to the same array: stay conservative
            }
            let scalar = symbols
                .get(arr)
                .filter(|t| t.is_pointer())
                .map(|t| t.scalar)
                .ok_or_else(|| {
                    TransformError::new(format!("`{arr}` is not a known pointer/array"))
                })?;
            targets.push((pos, scalar));
        }
    }
    Ok(targets)
}

/// Count direct array-write statements per base name in a block (recursive).
fn count_array_writes(block: &Block) -> std::collections::HashMap<String, usize> {
    let mut counts = std::collections::HashMap::new();
    fn walk(block: &Block, counts: &mut std::collections::HashMap<String, usize>) {
        for stmt in &block.stmts {
            match &stmt.kind {
                StmtKind::Assign { target, .. } => {
                    if let ExprKind::Index { .. } = &target.kind {
                        if let Some(base) = target.lvalue_base() {
                            *counts.entry(base.to_string()).or_insert(0) += 1;
                        }
                    }
                }
                StmtKind::For(l) => walk(&l.body, counts),
                StmtKind::If { then, els, .. } => {
                    walk(then, counts);
                    if let Some(els) = els {
                        walk(els, counts);
                    }
                }
                StmtKind::While { body, .. } | StmtKind::Block(body) => walk(body, counts),
                _ => {}
            }
        }
    }
    walk(block, &mut counts);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_interp::{Interpreter, RunConfig};
    use psa_minicpp::{parse_module, print_module};

    const NBODY_LIKE: &str = "int main() {\
        int n = 16;\
        double* fx = alloc_double(n);\
        double* px = alloc_double(n);\
        fill_random(px, n, 9);\
        for (int i = 0; i < n; i++) {\
          for (int j = 0; j < n; j++) {\
            fx[i] += px[j] * 0.5;\
          }\
        }\
        double s = 0.0;\
        for (int i = 0; i < n; i++) { s += fx[i]; }\
        return (int)(s * 100.0);\
      }";

    #[test]
    fn hoists_accumulator_and_preserves_semantics() {
        let reference = {
            let m = parse_module(NBODY_LIKE, "t").unwrap();
            Interpreter::new(&m, RunConfig::default())
                .run_main()
                .unwrap()
        };
        let mut m = parse_module(NBODY_LIKE, "t").unwrap();
        let inner = query::loops(&m, |l| l.depth == 1)[0].stmt_id;
        let count = remove_array_accumulation(&mut m, inner).unwrap();
        assert_eq!(count, 1);
        let out = print_module(&m);
        assert!(out.contains("double __psa_acc0 = fx[i];"), "{out}");
        assert!(out.contains("__psa_acc0 += px[j] * 0.5;"), "{out}");
        assert!(out.contains("fx[i] = __psa_acc0;"), "{out}");
        let result = Interpreter::new(&m, RunConfig::default())
            .run_main()
            .unwrap();
        assert_eq!(reference, result);
    }

    #[test]
    fn skips_index_depending_on_loop_var() {
        let src = "void f(double* a, int n) { for (int j = 0; j < n; j++) { a[j] += 1.0; } }";
        let mut m = parse_module(src, "t").unwrap();
        let target = query::loops(&m, |_| true)[0].stmt_id;
        assert_eq!(remove_array_accumulation(&mut m, target).unwrap(), 0);
        assert!(print_module(&m).contains("a[j] += 1.0;"));
    }

    #[test]
    fn skips_when_array_written_elsewhere() {
        let src = "void f(double* a, int i, int n) { for (int j = 0; j < n; j++) { a[i] += 1.0; a[j + 1] = 0.0; } }";
        let mut m = parse_module(src, "t").unwrap();
        let target = query::loops(&m, |_| true)[0].stmt_id;
        assert_eq!(remove_array_accumulation(&mut m, target).unwrap(), 0);
    }

    #[test]
    fn handles_multiple_accumulations() {
        let src = "void f(double* fx, double* fy, int i, int n) {\
                     for (int j = 0; j < n; j++) { fx[i] += 1.0; fy[i] += 2.0; }\
                   }";
        let mut m = parse_module(src, "t").unwrap();
        let target = query::loops(&m, |_| true)[0].stmt_id;
        assert_eq!(remove_array_accumulation(&mut m, target).unwrap(), 2);
        let out = print_module(&m);
        assert!(
            out.contains("__psa_acc0") && out.contains("__psa_acc1"),
            "{out}"
        );
        // Result must re-parse.
        parse_module(&out, "t").unwrap();
    }

    #[test]
    fn float_arrays_get_float_accumulators() {
        let src =
            "void f(float* a, int i, int n) { for (int j = 0; j < n; j++) { a[i] += 1.0f; } }";
        let mut m = parse_module(src, "t").unwrap();
        let target = query::loops(&m, |_| true)[0].stmt_id;
        remove_array_accumulation(&mut m, target).unwrap();
        assert!(print_module(&m).contains("float __psa_acc0 = a[i];"));
    }
}
