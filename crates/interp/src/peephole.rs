//! Superinstruction peephole pass.
//!
//! Runs after [`crate::compile`]'s flat register lowering and fuses hot
//! adjacent instruction pairs into single dispatches:
//!
//! | pattern                               | superinstruction            |
//! |---------------------------------------|-----------------------------|
//! | register compare + `JumpIfFalse`      | [`Insn::CmpBranch`]         |
//! | register binop + `AssignLocal`        | [`Insn::BinAssign`]         |
//! | `Index` + register binop on the load  | [`Insn::IndexBin`]          |
//! | `Bin` / `BinImm` + decl. `Coerce`     | `BinCoerce` / `BinImmCoerce`|
//! | `Index` / `IndexBin` + decl. `Coerce` | `IndexCoerce` / `IndexBinCoerce` |
//! | `MathCall` + decl. `Coerce`           | `MathCallCoerce`            |
//! | immediate binop + immediate binop     | [`Insn::BinImm2`]           |
//! | immediate binop + unary intrinsic     | [`Insn::MathCallImm`]       |
//! | `ForStep` + back-edge `Jump`          | [`Insn::ForStepJump`]       |
//!
//! The rules are kept to the pairs the benchmark programs execute. Other
//! adjacent pairs — an immediate compare feeding a branch, any compare
//! feeding a `WhileTest`, an immediate binop feeding an assignment or
//! consuming an indexed load — stay two plain instructions, which every
//! later pass handles like any other.
//!
//! Fusion is observably invisible. Each superinstruction performs exactly
//! the steps of its pair in the original order; the only collapsed step is
//! a cycle charge: [`Insn::CmpBranch`] issues the comparison charge and
//! the branch charge as **one** combined `charge()`. That is exact because
//! `charge(c1); charge(c2)` fails iff `total + c1 + c2 > max` — the same
//! condition as `charge(c1 + c2)` — the error value carries only the
//! budget limit, and a failed run's profile is not an observable (PR 3
//! established this for the tree-walker's own combined charges).
//!
//! Two safety conditions gate every rule:
//!
//! * **no jump target between the pair** — if any branch can land on the
//!   second instruction, fusing would skip the first on that path;
//! * **the forwarded register is a temporary** (`>= first_temp`) — the
//!   pass elides the intermediate register write, which is only invisible
//!   for expression temporaries (dead after their single consumer, and
//!   always rewritten before any later read); locals stay materialised.

use crate::compile::{CallSite, DeferredLoop, Insn};
use crate::profile::CostModel;
use crate::typeinfer;
use crate::value::Value;
use psa_minicpp::ast::{BinOp, Type};

/// Fuse adjacent pairs in `code`. `first_temp` is the first
/// expression-temporary register — registers below it are named locals and
/// never have their writes elided.
///
/// Runs the pairwise pass twice: rules whose first half is itself a
/// superinstruction (`IndexBin` + `Coerce`) can only fire once the first
/// pass has formed that superinstruction, and pass-one fusion can also
/// make new pairs adjacent.
pub(crate) fn fuse(code: Vec<Insn>, first_temp: u16) -> Vec<Insn> {
    block(fuse_once(fuse_once(code, first_temp), first_temp))
}

/// The full optimisation pipeline: pair fusion, then type-inference-driven
/// specialisation ([`crate::typeinfer`]), then loop-charge deferral, then
/// straight-line blocking. Specialisation runs after fusion (so the fused
/// forms get typed variants) and before blocking (so blocks batch the
/// specialised steps); deferral runs before blocking so a deferred loop's
/// surroundings can still batch.
pub(crate) fn optimize(
    code: Vec<Insn>,
    first_temp: u16,
    param_tys: &[Type],
    nregs: usize,
    call_sites: &[CallSite],
    cm: &CostModel,
) -> Vec<Insn> {
    let fused = fuse_once(fuse_once(code, first_temp), first_temp);
    let call_rets = typeinfer::call_ret_types(call_sites);
    let specialized = typeinfer::specialize(fused, param_tys, nregs, &call_rets);
    block(defer_loops(specialized, cm))
}

/// `is_target[pc]`: can some control transfer in `code` land on `pc`? One
/// entry past the end, for exits that fall off the chunk.
fn jump_targets(code: &[Insn]) -> Vec<bool> {
    let mut is_target = vec![false; code.len() + 1];
    for t in code.iter().filter_map(Insn::target) {
        is_target[t as usize] = true;
    }
    is_target
}

/// Rewrite every jump target in `code` through `remap` (old pc → new pc).
fn retarget(code: &mut [Insn], remap: &[u32]) {
    for t in code.iter_mut().filter_map(Insn::target_mut) {
        *t = remap[*t as usize];
    }
}

/// Instructions eligible for [`Insn::ArithBlock`] batching: exactly the
/// straight-line set `step_arith` in the VM implements (no control flow,
/// no calls, no globals, no loop bookkeeping).
fn blockable(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Const { .. }
            | Insn::Copy { .. }
            | Insn::AssignLocal { .. }
            | Insn::Coerce { .. }
            | Insn::Cast { .. }
            | Insn::Un { .. }
            | Insn::Bin { .. }
            | Insn::BinImm { .. }
            | Insn::BinImmRev { .. }
            | Insn::ToBool { .. }
            | Insn::Index { .. }
            | Insn::IndexAddr { .. }
            | Insn::LoadElem { .. }
            | Insn::StoreElem { .. }
            | Insn::MathCall { .. }
            | Insn::BinAssign { .. }
            | Insn::IndexBin { .. }
            | Insn::BinCoerce { .. }
            | Insn::BinImmCoerce { .. }
            | Insn::IndexCoerce { .. }
            | Insn::MathCallCoerce { .. }
            | Insn::IndexBinCoerce { .. }
            | Insn::BinImm2 { .. }
            | Insn::MathCallImm { .. }
            | Insn::F64Bin { .. }
            | Insn::F64BinImm { .. }
            | Insn::F64BinAssign { .. }
            | Insn::F64Index { .. }
            | Insn::F64Store { .. }
            | Insn::F64MathCallImm { .. }
    )
}

/// Worst-case virtual-cycle charge one execution of `insn` can make, or
/// `None` when the instruction is not eligible for a deferred loop body
/// (control flow, calls, allocation, globals, loop bookkeeping — anything
/// that is not a straight-line `step_arith` form).
///
/// The bound must dominate every *runtime* path of the instruction: binary
/// ops pick their charge from the operand tags (`int_op`/`int_mul`/
/// `int_div`/`fp_op`/`fp_div`), so their bound is the max over all of
/// those; baked `cost` fields are exact.
fn worst_charge(insn: &Insn, cm: &CostModel) -> Option<u64> {
    let wmax = cm
        .int_op
        .max(cm.int_mul)
        .max(cm.int_div)
        .max(cm.fp_op)
        .max(cm.fp_div);
    let fpmax = cm.fp_op.max(cm.fp_div);
    match insn {
        Insn::Const { .. } | Insn::Copy { .. } | Insn::AssignLocal { .. } | Insn::Coerce { .. } => {
            Some(0)
        }
        Insn::Cast { cost, .. }
        | Insn::ToBool { cost, .. }
        | Insn::Index { cost, .. }
        | Insn::IndexAddr { cost, .. }
        | Insn::LoadElem { cost, .. }
        | Insn::StoreElem { cost, .. }
        | Insn::IndexCoerce { cost, .. }
        | Insn::F64Index { cost, .. }
        | Insn::F64Store { cost, .. } => Some(*cost),
        Insn::Un { .. } => Some(cm.int_op.max(cm.fp_op)),
        Insn::Bin { .. }
        | Insn::BinImm { .. }
        | Insn::BinImmRev { .. }
        | Insn::BinAssign { .. }
        | Insn::BinCoerce { .. }
        | Insn::BinImmCoerce { .. } => Some(wmax),
        Insn::F64Bin { .. } | Insn::F64BinImm { .. } | Insn::F64BinAssign { .. } => Some(fpmax),
        Insn::IndexBin { cost, .. } | Insn::IndexBinCoerce { cost, .. } => {
            Some(cost.saturating_add(wmax))
        }
        Insn::MathCall { cycles, .. } | Insn::MathCallCoerce { cycles, .. } => Some(*cycles),
        Insn::MathCallImm { cycles, .. } => Some(u64::from(*cycles).saturating_add(wmax)),
        Insn::F64MathCallImm { cycles, .. } => Some(u64::from(*cycles).saturating_add(fpmax)),
        Insn::BinImm2 { .. } => Some(wmax.saturating_add(wmax)),
        _ => None,
    }
}

/// Collapse eligible counted loops into [`Insn::DeferredFor`].
///
/// A loop is eligible when its shape is exactly
/// `ForTest .. straight-line body .. ForStepJump` (pinned bound, matching
/// induction slot, test exiting to just past the back edge), every body
/// instruction has a [`worst_charge`] bound, and **no control transfer
/// from outside the range lands anywhere inside it** (breaks and
/// continues compile to interior `Jump`s, which already fail the
/// straight-line test). The replacement executes the whole loop as one
/// dispatch; its normal exit falls through to the instruction after the
/// old back edge — the `ForTest`'s exit target, i.e. the loop's
/// `LoopExit`.
fn defer_loops(code: Vec<Insn>, cm: &CostModel) -> Vec<Insn> {
    let n = code.len();
    // Every control edge (source pc, destination pc).
    let edges: Vec<(usize, usize)> = code
        .iter()
        .enumerate()
        .filter_map(|(pc, insn)| Some((pc, insn.target()? as usize)))
        .collect();

    // collapse[t] = Some((s, meta)): the range [t..=s] becomes one
    // DeferredFor built from `meta`.
    let mut collapse: Vec<Option<(usize, DeferredLoop)>> = Vec::new();
    collapse.resize_with(n, || None);
    for s in 0..n {
        let Insn::ForStepJump {
            slot,
            step,
            negative,
            cost: step_cost,
            span: step_span,
            target,
        } = &code[s]
        else {
            continue;
        };
        let t = *target as usize;
        if t >= s {
            continue;
        }
        let Insn::ForTest {
            slot: test_slot,
            bound,
            cond_op,
            exit,
            cost: test_cost,
            span: test_span,
        } = &code[t]
        else {
            continue;
        };
        if test_slot != slot || *exit as usize != s + 1 {
            continue;
        }
        let body = &code[t + 1..s];
        let Some(body_worst) = body
            .iter()
            .map(|i| worst_charge(i, cm))
            .try_fold(0u64, |a, w| w.map(|w| a.saturating_add(w)))
        else {
            continue;
        };
        if edges
            .iter()
            .any(|&(src, dst)| (t..=s).contains(&dst) && !(t..=s).contains(&src))
        {
            continue;
        }
        let nspec = body
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Insn::F64Bin { .. }
                        | Insn::F64BinImm { .. }
                        | Insn::F64BinAssign { .. }
                        | Insn::F64Index { .. }
                        | Insn::F64Store { .. }
                        | Insn::F64MathCallImm { .. }
                )
            })
            .count() as u32;
        collapse[t] = Some((
            s,
            DeferredLoop {
                slot: *slot,
                bound: *bound,
                cond_op: *cond_op,
                step: *step,
                negative: *negative,
                test_cost: *test_cost,
                step_cost: *step_cost,
                iter_max: test_cost
                    .saturating_add(body_worst)
                    .saturating_add(*step_cost),
                nspec,
                body: body.to_vec().into_boxed_slice(),
                test_span: *test_span,
                step_span: *step_span,
            },
        ));
    }

    let mut out: Vec<Insn> = Vec::with_capacity(n);
    let mut remap = vec![0u32; n + 1];
    let mut i = 0;
    while i < n {
        remap[i] = out.len() as u32;
        if let Some((s, d)) = collapse[i].take() {
            for r in &mut remap[i..=s] {
                *r = out.len() as u32;
            }
            out.push(Insn::DeferredFor(Box::new(d)));
            i = s + 1;
            continue;
        }
        out.push(code[i].clone());
        i += 1;
    }
    remap[n] = out.len() as u32;

    retarget(&mut out, &remap);
    out
}

/// Final pass: batch maximal runs (length ≥ 2) of straight-line
/// instructions into [`Insn::ArithBlock`]s. A run may only be entered at
/// its head, so every interior pc must not be a jump target; jumps *to*
/// the head land on the block and execute it from the start, as before.
fn block(code: Vec<Insn>) -> Vec<Insn> {
    let is_target = jump_targets(&code);

    let mut out: Vec<Insn> = Vec::with_capacity(code.len());
    let mut remap = vec![0u32; code.len() + 1];
    let mut i = 0;
    while i < code.len() {
        remap[i] = out.len() as u32;
        if blockable(&code[i]) {
            let mut j = i + 1;
            while j < code.len() && blockable(&code[j]) && !is_target[j] {
                j += 1;
            }
            if j - i >= 2 {
                remap[i..j].fill(out.len() as u32);
                out.push(Insn::ArithBlock(code[i..j].to_vec().into_boxed_slice()));
                i = j;
                continue;
            }
        }
        out.push(code[i].clone());
        i += 1;
    }
    remap[code.len()] = out.len() as u32;

    retarget(&mut out, &remap);
    out
}

fn fuse_once(code: Vec<Insn>, first_temp: u16) -> Vec<Insn> {
    // Every pc that any control transfer can land on (including transfers
    // out of superinstructions formed by an earlier pass).
    let is_target = jump_targets(&code);

    let mut out: Vec<Insn> = Vec::with_capacity(code.len());
    // old pc -> new pc, for retargeting jumps afterwards.
    let mut remap = vec![0u32; code.len() + 1];
    let mut i = 0;
    while i < code.len() {
        remap[i] = out.len() as u32;
        let fused = if i + 1 < code.len() && !is_target[i + 1] {
            fuse_pair(&code[i], &code[i + 1], first_temp)
        } else {
            None
        };
        match fused {
            Some(insn) => {
                remap[i + 1] = out.len() as u32;
                out.push(insn);
                i += 2;
            }
            None => {
                out.push(code[i].clone());
                i += 1;
            }
        }
    }
    remap[code.len()] = out.len() as u32;

    retarget(&mut out, &remap);
    out
}

/// Try to fuse one adjacent pair (the second is known not to be a jump
/// target).
fn fuse_pair(a: &Insn, b: &Insn, first_temp: u16) -> Option<Insn> {
    match (a, b) {
        // compare + conditional branch
        (
            Insn::Bin {
                op,
                dst,
                l,
                r,
                span,
            },
            Insn::JumpIfFalse {
                src,
                target,
                cost,
                span: br_span,
            },
        ) if op.is_comparison() && src == dst && *dst >= first_temp => Some(Insn::CmpBranch {
            op: *op,
            l: *l,
            r: *r,
            target: *target,
            branch_cost: *cost,
            cmp_span: *span,
            br_span: *br_span,
        }),
        // binop + local assignment (simple and compound lowerings)
        (
            Insn::Bin {
                op,
                dst,
                l,
                r,
                span,
            },
            Insn::AssignLocal {
                slot,
                src,
                span: asg_span,
            },
        ) if src == dst && *dst >= first_temp => Some(Insn::BinAssign {
            op: *op,
            slot: *slot,
            l: *l,
            r: *r,
            span: *span,
            asg_span: *asg_span,
        }),
        // indexed load + binop consuming the loaded value on the left
        (
            Insn::Index {
                dst,
                base,
                idx,
                cost,
                base_span,
                index_span,
                span,
            },
            Insn::Bin {
                op,
                dst: bin_dst,
                l,
                r,
                span: bin_span,
            },
        ) if l == dst && r != dst && *dst >= first_temp => Some(Insn::IndexBin {
            op: *op,
            dst: *bin_dst,
            base: *base,
            idx: *idx,
            r: *r,
            cost: *cost,
            base_span: *base_span,
            index_span: *index_span,
            load_span: *span,
            span: *bin_span,
        }),
        // producer + declaration coercion. `Coerce` never charges, so the
        // fusion removes only the dispatch and the dead temporary write;
        // the coercion (and its possible type error) happens after the
        // producer's charges and errors, in the original order.
        (
            Insn::Bin {
                op,
                dst,
                l,
                r,
                span,
            },
            Insn::Coerce {
                dst: c_dst,
                src,
                ty,
                span: co_span,
            },
        ) if src == dst && *dst >= first_temp => Some(Insn::BinCoerce {
            op: *op,
            dst: *c_dst,
            l: *l,
            r: *r,
            ty: *ty,
            span: *span,
            co_span: *co_span,
        }),
        (
            Insn::BinImm {
                op,
                dst,
                l,
                imm,
                span,
            },
            Insn::Coerce {
                dst: c_dst,
                src,
                ty,
                span: co_span,
            },
        ) if src == dst && *dst >= first_temp => Some(Insn::BinImmCoerce {
            op: *op,
            dst: *c_dst,
            l: *l,
            imm: *imm,
            ty: *ty,
            span: *span,
            co_span: *co_span,
        }),
        (
            Insn::Index {
                dst,
                base,
                idx,
                cost,
                base_span,
                index_span,
                span,
            },
            Insn::Coerce {
                dst: c_dst,
                src,
                ty,
                span: co_span,
            },
        ) if src == dst && *dst >= first_temp => Some(Insn::IndexCoerce {
            dst: *c_dst,
            base: *base,
            idx: *idx,
            cost: *cost,
            ty: *ty,
            base_span: *base_span,
            index_span: *index_span,
            span: *span,
            co_span: *co_span,
        }),
        (
            Insn::MathCall {
                dst,
                a,
                b,
                f,
                cycles,
                flops,
                name,
                span,
            },
            Insn::Coerce {
                dst: c_dst,
                src,
                ty,
                span: co_span,
            },
        ) if src == dst && *dst >= first_temp => Some(Insn::MathCallCoerce {
            dst: *c_dst,
            a: *a,
            b: *b,
            f: *f,
            cycles: *cycles,
            flops: *flops,
            name: name.clone(),
            ty: *ty,
            span: *span,
            co_span: *co_span,
        }),
        (
            Insn::IndexBin {
                op,
                dst,
                base,
                idx,
                r,
                cost,
                base_span,
                index_span,
                load_span,
                span,
            },
            Insn::Coerce {
                dst: c_dst,
                src,
                ty,
                span: co_span,
            },
        ) if src == dst && *dst >= first_temp => Some(Insn::IndexBinCoerce {
            op: *op,
            dst: *c_dst,
            base: *base,
            idx: *idx,
            r: *r,
            cost: *cost,
            ty: *ty,
            base_span: *base_span,
            index_span: *index_span,
            load_span: *load_span,
            span: *span,
            co_span: *co_span,
        }),
        // immediate-binop chain: the second binop consumes the first's
        // single-use temporary (`i * N + k` address forms, `c * v - 1.0`
        // scalings). Both `apply_binary` calls still run in order, so
        // charges and error behaviour are exactly the unfused pair's; only
        // the dead temporary write disappears.
        (
            Insn::BinImm {
                op: op1,
                dst,
                l,
                imm: imm1,
                span: span1,
            },
            Insn::BinImm {
                op: op2,
                dst: dst2,
                l: l2,
                imm: imm2,
                span: span2,
            },
        ) if l2 == dst && *dst >= first_temp => Some(Insn::BinImm2 {
            op1: *op1,
            op2: *op2,
            dst: *dst2,
            l: *l,
            imm1: *imm1,
            imm2: *imm2,
            span1: *span1,
            span2: *span2,
        }),
        // immediate binop + unary math intrinsic consuming its temporary
        // (`exp(c * v)` and friends). Gated on a floating immediate and an
        // arithmetic op so the binop result is always numeric: the
        // intrinsic's non-numeric-argument error — the only consumer of
        // the call's source-name string — cannot fire, and the fused form
        // need not carry the name.
        (
            Insn::BinImm {
                op,
                dst,
                l,
                imm,
                span,
            },
            Insn::MathCall {
                dst: m_dst,
                a,
                f,
                cycles,
                flops,
                ..
            },
        ) if a == dst
            && *dst >= first_temp
            && f.op.arity() == 1
            && matches!(imm, Value::Double(_) | Value::Float(_))
            && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
            && u32::try_from(*cycles).is_ok()
            && u32::try_from(*flops).is_ok() =>
        {
            Some(Insn::MathCallImm {
                op: *op,
                rev: false,
                dst: *m_dst,
                l: *l,
                imm: *imm,
                f: *f,
                cycles: *cycles as u32,
                flops: *flops as u32,
                bin_span: *span,
            })
        }
        // reversed-immediate binop + unary math intrinsic (`exp(0.0 - x)`)
        (
            Insn::BinImmRev {
                op,
                dst,
                imm,
                r,
                span,
            },
            Insn::MathCall {
                dst: m_dst,
                a,
                f,
                cycles,
                flops,
                ..
            },
        ) if a == dst
            && *dst >= first_temp
            && f.op.arity() == 1
            && matches!(imm, Value::Double(_) | Value::Float(_))
            && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
            && u32::try_from(*cycles).is_ok()
            && u32::try_from(*flops).is_ok() =>
        {
            Some(Insn::MathCallImm {
                op: *op,
                rev: true,
                dst: *m_dst,
                l: *r,
                imm: *imm,
                f: *f,
                cycles: *cycles as u32,
                flops: *flops as u32,
                bin_span: *span,
            })
        }
        // for-step + back-edge jump
        (
            Insn::ForStep {
                slot,
                step,
                negative,
                cost,
                span,
            },
            Insn::Jump(target),
        ) => Some(Insn::ForStepJump {
            slot: *slot,
            step: *step,
            negative: *negative,
            cost: *cost,
            span: *span,
            target: *target,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{Program, SpanId};
    use crate::eval::RunConfig;
    use psa_minicpp::ast::BinOp;
    use psa_minicpp::parse_module;

    // These tests pin the *fusion* layer's output, so they compile at the
    // unspecialised level — the later passes (typeinfer specialisation,
    // loop-charge deferral) rewrite several of the fused forms and have
    // their own tests in `crate::typeinfer` and below.
    fn main_code(src: &str) -> Vec<Insn> {
        let m = parse_module(src, "t").unwrap();
        let p = Program::compile_unspecialized(&m, &RunConfig::default());
        let fidx = p.fn_by_name["main"];
        p.funcs[fidx as usize].code.clone()
    }

    /// Count matches, looking through `ArithBlock` batches.
    fn count(code: &[Insn], pred: impl Fn(&Insn) -> bool) -> usize {
        code.iter()
            .flat_map(|i| match i {
                Insn::ArithBlock(steps) => steps.iter().collect::<Vec<_>>(),
                other => vec![other],
            })
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn if_comparison_fuses_to_cmp_branch() {
        let code =
            main_code("int main() { int a = 1; int b = 2; if (a < b) { return 1; } return 0; }");
        assert_eq!(count(&code, |i| matches!(i, Insn::CmpBranch { .. })), 1);
        // The pair it replaced is gone.
        assert_eq!(count(&code, |i| matches!(i, Insn::JumpIfFalse { .. })), 0);
    }

    // Shapes with no fusion rule, each lowered to its plain pair; they are
    // also inputs of `fused_programs_run_identically`.
    const LITERAL_IF: &str = "int main() { int a = 1; if (a < 10) { return 1; } return 0; }";
    const LITERAL_WHILE: &str = "int main() { int i = 0; while (i < 5) { i = i + 1; } return i; }";
    const INDEX_IMM: &str = "int main() { double* a = alloc_double(4); double x = 1.0; \
                             double y = a[2] - x; double z = a[3] * 0.5; \
                             y = a[2] - 1.5; return (int)(y + z); }";

    #[test]
    fn literal_comparison_stays_a_plain_branch_pair() {
        let code = main_code(LITERAL_IF);
        let lt = |i: &Insn| matches!(i, Insn::BinImm { op: BinOp::Lt, .. });
        assert_eq!(count(&code, lt), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::JumpIfFalse { .. })), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::CmpBranch { .. })), 0);
    }

    #[test]
    fn while_comparison_stays_a_plain_while_test() {
        let code = main_code(LITERAL_WHILE);
        let lt = |i: &Insn| matches!(i, Insn::BinImm { op: BinOp::Lt, .. });
        assert_eq!(count(&code, lt), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::WhileTest { .. })), 1);
        // `i = i + 1` is an immediate binop feeding an assignment: no rule
        // either, so the `AssignLocal` stays.
        let add = |i: &Insn| matches!(i, Insn::BinImm { op: BinOp::Add, .. });
        assert_eq!(count(&code, add), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::AssignLocal { .. })), 1);
    }

    #[test]
    fn compound_assignment_fuses_to_bin_assign() {
        let code = main_code(
            "int main() { int s = 0; for (int i = 0; i < 9; i++) { s += i; } return s; }",
        );
        assert_eq!(count(&code, |i| matches!(i, Insn::BinAssign { .. })), 1);
        // The loop's step + back-edge fused too.
        assert_eq!(count(&code, |i| matches!(i, Insn::ForStepJump { .. })), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::ForStep { .. })), 0);
    }

    #[test]
    fn indexed_load_feeding_binop_fuses_to_index_bin() {
        // In a declaration the result also feeds a `Coerce`, so the second
        // pass folds that in too: `Index`+`Bin`+`Coerce` → `IndexBinCoerce`.
        let code = main_code(INDEX_IMM);
        assert_eq!(
            count(&code, |i| matches!(i, Insn::IndexBinCoerce { .. })),
            1
        );
        // An immediate binop on the load has no rule: `a[3] * 0.5` keeps its
        // `Index`, and the binop fuses with the declaration's coercion
        // instead; `y = a[2] - 1.5` stays `Index`, `BinImm`, `AssignLocal`.
        assert_eq!(count(&code, |i| matches!(i, Insn::Index { .. })), 2);
        assert_eq!(count(&code, |i| matches!(i, Insn::BinImmCoerce { .. })), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::BinImm { .. })), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::AssignLocal { .. })), 1);
    }

    #[test]
    fn declaration_initialisers_fuse_with_their_producers() {
        let code = main_code(
            "int main() { double* a = alloc_double(4); int i = 2; \
             double u = a[i]; double s = sqrt(u); double t = s * s; \
             double w = t + 0.5; return (int)w; }",
        );
        assert_eq!(count(&code, |i| matches!(i, Insn::IndexCoerce { .. })), 1);
        assert_eq!(
            count(&code, |i| matches!(i, Insn::MathCallCoerce { .. })),
            1
        );
        assert_eq!(count(&code, |i| matches!(i, Insn::BinCoerce { .. })), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::BinImmCoerce { .. })), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::Coerce { .. })), 0);
    }

    #[test]
    fn fused_programs_run_identically() {
        // Same program fully optimised, unfused and tree-walked: values and
        // profiles must agree (the differential suites check the full
        // observable set; this is the in-crate smoke check). The unfused
        // shapes above run here too.
        let looped = "int main() { int s = 0; for (int i = 0; i < 20; i++) { \
                      if (i % 3 == 0) { continue; } s += i; } return s; }";
        for src in [looped, LITERAL_IF, LITERAL_WHILE, INDEX_IMM] {
            let m = parse_module(src, "t").unwrap();
            let cfg = RunConfig::default();
            let mut fast = crate::vm::Vm::with_program(
                std::sync::Arc::new(Program::compile(&m, &cfg)),
                cfg.clone(),
            );
            let mut slow = crate::vm::Vm::with_program(
                std::sync::Arc::new(Program::compile_unfused(&m, &cfg)),
                cfg.clone(),
            );
            let mut tree = crate::eval::Interpreter::new(&m, cfg.clone());
            let a = fast.run_main().unwrap();
            let b = slow.run_main().unwrap();
            let c = tree.run_main().unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{src}");
            assert_eq!(format!("{a:?}"), format!("{c:?}"), "{src}");
            assert_eq!(fast.profile(), slow.profile(), "{src}");
            assert_eq!(fast.profile(), &tree.into_parts().0, "{src}");
        }
    }

    #[test]
    fn fusion_never_fires_across_jump_targets() {
        // Hand-built: a comparison followed by a branch, where some other
        // jump lands ON the branch. Fusing would skip the comparison on
        // that path.
        let s = SpanId(0);
        let code = vec![
            Insn::Bin {
                op: BinOp::Lt,
                dst: 5,
                l: 0,
                r: 1,
                span: s,
            },
            Insn::JumpIfFalse {
                src: 5,
                target: 3,
                cost: 1,
                span: s,
            },
            Insn::Jump(1), // lands on the JumpIfFalse: blocks fusion
            Insn::Ret {
                src: 0,
                has_value: false,
            },
        ];
        let out = fuse(code, 5);
        assert_eq!(out.len(), 4, "pair across a jump target must not fuse");
        assert!(matches!(out[0], Insn::Bin { .. }));
        assert!(matches!(out[1], Insn::JumpIfFalse { .. }));
        // Identical code without the incoming jump does fuse.
        let code = vec![
            Insn::Bin {
                op: BinOp::Lt,
                dst: 5,
                l: 0,
                r: 1,
                span: s,
            },
            Insn::JumpIfFalse {
                src: 5,
                target: 2,
                cost: 1,
                span: s,
            },
            Insn::Ret {
                src: 0,
                has_value: false,
            },
        ];
        let out = fuse(code, 5);
        assert!(matches!(out[0], Insn::CmpBranch { .. }));
    }

    #[test]
    fn fusion_never_elides_a_local_register_write() {
        // The comparison writes a *local* (register below first_temp):
        // eliding that write would be observable, so fusion must not fire.
        let s = SpanId(0);
        let code = vec![
            Insn::Bin {
                op: BinOp::Lt,
                dst: 2,
                l: 0,
                r: 1,
                span: s,
            },
            Insn::JumpIfFalse {
                src: 2,
                target: 2,
                cost: 1,
                span: s,
            },
            Insn::Ret {
                src: 0,
                has_value: false,
            },
        ];
        let out = fuse(code, 5);
        assert_eq!(out.len(), 3);
        assert!(matches!(out[0], Insn::Bin { .. }));
    }

    #[test]
    fn jump_targets_are_remapped_after_fusion() {
        // A for loop with a `continue`: the continue's jump targets the
        // step, which fuses with the back-edge; the retargeted jump must
        // land on the fused instruction and the program must still work.
        let src = "int main() { int s = 0; for (int i = 0; i < 10; i++) { \
                   if (i == 5) { continue; } s += 1; } return s; }";
        let m = parse_module(src, "t").unwrap();
        let cfg = RunConfig::default();
        let mut vm = crate::vm::Vm::new(&m, cfg);
        let v = vm.run_main().unwrap();
        assert_eq!(format!("{v:?}"), "Int(9)");
    }

    #[test]
    fn imm_binop_chain_fuses_to_bin_imm2() {
        // `i * 4 + 2`: the second immediate binop consumes the first's
        // single-use temporary (the shape of flattened 2-D addressing).
        let code = main_code("int main() { int i = 5; return i * 4 + 2; }");
        assert_eq!(count(&code, |i| matches!(i, Insn::BinImm2 { .. })), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::BinImm { .. })), 0);
    }

    #[test]
    fn scaled_math_call_fuses_to_math_call_imm() {
        // `sqrt(v * 4.0)`: immediate scaling feeding a unary intrinsic.
        let code = main_code(
            "int main() { double v = 2.25; double r = 0.0; \
             r = sqrt(v * 4.0); return (int)r; }",
        );
        assert_eq!(
            count(&code, |i| matches!(i, Insn::MathCallImm { rev: false, .. })),
            1
        );
        assert_eq!(count(&code, |i| matches!(i, Insn::MathCall { .. })), 0);
        // Literal-left (`4.0 / v`) goes through `BinImmRev` and sets `rev`.
        let code = main_code(
            "int main() { double v = 2.0; double r = 0.0; \
             r = sqrt(4.0 / v); return (int)r; }",
        );
        assert_eq!(
            count(&code, |i| matches!(i, Insn::MathCallImm { rev: true, .. })),
            1
        );
    }

    #[test]
    fn bin_imm2_never_elides_a_local_register_write() {
        // First binop writes a *local* (below first_temp): its write is
        // observable, so the chain must stay unfused.
        let s = SpanId(0);
        let code = vec![
            Insn::BinImm {
                op: BinOp::Mul,
                dst: 2,
                l: 0,
                imm: Value::Int(4),
                span: s,
            },
            Insn::BinImm {
                op: BinOp::Add,
                dst: 6,
                l: 2,
                imm: Value::Int(2),
                span: s,
            },
            Insn::Ret {
                src: 6,
                has_value: true,
            },
        ];
        let out = fuse(code, 5);
        assert_eq!(count(&out, |i| matches!(i, Insn::BinImm2 { .. })), 0);
        assert_eq!(count(&out, |i| matches!(i, Insn::BinImm { .. })), 2);
    }

    #[test]
    fn math_call_imm_requires_float_immediate() {
        // An integer immediate is excluded from `MathCallImm` (the fused
        // handler is specialised to the float fast path); the pair must
        // stay unfused.
        use crate::intrinsics::{MathFn, MathOp};
        let s = SpanId(0);
        let code = vec![
            Insn::BinImm {
                op: BinOp::Add,
                dst: 6,
                l: 0,
                imm: Value::Int(3),
                span: s,
            },
            Insn::MathCall {
                dst: 7,
                a: 6,
                b: 0,
                f: MathFn {
                    op: MathOp::Sqrt,
                    single: false,
                },
                cycles: 20,
                flops: 1,
                name: "sqrt".into(),
                span: s,
            },
            Insn::Ret {
                src: 7,
                has_value: true,
            },
        ];
        let out = fuse(code, 5);
        assert_eq!(count(&out, |i| matches!(i, Insn::MathCallImm { .. })), 0);
        assert_eq!(count(&out, |i| matches!(i, Insn::MathCall { .. })), 1);
    }
}
