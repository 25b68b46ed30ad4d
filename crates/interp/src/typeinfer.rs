//! Static register type inference over the compiled bytecode, and the
//! specialisation rewrite that uses it.
//!
//! A forward dataflow pass computes, for every reachable instruction, the
//! lattice type of every frame register at that point. The lattice is flat:
//! concrete tags ([`Ty::Int`], [`Ty::F64`], …) with [`Ty::Any`] on top —
//! there is no bottom, because an unwritten register really does hold
//! `Value::Unit` at runtime (frames are unit-initialised).
//!
//! Seeding is *mostly* sound:
//!
//! * scalar parameters are exact — `ops::coerce` guarantees the declared
//!   tag at binding time;
//! * literals, casts, coercions, `AllocArray` and the math intrinsics have
//!   statically known result tags;
//! * **pointer element types are optimistic**: `ops::coerce` accepts *any*
//!   pointer for a pointer-typed parameter, so a `double*` parameter may
//!   receive an `int` buffer at runtime. Every specialised handler in the
//!   VM therefore re-checks the runtime tag and falls back to the generic
//!   implementation — wrong inference can cost a missed fast path, never a
//!   wrong result.
//!
//! The rewrite ([`specialize`]) is strictly 1:1 — no instruction is added,
//! removed or moved, so jump targets are untouched. Each rewritten form
//! carries everything its VM fallback needs (original immediates, spans,
//! the coercion marker) to replay the generic semantics bit-for-bit when
//! the runtime tags disagree with the inference.

use crate::compile::{CallSite, CallTarget, Insn, NO_SPAN};
use crate::intrinsics::Intrinsic;
use crate::value::Value;
use psa_minicpp::ast::{BinOp, Scalar, Type, UnOp};

/// Inferred type of one register at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ty {
    /// `Value::Unit` (unwritten register or void result).
    Unit,
    Int,
    F32,
    F64,
    Bool,
    /// Pointer whose element scalar is *believed* to be this (see the
    /// module doc: optimistic for parameters, exact for allocations).
    Ptr(Scalar),
    /// Pointer of unknown element type (null-initialised declarations,
    /// joins of differently-typed pointers).
    PtrAny,
    /// Top: nothing is known.
    Any,
}

/// Lattice join: equal stays, pointers stay pointers, anything else is Any.
fn join(a: Ty, b: Ty) -> Ty {
    if a == b {
        return a;
    }
    match (a, b) {
        (Ty::Ptr(_) | Ty::PtrAny, Ty::Ptr(_) | Ty::PtrAny) => Ty::PtrAny,
        _ => Ty::Any,
    }
}

fn ty_of_value(v: &Value) -> Ty {
    match v {
        Value::Int(_) => Ty::Int,
        Value::Float(_) => Ty::F32,
        Value::Double(_) => Ty::F64,
        Value::Bool(_) => Ty::Bool,
        // Compile-time pointer constants are null-pointer declarations;
        // their element type is unknowable.
        Value::Ptr(_) => Ty::PtrAny,
        Value::Unit => Ty::Unit,
    }
}

fn ty_of_scalar(s: Scalar) -> Ty {
    match s {
        Scalar::Int => Ty::Int,
        Scalar::Float => Ty::F32,
        Scalar::Double => Ty::F64,
        Scalar::Bool => Ty::Bool,
        Scalar::Void => Ty::Unit,
    }
}

fn ty_of_type(t: Type) -> Ty {
    if t.is_pointer() {
        Ty::Ptr(t.scalar)
    } else {
        ty_of_scalar(t.scalar)
    }
}

/// Numeric promotion rank, mirroring `crate::value::rank`. `None` for
/// non-numeric types.
fn rank(t: Ty) -> Option<u8> {
    match t {
        Ty::Bool => Some(0),
        Ty::Int => Some(1),
        Ty::F32 => Some(2),
        Ty::F64 => Some(3),
        _ => None,
    }
}

/// Result type of `ops::apply_binary` on operands of the given types.
fn bin_result(op: BinOp, l: Ty, r: Ty) -> Ty {
    if op.is_comparison() {
        // Success yields Bool whatever the operands were.
        return Ty::Bool;
    }
    // Pointer arithmetic: ptr ± integral keeps the pointer type.
    if matches!(op, BinOp::Add | BinOp::Sub)
        && matches!(l, Ty::Ptr(_) | Ty::PtrAny)
        && matches!(r, Ty::Int | Ty::Bool)
    {
        return l;
    }
    match (rank(l), rank(r)) {
        (Some(a), Some(b)) => match a.max(b) {
            0 | 1 => Ty::Int,
            2 => Ty::F32,
            _ => Ty::F64,
        },
        _ => Ty::Any,
    }
}

/// `ops::convert_assign` result type: the assigned value adopts the slot's
/// current scalar tag; `Unit`/pointer slots take the new value unchanged.
fn assign_result(cur: Ty, new: Ty) -> Ty {
    match cur {
        Ty::Int | Ty::F32 | Ty::F64 | Ty::Bool => cur,
        Ty::Unit | Ty::Ptr(_) | Ty::PtrAny => new,
        Ty::Any => Ty::Any,
    }
}

/// `ops::coerce` result type for a declared type.
fn coerce_result(ty: Type, src: Ty) -> Ty {
    if ty.is_pointer() {
        // On success the pointer passes through unchanged.
        return match src {
            Ty::Ptr(_) | Ty::PtrAny => src,
            _ => Ty::PtrAny,
        };
    }
    ty_of_scalar(ty.scalar)
}

/// Element type loaded from a pointer of type `p` (Any when unknown).
fn elem_of(p: Ty) -> Ty {
    match p {
        Ty::Ptr(s) => ty_of_scalar(s),
        _ => Ty::Any,
    }
}

/// Result types per call site, indexed by the `site` field of
/// [`Insn::Call`]. Allocation intrinsics give precisely-typed pointers and
/// math intrinsics their precision's float; user calls and the remaining
/// intrinsics stay [`Ty::Any`] (MiniC++ does not coerce return values, so
/// a declared return type is not a runtime guarantee).
pub(crate) fn call_ret_types(sites: &[CallSite]) -> Vec<Ty> {
    sites
        .iter()
        .map(|s| match s.target {
            CallTarget::Intrinsic(Intrinsic::Alloc(scalar)) => Ty::Ptr(scalar),
            CallTarget::Intrinsic(Intrinsic::Math(f)) => {
                if f.single {
                    Ty::F32
                } else {
                    Ty::F64
                }
            }
            _ => Ty::Any,
        })
        .collect()
}

/// Apply one straight-line instruction's effect on the register state.
/// Control-flow instructions are handled by the driver; this covers every
/// form that only writes registers.
fn transfer(insn: &Insn, st: &mut [Ty], call_rets: &[Ty]) {
    let w = |st: &mut [Ty], r: u16, t: Ty| st[r as usize] = t;
    match insn {
        Insn::Const { dst, v } => w(st, *dst, ty_of_value(v)),
        Insn::Copy { dst, src } => w(st, *dst, st[*src as usize]),
        Insn::LoadGlobal { dst, .. } => w(st, *dst, Ty::Any),
        Insn::CopyToGlobal { .. } | Insn::AssignGlobal { .. } => {}
        Insn::AssignLocal { slot, src, .. } => {
            let t = assign_result(st[*slot as usize], st[*src as usize]);
            w(st, *slot, t);
        }
        Insn::Coerce { dst, src, ty, .. } | Insn::Cast { dst, src, ty, .. } => {
            let t = coerce_result(*ty, st[*src as usize]);
            w(st, *dst, t);
        }
        Insn::Un { op, dst, src, .. } => {
            let t = match op {
                UnOp::Neg => match st[*src as usize] {
                    t @ (Ty::Int | Ty::F32 | Ty::F64) => t,
                    _ => Ty::Any,
                },
                UnOp::Not => Ty::Bool,
            };
            w(st, *dst, t);
        }
        Insn::Bin { op, dst, l, r, .. } => {
            let t = bin_result(*op, st[*l as usize], st[*r as usize]);
            w(st, *dst, t);
        }
        Insn::BinImm {
            op, dst, l, imm, ..
        } => {
            let t = bin_result(*op, st[*l as usize], ty_of_value(imm));
            w(st, *dst, t);
        }
        Insn::BinImmRev {
            op, dst, imm, r, ..
        } => {
            let t = bin_result(*op, ty_of_value(imm), st[*r as usize]);
            w(st, *dst, t);
        }
        Insn::ToBool { dst, .. } => w(st, *dst, Ty::Bool),
        Insn::Index { dst, base, .. } => w(st, *dst, elem_of(st[*base as usize])),
        Insn::IndexAddr { dst, base, .. } => {
            let t = match st[*base as usize] {
                t @ (Ty::Ptr(_) | Ty::PtrAny) => t,
                _ => Ty::PtrAny,
            };
            w(st, *dst, t);
        }
        Insn::LoadElem { dst, addr, .. } => w(st, *dst, elem_of(st[*addr as usize])),
        Insn::StoreElem { .. } => {}
        Insn::AllocArray { dst, scalar, .. } => w(st, *dst, Ty::Ptr(*scalar)),
        Insn::Call { dst, site, .. } => w(
            st,
            *dst,
            call_rets.get(*site as usize).copied().unwrap_or(Ty::Any),
        ),
        Insn::MathCall { dst, f, .. } => {
            w(st, *dst, if f.single { Ty::F32 } else { Ty::F64 });
        }
        Insn::ForInit { slot, .. }
        | Insn::ForStep { slot, .. }
        | Insn::ForStepJump { slot, .. } => w(st, *slot, Ty::Int),
        // Superinstructions (pair-fusion runs before specialisation).
        Insn::BinAssign { op, slot, l, r, .. } => {
            let v = bin_result(*op, st[*l as usize], st[*r as usize]);
            let t = assign_result(st[*slot as usize], v);
            w(st, *slot, t);
        }
        Insn::IndexBin {
            op, dst, base, r, ..
        } => {
            let t = bin_result(*op, elem_of(st[*base as usize]), st[*r as usize]);
            w(st, *dst, t);
        }
        Insn::BinCoerce { dst, ty, .. }
        | Insn::BinImmCoerce { dst, ty, .. }
        | Insn::IndexCoerce { dst, ty, .. }
        | Insn::IndexBinCoerce { dst, ty, .. } => {
            // The producer result is scalar or errors; the coercion fixes
            // the success tag entirely.
            w(st, *dst, coerce_result(*ty, Ty::Any));
        }
        Insn::MathCallCoerce { dst, ty, .. } => w(st, *dst, coerce_result(*ty, Ty::Any)),
        Insn::BinImm2 {
            op1,
            op2,
            dst,
            l,
            imm1,
            imm2,
            ..
        } => {
            let t1 = bin_result(*op1, st[*l as usize], ty_of_value(imm1));
            let t = bin_result(*op2, t1, ty_of_value(imm2));
            w(st, *dst, t);
        }
        Insn::MathCallImm { dst, f, .. } => {
            w(st, *dst, if f.single { Ty::F32 } else { Ty::F64 });
        }
        Insn::ArithBlock(steps) => {
            // Defensive: specialisation runs before blocking, but fold the
            // steps anyway so the pass is order-independent.
            for s in steps.iter() {
                transfer(s, st, call_rets);
            }
        }
        // Specialised forms only exist after this pass; treat their writes
        // conservatively if ever encountered.
        Insn::F64Bin { dst, .. }
        | Insn::F64BinImm { dst, .. }
        | Insn::F64Index { dst, .. }
        | Insn::F64MathCallImm { dst, .. } => w(st, *dst, Ty::Any),
        Insn::F64BinAssign { slot, .. } => w(st, *slot, Ty::Any),
        Insn::F64Store { .. } => {}
        Insn::DeferredFor(d) => {
            for s in d.body.iter() {
                transfer(s, st, call_rets);
            }
            w(st, d.slot, Ty::Int);
        }
        // Control flow / no register writes: handled by the driver.
        Insn::Jump(_)
        | Insn::JumpIfFalse { .. }
        | Insn::AndShort { .. }
        | Insn::OrShort { .. }
        | Insn::Ret { .. }
        | Insn::LoopEnter { .. }
        | Insn::LoopExit
        | Insn::ForTest { .. }
        | Insn::WhileTest { .. }
        | Insn::Raise(_)
        | Insn::CmpBranch { .. } => {}
    }
}

/// Per-pc entry states for one code chunk (`None` = unreachable).
fn analyze(
    code: &[Insn],
    params: &[Type],
    nregs: usize,
    call_rets: &[Ty],
) -> Vec<Option<Box<[Ty]>>> {
    let mut state_at: Vec<Option<Box<[Ty]>>> = vec![None; code.len()];
    if code.is_empty() {
        return state_at;
    }
    let mut entry: Box<[Ty]> = vec![Ty::Unit; nregs].into_boxed_slice();
    for (i, t) in params.iter().enumerate() {
        entry[i] = ty_of_type(*t);
    }
    let mut work: Vec<usize> = Vec::new();
    merge_into(&mut state_at, &mut work, 0, &entry);
    while let Some(pc) = work.pop() {
        let mut st = state_at[pc].clone().expect("queued pc has a state");
        match &code[pc] {
            Insn::Ret { .. } | Insn::Raise(_) => {}
            Insn::AndShort { dst, target, .. } | Insn::OrShort { dst, target, .. } => {
                // The short-circuit edge writes the Bool result; the
                // fall-through edge leaves `dst` untouched.
                let mut taken = st.clone();
                taken[*dst as usize] = Ty::Bool;
                merge_into(&mut state_at, &mut work, *target as usize, &taken);
                merge_into(&mut state_at, &mut work, pc + 1, &st);
            }
            insn => {
                // Every other edge carries the post-transfer state (only
                // `ForStepJump` among the branches writes a register).
                transfer(insn, &mut st, call_rets);
                if let Some(t) = insn.target() {
                    merge_into(&mut state_at, &mut work, t as usize, &st);
                }
                if !matches!(insn, Insn::Jump(_) | Insn::ForStepJump { .. }) {
                    merge_into(&mut state_at, &mut work, pc + 1, &st);
                }
            }
        }
    }
    state_at
}

fn merge_into(state_at: &mut [Option<Box<[Ty]>>], work: &mut Vec<usize>, pc: usize, st: &[Ty]) {
    if pc >= state_at.len() {
        // Jump to one-past-the-end (falls off the chunk): nothing to do.
        return;
    }
    match &mut state_at[pc] {
        None => {
            state_at[pc] = Some(st.to_vec().into_boxed_slice());
            work.push(pc);
        }
        Some(cur) => {
            let mut changed = false;
            for (c, n) in cur.iter_mut().zip(st.iter()) {
                let j = join(*c, *n);
                if j != *c {
                    *c = j;
                    changed = true;
                }
            }
            if changed {
                work.push(pc);
            }
        }
    }
}

/// True when an immediate folds exactly into an f64 operand: any numeric
/// tag, because `apply_binary` promotes through `Value::as_f64` for a
/// double operand — precomputing `as_f64` here is the identical conversion.
fn imm_f64(imm: &Value) -> Option<f64> {
    imm.as_f64()
}

fn is_f64_arith(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
}

/// Is `ty` a plain (non-pointer) `double`, so that coercing a `Double`
/// value to it is the identity and charges nothing?
fn is_double_decl(ty: &Type) -> bool {
    !ty.is_pointer() && ty.scalar == Scalar::Double
}

/// Rewrite one instruction given the register types on entry to it.
/// Returns the instruction unchanged when no specialisation applies.
fn rewrite(insn: Insn, st: &[Ty]) -> Insn {
    let f64_at = |r: u16| st[r as usize] == Ty::F64;
    match insn {
        Insn::Bin {
            op,
            dst,
            l,
            r,
            span,
        } if is_f64_arith(op) && f64_at(l) && f64_at(r) => Insn::F64Bin {
            op,
            dst,
            l,
            r,
            span,
            co_span: NO_SPAN,
        },
        Insn::BinCoerce {
            op,
            dst,
            l,
            r,
            ty,
            span,
            co_span,
        } if is_f64_arith(op) && f64_at(l) && f64_at(r) && is_double_decl(&ty) => Insn::F64Bin {
            op,
            dst,
            l,
            r,
            span,
            co_span,
        },
        Insn::BinImm {
            op,
            dst,
            l,
            imm,
            span,
        } if is_f64_arith(op) && f64_at(l) && imm_f64(&imm).is_some() => Insn::F64BinImm {
            op,
            rev: false,
            dst,
            l,
            imm_f64: imm_f64(&imm).expect("checked"),
            imm,
            span,
            co_span: NO_SPAN,
        },
        Insn::BinImmRev {
            op,
            dst,
            imm,
            r,
            span,
        } if is_f64_arith(op) && f64_at(r) && imm_f64(&imm).is_some() => Insn::F64BinImm {
            op,
            rev: true,
            dst,
            l: r,
            imm_f64: imm_f64(&imm).expect("checked"),
            imm,
            span,
            co_span: NO_SPAN,
        },
        Insn::BinImmCoerce {
            op,
            dst,
            l,
            imm,
            ty,
            span,
            co_span,
        } if is_f64_arith(op) && f64_at(l) && imm_f64(&imm).is_some() && is_double_decl(&ty) => {
            Insn::F64BinImm {
                op,
                rev: false,
                dst,
                l,
                imm_f64: imm_f64(&imm).expect("checked"),
                imm,
                span,
                co_span,
            }
        }
        Insn::BinAssign {
            op,
            slot,
            l,
            r,
            span,
            asg_span,
        } if is_f64_arith(op) && f64_at(l) && f64_at(r) && f64_at(slot) => Insn::F64BinAssign {
            op,
            slot,
            l,
            r,
            span,
            asg_span,
        },
        Insn::Index {
            dst,
            base,
            idx,
            cost,
            base_span,
            index_span,
            span,
        } if st[base as usize] == Ty::Ptr(Scalar::Double) => Insn::F64Index {
            dst,
            base,
            idx,
            cost,
            base_span,
            index_span,
            span,
            co_span: NO_SPAN,
        },
        Insn::IndexCoerce {
            dst,
            base,
            idx,
            cost,
            ty,
            base_span,
            index_span,
            span,
            co_span,
        } if st[base as usize] == Ty::Ptr(Scalar::Double) && is_double_decl(&ty) => {
            Insn::F64Index {
                dst,
                base,
                idx,
                cost,
                base_span,
                index_span,
                span,
                co_span,
            }
        }
        Insn::StoreElem {
            addr,
            src,
            cost,
            span,
        } if f64_at(src) => Insn::F64Store {
            addr,
            src,
            cost,
            span,
        },
        Insn::MathCallImm {
            op,
            rev,
            dst,
            l,
            imm,
            f,
            cycles,
            flops,
            bin_span,
        } if f64_at(l) && !f.single && imm_f64(&imm).is_some() => Insn::F64MathCallImm {
            op,
            rev,
            dst,
            l,
            imm_f64: imm_f64(&imm).expect("checked"),
            imm,
            f,
            cycles,
            flops,
            bin_span,
        },
        other => other,
    }
}

/// Run inference over `code` (seeded from the declared parameter types)
/// and rewrite every instruction whose operand types admit a specialised
/// variant. 1:1, so jump targets survive unchanged; unreachable
/// instructions are kept as-is.
pub(crate) fn specialize(
    code: Vec<Insn>,
    params: &[Type],
    nregs: usize,
    call_rets: &[Ty],
) -> Vec<Insn> {
    let states = analyze(&code, params, nregs, call_rets);
    code.into_iter()
        .zip(states)
        .map(|(insn, st)| match st {
            Some(st) => rewrite(insn, &st),
            None => insn,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Program;
    use crate::eval::RunConfig;
    use psa_minicpp::parse_module;

    fn main_code(src: &str) -> Vec<Insn> {
        let m = parse_module(src, "t").unwrap();
        let p = Program::compile(&m, &RunConfig::default());
        let fidx = p.fn_by_name["main"];
        p.funcs[fidx as usize].code.clone()
    }

    /// Count matches, looking through blocks and deferred loop bodies.
    fn count(code: &[Insn], pred: &dyn Fn(&Insn) -> bool) -> usize {
        let mut n = 0;
        for i in code {
            match i {
                Insn::ArithBlock(steps) => n += count(steps, pred),
                Insn::DeferredFor(d) => {
                    if pred(i) {
                        n += 1;
                    }
                    n += count(&d.body, pred);
                }
                other => {
                    if pred(other) {
                        n += 1;
                    }
                }
            }
        }
        n
    }

    #[test]
    fn double_arithmetic_specialises() {
        // `a * b` feeds the cast directly, so it stays a plain `Bin` after
        // fusion and specialises to `F64Bin`.
        let code = main_code("int main() { double a = 1.5; double b = 2.5; return (int)(a * b); }");
        assert_eq!(count(&code, &|i| matches!(i, Insn::F64Bin { .. })), 1);
    }

    #[test]
    fn int_arithmetic_stays_generic() {
        let code =
            main_code("int main() { int a = 3; int b = 4; int c = 0; c = a * b; return c; }");
        assert_eq!(count(&code, &|i| matches!(i, Insn::F64Bin { .. })), 0);
    }

    #[test]
    fn alloc_gives_typed_pointer_loads() {
        let code = main_code(
            "int main() { double* a = alloc_double(4); double x = a[1]; return (int)x; }",
        );
        assert_eq!(count(&code, &|i| matches!(i, Insn::F64Index { .. })), 1);
    }

    #[test]
    fn mixed_branch_types_join_to_generic() {
        // `x` is double on one path and reassigned from an int expression
        // on the other; the join must demote it and block specialisation
        // of the final multiply.
        let code = main_code(
            "int main() { double x = 1.0; double y = 2.0; int c = 1; \
             if (c) { x = x + 1.0; } else { x = x + 2.0; } \
             y = x * y; return (int)y; }",
        );
        // Reassignments inside the branches keep x double (convert_assign
        // keeps the slot tag), so the multiply still specialises…
        assert_eq!(count(&code, &|i| matches!(i, Insn::F64BinAssign { .. })), 1);
    }

    #[test]
    fn double_store_specialises() {
        let code = main_code(
            "int main() { double* a = alloc_double(4); \
             for (int i = 0; i < 4; i++) { a[i] = 1.5; } return 0; }",
        );
        assert_eq!(count(&code, &|i| matches!(i, Insn::F64Store { .. })), 1);
    }

    #[test]
    fn scaled_exp_specialises_to_f64_math_call_imm() {
        let code = main_code(
            "int main() { double v = 0.5; double r = 0.0; \
             r = exp(v * 2.0); return (int)r; }",
        );
        assert_eq!(
            count(&code, &|i| matches!(i, Insn::F64MathCallImm { .. })),
            1
        );
    }
}
