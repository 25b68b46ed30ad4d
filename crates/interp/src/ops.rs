//! Operator and intrinsic semantics shared by both execution engines.
//!
//! The tree-walking evaluator ([`crate::eval::Interpreter`]) and the bytecode
//! VM ([`crate::vm::Vm`]) must agree bit-for-bit on every observable: result
//! values, the virtual clock, FLOP/int-op/load/store counters, and error
//! variants (including spans and message text). Centralising the value-level
//! semantics here makes that agreement structural instead of coincidental —
//! there is exactly one implementation of coercion, binary/unary operators,
//! C-style assignment conversion, and the intrinsics.
//!
//! Charging order is part of the contract: e.g. `!` type-checks before it
//! charges, while a condition test charges before it type-checks. Don't
//! "fix" these — the differential tests pin them.

use crate::error::{RuntimeError, RuntimeResult};
use crate::intrinsics::{Intrinsic, MathCost, SplitMix64};
use crate::memory::Memory;
use crate::profile::{CostModel, Profile};
use crate::value::{promote, Pointer, Promoted, Value};
use psa_minicpp::ast::{BinOp, Scalar, Type, UnOp};
use psa_minicpp::Span;

/// The cost-model fields the operator hot paths need, copied out once so the
/// per-op path never touches (let alone clones) the full [`CostModel`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct BinCosts {
    pub int_op: u64,
    pub int_mul: u64,
    pub int_div: u64,
    pub fp_op: u64,
    pub fp_div: u64,
}

impl BinCosts {
    pub fn of(cm: &CostModel) -> Self {
        BinCosts {
            int_op: cm.int_op,
            int_mul: cm.int_mul,
            int_div: cm.int_div,
            fp_op: cm.fp_op,
            fp_div: cm.fp_div,
        }
    }
}

/// Advance the virtual clock, failing once the budget is exhausted.
///
/// This is the *only* way cycles reach `total_cycles` — except for the
/// VM's `DeferredFor`, which batches charges in a local accumulator and
/// reconciles them here-equivalently at loop exit. Deferral is sound
/// because charging is order-insensitive between observation points: the
/// clock is only read at frame boundaries, loop exits, and error sites,
/// and `DeferredFor` switches to immediate (precise-mode) charging as
/// soon as a worst-case iteration could cross `max_cycles`, so the exact
/// cycle at which exhaustion fires is preserved.
#[inline(always)]
pub(crate) fn charge(profile: &mut Profile, max_cycles: u64, cycles: u64) -> RuntimeResult<()> {
    profile.total_cycles += cycles;
    if profile.total_cycles > max_cycles {
        // Cold path: budget exhaustion is a forensic-dump trigger.
        if psa_obs::recorder::enabled() {
            psa_obs::recorder::record_budget_exhausted(&format!("vm cycle budget {max_cycles}"));
        }
        return Err(RuntimeError::CycleBudgetExhausted { limit: max_cycles });
    }
    Ok(())
}

/// Coerce a value to a declared type (parameter binding, casts, scalar
/// declaration initialisers).
#[inline(always)]
pub(crate) fn coerce(value: Value, ty: Type, span: Span) -> RuntimeResult<Value> {
    if ty.is_pointer() {
        return match value {
            Value::Ptr(_) => Ok(value),
            other => Err(RuntimeError::Type {
                message: format!("expected pointer, got {}", other.type_name()),
                span,
            }),
        };
    }
    let err = || RuntimeError::Type {
        message: format!("cannot coerce {} to {}", value.type_name(), ty),
        span,
    };
    match ty.scalar {
        Scalar::Int => Ok(Value::Int(value.as_i64().ok_or_else(err)?)),
        Scalar::Double => Ok(Value::Double(value.as_f64().ok_or_else(err)?)),
        Scalar::Float => Ok(Value::Float(value.as_f64().ok_or_else(err)? as f32)),
        Scalar::Bool => Ok(Value::Bool(value.truthy().ok_or_else(err)?)),
        Scalar::Void => Ok(Value::Unit),
    }
}

/// C assignment conversion: the assigned value adopts the variable's current
/// runtime type. `current` of `None`, `Ptr` or `Unit` leaves `new` unchanged.
#[inline(always)]
pub(crate) fn convert_assign(
    current: Option<Value>,
    new: Value,
    span: Span,
) -> RuntimeResult<Value> {
    Ok(match current {
        Some(Value::Int(_)) => Value::Int(new.as_i64().ok_or_else(|| RuntimeError::Type {
            message: "cannot convert to int".into(),
            span,
        })?),
        Some(Value::Float(_)) => Value::Float(new.as_f64().ok_or_else(|| RuntimeError::Type {
            message: "cannot convert to float".into(),
            span,
        })? as f32),
        Some(Value::Double(_)) => {
            Value::Double(new.as_f64().ok_or_else(|| RuntimeError::Type {
                message: "cannot convert to double".into(),
                span,
            })?)
        }
        Some(Value::Bool(_)) => Value::Bool(new.truthy().ok_or_else(|| RuntimeError::Type {
            message: "cannot convert to bool".into(),
            span,
        })?),
        _ => new,
    })
}

/// Unary operator semantics. `Neg` type-dispatches before charging; `Not`
/// type-checks, then charges an int op *without* counting it as one.
#[inline(always)]
pub(crate) fn apply_unary(
    profile: &mut Profile,
    max_cycles: u64,
    costs: BinCosts,
    op: UnOp,
    v: Value,
    span: Span,
) -> RuntimeResult<Value> {
    match op {
        UnOp::Neg => match v {
            Value::Int(x) => {
                charge(profile, max_cycles, costs.int_op)?;
                profile.int_ops += 1;
                Ok(Value::Int(-x))
            }
            Value::Float(x) => {
                charge(profile, max_cycles, costs.fp_op)?;
                profile.flops += 1;
                Ok(Value::Float(-x))
            }
            Value::Double(x) => {
                charge(profile, max_cycles, costs.fp_op)?;
                profile.flops += 1;
                Ok(Value::Double(-x))
            }
            other => Err(RuntimeError::Type {
                message: format!("cannot negate {}", other.type_name()),
                span,
            }),
        },
        UnOp::Not => {
            let b = v.truthy().ok_or_else(|| RuntimeError::Type {
                message: format!("cannot apply `!` to {}", v.type_name()),
                span,
            })?;
            charge(profile, max_cycles, costs.int_op)?;
            Ok(Value::Bool(!b))
        }
    }
}

/// Binary operator semantics (everything except `&&`/`||`, which both
/// engines lower to short-circuiting control flow).
#[inline(always)]
pub(crate) fn apply_binary(
    profile: &mut Profile,
    max_cycles: u64,
    costs: BinCosts,
    op: BinOp,
    l: Value,
    r: Value,
    span: Span,
) -> RuntimeResult<Value> {
    // Typed fast path: double arithmetic, by far the hottest case. Exactly
    // the generic route's charge + FLOP accounting (via `apply_fp`, which
    // has no error path for these four ops), minus the promote dispatch.
    if let (Value::Double(a), Value::Double(b)) = (l, r) {
        let (cost, fast) = match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => (costs.fp_op, true),
            BinOp::Div => (costs.fp_div, true),
            _ => (0, false),
        };
        if fast {
            charge(profile, max_cycles, cost)?;
            profile.flops += 1;
            let r = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                _ => unreachable!(),
            };
            return Ok(Value::Double(r));
        }
    }
    // Pointer arithmetic: ptr ± int.
    if let (Value::Ptr(p), Some(off)) = (&l, r.as_i64()) {
        if matches!(op, BinOp::Add | BinOp::Sub) && !r.is_floating() {
            charge(profile, max_cycles, costs.int_op)?;
            profile.int_ops += 1;
            let delta = if op == BinOp::Add { off } else { -off };
            return Ok(Value::Ptr(Pointer {
                buffer: p.buffer,
                offset: p.offset + delta,
            }));
        }
    }
    let pair = promote(&l, &r).ok_or_else(|| RuntimeError::Type {
        message: format!(
            "cannot apply `{}` to {} and {}",
            op.symbol(),
            l.type_name(),
            r.type_name()
        ),
        span,
    })?;
    match pair {
        Promoted::Int(a, b) => {
            let cost = match op {
                BinOp::Mul => costs.int_mul,
                BinOp::Div | BinOp::Rem => costs.int_div,
                _ => costs.int_op,
            };
            charge(profile, max_cycles, cost)?;
            profile.int_ops += 1;
            Ok(match op {
                BinOp::Add => Value::Int(a.wrapping_add(b)),
                BinOp::Sub => Value::Int(a.wrapping_sub(b)),
                BinOp::Mul => Value::Int(a.wrapping_mul(b)),
                BinOp::Div => {
                    if b == 0 {
                        return Err(RuntimeError::DivideByZero { span });
                    }
                    Value::Int(a.wrapping_div(b))
                }
                BinOp::Rem => {
                    if b == 0 {
                        return Err(RuntimeError::DivideByZero { span });
                    }
                    Value::Int(a.wrapping_rem(b))
                }
                BinOp::Lt => Value::Bool(a < b),
                BinOp::Le => Value::Bool(a <= b),
                BinOp::Gt => Value::Bool(a > b),
                BinOp::Ge => Value::Bool(a >= b),
                BinOp::Eq => Value::Bool(a == b),
                BinOp::Ne => Value::Bool(a != b),
                BinOp::And | BinOp::Or => unreachable!("short-circuited"),
            })
        }
        Promoted::Float(a, b) => apply_fp(
            profile,
            max_cycles,
            costs,
            op,
            f64::from(a),
            f64::from(b),
            true,
            span,
        ),
        Promoted::Double(a, b) => apply_fp(profile, max_cycles, costs, op, a, b, false, span),
    }
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn apply_fp(
    profile: &mut Profile,
    max_cycles: u64,
    costs: BinCosts,
    op: BinOp,
    a: f64,
    b: f64,
    single: bool,
    span: Span,
) -> RuntimeResult<Value> {
    let (cost, is_flop) = match op {
        BinOp::Div => (costs.fp_div, true),
        BinOp::Add | BinOp::Sub | BinOp::Mul => (costs.fp_op, true),
        _ => (costs.fp_op, false),
    };
    charge(profile, max_cycles, cost)?;
    if is_flop {
        profile.flops += 1;
    }
    if op.is_comparison() {
        let res = match op {
            BinOp::Lt => a < b,
            BinOp::Le => a <= b,
            BinOp::Gt => a > b,
            BinOp::Ge => a >= b,
            BinOp::Eq => a == b,
            BinOp::Ne => a != b,
            _ => unreachable!(),
        };
        return Ok(Value::Bool(res));
    }
    let value = if single {
        let (a, b) = (a as f32, b as f32);
        let r = match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Rem => a % b,
            _ => {
                return Err(RuntimeError::Type {
                    message: format!("`{}` not defined on floats", op.symbol()),
                    span,
                })
            }
        };
        Value::Float(r)
    } else {
        let r = match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Rem => a % b,
            _ => {
                return Err(RuntimeError::Type {
                    message: format!("`{}` not defined on doubles", op.symbol()),
                    span,
                })
            }
        };
        Value::Double(r)
    };
    Ok(value)
}

/// The mutable interpreter state an intrinsic call touches, borrowed
/// field-by-field so either engine can assemble one without conflicting
/// with its own borrows.
pub(crate) struct IntrinsicCtx<'a> {
    pub profile: &'a mut Profile,
    pub memory: &'a mut Memory,
    pub cost_model: &'a CostModel,
    pub max_cycles: u64,
    pub heap_count: &'a mut u32,
    /// Whether execution is currently inside the watched kernel.
    pub watch: bool,
}

/// Execute one intrinsic call. `name` is only used in error messages.
pub(crate) fn exec_intrinsic(
    ctx: &mut IntrinsicCtx<'_>,
    name: &str,
    intr: Intrinsic,
    args: &[Value],
    span: Span,
) -> RuntimeResult<Value> {
    let bad = |msg: String| RuntimeError::Intrinsic { message: msg, span };
    match intr {
        Intrinsic::Math(f) => {
            let arity = f.op.arity();
            if args.len() != arity {
                return Err(bad(format!("`{name}` expects {arity} argument(s)")));
            }
            let a = args[0]
                .as_f64()
                .ok_or_else(|| bad(format!("`{name}` needs a numeric argument")))?;
            let b = if arity == 2 {
                args[1]
                    .as_f64()
                    .ok_or_else(|| bad(format!("`{name}` needs numeric arguments")))?
            } else {
                0.0
            };
            let cm = ctx.cost_model;
            let (cycles, flops) = match f.op.cost_class() {
                MathCost::Cheap => (cm.fp_op, 1),
                MathCost::Sqrt => (cm.sqrt, cm.sqrt_flops),
                MathCost::Transcendental => (cm.transcendental, cm.transcendental_flops),
            };
            charge(ctx.profile, ctx.max_cycles, cycles)?;
            ctx.profile.flops += flops;
            Ok(if f.single {
                Value::Float(f.op.eval_f32(a as f32, b as f32))
            } else {
                Value::Double(f.op.eval_f64(a, b))
            })
        }
        Intrinsic::Alloc(scalar) => {
            let n = args
                .first()
                .and_then(Value::as_i64)
                .ok_or_else(|| bad("alloc needs an integer length".into()))?;
            if n < 0 {
                return Err(bad(format!("negative allocation length {n}")));
            }
            *ctx.heap_count += 1;
            let label = format!("heap#{}", ctx.heap_count);
            let id = ctx.memory.alloc(scalar, n as usize, label);
            Ok(Value::Ptr(Pointer {
                buffer: id,
                offset: 0,
            }))
        }
        Intrinsic::FillRandom => {
            let [p, n, seed] = args else {
                return Err(bad("fill_random(ptr, n, seed)".into()));
            };
            let ptr = p
                .as_ptr()
                .ok_or_else(|| bad("fill_random needs a pointer".into()))?;
            let n = n
                .as_i64()
                .ok_or_else(|| bad("fill_random needs a length".into()))?;
            let seed = seed
                .as_i64()
                .ok_or_else(|| bad("fill_random needs a seed".into()))?;
            let mut rng = SplitMix64::new(seed as u64);
            let watch = ctx.watch;
            let elem_bytes = ctx.memory.elem_bytes(ptr.buffer);
            let store_cost = ctx.cost_model.store;
            for i in 0..n {
                let v = match ctx.memory.buffer(ptr.buffer).data.scalar() {
                    Scalar::Int => Value::Int((rng.next_u64() >> 33) as i64),
                    Scalar::Bool => Value::Bool(rng.next_u64() & 1 == 1),
                    Scalar::Float => Value::Float(rng.next_f64() as f32),
                    _ => Value::Double(rng.next_f64()),
                };
                ctx.memory
                    .store(ptr.buffer, ptr.offset + i, v, span, watch)?;
                charge(ctx.profile, ctx.max_cycles, store_cost)?;
                ctx.profile.stores += 1;
                ctx.profile.bytes_stored += elem_bytes;
            }
            Ok(Value::Unit)
        }
        Intrinsic::Sink => Ok(Value::Unit),
    }
}
