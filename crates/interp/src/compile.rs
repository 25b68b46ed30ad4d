//! One-pass compiler: MiniC++ AST → register-addressed code for the
//! [`crate::vm::Vm`].
//!
//! The lowering targets a **register machine**: every instruction names its
//! source and destination registers explicitly, so the interpreter loop
//! moves no operand-stack traffic at all. A function's register file is
//!
//! ```text
//! [ 0 .. locals )          frame slots, assigned by psa_minicpp::scopes
//! [ locals .. regs )       expression temporaries, stack-disciplined
//! ```
//!
//! Locals are already slot-resolved by [`psa_minicpp::scopes`], so register
//! allocation reduces to handing out temporaries above the slots: each
//! expression node frees its operands' temporaries and claims the lowest
//! free register for its result (reads always happen before the write, so
//! `dst` may alias an operand). A local variable read compiles to *nothing*
//! — the slot itself is the operand register.
//!
//! On top of the flat lowering the lowering buys, in order:
//!
//! * **pre-bound call targets** — every call site is resolved once to a
//!   user-function index or an [`Intrinsic`], following the tree-walker's
//!   lookup order (user functions shadow intrinsics);
//! * **baked cycle costs** — each instruction carries the virtual-cycle
//!   charge the cost model assigns it, computed here so the interpreter
//!   loop never consults (or clones) the [`CostModel`];
//! * **immediate operands** — a literal operand of a binary op is baked
//!   into the instruction ([`Insn::BinImm`]/[`Insn::BinImmRev`]) instead of
//!   being materialised through a register;
//! * **superinstructions** — a peephole pass ([`crate::peephole`]) fuses
//!   hot adjacent pairs (compare+branch, load+binop, binop+assign,
//!   step+jump) into single dispatches, reusing the combined cycle charges
//!   this module already bakes.
//!
//! Costs that the tree-walker charges as one combined `charge()` call (the
//! for-loop test's `int_op + branch`, an indexed load's `int_op + load`)
//! are baked combined too, so the two engines' virtual clocks agree at
//! every instruction boundary, including the exact cycle at which a budget
//! exhaustion triggers.
//!
//! Names that do not resolve — unbound identifiers, assignment to a
//! non-lvalue — compile to [`Insn::Raise`] carrying the exact
//! [`RuntimeError`] the tree-walker would produce at that point, placed so
//! that any side effects sequenced before the error still happen.

use crate::error::RuntimeError;
use crate::eval::RunConfig;
use crate::intrinsics::{self, Intrinsic};
use crate::loopwatch::LoopWatch;
use crate::ops;
use crate::peephole;
use crate::profile::CostModel;
use crate::value::{Pointer, Value};
use psa_minicpp::ast::*;
use psa_minicpp::scopes::{resolve_function, SlotMap};
use psa_minicpp::Span;
use std::collections::HashMap;

/// Resolved target of one call site.
#[derive(Debug, Clone)]
pub(crate) enum CallTarget {
    /// Index into [`Program::funcs`].
    User(u16),
    Intrinsic(Intrinsic),
    /// Neither a user function nor an intrinsic: unbound at runtime.
    Unknown,
}

/// One static call site: target plus the argument count and span of the
/// call expression (arity errors are reported by the callee at runtime).
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    pub name: Box<str>,
    pub target: CallTarget,
    pub argc: usize,
    pub span: Span,
}

/// An interned source span: index into [`Program::spans`].
///
/// Spans are only consumed on cold paths — error construction and
/// watch-mode provenance — but a [`Span`] is 16 bytes and the fused
/// superinstructions carry up to five of them, which bloated [`Insn`] to
/// 128 bytes and made the bytecode stream through L1 on every loop
/// iteration. Interning cuts each span field to 4 bytes; handlers resolve
/// through the side table with a single indexed load whose result is dead
/// on the happy path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanId(pub u32);

/// Sentinel "no span": marks an absent trailing coercion on the
/// type-specialised instructions (never resolved through the span table).
pub(crate) const NO_SPAN: SpanId = SpanId(u32::MAX);

/// Sentinel "not watched" for [`Insn::LoopEnter`].
pub(crate) const NO_WATCH: u32 = u32::MAX;

/// A watched loop's pointer variables, each with the frame slot it lives
/// in.
pub(crate) type PointerSlots = Vec<(String, u16)>;

/// Metadata of one [`Insn::DeferredFor`] loop, boxed to keep the `Insn`
/// enum at its 64-byte budget (the indirection is paid once per loop
/// *execution*, not per iteration).
#[derive(Debug, Clone)]
pub(crate) struct DeferredLoop {
    /// Induction-variable slot, bound register, and the test operator —
    /// lifted from the replaced [`Insn::ForTest`].
    pub slot: u16,
    pub bound: u16,
    pub cond_op: BinOp,
    /// Step register and direction, lifted from [`Insn::ForStepJump`].
    pub step: u16,
    pub negative: bool,
    pub test_cost: u64,
    pub step_cost: u64,
    /// Upper bound on the virtual cycles one full iteration can charge
    /// (test + worst case of every body instruction + step). While
    /// `clock + accumulator + iter_max ≤ max_cycles`, an iteration provably
    /// cannot exhaust the budget, so its charges may be deferred into the
    /// accumulator; otherwise the VM flushes and replays precisely.
    pub iter_max: u64,
    /// Specialised instructions in `body`, for the dispatch-class metrics.
    pub nspec: u32,
    /// The straight-line loop body (everything between `ForTest` and
    /// `ForStepJump`).
    pub body: Box<[Insn]>,
    pub test_span: SpanId,
    pub step_span: SpanId,
}

/// A compiled function parameter (binding still coerces at call time).
#[derive(Debug, Clone)]
pub(crate) struct CompiledParam {
    pub name: String,
    pub ty: Type,
    pub span: Span,
}

/// One compiled function body.
#[derive(Debug)]
pub(crate) struct CompiledFn {
    pub name: String,
    pub params: Vec<CompiledParam>,
    /// Total frame registers: named local slots (parameters first) in
    /// `0..locals`, then the expression-temporary high-water mark.
    pub regs: usize,
    /// Baked `config.watch_function == name`.
    pub watched: bool,
    pub code: Vec<Insn>,
}

/// A whole module, compiled.
#[derive(Debug)]
pub struct Program {
    pub(crate) funcs: Vec<CompiledFn>,
    /// First definition wins, like [`Module::function`].
    pub(crate) fn_by_name: HashMap<String, u16>,
    /// Global variable names, one entry per distinct name (redeclaration
    /// reuses the slot, mirroring the tree-walker's by-name map).
    pub(crate) global_names: Vec<Box<str>>,
    /// Initialiser chunk for module globals; runs once before `main`.
    pub(crate) globals_init: Vec<Insn>,
    /// Frame registers the initialiser chunk needs.
    pub(crate) globals_init_regs: usize,
    pub(crate) call_sites: Vec<CallSite>,
    /// Per watched loop (in [`crate::LoopWatch`] order), the pointer
    /// variables a window records at entry.
    pub(crate) loop_watch: Vec<PointerSlots>,
    /// Interned [`Span`] side table; [`SpanId`]s in instructions index it.
    pub(crate) spans: Vec<Span>,
}

/// Register-addressed instructions. Register operands (`dst`, `src`, `l`,
/// `r`, …) are `u16` indices into the current frame's register file; `cost`
/// fields are virtual cycles baked from the cost model at compile time.
///
/// The variants after [`Insn::Raise`] are **superinstructions**: they are
/// never emitted by the compiler directly, only by the peephole pass in
/// [`crate::peephole`], and each one performs exactly the observable steps
/// of the pair it replaces; the set is kept to the pairs the benchmark
/// programs execute (see [`crate::peephole`]).
#[derive(Debug, Clone)]
pub(crate) enum Insn {
    /// `dst = v`.
    Const { dst: u16, v: Value },
    /// `dst = src` (pointer declarations, ternary/short-circuit results).
    Copy { dst: u16, src: u16 },
    /// `dst = global[gidx]`; unbound error if not yet initialised.
    LoadGlobal { dst: u16, gidx: u16, span: SpanId },
    /// Copy a just-initialised local into its global slot (init chunk).
    CopyToGlobal { gidx: u16, src: u16 },
    /// Assign `src` to a local with C assignment conversion.
    AssignLocal { slot: u16, src: u16, span: SpanId },
    /// Assign `src` to a global with C assignment conversion; unbound
    /// error if the global is not yet initialised.
    AssignGlobal { gidx: u16, src: u16, span: SpanId },
    /// `dst = coerce(src, ty)` (declaration initialiser — no charge).
    Coerce {
        dst: u16,
        src: u16,
        ty: Type,
        span: SpanId,
    },
    /// Charge `cost`, then `dst = coerce(src, ty)` (cast expression).
    Cast {
        dst: u16,
        src: u16,
        ty: Type,
        cost: u64,
        span: SpanId,
    },
    /// Unary operator (charging inside `ops::apply_unary`).
    Un {
        op: UnOp,
        dst: u16,
        src: u16,
        span: SpanId,
    },
    /// `dst = l op r`.
    Bin {
        op: BinOp,
        dst: u16,
        l: u16,
        r: u16,
        span: SpanId,
    },
    /// `dst = l op imm` (literal right operand baked in).
    BinImm {
        op: BinOp,
        dst: u16,
        l: u16,
        imm: Value,
        span: SpanId,
    },
    /// `dst = imm op r` (literal left operand baked in).
    BinImmRev {
        op: BinOp,
        dst: u16,
        imm: Value,
        r: u16,
        span: SpanId,
    },
    /// Unconditional jump.
    Jump(u32),
    /// Charge, truthiness-check `src`, jump if false.
    JumpIfFalse {
        src: u16,
        target: u32,
        cost: u64,
        span: SpanId,
    },
    /// `&&`: charge + check `src`; on false `dst = false` and jump past
    /// the rhs.
    AndShort {
        src: u16,
        dst: u16,
        target: u32,
        cost: u64,
        span: SpanId,
    },
    /// `||`: charge + check `src`; on true `dst = true` and jump past the
    /// rhs.
    OrShort {
        src: u16,
        dst: u16,
        target: u32,
        cost: u64,
        span: SpanId,
    },
    /// Charge + check `src`, `dst = Bool(it)` (rhs of a short-circuit).
    ToBool {
        dst: u16,
        src: u16,
        cost: u64,
        span: SpanId,
    },
    /// Indexed load `dst = base[idx]`. `cost` combines address arithmetic
    /// and the load (`int_op + load`), exactly the tree-walker's one
    /// combined charge.
    Index {
        dst: u16,
        base: u16,
        idx: u16,
        cost: u64,
        base_span: SpanId,
        index_span: SpanId,
        span: SpanId,
    },
    /// `dst = &base[idx]` as a pointer. `cost` is the address arithmetic.
    IndexAddr {
        dst: u16,
        base: u16,
        idx: u16,
        cost: u64,
        base_span: SpanId,
        index_span: SpanId,
    },
    /// `dst = *addr` (compound assignment read; load first, charge after,
    /// like the tree-walker).
    LoadElem {
        dst: u16,
        addr: u16,
        cost: u64,
        span: SpanId,
    },
    /// `*addr = src`.
    StoreElem {
        addr: u16,
        src: u16,
        cost: u64,
        span: SpanId,
    },
    /// Allocate a named buffer of `regs[len]` elements; `dst` gets the
    /// pointer.
    AllocArray {
        dst: u16,
        len: u16,
        scalar: Scalar,
        name: Box<str>,
        span: SpanId,
    },
    /// Call through `call_sites[site]`; arguments occupy the contiguous
    /// registers `first_arg..first_arg + argc`, the result lands in `dst`.
    Call { dst: u16, site: u32, first_arg: u16 },
    /// A math intrinsic called with the correct arity: `a`/`b` are argument
    /// registers (`b` unused for unary ops), cycle cost and FLOP count
    /// baked at compile time. `name` feeds the tree-walker's error
    /// messages.
    MathCall {
        dst: u16,
        a: u16,
        b: u16,
        f: intrinsics::MathFn,
        cycles: u64,
        flops: u64,
        name: Box<str>,
        span: SpanId,
    },
    /// Return (`regs[src]` if `has_value`), recording stats for any loops
    /// still open in this frame.
    Ret { src: u16, has_value: bool },
    /// Open a loop-stats context for loop `id`; `watch` indexes
    /// [`Program::loop_watch`] when the loop is watched, else [`NO_WATCH`].
    LoopEnter { id: NodeId, watch: u32 },
    /// Close the innermost loop context and record its stats.
    LoopExit,
    /// Int-check `regs[src]`, bind the induction variable. `bound == false`
    /// raises the tree-walker's unbound error instead (after the check).
    ForInit {
        slot: u16,
        src: u16,
        bound: bool,
        name: Box<str>,
        span: SpanId,
    },
    /// Charge, compare the induction variable against `regs[bound]` and
    /// either count an iteration or jump to `exit`. Also latches the
    /// iteration's start value of the induction variable.
    ForTest {
        slot: u16,
        bound: u16,
        cond_op: BinOp,
        exit: u32,
        cost: u64,
        span: SpanId,
    },
    /// Advance the induction variable from its latched start-of-iteration
    /// value by `regs[step]`, charge.
    ForStep {
        slot: u16,
        step: u16,
        negative: bool,
        cost: u64,
        span: SpanId,
    },
    /// Charge, check `regs[src]`; count an iteration or jump out.
    WhileTest {
        src: u16,
        exit: u32,
        cost: u64,
        span: SpanId,
    },
    /// Raise a pre-built runtime error (unbound name, non-lvalue target).
    Raise(Box<RuntimeError>),

    // ------------------------------------------------------------------
    // Superinstructions (emitted only by the peephole pass).
    // ------------------------------------------------------------------
    /// Fused comparison + conditional branch (`Bin` cmp + `JumpIfFalse`).
    /// One combined charge of compare + branch cost — observably identical
    /// to the pair (see `crate::peephole` for the argument).
    CmpBranch {
        op: BinOp,
        l: u16,
        r: u16,
        target: u32,
        branch_cost: u64,
        cmp_span: SpanId,
        br_span: SpanId,
    },
    /// Fused binop + local assignment (`Bin` + `AssignLocal`): covers both
    /// `x = a op b` and the compound `x op= e` lowering.
    BinAssign {
        op: BinOp,
        slot: u16,
        l: u16,
        r: u16,
        span: SpanId,
        asg_span: SpanId,
    },
    /// Fused indexed load + binop (`Index` + `Bin` whose left operand is
    /// the loaded value): `dst = base[idx] op r`.
    IndexBin {
        op: BinOp,
        dst: u16,
        base: u16,
        idx: u16,
        r: u16,
        cost: u64,
        base_span: SpanId,
        index_span: SpanId,
        load_span: SpanId,
        span: SpanId,
    },
    /// Fused for-step + back-edge jump (`ForStep` + `Jump`).
    ForStepJump {
        slot: u16,
        step: u16,
        negative: bool,
        cost: u64,
        span: SpanId,
        target: u32,
    },
    /// Fused binop + declaration coercion (`Bin` + `Coerce` of the result):
    /// `dst = coerce(l op r, ty)`. `Coerce` never charges, so the fusion
    /// only removes a dispatch and a dead temporary write.
    BinCoerce {
        op: BinOp,
        dst: u16,
        l: u16,
        r: u16,
        ty: Type,
        span: SpanId,
        co_span: SpanId,
    },
    /// Fused immediate binop + declaration coercion.
    BinImmCoerce {
        op: BinOp,
        dst: u16,
        l: u16,
        imm: Value,
        ty: Type,
        span: SpanId,
        co_span: SpanId,
    },
    /// Fused indexed load + declaration coercion:
    /// `dst = coerce(base[idx], ty)`.
    IndexCoerce {
        dst: u16,
        base: u16,
        idx: u16,
        cost: u64,
        ty: Type,
        base_span: SpanId,
        index_span: SpanId,
        span: SpanId,
        co_span: SpanId,
    },
    /// Fused math intrinsic + declaration coercion.
    MathCallCoerce {
        dst: u16,
        a: u16,
        b: u16,
        f: intrinsics::MathFn,
        cycles: u64,
        flops: u64,
        name: Box<str>,
        ty: Type,
        span: SpanId,
        co_span: SpanId,
    },
    /// Fused [`Insn::IndexBin`] + declaration coercion (forms on the
    /// second peephole pass, once `Index` + `Bin` have already fused).
    IndexBinCoerce {
        op: BinOp,
        dst: u16,
        base: u16,
        idx: u16,
        r: u16,
        cost: u64,
        ty: Type,
        base_span: SpanId,
        index_span: SpanId,
        load_span: SpanId,
        span: SpanId,
        co_span: SpanId,
    },
    /// A maximal run of straight-line instructions executed as one
    /// dispatch. Formed by the peephole's final blocking pass from
    /// consecutive arithmetic / memory instructions none of which (except
    /// the first) is a jump target. Each step runs through the *same*
    /// `step_arith` implementation the dispatch loop uses, so a block is
    /// observably identical to its steps — it only removes the dispatch
    /// overhead between them.
    ArithBlock(Box<[Insn]>),
    /// Fused pair of immediate binops where the second consumes the
    /// first's single-use temporary: `dst = (l op1 imm1) op2 imm2`.
    /// Executes both `apply_binary` calls in order (identical charges and
    /// identical error behaviour); only the dead temporary write is
    /// elided. Covers the ubiquitous affine address form `i * N + k` and
    /// chained scalings like `c * v - 1.0`.
    BinImm2 {
        op1: BinOp,
        op2: BinOp,
        dst: u16,
        l: u16,
        imm1: Value,
        imm2: Value,
        span1: SpanId,
        span2: SpanId,
    },
    /// Fused immediate binop + unary math intrinsic consuming its
    /// single-use temporary: `dst = f(l op imm)` (`rev` flips the binop
    /// operands: `f(imm op l)`). Only formed when `imm` is floating and
    /// `op` is `+ - * /`, which makes the binop's result always numeric —
    /// so the intrinsic's non-numeric-argument error (the only consumer
    /// of the call's source name) is unreachable and the name need not be
    /// carried. `cycles`/`flops` are the intrinsic's baked charges
    /// (verified to fit `u32` at fusion time).
    MathCallImm {
        op: BinOp,
        rev: bool,
        dst: u16,
        l: u16,
        imm: Value,
        f: intrinsics::MathFn,
        cycles: u32,
        flops: u32,
        bin_span: SpanId,
    },

    // ------------------------------------------------------------------
    // Type-specialised variants (emitted only by `crate::typeinfer`).
    //
    // Each is the fast form of the generic instruction it replaces, valid
    // when static inference proved the operands are `f64`. Pointer-element
    // inference is optimistic (see `typeinfer`), so every handler re-checks
    // the runtime tags and replays the generic semantics verbatim on
    // mismatch — the rewrite can never change observable behaviour.
    // `co_span == NO_SPAN` means no trailing coercion was folded in; any
    // other value marks a folded declaration coercion to plain `double`
    // (identity on the fast path, replayed exactly on the fallback).
    // ------------------------------------------------------------------
    /// Specialised `Bin`/`BinCoerce`: `dst = l op r`, both proved `f64`,
    /// `op` ∈ `+ - * /`.
    F64Bin {
        op: BinOp,
        dst: u16,
        l: u16,
        r: u16,
        span: SpanId,
        co_span: SpanId,
    },
    /// Specialised `BinImm`/`BinImmRev`/`BinImmCoerce`: one `f64` register
    /// operand and a numeric immediate pre-converted to `imm_f64` (the
    /// identical `as_f64` promotion the generic path performs). `rev`
    /// flips the operand order (`imm op l`); the original `imm` is kept
    /// for the generic fallback.
    F64BinImm {
        op: BinOp,
        rev: bool,
        dst: u16,
        l: u16,
        imm: Value,
        imm_f64: f64,
        span: SpanId,
        co_span: SpanId,
    },
    /// Specialised `BinAssign`: `slot = slot-convert(l op r)` where `l`,
    /// `r` *and the slot's current value* are all proved `f64`, making the
    /// assignment conversion the identity.
    F64BinAssign {
        op: BinOp,
        slot: u16,
        l: u16,
        r: u16,
        span: SpanId,
        asg_span: SpanId,
    },
    /// Specialised `Index`/`IndexCoerce`: `dst = base[idx]` where `base`
    /// was inferred `double*`. The handler probes the buffer's actual
    /// element type before charging anything.
    F64Index {
        dst: u16,
        base: u16,
        idx: u16,
        cost: u64,
        base_span: SpanId,
        index_span: SpanId,
        span: SpanId,
        co_span: SpanId,
    },
    /// Specialised `StoreElem`: `*addr = src` where `src` was inferred
    /// `f64` (fast only when the buffer really is a `double` buffer).
    F64Store {
        addr: u16,
        src: u16,
        cost: u64,
        span: SpanId,
    },
    /// Specialised `MathCallImm` for a double-precision intrinsic whose
    /// register operand was inferred `f64`: one combined charge of binop +
    /// intrinsic cycles (exact — see the VM handler for the argument).
    F64MathCallImm {
        op: BinOp,
        rev: bool,
        dst: u16,
        l: u16,
        imm: Value,
        imm_f64: f64,
        f: intrinsics::MathFn,
        cycles: u32,
        flops: u32,
        bin_span: SpanId,
    },
    /// A counted `for` loop with a straight-line body, executed as one
    /// dispatch per *loop* with per-iteration charge deferral (emitted by
    /// `peephole::defer_loops`, replacing `ForTest .. body .. ForStepJump`).
    /// The normal exit falls through to the next instruction (the old
    /// `ForTest` exit target, always the loop's `LoopExit`).
    DeferredFor(Box<DeferredLoop>),
}

impl Insn {
    /// The pc this instruction can transfer control to: a branch's
    /// `target`, a loop test's `exit`, or a [`Insn::Jump`]'s operand.
    /// `None` for every instruction that only falls through or returns.
    /// The one place that knows which forms carry a jump target; every
    /// pass that marks or rewrites targets goes through it.
    pub(crate) fn target(&self) -> Option<u32> {
        match *self {
            Insn::Jump(t)
            | Insn::JumpIfFalse { target: t, .. }
            | Insn::AndShort { target: t, .. }
            | Insn::OrShort { target: t, .. }
            | Insn::CmpBranch { target: t, .. }
            | Insn::ForStepJump { target: t, .. }
            | Insn::ForTest { exit: t, .. }
            | Insn::WhileTest { exit: t, .. } => Some(t),
            _ => None,
        }
    }

    /// Mutable access to the field [`Insn::target`] reads.
    pub(crate) fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Insn::Jump(t)
            | Insn::JumpIfFalse { target: t, .. }
            | Insn::AndShort { target: t, .. }
            | Insn::OrShort { target: t, .. }
            | Insn::CmpBranch { target: t, .. }
            | Insn::ForStepJump { target: t, .. }
            | Insn::ForTest { exit: t, .. }
            | Insn::WhileTest { exit: t, .. } => Some(t),
            _ => None,
        }
    }
}

/// How much of the bytecode optimisation pipeline [`Program::compile_with`]
/// runs. Every level is observationally identical to every other (and to
/// the tree walker); the differential proptests hold all of them to that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OptLevel {
    /// Flat one-instruction-per-operation register lowering.
    Unfused,
    /// Superinstruction pair fusion + straight-line blocking (the PR 7
    /// pipeline), without type specialisation or loop-charge deferral.
    Unspecialized,
    /// Fusion, then type-inference-driven specialisation
    /// ([`crate::typeinfer`]), then loop-charge deferral, then blocking.
    Full,
}

impl Program {
    /// Compile a module through the full optimisation pipeline (fusion,
    /// type specialisation, loop-charge deferral, blocking). `config`
    /// supplies the cost model baked into instructions and the
    /// watched-function name baked into functions.
    pub fn compile(module: &Module, config: &RunConfig) -> Program {
        Program::compile_with(module, config, OptLevel::Full, None)
    }

    /// [`Program::compile`] with `watch`'s loops watched (see
    /// [`crate::loopwatch`]).
    pub fn compile_watching_loops(
        module: &Module,
        config: &RunConfig,
        watch: &LoopWatch,
    ) -> Program {
        Program::compile_with(module, config, OptLevel::Full, Some(watch))
    }

    /// Compile without any peephole pass: the plain one-instruction-per-
    /// operation register lowering. This is the reference bytecode the
    /// differential proptests run as the middle semantics between the tree
    /// walker and the optimised fast paths.
    pub fn compile_unfused(module: &Module, config: &RunConfig) -> Program {
        Program::compile_with(module, config, OptLevel::Unfused, None)
    }

    /// Compile with superinstruction fusion but *without* type
    /// specialisation or loop-charge deferral — the PR 7 pipeline, kept as
    /// an escape hatch and as the third leg of the four-way differential
    /// proptest.
    pub fn compile_unspecialized(module: &Module, config: &RunConfig) -> Program {
        Program::compile_with(module, config, OptLevel::Unspecialized, None)
    }

    fn compile_with(
        module: &Module,
        config: &RunConfig,
        level: OptLevel,
        watch: Option<&LoopWatch>,
    ) -> Program {
        let mut fn_by_name: HashMap<String, u16> = HashMap::new();
        let mut fn_items: Vec<&Function> = Vec::new();
        for item in &module.items {
            if let Item::Function(f) = item {
                if !fn_by_name.contains_key(&f.name) {
                    fn_by_name.insert(f.name.clone(), fn_items.len() as u16);
                    fn_items.push(f);
                }
            }
        }

        // Global slots: one per distinct name, first occurrence fixes the
        // index (redeclaration writes the same slot, like a by-name map).
        let mut global_idx: HashMap<String, u16> = HashMap::new();
        let mut global_names: Vec<Box<str>> = Vec::new();
        for item in &module.items {
            if let Item::Global(stmt) = item {
                if let StmtKind::Decl(d) = &stmt.kind {
                    global_idx.entry(d.name.clone()).or_insert_with(|| {
                        global_names.push(d.name.clone().into_boxed_str());
                        (global_names.len() - 1) as u16
                    });
                }
            }
        }

        let mut call_sites = Vec::new();
        let mut spans = SpanInterner::default();
        let mut loop_watch = vec![Vec::new(); watch.map_or(0, |w| w.loops.len())];

        // The globals-initialiser chunk mirrors `Interpreter::init_globals`:
        // one shared frame, each declaration compiled in order, its value
        // copied to the global slot immediately (so later initialisers can
        // observe earlier globals through their frame slots). Temporaries
        // live above the per-name slots, of which there are at most one per
        // distinct global name.
        let init_first_temp = global_names.len() as u16;
        let mut init = Compiler {
            cm: &config.cost_model,
            fn_by_name: &fn_by_name,
            global_idx: &global_idx,
            call_sites: &mut call_sites,
            spans: &mut spans,
            names: NameResolution::InitChunk {
                scope: HashMap::new(),
                next_slot: 0,
            },
            code: Vec::new(),
            loops: Vec::new(),
            watch: None,
            temp_top: init_first_temp,
            max_regs: init_first_temp,
        };
        for item in &module.items {
            if let Item::Global(stmt) = item {
                if let StmtKind::Decl(d) = &stmt.kind {
                    let slot = init.compile_decl(d);
                    let gidx = global_idx[&d.name];
                    init.code.push(Insn::CopyToGlobal { gidx, src: slot });
                }
            }
        }
        init.code.push(Insn::Ret {
            src: 0,
            has_value: false,
        });
        let mut globals_init = std::mem::take(&mut init.code);
        let globals_init_regs = init.max_regs as usize;
        match level {
            OptLevel::Unfused => {}
            OptLevel::Unspecialized => {
                globals_init = peephole::fuse(globals_init, init_first_temp);
            }
            OptLevel::Full => {
                globals_init = peephole::optimize(
                    globals_init,
                    init_first_temp,
                    &[],
                    globals_init_regs,
                    &call_sites,
                    &config.cost_model,
                );
            }
        }

        let mut funcs = Vec::with_capacity(fn_items.len());
        for f in &fn_items {
            let slots = resolve_function(f);
            let first_temp = slots.locals as u16;
            let mut c = Compiler {
                cm: &config.cost_model,
                fn_by_name: &fn_by_name,
                global_idx: &global_idx,
                call_sites: &mut call_sites,
                spans: &mut spans,
                names: NameResolution::Func(&slots),
                code: Vec::new(),
                loops: Vec::new(),
                watch: watch.map(|w| (w, &mut loop_watch)),
                temp_top: first_temp,
                max_regs: first_temp,
            };
            c.compile_block(&f.body);
            c.code.push(Insn::Ret {
                src: 0,
                has_value: false,
            });
            let mut code = std::mem::take(&mut c.code);
            let regs = c.max_regs as usize;
            match level {
                OptLevel::Unfused => {}
                OptLevel::Unspecialized => {
                    code = peephole::fuse(code, first_temp);
                }
                OptLevel::Full => {
                    let param_tys: Vec<Type> = f.params.iter().map(|p| p.ty).collect();
                    code = peephole::optimize(
                        code,
                        first_temp,
                        &param_tys,
                        regs,
                        &call_sites,
                        &config.cost_model,
                    );
                }
            }
            funcs.push(CompiledFn {
                name: f.name.clone(),
                params: f
                    .params
                    .iter()
                    .map(|p| CompiledParam {
                        name: p.name.clone(),
                        ty: p.ty,
                        span: p.span,
                    })
                    .collect(),
                regs,
                watched: config.watch_function.as_deref() == Some(f.name.as_str()),
                code,
            });
        }

        let spans = spans.spans;
        verify_code(
            &globals_init,
            globals_init_regs,
            &call_sites,
            global_names.len(),
        );
        for f in &funcs {
            verify_code(&f.code, f.regs, &call_sites, global_names.len());
        }

        Program {
            funcs,
            fn_by_name,
            global_names,
            globals_init,
            globals_init_regs,
            call_sites,
            loop_watch,
            spans,
        }
    }

    /// Static specialisation census over the whole program: counts of
    /// `(specialized, total, deferred_loops)` instructions, looking through
    /// `ArithBlock`s and deferred loop bodies (a `DeferredFor` counts as
    /// one specialised instruction itself, plus whatever its body holds;
    /// an `ArithBlock` contributes only its steps). Used for the
    /// `fig5 --engine=vm` specialisation-rate diagnostic.
    pub fn specialization_stats(&self) -> (u64, u64, u64) {
        fn walk(code: &[Insn], acc: &mut (u64, u64, u64)) {
            for insn in code {
                match insn {
                    Insn::ArithBlock(steps) => walk(steps, acc),
                    Insn::DeferredFor(d) => {
                        acc.0 += 1;
                        acc.1 += 1;
                        acc.2 += 1;
                        walk(&d.body, acc);
                    }
                    Insn::F64Bin { .. }
                    | Insn::F64BinImm { .. }
                    | Insn::F64BinAssign { .. }
                    | Insn::F64Index { .. }
                    | Insn::F64Store { .. }
                    | Insn::F64MathCallImm { .. } => {
                        acc.0 += 1;
                        acc.1 += 1;
                    }
                    _ => acc.1 += 1,
                }
            }
        }
        let mut acc = (0, 0, 0);
        walk(&self.globals_init, &mut acc);
        for f in &self.funcs {
            walk(&f.code, &mut acc);
        }
        acc
    }
}

/// Verify that every register (and global-slot) operand of every
/// instruction addresses a slot inside a frame of `nregs` registers. The
/// VM dispatch loop reads frame registers without per-access bounds checks
/// on the strength of this check, so it runs unconditionally — it is
/// linear in code size and a negligible fraction of compile time. Any
/// violation is a compiler bug and panics immediately.
fn verify_code(code: &[Insn], nregs: usize, call_sites: &[CallSite], global_count: usize) {
    let chk = |r: u16| {
        assert!(
            (r as usize) < nregs,
            "register operand {r} outside frame of {nregs}: compiler bug"
        )
    };
    let gchk = |g: u16| {
        assert!(
            (g as usize) < global_count,
            "global operand {g} outside {global_count} slots: compiler bug"
        )
    };
    for insn in code {
        match insn {
            Insn::Const { dst, .. } => chk(*dst),
            Insn::Copy { dst, src } => {
                chk(*dst);
                chk(*src);
            }
            Insn::LoadGlobal { dst, gidx, .. } => {
                chk(*dst);
                gchk(*gidx);
            }
            Insn::CopyToGlobal { gidx, src } => {
                gchk(*gidx);
                chk(*src);
            }
            Insn::AssignLocal { slot, src, .. } => {
                chk(*slot);
                chk(*src);
            }
            Insn::AssignGlobal { gidx, src, .. } => {
                gchk(*gidx);
                chk(*src);
            }
            Insn::Coerce { dst, src, .. }
            | Insn::Cast { dst, src, .. }
            | Insn::Un { dst, src, .. }
            | Insn::ToBool { dst, src, .. } => {
                chk(*dst);
                chk(*src);
            }
            Insn::Bin { dst, l, r, .. } => {
                chk(*dst);
                chk(*l);
                chk(*r);
            }
            Insn::BinImm { dst, l, .. } => {
                chk(*dst);
                chk(*l);
            }
            Insn::BinImmRev { dst, r, .. } => {
                chk(*dst);
                chk(*r);
            }
            Insn::Jump(_) | Insn::LoopEnter { .. } | Insn::LoopExit | Insn::Raise(_) => {}
            Insn::JumpIfFalse { src, .. } | Insn::WhileTest { src, .. } => chk(*src),
            Insn::AndShort { src, dst, .. } | Insn::OrShort { src, dst, .. } => {
                chk(*src);
                chk(*dst);
            }
            Insn::Index { dst, base, idx, .. } | Insn::IndexAddr { dst, base, idx, .. } => {
                chk(*dst);
                chk(*base);
                chk(*idx);
            }
            Insn::LoadElem { dst, addr, .. } => {
                chk(*dst);
                chk(*addr);
            }
            Insn::StoreElem { addr, src, .. } => {
                chk(*addr);
                chk(*src);
            }
            Insn::AllocArray { dst, len, .. } => {
                chk(*dst);
                chk(*len);
            }
            Insn::Call {
                dst,
                site,
                first_arg,
            } => {
                chk(*dst);
                let argc = call_sites[*site as usize].argc;
                if argc > 0 {
                    chk(*first_arg);
                    chk(*first_arg + argc as u16 - 1);
                }
            }
            Insn::MathCall { dst, a, b, f, .. } | Insn::MathCallCoerce { dst, a, b, f, .. } => {
                chk(*dst);
                chk(*a);
                if f.op.arity() == 2 {
                    chk(*b);
                }
            }
            Insn::Ret { src, has_value } => {
                if *has_value {
                    chk(*src);
                }
            }
            Insn::ForInit { slot, src, .. } => {
                chk(*slot);
                chk(*src);
            }
            Insn::ForTest { slot, bound, .. } => {
                chk(*slot);
                chk(*bound);
            }
            Insn::ForStep { slot, step, .. } | Insn::ForStepJump { slot, step, .. } => {
                chk(*slot);
                chk(*step);
            }
            Insn::CmpBranch { l, r, .. } => {
                chk(*l);
                chk(*r);
            }
            Insn::BinAssign { slot, l, r, .. } => {
                chk(*slot);
                chk(*l);
                chk(*r);
            }
            Insn::IndexBin {
                dst, base, idx, r, ..
            }
            | Insn::IndexBinCoerce {
                dst, base, idx, r, ..
            } => {
                chk(*dst);
                chk(*base);
                chk(*idx);
                chk(*r);
            }
            Insn::IndexCoerce { dst, base, idx, .. } => {
                chk(*dst);
                chk(*base);
                chk(*idx);
            }
            Insn::BinCoerce { dst, l, r, .. } => {
                chk(*dst);
                chk(*l);
                chk(*r);
            }
            Insn::BinImmCoerce { dst, l, .. } => {
                chk(*dst);
                chk(*l);
            }
            Insn::BinImm2 { dst, l, .. } | Insn::MathCallImm { dst, l, .. } => {
                chk(*dst);
                chk(*l);
            }
            Insn::ArithBlock(steps) => verify_code(steps, nregs, call_sites, global_count),
            Insn::F64Bin { dst, l, r, .. } => {
                chk(*dst);
                chk(*l);
                chk(*r);
            }
            Insn::F64BinImm { dst, l, .. } | Insn::F64MathCallImm { dst, l, .. } => {
                chk(*dst);
                chk(*l);
            }
            Insn::F64BinAssign { slot, l, r, .. } => {
                chk(*slot);
                chk(*l);
                chk(*r);
            }
            Insn::F64Index { dst, base, idx, .. } => {
                chk(*dst);
                chk(*base);
                chk(*idx);
            }
            Insn::F64Store { addr, src, .. } => {
                chk(*addr);
                chk(*src);
            }
            Insn::DeferredFor(d) => {
                chk(d.slot);
                chk(d.bound);
                chk(d.step);
                verify_code(&d.body, nregs, call_sites, global_count);
            }
        }
    }
}

/// How the compiler maps identifier uses to slots.
enum NameResolution<'a> {
    /// Inside a function: the precomputed per-`NodeId` slot map.
    Func(&'a SlotMap),
    /// Inside the globals-init chunk: a by-name scope built as declarations
    /// are compiled (later initialisers see earlier declarations).
    InitChunk {
        scope: HashMap<String, u16>,
        next_slot: u16,
    },
}

struct Compiler<'a> {
    cm: &'a CostModel,
    fn_by_name: &'a HashMap<String, u16>,
    global_idx: &'a HashMap<String, u16>,
    call_sites: &'a mut Vec<CallSite>,
    spans: &'a mut SpanInterner,
    names: NameResolution<'a>,
    code: Vec<Insn>,
    /// Innermost-last stack of open loops, holding jump indices to patch.
    loops: Vec<OpenLoop>,
    /// The loop watch, and the pointer slots resolved for each watched
    /// loop so far.
    watch: Option<(&'a LoopWatch, &'a mut Vec<PointerSlots>)>,
    /// Next free temporary register (slots live below the initial value).
    temp_top: u16,
    /// Register-file high-water mark.
    max_regs: u16,
}

/// Builds [`Program::spans`]: interns each distinct [`Span`] once.
#[derive(Default)]
struct SpanInterner {
    spans: Vec<Span>,
    by_span: HashMap<Span, SpanId>,
}

impl SpanInterner {
    fn intern(&mut self, s: Span) -> SpanId {
        *self.by_span.entry(s).or_insert_with(|| {
            let id = SpanId(u32::try_from(self.spans.len()).expect("span table overflow"));
            self.spans.push(s);
            id
        })
    }
}

#[derive(Default)]
struct OpenLoop {
    breaks: Vec<usize>,
    continues: Vec<usize>,
}

/// The id of the first identifier expression naming `name` in loop `l`
/// (header, then body).
fn first_use(l: &ForLoop, name: &str) -> Option<NodeId> {
    use psa_minicpp::visit::{walk_expr, Visit};
    struct Find<'n> {
        name: &'n str,
        found: Option<NodeId>,
    }
    impl Visit for Find<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if self.found.is_some() {
                return;
            }
            match &e.kind {
                ExprKind::Ident(n) if n == self.name => self.found = Some(e.id),
                _ => walk_expr(self, e),
            }
        }
    }
    let mut find = Find { name, found: None };
    find.visit_expr(&l.init);
    find.visit_expr(&l.bound);
    find.visit_expr(&l.step);
    find.visit_block(&l.body);
    find.found
}

/// A literal's runtime value, if the expression is a literal (used to bake
/// immediate operands; literal evaluation has no observable effects, so
/// folding it into the consuming instruction is exact).
fn lit_value(e: &Expr) -> Option<Value> {
    match &e.kind {
        ExprKind::IntLit(v) => Some(Value::Int(*v)),
        ExprKind::FloatLit { value, single } => Some(if *single {
            Value::Float(*value as f32)
        } else {
            Value::Double(*value)
        }),
        ExprKind::BoolLit(b) => Some(Value::Bool(*b)),
        _ => None,
    }
}

impl<'a> Compiler<'a> {
    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    /// Intern a span for an instruction operand.
    fn sp(&mut self, s: Span) -> SpanId {
        self.spans.intern(s)
    }

    /// Claim the next temporary register.
    fn temp(&mut self) -> u16 {
        let t = self.temp_top;
        assert!(t != u16::MAX, "function exceeds 65534 registers");
        self.temp_top += 1;
        self.max_regs = self.max_regs.max(self.temp_top);
        t
    }

    /// Slot an identifier use reads, if it is a local here.
    fn ident_slot(&self, e: &Expr, name: &str) -> Option<u16> {
        match &self.names {
            NameResolution::Func(slots) => slots.ident_slot(e.id),
            NameResolution::InitChunk { scope, .. } => scope.get(name).copied(),
        }
    }

    /// Slot a declaration writes (allocating one in the init chunk, where a
    /// redeclared name reuses its slot like a by-name map overwrite).
    fn decl_slot(&mut self, d: &VarDecl) -> u16 {
        match &mut self.names {
            NameResolution::Func(slots) => slots
                .decl_slot(d.id)
                .expect("declaration resolved by scope analysis"),
            NameResolution::InitChunk { scope, next_slot } => {
                *scope.entry(d.name.clone()).or_insert_with(|| {
                    let s = *next_slot;
                    *next_slot += 1;
                    s
                })
            }
        }
    }

    fn unbound(&mut self, name: &str, span: Span) {
        self.code.push(Insn::Raise(Box::new(RuntimeError::Unbound {
            name: name.to_string(),
            span,
        })));
    }

    // --------------------------------------------------------------
    // Statements
    // --------------------------------------------------------------

    fn compile_block(&mut self, b: &Block) {
        for stmt in &b.stmts {
            self.compile_stmt(stmt);
        }
    }

    fn compile_stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Decl(d) => {
                self.compile_decl(d);
            }
            StmtKind::Assign { target, op, value } => self.compile_assign(target, *op, value),
            StmtKind::Expr(e) => {
                let mark = self.temp_top;
                self.compile_expr(e);
                self.temp_top = mark;
            }
            StmtKind::If { cond, then, els } => {
                let mark = self.temp_top;
                let c = self.compile_expr(cond);
                self.temp_top = mark;
                let test = self.code.len();
                let insn = Insn::JumpIfFalse {
                    src: c,
                    target: 0,
                    cost: self.cm.branch,
                    span: self.sp(cond.span),
                };
                self.code.push(insn);
                self.compile_block(then);
                match els {
                    Some(els) => {
                        let skip_else = self.code.len();
                        self.code.push(Insn::Jump(0));
                        let else_pc = self.pc();
                        self.patch_jump(test, else_pc);
                        self.compile_block(els);
                        let end = self.pc();
                        self.patch_jump(skip_else, end);
                    }
                    None => {
                        let end = self.pc();
                        self.patch_jump(test, end);
                    }
                }
            }
            StmtKind::For(l) => self.compile_for(l),
            StmtKind::While { cond, body } => self.compile_while(stmt.id, cond, body),
            StmtKind::Return(e) => match e {
                Some(e) => {
                    let mark = self.temp_top;
                    let r = self.compile_expr(e);
                    self.temp_top = mark;
                    self.code.push(Insn::Ret {
                        src: r,
                        has_value: true,
                    });
                }
                None => self.code.push(Insn::Ret {
                    src: 0,
                    has_value: false,
                }),
            },
            StmtKind::Break => match self.loops.last_mut() {
                Some(l) => {
                    l.breaks.push(self.code.len());
                    self.code.push(Insn::Jump(0));
                }
                // `break` outside any loop: the tree-walker's `Flow::Break`
                // propagates out of the function body, returning unit.
                None => self.code.push(Insn::Ret {
                    src: 0,
                    has_value: false,
                }),
            },
            StmtKind::Continue => match self.loops.last_mut() {
                Some(l) => {
                    l.continues.push(self.code.len());
                    self.code.push(Insn::Jump(0));
                }
                None => self.code.push(Insn::Ret {
                    src: 0,
                    has_value: false,
                }),
            },
            StmtKind::Block(b) => self.compile_block(b),
        }
    }

    /// Compile a declaration; returns the slot it wrote.
    fn compile_decl(&mut self, d: &VarDecl) -> u16 {
        let mark = self.temp_top;
        if let Some(len_expr) = &d.array_len {
            let len = self.compile_expr(len_expr);
            let slot = self.decl_slot(d);
            self.temp_top = mark;
            let insn = Insn::AllocArray {
                dst: slot,
                len,
                scalar: d.ty.scalar,
                name: d.name.clone().into_boxed_str(),
                span: self.sp(d.span),
            };
            self.code.push(insn);
            return slot;
        }
        match &d.init {
            Some(init) => {
                // A literal initialiser coerces at compile time: literals
                // are always coercible scalars and coercion charges
                // nothing, so the fold is exact.
                if let Some(v) = lit_value(init) {
                    let folded = if d.ty.is_pointer() {
                        Ok(v)
                    } else {
                        ops::coerce(v, d.ty, d.span)
                    };
                    if let Ok(v) = folded {
                        let slot = self.decl_slot(d);
                        self.code.push(Insn::Const { dst: slot, v });
                        return slot;
                    }
                }
                let r = self.compile_expr(init);
                let slot = self.decl_slot(d);
                self.temp_top = mark;
                if d.ty.is_pointer() {
                    // Pointer declarations store without conversion.
                    self.code.push(Insn::Copy { dst: slot, src: r });
                } else {
                    let insn = Insn::Coerce {
                        dst: slot,
                        src: r,
                        ty: d.ty,
                        span: self.sp(d.span),
                    };
                    self.code.push(insn);
                }
                slot
            }
            None => {
                let v = match (d.ty.is_pointer(), d.ty.scalar) {
                    (true, _) => Value::Ptr(Pointer {
                        buffer: crate::BufferId(u32::MAX),
                        offset: 0,
                    }),
                    (_, Scalar::Int) => Value::Int(0),
                    (_, Scalar::Float) => Value::Float(0.0),
                    (_, Scalar::Double) => Value::Double(0.0),
                    (_, Scalar::Bool) => Value::Bool(false),
                    (_, Scalar::Void) => Value::Unit,
                };
                let slot = self.decl_slot(d);
                self.code.push(Insn::Const { dst: slot, v });
                slot
            }
        }
    }

    fn compile_assign(&mut self, target: &Expr, op: AssignOp, value: &Expr) {
        let mark = self.temp_top;
        match &target.kind {
            ExprKind::Ident(name) => {
                // The rhs is evaluated first in all cases.
                let r = self.compile_expr(value);
                let slot = self.ident_slot(target, name);
                let gidx = match slot {
                    Some(_) => None,
                    None => self.global_idx.get(name).copied(),
                };
                if slot.is_none() && gidx.is_none() {
                    // Never bound: the tree-walker reports unbound after
                    // evaluating the rhs (compound fails at the old-value
                    // read, simple at the final set — same error).
                    self.unbound(name, target.span);
                    self.temp_top = mark;
                    return;
                }
                match op.bin_op() {
                    None => match (slot, gidx) {
                        (Some(s), _) => {
                            let insn = Insn::AssignLocal {
                                slot: s,
                                src: r,
                                span: self.sp(target.span),
                            };
                            self.code.push(insn);
                        }
                        (None, Some(g)) => {
                            let insn = Insn::AssignGlobal {
                                gidx: g,
                                src: r,
                                span: self.sp(target.span),
                            };
                            self.code.push(insn);
                        }
                        _ => unreachable!(),
                    },
                    Some(bop) => match (slot, gidx) {
                        (Some(s), _) => {
                            let t = self.temp();
                            let insn = Insn::Bin {
                                op: bop,
                                dst: t,
                                l: s,
                                r,
                                span: self.sp(target.span),
                            };
                            self.code.push(insn);
                            let insn = Insn::AssignLocal {
                                slot: s,
                                src: t,
                                span: self.sp(target.span),
                            };
                            self.code.push(insn);
                        }
                        (None, Some(g)) => {
                            let old = self.temp();
                            let insn = Insn::LoadGlobal {
                                dst: old,
                                gidx: g,
                                span: self.sp(target.span),
                            };
                            self.code.push(insn);
                            let t = self.temp();
                            let insn = Insn::Bin {
                                op: bop,
                                dst: t,
                                l: old,
                                r,
                                span: self.sp(target.span),
                            };
                            self.code.push(insn);
                            let insn = Insn::AssignGlobal {
                                gidx: g,
                                src: t,
                                span: self.sp(target.span),
                            };
                            self.code.push(insn);
                        }
                        _ => unreachable!(),
                    },
                }
            }
            ExprKind::Index { base, index } => {
                let b = self.compile_expr(base);
                let i = self.compile_expr(index);
                self.temp_top = mark;
                let addr = self.temp();
                let insn = Insn::IndexAddr {
                    dst: addr,
                    base: b,
                    idx: i,
                    cost: self.cm.int_op,
                    base_span: self.sp(base.span),
                    index_span: self.sp(index.span),
                };
                self.code.push(insn);
                match op.bin_op() {
                    None => {
                        let r = self.compile_expr(value);
                        let insn = Insn::StoreElem {
                            addr,
                            src: r,
                            cost: self.cm.store,
                            span: self.sp(target.span),
                        };
                        self.code.push(insn);
                    }
                    Some(bop) => {
                        // The rhs evaluates before the old value loads,
                        // like the tree-walker.
                        let r = self.compile_expr(value);
                        let old = self.temp();
                        let insn = Insn::LoadElem {
                            dst: old,
                            addr,
                            cost: self.cm.load,
                            span: self.sp(target.span),
                        };
                        self.code.push(insn);
                        let t = self.temp();
                        let insn = Insn::Bin {
                            op: bop,
                            dst: t,
                            l: old,
                            r,
                            span: self.sp(target.span),
                        };
                        self.code.push(insn);
                        let insn = Insn::StoreElem {
                            addr,
                            src: t,
                            cost: self.cm.store,
                            span: self.sp(target.span),
                        };
                        self.code.push(insn);
                    }
                }
            }
            _ => {
                // Not an lvalue: the tree-walker errors without evaluating
                // either side.
                self.code.push(Insn::Raise(Box::new(RuntimeError::Type {
                    message: "assignment target is not an lvalue".into(),
                    span: target.span,
                })));
            }
        }
        self.temp_top = mark;
    }

    /// A loop-header operand (bound or step) that can be pinned to one
    /// register for the whole loop: a literal (materialised once — literal
    /// evaluation has no observable effects) or a local (the slot itself;
    /// reading it per iteration sees reassignments exactly like the
    /// tree-walker's per-iteration evaluation). Globals and compound
    /// expressions return `None` and are re-evaluated every iteration.
    fn pinned_loop_operand(&mut self, e: &Expr) -> Option<u16> {
        if let Some(v) = lit_value(e) {
            let t = self.temp();
            self.code.push(Insn::Const { dst: t, v });
            return Some(t);
        }
        if let ExprKind::Ident(name) = &e.kind {
            if let Some(slot) = self.ident_slot(e, name) {
                return Some(slot);
            }
        }
        None
    }

    /// The watch index of loop `l`, resolving the frame slot of each of
    /// its watched pointer variables at the loop's first use of the name.
    fn watch_loop(&mut self, l: &ForLoop) -> u32 {
        let Some(spec) = self.watch.as_ref().map(|(spec, _)| *spec) else {
            return NO_WATCH;
        };
        let Some(watch) = spec.index_of(l.id) else {
            return NO_WATCH;
        };
        let slots = spec.loops[watch as usize]
            .pointers
            .iter()
            .filter_map(|name| match &self.names {
                NameResolution::Func(slots) => {
                    Some((name.clone(), slots.ident_slot(first_use(l, name)?)?))
                }
                NameResolution::InitChunk { .. } => None,
            })
            .collect();
        if let Some((_, resolved)) = self.watch.as_mut() {
            resolved[watch as usize] = slots;
        }
        watch
    }

    fn compile_for(&mut self, l: &ForLoop) {
        let watch = self.watch_loop(l);
        self.code.push(Insn::LoopEnter { id: l.id, watch });
        let mark = self.temp_top;
        let init = self.compile_expr(&l.init);
        self.temp_top = mark;
        let (slot, bound) = match &self.names {
            NameResolution::Func(slots) => {
                let v = slots.for_var(l.id).expect("for loop resolved");
                (v.slot, v.bound)
            }
            NameResolution::InitChunk { scope, next_slot } => {
                // Globals are initialised by declarations only; a loop here
                // can only appear inside nested expressions, which MiniC++
                // does not allow — but resolve defensively by name.
                match scope.get(&l.var) {
                    Some(&s) => (s, true),
                    None => (*next_slot, false),
                }
            }
        };
        let insn = Insn::ForInit {
            slot,
            src: init,
            bound,
            name: l.var.clone().into_boxed_str(),
            span: self.sp(l.span),
        };
        self.code.push(insn);
        self.loops.push(OpenLoop::default());
        // Pin pure bound/step operands outside the loop; their registers
        // stay live for the whole loop (temp_top is not reset until exit).
        let pinned_bound = self.pinned_loop_operand(&l.bound);
        let pinned_step = self.pinned_loop_operand(&l.step);
        let loop_mark = self.temp_top;
        let top = self.pc();
        let bound_reg = match pinned_bound {
            Some(r) => r,
            None => {
                let r = self.compile_expr(&l.bound);
                self.temp_top = loop_mark;
                r
            }
        };
        let test = self.code.len();
        let insn = Insn::ForTest {
            slot,
            bound: bound_reg,
            cond_op: l.cond_op,
            exit: 0,
            cost: self.cm.int_op + self.cm.branch,
            span: self.sp(l.span),
        };
        self.code.push(insn);
        self.compile_block(&l.body);
        let step_pc = self.pc();
        let step_reg = match pinned_step {
            Some(r) => r,
            None => {
                let r = self.compile_expr(&l.step);
                self.temp_top = loop_mark;
                r
            }
        };
        let insn = Insn::ForStep {
            slot,
            step: step_reg,
            negative: l.step_negative,
            cost: self.cm.int_op,
            span: self.sp(l.span),
        };
        self.code.push(insn);
        self.code.push(Insn::Jump(top));
        let exit = self.pc();
        self.code.push(Insn::LoopExit);
        self.patch_jump(test, exit);
        let open = self.loops.pop().expect("loop open");
        for pc in open.breaks {
            self.patch_jump(pc, exit);
        }
        for pc in open.continues {
            self.patch_jump(pc, step_pc);
        }
        self.temp_top = mark;
    }

    fn compile_while(&mut self, id: NodeId, cond: &Expr, body: &Block) {
        self.code.push(Insn::LoopEnter {
            id,
            watch: NO_WATCH,
        });
        self.loops.push(OpenLoop::default());
        let mark = self.temp_top;
        let top = self.pc();
        let c = self.compile_expr(cond);
        self.temp_top = mark;
        let test = self.code.len();
        let insn = Insn::WhileTest {
            src: c,
            exit: 0,
            cost: self.cm.branch,
            span: self.sp(cond.span),
        };
        self.code.push(insn);
        self.compile_block(body);
        self.code.push(Insn::Jump(top));
        let exit = self.pc();
        self.code.push(Insn::LoopExit);
        self.patch_jump(test, exit);
        let open = self.loops.pop().expect("loop open");
        for pc in open.breaks {
            self.patch_jump(pc, exit);
        }
        for pc in open.continues {
            self.patch_jump(pc, top);
        }
    }

    fn patch_jump(&mut self, at: usize, to: u32) {
        *self.code[at]
            .target_mut()
            .expect("patching a non-jump instruction") = to;
    }

    // --------------------------------------------------------------
    // Expressions
    // --------------------------------------------------------------

    /// Compile an expression; returns the register holding its value. The
    /// result register is either a local slot (identifier reads compile to
    /// nothing), or the lowest temporary that was free on entry — operand
    /// temporaries are released before the result register is claimed, so
    /// nested expressions reuse a small register window. Aliasing between
    /// the result and an operand is safe: every instruction reads all of
    /// its sources before writing its destination.
    fn compile_expr(&mut self, e: &Expr) -> u16 {
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::FloatLit { .. } | ExprKind::BoolLit(_) => {
                let v = lit_value(e).expect("literal");
                let dst = self.temp();
                self.code.push(Insn::Const { dst, v });
                dst
            }
            ExprKind::Ident(name) => match self.ident_slot(e, name) {
                Some(slot) => slot,
                None => match self.global_idx.get(name) {
                    Some(&gidx) => {
                        let dst = self.temp();
                        let insn = Insn::LoadGlobal {
                            dst,
                            gidx,
                            span: self.sp(e.span),
                        };
                        self.code.push(insn);
                        dst
                    }
                    None => {
                        self.unbound(name, e.span);
                        // Unreachable at runtime; claim a register so the
                        // enclosing expression still has an operand index.
                        self.temp()
                    }
                },
            },
            ExprKind::Unary { op, expr } => {
                let mark = self.temp_top;
                let src = self.compile_expr(expr);
                self.temp_top = mark;
                let dst = self.temp();
                let insn = Insn::Un {
                    op: *op,
                    dst,
                    src,
                    span: self.sp(e.span),
                };
                self.code.push(insn);
                dst
            }
            ExprKind::Binary { op, lhs, rhs } => match op {
                BinOp::And => self.compile_short_circuit(true, lhs, rhs),
                BinOp::Or => self.compile_short_circuit(false, lhs, rhs),
                _ => {
                    let mark = self.temp_top;
                    // Bake a literal operand into the instruction. A
                    // literal evaluates without observable effects, so for
                    // a literal lhs, skipping straight to the rhs preserves
                    // evaluation order exactly.
                    if let Some(imm) = lit_value(rhs) {
                        let l = self.compile_expr(lhs);
                        self.temp_top = mark;
                        let dst = self.temp();
                        let insn = Insn::BinImm {
                            op: *op,
                            dst,
                            l,
                            imm,
                            span: self.sp(e.span),
                        };
                        self.code.push(insn);
                        return dst;
                    }
                    if let Some(imm) = lit_value(lhs) {
                        let r = self.compile_expr(rhs);
                        self.temp_top = mark;
                        let dst = self.temp();
                        let insn = Insn::BinImmRev {
                            op: *op,
                            dst,
                            imm,
                            r,
                            span: self.sp(e.span),
                        };
                        self.code.push(insn);
                        return dst;
                    }
                    let l = self.compile_expr(lhs);
                    let r = self.compile_expr(rhs);
                    self.temp_top = mark;
                    let dst = self.temp();
                    let insn = Insn::Bin {
                        op: *op,
                        dst,
                        l,
                        r,
                        span: self.sp(e.span),
                    };
                    self.code.push(insn);
                    dst
                }
            },
            ExprKind::Call { callee, args } => self.compile_call(e, callee, args),
            ExprKind::Index { base, index } => {
                let mark = self.temp_top;
                let b = self.compile_expr(base);
                let i = self.compile_expr(index);
                self.temp_top = mark;
                let dst = self.temp();
                let insn = Insn::Index {
                    dst,
                    base: b,
                    idx: i,
                    cost: self.cm.int_op + self.cm.load,
                    base_span: self.sp(base.span),
                    index_span: self.sp(index.span),
                    span: self.sp(e.span),
                };
                self.code.push(insn);
                dst
            }
            ExprKind::Cast { ty, expr } => {
                let mark = self.temp_top;
                let src = self.compile_expr(expr);
                self.temp_top = mark;
                let dst = self.temp();
                let insn = Insn::Cast {
                    dst,
                    src,
                    ty: *ty,
                    cost: self.cm.fp_op,
                    span: self.sp(e.span),
                };
                self.code.push(insn);
                dst
            }
            ExprKind::Ternary { cond, then, els } => {
                let mark = self.temp_top;
                let c = self.compile_expr(cond);
                self.temp_top = mark;
                let dst = self.temp();
                let test = self.code.len();
                let insn = Insn::JumpIfFalse {
                    src: c,
                    target: 0,
                    cost: self.cm.branch,
                    span: self.sp(cond.span),
                };
                self.code.push(insn);
                let tr = self.compile_expr(then);
                if tr != dst {
                    self.code.push(Insn::Copy { dst, src: tr });
                }
                self.temp_top = dst + 1;
                let skip_else = self.code.len();
                self.code.push(Insn::Jump(0));
                let else_pc = self.pc();
                self.patch_jump(test, else_pc);
                let er = self.compile_expr(els);
                if er != dst {
                    self.code.push(Insn::Copy { dst, src: er });
                }
                self.temp_top = dst + 1;
                let end = self.pc();
                self.patch_jump(skip_else, end);
                dst
            }
        }
    }

    /// `&&` / `||` lower to short-circuiting control flow with a dedicated
    /// result register both paths write.
    fn compile_short_circuit(&mut self, is_and: bool, lhs: &Expr, rhs: &Expr) -> u16 {
        let mark = self.temp_top;
        let l = self.compile_expr(lhs);
        self.temp_top = mark;
        let dst = self.temp();
        let short = self.code.len();
        if is_and {
            let insn = Insn::AndShort {
                src: l,
                dst,
                target: 0,
                cost: self.cm.branch,
                span: self.sp(lhs.span),
            };
            self.code.push(insn);
        } else {
            let insn = Insn::OrShort {
                src: l,
                dst,
                target: 0,
                cost: self.cm.branch,
                span: self.sp(lhs.span),
            };
            self.code.push(insn);
        }
        let r = self.compile_expr(rhs);
        let insn = Insn::ToBool {
            dst,
            src: r,
            cost: self.cm.branch,
            span: self.sp(rhs.span),
        };
        self.code.push(insn);
        self.temp_top = dst + 1;
        let end = self.pc();
        self.patch_jump(short, end);
        dst
    }

    fn compile_call(&mut self, e: &Expr, callee: &str, args: &[Expr]) -> u16 {
        // Tree-walker lookup order: user functions shadow intrinsics;
        // unknown names are unbound at call time.
        let target = match self.fn_by_name.get(callee) {
            Some(&idx) => CallTarget::User(idx),
            None => match intrinsics::lookup(callee) {
                Some(i) => CallTarget::Intrinsic(i),
                None => CallTarget::Unknown,
            },
        };
        // Arity-correct math calls get a dedicated instruction with the
        // cost-class lookup resolved now; the arguments can live in any
        // registers (including local slots directly). Wrong-arity calls
        // fall through to the generic path for its exact error.
        if let CallTarget::Intrinsic(Intrinsic::Math(f)) = target {
            if args.len() == f.op.arity() {
                let mark = self.temp_top;
                let a = self.compile_expr(&args[0]);
                let b = if f.op.arity() == 2 {
                    self.compile_expr(&args[1])
                } else {
                    a
                };
                self.temp_top = mark;
                let dst = self.temp();
                let (cycles, flops) = match f.op.cost_class() {
                    intrinsics::MathCost::Cheap => (self.cm.fp_op, 1),
                    intrinsics::MathCost::Sqrt => (self.cm.sqrt, self.cm.sqrt_flops),
                    intrinsics::MathCost::Transcendental => {
                        (self.cm.transcendental, self.cm.transcendental_flops)
                    }
                };
                let insn = Insn::MathCall {
                    dst,
                    a,
                    b,
                    f,
                    cycles,
                    flops,
                    name: callee.to_string().into_boxed_str(),
                    span: self.sp(e.span),
                };
                self.code.push(insn);
                return dst;
            }
        }
        // Generic calls need their arguments in contiguous registers: each
        // argument is compiled straight into its position (expressions land
        // there naturally; bare locals are copied in).
        let mark = self.temp_top;
        let first_arg = mark;
        for (i, a) in args.iter().enumerate() {
            let want = first_arg + i as u16;
            self.temp_top = want;
            let r = self.compile_expr(a);
            if r != want {
                self.temp_top = want;
                let w = self.temp();
                debug_assert_eq!(w, want);
                self.code.push(Insn::Copy { dst: want, src: r });
            } else {
                self.temp_top = want + 1;
                self.max_regs = self.max_regs.max(self.temp_top);
            }
        }
        self.temp_top = mark;
        let dst = self.temp();
        let site = self.call_sites.len() as u32;
        self.call_sites.push(CallSite {
            name: callee.to_string().into_boxed_str(),
            target,
            argc: args.len(),
            span: e.span,
        });
        self.code.push(Insn::Call {
            dst,
            site,
            first_arg,
        });
        dst
    }
}
