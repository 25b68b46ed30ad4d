//! The register VM: the fast execution engine.
//!
//! Executes a [`Program`] produced by [`crate::compile`]. The inner loop is
//! a `match` over register-addressed instructions — every operand names a
//! frame register, so the hot path moves no operand-stack traffic at all;
//! call targets are pre-bound and cycle costs are baked into the
//! instructions. Hot adjacent pairs are fused into superinstructions by
//! [`crate::peephole`]. Every observable (results, virtual clock, counters,
//! per-loop stats, memory provenance, kernel tracing, errors) is
//! bit-identical to the tree-walking [`crate::Interpreter`]. The
//! differential tests in `tests/engine_differential.rs` and the workspace
//! proptests enforce that.
//!
//! Frames share one `regs` vector (`base`-offset per call): registers
//! `[0, locals)` are the function's named slots, the rest its expression
//! temporaries. Loop bookkeeping lives on an explicit context stack so
//! `return` can record per-loop stats for every loop it unwinds, innermost
//! first, exactly as nested `exec_for` returns do in the tree-walker.

use crate::compile::{CallTarget, Insn, Program, SpanId, NO_SPAN, NO_WATCH};
use crate::error::{RuntimeError, RuntimeResult};
use crate::eval::RunConfig;
use crate::intrinsics::{self, Intrinsic};
use crate::loopwatch::{LoopWatch, LoopWatcher};
use crate::memory::Memory;
use crate::ops::{self, BinCosts, IntrinsicCtx};
use crate::profile::Profile;
use crate::value::{Pointer, Value};
use crate::vmprof::{FrameKey, VmProfile, VmProfiler};
use psa_minicpp::ast::{BinOp, Module, NodeId, Scalar, Type};
use psa_minicpp::Span;
use std::sync::Arc;

/// The declared type the specialiser folds trailing coercions against
/// (`ops::coerce` only reads pointer-ness and the scalar, so this stands
/// in exactly for whatever plain-`double` declaration was folded).
const DOUBLE: Type = Type::scalar(Scalar::Double);

/// Per-loop bookkeeping while the loop is running.
struct LoopCtx {
    id: NodeId,
    start_cycles: u64,
    iters: u64,
    /// The induction variable's value at the top of the current iteration;
    /// the step advances from here even if the body reassigned the
    /// variable (tree-walker semantics).
    cur_i: i64,
    /// The loop's watch index, or [`NO_WATCH`].
    watch: u32,
}

/// Code-chunk id inside a [`Program`]: a function index, or the module's
/// globals-initialisation chunk.
const GLOBALS_CHUNK: u32 = u32::MAX;

fn code_of(program: &Program, id: u32) -> &[Insn] {
    if id == GLOBALS_CHUNK {
        &program.globals_init
    } else {
        &program.funcs[id as usize].code
    }
}

/// A suspended caller activation on the VM's explicit call stack. User
/// calls do not recurse into the host stack — MiniC++ `max_call_depth`
/// would otherwise be bounded by Rust's thread stack — so each `Call`
/// pushes one of these and the dispatch loop continues in the callee.
struct Frame {
    /// Caller chunk / resume point.
    ret_code: u32,
    ret_pc: usize,
    ret_base: usize,
    ret_loop_base: usize,
    /// Absolute register receiving the callee's return value.
    ret_dst: usize,
    /// The *callee* activation this frame suspended into, for its epilogue
    /// (frame truncation, watch/profiler unwind) on return or error.
    callee_base: usize,
    watched: bool,
    prof_depth: Option<usize>,
}

/// Why a dispatch chunk stopped: the activation returned, or it needs a
/// user call performed by the trampoline in [`Vm::exec`].
enum StepOut {
    Return(Value),
    Call {
        fidx: u16,
        /// Absolute index of the first argument register.
        args_at: usize,
        argc: usize,
        span: Span,
        /// Absolute destination register for the result.
        dst: usize,
        resume_pc: usize,
    },
}

/// Integer comparison for the fused compare+branch fast path.
#[inline(always)]
fn cmp_int(op: BinOp, a: i64, b: i64) -> bool {
    match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        _ => unreachable!("fused comparison"),
    }
}

/// Float comparison for the fused compare+branch fast path.
#[inline(always)]
fn cmp_f64(op: BinOp, a: f64, b: f64) -> bool {
    match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        _ => unreachable!("fused comparison"),
    }
}

/// The VM. Same construction and observation API as [`crate::Interpreter`].
pub struct Vm {
    program: Arc<Program>,
    /// The memory arena, public so harnesses can set up and inspect data.
    pub memory: Memory,
    profile: Profile,
    config: RunConfig,
    bin_costs: BinCosts,
    globals: Vec<Option<Value>>,
    /// All frames' register files, `base`-offset per call.
    regs: Vec<Value>,
    loop_ctxs: Vec<LoopCtx>,
    /// Open watch windows: watched-function activations, or an open
    /// loop-watch window. Memory accesses record kernel access ranges
    /// while it is non-zero.
    watch_depth: usize,
    call_depth: usize,
    kernel_snapshot: Option<(u64, u64, u64, u64)>,
    loop_watcher: Option<LoopWatcher>,
    heap_count: u32,
    /// Instructions dispatched and user calls made, for the metrics
    /// registry. Deliberately NOT part of [`Profile`]: profiles are
    /// compared bit-for-bit between engines and the tree-walker has no
    /// dispatch counter.
    dispatches: u64,
    /// Dispatches that took a type-specialised route: the `F64*`
    /// instruction forms, plus per-iteration credit for [`Insn::DeferredFor`]
    /// loops. Always `<= dispatches`; `ArithBlock` interiors count in
    /// neither.
    spec_dispatches: u64,
    calls: u64,
    /// Frame profiler; `None` (the default) costs nothing on the hot path.
    profiler: Option<Box<VmProfiler>>,
}

impl Vm {
    /// Compile `module` and set up a VM to run it under `config`.
    pub fn new(module: &Module, config: RunConfig) -> Self {
        let program = Arc::new(Program::compile(module, &config));
        Vm::with_program(program, config)
    }

    /// Reuse an already-compiled program (it must have been compiled with a
    /// config agreeing on `cost_model` and `watch_function`).
    pub fn with_program(program: Arc<Program>, config: RunConfig) -> Self {
        let bin_costs = BinCosts::of(&config.cost_model);
        let globals = vec![None; program.global_names.len()];
        Vm {
            program,
            memory: Memory::new(),
            profile: Profile::default(),
            config,
            bin_costs,
            globals,
            regs: Vec::new(),
            loop_ctxs: Vec::new(),
            watch_depth: 0,
            call_depth: 0,
            kernel_snapshot: None,
            loop_watcher: None,
            heap_count: 0,
            dispatches: 0,
            spec_dispatches: 0,
            calls: 0,
            profiler: None,
        }
    }

    /// Compile `module` with `watch`'s loops watched (see
    /// [`crate::loopwatch`]) and set up a VM to run it under `config`. A
    /// loop watch and a function watch share the kernel access tracking,
    /// so `config.watch_function` must be `None`.
    pub fn watching_loops(module: &Module, config: RunConfig, watch: &LoopWatch) -> Self {
        assert!(
            config.watch_function.is_none(),
            "a loop watch excludes a function watch"
        );
        let program = Arc::new(Program::compile_watching_loops(module, &config, watch));
        let mut vm = Vm::with_program(program, config);
        vm.loop_watcher = Some(LoopWatcher::new(watch, &mut vm.profile));
        vm
    }

    /// Attach a fresh frame profiler; subsequent runs attribute virtual
    /// cycles and wall time to `(function, loop)` frames.
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(Box::new(VmProfiler::new()));
    }

    /// Detach the profiler and aggregate its report. `root` names the
    /// outermost frame (conventionally the module name).
    pub fn take_vm_profile(&mut self, root: &str) -> Option<VmProfile> {
        self.profiler.take().map(|p| p.finish(&self.program, root))
    }

    /// Instructions dispatched by this VM so far.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Dispatches that took a type-specialised route so far (see the
    /// field doc for what counts).
    pub fn specialized_dispatches(&self) -> u64 {
        self.spec_dispatches
    }

    /// User-function calls made by this VM so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// The accumulated profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Consume the VM, returning profile and memory.
    pub fn into_parts(self) -> (Profile, Memory) {
        (self.profile, self.memory)
    }

    /// Execute module globals then `main()`.
    pub fn run_main(&mut self) -> RuntimeResult<Value> {
        let (d0, s0, c0) = (self.dispatches, self.spec_dispatches, self.calls);
        if let Some(p) = self.profiler.as_mut() {
            p.enter(FrameKey::Root, self.profile.total_cycles);
        }
        let result = self
            .init_globals()
            .and_then(|()| self.call_by_name("main", Vec::new(), Span::SYNTHETIC));
        if let Some(p) = self.profiler.as_mut() {
            // Unwinds every frame an error path abandoned, too.
            p.exit_to(0, self.profile.total_cycles);
        }
        psa_obs::counter_add("psa_vm_runs_total", &[], 1);
        psa_obs::counter_add("psa_vm_dispatches_total", &[], self.dispatches - d0);
        psa_obs::counter_add("psa_vm_calls_total", &[], self.calls - c0);
        let spec = self.spec_dispatches - s0;
        psa_obs::counter_add(
            "psa_vm_dispatch_class_total",
            &[("class", "specialized")],
            spec,
        );
        psa_obs::counter_add(
            "psa_vm_dispatch_class_total",
            &[("class", "generic")],
            (self.dispatches - d0) - spec,
        );
        // Flight-recorder census snapshot: this run's dispatch deltas,
        // attributed to the ambient causal span (the DAG node running us).
        psa_obs::recorder::record_vm_census(self.dispatches - d0, spec, self.calls - c0);
        result
    }

    /// Initialise module-level globals (idempotent).
    pub fn init_globals(&mut self) -> RuntimeResult<()> {
        if self.globals.iter().any(|g| g.is_some()) {
            return Ok(());
        }
        let program = Arc::clone(&self.program);
        let base = self.regs.len();
        self.regs
            .resize(base + program.globals_init_regs, Value::Unit);
        let loop_base = self.loop_ctxs.len();
        let result = self.exec(&program, GLOBALS_CHUNK, base, loop_base);
        self.regs.truncate(base);
        result.map(|_| ())
    }

    /// Call a function by name with pre-built argument values.
    pub fn call_by_name(
        &mut self,
        name: &str,
        args: Vec<Value>,
        span: Span,
    ) -> RuntimeResult<Value> {
        let program = Arc::clone(&self.program);
        if let Some(&fidx) = program.fn_by_name.get(name) {
            let argc = args.len();
            let at = self.regs.len();
            self.regs.extend(args);
            let result = self.call_user(&program, fidx, at, argc, span);
            self.regs.truncate(at);
            return result;
        }
        match intrinsics::lookup(name) {
            Some(intr) => self.call_intrinsic(name, intr, &args, span),
            None => Err(RuntimeError::Unbound {
                name: name.to_string(),
                span,
            }),
        }
    }

    fn charge(&mut self, cycles: u64) -> RuntimeResult<()> {
        ops::charge(&mut self.profile, self.config.max_cycles, cycles)
    }

    /// Call a user function whose `argc` arguments sit in registers
    /// `args_at..args_at + argc` (absolute indices — the caller's frame, or
    /// a scratch region appended by [`Vm::call_by_name`]). They are read in
    /// place: no per-call argument `Vec`, the dominant allocation in
    /// call-heavy programs.
    fn call_user(
        &mut self,
        program: &Program,
        fidx: u16,
        args_at: usize,
        argc: usize,
        span: Span,
    ) -> RuntimeResult<Value> {
        let (base, watched, prof_depth) = self.call_prologue(program, fidx, args_at, argc, span)?;
        let loop_base = self.loop_ctxs.len();
        let result = self.exec(program, u32::from(fidx), base, loop_base);
        self.call_epilogue(base, watched, prof_depth);
        result
    }

    /// Everything a user call does before its body runs: depth and arity
    /// checks, the call charge, profiler/watch entry, frame allocation and
    /// parameter coercion. Returns the callee's frame base plus the state
    /// [`Vm::call_epilogue`] needs. A coercion error propagates *without*
    /// the epilogue, like the tree-walker's `?` inside its `call_user`.
    fn call_prologue(
        &mut self,
        program: &Program,
        fidx: u16,
        args_at: usize,
        argc: usize,
        span: Span,
    ) -> RuntimeResult<(usize, bool, Option<usize>)> {
        let func = &program.funcs[fidx as usize];
        if self.call_depth >= self.config.max_call_depth {
            return Err(RuntimeError::StackOverflow {
                depth: self.config.max_call_depth,
            });
        }
        if argc != func.params.len() {
            return Err(RuntimeError::Type {
                message: format!(
                    "`{}` expects {} arguments, got {}",
                    func.name,
                    func.params.len(),
                    argc
                ),
                span,
            });
        }
        self.charge(self.config.cost_model.call)?;
        self.calls += 1;
        let prof_depth = self.profiler.as_ref().map(|p| p.depth());
        if let Some(p) = self.profiler.as_mut() {
            p.enter(FrameKey::Func(fidx), self.profile.total_cycles);
        }

        let watched = func.watched;
        if watched {
            if self.watch_depth == 0 {
                self.kernel_snapshot = Some((
                    self.profile.total_cycles,
                    self.profile.flops,
                    self.profile.bytes_loaded,
                    self.profile.bytes_stored,
                ));
            }
            self.watch_depth += 1;
            self.profile.kernel_calls += 1;
        }
        self.call_depth += 1;

        let base = self.regs.len();
        self.regs.resize(base + func.regs, Value::Unit);
        let mut ptr_args: Vec<(String, Pointer)> = Vec::new();
        for (i, param) in func.params.iter().enumerate() {
            let coerced = ops::coerce(self.regs[args_at + i], param.ty, param.span)?;
            if watched && self.watch_depth == 1 {
                if let Value::Ptr(p) = coerced {
                    ptr_args.push((param.name.clone(), p));
                }
            }
            self.regs[base + i] = coerced;
        }
        if watched && self.watch_depth == 1 {
            self.profile.kernel_arg_ptrs.push(ptr_args);
        }
        Ok((base, watched, prof_depth))
    }

    /// Everything a user call does after its body stops, whether it
    /// returned or errored: frame truncation, watch-window aggregation and
    /// profiler unwind.
    fn call_epilogue(&mut self, base: usize, watched: bool, prof_depth: Option<usize>) {
        self.regs.truncate(base);
        self.call_depth -= 1;
        if watched {
            self.watch_depth -= 1;
            if self.watch_depth == 0 {
                let (c0, f0, l0, s0) = self.kernel_snapshot.take().expect("snapshot set on entry");
                self.profile.kernel_cycles += self.profile.total_cycles - c0;
                self.profile.kernel_flops += self.profile.flops - f0;
                self.profile.kernel_bytes_loaded += self.profile.bytes_loaded - l0;
                self.profile.kernel_bytes_stored += self.profile.bytes_stored - s0;
            }
        }
        if let Some(depth) = prof_depth {
            if let Some(p) = self.profiler.as_mut() {
                // `exit_to` (not a single `exit`): an error mid-frame leaves
                // loop frames open; unwind them with the call frame.
                p.exit_to(depth, self.profile.total_cycles);
            }
        }
    }

    /// The call trampoline: runs chunk `entry` to completion, performing
    /// user calls on an explicit [`Frame`] stack so MiniC++ call depth
    /// never consumes host stack. Errors unwind every suspended
    /// activation's epilogue, innermost first — exactly what nested host
    /// recursion through [`Vm::call_user`] would have done.
    fn exec(
        &mut self,
        program: &Program,
        entry: u32,
        base: usize,
        loop_base: usize,
    ) -> RuntimeResult<Value> {
        let mut frames: Vec<Frame> = Vec::new();
        let mut cur_code = entry;
        let mut cur_base = base;
        let mut cur_loop_base = loop_base;
        let mut cur_pc = 0usize;
        loop {
            let code = code_of(program, cur_code);
            let step = self.run_chunk(program, code, cur_base, cur_loop_base, cur_pc);
            match step {
                Ok(StepOut::Return(v)) => match frames.pop() {
                    None => return Ok(v),
                    Some(fr) => {
                        self.call_epilogue(fr.callee_base, fr.watched, fr.prof_depth);
                        self.regs[fr.ret_dst] = v;
                        cur_code = fr.ret_code;
                        cur_base = fr.ret_base;
                        cur_loop_base = fr.ret_loop_base;
                        cur_pc = fr.ret_pc;
                    }
                },
                Ok(StepOut::Call {
                    fidx,
                    args_at,
                    argc,
                    span,
                    dst,
                    resume_pc,
                }) => match self.call_prologue(program, fidx, args_at, argc, span) {
                    Ok((callee_base, watched, prof_depth)) => {
                        frames.push(Frame {
                            ret_code: cur_code,
                            ret_pc: resume_pc,
                            ret_base: cur_base,
                            ret_loop_base: cur_loop_base,
                            ret_dst: dst,
                            callee_base,
                            watched,
                            prof_depth,
                        });
                        cur_code = u32::from(fidx);
                        cur_base = callee_base;
                        cur_loop_base = self.loop_ctxs.len();
                        cur_pc = 0;
                    }
                    Err(e) => {
                        // The failed callee never entered, so it gets no
                        // epilogue; every suspended caller does.
                        while let Some(fr) = frames.pop() {
                            self.call_epilogue(fr.callee_base, fr.watched, fr.prof_depth);
                        }
                        return Err(e);
                    }
                },
                Err(e) => {
                    while let Some(fr) = frames.pop() {
                        self.call_epilogue(fr.callee_base, fr.watched, fr.prof_depth);
                    }
                    return Err(e);
                }
            }
        }
    }

    fn call_intrinsic(
        &mut self,
        name: &str,
        intr: Intrinsic,
        args: &[Value],
        span: Span,
    ) -> RuntimeResult<Value> {
        let mut ctx = IntrinsicCtx {
            profile: &mut self.profile,
            memory: &mut self.memory,
            cost_model: &self.config.cost_model,
            max_cycles: self.config.max_cycles,
            heap_count: &mut self.heap_count,
            watch: self.watch_depth > 0,
        };
        ops::exec_intrinsic(&mut ctx, name, intr, args, span)
    }

    /// The interpreter loop: dispatch `code` with frame registers at `base`
    /// until the activation returns or requests a user call (performed by
    /// the [`Vm::exec`] trampoline, which then resumes this chunk).
    fn run_chunk(
        &mut self,
        program: &Program,
        code: &[Insn],
        base: usize,
        loop_base: usize,
        start_pc: usize,
    ) -> RuntimeResult<StepOut> {
        // Split `self` into disjoint borrows once: the dispatch loop then
        // addresses the register file, profile and counters directly, so
        // the optimiser can keep their pointers in machine registers
        // instead of reloading through `&mut self` after every handler.
        let costs = self.bin_costs;
        let Vm {
            regs,
            profile,
            memory,
            config,
            globals,
            loop_ctxs,
            watch_depth,
            loop_watcher,
            heap_count,
            dispatches,
            spec_dispatches,
            profiler,
            ..
        } = self;
        let frame = &mut regs.as_mut_slice()[base..];
        let max_cycles = config.max_cycles;
        // A function watch toggles only at call boundaries, which suspend
        // this chunk; a loop-watch window toggles at a watched loop's
        // `LoopEnter`/`LoopExit`, which refresh this copy.
        let mut watch = *watch_depth > 0;
        let spans = program.spans.as_slice();
        let mut pc = start_pc;
        while let Some(insn) = code.get(pc) {
            *dispatches += 1;
            match insn {
                // Straight-line instructions: one shared implementation
                // (`step_arith`) serves both this dispatch loop and the
                // batched `ArithBlock` form below.
                insn @ (Insn::Const { .. }
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
                | Insn::MathCallImm { .. }) => step_arith(
                    insn, frame, profile, memory, costs, max_cycles, watch, spans,
                )?,
                // Type-specialised straight-line forms: same shared
                // implementation, but metered separately so the
                // specialisation rate is observable.
                insn @ (Insn::F64Bin { .. }
                | Insn::F64BinImm { .. }
                | Insn::F64BinAssign { .. }
                | Insn::F64Index { .. }
                | Insn::F64Store { .. }
                | Insn::F64MathCallImm { .. }) => {
                    *spec_dispatches += 1;
                    step_spec(
                        insn, frame, profile, memory, costs, max_cycles, watch, spans, None,
                    )?;
                }
                Insn::ArithBlock(steps) => {
                    for s in steps.iter() {
                        step_arith(s, frame, profile, memory, costs, max_cycles, watch, spans)?;
                    }
                }
                Insn::LoadGlobal { dst, gidx, span } => {
                    let v = globals[*gidx as usize].ok_or_else(|| RuntimeError::Unbound {
                        name: program.global_names[*gidx as usize].to_string(),
                        span: sp(spans, *span),
                    })?;
                    *reg_mut(frame, *dst) = v;
                }
                Insn::CopyToGlobal { gidx, src } => {
                    globals[*gidx as usize] = Some(reg(frame, *src));
                }
                Insn::AssignGlobal { gidx, src, span } => {
                    let new = reg(frame, *src);
                    match globals[*gidx as usize] {
                        Some(cur) => {
                            globals[*gidx as usize] =
                                Some(ops::convert_assign(Some(cur), new, sp(spans, *span))?);
                        }
                        None => {
                            return Err(RuntimeError::Unbound {
                                name: program.global_names[*gidx as usize].to_string(),
                                span: sp(spans, *span),
                            })
                        }
                    }
                }
                Insn::Jump(target) => {
                    pc = *target as usize;
                    continue;
                }
                Insn::JumpIfFalse {
                    src,
                    target,
                    cost,
                    span,
                } => {
                    let v = reg(frame, *src);
                    ops::charge(&mut *profile, max_cycles, *cost)?;
                    let b = v.truthy().ok_or_else(|| RuntimeError::Type {
                        message: format!("condition is not boolean-testable ({})", v.type_name()),
                        span: sp(spans, *span),
                    })?;
                    if !b {
                        pc = *target as usize;
                        continue;
                    }
                }
                Insn::AndShort {
                    src,
                    dst,
                    target,
                    cost,
                    span,
                } => {
                    let v = reg(frame, *src);
                    ops::charge(&mut *profile, max_cycles, *cost)?;
                    let b = v.truthy().ok_or_else(|| RuntimeError::Type {
                        message: format!("condition is not boolean-testable ({})", v.type_name()),
                        span: sp(spans, *span),
                    })?;
                    if !b {
                        *reg_mut(frame, *dst) = Value::Bool(false);
                        pc = *target as usize;
                        continue;
                    }
                }
                Insn::OrShort {
                    src,
                    dst,
                    target,
                    cost,
                    span,
                } => {
                    let v = reg(frame, *src);
                    ops::charge(&mut *profile, max_cycles, *cost)?;
                    let b = v.truthy().ok_or_else(|| RuntimeError::Type {
                        message: format!("condition is not boolean-testable ({})", v.type_name()),
                        span: sp(spans, *span),
                    })?;
                    if b {
                        *reg_mut(frame, *dst) = Value::Bool(true);
                        pc = *target as usize;
                        continue;
                    }
                }
                Insn::AllocArray {
                    dst,
                    len,
                    scalar,
                    name,
                    span,
                } => {
                    let len_v = reg(frame, *len);
                    let len =
                        len_v
                            .as_i64()
                            .filter(|&n| n >= 0)
                            .ok_or_else(|| RuntimeError::Type {
                                message: format!(
                                    "array length of `{name}` must be a non-negative int"
                                ),
                                span: sp(spans, *span),
                            })?;
                    let id = memory.alloc(*scalar, len as usize, name.to_string());
                    *reg_mut(frame, *dst) = Value::Ptr(Pointer {
                        buffer: id,
                        offset: 0,
                    });
                }
                Insn::Call {
                    dst,
                    site,
                    first_arg,
                } => {
                    let site = &program.call_sites[*site as usize];
                    let at = base + *first_arg as usize;
                    let args_from = *first_arg as usize;
                    let v = match &site.target {
                        CallTarget::User(fidx) => {
                            return Ok(StepOut::Call {
                                fidx: *fidx,
                                args_at: at,
                                argc: site.argc,
                                span: site.span,
                                dst: base + *dst as usize,
                                resume_pc: pc + 1,
                            });
                        }
                        CallTarget::Intrinsic(intr) => {
                            // Arguments are read in place from the caller's
                            // registers; the ctx borrows disjoint fields so
                            // the slice stays valid.
                            let mut ctx = IntrinsicCtx {
                                profile: &mut *profile,
                                memory: &mut *memory,
                                cost_model: &config.cost_model,
                                max_cycles,
                                heap_count: &mut *heap_count,
                                watch,
                            };
                            ops::exec_intrinsic(
                                &mut ctx,
                                &site.name,
                                *intr,
                                &frame[args_from..args_from + site.argc],
                                site.span,
                            )?
                        }
                        CallTarget::Unknown => {
                            return Err(RuntimeError::Unbound {
                                name: site.name.to_string(),
                                span: site.span,
                            })
                        }
                    };
                    *reg_mut(frame, *dst) = v;
                }
                Insn::Ret { src, has_value } => {
                    let v = if *has_value {
                        reg(frame, *src)
                    } else {
                        Value::Unit
                    };
                    while loop_ctxs.len() > loop_base {
                        record_loop_exit(
                            profile,
                            memory,
                            loop_ctxs,
                            profiler,
                            loop_watcher,
                            watch_depth,
                        );
                    }
                    return Ok(StepOut::Return(v));
                }
                Insn::LoopEnter { id, watch: w } => {
                    if *w != NO_WATCH {
                        if let Some(watcher) = loop_watcher.as_mut() {
                            let pointers = || {
                                program.loop_watch[*w as usize]
                                    .iter()
                                    .map(|(name, slot)| (name.clone(), reg(frame, *slot)))
                                    .collect()
                            };
                            if watcher.enter(*w, profile, pointers) {
                                *watch_depth += 1;
                                watch = true;
                            }
                        }
                    }
                    loop_ctxs.push(LoopCtx {
                        id: *id,
                        start_cycles: profile.total_cycles,
                        iters: 0,
                        cur_i: 0,
                        watch: *w,
                    });
                    if let Some(p) = profiler.as_mut() {
                        p.enter(FrameKey::Loop(*id), profile.total_cycles);
                    }
                }
                Insn::LoopExit => {
                    record_loop_exit(
                        profile,
                        memory,
                        loop_ctxs,
                        profiler,
                        loop_watcher,
                        watch_depth,
                    );
                    watch = *watch_depth > 0;
                }
                Insn::ForInit {
                    slot,
                    src,
                    bound,
                    name,
                    span,
                } => {
                    let v = reg(frame, *src);
                    let i = v.as_i64().ok_or_else(|| RuntimeError::Type {
                        message: format!("loop init for `{name}` must be integral"),
                        span: sp(spans, *span),
                    })?;
                    if !*bound {
                        return Err(RuntimeError::Unbound {
                            name: name.to_string(),
                            span: sp(spans, *span),
                        });
                    }
                    *reg_mut(frame, *slot) = Value::Int(i);
                }
                Insn::ForTest {
                    slot,
                    bound,
                    cond_op,
                    exit,
                    cost,
                    span,
                } => {
                    let i = reg(frame, *slot).as_i64().unwrap_or(0);
                    let bound_v = reg(frame, *bound);
                    let bound = bound_v.as_i64().ok_or_else(|| RuntimeError::Type {
                        message: "loop bound must be integral".into(),
                        span: sp(spans, *span),
                    })?;
                    ops::charge(&mut *profile, max_cycles, *cost)?;
                    profile.int_ops += 1;
                    let keep = match cond_op {
                        BinOp::Lt => i < bound,
                        BinOp::Le => i <= bound,
                        BinOp::Gt => i > bound,
                        BinOp::Ge => i >= bound,
                        BinOp::Ne => i != bound,
                        _ => false,
                    };
                    let ctx = loop_ctxs.last_mut().expect("open loop context");
                    ctx.cur_i = i;
                    if keep {
                        ctx.iters += 1;
                    } else {
                        pc = *exit as usize;
                        continue;
                    }
                }
                Insn::ForStep {
                    slot,
                    step,
                    negative,
                    cost,
                    span,
                } => {
                    let v = reg(frame, *step);
                    let step = v.as_i64().ok_or_else(|| RuntimeError::Type {
                        message: "loop step must be integral".into(),
                        span: sp(spans, *span),
                    })?;
                    let i = loop_ctxs.last().expect("open loop context").cur_i;
                    let next = if *negative { i - step } else { i + step };
                    *reg_mut(frame, *slot) = Value::Int(next);
                    ops::charge(&mut *profile, max_cycles, *cost)?;
                    profile.int_ops += 1;
                }
                Insn::WhileTest {
                    src,
                    exit,
                    cost,
                    span,
                } => {
                    let v = reg(frame, *src);
                    ops::charge(&mut *profile, max_cycles, *cost)?;
                    let b = v.truthy().ok_or_else(|| RuntimeError::Type {
                        message: format!("condition is not boolean-testable ({})", v.type_name()),
                        span: sp(spans, *span),
                    })?;
                    if b {
                        loop_ctxs.last_mut().expect("open loop context").iters += 1;
                    } else {
                        pc = *exit as usize;
                        continue;
                    }
                }
                Insn::Raise(err) => return Err((**err).clone()),

                // ----------------------------------------------------------
                // Superinstructions. Each performs exactly the steps of the
                // pair it replaced; the compare+branch form collapses the two
                // cycle charges into one combined `charge()` (see
                // `crate::peephole` for why that is exact).
                // ----------------------------------------------------------
                Insn::CmpBranch {
                    op,
                    l,
                    r,
                    target,
                    branch_cost,
                    cmp_span,
                    br_span,
                } => {
                    let lv = reg(frame, *l);
                    let rv = reg(frame, *r);
                    let b = fused_cmp(
                        profile,
                        max_cycles,
                        costs,
                        *op,
                        lv,
                        rv,
                        *branch_cost,
                        sp(spans, *cmp_span),
                        sp(spans, *br_span),
                    )?;
                    if !b {
                        pc = *target as usize;
                        continue;
                    }
                }
                Insn::ForStepJump {
                    slot,
                    step,
                    negative,
                    cost,
                    span,
                    target,
                } => {
                    let v = reg(frame, *step);
                    let step = v.as_i64().ok_or_else(|| RuntimeError::Type {
                        message: "loop step must be integral".into(),
                        span: sp(spans, *span),
                    })?;
                    let i = loop_ctxs.last().expect("open loop context").cur_i;
                    let next = if *negative { i - step } else { i + step };
                    *reg_mut(frame, *slot) = Value::Int(next);
                    ops::charge(&mut *profile, max_cycles, *cost)?;
                    profile.int_ops += 1;
                    pc = *target as usize;
                    continue;
                }
                Insn::DeferredFor(d) => {
                    // One dispatch runs the whole counted loop (see
                    // `peephole::defer_loops` for eligibility). While
                    // `clock + acc + iter_max <= max_cycles` the coming
                    // iteration provably cannot exhaust the budget, so its
                    // test/step/fast-path charges accumulate in `acc`
                    // instead of the virtual clock; once that precheck
                    // fails, `acc` is reconciled and iterations replay with
                    // precise immediate charges, so a budget exhaustion
                    // fires at exactly the cycle the unspecialised loop
                    // would report. Generic body instructions always charge
                    // immediately — exact in both modes, since under the
                    // precheck they cannot fail either.
                    let mut acc: u64 = 0;
                    let mut entered: u64 = 0;
                    let mut err: Option<RuntimeError> = None;
                    'deferred: loop {
                        let i = reg(frame, d.slot).as_i64().unwrap_or(0);
                        let bound_v = reg(frame, d.bound);
                        let Some(bound) = bound_v.as_i64() else {
                            err = Some(RuntimeError::Type {
                                message: "loop bound must be integral".into(),
                                span: sp(spans, d.test_span),
                            });
                            break 'deferred;
                        };
                        let precise = profile
                            .total_cycles
                            .saturating_add(acc)
                            .saturating_add(d.iter_max)
                            > max_cycles;
                        if precise {
                            profile.total_cycles += acc;
                            acc = 0;
                            if let Err(e) = ops::charge(&mut *profile, max_cycles, d.test_cost) {
                                err = Some(e);
                                break 'deferred;
                            }
                        } else {
                            acc += d.test_cost;
                        }
                        profile.int_ops += 1;
                        // `ForTest` semantics, including its `_ => false`.
                        let keep = match d.cond_op {
                            BinOp::Lt => i < bound,
                            BinOp::Le => i <= bound,
                            BinOp::Gt => i > bound,
                            BinOp::Ge => i >= bound,
                            BinOp::Ne => i != bound,
                            _ => false,
                        };
                        let ctx = loop_ctxs.last_mut().expect("open loop context");
                        ctx.cur_i = i;
                        if !keep {
                            break 'deferred;
                        }
                        ctx.iters += 1;
                        entered += 1;
                        for s in d.body.iter() {
                            let r = if precise {
                                step_arith(
                                    s, frame, profile, memory, costs, max_cycles, watch, spans,
                                )
                            } else {
                                match s {
                                    Insn::F64Bin { .. }
                                    | Insn::F64BinImm { .. }
                                    | Insn::F64BinAssign { .. }
                                    | Insn::F64Index { .. }
                                    | Insn::F64Store { .. }
                                    | Insn::F64MathCallImm { .. } => step_spec(
                                        s,
                                        frame,
                                        profile,
                                        memory,
                                        costs,
                                        max_cycles,
                                        watch,
                                        spans,
                                        Some(&mut acc),
                                    ),
                                    _ => step_arith(
                                        s, frame, profile, memory, costs, max_cycles, watch, spans,
                                    ),
                                }
                            };
                            if let Err(e) = r {
                                err = Some(e);
                                break 'deferred;
                            }
                        }
                        // `ForStepJump` semantics: the step advances from the
                        // value latched at the test, even if the body
                        // reassigned the variable.
                        let sv = reg(frame, d.step);
                        let Some(step) = sv.as_i64() else {
                            err = Some(RuntimeError::Type {
                                message: "loop step must be integral".into(),
                                span: sp(spans, d.step_span),
                            });
                            break 'deferred;
                        };
                        let next = if d.negative { i - step } else { i + step };
                        *reg_mut(frame, d.slot) = Value::Int(next);
                        if precise {
                            if let Err(e) = ops::charge(&mut *profile, max_cycles, d.step_cost) {
                                err = Some(e);
                                break 'deferred;
                            }
                        } else {
                            acc += d.step_cost;
                        }
                        profile.int_ops += 1;
                    }
                    // Reconcile deferred charges with the virtual clock
                    // before the `LoopExit` (or the error path) observes it.
                    profile.total_cycles += acc;
                    *dispatches += entered * (d.body.len() as u64 + 2);
                    *spec_dispatches += entered * (u64::from(d.nspec) + 2);
                    if let Some(e) = err {
                        return Err(e);
                    }
                }
            }
            pc += 1;
        }
        Ok(StepOut::Return(Value::Unit))
    }
}

/// Record stats for the innermost open loop and close it, closing its
/// loop-watch window if it has one open.
fn record_loop_exit(
    profile: &mut Profile,
    memory: &mut Memory,
    loop_ctxs: &mut Vec<LoopCtx>,
    profiler: &mut Option<Box<VmProfiler>>,
    loop_watcher: &mut Option<LoopWatcher>,
    watch_depth: &mut usize,
) {
    let ctx = loop_ctxs.pop().expect("open loop context");
    let stats = profile.loop_stats.entry(ctx.id).or_default();
    stats.entries += 1;
    stats.iterations += ctx.iters;
    stats.cycles += profile.total_cycles - ctx.start_cycles;
    if let Some(p) = profiler.as_mut() {
        p.exit(profile.total_cycles);
    }
    if ctx.watch != NO_WATCH {
        if let Some(watcher) = loop_watcher.as_mut() {
            if watcher.exit(ctx.watch, profile, memory) {
                *watch_depth -= 1;
            }
        }
    }
}

/// Fused comparison + branch-charge. Same-type numeric operands take a
/// specialised path with one combined charge; anything else replays the
/// exact unfused sequence (`apply_binary`, branch charge, truthiness).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fused_cmp(
    profile: &mut Profile,
    max_cycles: u64,
    costs: BinCosts,
    op: BinOp,
    lv: Value,
    rv: Value,
    branch_cost: u64,
    cmp_span: Span,
    br_span: Span,
) -> RuntimeResult<bool> {
    match (lv, rv) {
        (Value::Int(a), Value::Int(b)) => {
            ops::charge(&mut *profile, max_cycles, costs.int_op + branch_cost)?;
            profile.int_ops += 1;
            Ok(cmp_int(op, a, b))
        }
        (Value::Double(a), Value::Double(b)) => {
            ops::charge(&mut *profile, max_cycles, costs.fp_op + branch_cost)?;
            Ok(cmp_f64(op, a, b))
        }
        (Value::Float(a), Value::Float(b)) => {
            ops::charge(&mut *profile, max_cycles, costs.fp_op + branch_cost)?;
            Ok(cmp_f64(op, f64::from(a), f64::from(b)))
        }
        _ => {
            let v = ops::apply_binary(&mut *profile, max_cycles, costs, op, lv, rv, cmp_span)?;
            ops::charge(&mut *profile, max_cycles, branch_cost)?;
            v.truthy().ok_or_else(|| RuntimeError::Type {
                message: format!("condition is not boolean-testable ({})", v.type_name()),
                span: br_span,
            })
        }
    }
}

/// The `Index` load sequence shared by the fused index+binop forms.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn index_load(
    profile: &mut Profile,
    memory: &mut Memory,
    watch: bool,
    max_cycles: u64,
    base_v: Value,
    idx_v: Value,
    cost: u64,
    base_span: Span,
    index_span: Span,
    load_span: Span,
) -> RuntimeResult<Value> {
    let ptr = base_v.as_ptr().ok_or_else(|| RuntimeError::Type {
        message: "indexed value is not a pointer".into(),
        span: base_span,
    })?;
    let idx = idx_v.as_i64().ok_or_else(|| RuntimeError::Type {
        message: "index is not integral".into(),
        span: index_span,
    })?;
    ops::charge(&mut *profile, max_cycles, cost)?;
    profile.int_ops += 1;
    profile.loads += 1;
    profile.bytes_loaded += memory.elem_bytes(ptr.buffer);
    memory.load(ptr.buffer, ptr.offset + idx, load_span, watch)
}

/// Frame-register read.
///
/// SAFETY: `Program` compilation verifies every register operand of every
/// instruction against its function's frame size (`verify_code` in
/// `crate::compile`, run unconditionally), `Insn` values cannot be built
/// outside this crate, and the trampoline sizes the live frame to exactly
/// that register count before dispatching — so `i` is always in bounds
/// here and in [`reg_mut`].
/// Resolve an interned span through the program's side table. Hot-path
/// callers pass the result into error constructors and provenance hooks
/// whose value is dead unless the cold path runs; the indexed load itself
/// is a single L1 hit off the critical path.
#[inline(always)]
fn sp(spans: &[Span], id: SpanId) -> Span {
    spans[id.0 as usize]
}

#[inline(always)]
fn reg(frame: &[Value], i: u16) -> Value {
    debug_assert!((i as usize) < frame.len());
    unsafe { *frame.get_unchecked(i as usize) }
}

/// Frame-register write slot; same bounds contract as [`reg`].
#[inline(always)]
fn reg_mut(frame: &mut [Value], i: u16) -> &mut Value {
    debug_assert!((i as usize) < frame.len());
    unsafe { frame.get_unchecked_mut(i as usize) }
}

/// Execute one straight-line instruction — every arithmetic / memory form
/// with no control flow. Shared verbatim by the dispatch loop and by
/// [`Insn::ArithBlock`] batches, so batching cannot change semantics: a
/// block only removes the outer dispatch between consecutive steps.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn step_arith(
    insn: &Insn,
    frame: &mut [Value],
    profile: &mut Profile,
    memory: &mut Memory,
    costs: ops::BinCosts,
    max_cycles: u64,
    watch: bool,
    spans: &[Span],
) -> RuntimeResult<()> {
    // Every `*Coerce` variant differs from its base form only by this
    // tail: write the produced value through the fused declaration
    // coercion. The macro keeps the paired decode arms from duplicating
    // their whole producer sequence.
    macro_rules! store_coerced {
        ($dst:expr, $v:expr, $ty:expr, $co:expr) => {
            *reg_mut(frame, *$dst) = ops::coerce($v, *$ty, sp(spans, *$co))?
        };
    }
    // The shared binary-op producer of the fused arithmetic forms.
    macro_rules! binop {
        ($op:expr, $l:expr, $r:expr, $span:expr) => {
            ops::apply_binary(
                &mut *profile,
                max_cycles,
                costs,
                *$op,
                $l,
                $r,
                sp(spans, *$span),
            )?
        };
    }
    match insn {
        Insn::Const { dst, v } => *reg_mut(frame, *dst) = *v,
        Insn::Copy { dst, src } => *reg_mut(frame, *dst) = reg(frame, *src),
        Insn::AssignLocal { slot, src, span } => {
            let new = reg(frame, *src);
            let cur = reg(frame, *slot);
            *reg_mut(frame, *slot) = ops::convert_assign(Some(cur), new, sp(spans, *span))?;
        }
        Insn::Coerce { dst, src, ty, span } => {
            let v = reg(frame, *src);
            *reg_mut(frame, *dst) = ops::coerce(v, *ty, sp(spans, *span))?;
        }
        Insn::Cast {
            dst,
            src,
            ty,
            cost,
            span,
        } => {
            let v = reg(frame, *src);
            ops::charge(&mut *profile, max_cycles, *cost)?;
            *reg_mut(frame, *dst) = ops::coerce(v, *ty, sp(spans, *span))?;
        }
        Insn::Un { op, dst, src, span } => {
            let v = reg(frame, *src);
            let r = ops::apply_unary(&mut *profile, max_cycles, costs, *op, v, sp(spans, *span))?;
            *reg_mut(frame, *dst) = r;
        }
        Insn::Bin {
            op,
            dst,
            l,
            r,
            span,
        } => {
            let lv = reg(frame, *l);
            let rv = reg(frame, *r);
            let v = ops::apply_binary(
                &mut *profile,
                max_cycles,
                costs,
                *op,
                lv,
                rv,
                sp(spans, *span),
            )?;
            *reg_mut(frame, *dst) = v;
        }
        Insn::BinImm {
            op,
            dst,
            l,
            imm,
            span,
        } => {
            let lv = reg(frame, *l);
            let v = ops::apply_binary(
                &mut *profile,
                max_cycles,
                costs,
                *op,
                lv,
                *imm,
                sp(spans, *span),
            )?;
            *reg_mut(frame, *dst) = v;
        }
        Insn::BinImmRev {
            op,
            dst,
            imm,
            r,
            span,
        } => {
            let rv = reg(frame, *r);
            let v = ops::apply_binary(
                &mut *profile,
                max_cycles,
                costs,
                *op,
                *imm,
                rv,
                sp(spans, *span),
            )?;
            *reg_mut(frame, *dst) = v;
        }
        Insn::ToBool {
            dst,
            src,
            cost,
            span,
        } => {
            let v = reg(frame, *src);
            ops::charge(&mut *profile, max_cycles, *cost)?;
            let b = v.truthy().ok_or_else(|| RuntimeError::Type {
                message: format!("condition is not boolean-testable ({})", v.type_name()),
                span: sp(spans, *span),
            })?;
            *reg_mut(frame, *dst) = Value::Bool(b);
        }
        Insn::Index {
            dst,
            base: b,
            idx,
            cost,
            base_span,
            index_span,
            span,
        } => {
            let base_v = reg(frame, *b);
            let idx_v = reg(frame, *idx);
            let ptr = base_v.as_ptr().ok_or_else(|| RuntimeError::Type {
                message: "indexed value is not a pointer".into(),
                span: sp(spans, *base_span),
            })?;
            let idx = idx_v.as_i64().ok_or_else(|| RuntimeError::Type {
                message: "index is not integral".into(),
                span: sp(spans, *index_span),
            })?;
            ops::charge(&mut *profile, max_cycles, *cost)?;
            profile.int_ops += 1;
            profile.loads += 1;
            profile.bytes_loaded += memory.elem_bytes(ptr.buffer);
            let v = memory.load(ptr.buffer, ptr.offset + idx, sp(spans, *span), watch)?;
            *reg_mut(frame, *dst) = v;
        }
        Insn::IndexAddr {
            dst,
            base: b,
            idx,
            cost,
            base_span,
            index_span,
        } => {
            let base_v = reg(frame, *b);
            let idx_v = reg(frame, *idx);
            let ptr = base_v.as_ptr().ok_or_else(|| RuntimeError::Type {
                message: "indexed value is not a pointer".into(),
                span: sp(spans, *base_span),
            })?;
            let idx = idx_v.as_i64().ok_or_else(|| RuntimeError::Type {
                message: "index is not integral".into(),
                span: sp(spans, *index_span),
            })?;
            ops::charge(&mut *profile, max_cycles, *cost)?;
            profile.int_ops += 1;
            *reg_mut(frame, *dst) = Value::Ptr(Pointer {
                buffer: ptr.buffer,
                offset: ptr.offset + idx,
            });
        }
        Insn::LoadElem {
            dst,
            addr,
            cost,
            span,
        } => {
            let p = reg(frame, *addr).as_ptr().expect("element address");
            // Load first, charge after — tree-walker order for the
            // compound-assignment read.
            let old = memory.load(p.buffer, p.offset, sp(spans, *span), watch)?;
            ops::charge(&mut *profile, max_cycles, *cost)?;
            profile.loads += 1;
            profile.bytes_loaded += memory.elem_bytes(p.buffer);
            *reg_mut(frame, *dst) = old;
        }
        Insn::StoreElem {
            addr,
            src,
            cost,
            span,
        } => {
            let p = reg(frame, *addr).as_ptr().expect("element address");
            let v = reg(frame, *src);
            memory.store(p.buffer, p.offset, v, sp(spans, *span), watch)?;
            ops::charge(&mut *profile, max_cycles, *cost)?;
            profile.stores += 1;
            profile.bytes_stored += memory.elem_bytes(p.buffer);
        }
        Insn::MathCall {
            dst,
            a,
            b,
            f,
            cycles,
            flops,
            name,
            span,
        } => {
            let v = math_eval(
                frame,
                profile,
                max_cycles,
                *a,
                *b,
                *f,
                *cycles,
                *flops,
                name,
                sp(spans, *span),
            )?;
            *reg_mut(frame, *dst) = v;
        }
        Insn::BinAssign {
            op,
            slot,
            l,
            r,
            span,
            asg_span,
        } => {
            let lv = reg(frame, *l);
            let rv = reg(frame, *r);
            let v = ops::apply_binary(
                &mut *profile,
                max_cycles,
                costs,
                *op,
                lv,
                rv,
                sp(spans, *span),
            )?;
            let cur = reg(frame, *slot);
            *reg_mut(frame, *slot) = ops::convert_assign(Some(cur), v, sp(spans, *asg_span))?;
        }
        Insn::IndexBin {
            op,
            dst,
            base: b,
            idx,
            r,
            cost,
            base_span,
            index_span,
            load_span,
            span,
        } => {
            let base_v = reg(frame, *b);
            let idx_v = reg(frame, *idx);
            let rv = reg(frame, *r);
            let loaded = index_load(
                profile,
                memory,
                watch,
                max_cycles,
                base_v,
                idx_v,
                *cost,
                sp(spans, *base_span),
                sp(spans, *index_span),
                sp(spans, *load_span),
            )?;
            let v = ops::apply_binary(
                &mut *profile,
                max_cycles,
                costs,
                *op,
                loaded,
                rv,
                sp(spans, *span),
            )?;
            *reg_mut(frame, *dst) = v;
        }
        Insn::BinCoerce {
            op,
            dst,
            l,
            r,
            ty,
            span,
            co_span,
        } => {
            let v = binop!(op, reg(frame, *l), reg(frame, *r), span);
            store_coerced!(dst, v, ty, co_span);
        }
        Insn::BinImmCoerce {
            op,
            dst,
            l,
            imm,
            ty,
            span,
            co_span,
        } => {
            let v = binop!(op, reg(frame, *l), *imm, span);
            store_coerced!(dst, v, ty, co_span);
        }
        Insn::IndexCoerce {
            dst,
            base: b,
            idx,
            cost,
            ty,
            base_span,
            index_span,
            span,
            co_span,
        } => {
            let v = index_load(
                profile,
                memory,
                watch,
                max_cycles,
                reg(frame, *b),
                reg(frame, *idx),
                *cost,
                sp(spans, *base_span),
                sp(spans, *index_span),
                sp(spans, *span),
            )?;
            store_coerced!(dst, v, ty, co_span);
        }
        Insn::MathCallCoerce {
            dst,
            a,
            b,
            f,
            cycles,
            flops,
            name,
            ty,
            span,
            co_span,
        } => {
            let v = math_eval(
                frame,
                profile,
                max_cycles,
                *a,
                *b,
                *f,
                *cycles,
                *flops,
                name,
                sp(spans, *span),
            )?;
            store_coerced!(dst, v, ty, co_span);
        }
        Insn::IndexBinCoerce {
            op,
            dst,
            base: b,
            idx,
            r,
            cost,
            ty,
            base_span,
            index_span,
            load_span,
            span,
            co_span,
        } => {
            let loaded = index_load(
                profile,
                memory,
                watch,
                max_cycles,
                reg(frame, *b),
                reg(frame, *idx),
                *cost,
                sp(spans, *base_span),
                sp(spans, *index_span),
                sp(spans, *load_span),
            )?;
            let v = binop!(op, loaded, reg(frame, *r), span);
            store_coerced!(dst, v, ty, co_span);
        }
        Insn::BinImm2 {
            op1,
            op2,
            dst,
            l,
            imm1,
            imm2,
            span1,
            span2,
        } => {
            let lv = reg(frame, *l);
            let t = ops::apply_binary(
                &mut *profile,
                max_cycles,
                costs,
                *op1,
                lv,
                *imm1,
                sp(spans, *span1),
            )?;
            let v = ops::apply_binary(
                &mut *profile,
                max_cycles,
                costs,
                *op2,
                t,
                *imm2,
                sp(spans, *span2),
            )?;
            *reg_mut(frame, *dst) = v;
        }
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
        } => {
            let lv = reg(frame, *l);
            let (a_v, b_v) = if *rev { (*imm, lv) } else { (lv, *imm) };
            let t = ops::apply_binary(
                &mut *profile,
                max_cycles,
                costs,
                *op,
                a_v,
                b_v,
                sp(spans, *bin_span),
            )?;
            // The fusion gate (floating immediate, arithmetic op) means the
            // binop result is always numeric, so the unfused pair's
            // non-numeric-argument intrinsic error cannot fire here.
            let av = t
                .as_f64()
                .unwrap_or_else(|| unreachable!("fused math argument is numeric"));
            ops::charge(&mut *profile, max_cycles, u64::from(*cycles))?;
            profile.flops += u64::from(*flops);
            *reg_mut(frame, *dst) = if f.single {
                Value::Float(f.op.eval_f32(av as f32, 0.0))
            } else {
                Value::Double(f.op.eval_f64(av, 0.0))
            };
        }
        // Type-specialised forms are straight-line too (blocks and precise
        // deferred-loop replays reach them here); immediate charging.
        insn @ (Insn::F64Bin { .. }
        | Insn::F64BinImm { .. }
        | Insn::F64BinAssign { .. }
        | Insn::F64Index { .. }
        | Insn::F64Store { .. }
        | Insn::F64MathCallImm { .. }) => step_spec(
            insn, frame, profile, memory, costs, max_cycles, watch, spans, None,
        )?,
        _ => unreachable!("not a straight-line instruction"),
    }
    Ok(())
}

/// The `MathCall` evaluation, shared with its fused-coercion form:
/// argument checks in `ops::exec_intrinsic` order, one baked charge, then
/// the host-math evaluation.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn math_eval(
    frame: &[Value],
    profile: &mut Profile,
    max_cycles: u64,
    a: u16,
    b: u16,
    f: intrinsics::MathFn,
    cycles: u64,
    flops: u64,
    name: &str,
    span: Span,
) -> RuntimeResult<Value> {
    let av = reg(frame, a)
        .as_f64()
        .ok_or_else(|| RuntimeError::Intrinsic {
            message: format!("`{name}` needs a numeric argument"),
            span,
        })?;
    let bv = if f.op.arity() == 2 {
        reg(frame, b)
            .as_f64()
            .ok_or_else(|| RuntimeError::Intrinsic {
                message: format!("`{name}` needs numeric arguments"),
                span,
            })?
    } else {
        0.0
    };
    ops::charge(&mut *profile, max_cycles, cycles)?;
    profile.flops += flops;
    Ok(if f.single {
        Value::Float(f.op.eval_f32(av as f32, bv as f32))
    } else {
        Value::Double(f.op.eval_f64(av, bv))
    })
}

/// The folded declaration coercion of a specialised instruction's generic
/// fallback: identity when the specialiser folded nothing
/// ([`NO_SPAN`] sentinel), otherwise the exact `ops::coerce` the base
/// `*Coerce` form would have run. Fast paths skip this call entirely —
/// their result is already `Double`, for which the coercion is identity.
#[inline(always)]
fn co_tail(v: Value, co_span: SpanId, spans: &[Span]) -> RuntimeResult<Value> {
    if co_span == NO_SPAN {
        Ok(v)
    } else {
        ops::coerce(v, DOUBLE, sp(spans, co_span))
    }
}

/// Execute one type-specialised instruction.
///
/// `defer` is `Some(acc)` inside a deferred-loop iteration whose budget
/// precheck passed: fast-path charges accumulate into `acc` instead of
/// the virtual clock (the iteration provably cannot exhaust the budget).
/// `None` charges immediately. Generic fallbacks always charge
/// immediately — they replay the exact unspecialised sequence, and under
/// the precheck those charges cannot fail either, so both modes stay
/// cycle-exact.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn step_spec(
    insn: &Insn,
    frame: &mut [Value],
    profile: &mut Profile,
    memory: &mut Memory,
    costs: ops::BinCosts,
    max_cycles: u64,
    watch: bool,
    spans: &[Span],
    mut defer: Option<&mut u64>,
) -> RuntimeResult<()> {
    // One fast-path charge: into the deferral accumulator, or the clock.
    macro_rules! pay {
        ($c:expr) => {
            match defer.as_deref_mut() {
                Some(acc) => *acc += $c,
                None => ops::charge(&mut *profile, max_cycles, $c)?,
            }
        };
    }
    // The four arithmetic ops the specialiser admits (`Rem` is excluded:
    // its generic path charges without counting a flop).
    macro_rules! f64_arith {
        ($op:expr, $a:expr, $b:expr) => {
            match $op {
                BinOp::Add => $a + $b,
                BinOp::Sub => $a - $b,
                BinOp::Mul => $a * $b,
                BinOp::Div => $a / $b,
                _ => unreachable!("specialised arithmetic op"),
            }
        };
    }
    match insn {
        Insn::F64Bin {
            op,
            dst,
            l,
            r,
            span,
            co_span,
        } => {
            let lv = reg(frame, *l);
            let rv = reg(frame, *r);
            if let (Value::Double(a), Value::Double(b)) = (lv, rv) {
                pay!(if *op == BinOp::Div {
                    costs.fp_div
                } else {
                    costs.fp_op
                });
                profile.flops += 1;
                *reg_mut(frame, *dst) = Value::Double(f64_arith!(*op, a, b));
            } else {
                let v = ops::apply_binary(
                    &mut *profile,
                    max_cycles,
                    costs,
                    *op,
                    lv,
                    rv,
                    sp(spans, *span),
                )?;
                *reg_mut(frame, *dst) = co_tail(v, *co_span, spans)?;
            }
        }
        Insn::F64BinImm {
            op,
            rev,
            dst,
            l,
            imm,
            imm_f64,
            span,
            co_span,
        } => {
            let lv = reg(frame, *l);
            if let Value::Double(a) = lv {
                pay!(if *op == BinOp::Div {
                    costs.fp_div
                } else {
                    costs.fp_op
                });
                profile.flops += 1;
                let (x, y) = if *rev { (*imm_f64, a) } else { (a, *imm_f64) };
                *reg_mut(frame, *dst) = Value::Double(f64_arith!(*op, x, y));
            } else {
                let (a_v, b_v) = if *rev { (*imm, lv) } else { (lv, *imm) };
                let v = ops::apply_binary(
                    &mut *profile,
                    max_cycles,
                    costs,
                    *op,
                    a_v,
                    b_v,
                    sp(spans, *span),
                )?;
                *reg_mut(frame, *dst) = co_tail(v, *co_span, spans)?;
            }
        }
        Insn::F64BinAssign {
            op,
            slot,
            l,
            r,
            span,
            asg_span,
        } => {
            let lv = reg(frame, *l);
            let rv = reg(frame, *r);
            if let (Value::Double(a), Value::Double(b), Value::Double(_)) =
                (lv, rv, reg(frame, *slot))
            {
                // Slot already holds a double, so `convert_assign` is
                // identity and the write needs no replay.
                pay!(if *op == BinOp::Div {
                    costs.fp_div
                } else {
                    costs.fp_op
                });
                profile.flops += 1;
                *reg_mut(frame, *slot) = Value::Double(f64_arith!(*op, a, b));
            } else {
                let v = ops::apply_binary(
                    &mut *profile,
                    max_cycles,
                    costs,
                    *op,
                    lv,
                    rv,
                    sp(spans, *span),
                )?;
                let cur = reg(frame, *slot);
                *reg_mut(frame, *slot) = ops::convert_assign(Some(cur), v, sp(spans, *asg_span))?;
            }
        }
        Insn::F64Index {
            dst,
            base: b,
            idx,
            cost,
            base_span,
            index_span,
            span,
            co_span,
        } => {
            let base_v = reg(frame, *b);
            let idx_v = reg(frame, *idx);
            // Pure probes first; any mismatch replays the whole generic
            // sequence with nothing yet charged or counted.
            if let (Value::Ptr(p), Some(i)) = (base_v, idx_v.as_i64()) {
                if memory.is_f64(p.buffer) {
                    pay!(*cost);
                    profile.int_ops += 1;
                    profile.loads += 1;
                    profile.bytes_loaded += 8;
                    // Bounds error after the charge — generic order.
                    let x = memory.load_f64(p.buffer, p.offset + i, sp(spans, *span), watch)?;
                    *reg_mut(frame, *dst) = Value::Double(x);
                    return Ok(());
                }
            }
            let v = index_load(
                profile,
                memory,
                watch,
                max_cycles,
                base_v,
                idx_v,
                *cost,
                sp(spans, *base_span),
                sp(spans, *index_span),
                sp(spans, *span),
            )?;
            *reg_mut(frame, *dst) = co_tail(v, *co_span, spans)?;
        }
        Insn::F64Store {
            addr,
            src,
            cost,
            span,
        } => {
            let p = reg(frame, *addr).as_ptr().expect("element address");
            let v = reg(frame, *src);
            match v {
                Value::Double(x) if memory.is_f64(p.buffer) => {
                    // Store first, charge after — generic `StoreElem` order
                    // for the bounds error.
                    memory.store_f64(p.buffer, p.offset, x, sp(spans, *span), watch)?;
                    pay!(*cost);
                    profile.stores += 1;
                    profile.bytes_stored += 8;
                }
                _ => {
                    memory.store(p.buffer, p.offset, v, sp(spans, *span), watch)?;
                    ops::charge(&mut *profile, max_cycles, *cost)?;
                    profile.stores += 1;
                    profile.bytes_stored += memory.elem_bytes(p.buffer);
                }
            }
        }
        Insn::F64MathCallImm {
            op,
            rev,
            dst,
            l,
            imm,
            imm_f64,
            f,
            cycles,
            flops,
            bin_span,
        } => {
            let lv = reg(frame, *l);
            if let Value::Double(a) = lv {
                let bin_cost = if *op == BinOp::Div {
                    costs.fp_div
                } else {
                    costs.fp_op
                };
                // One combined charge for binop + intrinsic: exact because
                // `charge(c1); charge(c2)` fails iff `charge(c1 + c2)` does,
                // at the same clock value, and the budget error carries
                // only the limit.
                pay!(bin_cost + u64::from(*cycles));
                profile.flops += 1 + u64::from(*flops);
                let (x, y) = if *rev { (*imm_f64, a) } else { (a, *imm_f64) };
                let t = f64_arith!(*op, x, y);
                // The specialiser only emits this form for `!f.single`.
                *reg_mut(frame, *dst) = Value::Double(f.op.eval_f64(t, 0.0));
            } else {
                // Generic `MathCallImm` replay, verbatim.
                let (a_v, b_v) = if *rev { (*imm, lv) } else { (lv, *imm) };
                let t = ops::apply_binary(
                    &mut *profile,
                    max_cycles,
                    costs,
                    *op,
                    a_v,
                    b_v,
                    sp(spans, *bin_span),
                )?;
                let av = t
                    .as_f64()
                    .unwrap_or_else(|| unreachable!("fused math argument is numeric"));
                ops::charge(&mut *profile, max_cycles, u64::from(*cycles))?;
                profile.flops += u64::from(*flops);
                *reg_mut(frame, *dst) = if f.single {
                    Value::Float(f.op.eval_f32(av as f32, 0.0))
                } else {
                    Value::Double(f.op.eval_f64(av, 0.0))
                };
            }
        }
        _ => unreachable!("not a type-specialised instruction"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_minicpp::parse_module;

    fn run_vm(src: &str) -> (Value, Profile) {
        let m = parse_module(src, "t").unwrap();
        let mut vm = Vm::new(&m, RunConfig::default());
        let v = vm.run_main().unwrap();
        let (p, _) = vm.into_parts();
        (v, p)
    }

    #[test]
    fn basic_arithmetic_and_loops() {
        let (v, p) =
            run_vm("int main() { int s = 0; for (int i = 1; i <= 10; i++) { s += i; } return s; }");
        assert_eq!(v, Value::Int(55));
        assert!(p.total_cycles > 0);
        assert_eq!(p.loop_stats.len(), 1);
        assert_eq!(p.loop_stats.values().next().unwrap().iterations, 10);
    }

    #[test]
    fn globals_functions_and_memory() {
        let (v, _) = run_vm(
            "int scale = 3;\
             int mul(int x) { return x * scale; }\
             int main() {\
               double* a = alloc_double(4);\
               for (int i = 0; i < 4; i++) { a[i] = (double)mul(i); }\
               double s = 0.0;\
               for (int i = 0; i < 4; i++) { s += a[i]; }\
               return (int)s;\
             }",
        );
        assert_eq!(v, Value::Int(18));
    }

    #[test]
    fn return_from_nested_loops_records_stats() {
        let (v, p) = run_vm(
            "int main() {\
               for (int i = 0; i < 10; i++) {\
                 for (int j = 0; j < 10; j++) {\
                   if (i * 10 + j == 23) { return i * 10 + j; }\
                 }\
               }\
               return -1;\
             }",
        );
        assert_eq!(v, Value::Int(23));
        // Both loops have stats despite the early return.
        assert_eq!(p.loop_stats.len(), 2);
    }
}
