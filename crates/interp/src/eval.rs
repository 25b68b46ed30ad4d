//! The tree-walking evaluator.
//!
//! Executes a [`psa_minicpp::Module`] under the virtual-clock cost model,
//! producing a [`Profile`]. Control flow is structured (no goto in MiniC++),
//! so `break`/`continue`/`return` propagate as an internal `Flow` value.

use crate::error::{RuntimeError, RuntimeResult};
use crate::intrinsics::{self, Intrinsic};
use crate::loopwatch::{LoopWatch, LoopWatcher};
use crate::memory::Memory;
use crate::ops::{self, BinCosts, IntrinsicCtx};
use crate::profile::{CostModel, Profile};
use crate::value::{Pointer, Value};
use psa_minicpp::ast::*;
use psa_minicpp::Span;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Which execution engine runs the program.
///
/// Both engines produce bit-identical observables (results, profiles,
/// memory, errors) — the choice only affects host-side wall-clock time, so
/// it deliberately does **not** participate in [`RunConfig::content_hash`]
/// and cached artefacts are engine-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Compile to slot-resolved bytecode and run on the VM (fast path).
    Vm,
    /// Walk the AST directly (reference semantics / differential oracle).
    Tree,
}

static DEFAULT_ENGINE: OnceLock<Engine> = OnceLock::new();

impl Engine {
    /// The process-wide default engine: whatever was pinned first by
    /// [`set_default_engine`], else `PSA_INTERP_ENGINE=tree` from the
    /// environment, else the VM.
    pub fn default_engine() -> Engine {
        *DEFAULT_ENGINE.get_or_init(|| match std::env::var("PSA_INTERP_ENGINE") {
            Ok(v) if v == "tree" => Engine::Tree,
            _ => Engine::Vm,
        })
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::default_engine()
    }
}

/// Pin the process-wide default engine (e.g. from a `--engine` CLI flag)
/// before any `RunConfig::default()` is built. Returns `false` if the
/// default was already resolved — first caller wins.
pub fn set_default_engine(engine: Engine) -> bool {
    DEFAULT_ENGINE.set(engine).is_ok()
}

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub cost_model: CostModel,
    /// Hard cap on virtual cycles (runaway guard).
    pub max_cycles: u64,
    /// Hard cap on call depth.
    pub max_call_depth: usize,
    /// Function whose execution is traced for kernel-scoped metrics
    /// (data-in/out, kernel FLOPs/bytes, per-buffer access ranges).
    pub watch_function: Option<String>,
    /// Execution engine. Semantically invisible (see [`Engine`]); excluded
    /// from the cache key.
    pub engine: Engine,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cost_model: CostModel::default(),
            max_cycles: 20_000_000_000,
            max_call_depth: 128,
            watch_function: None,
            engine: Engine::default(),
        }
    }
}

/// Result of executing a statement.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// One call frame: a stack of lexical scopes.
struct Frame {
    scopes: Vec<HashMap<String, Value>>,
}

impl Frame {
    fn new() -> Self {
        Frame {
            scopes: vec![HashMap::new()],
        }
    }

    fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    fn define(&mut self, name: &str, value: Value) {
        self.scopes
            .last_mut()
            .expect("frame has a scope")
            .insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> Option<Value> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn set(&mut self, name: &str, value: Value) -> bool {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = value;
                return true;
            }
        }
        false
    }
}

/// The interpreter. Borrow the module immutably; owns memory and profile.
pub struct Interpreter<'m> {
    module: &'m Module,
    /// The memory arena, public so harnesses can set up and inspect data.
    pub memory: Memory,
    profile: Profile,
    config: RunConfig,
    /// Operator costs copied out of the cost model once — the binop/unop
    /// hot paths must not clone the full [`CostModel`] per operation.
    bin_costs: BinCosts,
    /// Open watch windows: watched-function activations, or an open
    /// loop-watch window. Memory accesses record kernel access ranges
    /// while it is non-zero.
    watch_depth: usize,
    call_depth: usize,
    kernel_snapshot: Option<(u64, u64, u64, u64)>,
    loop_watch: Option<(LoopWatch, LoopWatcher)>,
    globals: HashMap<String, Value>,
    heap_count: u32,
}

impl<'m> Interpreter<'m> {
    pub fn new(module: &'m Module, config: RunConfig) -> Self {
        let bin_costs = BinCosts::of(&config.cost_model);
        Interpreter {
            module,
            memory: Memory::new(),
            profile: Profile::default(),
            config,
            bin_costs,
            watch_depth: 0,
            call_depth: 0,
            kernel_snapshot: None,
            loop_watch: None,
            globals: HashMap::new(),
            heap_count: 0,
        }
    }

    /// Watch `watch`'s loops in the runs that follow (see
    /// [`crate::loopwatch`]). A loop watch and a function watch share the
    /// kernel access tracking, so `config.watch_function` must be `None`.
    pub fn watch_loops(&mut self, watch: LoopWatch) {
        assert!(
            self.config.watch_function.is_none(),
            "a loop watch excludes a function watch"
        );
        let watcher = LoopWatcher::new(&watch, &mut self.profile);
        self.loop_watch = Some((watch, watcher));
    }

    /// The accumulated profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Consume the interpreter, returning profile and memory.
    pub fn into_parts(self) -> (Profile, Memory) {
        (self.profile, self.memory)
    }

    /// Execute module globals then `main()`.
    pub fn run_main(&mut self) -> RuntimeResult<Value> {
        self.init_globals()?;
        self.call_by_name("main", Vec::new(), Span::SYNTHETIC)
    }

    /// Initialise module-level globals (idempotent).
    pub fn init_globals(&mut self) -> RuntimeResult<()> {
        if !self.globals.is_empty() {
            return Ok(());
        }
        let mut frame = Frame::new();
        for item in &self.module.items {
            if let Item::Global(stmt) = item {
                if let StmtKind::Decl(d) = &stmt.kind {
                    self.exec_decl(d, &mut frame)?;
                    if let Some(v) = frame.get(&d.name) {
                        self.globals.insert(d.name.clone(), v);
                    }
                }
            }
        }
        Ok(())
    }

    /// Call a function by name with pre-built argument values. Used both by
    /// internal calls and by analysis harnesses invoking extracted kernels.
    pub fn call_by_name(
        &mut self,
        name: &str,
        args: Vec<Value>,
        span: Span,
    ) -> RuntimeResult<Value> {
        if let Some(func) = self.module.function(name) {
            return self.call_user(func, args, span);
        }
        match intrinsics::lookup(name) {
            Some(intr) => self.call_intrinsic(name, intr, &args, span),
            None => Err(RuntimeError::Unbound {
                name: name.to_string(),
                span,
            }),
        }
    }

    fn call_user(
        &mut self,
        func: &'m Function,
        args: Vec<Value>,
        span: Span,
    ) -> RuntimeResult<Value> {
        if self.call_depth >= self.config.max_call_depth {
            return Err(RuntimeError::StackOverflow {
                depth: self.config.max_call_depth,
            });
        }
        if args.len() != func.params.len() {
            return Err(RuntimeError::Type {
                message: format!(
                    "`{}` expects {} arguments, got {}",
                    func.name,
                    func.params.len(),
                    args.len()
                ),
                span,
            });
        }
        self.charge(self.config.cost_model.call)?;

        let watched = self.config.watch_function.as_deref() == Some(func.name.as_str());
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

        let mut frame = Frame::new();
        let mut ptr_args: Vec<(String, Pointer)> = Vec::new();
        for (param, arg) in func.params.iter().zip(args) {
            let coerced = self.coerce(arg, param.ty, param.span)?;
            if watched && self.watch_depth == 1 {
                if let Value::Ptr(p) = coerced {
                    ptr_args.push((param.name.clone(), p));
                }
            }
            frame.define(&param.name, coerced);
        }
        if watched && self.watch_depth == 1 {
            self.profile.kernel_arg_ptrs.push(ptr_args);
        }
        let result = self.exec_block(&func.body, &mut frame);

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

        match result? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Unit),
        }
    }

    fn coerce(&self, value: Value, ty: Type, span: Span) -> RuntimeResult<Value> {
        ops::coerce(value, ty, span)
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

    fn charge(&mut self, cycles: u64) -> RuntimeResult<()> {
        ops::charge(&mut self.profile, self.config.max_cycles, cycles)
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn exec_block(&mut self, block: &'m Block, frame: &mut Frame) -> RuntimeResult<Flow> {
        frame.push();
        let mut flow = Flow::Normal;
        for stmt in &block.stmts {
            flow = self.exec_stmt(stmt, frame)?;
            if !matches!(flow, Flow::Normal) {
                break;
            }
        }
        frame.pop();
        Ok(flow)
    }

    fn exec_decl(&mut self, d: &'m VarDecl, frame: &mut Frame) -> RuntimeResult<()> {
        if let Some(len_expr) = &d.array_len {
            let len = self
                .eval(len_expr, frame)?
                .as_i64()
                .filter(|&n| n >= 0)
                .ok_or_else(|| RuntimeError::Type {
                    message: format!("array length of `{}` must be a non-negative int", d.name),
                    span: d.span,
                })?;
            let id = self.memory.alloc(d.ty.scalar, len as usize, d.name.clone());
            frame.define(
                &d.name,
                Value::Ptr(Pointer {
                    buffer: id,
                    offset: 0,
                }),
            );
            return Ok(());
        }
        let value = match &d.init {
            Some(init) => {
                let v = self.eval(init, frame)?;
                if d.ty.is_pointer() {
                    v
                } else {
                    self.coerce(v, d.ty, d.span)?
                }
            }
            None => match (d.ty.is_pointer(), d.ty.scalar) {
                (true, _) => Value::Ptr(Pointer {
                    buffer: crate::BufferId(u32::MAX),
                    offset: 0,
                }),
                (_, Scalar::Int) => Value::Int(0),
                (_, Scalar::Float) => Value::Float(0.0),
                (_, Scalar::Double) => Value::Double(0.0),
                (_, Scalar::Bool) => Value::Bool(false),
                (_, Scalar::Void) => Value::Unit,
            },
        };
        frame.define(&d.name, value);
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &'m Stmt, frame: &mut Frame) -> RuntimeResult<Flow> {
        match &stmt.kind {
            StmtKind::Decl(d) => {
                self.exec_decl(d, frame)?;
                Ok(Flow::Normal)
            }
            StmtKind::Assign { target, op, value } => {
                self.exec_assign(target, *op, value, frame)?;
                Ok(Flow::Normal)
            }
            StmtKind::Expr(e) => {
                self.eval(e, frame)?;
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then, els } => {
                let c = self.eval_condition(cond, frame)?;
                if c {
                    self.exec_block(then, frame)
                } else if let Some(els) = els {
                    self.exec_block(els, frame)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::For(l) => self.exec_for(l, frame),
            StmtKind::While { cond, body } => self.exec_while(stmt.id, cond, body, frame),
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, frame)?,
                    None => Value::Unit,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Block(b) => self.exec_block(b, frame),
        }
    }

    /// Entry of loop `id`: if it is watched, note the entry and, when it
    /// opens a window, the watched pointer variables' values. Returns the
    /// loop's watch index.
    fn enter_watched_loop(&mut self, id: NodeId, frame: &Frame) -> Option<u32> {
        let (spec, watcher) = self.loop_watch.as_mut()?;
        let watch = spec.index_of(id)?;
        let names = &spec.loops[watch as usize].pointers;
        let pointers = || {
            names
                .iter()
                .filter_map(|n| frame.get(n).map(|v| (n.clone(), v)))
                .collect()
        };
        if watcher.enter(watch, &mut self.profile, pointers) {
            self.watch_depth += 1;
        }
        Some(watch)
    }

    fn exec_for(&mut self, l: &'m ForLoop, frame: &mut Frame) -> RuntimeResult<Flow> {
        let watch = self.enter_watched_loop(l.id, frame);
        let start_cycles = self.profile.total_cycles;
        frame.push();
        let init = self.eval(&l.init, frame)?;
        let init = Value::Int(init.as_i64().ok_or_else(|| RuntimeError::Type {
            message: format!("loop init for `{}` must be integral", l.var),
            span: l.span,
        })?);
        if l.declares_var {
            frame.define(&l.var, init);
        } else if !frame.set(&l.var, init) {
            frame.pop();
            return Err(RuntimeError::Unbound {
                name: l.var.clone(),
                span: l.span,
            });
        }

        let mut iterations = 0u64;
        let mut result = Flow::Normal;
        loop {
            // Condition: i <op> bound.
            let i = frame
                .get(&l.var)
                .expect("induction var bound")
                .as_i64()
                .unwrap_or(0);
            let bound = self
                .eval(&l.bound, frame)?
                .as_i64()
                .ok_or_else(|| RuntimeError::Type {
                    message: "loop bound must be integral".into(),
                    span: l.span,
                })?;
            self.charge(self.config.cost_model.int_op + self.config.cost_model.branch)?;
            self.profile.int_ops += 1;
            let keep = match l.cond_op {
                BinOp::Lt => i < bound,
                BinOp::Le => i <= bound,
                BinOp::Gt => i > bound,
                BinOp::Ge => i >= bound,
                BinOp::Ne => i != bound,
                _ => false,
            };
            if !keep {
                break;
            }
            iterations += 1;
            match self.exec_block(&l.body, frame)? {
                Flow::Normal | Flow::Continue => {}
                Flow::Break => break,
                Flow::Return(v) => {
                    result = Flow::Return(v);
                    break;
                }
            }
            // Step.
            let step = self
                .eval(&l.step, frame)?
                .as_i64()
                .ok_or_else(|| RuntimeError::Type {
                    message: "loop step must be integral".into(),
                    span: l.span,
                })?;
            let next = if l.step_negative { i - step } else { i + step };
            frame.set(&l.var, Value::Int(next));
            self.charge(self.config.cost_model.int_op)?;
            self.profile.int_ops += 1;
        }
        frame.pop();

        let stats = self.profile.loop_stats.entry(l.id).or_default();
        stats.entries += 1;
        stats.iterations += iterations;
        stats.cycles += self.profile.total_cycles - start_cycles;
        if let (Some(watch), Some((_, watcher))) = (watch, self.loop_watch.as_mut()) {
            if watcher.exit(watch, &mut self.profile, &mut self.memory) {
                self.watch_depth -= 1;
            }
        }
        Ok(result)
    }

    fn exec_while(
        &mut self,
        id: NodeId,
        cond: &'m Expr,
        body: &'m Block,
        frame: &mut Frame,
    ) -> RuntimeResult<Flow> {
        let start_cycles = self.profile.total_cycles;
        let mut iterations = 0u64;
        let mut result = Flow::Normal;
        loop {
            if !self.eval_condition(cond, frame)? {
                break;
            }
            iterations += 1;
            match self.exec_block(body, frame)? {
                Flow::Normal | Flow::Continue => {}
                Flow::Break => break,
                Flow::Return(v) => {
                    result = Flow::Return(v);
                    break;
                }
            }
        }
        let stats = self.profile.loop_stats.entry(id).or_default();
        stats.entries += 1;
        stats.iterations += iterations;
        stats.cycles += self.profile.total_cycles - start_cycles;
        Ok(result)
    }

    fn eval_condition(&mut self, cond: &'m Expr, frame: &mut Frame) -> RuntimeResult<bool> {
        let v = self.eval(cond, frame)?;
        self.charge(self.config.cost_model.branch)?;
        v.truthy().ok_or_else(|| RuntimeError::Type {
            message: format!("condition is not boolean-testable ({})", v.type_name()),
            span: cond.span,
        })
    }

    fn exec_assign(
        &mut self,
        target: &'m Expr,
        op: AssignOp,
        value: &'m Expr,
        frame: &mut Frame,
    ) -> RuntimeResult<()> {
        match &target.kind {
            ExprKind::Ident(name) => {
                let rhs = self.eval(value, frame)?;
                let new = match op.bin_op() {
                    None => rhs,
                    Some(bop) => {
                        let old = frame
                            .get(name)
                            .or_else(|| self.globals.get(name).copied())
                            .ok_or_else(|| RuntimeError::Unbound {
                                name: name.clone(),
                                span: target.span,
                            })?;
                        self.apply_binary(bop, old, rhs, target.span)?
                    }
                };
                // Keep the variable's existing type (C assignment converts).
                let current = frame.get(name).or_else(|| self.globals.get(name).copied());
                let converted = ops::convert_assign(current, new, target.span)?;
                if !frame.set(name, converted) {
                    if self.globals.contains_key(name) {
                        self.globals.insert(name.clone(), converted);
                    } else {
                        return Err(RuntimeError::Unbound {
                            name: name.clone(),
                            span: target.span,
                        });
                    }
                }
                Ok(())
            }
            ExprKind::Index { base, index } => {
                let ptr = self
                    .eval(base, frame)?
                    .as_ptr()
                    .ok_or_else(|| RuntimeError::Type {
                        message: "indexed value is not a pointer".into(),
                        span: base.span,
                    })?;
                let idx = self
                    .eval(index, frame)?
                    .as_i64()
                    .ok_or_else(|| RuntimeError::Type {
                        message: "index is not integral".into(),
                        span: index.span,
                    })?;
                self.charge(self.config.cost_model.int_op)?; // address arithmetic
                self.profile.int_ops += 1;
                let addr = ptr.offset + idx;
                let rhs = self.eval(value, frame)?;
                let new = match op.bin_op() {
                    None => rhs,
                    Some(bop) => {
                        let watch = self.watch_depth > 0;
                        let old = self.memory.load(ptr.buffer, addr, target.span, watch)?;
                        self.charge(self.config.cost_model.load)?;
                        self.profile.loads += 1;
                        self.profile.bytes_loaded += self.memory.elem_bytes(ptr.buffer);
                        self.apply_binary(bop, old, rhs, target.span)?
                    }
                };
                let watch = self.watch_depth > 0;
                self.memory
                    .store(ptr.buffer, addr, new, target.span, watch)?;
                self.charge(self.config.cost_model.store)?;
                self.profile.stores += 1;
                self.profile.bytes_stored += self.memory.elem_bytes(ptr.buffer);
                Ok(())
            }
            _ => Err(RuntimeError::Type {
                message: "assignment target is not an lvalue".into(),
                span: target.span,
            }),
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn eval(&mut self, e: &'m Expr, frame: &mut Frame) -> RuntimeResult<Value> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::FloatLit { value, single } => Ok(if *single {
                Value::Float(*value as f32)
            } else {
                Value::Double(*value)
            }),
            ExprKind::BoolLit(b) => Ok(Value::Bool(*b)),
            ExprKind::Ident(name) => frame
                .get(name)
                .or_else(|| self.globals.get(name).copied())
                .ok_or_else(|| RuntimeError::Unbound {
                    name: name.clone(),
                    span: e.span,
                }),
            ExprKind::Unary { op, expr } => {
                let v = self.eval(expr, frame)?;
                ops::apply_unary(
                    &mut self.profile,
                    self.config.max_cycles,
                    self.bin_costs,
                    *op,
                    v,
                    e.span,
                )
            }
            ExprKind::Binary { op, lhs, rhs } => match op {
                BinOp::And => {
                    let l = self.eval_condition(lhs, frame)?;
                    if !l {
                        return Ok(Value::Bool(false));
                    }
                    Ok(Value::Bool(self.eval_condition(rhs, frame)?))
                }
                BinOp::Or => {
                    let l = self.eval_condition(lhs, frame)?;
                    if l {
                        return Ok(Value::Bool(true));
                    }
                    Ok(Value::Bool(self.eval_condition(rhs, frame)?))
                }
                _ => {
                    let l = self.eval(lhs, frame)?;
                    let r = self.eval(rhs, frame)?;
                    self.apply_binary(*op, l, r, e.span)
                }
            },
            ExprKind::Call { callee, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, frame)?);
                }
                self.call_by_name(callee, values, e.span)
            }
            ExprKind::Index { base, index } => {
                let ptr = self
                    .eval(base, frame)?
                    .as_ptr()
                    .ok_or_else(|| RuntimeError::Type {
                        message: "indexed value is not a pointer".into(),
                        span: base.span,
                    })?;
                let idx = self
                    .eval(index, frame)?
                    .as_i64()
                    .ok_or_else(|| RuntimeError::Type {
                        message: "index is not integral".into(),
                        span: index.span,
                    })?;
                self.charge(self.config.cost_model.int_op + self.config.cost_model.load)?;
                self.profile.int_ops += 1;
                self.profile.loads += 1;
                self.profile.bytes_loaded += self.memory.elem_bytes(ptr.buffer);
                let watch = self.watch_depth > 0;
                self.memory
                    .load(ptr.buffer, ptr.offset + idx, e.span, watch)
            }
            ExprKind::Cast { ty, expr } => {
                let v = self.eval(expr, frame)?;
                self.charge(self.config.cost_model.fp_op)?;
                self.coerce(v, *ty, e.span)
            }
            ExprKind::Ternary { cond, then, els } => {
                if self.eval_condition(cond, frame)? {
                    self.eval(then, frame)
                } else {
                    self.eval(els, frame)
                }
            }
        }
    }

    fn apply_binary(&mut self, op: BinOp, l: Value, r: Value, span: Span) -> RuntimeResult<Value> {
        ops::apply_binary(
            &mut self.profile,
            self.config.max_cycles,
            self.bin_costs,
            op,
            l,
            r,
            span,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_minicpp::parse_module;

    fn run(src: &str) -> (Value, Profile) {
        let m = parse_module(src, "t").unwrap();
        let mut interp = Interpreter::new(&m, RunConfig::default());
        let v = interp.run_main().unwrap();
        let (p, _) = interp.into_parts();
        (v, p)
    }

    fn run_value(src: &str) -> Value {
        run(src).0
    }

    #[test]
    fn arithmetic_and_control_flow() {
        assert_eq!(
            run_value(
                "int main() { int s = 0; for (int i = 1; i <= 10; i++) { s += i; } return s; }"
            ),
            Value::Int(55)
        );
        assert_eq!(
            run_value("int main() { int i = 0; while (i < 5) { i++; } return i; }"),
            Value::Int(5)
        );
        assert_eq!(
            run_value("int main() { int s = 0; for (int i = 0; i < 10; i++) { if (i % 2 == 0) { continue; } if (i > 6) { break; } s += i; } return s; }"),
            Value::Int(1 + 3 + 5)
        );
    }

    #[test]
    fn function_calls_and_recursion() {
        assert_eq!(
            run_value("int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } int main() { return fib(10); }"),
            Value::Int(55)
        );
    }

    #[test]
    fn double_vs_float_precision_differs() {
        let d = run_value("double acc(double x) { return x + 0.1; } int main() { double s = 0.0; for (int i = 0; i < 100; i++) { s = acc(s); } return (int)(s * 1000.0); }");
        let f = run_value("float acc(float x) { return x + 0.1f; } int main() { float s = 0.0f; for (int i = 0; i < 100; i++) { s = acc(s); } return (int)(s * 1000.0f); }");
        // Both near 10000, but not necessarily equal — and both must be close.
        let (Value::Int(d), Value::Int(f)) = (d, f) else {
            panic!()
        };
        assert!((d - 10000).abs() < 10, "{d}");
        assert!((f - 10000).abs() < 10, "{f}");
    }

    #[test]
    fn pointer_params_and_aliasing_memory() {
        let (v, _) = run(
            "void scale(double* a, int n, double k) { for (int i = 0; i < n; i++) { a[i] *= k; } }\
             int main() { double* a = alloc_double(4); a[0] = 1.0; a[1] = 2.0; a[2] = 3.0; a[3] = 4.0; scale(a, 4, 2.0); return (int)(a[0] + a[1] + a[2] + a[3]); }",
        );
        assert_eq!(v, Value::Int(20));
    }

    #[test]
    fn pointer_arithmetic_offsets() {
        let (v, _) = run(
            "int main() { double* a = alloc_double(8); double* b = a + 4; b[0] = 7.0; return (int)a[4]; }",
        );
        assert_eq!(v, Value::Int(7));
    }

    #[test]
    fn loop_stats_record_trip_counts() {
        let m = parse_module(
            "int main() { int s = 0; for (int i = 0; i < 6; i++) { for (int j = 0; j < 4; j++) { s += 1; } } return s; }",
            "t",
        )
        .unwrap();
        let mut interp = Interpreter::new(&m, RunConfig::default());
        interp.run_main().unwrap();
        let stats: Vec<_> = {
            let mut v: Vec<_> = interp.profile().loop_stats.values().copied().collect();
            v.sort_by_key(|s| s.entries);
            v
        };
        assert_eq!(stats.len(), 2);
        // Outer: 1 entry, 6 iters. Inner: 6 entries, 24 iters.
        assert_eq!(stats[0].entries, 1);
        assert_eq!(stats[0].iterations, 6);
        assert_eq!(stats[1].entries, 6);
        assert_eq!(stats[1].iterations, 24);
        assert_eq!(stats[1].mean_trip_count(), 4.0);
        // Outer loop cycles strictly contain inner loop cycles.
        assert!(stats[0].cycles > stats[1].cycles);
    }

    #[test]
    fn watched_kernel_collects_scoped_metrics() {
        let m = parse_module(
            "void knl(double* a, double* b, int n) { for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0 + 1.0; } }\
             int main() { double* a = alloc_double(16); double* b = alloc_double(16); fill_random(a, 16, 7); knl(a, b, 16); return 0; }",
            "t",
        )
        .unwrap();
        let config = RunConfig {
            watch_function: Some("knl".into()),
            ..Default::default()
        };
        let mut interp = Interpreter::new(&m, config);
        interp.run_main().unwrap();
        let p = interp.profile();
        assert_eq!(p.kernel_calls, 1);
        assert_eq!(p.kernel_flops, 32); // 16 × (mul + add)
        assert_eq!(p.kernel_bytes_loaded, 16 * 8);
        assert_eq!(p.kernel_bytes_stored, 16 * 8);
        assert!(p.kernel_cycles > 0 && p.kernel_cycles < p.total_cycles);
        // Access ranges were recorded on both buffers.
        let touched = interp.memory.kernel_touched();
        assert_eq!(touched.len(), 2);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let m = parse_module("int main() { int a = 1; int b = 0; return a / b; }", "t").unwrap();
        let mut interp = Interpreter::new(&m, RunConfig::default());
        assert!(matches!(
            interp.run_main(),
            Err(RuntimeError::DivideByZero { .. })
        ));
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let m = parse_module(
            "int main() { double* a = alloc_double(2); a[5] = 1.0; return 0; }",
            "t",
        )
        .unwrap();
        let mut interp = Interpreter::new(&m, RunConfig::default());
        assert!(matches!(
            interp.run_main(),
            Err(RuntimeError::Memory { .. })
        ));
    }

    #[test]
    fn runaway_loops_hit_cycle_budget() {
        let m = parse_module("int main() { while (true) { } return 0; }", "t").unwrap();
        let config = RunConfig {
            max_cycles: 10_000,
            ..Default::default()
        };
        let mut interp = Interpreter::new(&m, config);
        assert!(matches!(
            interp.run_main(),
            Err(RuntimeError::CycleBudgetExhausted { .. })
        ));
    }

    #[test]
    fn deep_recursion_overflows_cleanly() {
        let m = parse_module(
            "int f(int n) { return f(n + 1); } int main() { return f(0); }",
            "t",
        )
        .unwrap();
        let mut interp = Interpreter::new(&m, RunConfig::default());
        assert!(matches!(
            interp.run_main(),
            Err(RuntimeError::StackOverflow { .. })
        ));
    }

    #[test]
    fn globals_are_visible_and_mutable() {
        assert_eq!(
            run_value("int counter = 10;\nvoid bump() { counter += 5; }\nint main() { bump(); bump(); return counter; }"),
            Value::Int(20)
        );
    }

    #[test]
    fn ternary_short_circuits() {
        assert_eq!(
            run_value("int main() { int x = 4; return x > 0 ? 1 : 1 / 0; }"),
            Value::Int(1)
        );
    }

    #[test]
    fn math_intrinsics_work() {
        assert_eq!(
            run_value("int main() { return (int)sqrt(256.0); }"),
            Value::Int(16)
        );
        assert_eq!(
            run_value("int main() { return (int)(exp(0.0) + fmax(2.0, 3.0)); }"),
            Value::Int(4)
        );
    }

    #[test]
    fn determinism_across_runs() {
        let src = "int main() { double* a = alloc_double(64); fill_random(a, 64, 3); double s = 0.0; for (int i = 0; i < 64; i++) { s += a[i]; } return (int)(s * 1000.0); }";
        let a = run(src);
        let b = run(src);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.total_cycles, b.1.total_cycles);
        assert_eq!(a.1.flops, b.1.flops);
    }

    #[test]
    fn user_functions_shadow_intrinsics() {
        // A user-defined `sqrt` takes precedence, like C linkage.
        assert_eq!(
            run_value(
                "double sqrt(double x) { return 99.0; } int main() { return (int)sqrt(4.0); }"
            ),
            Value::Int(99)
        );
    }

    #[test]
    fn break_exits_only_innermost_loop() {
        assert_eq!(
            run_value(
                "int main() { int s = 0; for (int i = 0; i < 3; i++) { for (int j = 0; j < 10; j++) { if (j == 1) { break; } s += 1; } } return s; }"
            ),
            Value::Int(3)
        );
    }

    // ------------------------------------------------------------------
    // Frame scope semantics. The VM's compile-time slot resolution
    // (psa_minicpp::scopes) must replicate exactly these rules; these tests
    // pin them at the source.
    // ------------------------------------------------------------------

    #[test]
    fn frame_inner_scope_shadows_outer() {
        let mut f = Frame::new();
        f.define("x", Value::Int(1));
        f.push();
        f.define("x", Value::Int(2));
        assert_eq!(f.get("x"), Some(Value::Int(2)));
        f.pop();
        assert_eq!(f.get("x"), Some(Value::Int(1)));
    }

    #[test]
    fn frame_set_writes_through_to_the_nearest_binding() {
        let mut f = Frame::new();
        f.define("x", Value::Int(1));
        f.push();
        // No inner `x`: assignment reaches the outer binding...
        assert!(f.set("x", Value::Int(5)));
        f.pop();
        assert_eq!(f.get("x"), Some(Value::Int(5)));
        // ...but once an inner scope shadows, the outer one is untouchable.
        f.push();
        f.define("x", Value::Int(9));
        assert!(f.set("x", Value::Int(7)));
        assert_eq!(f.get("x"), Some(Value::Int(7)));
        f.pop();
        assert_eq!(f.get("x"), Some(Value::Int(5)));
    }

    #[test]
    fn frame_set_fails_on_unknown_names() {
        let mut f = Frame::new();
        assert!(!f.set("nope", Value::Int(0)));
    }

    #[test]
    fn frame_redefine_in_same_scope_overwrites() {
        let mut f = Frame::new();
        f.define("x", Value::Int(1));
        f.define("x", Value::Double(2.0));
        assert_eq!(f.get("x"), Some(Value::Double(2.0)));
        f.pop();
        assert_eq!(f.get("x"), None);
    }

    #[test]
    fn shadowing_program_reads_each_binding_in_its_scope() {
        // Executable version of the Frame tests: inner declaration shadows,
        // assignment inside targets the inner binding, the outer value
        // survives.
        assert_eq!(
            run_value("int main() { int x = 1; { int x = 10; x += 5; } { x += 2; } return x; }"),
            Value::Int(3)
        );
    }

    #[test]
    fn decl_initialiser_sees_the_outer_binding() {
        assert_eq!(
            run_value("int main() { int x = 3; { int x = x * 7; return x; } }"),
            Value::Int(21)
        );
    }

    #[test]
    fn for_induction_variable_is_loop_scoped() {
        // `i` declared by the loop header vanishes after the loop; a
        // same-named outer variable is untouched.
        assert_eq!(
            run_value("int main() { int i = 100; for (int i = 0; i < 3; i++) { } return i; }"),
            Value::Int(100)
        );
    }

    #[test]
    fn non_declaring_for_mutates_the_enclosing_variable() {
        assert_eq!(
            run_value("int main() { int i = 0; for (i = 0; i < 7; i++) { } return i; }"),
            Value::Int(7)
        );
    }

    #[test]
    fn loop_body_declarations_reset_each_iteration() {
        assert_eq!(
            run_value(
                "int main() { int s = 0; for (int i = 0; i < 4; i++) { int t = 1; t += i; s += t; } return s; }"
            ),
            Value::Int(10)
        );
    }
}
