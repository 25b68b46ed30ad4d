//! The MiniC++ abstract syntax tree.
//!
//! Design goals, mirroring what the paper needs from Artisan ASTs:
//!
//! * **Stable node identity** — every statement, expression, block and
//!   function carries a [`NodeId`] unique within its [`Module`], so query
//!   results remain valid handles across the analysis → decision → transform
//!   pipeline of a design-flow.
//! * **No lowering** — the tree mirrors the source as written (canonical
//!   `for` loops stay `for` loops, pragmas stay attached to their statement),
//!   so the printer reproduces human-readable code that "can be further
//!   hand-tuned if desired".
//! * **Cheap structural edits** — transforms clone and splice subtrees;
//!   [`Module::refresh_stmt_ids`] re-keys cloned subtrees so identity stays
//!   unique.

use crate::span::Span;
use std::fmt;

/// Unique identifier of an AST node within one [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Scalar type kinds. MiniC++ has no user-defined aggregates; benchmark data
/// is structure-of-arrays, as is idiomatic for accelerator kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scalar {
    Void,
    Bool,
    Int,
    /// 32-bit float (`float`). Produced by the "Employ SP" transforms.
    Float,
    /// 64-bit float (`double`). The default in reference descriptions.
    Double,
}

impl Scalar {
    /// Size in bytes when stored in memory (used by the data-movement
    /// analysis and the platform transfer models).
    pub fn size_bytes(self) -> u64 {
        match self {
            Scalar::Void => 0,
            Scalar::Bool => 1,
            Scalar::Int => 8,
            Scalar::Float => 4,
            Scalar::Double => 8,
        }
    }

    pub fn is_floating(self) -> bool {
        matches!(self, Scalar::Float | Scalar::Double)
    }

    /// C spelling.
    pub fn c_name(self) -> &'static str {
        match self {
            Scalar::Void => "void",
            Scalar::Bool => "bool",
            Scalar::Int => "int",
            Scalar::Float => "float",
            Scalar::Double => "double",
        }
    }
}

/// A (possibly pointer) type: `scalar` + pointer depth, e.g. `double*` is
/// `Type { scalar: Double, ptr: 1 }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Type {
    pub scalar: Scalar,
    /// Pointer indirection depth (0 = value, 1 = `T*`).
    pub ptr: u8,
    /// `const`-qualified (read-only kernel inputs).
    pub is_const: bool,
}

impl Type {
    pub const fn scalar(scalar: Scalar) -> Type {
        Type {
            scalar,
            ptr: 0,
            is_const: false,
        }
    }

    pub const fn pointer(scalar: Scalar) -> Type {
        Type {
            scalar,
            ptr: 1,
            is_const: false,
        }
    }

    pub fn with_const(mut self) -> Type {
        self.is_const = true;
        self
    }

    pub fn is_pointer(&self) -> bool {
        self.ptr > 0
    }

    pub const DOUBLE: Type = Type::scalar(Scalar::Double);
    pub const FLOAT: Type = Type::scalar(Scalar::Float);
    pub const INT: Type = Type::scalar(Scalar::Int);
    pub const BOOL: Type = Type::scalar(Scalar::Bool);
    pub const VOID: Type = Type::scalar(Scalar::Void);
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_const {
            write!(f, "const ")?;
        }
        write!(f, "{}", self.scalar.c_name())?;
        for _ in 0..self.ptr {
            write!(f, "*")?;
        }
        Ok(())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical not `!e`.
    Not,
}

/// Binary operators, in MiniC++ surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    pub fn is_arith(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
        )
    }

    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Compound-assignment operators on statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Set,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
}

impl AssignOp {
    pub fn symbol(self) -> &'static str {
        match self {
            AssignOp::Set => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
        }
    }

    /// The binary operator a compound assignment desugars to, if any.
    pub fn bin_op(self) -> Option<BinOp> {
        match self {
            AssignOp::Set => None,
            AssignOp::Add => Some(BinOp::Add),
            AssignOp::Sub => Some(BinOp::Sub),
            AssignOp::Mul => Some(BinOp::Mul),
            AssignOp::Div => Some(BinOp::Div),
        }
    }
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub id: NodeId,
    pub span: Span,
    pub kind: ExprKind,
}

/// Expression payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    IntLit(i64),
    FloatLit {
        value: f64,
        /// `true` for single-precision (`f`-suffixed) literals.
        single: bool,
    },
    BoolLit(bool),
    /// Variable reference.
    Ident(String),
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Function or intrinsic call by name.
    Call {
        callee: String,
        args: Vec<Expr>,
    },
    /// Array subscript `base[index]`.
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
    },
    /// C-style cast `(double)e`.
    Cast {
        ty: Type,
        expr: Box<Expr>,
    },
    /// Conditional `c ? t : e`.
    Ternary {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Box<Expr>,
    },
}

impl Expr {
    /// If this expression is a bare identifier, return its name.
    pub fn as_ident(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Ident(name) => Some(name),
            _ => None,
        }
    }

    /// If this expression is an integer constant, return its value.
    /// Folds through unary negation (`-1` parses as `Neg(IntLit(1))`).
    pub fn as_int(&self) -> Option<i64> {
        match &self.kind {
            ExprKind::IntLit(v) => Some(*v),
            ExprKind::Unary {
                op: UnOp::Neg,
                expr,
            } => expr.as_int().map(|v| -v),
            _ => None,
        }
    }

    /// The base array name of an lvalue (`a` for both `a` and `a[i]`,
    /// `a[i][j]`).
    pub fn lvalue_base(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Ident(name) => Some(name),
            ExprKind::Index { base, .. } => base.lvalue_base(),
            _ => None,
        }
    }
}

/// A `#pragma` directive attached to a statement or function.
#[derive(Debug, Clone, PartialEq)]
pub struct Pragma {
    pub id: NodeId,
    pub span: Span,
    /// Text after `#pragma`, e.g. `omp parallel for` or `unroll 4`.
    pub text: String,
}

impl Pragma {
    /// First whitespace-separated word of the pragma, e.g. `omp`, `unroll`.
    pub fn head(&self) -> &str {
        self.text.split_whitespace().next().unwrap_or("")
    }

    /// For `unroll N` pragmas, the factor N (absent means full unroll hint).
    pub fn unroll_factor(&self) -> Option<u64> {
        if self.head() != "unroll" {
            return None;
        }
        self.text.split_whitespace().nth(1)?.parse().ok()
    }
}

/// A variable declaration, local or parameter-like.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    pub id: NodeId,
    pub span: Span,
    pub ty: Type,
    pub name: String,
    /// Fixed-size local array length (`double acc[3];`).
    pub array_len: Option<Expr>,
    pub init: Option<Expr>,
}

/// A canonical counted loop:
/// `for (int i = init; i <cond_op> bound; i += step) body`.
///
/// Keeping loops canonical (rather than lowering to `while`) is what makes
/// trip-count reasoning, unrolling and `parallel for` code generation direct,
/// exactly as the paper's loop-oriented tasks assume.
#[derive(Debug, Clone, PartialEq)]
pub struct ForLoop {
    pub id: NodeId,
    pub span: Span,
    /// Whether the induction variable is declared in the loop header
    /// (`for (int i = ...` vs `for (i = ...`).
    pub declares_var: bool,
    /// Induction variable name.
    pub var: String,
    /// Initial value expression.
    pub init: Expr,
    /// Comparison operator in the condition (`<`, `<=`, `>`, `>=`, `!=`).
    pub cond_op: BinOp,
    /// Loop bound expression.
    pub bound: Expr,
    /// Per-iteration stride; `i++` parses as stride literal `1`,
    /// `i -= 2` as stride `2` with [`ForLoop::step_negative`] set.
    pub step: Expr,
    /// `true` if the step subtracts (`i--` / `i -= e`).
    pub step_negative: bool,
    pub body: Block,
}

impl ForLoop {
    /// Static trip count if init/bound/step are all integer literals.
    pub fn static_trip_count(&self) -> Option<u64> {
        let init = self.init.as_int()?;
        let bound = self.bound.as_int()?;
        let step = self.step.as_int()?;
        if step <= 0 {
            return None;
        }
        let (lo, hi, inclusive) = match (self.cond_op, self.step_negative) {
            (BinOp::Lt, false) => (init, bound, false),
            (BinOp::Le, false) => (init, bound, true),
            (BinOp::Gt, true) => (bound, init, false),
            (BinOp::Ge, true) => (bound, init, true),
            _ => return None,
        };
        if hi < lo {
            return Some(0);
        }
        let width = (hi - lo) as u64 + u64::from(inclusive);
        if width == 0 {
            return Some(0);
        }
        Some(width.div_ceil(step as u64))
    }
}

/// Statement node: pragmas attached before it, plus the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub id: NodeId,
    pub span: Span,
    /// Pragmas written (or inserted by instrumentation) directly above.
    pub pragmas: Vec<Pragma>,
    pub kind: StmtKind,
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    Decl(VarDecl),
    /// `target op value;` where target is an lvalue (ident or index chain).
    Assign {
        target: Expr,
        op: AssignOp,
        value: Expr,
    },
    /// Expression statement (function/intrinsic call for effect).
    Expr(Expr),
    If {
        cond: Expr,
        then: Block,
        els: Option<Block>,
    },
    For(ForLoop),
    While {
        cond: Expr,
        body: Block,
    },
    Return(Option<Expr>),
    Break,
    Continue,
    /// A nested bare block `{ ... }`.
    Block(Block),
}

/// A brace-delimited statement sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub id: NodeId,
    pub span: Span,
    pub stmts: Vec<Stmt>,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub id: NodeId,
    pub span: Span,
    pub ty: Type,
    pub name: String,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub id: NodeId,
    pub span: Span,
    pub pragmas: Vec<Pragma>,
    pub ret: Type,
    pub name: String,
    pub params: Vec<Param>,
    pub body: Block,
}

/// Top-level items.
#[allow(clippy::large_enum_variant)]
// modules hold few items; boxing
// functions would complicate every
// query for no measurable gain
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Function(Function),
    /// Module-level constant/variable.
    Global(Stmt),
}

/// A parsed translation unit plus its node-id allocator.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module (file) name, used in diagnostics and reports.
    pub name: String,
    pub items: Vec<Item>,
    /// Next free node id; transforms draw fresh ids from here.
    pub next_id: u32,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            items: Vec::new(),
            next_id: 0,
        }
    }

    /// Allocate a fresh node id.
    pub fn fresh_id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.items.iter().find_map(|item| match item {
            Item::Function(f) if f.name == name => Some(f),
            _ => None,
        })
    }

    /// Find a function by name, mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.items.iter_mut().find_map(|item| match item {
            Item::Function(f) if f.name == name => Some(f),
            _ => None,
        })
    }

    /// Names of all functions, in definition order.
    pub fn function_names(&self) -> Vec<&str> {
        self.items
            .iter()
            .filter_map(|item| match item {
                Item::Function(f) => Some(f.name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Re-key every node id in a cloned statement subtree with fresh ids so
    /// that node identity remains unique module-wide. Used by transforms
    /// that duplicate code (loop unrolling, kernel extraction).
    pub fn refresh_stmt_ids(&mut self, stmt: &mut Stmt) {
        refresh_stmt_ids(&mut self.next_id, stmt);
    }

    /// Re-key every node id in a cloned expression subtree.
    pub fn refresh_expr_ids(&mut self, expr: &mut Expr) {
        refresh_expr_ids(&mut self.next_id, expr);
    }
}

/// Free-function form of id refreshing, usable while other parts of the
/// module are mutably borrowed (editors splice statements into blocks they
/// hold `&mut` references to).
pub fn refresh_stmt_ids(next_id: &mut u32, stmt: &mut Stmt) {
    let mut fresh = || {
        let id = NodeId(*next_id);
        *next_id += 1;
        id
    };
    stmt.id = fresh();
    for p in &mut stmt.pragmas {
        p.id = fresh();
    }
    match &mut stmt.kind {
        StmtKind::Decl(d) => {
            d.id = fresh();
            if let Some(e) = &mut d.array_len {
                refresh_expr_ids(next_id, e);
            }
            if let Some(e) = &mut d.init {
                refresh_expr_ids(next_id, e);
            }
        }
        StmtKind::Assign { target, value, .. } => {
            refresh_expr_ids(next_id, target);
            refresh_expr_ids(next_id, value);
        }
        StmtKind::Expr(e) => refresh_expr_ids(next_id, e),
        StmtKind::If { cond, then, els } => {
            refresh_expr_ids(next_id, cond);
            refresh_block_ids(next_id, then);
            if let Some(els) = els {
                refresh_block_ids(next_id, els);
            }
        }
        StmtKind::For(f) => {
            f.id = NodeId(*next_id);
            *next_id += 1;
            refresh_expr_ids(next_id, &mut f.init);
            refresh_expr_ids(next_id, &mut f.bound);
            refresh_expr_ids(next_id, &mut f.step);
            refresh_block_ids(next_id, &mut f.body);
        }
        StmtKind::While { cond, body } => {
            refresh_expr_ids(next_id, cond);
            refresh_block_ids(next_id, body);
        }
        StmtKind::Return(e) => {
            if let Some(e) = e {
                refresh_expr_ids(next_id, e);
            }
        }
        StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Block(b) => refresh_block_ids(next_id, b),
    }
}

/// Re-key a block subtree; see [`refresh_stmt_ids`].
pub fn refresh_block_ids(next_id: &mut u32, block: &mut Block) {
    block.id = NodeId(*next_id);
    *next_id += 1;
    for s in &mut block.stmts {
        refresh_stmt_ids(next_id, s);
    }
}

/// Re-key an expression subtree; see [`refresh_stmt_ids`].
pub fn refresh_expr_ids(next_id: &mut u32, expr: &mut Expr) {
    expr.id = NodeId(*next_id);
    *next_id += 1;
    match &mut expr.kind {
        ExprKind::Unary { expr, .. } => refresh_expr_ids(next_id, expr),
        ExprKind::Binary { lhs, rhs, .. } => {
            refresh_expr_ids(next_id, lhs);
            refresh_expr_ids(next_id, rhs);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                refresh_expr_ids(next_id, a);
            }
        }
        ExprKind::Index { base, index } => {
            refresh_expr_ids(next_id, base);
            refresh_expr_ids(next_id, index);
        }
        ExprKind::Cast { expr, .. } => refresh_expr_ids(next_id, expr),
        ExprKind::Ternary { cond, then, els } => {
            refresh_expr_ids(next_id, cond);
            refresh_expr_ids(next_id, then);
            refresh_expr_ids(next_id, els);
        }
        ExprKind::IntLit(_)
        | ExprKind::FloatLit { .. }
        | ExprKind::BoolLit(_)
        | ExprKind::Ident(_) => {}
    }
}

/// Convenience constructors for synthesising AST fragments inside transforms.
/// All nodes get synthetic spans; callers are expected to run the resulting
/// fragments through [`Module::refresh_stmt_ids`] (the constructors use a
/// placeholder id of `u32::MAX`, which trips debug assertions if forgotten).
pub mod build {
    use super::*;

    const PLACEHOLDER: NodeId = NodeId(u32::MAX);

    pub fn int(value: i64) -> Expr {
        Expr {
            id: PLACEHOLDER,
            span: Span::SYNTHETIC,
            kind: ExprKind::IntLit(value),
        }
    }

    pub fn float(value: f64) -> Expr {
        Expr {
            id: PLACEHOLDER,
            span: Span::SYNTHETIC,
            kind: ExprKind::FloatLit {
                value,
                single: false,
            },
        }
    }

    pub fn ident(name: impl Into<String>) -> Expr {
        Expr {
            id: PLACEHOLDER,
            span: Span::SYNTHETIC,
            kind: ExprKind::Ident(name.into()),
        }
    }

    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr {
            id: PLACEHOLDER,
            span: Span::SYNTHETIC,
            kind: ExprKind::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
        }
    }

    pub fn call(callee: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr {
            id: PLACEHOLDER,
            span: Span::SYNTHETIC,
            kind: ExprKind::Call {
                callee: callee.into(),
                args,
            },
        }
    }

    pub fn index(base: Expr, idx: Expr) -> Expr {
        Expr {
            id: PLACEHOLDER,
            span: Span::SYNTHETIC,
            kind: ExprKind::Index {
                base: Box::new(base),
                index: Box::new(idx),
            },
        }
    }

    pub fn expr_stmt(expr: Expr) -> Stmt {
        Stmt {
            id: PLACEHOLDER,
            span: Span::SYNTHETIC,
            pragmas: Vec::new(),
            kind: StmtKind::Expr(expr),
        }
    }

    pub fn assign(target: Expr, op: AssignOp, value: Expr) -> Stmt {
        Stmt {
            id: PLACEHOLDER,
            span: Span::SYNTHETIC,
            pragmas: Vec::new(),
            kind: StmtKind::Assign { target, op, value },
        }
    }

    pub fn pragma(text: impl Into<String>) -> Pragma {
        Pragma {
            id: PLACEHOLDER,
            span: Span::SYNTHETIC,
            text: text.into(),
        }
    }

    pub fn block(stmts: Vec<Stmt>) -> Block {
        Block {
            id: PLACEHOLDER,
            span: Span::SYNTHETIC,
            stmts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    #[test]
    fn static_trip_count_cases() {
        let m = parse_module(
            "void f() {\
               for (int i = 0; i < 10; i++) { }\
               for (int j = 0; j <= 10; j += 2) { }\
               for (int k = 10; k > 0; k--) { }\
               for (int l = 0; l < 0; l++) { }\
             }",
            "t",
        )
        .unwrap();
        let f = m.function("f").unwrap();
        let counts: Vec<Option<u64>> = f
            .body
            .stmts
            .iter()
            .map(|s| match &s.kind {
                StmtKind::For(l) => l.static_trip_count(),
                _ => None,
            })
            .collect();
        assert_eq!(counts, vec![Some(10), Some(6), Some(10), Some(0)]);
    }

    #[test]
    fn runtime_bound_has_no_static_trip_count() {
        let m = parse_module("void f(int n) { for (int i = 0; i < n; i++) { } }", "t").unwrap();
        let f = m.function("f").unwrap();
        match &f.body.stmts[0].kind {
            StmtKind::For(l) => assert_eq!(l.static_trip_count(), None),
            _ => panic!("expected for"),
        }
    }

    #[test]
    fn refresh_ids_makes_all_ids_unique() {
        let mut m = parse_module(
            "void f() { for (int i = 0; i < 4; i++) { int x = i; } }",
            "t",
        )
        .unwrap();
        let mut stmt = match &m.function("f").unwrap().body.stmts[0].kind {
            StmtKind::For(_) => m.function("f").unwrap().body.stmts[0].clone(),
            _ => panic!(),
        };
        let before = m.next_id;
        m.refresh_stmt_ids(&mut stmt);
        assert!(m.next_id > before);
        // The clone's ids must all be >= the original allocator mark.
        assert!(stmt.id.0 >= before);
    }

    #[test]
    fn pragma_helpers() {
        let p = build::pragma("unroll 8");
        assert_eq!(p.head(), "unroll");
        assert_eq!(p.unroll_factor(), Some(8));
        let omp = build::pragma("omp parallel for");
        assert_eq!(omp.head(), "omp");
        assert_eq!(omp.unroll_factor(), None);
        let bare = build::pragma("unroll");
        assert_eq!(bare.unroll_factor(), None);
    }

    #[test]
    fn lvalue_base_sees_through_indexing() {
        let m = parse_module("void f(double* a) { a[1] = 2.0; }", "t").unwrap();
        let f = m.function("f").unwrap();
        match &f.body.stmts[0].kind {
            StmtKind::Assign { target, .. } => {
                assert_eq!(target.lvalue_base(), Some("a"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::pointer(Scalar::Double).to_string(), "double*");
        assert_eq!(Type::INT.to_string(), "int");
        assert_eq!(
            Type::pointer(Scalar::Float).with_const().to_string(),
            "const float*"
        );
    }
}
