//! Shared helpers for the design generators.

use crate::CodegenError;
use psa_minicpp::ast::*;
use psa_minicpp::printer;

/// The kernel's outer loop plus the context a generator needs.
pub struct KernelShape<'m> {
    pub func: &'m Function,
    /// The kernel's single outer `for` loop.
    pub outer: &'m ForLoop,
    /// Statements of the kernel body before the outer loop (rare).
    pub prologue: Vec<&'m Stmt>,
}

/// Extract the canonical kernel shape: a function whose body is (mostly)
/// one outer `for` loop — the shape hotspot extraction produces.
pub fn kernel_shape<'m>(module: &'m Module, kernel: &str) -> Result<KernelShape<'m>, CodegenError> {
    let func = module
        .function(kernel)
        .ok_or_else(|| CodegenError::new(format!("no kernel function `{kernel}`")))?;
    let mut outer = None;
    let mut prologue = Vec::new();
    for stmt in &func.body.stmts {
        match &stmt.kind {
            StmtKind::For(l) if outer.is_none() => outer = Some(l),
            _ if outer.is_none() => prologue.push(stmt),
            _ => {
                return Err(CodegenError::new(
                    "kernel has statements after its outer loop; unsupported shape",
                ))
            }
        }
    }
    let outer = outer
        .ok_or_else(|| CodegenError::new(format!("kernel `{kernel}` contains no outer loop")))?;
    Ok(KernelShape {
        func,
        outer,
        prologue,
    })
}

/// Render a block's statements at the given indent level (4 spaces per
/// level), reusing the MiniC++ printer per statement.
pub fn render_block(block: &Block, indent: usize) -> String {
    let mut out = String::new();
    let pad = "    ".repeat(indent);
    for stmt in &block.stmts {
        let text = printer::print_stmt(stmt);
        for line in text.lines() {
            out.push_str(&pad);
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Render a single statement at an indent level.
pub fn render_stmt(stmt: &Stmt, indent: usize) -> String {
    let pad = "    ".repeat(indent);
    printer::print_stmt(stmt)
        .lines()
        .map(|l| format!("{pad}{l}\n"))
        .collect()
}

/// Find the allocation-length expression of a pointer variable in the host
/// code: the `expr` of `double* name = alloc_double(expr);`. Generators use
/// it to size device buffers and transfers.
pub fn alloc_extent(module: &Module, var: &str) -> Option<String> {
    for item in &module.items {
        let Item::Function(f) = item else { continue };
        if let Some(e) = find_alloc_in_block(&f.body, var) {
            return Some(e);
        }
    }
    None
}

fn find_alloc_in_block(block: &Block, var: &str) -> Option<String> {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Decl(d) if d.name == var => {
                if let Some(init) = &d.init {
                    if let ExprKind::Call { callee, args } = &init.kind {
                        if callee.starts_with("alloc_") && args.len() == 1 {
                            return Some(printer::print_expr(&args[0]));
                        }
                    }
                }
            }
            StmtKind::For(l) => {
                if let Some(e) = find_alloc_in_block(&l.body, var) {
                    return Some(e);
                }
            }
            StmtKind::If { then, els, .. } => {
                if let Some(e) = find_alloc_in_block(then, var) {
                    return Some(e);
                }
                if let Some(els) = els {
                    if let Some(e) = find_alloc_in_block(els, var) {
                        return Some(e);
                    }
                }
            }
            StmtKind::While { body, .. } | StmtKind::Block(body) => {
                if let Some(e) = find_alloc_in_block(body, var) {
                    return Some(e);
                }
            }
            _ => {}
        }
    }
    None
}

/// Render everything in the module *except* the kernel function, replacing
/// the kernel call statement with `replacement_call` (a full line of code,
/// e.g. `launch_knl(a, b, n);`).
pub fn render_host_without_kernel(module: &Module, kernel: &str, replacement_call: &str) -> String {
    let mut host = String::new();
    for item in &module.items {
        match item {
            Item::Function(f) if f.name == kernel => continue,
            Item::Function(f) => {
                let printed = printer::print_function(f);
                // Swap the kernel call line.
                for line in printed.lines() {
                    let trimmed = line.trim_start();
                    if trimmed.starts_with(&format!("{kernel}(")) {
                        let indent = &line[..line.len() - trimmed.len()];
                        host.push_str(indent);
                        host.push_str(replacement_call);
                        host.push('\n');
                    } else {
                        host.push_str(line);
                        host.push('\n');
                    }
                }
                host.push('\n');
            }
            Item::Global(s) => {
                host.push_str(&printer::print_stmt(s));
                host.push('\n');
            }
        }
    }
    host
}

/// C parameter list for a function.
pub fn param_list(func: &Function) -> String {
    func.params
        .iter()
        .map(|p| format!("{} {}", p.ty, p.name))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Argument name list for calling a function.
pub fn arg_list(func: &Function) -> String {
    func.params
        .iter()
        .map(|p| p.name.clone())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_minicpp::parse_module;

    const APP: &str = "void knl(double* a, int n) { for (int i = 0; i < n; i++) { a[i] = 0.0; } }\
                       int main() { int n = 8; double* a = alloc_double(n * 2); knl(a, n); return 0; }";

    #[test]
    fn kernel_shape_extracts_outer_loop() {
        let m = parse_module(APP, "t").unwrap();
        let shape = kernel_shape(&m, "knl").unwrap();
        assert_eq!(shape.outer.var, "i");
        assert!(shape.prologue.is_empty());
        assert_eq!(param_list(shape.func), "double* a, int n");
        assert_eq!(arg_list(shape.func), "a, n");
    }

    #[test]
    fn kernel_shape_rejects_nonkernels() {
        let m = parse_module(APP, "t").unwrap();
        assert!(kernel_shape(&m, "missing").is_err());
        let m2 = parse_module("void f() { int x = 0; sink(x); }", "t").unwrap();
        assert!(kernel_shape(&m2, "f").is_err());
    }

    #[test]
    fn alloc_extent_finds_the_expression() {
        let m = parse_module(APP, "t").unwrap();
        assert_eq!(alloc_extent(&m, "a").unwrap(), "n * 2");
        assert!(alloc_extent(&m, "zz").is_none());
    }

    #[test]
    fn host_rendering_replaces_the_call() {
        let m = parse_module(APP, "t").unwrap();
        let host = render_host_without_kernel(&m, "knl", "launch_knl(a, n);");
        assert!(host.contains("launch_knl(a, n);"), "{host}");
        assert!(!host.contains("void knl("), "{host}");
        assert!(host.contains("int main()"), "{host}");
    }
}
