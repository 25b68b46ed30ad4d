//! Hotspot loop extraction (function outlining) — the partitioning step.
//!
//! "Once a hotspot is identified, it is extracted into an isolated function
//! for further analysis and eventual offloading, replacing the original loop
//! with a function call." (§II-B)

use super::TransformError;
use crate::sym::function_symbols;
use crate::{edit, query};
use psa_minicpp::ast::*;
use psa_minicpp::Span;

/// What extraction produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedKernel {
    /// Name of the new kernel function.
    pub name: String,
    /// Kernel parameters in call order.
    pub params: Vec<(String, Type)>,
    /// Name of the function the hotspot was extracted from.
    pub host: String,
}

/// Extract the `for` loop with statement id `loop_stmt` into a new function
/// `kernel_name`, replacing the loop with a call.
pub fn extract_kernel(
    module: &mut Module,
    loop_stmt: NodeId,
    kernel_name: &str,
) -> Result<ExtractedKernel, TransformError> {
    if module.function(kernel_name).is_some() {
        return Err(TransformError::new(format!(
            "function `{kernel_name}` already exists"
        )));
    }
    let host = query::enclosing_function(module, loop_stmt)
        .ok_or_else(|| TransformError::new(format!("statement {loop_stmt} not in a function")))?
        .name
        .clone();
    let stmt = query::find_stmt(module, loop_stmt).expect("enclosing function implies stmt");
    let StmtKind::For(l) = &stmt.kind else {
        return Err(TransformError::new("extraction target is not a for-loop"));
    };

    // Free variables become the kernel's parameters, in order of first
    // appearance.
    let order = query::free_variables(module, l);

    // Scalar free variables must not be written inside the hotspot — there
    // is no out-parameter mechanism, so refusing keeps extraction sound.
    let func = module.function(&host).expect("host exists");
    let symbols = function_symbols(module, func);
    let ws = query::write_set(&l.body);
    for name in &order {
        let ty = symbols
            .get(name)
            .ok_or_else(|| TransformError::new(format!("cannot type free variable `{name}`")))?;
        if !ty.is_pointer() && ws.scalars.contains(name) {
            return Err(TransformError::new(format!(
                "hotspot writes scalar `{name}` that is live outside the loop; \
                 extraction would change semantics"
            )));
        }
    }
    if symbols.duplicates.iter().any(|d| order.contains(d)) {
        return Err(TransformError::new(
            "free variables of the hotspot are shadowed elsewhere in the function",
        ));
    }

    let params: Vec<(String, Type)> = order
        .iter()
        .map(|name| (name.clone(), symbols.get(name).expect("typed above")))
        .collect();

    // Swap the loop out, replacing it with a call.
    let call_args: Vec<Expr> = order.iter().map(build::ident).collect();
    let call = build::expr_stmt(build::call(kernel_name, call_args));
    let original = edit::replace_stmt(module, loop_stmt, call)?;

    // Build the kernel function around the original loop.
    let mut body_stmt = original;
    module.refresh_stmt_ids(&mut body_stmt);
    let body = Block {
        id: module.fresh_id(),
        span: body_stmt.span,
        stmts: vec![body_stmt],
    };
    let func = Function {
        id: module.fresh_id(),
        span: Span::SYNTHETIC,
        pragmas: vec![Pragma {
            id: module.fresh_id(),
            span: Span::SYNTHETIC,
            text: "psa kernel".to_string(),
        }],
        ret: Type::VOID,
        name: kernel_name.to_string(),
        params: {
            let mut ps = Vec::with_capacity(params.len());
            for (name, ty) in &params {
                ps.push(Param {
                    id: module.fresh_id(),
                    span: Span::SYNTHETIC,
                    ty: *ty,
                    name: name.clone(),
                });
            }
            ps
        },
        body,
    };
    edit::add_function(module, func);

    Ok(ExtractedKernel {
        name: kernel_name.to_string(),
        params,
        host,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_interp::{Interpreter, RunConfig};
    use psa_minicpp::{parse_module, print_module};

    const APP: &str = "int main() {\
        int n = 32;\
        double* a = alloc_double(n);\
        double* b = alloc_double(n);\
        fill_random(a, n, 5);\
        for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0 + 1.0; }\
        double s = 0.0;\
        for (int i = 0; i < n; i++) { s += b[i]; }\
        return (int)s;\
      }";

    fn hotspot(m: &Module) -> NodeId {
        query::loops(m, |l| l.function == "main")[0].stmt_id
    }

    #[test]
    fn extraction_preserves_semantics() {
        let reference = {
            let m = parse_module(APP, "t").unwrap();
            Interpreter::new(&m, RunConfig::default())
                .run_main()
                .unwrap()
        };
        let mut m = parse_module(APP, "t").unwrap();
        let target = hotspot(&m);
        let k = extract_kernel(&mut m, target, "hotspot_0").unwrap();
        assert_eq!(k.host, "main");
        let result = Interpreter::new(&m, RunConfig::default())
            .run_main()
            .unwrap();
        assert_eq!(reference, result);
    }

    #[test]
    fn kernel_signature_covers_free_variables() {
        let mut m = parse_module(APP, "t").unwrap();
        let target = hotspot(&m);
        let k = extract_kernel(&mut m, target, "hotspot_0").unwrap();
        let names: Vec<&str> = k.params.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["n", "b", "a"],
            "first-appearance order: bound, then body"
        );
        let types: Vec<Type> = k.params.iter().map(|(_, t)| *t).collect();
        assert_eq!(types[0], Type::INT);
        assert_eq!(types[1], Type::pointer(Scalar::Double));
        let out = print_module(&m);
        assert!(out.contains("hotspot_0(n, b, a);"), "{out}");
        assert!(
            out.contains("void hotspot_0(int n, double* b, double* a) {"),
            "{out}"
        );
        assert!(out.contains("#pragma psa kernel"), "{out}");
    }

    #[test]
    fn kernel_is_watchable_after_extraction() {
        let mut m = parse_module(APP, "t").unwrap();
        let target = hotspot(&m);
        extract_kernel(&mut m, target, "knl").unwrap();
        let config = RunConfig {
            watch_function: Some("knl".into()),
            ..Default::default()
        };
        let mut interp = Interpreter::new(&m, config);
        interp.run_main().unwrap();
        assert_eq!(interp.profile().kernel_calls, 1);
        assert!(interp.profile().kernel_flops >= 64, "mul+add per element");
    }

    #[test]
    fn refuses_scalar_reduction_hotspots() {
        let mut m = parse_module(APP, "t").unwrap();
        // The second loop reduces into `s` — extraction must refuse.
        let target = query::loops(&m, |_| true)[1].stmt_id;
        let err = extract_kernel(&mut m, target, "bad").unwrap_err();
        assert!(err.to_string().contains("`s`"), "{err}");
    }

    #[test]
    fn refuses_duplicate_kernel_names() {
        let mut m = parse_module(APP, "t").unwrap();
        let target = hotspot(&m);
        extract_kernel(&mut m, target, "knl").unwrap();
        let remaining = query::loops(&m, |l| l.function == "main");
        assert_eq!(remaining.len(), 1);
        assert!(extract_kernel(&mut m, remaining[0].stmt_id, "knl").is_err());
    }

    #[test]
    fn globals_do_not_become_parameters() {
        let src = "double scale = 3.0;\
                   int main() { double* a = alloc_double(4); \
                   for (int i = 0; i < 4; i++) { a[i] = scale; } return (int)a[0]; }";
        let mut m = parse_module(src, "t").unwrap();
        let target = query::loops(&m, |_| true)[0].stmt_id;
        let k = extract_kernel(&mut m, target, "knl").unwrap();
        let names: Vec<&str> = k.params.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a"]);
        let result = Interpreter::new(&m, RunConfig::default())
            .run_main()
            .unwrap();
        assert_eq!(result, psa_interp::Value::Int(3));
    }

    #[test]
    fn extracted_module_reparses() {
        let mut m = parse_module(APP, "t").unwrap();
        let target = hotspot(&m);
        extract_kernel(&mut m, target, "knl").unwrap();
        let out = print_module(&m);
        let re = parse_module(&out, "t").unwrap();
        assert!(re.function("knl").is_some());
    }
}
