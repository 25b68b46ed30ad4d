//! Table II as data: the capability matrix comparing design approaches
//! that Partition (P), Map (M), and/or Optimise (O) applications onto
//! specialised hardware.

/// Scope of an approach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    Kernel,
    FullApp,
}

impl Scope {
    pub fn label(&self) -> &'static str {
        match self {
            Scope::Kernel => "Kernel",
            Scope::FullApp => "Full App.",
        }
    }
}

/// One row of Table II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Approach {
    pub name: &'static str,
    /// Automated code partitioning.
    pub partition: bool,
    /// Automated device mapping.
    pub map: bool,
    /// Automated optimisation.
    pub optimise: bool,
    /// Supports multiple target families.
    pub multiple_targets: bool,
    pub scope: Scope,
}

/// The full Table II.
pub fn table2() -> Vec<Approach> {
    use Scope::*;
    vec![
        Approach {
            name: "Cross-Platform Frameworks [1]-[3]",
            partition: false,
            map: false,
            optimise: false,
            multiple_targets: true,
            scope: FullApp,
        },
        Approach {
            name: "HeteroCL [10]",
            partition: false,
            map: false,
            optimise: true,
            multiple_targets: false,
            scope: Kernel,
        },
        Approach {
            name: "Halide [11]",
            partition: false,
            map: false,
            optimise: true,
            multiple_targets: false,
            scope: Kernel,
        },
        Approach {
            name: "Delite [12]",
            partition: false,
            map: false,
            optimise: true,
            multiple_targets: true,
            scope: FullApp,
        },
        Approach {
            name: "MLIR [13]",
            partition: false,
            map: false,
            optimise: true,
            multiple_targets: true,
            scope: FullApp,
        },
        Approach {
            name: "HLS DSE [14]-[16], [19]",
            partition: false,
            map: false,
            optimise: true,
            multiple_targets: false,
            scope: Kernel,
        },
        Approach {
            name: "StreamBlocks [20]",
            partition: true,
            map: false,
            optimise: false,
            multiple_targets: false,
            scope: FullApp,
        },
        Approach {
            name: "GenMat [21]",
            partition: false,
            map: true,
            optimise: true,
            multiple_targets: true,
            scope: Kernel,
        },
        Approach {
            name: "Design-Flow Patterns [5]",
            partition: true,
            map: false,
            optimise: true,
            multiple_targets: false,
            scope: FullApp,
        },
        Approach {
            name: "This Work",
            partition: true,
            map: true,
            optimise: true,
            multiple_targets: true,
            scope: FullApp,
        },
    ]
}

/// Render Table II in the paper's layout.
pub fn render_table2() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<38} {:>2} {:>2} {:>2} {:>8} {:>10}\n",
        "Approach", "P", "M", "O", "Multi", "Scope"
    ));
    let tick = |b: bool| if b { "✓" } else { " " };
    for a in table2() {
        out.push_str(&format!(
            "{:<38} {:>2} {:>2} {:>2} {:>8} {:>10}\n",
            a.name,
            tick(a.partition),
            tick(a.map),
            tick(a.optimise),
            tick(a.multiple_targets),
            a.scope.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_work_is_the_only_full_pmo_multi_target_row() {
        let rows = table2();
        let full: Vec<&Approach> = rows
            .iter()
            .filter(|a| a.partition && a.map && a.optimise && a.multiple_targets)
            .collect();
        assert_eq!(full.len(), 1);
        assert_eq!(full[0].name, "This Work");
        assert_eq!(full[0].scope, Scope::FullApp);
    }

    #[test]
    fn matrix_matches_selected_paper_rows() {
        let rows = table2();
        let get = |name: &str| rows.iter().find(|a| a.name.contains(name)).unwrap();
        let genmat = get("GenMat");
        assert!(genmat.map && genmat.optimise && !genmat.partition);
        assert_eq!(genmat.scope, Scope::Kernel);
        let sb = get("StreamBlocks");
        assert!(sb.partition && !sb.map);
        let dfp = get("Design-Flow Patterns");
        assert!(dfp.partition && dfp.optimise && !dfp.map);
    }

    #[test]
    fn render_contains_all_rows() {
        let rendered = render_table2();
        for a in table2() {
            assert!(rendered.contains(a.name), "{rendered}");
        }
    }
}
