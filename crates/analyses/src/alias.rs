//! Dynamic pointer-alias analysis.
//!
//! "dynamic pointer alias analysis to ensure that pointer arguments do not
//! reference overlapping memory locations" (§III). Offloading a kernel
//! whose pointer arguments alias would be unsound for every backend (OpenMP
//! threads, GPU global memory, FPGA bursts all assume disjoint buffers), so
//! a positive verdict here vetoes parallelisation.
//!
//! Because the interpreter's pointers carry provenance, the check is exact
//! for observed executions: two arguments may alias iff they resolve into
//! the same allocation.

use psa_interp::{Pointer, Profile};

/// A pair of kernel pointer parameters observed sharing an allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AliasPair {
    pub param_a: String,
    pub param_b: String,
    /// Which call (0-based) first exhibited the overlap.
    pub call_index: usize,
}

/// The alias report for a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AliasReport {
    /// True if any two pointer parameters may reference overlapping memory.
    pub may_alias: bool,
    /// The offending pairs (empty when `may_alias` is false).
    pub pairs: Vec<AliasPair>,
    /// How many kernel invocations were observed.
    pub calls_observed: usize,
}

/// Analyse the recorded kernel calls of a profiled run.
pub fn analyze_from_run(profile: &Profile) -> AliasReport {
    analyze_calls(&profile.kernel_arg_ptrs)
}

/// Analyse the pointer arguments `(parameter name, pointer)` of each
/// observed kernel call, in call order.
pub fn analyze_calls(calls: &[Vec<(String, Pointer)>]) -> AliasReport {
    let mut pairs = Vec::new();
    for (call_index, args) in calls.iter().enumerate() {
        for i in 0..args.len() {
            for j in (i + 1)..args.len() {
                let (ref name_a, ptr_a) = args[i];
                let (ref name_b, ptr_b) = args[j];
                // Same allocation ⇒ may alias. Offsets could in principle
                // partition a buffer disjointly, but per-parameter access
                // extents are not tracked, so the verdict stays conservative.
                if ptr_a.buffer == ptr_b.buffer {
                    let exists = pairs
                        .iter()
                        .any(|p: &AliasPair| p.param_a == *name_a && p.param_b == *name_b);
                    if !exists {
                        pairs.push(AliasPair {
                            param_a: name_a.clone(),
                            param_b: name_b.clone(),
                            call_index,
                        });
                    }
                }
            }
        }
    }
    AliasReport {
        may_alias: !pairs.is_empty(),
        pairs,
        calls_observed: calls.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic_run;
    use psa_minicpp::parse_module;

    #[test]
    fn disjoint_buffers_do_not_alias() {
        let src = "void knl(double* a, double* b, int n) { for (int i = 0; i < n; i++) { b[i] = a[i]; } }\
                   int main() { double* a = alloc_double(8); double* b = alloc_double(8); knl(a, b, 8); return 0; }";
        let m = parse_module(src, "t").unwrap();
        let run = dynamic_run(&m, "knl").unwrap();
        let report = analyze_from_run(&run.profile);
        assert!(!report.may_alias);
        assert_eq!(report.calls_observed, 1);
    }

    #[test]
    fn same_buffer_aliases() {
        let src = "void knl(double* a, double* b, int n) { for (int i = 0; i < n; i++) { b[i] = a[i]; } }\
                   int main() { double* a = alloc_double(8); knl(a, a + 4, 4); return 0; }";
        let m = parse_module(src, "t").unwrap();
        let run = dynamic_run(&m, "knl").unwrap();
        let report = analyze_from_run(&run.profile);
        assert!(report.may_alias);
        assert_eq!(report.pairs.len(), 1);
        assert_eq!(report.pairs[0].param_a, "a");
        assert_eq!(report.pairs[0].param_b, "b");
    }

    #[test]
    fn multiple_calls_deduplicate_pairs() {
        let src = "void knl(double* a, double* b) { b[0] = a[0]; }\
                   int main() { double* a = alloc_double(2); knl(a, a); knl(a, a); return 0; }";
        let m = parse_module(src, "t").unwrap();
        let run = dynamic_run(&m, "knl").unwrap();
        let report = analyze_from_run(&run.profile);
        assert!(report.may_alias);
        assert_eq!(report.pairs.len(), 1, "pair reported once across calls");
        assert_eq!(report.calls_observed, 2);
    }

    #[test]
    fn scalar_only_kernels_never_alias() {
        let src = "void knl(int n) { sink(n); } int main() { knl(3); return 0; }";
        let m = parse_module(src, "t").unwrap();
        let run = dynamic_run(&m, "knl").unwrap();
        assert!(!analyze_from_run(&run.profile).may_alias);
    }
}
