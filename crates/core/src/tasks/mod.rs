//! The codified design-flow task repository (the paper's Fig. 4 left-hand
//! table), grouped exactly as the figure groups them:
//!
//! | Group        | Module      |
//! |--------------|-------------|
//! | `T-INDEP`    | [`tindep`]  |
//! | `CPU-OMP`    | [`cpu`]     |
//! | `GPU` / `GPU-1080` / `GPU-2080` | [`gpu`] |
//! | `FPGA` / `FPGA-A10` / `FPGA-S10` | [`fpga`] |

pub mod cpu;
pub mod fpga;
pub mod gpu;
pub mod tindep;

use crate::context::FlowContext;
use crate::flow::FlowError;

/// Make sure the context holds the bundled target-independent analyses of
/// the current kernel, and the single-thread reference time.
///
/// Right after extraction the record is usually there already: hotspot
/// extraction builds it from what the hotspot run observed inside the hot
/// loop, so a cold flow executes the program once. Otherwise (after a
/// rewrite, or when the hotspot run could not stand in for a watch of the
/// kernel) the kernel runs watched once and every analysis task shares that
/// run. Records and runs are memoized in the flow's shared evaluation cache
/// (keyed by the module's structural fingerprint), so sibling branch paths
/// and repeated flows over the same program state skip the execution
/// entirely.
pub fn ensure_analysis(ctx: &mut FlowContext) -> Result<(), FlowError> {
    if ctx.analysis.is_none() {
        let kernel = ctx.kernel_name()?.to_string();
        let analysis = psa_analyses::analyze_kernel_cached(&ctx.ast.module, &kernel, &ctx.cache)?;
        ctx.analysis = Some((*analysis).clone());
    }
    if ctx.reference_time_s.is_none() {
        ctx.reference_time_s = Some(crate::work::reference_time(ctx)?);
    }
    Ok(())
}

/// Invalidate the context's analysis record after a semantics-relevant AST
/// rewrite and re-run it (transforms like reduction removal or loop
/// unrolling change the dependence structure the strategy reads). The
/// evaluation cache needs no invalidation: the rewritten AST has a new
/// structural fingerprint, so the re-analysis addresses a different entry
/// by construction.
pub fn reanalyze(ctx: &mut FlowContext) -> Result<(), FlowError> {
    ctx.analysis = None;
    ensure_analysis(ctx)
}
