//! # psa-interp — deterministic MiniC++ interpreter with profiling
//!
//! This crate stands in for *native execution* in the paper's design-flows.
//! Several of the codified tasks are **dynamic**: hotspot detection times
//! the application's loops; trip-count, data-movement and pointer-alias
//! analyses all "require program execution" (the ⚡ marker in the paper's
//! Fig. 3/4). Here execution happens on a tree-walking
//! interpreter whose *virtual clock* advances by a configurable per-operation
//! cycle cost, making every dynamic analysis bit-for-bit reproducible.
//!
//! What the interpreter provides:
//!
//! * a provenance-tracking memory arena ([`memory::Memory`]) — every pointer
//!   value knows which allocation it points into, which is exactly the fact
//!   the dynamic pointer-alias analysis needs;
//! * a cost model ([`profile::CostModel`]) mapping each op to virtual cycles,
//!   plus FLOP / load / store accounting used by the arithmetic-intensity
//!   and data-in/out analyses and by the platform performance models;
//! * per-loop statistics (entries, iterations, inclusive cycles) keyed by
//!   AST [`psa_minicpp::NodeId`], recorded natively on every run. Hotspot
//!   detection ranks loops by them: the paper inserts timer probes because
//!   Artisan measures native code, but here the virtual clock already
//!   times every loop, and the probes would charge no cycles, so the
//!   ranking is the same without them;
//! * kernel access tracing: while a *watched function* is on the call stack,
//!   byte-accurate per-buffer read/write ranges are recorded (data-movement
//!   analysis);
//! * a loop watch ([`loopwatch`]): the same kernel-scoped metrics for
//!   loops that are still inline, so the run that ranks the hotspots also
//!   observes the kernel that outlining the hottest loop will produce.

pub mod compile;
pub mod error;
pub mod eval;
pub mod intrinsics;
pub mod loopwatch;
pub mod memory;
mod ops;
mod peephole;
pub mod profile;
mod typeinfer;
pub mod value;
pub mod vm;
pub mod vmprof;

pub use compile::Program;
pub use error::{RuntimeError, RuntimeResult};
pub use eval::{set_default_engine, Engine, Interpreter, RunConfig};
pub use loopwatch::{LoopWatch, LoopWindow, WatchedLoop};
pub use memory::{BufferId, Memory};
pub use profile::{CostModel, LoopStats, Profile};
pub use value::{Pointer, Value};
pub use vm::Vm;
pub use vmprof::{FrameKey, FrameRow, VmProfile, VmProfiler};

use psa_evalcache::{EvalCache, KeyBuilder};
use psa_minicpp::Module;
use std::sync::Arc;

/// The artefacts of one completed profiled execution: `main`'s return
/// value, the profile (virtual clock, FLOP/byte counters, per-loop stats)
/// and the final memory arena (per-buffer kernel access ranges).
#[derive(Debug)]
pub struct ProfiledRun {
    pub result: Value,
    pub profile: Profile,
    pub memory: Memory,
}

impl RunConfig {
    /// Deterministic content hash of every field that influences execution
    /// results — the config part of a profiled run's cache address.
    pub fn content_hash(&self) -> u64 {
        let c = &self.cost_model;
        psa_evalcache::fnv64_of(&(
            (
                c.int_op,
                c.int_mul,
                c.int_div,
                c.fp_op,
                c.fp_div,
                c.sqrt,
                c.transcendental,
            ),
            (
                c.load,
                c.store,
                c.branch,
                c.call,
                c.transcendental_flops,
                c.sqrt_flops,
            ),
            self.max_cycles,
            self.max_call_depth as u64,
            self.watch_function.as_deref(),
        ))
    }
}

/// Execute `main` under `config` on the engine `config.engine` selects,
/// returning the full [`ProfiledRun`] artefacts. Both engines are
/// observationally identical, so callers need not care which one ran.
pub fn run_main_profiled(module: &Module, config: RunConfig) -> RuntimeResult<ProfiledRun> {
    run_main(module, config, None)
}

/// [`run_main_profiled`] with `watch`'s loops watched. The windows land in
/// [`Profile::loop_windows`]; `config.watch_function` must be `None`.
pub fn run_main_watching_loops(
    module: &Module,
    config: RunConfig,
    watch: &LoopWatch,
) -> RuntimeResult<ProfiledRun> {
    run_main(module, config, Some(watch))
}

fn run_main(
    module: &Module,
    config: RunConfig,
    watch: Option<&LoopWatch>,
) -> RuntimeResult<ProfiledRun> {
    let (result, (profile, memory)) = match config.engine {
        Engine::Vm => {
            let mut vm = match watch {
                Some(watch) => Vm::watching_loops(module, config, watch),
                None => Vm::new(module, config),
            };
            (vm.run_main()?, vm.into_parts())
        }
        Engine::Tree => {
            let mut interp = Interpreter::new(module, config);
            if let Some(watch) = watch {
                interp.watch_loops(watch.clone());
            }
            (interp.run_main()?, interp.into_parts())
        }
    };
    Ok(ProfiledRun {
        result,
        profile,
        memory,
    })
}

/// Execute `main` on the bytecode VM from an already-compiled [`Program`],
/// returning the same [`ProfiledRun`] artefacts as [`run_main_profiled`].
///
/// This is the compile-once/run-many entry point: design-space exploration
/// evaluates the same description under many configurations and analyses,
/// so bytecode compilation is paid once per description, not once per run.
/// `config` must agree with the compiling config on `cost_model` and
/// `watch_function` (both are baked into the bytecode).
pub fn run_compiled(program: &Arc<Program>, config: RunConfig) -> RuntimeResult<ProfiledRun> {
    let mut vm = Vm::with_program(Arc::clone(program), config);
    let result = vm.run_main()?;
    let (profile, memory) = vm.into_parts();
    Ok(ProfiledRun {
        result,
        profile,
        memory,
    })
}

/// Execute `main` on the bytecode VM with the frame profiler attached,
/// returning the usual [`ProfiledRun`] artefacts plus the aggregated
/// [`VmProfile`]. Profiling is observation-only: result, profile and memory
/// are identical to an unprofiled run (enforced by `tests/vm_profiler.rs`).
pub fn run_main_profiled_vm_with_profile(
    module: &Module,
    config: RunConfig,
) -> RuntimeResult<(ProfiledRun, VmProfile)> {
    let mut vm = Vm::new(module, config);
    vm.enable_profiling();
    let result = vm.run_main()?;
    let vm_profile = vm
        .take_vm_profile(&module.name)
        .expect("profiling enabled above");
    let (profile, memory) = vm.into_parts();
    Ok((
        ProfiledRun {
            result,
            profile,
            memory,
        },
        vm_profile,
    ))
}

/// Execute `main` under `config`, memoized in `cache`.
///
/// The address is the module's structural fingerprint plus the config's
/// content hash, so a hit is guaranteed to replay a bit-identical
/// execution (the interpreter is deterministic). The engine is *not* part
/// of the address: VM and tree runs produce the same artefacts, so their
/// cache entries are interchangeable. Failed runs are not cached. This is
/// the seam every dynamic analysis reaches the interpreter through when a
/// cache is in play.
pub fn run_profiled_cached(
    module: &Module,
    config: RunConfig,
    cache: &EvalCache,
) -> RuntimeResult<Arc<ProfiledRun>> {
    let key = KeyBuilder::new("interp/profiled-run")
        .u64(psa_minicpp::module_fingerprint(module))
        .u64(config.content_hash())
        .finish();
    cache.try_get_or_compute(key, || run_main_profiled(module, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_minicpp::parse_module;

    #[test]
    fn end_to_end_smoke() {
        let m = parse_module(
            "int main() {\
               double* a = alloc_double(8);\
               for (int i = 0; i < 8; i++) { a[i] = (double)i * 2.0; }\
               double s = 0.0;\
               for (int i = 0; i < 8; i++) { s += a[i]; }\
               return (int)s;\
             }",
            "smoke",
        )
        .unwrap();
        let mut interp = Interpreter::new(&m, RunConfig::default());
        let result = interp.run_main().unwrap();
        assert_eq!(result, Value::Int(56));
        assert!(interp.profile().total_cycles > 0);
        assert!(interp.profile().flops > 0);
    }
}
