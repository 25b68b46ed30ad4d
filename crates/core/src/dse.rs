//! The **O**-class design-space-exploration meta-programs.
//!
//! * [`unroll_until_overmap`] — the paper's Fig. 2 meta-program verbatim:
//!   instrument the kernel's outermost loop with `#pragma unroll n`, run the
//!   (simulated) FPGA partial compile, read estimated LUT utilisation from
//!   the report, double `n` until `report.LUT ≥ 0.9`, and keep the last
//!   fitting design.
//! * [`blocksize_dse`] — the GPU launch-geometry sweep ("the launch
//!   parameters that maximise occupancy and minimise latency… are likely
//!   different for the same computation executed on different GPUs").
//! * [`omp_threads_dse`] — "OMP Num. Threads DSE" ("selects the maximum
//!   number of threads available automatically").

use crate::flow::FlowError;
use psa_artisan::{edit, query};
use psa_evalcache::EvalCache;
use psa_minicpp::Module;
use psa_platform::{CpuModel, FpgaModel, FpgaReport, GpuModel, KernelWork};

/// Result of the unroll DSE.
#[derive(Debug, Clone, PartialEq)]
pub struct UnrollDse {
    /// The chosen (last fitting) unroll factor.
    pub factor: u64,
    /// The HLS report of the chosen design.
    pub report: FpgaReport,
    /// DSE iterations performed (partial compiles).
    pub iterations: u32,
}

/// Run the Fig. 2 `unroll_until_overmap` DSE against the kernel's outermost
/// loop, leaving the winning `#pragma unroll` factor instrumented in the
/// AST (the exported design carries it, exactly like `app_out.cpp`).
///
/// Every simulated partial compile goes through `cache`, so repeated sweeps
/// over the same workload (sibling branch paths, informed/uninformed pairs,
/// or the final design-generation estimate) reuse the reports instead of
/// recomputing them.
pub fn unroll_until_overmap(
    module: &mut Module,
    kernel: &str,
    model: &FpgaModel,
    work: &KernelWork,
    cache: &EvalCache,
) -> Result<UnrollDse, FlowError> {
    // query(∀loop, fn ∈ ast: loop.isForStmt ∧ fn.name = kernel ∧
    //       fn.encloses(loop) ∧ loop.is_outermost)
    let loops = query::loops(module, |l| l.function == kernel && l.is_outermost);
    let outer = loops
        .first()
        .ok_or_else(|| FlowError::precondition(format!("kernel `{kernel}` has no outermost loop")))?
        .stmt_id;

    if !work.flat_pipeline {
        // The pipeline shares one datapath across runtime-bound inner
        // iterations; replication is structurally impossible, so the DSE
        // reports factor 1 after a single probe.
        let report = model.hls_report_cached(&work.ops, work.fp64, 1, cache);
        psa_obs::counter_add("psa_dse_evaluations_total", &[("dse", "unroll")], 1);
        return Ok(UnrollDse {
            factor: 1,
            report,
            iterations: 1,
        });
    }

    let mut n: u64 = 2;
    let mut best: u64 = 1;
    let mut best_report = model.hls_report_cached(&work.ops, work.fp64, 1, cache);
    let mut iterations = 1u32;
    if best_report.overmapped {
        // Even the un-unrolled design overmaps: the caller decides how to
        // report the unsynthesizable design; the pragma is not inserted.
        psa_obs::counter_add(
            "psa_dse_evaluations_total",
            &[("dse", "unroll")],
            u64::from(iterations),
        );
        return Ok(UnrollDse {
            factor: 0,
            report: best_report,
            iterations,
        });
    }
    loop {
        // instrument(before, loop, #pragma unroll $n)
        edit::set_unroll_pragma(module, outer, n)?;
        // report ⇐ exec(ast): the simulated partial compile.
        let report = model.hls_report_cached(&work.ops, work.fp64, n, cache);
        iterations += 1;
        let overmap = report.overmapped; // report.LUT ≥ 0.9
        if overmap || n > (1 << 20) {
            break;
        }
        best = n;
        best_report = report;
        n *= 2;
    }
    // design.export: leave the last *fitting* factor in the source.
    edit::set_unroll_pragma(module, outer, best)?;
    psa_obs::counter_add(
        "psa_dse_evaluations_total",
        &[("dse", "unroll")],
        u64::from(iterations),
    );
    Ok(UnrollDse {
        factor: best,
        report: best_report,
        iterations,
    })
}

/// Result of the blocksize DSE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlocksizeDse {
    pub blocksize: u32,
    pub total_s: f64,
    pub occupancy: f64,
    /// Configurations evaluated.
    pub evaluated: u32,
}

/// Candidate blocksizes (powers of two; the warp-multiple sweep real tuning
/// scripts use).
pub const BLOCKSIZE_CANDIDATES: [u32; 6] = [32, 64, 128, 256, 512, 1024];

/// Sweep launch geometries on one GPU; minimise time, break ties towards
/// higher occupancy.
///
/// Candidates are estimated inline, in candidate order: each estimate is a
/// pure analytic call or a cache hit, cheaper than starting a thread for
/// it.
pub fn blocksize_dse(
    model: &GpuModel,
    work: &KernelWork,
    pinned: bool,
    cache: &EvalCache,
) -> Result<BlocksizeDse, FlowError> {
    let mut best: Option<BlocksizeDse> = None;
    let mut evaluated = 0;
    for &b in &BLOCKSIZE_CANDIDATES {
        evaluated += 1;
        let Some(est) = model.estimate_cached(work, b, pinned, cache) else {
            continue;
        };
        let cand = BlocksizeDse {
            blocksize: b,
            total_s: est.total_s,
            occupancy: est.occupancy,
            evaluated,
        };
        let better = match &best {
            None => true,
            Some(cur) => {
                est.total_s < cur.total_s - 1e-15
                    || ((est.total_s - cur.total_s).abs() <= 1e-15 && est.occupancy > cur.occupancy)
            }
        };
        if better {
            best = Some(cand);
        }
    }
    let mut out = best.ok_or_else(|| {
        FlowError::analysis(format!(
            "no blocksize in {BLOCKSIZE_CANDIDATES:?} can launch this kernel \
             ({} regs/thread) on {}",
            work.regs_per_thread, model.spec.name
        ))
    })?;
    out.evaluated = evaluated;
    psa_obs::counter_add(
        "psa_dse_evaluations_total",
        &[("dse", "blocksize")],
        u64::from(evaluated),
    );
    Ok(out)
}

/// Result of the OpenMP thread-count DSE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadsDse {
    pub threads: u32,
    pub total_s: f64,
}

/// Sweep thread counts 1, 2, 4, … up to `max_threads` (plus the physical
/// core count) and keep the fastest.
pub fn omp_threads_dse(
    model: &CpuModel,
    work: &KernelWork,
    max_threads: u32,
    cache: &EvalCache,
) -> Result<ThreadsDse, FlowError> {
    let mut candidates: Vec<u32> = std::iter::successors(Some(1u32), |t| {
        let next = t * 2;
        (next <= max_threads).then_some(next)
    })
    .collect();
    candidates.push(model.spec.cores.min(max_threads));
    candidates.sort_unstable();
    candidates.dedup();

    // Candidates run inline in ascending order; strict `<` keeps the
    // lowest thread count on ties.
    let mut best = ThreadsDse {
        threads: 1,
        total_s: f64::INFINITY,
    };
    for &t in &candidates {
        let total = model.time_openmp_cached(work, t, cache);
        if total < best.total_s {
            best = ThreadsDse {
                threads: t,
                total_s: total,
            };
        }
    }
    psa_obs::counter_add(
        "psa_dse_evaluations_total",
        &[("dse", "omp-threads")],
        candidates.len() as u64,
    );
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_minicpp::parse_module;
    use psa_platform::{arria10, epyc_7543, gtx_1080_ti, rtx_2080_ti, stratix10, OpCounts};

    fn flat_work() -> KernelWork {
        KernelWork {
            flops_fma: 5e9,
            flops_sfu: 2e9,
            cycles_1t: 50e9,
            bytes_mem: 1e8,
            bytes_in: 1e7,
            bytes_out: 1e6,
            threads: 1e6,
            pipeline_iters: 1e6,
            fp64: false,
            regs_per_thread: 40,
            flat_pipeline: true,
            ops: OpCounts {
                fp_add: 30.0,
                fp_mul: 20.0,
                transcendental: 3.0,
                mem_ops: 10.0,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    const KNL: &str =
        "void knl(double* a, int n) { for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; } }";

    #[test]
    fn unroll_dse_doubles_until_overmap_and_keeps_last_fit() {
        let mut m = parse_module(KNL, "t").unwrap();
        let model = FpgaModel::new(arria10());
        let w = flat_work();
        let dse = unroll_until_overmap(&mut m, "knl", &model, &w, &EvalCache::new()).unwrap();
        assert!(dse.factor >= 2, "{dse:?}");
        assert!(!dse.report.overmapped);
        // One factor further must overmap.
        assert!(model.hls_report(&w.ops, w.fp64, dse.factor * 2).overmapped);
        // The winning pragma is left in the exported source.
        let out = psa_minicpp::print_module(&m);
        assert!(
            out.contains(&format!("#pragma unroll {}", dse.factor)),
            "{out}"
        );
    }

    #[test]
    fn unroll_dse_finds_larger_factor_on_stratix10() {
        let w = flat_work();
        let mut m1 = parse_module(KNL, "t").unwrap();
        let mut m2 = parse_module(KNL, "t").unwrap();
        let a10 = unroll_until_overmap(
            &mut m1,
            "knl",
            &FpgaModel::new(arria10()),
            &w,
            &EvalCache::new(),
        )
        .unwrap();
        let s10 = unroll_until_overmap(
            &mut m2,
            "knl",
            &FpgaModel::new(stratix10()),
            &w,
            &EvalCache::new(),
        )
        .unwrap();
        assert!(
            s10.factor > a10.factor,
            "s10 {} vs a10 {}",
            s10.factor,
            a10.factor
        );
    }

    #[test]
    fn unroll_dse_reports_unsynthesizable_designs() {
        let mut m = parse_module(KNL, "t").unwrap();
        let w = KernelWork {
            fp64: true,
            ops: OpCounts {
                transcendental: 120.0,
                fp_add: 200.0,
                ..Default::default()
            },
            ..flat_work()
        };
        let dse = unroll_until_overmap(
            &mut m,
            "knl",
            &FpgaModel::new(arria10()),
            &w,
            &EvalCache::new(),
        )
        .unwrap();
        assert_eq!(dse.factor, 0, "overmapped at unroll 1");
        assert!(dse.report.overmapped);
        assert!(!psa_minicpp::print_module(&m).contains("#pragma unroll"));
    }

    #[test]
    fn unroll_dse_skips_shared_datapaths() {
        let mut m = parse_module(KNL, "t").unwrap();
        let w = KernelWork {
            flat_pipeline: false,
            ..flat_work()
        };
        let dse = unroll_until_overmap(
            &mut m,
            "knl",
            &FpgaModel::new(stratix10()),
            &w,
            &EvalCache::new(),
        )
        .unwrap();
        assert_eq!(dse.factor, 1);
    }

    #[test]
    fn blocksize_dse_picks_a_feasible_fast_config() {
        let model = GpuModel::new(rtx_2080_ti());
        let w = flat_work();
        let dse = blocksize_dse(&model, &w, true, &EvalCache::new()).unwrap();
        assert!(BLOCKSIZE_CANDIDATES.contains(&dse.blocksize));
        assert!(dse.total_s.is_finite());
        // It must be at least as good as every candidate.
        for &b in &BLOCKSIZE_CANDIDATES {
            assert!(dse.total_s <= model.total_time(&w, b, true) + 1e-15);
        }
    }

    #[test]
    fn blocksize_dse_avoids_unlaunchable_configs_for_fat_kernels() {
        let model = GpuModel::new(gtx_1080_ti());
        let w = KernelWork {
            regs_per_thread: 255,
            ..flat_work()
        };
        let dse = blocksize_dse(&model, &w, true, &EvalCache::new()).unwrap();
        // 255 regs × 512 threads exceeds the register file.
        assert!(dse.blocksize <= 256, "{dse:?}");
        assert!(dse.total_s.is_finite());
    }

    #[test]
    fn devices_may_prefer_different_blocksizes() {
        // Not asserting they differ (model-dependent), but both must be
        // valid and deterministic.
        let w = KernelWork {
            regs_per_thread: 128,
            ..flat_work()
        };
        let a = blocksize_dse(&GpuModel::new(gtx_1080_ti()), &w, true, &EvalCache::new()).unwrap();
        let b = blocksize_dse(&GpuModel::new(gtx_1080_ti()), &w, true, &EvalCache::new()).unwrap();
        assert_eq!(a, b, "deterministic");
    }

    #[test]
    fn omp_dse_selects_all_cores_for_parallel_compute() {
        let model = CpuModel::new(epyc_7543());
        let w = flat_work();
        let dse = omp_threads_dse(&model, &w, 64, &EvalCache::new()).unwrap();
        assert_eq!(dse.threads, 32, "maximum useful threads = physical cores");
    }

    #[test]
    fn omp_dse_respects_limited_parallelism() {
        let model = CpuModel::new(epyc_7543());
        let w = KernelWork {
            threads: 2.0,
            ..flat_work()
        };
        let dse = omp_threads_dse(&model, &w, 64, &EvalCache::new()).unwrap();
        assert!(dse.threads <= 4, "{dse:?}");
    }
}
