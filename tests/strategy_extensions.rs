//! Integration: strategy-level behaviours — the Fig. 3 cost/budget
//! feedback, the aliasing veto, and the learned (ML) strategy extension —
//! exercised through the full flow.

use psaflow::benchsuite;
use psaflow::core::context::psa_benchsuite_shim::ScaleFactors;
use psaflow::core::context::FlowContext;
use psaflow::core::flows::full_psa_flow_with_strategy;
use psaflow::core::strategy::ml::{self, Example, KernelFeatures, MlTargetSelect};
use psaflow::core::task::Task;
use psaflow::core::tasks::tindep;
use psaflow::core::{full_psa_flow, FlowMode, PsaParams, TargetKind};

fn params_for(bench: &benchsuite::Benchmark) -> PsaParams {
    PsaParams {
        sp_safe: bench.sp_safe,
        scale: ScaleFactors {
            compute: bench.scale.compute,
            data: bench.scale.data,
            threads: bench.scale.threads,
        },
        ..PsaParams::default()
    }
}

#[test]
fn aliasing_pointer_arguments_veto_every_path() {
    // A kernel whose two pointer args resolve into one allocation: the
    // dynamic pointer analysis must terminate the informed flow with no
    // designs generated.
    // Build the aliasing shape explicitly: two pointer parameters that
    // resolve into the same allocation.
    let src_aliased = "void knl(double* a, double* b, int n) {\
        for (int i = 0; i < n; i++) { b[i] = exp(a[i]); }\
    }\
    int main() {\
        int n = 256;\
        double* buf = alloc_double(n + n);\
        fill_random(buf, n, 3);\
        for (int r = 0; r < 4; r++) { knl(buf, buf + n, n); }\
        sink(buf[n]);\
        return 0;\
    }";
    // The hotspot here is the loop inside `knl` (called from main's loop);
    // detection instruments outermost loops per function, so the r-loop in
    // main is the candidate — its body calls knl with aliasing pointers.
    // Feed the flow the knl-shaped app directly through analysis:
    let ast = psaflow::artisan::Ast::from_source(src_aliased, "aliased").unwrap();
    let mut ctx = FlowContext::new(ast, PsaParams::default());
    ctx.kernel = Some("knl".into());
    psaflow::core::tasks::ensure_analysis(&mut ctx).unwrap();
    assert!(ctx.analysis.as_ref().unwrap().alias.may_alias);
    let (target, log) = psaflow::core::strategy::TargetSelect::decide(&ctx).unwrap();
    assert_eq!(target, None, "{log:?}");
    assert!(log[0].contains("alias"));
}

#[test]
fn budget_feedback_revises_the_gpu_selection() {
    // N-Body is GPU-bound; with a budget below the GPU node's per-run cost
    // but above the CPU node's, the Fig. 3 feedback must revise the
    // mapping instead of terminating.
    let bench = benchsuite::by_key("nbody").unwrap();
    let mut params = params_for(&bench);

    // First find the unconstrained selection + its modelled cost bracket.
    let unconstrained =
        full_psa_flow(&bench.source, "nbody", FlowMode::Informed, params.clone()).unwrap();
    assert_eq!(unconstrained.selected_target, Some(TargetKind::CpuGpu));

    // A budget generous enough for the CPU (OMP run ≈ 30 ms → ~7e-6
    // currency) but far below any accelerator's value: pick something in
    // between by probing. The CPU at ~0.9s/28.8 ≈ 31ms → cost ≈ 7e-6.
    params.budget = Some(8e-6);
    let constrained =
        full_psa_flow(&bench.source, "nbody", FlowMode::Informed, params.clone()).unwrap();
    match constrained.selected_target {
        Some(TargetKind::CpuGpu) => {
            // The GPU run may genuinely be cheaper than the bound (it is
            // ~300× faster); in that case tighten until revision happens.
            params.budget = Some(1e-9);
            let tight = full_psa_flow(&bench.source, "nbody", FlowMode::Informed, params).unwrap();
            assert_ne!(
                tight.selected_target,
                Some(TargetKind::CpuGpu),
                "{:?}",
                tight.log
            );
        }
        Some(other) => {
            assert_eq!(other, TargetKind::MultiThreadCpu, "{:?}", constrained.log);
            assert!(
                constrained.log.iter().any(|l| l.contains("revis")),
                "{:?}",
                constrained.log
            );
        }
        None => {
            assert!(
                constrained.log.iter().any(|l| l.contains("budget")),
                "{:?}",
                constrained.log
            );
        }
    }
}

#[test]
fn learned_strategy_matches_ground_truth_on_the_suite() {
    // Train on the uninformed ground truth, deploy at branch point A, and
    // require agreement on every benchmark (the example's claim, pinned).
    let mut examples = Vec::new();
    let mut truth = Vec::new();
    for bench in benchsuite::all() {
        let outcome = full_psa_flow(
            &bench.source,
            &bench.key,
            FlowMode::Uninformed,
            params_for(&bench),
        )
        .unwrap();
        let best = outcome.best_design().unwrap().target;
        let ast = psaflow::artisan::Ast::from_source(&bench.source, &bench.key).unwrap();
        let mut ctx = FlowContext::new(ast, params_for(&bench));
        tindep::IdentifyHotspotLoops.run(&mut ctx).unwrap();
        tindep::HotspotLoopExtraction {
            kernel_name: "knl".into(),
        }
        .run(&mut ctx)
        .unwrap();
        psaflow::core::tasks::ensure_analysis(&mut ctx).unwrap();
        let features = KernelFeatures::from_context(&ctx).unwrap();
        examples.push(Example {
            features,
            label: best,
        });
        truth.push((bench, best));
    }
    let tree = ml::train(&examples, 3);
    assert_eq!(ml::accuracy(&tree, &examples), 1.0, "{}", tree.render());
    for (bench, expected) in truth {
        let outcome = full_psa_flow_with_strategy(
            &bench.source,
            &bench.key,
            MlTargetSelect { tree: tree.clone() },
            params_for(&bench),
        )
        .unwrap();
        assert_eq!(outcome.selected_target, Some(expected), "{}", bench.key);
        assert!(!outcome.designs.is_empty());
    }
}

#[test]
fn flow_outcomes_serialize() {
    // A report carries what a stored artefact needs: a positive reference
    // time and designs whose parameters and notes name their framework.
    // (The workspace has no serializer to round-trip through; stored
    // artefacts are rendered by hand.)
    let bench = benchsuite::by_key("kmeans").unwrap();
    let outcome = full_psa_flow(
        &bench.source,
        "kmeans",
        FlowMode::Informed,
        params_for(&bench),
    )
    .unwrap();
    assert!(outcome.reference_time_s > 0.0);
    let d = &outcome.designs[0];
    assert_eq!(d.params.threads, Some(32));
    assert!(d.notes.iter().any(|n| n.contains("OpenMP")));
}
