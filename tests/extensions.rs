//! Integration tests for the extension modules: bootstrap confidence
//! intervals and Excel-style single-driver goal seek, each exercised
//! against the deal-closing use case.

use whatif::core::goal::{Goal, GoalConfig, OptimizerChoice};
use whatif::core::prelude::*;
use whatif::core::uncertainty::BootstrapConfig;
use whatif::datagen::deal_closing;

fn fast_forest() -> ModelConfig {
    ModelConfig {
        n_trees: 24,
        max_depth: 8,
        ..ModelConfig::default()
    }
}

fn trained() -> TrainedModel {
    let dataset = deal_closing(400, 7);
    let refs = dataset.driver_refs();
    Session::new(dataset.frame.clone())
        .with_kpi(&dataset.kpi)
        .expect("kpi")
        .with_drivers(&refs)
        .expect("drivers")
        .train(&fast_forest())
        .expect("train")
}

#[test]
fn sensitivity_ci_communicates_confidence() {
    let model = trained();
    let set = PerturbationSet::new(vec![Perturbation::percentage("Open Marketing Email", 40.0)]);
    let ci = model
        .sensitivity_with_ci(&set, &BootstrapConfig::default())
        .expect("bootstrap runs");
    // Interval brackets the plain point estimate.
    let plain = model.sensitivity(&set).expect("sensitivity");
    assert!((ci.uplift.value - plain.uplift()).abs() < 1e-12);
    assert!(ci.uplift.lo <= ci.uplift.value && ci.uplift.value <= ci.uplift.hi);
    // The baseline interval sits around the base close rate.
    assert!(ci.baseline.lo > 0.2 && ci.baseline.hi < 0.7);
    // Positive effect should be distinguishable from zero at n=400.
    assert!(
        ci.uplift.excludes(0.0),
        "uplift CI should exclude zero: {:?}",
        ci.uplift
    );
}

#[test]
fn single_driver_goal_seek_is_the_weak_baseline() {
    let model = trained();
    // A modest target is approachable by one driver. The forest's KPI
    // response to a single driver is a step function (integer activity
    // counts cross tree thresholds in lockstep), so we assert closeness
    // rather than exact convergence.
    let modest = model.baseline_kpi() + 0.02;
    let seek = model
        .goal_seek_driver("Open Marketing Email", modest, -50.0, 120.0, 1e-3)
        .expect("seek runs");
    assert!(
        (seek.achieved_kpi - modest).abs() <= 0.01,
        "modest target approachable: {seek:?}"
    );
    // ...but an ambitious one is not, while multi-driver goal inversion
    // gets much closer — exactly the paper's argument.
    let ambitious = model.baseline_kpi() + 0.25;
    let failed = model
        .goal_seek_driver("Open Marketing Email", ambitious, -50.0, 120.0, 1e-3)
        .expect("seek runs");
    assert!(!failed.converged);

    let mut cfg = GoalConfig::for_goal(Goal::Target(ambitious));
    cfg.optimizer = OptimizerChoice::Bayesian { n_calls: 32 };
    cfg.target_tolerance = 0.05;
    let multi = model.goal_inversion(&cfg).expect("inversion runs");
    assert!(
        (multi.achieved_kpi - ambitious).abs() < (failed.achieved_kpi - ambitious).abs(),
        "multi-driver {:.3} should beat single-driver {:.3} toward {:.3}",
        multi.achieved_kpi,
        failed.achieved_kpi,
        ambitious
    );
}
