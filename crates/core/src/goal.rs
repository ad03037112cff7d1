//! Goal Inversion (Seeking) Analysis (paper §2 I): given a KPI goal —
//! maximize, minimize, or hit a target — search the space of driver
//! perturbations for values that achieve it.
//!
//! The search space is the box of per-driver *percentage* changes
//! (constrained analysis narrows it per driver); the default engine is
//! the Bayesian optimizer, with random/grid/Nelder–Mead selectable for
//! the benchmark comparisons.

use crate::constraint::{build_bounds, DriverConstraint, DEFAULT_HIGH_PCT, DEFAULT_LOW_PCT};
use crate::error::Result;
use crate::model_backend::TrainedModel;
use crate::perturbation::{Perturbation, PerturbationPlan, PerturbationSet};
use serde::{Deserialize, Serialize};
use whatif_optim::bayes::{BayesConfig, BayesianOptimizer};
use whatif_optim::grid::grid_search;
use whatif_optim::nelder_mead::{nelder_mead, NelderMeadConfig};
use whatif_optim::objective::{FnObjective, Objective};
use whatif_optim::random_search::random_search;
use whatif_optim::OptimResult;

/// The KPI goal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Goal {
    /// Maximize the KPI ("freely optimize").
    Maximize,
    /// Minimize the KPI (e.g. churn rate).
    Minimize,
    /// Reach a specific KPI value.
    Target(f64),
}

/// Which search engine runs the inversion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerChoice {
    /// Gaussian-process Bayesian optimization (the paper's choice).
    Bayesian {
        /// Total objective evaluations.
        n_calls: usize,
    },
    /// Uniform random search baseline.
    RandomSearch {
        /// Total objective evaluations.
        n_evals: usize,
    },
    /// Full-factorial grid baseline (use with few drivers).
    GridSearch {
        /// Grid levels per driver.
        points_per_dim: usize,
    },
    /// Local simplex search from the no-change point.
    NelderMead {
        /// Maximum objective evaluations.
        max_evals: usize,
    },
}

impl Default for OptimizerChoice {
    fn default() -> Self {
        OptimizerChoice::Bayesian { n_calls: 96 }
    }
}

/// Goal-inversion configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoalConfig {
    /// The KPI goal.
    pub goal: Goal,
    /// Search engine.
    pub optimizer: OptimizerChoice,
    /// Per-driver constraints (constrained analysis); unconstrained
    /// drivers default to `[-50 %, +120 %]`.
    pub constraints: Vec<DriverConstraint>,
    /// Default lower percentage for unconstrained drivers.
    pub default_low_pct: f64,
    /// Default upper percentage for unconstrained drivers.
    pub default_high_pct: f64,
    /// |KPI − target| tolerance for declaring a target goal reached.
    pub target_tolerance: f64,
    /// RNG seed for stochastic optimizers.
    pub seed: u64,
}

impl Default for GoalConfig {
    fn default() -> Self {
        GoalConfig {
            goal: Goal::Maximize,
            optimizer: OptimizerChoice::default(),
            constraints: Vec::new(),
            default_low_pct: DEFAULT_LOW_PCT,
            default_high_pct: DEFAULT_HIGH_PCT,
            target_tolerance: 0.01,
            seed: 0,
        }
    }
}

impl GoalConfig {
    /// Configuration for a given goal, defaults elsewhere.
    pub fn for_goal(goal: Goal) -> GoalConfig {
        GoalConfig {
            goal,
            ..Default::default()
        }
    }

    /// Add per-driver constraints (builder style).
    pub fn with_constraints(mut self, constraints: Vec<DriverConstraint>) -> GoalConfig {
        self.constraints = constraints;
        self
    }
}

/// The outcome of a goal-inversion run — "the best KPI attainable, the
/// confidence of the model used, and a set (not necessarily unique) of
/// driver values that achieve the user-specified KPI goal".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoalInversionResult {
    /// The goal that was sought.
    pub goal: Goal,
    /// Best KPI attained.
    pub achieved_kpi: f64,
    /// KPI on the original data (for uplift display).
    pub baseline_kpi: f64,
    /// Holdout confidence of the underlying model.
    pub confidence: f64,
    /// Recommended percentage change per driver, in driver order.
    pub driver_percentages: Vec<(String, f64)>,
    /// Resulting mean driver values after applying the recommendation.
    pub driver_values: Vec<(String, f64)>,
    /// Objective evaluations spent.
    pub n_evals: usize,
    /// For [`Goal::Target`]: whether the tolerance was met. Always true
    /// for maximize/minimize.
    pub converged: bool,
}

impl GoalInversionResult {
    /// KPI change versus the original data.
    pub fn uplift(&self) -> f64 {
        self.achieved_kpi - self.baseline_kpi
    }

    /// The recommendation as a reusable [`PerturbationSet`].
    pub fn as_perturbations(&self) -> PerturbationSet {
        PerturbationSet::new(
            self.driver_percentages
                .iter()
                .map(|(d, pct)| Perturbation::percentage(d.clone(), *pct))
                .collect(),
        )
    }
}

impl TrainedModel {
    /// Run goal inversion under `config`.
    ///
    /// # Errors
    /// [`crate::CoreError`] on invalid constraints or optimizer failures.
    pub fn goal_inversion(&self, config: &GoalConfig) -> Result<GoalInversionResult> {
        let bounds = build_bounds(
            self,
            &config.constraints,
            config.default_low_pct,
            config.default_high_pct,
        )?;
        let driver_names = self.driver_names().to_vec();
        let goal = config.goal;

        // Objective over percentage space (minimization convention).
        // Each evaluation builds a trusted per-column plan and scores
        // it through an overlay + one batched prediction pass: no name
        // resolution, validation, or per-call `PerturbationSet`
        // allocation. (This objective perturbs every driver, so the
        // overlay materializes all columns — the copy-on-write saving
        // itself belongs to the sparse paths: comparison sweeps, goal
        // seek, typical scenarios.)
        let eval_kpi = |pcts: &[f64]| -> f64 {
            let plan = PerturbationPlan::percentages(pcts, true);
            self.kpi_for_plan(&plan).unwrap_or(f64::NAN)
        };
        let objective = FnObjective::new(driver_names.len(), move |pcts: &[f64]| {
            let kpi = eval_kpi(pcts);
            match goal {
                Goal::Maximize => -kpi,
                Goal::Minimize => kpi,
                Goal::Target(t) => (kpi - t).abs(),
            }
        });

        let result = self.run_optimizer(&objective, &bounds, config)?;
        let best_pcts = result.best_x.clone();
        let achieved_kpi = match goal {
            Goal::Maximize => -result.best_f,
            Goal::Minimize => result.best_f,
            // For targets, re-evaluate: best_f is |kpi - target|.
            Goal::Target(t) => {
                let kpi = self.kpi_for_plan(&PerturbationPlan::percentages(&best_pcts, true))?;
                debug_assert!((kpi - t).abs() - result.best_f < 1e-9 + result.best_f.abs());
                kpi
            }
        };
        let converged = match goal {
            Goal::Target(t) => (achieved_kpi - t).abs() <= config.target_tolerance,
            _ => true,
        };

        // Mean driver values under the recommendation.
        let driver_values: Vec<(String, f64)> = driver_names
            .iter()
            .enumerate()
            .map(|(j, d)| {
                let col = self.matrix().col(j);
                let mean = col.iter().sum::<f64>() / col.len().max(1) as f64;
                (d.clone(), (mean * (1.0 + best_pcts[j] / 100.0)).max(0.0))
            })
            .collect();

        Ok(GoalInversionResult {
            goal,
            achieved_kpi,
            baseline_kpi: self.baseline_kpi(),
            confidence: self.confidence(),
            driver_percentages: driver_names.iter().cloned().zip(best_pcts).collect(),
            driver_values,
            n_evals: result.n_evals,
            converged,
        })
    }

    fn run_optimizer(
        &self,
        objective: &dyn Objective,
        bounds: &whatif_optim::Bounds,
        config: &GoalConfig,
    ) -> Result<OptimResult> {
        Ok(match config.optimizer {
            OptimizerChoice::Bayesian { n_calls } => {
                let bayes = BayesConfig {
                    n_calls,
                    n_initial: (n_calls / 5).clamp(4, 16),
                    seed: config.seed,
                    ..BayesConfig::default()
                };
                BayesianOptimizer::new(bayes).run(objective, bounds)?
            }
            OptimizerChoice::RandomSearch { n_evals } => {
                random_search(objective, bounds, n_evals, config.seed)?
            }
            OptimizerChoice::GridSearch { points_per_dim } => {
                grid_search(objective, bounds, points_per_dim)?
            }
            OptimizerChoice::NelderMead { max_evals } => {
                // Start from "no change" (clamped into bounds).
                let mut start = vec![0.0; bounds.dim()];
                bounds.clamp(&mut start);
                let cfg = NelderMeadConfig {
                    max_evals,
                    ..Default::default()
                };
                nelder_mead(objective, bounds, &start, &cfg)?
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpi::KpiKind;
    use crate::model_backend::{ModelConfig, TrainedModel};
    use whatif_learn::Matrix;

    /// Exact linear model: y = 2*a - b + 5, a,b >= 0.
    fn model() -> TrainedModel {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 10) as f64 + 1.0, ((i * 3) % 6) as f64 + 1.0])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - r[1] + 5.0).collect();
        TrainedModel::fit(
            "y",
            KpiKind::Continuous,
            vec!["a".into(), "b".into()],
            Matrix::from_rows(&rows).unwrap(),
            y,
            &ModelConfig::default(),
        )
        .unwrap()
    }

    /// Analytic optimum for the linear model: mean(a) = 5.5 and b
    /// alternates between 1 and 4 so mean(b) = 2.5, giving
    /// KPI = 2·(1+pa)·5.5 − (1+pb)·2.5 + 5.
    fn expected_kpi(pa: f64, pb: f64) -> f64 {
        2.0 * (1.0 + pa / 100.0) * 5.5 - (1.0 + pb / 100.0) * 2.5 + 5.0
    }

    #[test]
    fn maximize_pushes_positive_driver_up_and_negative_down() {
        let m = model();
        let mut cfg = GoalConfig::for_goal(Goal::Maximize);
        cfg.optimizer = OptimizerChoice::GridSearch { points_per_dim: 11 };
        let r = m.goal_inversion(&cfg).unwrap();
        // Exact optimum on the grid: a at +120%, b at -50%.
        let pa = r.driver_percentages[0].1;
        let pb = r.driver_percentages[1].1;
        assert_eq!(pa, 120.0);
        assert_eq!(pb, -50.0);
        assert!((r.achieved_kpi - expected_kpi(120.0, -50.0)).abs() < 1e-6);
        assert!(r.uplift() > 0.0);
        assert!(r.converged);
    }

    #[test]
    fn minimize_does_the_reverse() {
        let m = model();
        let mut cfg = GoalConfig::for_goal(Goal::Minimize);
        cfg.optimizer = OptimizerChoice::GridSearch { points_per_dim: 11 };
        let r = m.goal_inversion(&cfg).unwrap();
        assert_eq!(r.driver_percentages[0].1, -50.0);
        assert_eq!(r.driver_percentages[1].1, 120.0);
        assert!(r.uplift() < 0.0);
    }

    #[test]
    fn constraints_bind_the_search() {
        let m = model();
        let mut cfg = GoalConfig::for_goal(Goal::Maximize)
            .with_constraints(vec![DriverConstraint::new("a", 40.0, 80.0)]);
        cfg.optimizer = OptimizerChoice::GridSearch { points_per_dim: 9 };
        let r = m.goal_inversion(&cfg).unwrap();
        let pa = r.driver_percentages[0].1;
        assert!((40.0..=80.0).contains(&pa), "constrained: {pa}");
        assert_eq!(pa, 80.0, "maximum of the allowed range");
    }

    #[test]
    fn frozen_driver_stays_fixed() {
        let m = model();
        let mut cfg = GoalConfig::for_goal(Goal::Maximize)
            .with_constraints(vec![DriverConstraint::frozen("b")]);
        cfg.optimizer = OptimizerChoice::GridSearch { points_per_dim: 9 };
        let r = m.goal_inversion(&cfg).unwrap();
        assert_eq!(r.driver_percentages[1].1, 0.0);
    }

    #[test]
    fn target_goal_converges_within_tolerance() {
        let m = model();
        let baseline = m.baseline_kpi();
        let target = baseline + 2.0;
        let mut cfg = GoalConfig::for_goal(Goal::Target(target));
        cfg.optimizer = OptimizerChoice::Bayesian { n_calls: 60 };
        cfg.target_tolerance = 0.3;
        let r = m.goal_inversion(&cfg).unwrap();
        assert!(
            (r.achieved_kpi - target).abs() <= 0.3,
            "achieved {} target {target}",
            r.achieved_kpi
        );
        assert!(r.converged);
    }

    #[test]
    fn unreachable_target_reports_non_convergence() {
        let m = model();
        let mut cfg = GoalConfig::for_goal(Goal::Target(1e9));
        cfg.optimizer = OptimizerChoice::RandomSearch { n_evals: 30 };
        let r = m.goal_inversion(&cfg).unwrap();
        assert!(!r.converged);
    }

    #[test]
    fn bayesian_beats_or_matches_random_at_same_budget() {
        let m = model();
        let mut best_bayes = 0.0;
        let mut best_random = 0.0;
        for seed in 0..3 {
            let mut cfg = GoalConfig::for_goal(Goal::Maximize);
            cfg.optimizer = OptimizerChoice::Bayesian { n_calls: 40 };
            cfg.seed = seed;
            best_bayes += m.goal_inversion(&cfg).unwrap().achieved_kpi;
            cfg.optimizer = OptimizerChoice::RandomSearch { n_evals: 40 };
            best_random += m.goal_inversion(&cfg).unwrap().achieved_kpi;
        }
        assert!(
            best_bayes >= best_random - 0.3,
            "bayes {best_bayes} vs random {best_random}"
        );
    }

    #[test]
    fn result_round_trips_to_perturbations() {
        let m = model();
        let mut cfg = GoalConfig::for_goal(Goal::Maximize);
        cfg.optimizer = OptimizerChoice::GridSearch { points_per_dim: 5 };
        let r = m.goal_inversion(&cfg).unwrap();
        let set = r.as_perturbations();
        let sens = m.sensitivity(&set).unwrap();
        assert!((sens.perturbed_kpi - r.achieved_kpi).abs() < 1e-9);
    }

    #[test]
    fn nelder_mead_improves_from_zero() {
        let m = model();
        let mut cfg = GoalConfig::for_goal(Goal::Maximize);
        cfg.optimizer = OptimizerChoice::NelderMead { max_evals: 80 };
        let r = m.goal_inversion(&cfg).unwrap();
        assert!(r.uplift() > 0.0);
        assert!(r.n_evals <= 80);
    }

    #[test]
    fn driver_values_reflect_percentages() {
        let m = model();
        let mut cfg = GoalConfig::for_goal(Goal::Maximize);
        cfg.optimizer = OptimizerChoice::GridSearch { points_per_dim: 5 };
        let r = m.goal_inversion(&cfg).unwrap();
        let (name, value) = &r.driver_values[0];
        assert_eq!(name, "a");
        let pct = r.driver_percentages[0].1;
        assert!((value - 5.5 * (1.0 + pct / 100.0)).abs() < 1e-9);
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = GoalConfig::for_goal(Goal::Target(0.9))
            .with_constraints(vec![DriverConstraint::new("a", 40.0, 80.0)]);
        let json = serde_json::to_string(&cfg).unwrap();
        assert_eq!(cfg, serde_json::from_str::<GoalConfig>(&json).unwrap());
    }
}
