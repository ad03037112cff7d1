//! Bulk scenario evaluation: price N heterogeneous what-if scenarios
//! against one trained model in a single call.
//!
//! The paper frames what-if as an *interactive* loop, but both WhIM
//! (Echterhoff et al. 2023) and PRAXA (Gathani et al. 2025) treat it as
//! bulk evaluation over large scenario sets — "as many scenarios as you
//! can imagine". A [`ScenarioSet`] compiles every scenario's
//! perturbations once (validation and driver-index resolution up
//! front), then scores scenarios in parallel on the prediction workers
//! of `whatif_learn::pool`, each through a copy-on-write column overlay
//! and one batched prediction pass — zero full-matrix clones.

use crate::error::{CoreError, Result};
use crate::model_backend::TrainedModel;
use crate::perturbation::{PerturbationPlan, PerturbationSet};
use serde::{Deserialize, Serialize};

/// One named scenario to evaluate: a perturbation set with a label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// User-facing name (becomes the ledger entry's name on record).
    pub name: String,
    /// The driver changes this scenario applies.
    pub perturbations: PerturbationSet,
}

impl ScenarioSpec {
    /// A named scenario over the given perturbation set.
    pub fn new(name: impl Into<String>, perturbations: PerturbationSet) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            perturbations,
        }
    }
}

/// The priced outcome of one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Scenario name, echoed from the spec.
    pub name: String,
    /// The perturbations that were applied.
    pub perturbations: PerturbationSet,
    /// KPI achieved under the scenario.
    pub kpi: f64,
    /// KPI on the original data.
    pub baseline_kpi: f64,
}

impl ScenarioOutcome {
    /// KPI change versus the unperturbed baseline.
    pub fn uplift(&self) -> f64 {
        self.kpi - self.baseline_kpi
    }
}

/// Default scenario-level worker threads, shared by every surface that
/// needs a fallback: [`ScenarioSet::new`], the `Scenarios` analysis
/// spec, and the server's `EvaluateScenarios` handler.
pub const DEFAULT_SCENARIO_THREADS: usize = 4;

/// A batch of scenarios evaluated together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSet {
    /// The scenarios, evaluated independently.
    pub scenarios: Vec<ScenarioSpec>,
    /// Worker threads for evaluation (`1` = sequential).
    pub n_threads: usize,
}

impl ScenarioSet {
    /// A set with the default parallelism
    /// ([`DEFAULT_SCENARIO_THREADS`]).
    pub fn new(scenarios: Vec<ScenarioSpec>) -> ScenarioSet {
        ScenarioSet {
            scenarios,
            n_threads: DEFAULT_SCENARIO_THREADS,
        }
    }

    /// Override the worker-thread count.
    pub fn with_threads(mut self, n_threads: usize) -> ScenarioSet {
        self.n_threads = n_threads.max(1);
        self
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

impl TrainedModel {
    /// Evaluate every scenario in the set, in input order.
    ///
    /// All perturbation sets are compiled (validated, indices resolved)
    /// before any evaluation starts, so a bad scenario fails the whole
    /// call fast with its name in the error. Evaluation then proceeds
    /// in parallel chunks; each scenario costs one overlay (only its
    /// perturbed columns materialized) plus one batched prediction pass
    /// into a per-worker reused buffer.
    ///
    /// # Errors
    /// [`CoreError::Config`] naming the offending scenario on invalid
    /// perturbations; propagated prediction errors otherwise.
    pub fn evaluate_scenarios(&self, set: &ScenarioSet) -> Result<Vec<ScenarioOutcome>> {
        let plans = self.compile_scenarios(set)?;
        let refs: Vec<&PerturbationPlan> = plans.iter().collect();
        let kpis = self.score_plans(&refs, set.n_threads);
        set.scenarios
            .iter()
            .zip(kpis)
            .map(|(s, kpi)| {
                Ok(ScenarioOutcome {
                    name: s.name.clone(),
                    perturbations: s.perturbations.clone(),
                    kpi: kpi?,
                    baseline_kpi: self.baseline_kpi(),
                })
            })
            .collect()
    }

    /// Compile every scenario's perturbations up front: fail fast, with
    /// the offending scenario's name in the error, before any
    /// evaluation (or cache lookup) starts.
    pub(crate) fn compile_scenarios(&self, set: &ScenarioSet) -> Result<Vec<PerturbationPlan>> {
        set.scenarios
            .iter()
            .map(|s| {
                self.compile_perturbations(&s.perturbations)
                    .map_err(|e| CoreError::Config(format!("scenario {:?}: {e}", s.name)))
            })
            .collect()
    }

    /// Score each plan independently (overlay + one batched prediction
    /// pass into a per-worker reused buffer), preserving input order.
    ///
    /// Exactly one level of fan-out: when the model's own batch
    /// prediction already parallelizes over rows (big forests), run
    /// plans sequentially and let it use the cores; otherwise fan out
    /// over plans on the prediction workers
    /// ([`whatif_learn::pool::for_each`]) — but only when the grid
    /// carries enough work to amortize the hand-off, and never beyond
    /// the hardware's parallelism. A worker's panic reaches the caller
    /// with its original payload. Results are order-preserved and
    /// identical in every case, which is why the cache-aware path can
    /// score just its misses through the same helper and stay
    /// bit-identical.
    pub(crate) fn score_plans(
        &self,
        plans: &[&PerturbationPlan],
        requested_threads: usize,
    ) -> Vec<Result<f64>> {
        let _stage = whatif_obs::span::stage(whatif_obs::Stage::Predict);
        let score = |plan: &PerturbationPlan, buf: &mut Vec<f64>| -> Result<f64> {
            let overlay = plan.overlay(self.matrix())?;
            self.predict_batch_into((&overlay).into(), buf)?;
            Ok(buf.iter().sum::<f64>() / buf.len().max(1) as f64)
        };

        let work = plans.len().saturating_mul(self.matrix().n_rows());
        let n_threads = if work < 16_384 || self.batch_predict_is_parallel() {
            1
        } else {
            whatif_learn::forest::worker_count(requested_threads, plans.len())
        };
        let mut kpis: Vec<Result<f64>> = plans.iter().map(|_| Ok(f64::NAN)).collect();
        let chunk_len = plans.len().div_ceil(n_threads).max(1);
        let chunks = plans.chunks(chunk_len).zip(kpis.chunks_mut(chunk_len));
        whatif_learn::pool::for_each(chunks, |(plans, kpis)| {
            let mut buf = vec![0.0; self.matrix().n_rows()];
            for (plan, kpi) in plans.iter().zip(kpis) {
                *kpi = score(plan, &mut buf);
            }
        });
        kpis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpi::KpiKind;
    use crate::model_backend::ModelConfig;
    use crate::perturbation::Perturbation;
    use whatif_learn::Matrix;

    /// Exact linear model: y = 2*a - b + 5.
    fn model() -> TrainedModel {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 10) as f64, ((i * 3) % 6) as f64])
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

    fn grid() -> Vec<ScenarioSpec> {
        let mut scenarios = Vec::new();
        for pct in [-20.0, 0.0, 20.0, 40.0] {
            scenarios.push(ScenarioSpec::new(
                format!("a{pct:+}"),
                PerturbationSet::new(vec![Perturbation::percentage("a", pct)]),
            ));
            scenarios.push(ScenarioSpec::new(
                format!("a{pct:+} b-1"),
                PerturbationSet::new(vec![
                    Perturbation::percentage("a", pct),
                    Perturbation::absolute("b", -1.0),
                ]),
            ));
        }
        scenarios
    }

    #[test]
    fn bulk_matches_per_scenario_sensitivity_exactly() {
        let m = model();
        let set = ScenarioSet::new(grid());
        let outcomes = m.evaluate_scenarios(&set).unwrap();
        assert_eq!(outcomes.len(), set.len());
        for (spec, out) in set.scenarios.iter().zip(&outcomes) {
            assert_eq!(out.name, spec.name, "input order preserved");
            let single = m.sensitivity(&spec.perturbations).unwrap();
            assert!(out.kpi.to_bits() == single.perturbed_kpi.to_bits());
            assert!((out.uplift() - single.uplift()).abs() < 1e-15);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let m = model();
        let sequential = m
            .evaluate_scenarios(&ScenarioSet::new(grid()).with_threads(1))
            .unwrap();
        for threads in [2, 5, 16] {
            let parallel = m
                .evaluate_scenarios(&ScenarioSet::new(grid()).with_threads(threads))
                .unwrap();
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn bad_scenario_fails_fast_with_its_name() {
        let m = model();
        let set = ScenarioSet::new(vec![
            ScenarioSpec::new(
                "fine",
                PerturbationSet::new(vec![Perturbation::percentage("a", 10.0)]),
            ),
            ScenarioSpec::new(
                "broken",
                PerturbationSet::new(vec![Perturbation::percentage("zz", 10.0)]),
            ),
        ]);
        let err = m.evaluate_scenarios(&set).unwrap_err();
        assert!(err.to_string().contains("broken"), "{err}");
    }

    #[test]
    fn empty_set_is_fine() {
        let m = model();
        assert!(m
            .evaluate_scenarios(&ScenarioSet::new(Vec::new()))
            .unwrap()
            .is_empty());
        assert!(ScenarioSet::new(Vec::new()).is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let set = ScenarioSet::new(grid()).with_threads(2);
        let json = serde_json::to_string(&set).unwrap();
        assert_eq!(set, serde_json::from_str::<ScenarioSet>(&json).unwrap());
        let m = model();
        let outcomes = m.evaluate_scenarios(&set).unwrap();
        let json = serde_json::to_string(&outcomes).unwrap();
        assert_eq!(
            outcomes,
            serde_json::from_str::<Vec<ScenarioOutcome>>(&json).unwrap()
        );
    }
}
