//! Model training backend: the paper's model-selection rule and the
//! fitted-model handle every analysis runs through.
//!
//! Every prediction an analysis makes goes through
//! [`TrainedModel::predict_batch_into`]. That one call site routes the
//! views that move a single driver of the training matrix — slider
//! stops, comparison sweeps, goal-seek probes, single-driver scenarios,
//! uncertainty intervals — to the tree ensembles' delta kernel, which
//! walks only the (row, tree) pairs the move can send to another leaf.
//! Each model builds the [`LeafTable`] that kernel needs on its first
//! such view and keeps it for its lifetime, together with the leaves of
//! its last one-driver view, which the next view on the same driver
//! reuses; the store charges for both up front. Dense input and
//! multi-driver views (goal inversion, scenario grids) take the full
//! kernel. Both give the same bits, so fingerprints and cache keys do
//! not depend on the route.

use crate::error::{CoreError, Result};
use crate::kpi::KpiKind;
use crate::perturbation::{PerturbationPlan, PerturbationSet};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use whatif_cache::{CacheWeight, Fingerprint, Hasher128};
use whatif_learn::forest::ForestConfig;
use whatif_learn::metrics::{accuracy, r2_score, roc_auc};
use whatif_learn::model::{Classifier, Predictor, Regressor};
use whatif_learn::split::train_test_split;
use whatif_learn::tree::TreeConfig;
use whatif_learn::{ColumnOverlay, LeafTable, MatrixView};
use whatif_learn::{
    GbdtClassifier, GbdtConfig, GbdtRegressor, LinearRegression, LogisticRegression, Matrix,
    RandomForestClassifier, RandomForestRegressor, Trainer,
};

/// Model family selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ModelKind {
    /// The paper's rule: continuous KPI → linear regression; binary KPI →
    /// random-forest classifier.
    Auto,
    /// Linear regression (continuous KPIs only).
    Linear,
    /// Logistic regression (binary KPIs only) — the interpretable
    /// classifier for the §5 interpretability-vs-accuracy discussion.
    Logistic,
    /// Random forest (classifier for binary, regressor for continuous).
    RandomForest,
    /// Gradient-boosted trees (classifier for binary, regressor for
    /// continuous): sequential shallow histogram-binned trees fit to
    /// residuals with shrinkage and holdout early stopping. Higher
    /// prediction ceiling than a single forest on smooth KPIs; trained
    /// entirely on the binned tier, so not bit-comparable to forests.
    Gbdt,
}

/// Forest training tier (ignored by linear/logistic/GBDT — GBDT is
/// always binned).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum TrainerTier {
    /// Exact presorted split scans — bit-identical to the seed CART,
    /// which the test suite keeps as its oracle.
    #[default]
    Exact,
    /// Histogram-binned O(bins) split scans: features quantized to at
    /// most [`ModelConfig::n_bins`] quantile buckets once per forest.
    /// Deterministic, but approximate — its contract is
    /// accuracy-within-ε of the exact tier, not bit-identity.
    Binned,
}

fn default_n_bins() -> usize {
    256
}

/// Training configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Model family.
    pub kind: ModelKind,
    /// Trees per forest (ignored by linear/logistic).
    pub n_trees: usize,
    /// Maximum tree depth (ignored by linear/logistic).
    pub max_depth: usize,
    /// Seed for all stochastic pieces.
    pub seed: u64,
    /// Features examined per split (`None` = family default: √p for
    /// classification, p/3 for regression). Larger values let trees
    /// condition on more drivers jointly, which raises the forest's
    /// prediction ceiling in high-activity regions.
    pub max_features: Option<usize>,
    /// Worker threads for forest training.
    pub n_threads: usize,
    /// Held-out fraction used to estimate the model confidence shown in
    /// the Goal Inversion view; `0` scores on training data instead.
    pub holdout_fraction: f64,
    /// Forest training tier. Serde-defaulted to [`TrainerTier::Exact`]
    /// so configs (and wire clients) that predate the binned tier are
    /// untouched.
    #[serde(default)]
    pub trainer: TrainerTier,
    /// Bins per feature for the binned tier and GBDT (clamped to
    /// `2..=256` by the trainer). Serde-defaulted to 256.
    #[serde(default = "default_n_bins")]
    pub n_bins: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            kind: ModelKind::Auto,
            n_trees: 100,
            max_depth: 12,
            seed: 0,
            max_features: None,
            n_threads: 4,
            holdout_fraction: 0.2,
            trainer: TrainerTier::Exact,
            n_bins: default_n_bins(),
        }
    }
}

impl ModelConfig {
    fn forest_config(&self, seed_offset: u64) -> ForestConfig {
        let tree = TreeConfig {
            max_depth: self.max_depth,
            max_features: self.max_features,
            ..TreeConfig::default()
        };
        ForestConfig {
            n_trees: self.n_trees,
            tree,
            seed: self.seed.wrapping_add(seed_offset),
            n_threads: self.n_threads,
            trainer: match self.trainer {
                TrainerTier::Exact => Trainer::Presorted,
                TrainerTier::Binned => Trainer::Binned,
            },
            n_bins: self.n_bins,
        }
    }

    fn gbdt_config(&self, seed_offset: u64) -> GbdtConfig {
        GbdtConfig {
            n_rounds: self.n_trees,
            // Boosting wants weak learners; the session depth knob is
            // sized for forests, so cap boosted trees at depth 6.
            max_depth: self.max_depth.min(6),
            max_features: self.max_features,
            n_bins: self.n_bins,
            seed: self.seed.wrapping_add(seed_offset),
            n_threads: self.n_threads,
            ..GbdtConfig::default()
        }
    }
}

/// A process-wide shareable handle to a trained model.
///
/// Cloning is one atomic increment; every analysis path takes `&self`,
/// so any number of threads can evaluate through the same fitted model
/// concurrently. This is what sessions hold (and what the
/// [`crate::store::ModelStore`] deduplicates): training once and
/// sharing the `Arc` replaces per-session copies of the training
/// matrix, targets, and fitted parameters.
pub type SharedModel = std::sync::Arc<TrainedModel>;

/// The fitted model behind a [`TrainedModel`].
enum FittedModel {
    Linear(LinearRegression),
    Logistic(LogisticRegression),
    ForestClassifier(RandomForestClassifier),
    ForestRegressor(RandomForestRegressor),
    GbdtClassifier(GbdtClassifier),
    GbdtRegressor(GbdtRegressor),
}

impl FittedModel {
    fn predictor(&self) -> &dyn Predictor {
        match self {
            FittedModel::Linear(m) => m,
            FittedModel::Logistic(m) => m,
            FittedModel::ForestClassifier(m) => m,
            FittedModel::ForestRegressor(m) => m,
            FittedModel::GbdtClassifier(m) => m,
            FittedModel::GbdtRegressor(m) => m,
        }
    }

    /// Trees in the ensemble and nodes across them; `None` for the
    /// linear families.
    fn tree_shape(&self) -> Option<(usize, usize)> {
        match self {
            FittedModel::Linear(_) | FittedModel::Logistic(_) => None,
            FittedModel::ForestClassifier(m) => Some((m.n_trees(), m.n_nodes())),
            FittedModel::ForestRegressor(m) => Some((m.n_trees(), m.n_nodes())),
            FittedModel::GbdtClassifier(m) => Some((m.n_trees(), m.n_nodes())),
            FittedModel::GbdtRegressor(m) => Some((m.n_trees(), m.n_nodes())),
        }
    }
}

/// A fitted driver→KPI model plus everything the four analyses need:
/// the training matrix, targets, and a confidence score.
///
/// The KPI of a dataset is the **mean model prediction over its rows**:
/// the deal-closing *rate* for classifiers, mean sales for regressors —
/// exactly the blue/yellow bars of the paper's sensitivity view.
pub struct TrainedModel {
    kpi_name: String,
    kpi_kind: KpiKind,
    resolved_kind: ModelKind,
    driver_names: Vec<String>,
    x: Matrix,
    y: Vec<f64>,
    model: FittedModel,
    confidence: f64,
    baseline_kpi: f64,
    fingerprint: Fingerprint,
    /// The leaf table of `x`, built on the first one-driver view; `None`
    /// inside when the model has none (linear families, oversized trees).
    leaf_table: OnceLock<Option<LeafTable>>,
}

impl TrainedModel {
    /// Fit a model per `config` on the prepared matrix/targets.
    ///
    /// Called by [`crate::session::Session::train`]; exposed for direct
    /// use by benchmarks.
    ///
    /// # Errors
    /// [`CoreError::Config`] on kind/KPI mismatches, propagated learn
    /// errors otherwise.
    pub fn fit(
        kpi_name: &str,
        kpi_kind: KpiKind,
        driver_names: Vec<String>,
        x: Matrix,
        y: Vec<f64>,
        config: &ModelConfig,
    ) -> Result<TrainedModel> {
        // Prediction workers start before any tree's scratch exists
        // (see `whatif_learn::pool::start`).
        whatif_learn::pool::start();
        let resolved = resolve_kind(config.kind, kpi_kind)?;
        if x.n_rows() < 4 {
            return Err(CoreError::Config(format!(
                "need at least 4 rows to train, got {}",
                x.n_rows()
            )));
        }

        // Confidence: fit on a train split, score on the holdout.
        let confidence = if config.holdout_fraction > 0.0 {
            let (train_idx, test_idx) =
                train_test_split(x.n_rows(), config.holdout_fraction, config.seed)?;
            let take = |idx: &[usize]| -> (Matrix, Vec<f64>) {
                let rows: Vec<Vec<f64>> = idx.iter().map(|&i| x.row(i).to_vec()).collect();
                let ys: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
                // lint:allow(panic-freedom): rows are slices of one matrix, uniform by construction
                (Matrix::from_rows(&rows).expect("rows are uniform"), ys)
            };
            let (x_tr, y_tr) = take(&train_idx);
            let (x_te, y_te) = take(&test_idx);
            let m = fit_one(resolved, kpi_kind, &x_tr, &y_tr, config)?;
            let preds = m.predictor().predict_matrix(&x_te)?;
            score(kpi_kind, &y_te, &preds)
        } else {
            f64::NAN // filled below from training predictions
        };

        let model = fit_one(resolved, kpi_kind, &x, &y, config)?;
        let train_preds = model.predictor().predict_matrix(&x)?;
        let confidence = if confidence.is_nan() {
            score(kpi_kind, &y, &train_preds)
        } else {
            confidence
        };
        let baseline_kpi = mean(&train_preds);
        let fingerprint = compute_fingerprint(
            kpi_name,
            kpi_kind,
            resolved,
            &driver_names,
            &x,
            &y,
            config,
            &model,
            &train_preds,
            confidence,
        );

        Ok(TrainedModel {
            kpi_name: kpi_name.to_owned(),
            kpi_kind,
            resolved_kind: resolved,
            driver_names,
            x,
            y,
            model,
            confidence,
            baseline_kpi,
            fingerprint,
            leaf_table: OnceLock::new(),
        })
    }

    /// The model's stable 128-bit content fingerprint, computed once at
    /// train time over the training-data digest, the effective
    /// configuration, and the learned parameters.
    ///
    /// Two models fitted from bit-identical data and configuration have
    /// equal fingerprints (training is deterministic, including across
    /// worker-thread counts), so cached results are shared across
    /// sessions; retraining on changed data, a changed KPI/driver
    /// selection, or changed hyperparameters yields a new fingerprint —
    /// the cache-invalidation "epoch" is the fingerprint itself.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// KPI column name.
    pub fn kpi_name(&self) -> &str {
        &self.kpi_name
    }

    /// Detected KPI kind.
    pub fn kpi_kind(&self) -> KpiKind {
        self.kpi_kind
    }

    /// The model family actually fitted (never [`ModelKind::Auto`]).
    pub fn kind(&self) -> ModelKind {
        self.resolved_kind
    }

    /// Driver names, aligned with matrix columns.
    pub fn driver_names(&self) -> &[String] {
        &self.driver_names
    }

    /// Index of a driver by name.
    ///
    /// # Errors
    /// [`CoreError::Config`] for unknown drivers.
    pub fn driver_index(&self, name: &str) -> Result<usize> {
        self.driver_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| CoreError::Config(format!("unknown driver {name:?}")))
    }

    /// The training feature matrix (rows × drivers).
    pub fn matrix(&self) -> &Matrix {
        &self.x
    }

    /// Training targets (0/1 for binary KPIs).
    pub fn targets(&self) -> &[f64] {
        &self.y
    }

    /// Model confidence: holdout R² (continuous) or ROC-AUC falling back
    /// to accuracy (binary) — "the confidence of the model used" shown in
    /// the Goal Inversion view.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// The KPI achieved on the *original* dataset (blue bar).
    pub fn baseline_kpi(&self) -> f64 {
        self.baseline_kpi
    }

    /// Score a single driver row.
    ///
    /// # Errors
    /// Propagated prediction errors (wrong width).
    pub fn predict_row(&self, row: &[f64]) -> Result<f64> {
        Ok(self.model.predictor().predict_row(row)?)
    }

    /// Mean prediction over an arbitrary matrix — the KPI of a
    /// (possibly perturbed) dataset.
    ///
    /// # Errors
    /// Propagated prediction errors (wrong column count).
    pub fn kpi_for_matrix(&self, x: &Matrix) -> Result<f64> {
        self.kpi_for_view(MatrixView::Dense(x))
    }

    /// Batched predictions over a dense matrix or column overlay.
    ///
    /// # Errors
    /// Propagated prediction errors (wrong column count).
    pub fn predictions_for_view(&self, view: MatrixView<'_>) -> Result<Vec<f64>> {
        let mut preds = vec![0.0; view.n_rows()];
        self.predict_batch_into(view, &mut preds)?;
        Ok(preds)
    }

    /// Batched predictions into a caller-owned buffer (hot paths reuse
    /// the buffer across scenarios).
    ///
    /// Every view of the model is scored here. An overlay of this
    /// model's own training matrix that replaces exactly one column
    /// takes the delta path on a tree ensemble: the first such view
    /// builds the model's [`LeafTable`], and every one after reuses it
    /// ([`whatif_learn::Predictor::predict_delta`]). Dense input,
    /// overlays of other matrices and overlays that move two or more
    /// columns take the full kernel. Both paths give the same bits.
    ///
    /// # Errors
    /// Propagated prediction errors (wrong column count / buffer size).
    pub fn predict_batch_into(&self, view: MatrixView<'_>, out: &mut [f64]) -> Result<()> {
        let predictor = self.model.predictor();
        if let Some(overlay) = self.one_driver_overlay(view) {
            let table = self
                .leaf_table
                .get_or_init(|| predictor.leaf_table(&self.x));
            if let Some(table) = table {
                return Ok(predictor.predict_delta(table, overlay, out)?);
            }
        }
        Ok(predictor.predict_batch(view, out)?)
    }

    /// `view` as an overlay of this model's training matrix that
    /// replaces exactly one column: the views the delta path scores.
    fn one_driver_overlay<'v>(&self, view: MatrixView<'v>) -> Option<&'v ColumnOverlay<'v>> {
        match view {
            MatrixView::Overlay(o) if o.n_overridden() == 1 && std::ptr::eq(o.base(), &self.x) => {
                Some(o)
            }
            _ => None,
        }
    }

    /// The KPI (mean prediction) of any matrix view.
    ///
    /// # Errors
    /// Propagated prediction errors (wrong column count).
    pub fn kpi_for_view(&self, view: MatrixView<'_>) -> Result<f64> {
        Ok(mean(&self.predictions_for_view(view)?))
    }

    /// Whether a full-matrix `predict_batch` on this model will fan out
    /// to its own worker threads. Coarser-grained parallelizers (bulk
    /// scenario evaluation) check this to keep exactly one level of
    /// fan-out: scenario-level workers for cheap per-call models,
    /// row-level workers inside the model otherwise.
    pub fn batch_predict_is_parallel(&self) -> bool {
        use whatif_learn::forest::PARALLEL_BATCH_MIN_WORK;
        let (n_trees, n_threads) = match &self.model {
            FittedModel::ForestClassifier(m) => (m.n_trees(), m.config.n_threads),
            FittedModel::ForestRegressor(m) => (m.n_trees(), m.config.n_threads),
            FittedModel::GbdtClassifier(m) => (m.n_trees(), m.config.n_threads),
            FittedModel::GbdtRegressor(m) => (m.n_trees(), m.config.n_threads),
            FittedModel::Linear(_) | FittedModel::Logistic(_) => return false,
        };
        n_threads > 1 && self.x.n_rows().saturating_mul(n_trees) >= PARALLEL_BATCH_MIN_WORK
    }

    /// Compile a perturbation set against this model's drivers.
    ///
    /// # Errors
    /// [`CoreError::Config`] on unknown or duplicated drivers.
    pub fn compile_perturbations(&self, set: &PerturbationSet) -> Result<PerturbationPlan> {
        let _stage = whatif_obs::span::stage(whatif_obs::Stage::PlanCompile);
        set.compile(&self.driver_names)
    }

    /// The KPI of the training data under a compiled perturbation plan,
    /// evaluated through a copy-on-write overlay: only the perturbed
    /// columns are materialized, never the whole matrix.
    ///
    /// # Errors
    /// [`CoreError::Config`] on plan/matrix width mismatch; propagated
    /// prediction errors otherwise.
    pub fn kpi_for_plan(&self, plan: &PerturbationPlan) -> Result<f64> {
        let _stage = whatif_obs::span::stage(whatif_obs::Stage::Predict);
        let overlay = plan.overlay(&self.x)?;
        self.kpi_for_view(MatrixView::Overlay(&overlay))
    }

    /// Borrow the underlying predictor (for Shapley verification etc.).
    pub fn predictor(&self) -> &dyn Predictor {
        self.model.predictor()
    }

    /// Model-native importances on the paper's `[-1, 1]` scale:
    /// standardized coefficients for linear/logistic models; normalized
    /// impurity importances signed by each driver's Pearson correlation
    /// with the KPI for forests (impurity mass is unsigned by
    /// construction; the correlation restores direction).
    ///
    /// # Errors
    /// Propagated learn errors.
    pub fn native_importances(&self) -> Result<Vec<f64>> {
        match &self.model {
            FittedModel::Linear(m) => Ok(m.standardized_coefficients()?.to_vec()),
            FittedModel::Logistic(m) => Ok(m.standardized_coefficients()?.to_vec()),
            FittedModel::ForestClassifier(m) => {
                Ok(self.sign_by_correlation(m.feature_importances()?))
            }
            FittedModel::ForestRegressor(m) => {
                Ok(self.sign_by_correlation(m.feature_importances()?))
            }
            FittedModel::GbdtClassifier(m) => {
                Ok(self.sign_by_correlation(m.feature_importances()?))
            }
            FittedModel::GbdtRegressor(m) => Ok(self.sign_by_correlation(m.feature_importances()?)),
        }
    }

    fn sign_by_correlation(&self, unsigned: &[f64]) -> Vec<f64> {
        (0..self.driver_names.len())
            .map(|j| {
                let col = self.x.col(j);
                let r = whatif_stats::pearson(&col, &self.y);
                let sign = if r.is_nan() || r >= 0.0 { 1.0 } else { -1.0 };
                unsigned[j] * sign
            })
            .collect()
    }
}

/// The paper's model-selection rule, shared by [`TrainedModel::fit`]
/// and the pre-train [`training_fingerprint`] so both validate (and
/// key) the same way.
fn resolve_kind(kind: ModelKind, kpi_kind: KpiKind) -> Result<ModelKind> {
    match (kind, kpi_kind) {
        (ModelKind::Auto, KpiKind::Continuous) => Ok(ModelKind::Linear),
        (ModelKind::Auto, KpiKind::Binary) => Ok(ModelKind::RandomForest),
        (ModelKind::Linear, KpiKind::Continuous) => Ok(ModelKind::Linear),
        (ModelKind::Linear, KpiKind::Binary) => Err(CoreError::Config(
            "linear regression requires a continuous KPI; use Logistic or RandomForest".to_owned(),
        )),
        (ModelKind::Logistic, KpiKind::Binary) => Ok(ModelKind::Logistic),
        (ModelKind::Logistic, KpiKind::Continuous) => Err(CoreError::Config(
            "logistic regression requires a binary KPI".to_owned(),
        )),
        (ModelKind::RandomForest, _) => Ok(ModelKind::RandomForest),
        (ModelKind::Gbdt, _) => Ok(ModelKind::Gbdt),
    }
}

/// The identity of a *training request*, computable **before** any
/// training happens: the exact inputs [`TrainedModel::fit`] would
/// consume — KPI naming and kind, the resolved model family, the
/// behavior-relevant configuration, and a digest of the full training
/// data. Training is deterministic in these inputs (tree seeds are
/// pre-drawn, so `n_threads` is excluded just as it is from the
/// post-train fingerprint), which makes this the dedup key of the
/// [`crate::store::ModelStore`]: equal training fingerprints imply
/// bit-identical trained models, so the first session trains and every
/// later one shares the `Arc`.
///
/// # Errors
/// [`CoreError::Config`] on the same kind/KPI mismatches
/// [`TrainedModel::fit`] rejects, so a store lookup fails exactly when
/// training would.
pub fn training_fingerprint(
    kpi_name: &str,
    kpi_kind: KpiKind,
    driver_names: &[String],
    x: &Matrix,
    y: &[f64],
    config: &ModelConfig,
) -> Result<Fingerprint> {
    let resolved = resolve_kind(config.kind, kpi_kind)?;
    let mut h = Hasher128::new();
    h.write_str("whatif/train/v2");
    write_training_inputs(
        &mut h,
        kpi_name,
        kpi_kind,
        resolved,
        driver_names,
        x,
        y,
        config,
    );
    Ok(h.finish())
}

/// The input half shared verbatim by [`training_fingerprint`] and the
/// post-train [`compute_fingerprint`]: one hashing routine, so a future
/// behavior-relevant `ModelConfig` field cannot be added to one key and
/// forgotten in the other (which would alias distinct training
/// requests and serve the wrong shared model).
#[allow(clippy::too_many_arguments)]
fn write_training_inputs(
    h: &mut Hasher128,
    kpi_name: &str,
    kpi_kind: KpiKind,
    resolved: ModelKind,
    driver_names: &[String],
    x: &Matrix,
    y: &[f64],
    config: &ModelConfig,
) {
    h.write_str(kpi_name);
    h.write_u8(match kpi_kind {
        KpiKind::Continuous => 0,
        KpiKind::Binary => 1,
    });
    h.write_u8(match resolved {
        ModelKind::Linear => 0,
        ModelKind::Logistic => 1,
        ModelKind::RandomForest => 2,
        ModelKind::Gbdt => 3,
        ModelKind::Auto => u8::MAX, // unreachable: resolved before hashing
    });
    h.write_usize(driver_names.len());
    for name in driver_names {
        h.write_str(name);
    }
    h.write_usize(config.n_trees);
    h.write_usize(config.max_depth);
    h.write_u64(config.seed);
    match config.max_features {
        Some(m) => {
            h.write_u8(1);
            h.write_usize(m);
        }
        None => h.write_u8(0),
    }
    h.write_f64(config.holdout_fraction);
    // Trainer tier and bin count change what the tree families learn,
    // so they key the store/cache even though linear models ignore them
    // (hashing them unconditionally is the conservative choice — a
    // spurious miss retrains; a spurious hit serves a binned model to an
    // exact-tier request).
    h.write_u8(match config.trainer {
        TrainerTier::Exact => 0,
        TrainerTier::Binned => 1,
    });
    h.write_usize(config.n_bins);
    h.write_usize(x.n_rows());
    h.write_usize(x.n_cols());
    h.write_f64s(x.data());
    h.write_f64s(y);
}

/// Approximate resident bytes of a trained model, for the
/// [`crate::store::ModelStore`]'s budget accounting. Dominated by the
/// retained training matrix and targets; fitted parameters are
/// estimated (forests charge a per-tree node-count bound — bootstrap
/// leaves capped by the depth limit). Tree ensembles also pay for their
/// leaf table up front, whether or not a one-driver view has built it
/// yet: 2 bytes per (row, tree) for the leaves and 2 more for the drag
/// memo, plus the per-tree feature index ([`LeafTable::bytes_for`]).
/// An entry's weight never changes while it is stored.
impl CacheWeight for TrainedModel {
    fn weight_bytes(&self) -> usize {
        let data = (self.x.n_rows() * self.x.n_cols() + self.y.len()) * 8;
        let names: usize = self
            .driver_names
            .iter()
            .map(|n| n.len() + std::mem::size_of::<String>())
            .sum();
        let fitted = match &self.model {
            FittedModel::Linear(_) | FittedModel::Logistic(_) => {
                (self.x.n_cols() + 1) * 8 + std::mem::size_of::<FittedModel>()
            }
            FittedModel::ForestClassifier(m) => forest_bytes(m.n_trees(), self.x.n_rows()),
            FittedModel::ForestRegressor(m) => forest_bytes(m.n_trees(), self.x.n_rows()),
            // GBDT trees are depth-capped and expose exact node counts.
            FittedModel::GbdtClassifier(m) => m.n_nodes() * 24,
            FittedModel::GbdtRegressor(m) => m.n_nodes() * 24,
        };
        let leaf_table = self.model.tree_shape().map_or(0, |(trees, nodes)| {
            LeafTable::bytes_for(self.x.n_rows(), trees, nodes, self.x.n_cols())
        });
        data + names + fitted + leaf_table + self.kpi_name.len()
    }
}

/// Per-tree node bound: a bootstrap sample of `n_rows` yields at most
/// `2 * n_rows - 1` nodes, at roughly 24 bytes each (the flattened
/// struct-of-arrays tree stores 16 bytes per node — u32 feature/right
/// child plus one f64 threshold-or-leaf-value — plus an importance
/// slot's share).
fn forest_bytes(n_trees: usize, n_rows: usize) -> usize {
    n_trees * (2 * n_rows).saturating_sub(1) * 24
}

/// Fold everything that determines a model's observable behavior into
/// one 128-bit identity: KPI/driver naming, the resolved family, the
/// behavior-relevant configuration, a digest of the full training data,
/// and the learned parameters themselves (coefficients for the linear
/// families; for forests, whose trees are unwieldy to serialize, the
/// training-set predictions — a complete functional digest over the
/// training support — stand in).
///
/// `n_threads` is deliberately excluded: tree seeds are pre-drawn from
/// the master seed, so training is thread-count invariant and two
/// deployments differing only in parallelism share cache entries.
/// `holdout_fraction` is included because it shapes the published
/// `confidence`, which analysis results carry.
#[allow(clippy::too_many_arguments)]
fn compute_fingerprint(
    kpi_name: &str,
    kpi_kind: KpiKind,
    resolved: ModelKind,
    driver_names: &[String],
    x: &Matrix,
    y: &[f64],
    config: &ModelConfig,
    model: &FittedModel,
    train_preds: &[f64],
    confidence: f64,
) -> Fingerprint {
    let mut h = Hasher128::new();
    h.write_str("whatif/model/v2");
    write_training_inputs(
        &mut h,
        kpi_name,
        kpi_kind,
        resolved,
        driver_names,
        x,
        y,
        config,
    );
    match model {
        FittedModel::Linear(m) => {
            h.write_u8(1);
            h.write_f64(m.intercept().unwrap_or(f64::NAN));
            h.write_f64s(m.coefficients().unwrap_or(&[]));
        }
        FittedModel::Logistic(m) => {
            h.write_u8(2);
            h.write_f64(m.intercept().unwrap_or(f64::NAN));
            h.write_f64s(m.coefficients().unwrap_or(&[]));
        }
        FittedModel::ForestClassifier(m) => {
            h.write_u8(3);
            h.write_usize(m.n_trees());
        }
        FittedModel::ForestRegressor(m) => {
            h.write_u8(4);
            h.write_usize(m.n_trees());
        }
        FittedModel::GbdtClassifier(m) => {
            h.write_u8(5);
            h.write_usize(m.n_trees());
        }
        FittedModel::GbdtRegressor(m) => {
            h.write_u8(6);
            h.write_usize(m.n_trees());
        }
    }
    h.write_f64s(train_preds);
    h.write_f64(confidence);
    h.finish()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn score(kind: KpiKind, y_true: &[f64], preds: &[f64]) -> f64 {
    match kind {
        KpiKind::Continuous => r2_score(y_true, preds),
        KpiKind::Binary => {
            let labels: Vec<u8> = y_true.iter().map(|&v| u8::from(v >= 0.5)).collect();
            let auc = roc_auc(&labels, preds);
            if auc.is_nan() {
                let hard: Vec<u8> = preds.iter().map(|&p| u8::from(p >= 0.5)).collect();
                accuracy(&labels, &hard)
            } else {
                auc
            }
        }
    }
}

fn fit_one(
    kind: ModelKind,
    kpi_kind: KpiKind,
    x: &Matrix,
    y: &[f64],
    config: &ModelConfig,
) -> Result<FittedModel> {
    Ok(match (kind, kpi_kind) {
        (ModelKind::Linear, _) => {
            let mut m = LinearRegression::new();
            m.fit(x, y)?;
            FittedModel::Linear(m)
        }
        (ModelKind::Logistic, _) => {
            let labels: Vec<u8> = y.iter().map(|&v| u8::from(v >= 0.5)).collect();
            let mut m = LogisticRegression::new().with_alpha(1e-3);
            m.fit(x, &labels)?;
            FittedModel::Logistic(m)
        }
        (ModelKind::RandomForest, KpiKind::Binary) => {
            let labels: Vec<u8> = y.iter().map(|&v| u8::from(v >= 0.5)).collect();
            let mut m = RandomForestClassifier::new(config.forest_config(1));
            m.fit(x, &labels)?;
            FittedModel::ForestClassifier(m)
        }
        (ModelKind::RandomForest, KpiKind::Continuous) => {
            let mut m = RandomForestRegressor::new(config.forest_config(2));
            m.fit(x, y)?;
            FittedModel::ForestRegressor(m)
        }
        (ModelKind::Gbdt, KpiKind::Binary) => {
            let labels: Vec<u8> = y.iter().map(|&v| u8::from(v >= 0.5)).collect();
            let mut m = GbdtClassifier::new(config.gbdt_config(3));
            m.fit(x, &labels)?;
            FittedModel::GbdtClassifier(m)
        }
        (ModelKind::Gbdt, KpiKind::Continuous) => {
            let mut m = GbdtRegressor::new(config.gbdt_config(4));
            m.fit(x, y)?;
            FittedModel::GbdtRegressor(m)
        }
        // lint:allow(panic-freedom): resolve_kind replaced Auto before this match; reaching it is a bug
        (ModelKind::Auto, _) => unreachable!("Auto resolved before fit_one"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn continuous_data() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 12) as f64, ((i * 5) % 7) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 4.0 * r[0] - 2.0 * r[1] + 1.0).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn binary_data() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i % 10) as f64, ((i * 3) % 4) as f64])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| f64::from(u8::from(r[0] > 4.5)))
            .collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn names() -> Vec<String> {
        vec!["a".into(), "b".into()]
    }

    #[test]
    fn auto_selects_linear_for_continuous() {
        let (x, y) = continuous_data();
        let m = TrainedModel::fit(
            "sales",
            KpiKind::Continuous,
            names(),
            x,
            y,
            &ModelConfig::default(),
        )
        .unwrap();
        assert_eq!(m.kind(), ModelKind::Linear);
        assert!(
            m.confidence() > 0.99,
            "exact linear data: {}",
            m.confidence()
        );
    }

    #[test]
    fn auto_selects_forest_for_binary() {
        let (x, y) = binary_data();
        let cfg = ModelConfig {
            n_trees: 20,
            ..ModelConfig::default()
        };
        let m = TrainedModel::fit("won", KpiKind::Binary, names(), x, y, &cfg).unwrap();
        assert_eq!(m.kind(), ModelKind::RandomForest);
        assert!(m.confidence() > 0.9, "auc {}", m.confidence());
        // Baseline KPI is a rate in [0, 1].
        assert!((0.0..=1.0).contains(&m.baseline_kpi()));
    }

    #[test]
    fn kind_kpi_mismatches_are_rejected() {
        let (x, y) = binary_data();
        let cfg = ModelConfig {
            kind: ModelKind::Linear,
            ..ModelConfig::default()
        };
        assert!(
            TrainedModel::fit("won", KpiKind::Binary, names(), x.clone(), y.clone(), &cfg).is_err()
        );
        let (cx, cy) = continuous_data();
        let cfg = ModelConfig {
            kind: ModelKind::Logistic,
            ..cfg
        };
        assert!(TrainedModel::fit("sales", KpiKind::Continuous, names(), cx, cy, &cfg).is_err());
    }

    #[test]
    fn forest_works_for_continuous_too() {
        let (x, y) = continuous_data();
        let cfg = ModelConfig {
            kind: ModelKind::RandomForest,
            n_trees: 20,
            ..ModelConfig::default()
        };
        let m = TrainedModel::fit("sales", KpiKind::Continuous, names(), x, y, &cfg).unwrap();
        assert_eq!(m.kind(), ModelKind::RandomForest);
        assert!(m.confidence() > 0.7, "r2 {}", m.confidence());
    }

    #[test]
    fn logistic_works_for_binary() {
        let (x, y) = binary_data();
        let cfg = ModelConfig {
            kind: ModelKind::Logistic,
            ..ModelConfig::default()
        };
        let m = TrainedModel::fit("won", KpiKind::Binary, names(), x, y, &cfg).unwrap();
        assert_eq!(m.kind(), ModelKind::Logistic);
        assert!(m.confidence() > 0.9);
    }

    #[test]
    fn native_importances_are_signed_and_ranked() {
        let (x, y) = continuous_data();
        let m = TrainedModel::fit(
            "sales",
            KpiKind::Continuous,
            names(),
            x,
            y,
            &ModelConfig::default(),
        )
        .unwrap();
        let imp = m.native_importances().unwrap();
        assert!(imp[0] > 0.0, "a drives KPI up");
        assert!(imp[1] < 0.0, "b drives KPI down");
        assert!(imp[0].abs() > imp[1].abs());
        assert!(imp.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn forest_importances_get_correlation_signs() {
        let (x, y) = binary_data();
        let cfg = ModelConfig {
            n_trees: 30,
            ..ModelConfig::default()
        };
        let m = TrainedModel::fit("won", KpiKind::Binary, names(), x, y, &cfg).unwrap();
        let imp = m.native_importances().unwrap();
        assert!(imp[0] > 0.0, "positive driver gets positive sign: {imp:?}");
        assert!(imp[0].abs() > imp[1].abs());
    }

    #[test]
    fn too_few_rows_rejected() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert!(TrainedModel::fit(
            "k",
            KpiKind::Continuous,
            vec!["a".into()],
            x,
            vec![1.0, 2.0],
            &ModelConfig::default()
        )
        .is_err());
    }

    #[test]
    fn driver_index_lookup() {
        let (x, y) = continuous_data();
        let m = TrainedModel::fit(
            "sales",
            KpiKind::Continuous,
            names(),
            x,
            y,
            &ModelConfig::default(),
        )
        .unwrap();
        assert_eq!(m.driver_index("b").unwrap(), 1);
        assert!(m.driver_index("zz").is_err());
        assert_eq!(m.kpi_name(), "sales");
        assert_eq!(m.driver_names().len(), 2);
    }

    #[test]
    fn plan_kpi_matches_clone_path_exactly() {
        use crate::perturbation::{Perturbation, PerturbationSet};
        let (x, y) = continuous_data();
        let m = TrainedModel::fit(
            "sales",
            KpiKind::Continuous,
            names(),
            x,
            y,
            &ModelConfig::default(),
        )
        .unwrap();
        let set = PerturbationSet::new(vec![
            Perturbation::percentage("a", 25.0),
            Perturbation::absolute("b", -0.5),
        ]);
        let plan = m.compile_perturbations(&set).unwrap();
        let via_plan = m.kpi_for_plan(&plan).unwrap();
        let cloned = set.apply_to_matrix(m.matrix(), m.driver_names()).unwrap();
        let via_clone = m.kpi_for_matrix(&cloned).unwrap();
        assert!(via_plan.to_bits() == via_clone.to_bits());
        // Per-row predictions agree bit for bit too.
        let overlay = plan.overlay(m.matrix()).unwrap();
        let preds = m
            .predictions_for_view(whatif_learn::MatrixView::Overlay(&overlay))
            .unwrap();
        for (i, &p) in preds.iter().enumerate() {
            assert!(p.to_bits() == m.predict_row(cloned.row(i)).unwrap().to_bits());
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let (x, y) = continuous_data();
        let cfg = ModelConfig::default();
        let a = TrainedModel::fit(
            "sales",
            KpiKind::Continuous,
            names(),
            x.clone(),
            y.clone(),
            &cfg,
        )
        .unwrap();
        // Refit on identical inputs: identical identity (cross-session
        // cache sharing depends on this).
        let b = TrainedModel::fit(
            "sales",
            KpiKind::Continuous,
            names(),
            x.clone(),
            y.clone(),
            &cfg,
        )
        .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Thread count does not change the learned model — pinned on a
        // *forest* (the one family whose training actually fans out to
        // n_threads workers), since the fingerprint deliberately
        // excludes n_threads on exactly this invariance.
        let forest = |n_threads: usize| {
            TrainedModel::fit(
                "sales",
                KpiKind::Continuous,
                names(),
                x.clone(),
                y.clone(),
                &ModelConfig {
                    kind: ModelKind::RandomForest,
                    n_trees: 16,
                    n_threads,
                    ..cfg.clone()
                },
            )
            .unwrap()
        };
        assert_eq!(forest(1).fingerprint(), forest(4).fingerprint());
        assert_eq!(forest(4).fingerprint(), forest(7).fingerprint());
        // Any behavioral change — data, seed, KPI name — changes it.
        let mut y2 = y.clone();
        y2[0] += 1.0;
        let d =
            TrainedModel::fit("sales", KpiKind::Continuous, names(), x.clone(), y2, &cfg).unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
        let seeded = ModelConfig { seed: 9, ..cfg };
        let e = TrainedModel::fit(
            "sales",
            KpiKind::Continuous,
            names(),
            x.clone(),
            y.clone(),
            &seeded,
        )
        .unwrap();
        assert_ne!(a.fingerprint(), e.fingerprint());
        let f = TrainedModel::fit(
            "other",
            KpiKind::Continuous,
            names(),
            x,
            y,
            &ModelConfig::default(),
        )
        .unwrap();
        assert_ne!(a.fingerprint(), f.fingerprint());
    }

    #[test]
    fn training_fingerprint_keys_the_inputs_not_the_outputs() {
        let (x, y) = continuous_data();
        let cfg = ModelConfig::default();
        let key = |x: &Matrix, y: &[f64], cfg: &ModelConfig| {
            training_fingerprint("sales", KpiKind::Continuous, &names(), x, y, cfg).unwrap()
        };
        // Deterministic in the inputs, computable without training.
        assert_eq!(key(&x, &y, &cfg), key(&x, &y, &cfg));
        // Thread count is excluded: training is thread-count invariant.
        let threaded = ModelConfig {
            n_threads: 9,
            ..cfg.clone()
        };
        assert_eq!(key(&x, &y, &cfg), key(&x, &y, &threaded));
        // Any behavioral input separates keys: data, seed, family.
        let mut y2 = y.clone();
        y2[0] += 1.0;
        assert_ne!(key(&x, &y, &cfg), key(&x, &y2, &cfg));
        let seeded = ModelConfig {
            seed: 3,
            ..cfg.clone()
        };
        assert_ne!(key(&x, &y, &cfg), key(&x, &y, &seeded));
        let forest = ModelConfig {
            kind: ModelKind::RandomForest,
            ..cfg.clone()
        };
        assert_ne!(key(&x, &y, &cfg), key(&x, &y, &forest));
        // It rejects exactly what `fit` rejects.
        assert!(training_fingerprint(
            "sales",
            KpiKind::Continuous,
            &names(),
            &x,
            &y,
            &ModelConfig {
                kind: ModelKind::Logistic,
                ..cfg
            },
        )
        .is_err());
    }

    #[test]
    fn weight_bytes_charges_the_training_data() {
        let (x, y) = continuous_data();
        let floor = (x.n_rows() * x.n_cols() + y.len()) * 8;
        let m = TrainedModel::fit(
            "sales",
            KpiKind::Continuous,
            names(),
            x,
            y,
            &ModelConfig::default(),
        )
        .unwrap();
        assert!(m.weight_bytes() >= floor);
        // Forests charge more than the linear family on the same data.
        let (x, y) = continuous_data();
        let f = TrainedModel::fit(
            "sales",
            KpiKind::Continuous,
            names(),
            x,
            y,
            &ModelConfig {
                kind: ModelKind::RandomForest,
                n_trees: 20,
                ..ModelConfig::default()
            },
        )
        .unwrap();
        assert!(f.weight_bytes() > m.weight_bytes());
    }

    #[test]
    fn weight_bytes_charges_the_leaf_table_up_front() {
        let (x, y) = binary_data();
        let rows = x.n_rows();
        let names_bytes: usize = names()
            .iter()
            .map(|n| n.len() + std::mem::size_of::<String>())
            .sum();
        let floor = (rows * x.n_cols() + rows) * 8 + names_bytes + "won".len();
        let fit = |kind: ModelKind| {
            let cfg = ModelConfig {
                kind,
                n_trees: 20,
                ..ModelConfig::default()
            };
            TrainedModel::fit("won", KpiKind::Binary, names(), x.clone(), y.clone(), &cfg).unwrap()
        };
        // The leaves and the memo, 2 B per (row, tree) each, and the
        // feature index: 2 B per internal node (a tree of k internal
        // nodes has 2k + 1) and a 4 B offset per (tree, driver), plus one.
        let table = |trees: usize, nodes: usize| {
            rows * trees * 2 * 2 + (nodes - trees) / 2 * 2 + (trees * x.n_cols() + 1) * 4
        };
        let forest = fit(ModelKind::RandomForest);
        let FittedModel::ForestClassifier(f) = &forest.model else {
            panic!("a forest model")
        };
        let forest_table = table(20, f.n_nodes());
        assert_eq!(
            forest.weight_bytes(),
            floor + forest_bytes(20, rows) + forest_table
        );
        let gbdt = fit(ModelKind::Gbdt);
        let FittedModel::GbdtClassifier(g) = &gbdt.model else {
            panic!("a GBDT model")
        };
        assert_eq!(
            gbdt.weight_bytes(),
            floor + g.n_nodes() * 24 + table(g.n_trees(), g.n_nodes())
        );
        // The charge covers the table that gets built, memo included,
        // and neither building it nor a drag that fills the memo
        // changes the weight the store already recorded.
        let before = forest.weight_bytes();
        for pct in [10.0, 20.0, 40.0] {
            let mut one = ColumnOverlay::new(forest.matrix());
            one.map_col(0, |v| v * (1.0 + pct / 100.0)).unwrap();
            forest.kpi_for_view(MatrixView::Overlay(&one)).unwrap();
        }
        let built = forest.leaf_table.get().and_then(Option::as_ref).unwrap();
        assert_eq!(built.heap_bytes(), forest_table);
        assert_eq!(forest.weight_bytes(), before);
        // Linear families pay for no table.
        let logistic = fit(ModelKind::Logistic);
        assert_eq!(
            logistic.weight_bytes(),
            floor + 3 * 8 + std::mem::size_of::<FittedModel>()
        );
    }

    #[test]
    fn only_one_driver_overlays_of_the_training_matrix_take_the_delta_path() {
        let (x, y) = binary_data();
        let cfg = ModelConfig {
            n_trees: 12,
            ..ModelConfig::default()
        };
        let m = TrainedModel::fit("won", KpiKind::Binary, names(), x, y, &cfg).unwrap();
        let full = |view: MatrixView<'_>| {
            let mut out = vec![0.0; view.n_rows()];
            m.predictor().predict_batch(view, &mut out).unwrap();
            out
        };
        let same = |a: Vec<f64>, b: Vec<f64>| {
            assert!(a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()));
        };
        let copy = m.matrix().clone();
        let mut of_copy = ColumnOverlay::new(&copy);
        of_copy.map_col(0, |v| v * 1.5).unwrap();
        let mut two = ColumnOverlay::new(m.matrix());
        two.map_col(0, |v| v * 1.5).unwrap();
        two.map_col(1, |v| v - 1.0).unwrap();
        let mut moved = ColumnOverlay::new(m.matrix());
        moved.map_col(0, |v| v).unwrap();
        let others = [
            MatrixView::Dense(m.matrix()),
            MatrixView::Overlay(&two),
            MatrixView::Overlay(&of_copy),
        ];
        // Dense input, two moved columns and an overlay of a copy of the
        // training matrix take today's kernel and build no table.
        for view in others {
            assert!(m.one_driver_overlay(view).is_none());
            same(m.predictions_for_view(view).unwrap(), full(view));
        }
        assert!(m.leaf_table.get().is_none());
        // One moved column of the training matrix builds the table once.
        let one = MatrixView::Overlay(&moved);
        assert!(m.one_driver_overlay(one).is_some());
        same(m.predictions_for_view(one).unwrap(), full(one));
        let table = m.leaf_table.get().and_then(Option::as_ref).unwrap();
        assert_eq!((table.n_rows(), table.n_trees()), (80, 12));
        // With the table built, the other views still skip it.
        for view in others {
            assert!(m.one_driver_overlay(view).is_none());
            same(m.predictions_for_view(view).unwrap(), full(view));
        }
        // A linear model routes the same view and gets no table.
        let (cx, cy) = continuous_data();
        let linear = TrainedModel::fit(
            "sales",
            KpiKind::Continuous,
            names(),
            cx,
            cy,
            &ModelConfig::default(),
        )
        .unwrap();
        let mut moved = ColumnOverlay::new(linear.matrix());
        moved.map_col(1, |v| v * 2.0).unwrap();
        linear.kpi_for_view(MatrixView::Overlay(&moved)).unwrap();
        assert!(matches!(linear.leaf_table.get(), Some(None)));
    }

    #[test]
    fn gbdt_works_for_both_kpi_kinds() {
        let (x, y) = binary_data();
        let cfg = ModelConfig {
            kind: ModelKind::Gbdt,
            n_trees: 40,
            ..ModelConfig::default()
        };
        let m = TrainedModel::fit("won", KpiKind::Binary, names(), x, y, &cfg).unwrap();
        assert_eq!(m.kind(), ModelKind::Gbdt);
        assert!(m.confidence() > 0.9, "auc {}", m.confidence());
        assert!((0.0..=1.0).contains(&m.baseline_kpi()));
        let imp = m.native_importances().unwrap();
        assert!(imp[0] > 0.0, "positive driver keeps its sign: {imp:?}");

        let (cx, cy) = continuous_data();
        let m = TrainedModel::fit("sales", KpiKind::Continuous, names(), cx, cy, &cfg).unwrap();
        assert_eq!(m.kind(), ModelKind::Gbdt);
        assert!(m.confidence() > 0.8, "r2 {}", m.confidence());
        // Batch path agrees with the row path bit for bit.
        let preds = m
            .predictions_for_view(MatrixView::Dense(m.matrix()))
            .unwrap();
        for (i, &p) in preds.iter().enumerate() {
            let row = m.matrix().row(i).to_vec();
            assert_eq!(p.to_bits(), m.predict_row(&row).unwrap().to_bits());
        }
    }

    #[test]
    fn gbdt_is_fingerprint_distinct_from_forest() {
        let (x, y) = binary_data();
        let fit = |kind: ModelKind| {
            TrainedModel::fit(
                "won",
                KpiKind::Binary,
                names(),
                x.clone(),
                y.clone(),
                &ModelConfig {
                    kind,
                    n_trees: 15,
                    ..ModelConfig::default()
                },
            )
            .unwrap()
        };
        let forest = fit(ModelKind::RandomForest);
        let gbdt = fit(ModelKind::Gbdt);
        assert_ne!(forest.fingerprint(), gbdt.fingerprint());
        // And the pre-train key separates the requests the same way.
        let key = |kind: ModelKind| {
            training_fingerprint(
                "won",
                KpiKind::Binary,
                &names(),
                &x,
                &y,
                &ModelConfig {
                    kind,
                    n_trees: 15,
                    ..ModelConfig::default()
                },
            )
            .unwrap()
        };
        assert_ne!(key(ModelKind::RandomForest), key(ModelKind::Gbdt));
    }

    #[test]
    fn trainer_tier_and_bins_key_the_fingerprints() {
        let (x, y) = continuous_data();
        let cfg = |trainer: TrainerTier, n_bins: usize| ModelConfig {
            kind: ModelKind::RandomForest,
            n_trees: 12,
            trainer,
            n_bins,
            ..ModelConfig::default()
        };
        let key = |c: &ModelConfig| {
            training_fingerprint("sales", KpiKind::Continuous, &names(), &x, &y, c).unwrap()
        };
        let exact = cfg(TrainerTier::Exact, 256);
        let binned = cfg(TrainerTier::Binned, 256);
        let coarse = cfg(TrainerTier::Binned, 64);
        // Same data + config, different tier ⇒ different training key,
        // so the ModelStore can never serve a binned model to an
        // exact-tier request (or vice versa).
        assert_ne!(key(&exact), key(&binned));
        assert_ne!(key(&binned), key(&coarse));
        // Post-train fingerprints separate too.
        let fit = |c: &ModelConfig| {
            TrainedModel::fit(
                "sales",
                KpiKind::Continuous,
                names(),
                x.clone(),
                y.clone(),
                c,
            )
            .unwrap()
        };
        let me = fit(&exact);
        let mb = fit(&binned);
        assert_ne!(me.fingerprint(), mb.fingerprint());
        // The binned tier trains a real model of the same family.
        assert_eq!(mb.kind(), ModelKind::RandomForest);
        assert!(mb.confidence() > 0.6, "binned r2 {}", mb.confidence());
    }

    #[test]
    fn zero_holdout_scores_on_training_data() {
        let (x, y) = continuous_data();
        let cfg = ModelConfig {
            holdout_fraction: 0.0,
            ..ModelConfig::default()
        };
        let m = TrainedModel::fit("sales", KpiKind::Continuous, names(), x, y, &cfg).unwrap();
        assert!((m.confidence() - 1.0).abs() < 1e-9);
    }
}
