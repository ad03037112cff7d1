//! Bootstrap random forests (classifier + regressor).
//!
//! The paper's discrete-KPI model is a scikit-learn
//! `RandomForestClassifier`; driver importances are its impurity feature
//! importances. This implementation reproduces those semantics: bootstrap
//! rows per tree, sqrt/one-third feature subsampling per split, averaged
//! normalized impurity importances, and out-of-bag scoring. Trees train
//! in parallel on std scoped threads.
//!
//! Batched prediction is **tree-major blocked**: rows are scored in
//! blocks of [`PREDICT_ROW_BLOCK`], and within a block every tree is
//! traversed for all rows before the next tree starts, so one tree's
//! flattened node arrays stay cache-hot across the block instead of the
//! whole forest being dragged through cache once per row. The per-row
//! shape check is hoisted to one check per batch. Both changes are
//! bit-identical to the seed's row-major `if x <= t` walk, which
//! `tests/forest_equivalence.rs` keeps as its oracle.
//!
//! A view that moves one column of the training matrix can skip most
//! of that work: both forest families (and both GBDT types) implement
//! [`Predictor::leaf_table`] and [`Predictor::predict_delta`], which
//! keep each (row, tree) pair's training-matrix leaf wherever the moved
//! value cannot change it and walk only the rest ([`crate::delta`]).
//! The delta kernel fans out over rows with the same worker rule as
//! the full kernel and gives the same bits.

use crate::binned::{grow_binned, BinnedDataset};
use crate::delta::{predict_delta_flats, LeafTable};
use crate::linalg::Matrix;
use crate::model::{
    check_batch_shape, check_binary_labels, Classifier, LearnError, MatrixView, Predictor,
    Regressor,
};
use crate::overlay::ColumnOverlay;
use crate::tree::{
    check_no_nan_features, DecisionTreeClassifier, DecisionTreeRegressor, FlatTree, FullPresort,
    Gini, Mse, Trainer, TreeConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use whatif_stats::sampling::{bootstrap_indices, out_of_bag_indices};

/// Forest hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree CART parameters (`max_features = None` selects the
    /// family default: √p for classification, p/3 for regression).
    pub tree: TreeConfig,
    /// Master seed; tree seeds derive from it.
    pub seed: u64,
    /// Worker threads for training and batch prediction (`1` =
    /// sequential), capped by [`worker_count`].
    pub n_threads: usize,
    /// Training tier. [`Trainer::Presorted`] is exact (bit-identical to
    /// the seed CART); [`Trainer::Binned`] trades bit-identity for
    /// O(bins) split scans (see [`crate::binned`]).
    pub trainer: Trainer,
    /// Bins per feature for the binned tier (clamped to `2..=256`);
    /// ignored by the exact trainer.
    pub n_bins: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            tree: TreeConfig::default(),
            seed: 0,
            n_threads: 4,
            trainer: Trainer::Presorted,
            n_bins: crate::binned::MAX_BINS,
        }
    }
}

/// Shared fitting logic: train `n_trees` base learners on bootstrap rows
/// and collect per-tree OOB predictions.
///
/// Fitted base learners paired with their out-of-bag row indices.
type FittedTrees<T> = Vec<(T, Vec<usize>)>;

/// `train` receives `(tree_seed, bootstrap_sample)` and returns the fitted
/// base learner; the caller supplies the family-specific constructor.
fn fit_trees<T, F>(
    n_rows: usize,
    config: &ForestConfig,
    train: F,
) -> Result<FittedTrees<T>, LearnError>
where
    T: Send,
    F: Fn(u64, &[usize]) -> Result<T, LearnError> + Sync,
{
    if config.n_trees == 0 {
        return Err(LearnError::Invalid(
            "forest needs at least one tree".to_owned(),
        ));
    }
    if n_rows == 0 {
        return Err(LearnError::Invalid("cannot fit on zero rows".to_owned()));
    }
    // Pre-draw bootstrap samples deterministically from the master seed.
    let mut master = StdRng::seed_from_u64(config.seed);
    let jobs: Vec<(u64, Vec<usize>)> = (0..config.n_trees)
        .map(|_| {
            let tree_seed: u64 = master.gen();
            let sample = bootstrap_indices(&mut master, n_rows);
            (tree_seed, sample)
        })
        .collect();

    let n_threads = worker_count(config.n_threads, config.n_trees);
    if n_threads == 1 {
        return jobs
            .into_iter()
            .map(|(seed, sample)| {
                let oob = out_of_bag_indices(&sample, n_rows);
                train(seed, &sample).map(|t| (t, oob))
            })
            .collect();
    }

    let chunk = jobs.len().div_ceil(n_threads);
    let results: Vec<Result<FittedTrees<T>, LearnError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|chunk_jobs| {
                let train = &train;
                scope.spawn(move || {
                    chunk_jobs
                        .iter()
                        .map(|(seed, sample)| {
                            let oob = out_of_bag_indices(sample, n_rows);
                            train(*seed, sample).map(|t| (t, oob))
                        })
                        .collect::<Result<Vec<_>, LearnError>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("forest worker panicked"))
            .collect()
    });

    let mut out = Vec::with_capacity(config.n_trees);
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// Minimum row×tree work before a forest batch fans out to threads.
/// Exposed so callers that parallelize at a coarser level (e.g. per
/// scenario) can predict whether a batch will spawn its own workers
/// and avoid nesting fan-outs.
pub const PARALLEL_BATCH_MIN_WORK: usize = 8_192;

/// Rows scored per tree-major block: small enough that the accumulator
/// and a gathered overlay block stay L1/L2-resident, large enough to
/// amortize walking every tree's node arrays once per block.
pub const PREDICT_ROW_BLOCK: usize = 512;

/// Cached [`std::thread::available_parallelism`]. The lookup is a
/// syscall (cgroup-aware, ~10µs on containerized hosts) — far too slow
/// to repeat on every predict batch when interactive what-if grids
/// score thousands of short batches per request. Hardware parallelism
/// does not change while the process runs, so one probe serves all.
pub fn hardware_parallelism() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// The one worker-count rule for every fan-out over `jobs` independent
/// jobs (trees to train, rows to score, scenarios to price): the
/// caller's `requested` count, but at least one, at most one per job,
/// and never more than [`hardware_parallelism`]. Thread counts arrive
/// from clients unchecked, so this cap is what keeps a request from
/// spawning an OS thread per unit of work. Results never depend on the
/// count: training pre-draws every tree's seed and sample, and scoring
/// writes each row's own slot.
pub fn worker_count(requested: usize, jobs: usize) -> usize {
    requested
        .max(1)
        .min(jobs.max(1))
        .min(hardware_parallelism())
}

/// Decide the worker count for a batch of `rows` rows over `n_trees`
/// trees. Thread spawn costs ~tens of µs; only fan out when the batch
/// has enough row×tree work to amortize it.
pub(crate) fn batch_threads(n_threads: usize, rows: usize, n_trees: usize) -> usize {
    let work = rows.saturating_mul(n_trees);
    if work < PARALLEL_BATCH_MIN_WORK {
        1
    } else {
        worker_count(n_threads, rows)
    }
}

/// Shared batched prediction for every tree ensemble, tree-major
/// blocked. Rows are split into contiguous chunks scored on
/// `std::thread::scope` workers; within each [`PREDICT_ROW_BLOCK`]-row
/// block, every tree is traversed for the whole block before the next
/// tree starts. `finalize` maps each row's accumulated leaf sum to the
/// final score — `sum / n_trees` for forests, `base + sum` (or its
/// sigmoid) for boosted ensembles. Per-row math (sum trees in order,
/// finalize once) matches the corresponding `predict_row` exactly, and
/// every row writes its own slot, so the result is bit-identical and
/// deterministic regardless of thread count and block size.
pub(crate) fn predict_batch_flats(
    trees: &[&FlatTree],
    n_threads: usize,
    x: MatrixView<'_>,
    out: &mut [f64],
    finalize: impl Fn(f64) -> f64 + Sync,
) -> Result<(), LearnError> {
    if trees.is_empty() {
        return Err(LearnError::NotFitted);
    }
    // One shape check per batch; traversals below are unchecked.
    check_batch_shape(trees[0].n_features(), &x, out)?;
    if out.is_empty() {
        return Ok(());
    }
    let p = x.n_cols();
    let score_rows = |start: usize, chunk: &mut [f64]| {
        let mut gather = match x {
            MatrixView::Dense(_) => Vec::new(),
            // Small batches (interactive what-if grids score one short
            // scenario at a time) must not pay for a full block's
            // scratch: size the gather buffer by the rows we actually
            // have.
            MatrixView::Overlay(_) => vec![0.0; PREDICT_ROW_BLOCK.min(chunk.len()) * p],
        };
        for (block_no, acc) in chunk.chunks_mut(PREDICT_ROW_BLOCK).enumerate() {
            let row0 = start + block_no * PREDICT_ROW_BLOCK;
            acc.fill(0.0);
            // Rows of a block form one contiguous row-major region:
            // dense input borrows it straight from the matrix; overlays
            // gather each row once per block, reused by every tree.
            let block: &[f64] = match x {
                MatrixView::Dense(m) => &m.data()[row0 * p..(row0 + acc.len()) * p],
                MatrixView::Overlay(o) => {
                    for bi in 0..acc.len() {
                        o.gather_row(row0 + bi, &mut gather[bi * p..(bi + 1) * p]);
                    }
                    &gather[..acc.len() * p]
                }
            };
            for t in trees {
                t.accumulate_block(block, p, acc);
            }
            for slot in acc.iter_mut() {
                *slot = finalize(*slot);
            }
        }
    };
    for_row_chunks(n_threads, trees.len(), out, score_rows);
    Ok(())
}

/// Fill `out` in contiguous row chunks, one per worker under the
/// [`batch_threads`] rule; `score_rows(first_row, chunk)` scores one
/// chunk. Every row writes its own slot, so the result never depends
/// on the worker count.
pub(crate) fn for_row_chunks(
    n_threads: usize,
    n_trees: usize,
    out: &mut [f64],
    score_rows: impl Fn(usize, &mut [f64]) + Sync,
) {
    let n_threads = batch_threads(n_threads, out.len(), n_trees);
    if n_threads == 1 {
        score_rows(0, out);
        return;
    }
    let chunk_len = out.len().div_ceil(n_threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = out
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(k, chunk)| {
                let score_rows = &score_rows;
                scope.spawn(move || score_rows(k * chunk_len, chunk))
            })
            .collect();
        for h in handles {
            h.join().expect("forest batch worker panicked");
        }
    });
}

fn averaged_importances(per_tree: &[Vec<f64>], p: usize) -> Vec<f64> {
    let mut avg = vec![0.0; p];
    for imp in per_tree {
        for (a, v) in avg.iter_mut().zip(imp) {
            *a += v;
        }
    }
    let total: f64 = avg.iter().sum();
    if total > 0.0 {
        for a in avg.iter_mut() {
            *a /= total;
        }
    }
    avg
}

/// Sum of one row's predictions across fitted trees, unchecked (the
/// caller has validated the row width once).
fn sum_trees<'a>(flats: impl Iterator<Item = Option<&'a FlatTree>>, row: &[f64]) -> f64 {
    let mut sum = 0.0;
    for t in flats {
        sum += t.expect("fitted forest holds fitted trees").traverse(row);
    }
    sum
}

/// A bootstrap random-forest binary classifier. Predictions are mean leaf
/// probabilities across trees.
#[derive(Debug, Clone)]
pub struct RandomForestClassifier {
    /// Forest hyperparameters.
    pub config: ForestConfig,
    trees: Vec<DecisionTreeClassifier>,
    oob_score: Option<f64>,
    importances: Vec<f64>,
}

impl Default for RandomForestClassifier {
    fn default() -> Self {
        RandomForestClassifier::new(ForestConfig::default())
    }
}

impl RandomForestClassifier {
    /// Forest with the given hyperparameters.
    pub fn new(config: ForestConfig) -> Self {
        RandomForestClassifier {
            config,
            trees: Vec::new(),
            oob_score: None,
            importances: Vec::new(),
        }
    }

    /// Convenience constructor: `n_trees` trees, given seed, defaults
    /// elsewhere.
    pub fn with_trees(n_trees: usize, seed: u64) -> Self {
        let config = ForestConfig {
            n_trees,
            seed,
            ..ForestConfig::default()
        };
        RandomForestClassifier::new(config)
    }

    /// Normalized impurity feature importances averaged over trees
    /// (all ≥ 0, sum to 1).
    ///
    /// # Errors
    /// [`LearnError::NotFitted`] before fit.
    pub fn feature_importances(&self) -> Result<&[f64], LearnError> {
        if self.trees.is_empty() {
            return Err(LearnError::NotFitted);
        }
        Ok(&self.importances)
    }

    /// Out-of-bag accuracy estimate (rows never sampled by a tree are
    /// scored by that tree; majority vote per row).
    ///
    /// # Errors
    /// [`LearnError::NotFitted`] before fit.
    pub fn oob_accuracy(&self) -> Result<f64, LearnError> {
        self.oob_score.ok_or(LearnError::NotFitted)
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees' flat layouts, in tree order.
    fn flats(&self) -> Vec<&FlatTree> {
        self.trees
            .iter()
            .filter_map(DecisionTreeClassifier::flat)
            .collect()
    }

    fn fit_impl(&mut self, x: &Matrix, y: &[u8]) -> Result<(), LearnError> {
        check_binary_labels(x, y)?;
        // One NaN screen for the whole forest instead of one per tree.
        check_no_nan_features(x)?;
        let p = x.n_cols();
        let mut tree_config = self.config.tree.clone();
        if tree_config.max_features.is_none() {
            // Classification default: sqrt(p).
            tree_config.max_features = Some(((p as f64).sqrt().round() as usize).clamp(1, p));
        }
        // One full-dataset presort shared by every tree worker; the
        // binned tier quantizes it once more into one shared bin matrix
        // (this is the "one-time per-forest" cost — tree workers never
        // sort or scan full-precision columns again).
        let yf: Vec<f64> = y.iter().map(|&v| f64::from(v)).collect();
        let presort = FullPresort::new(x, &yf);
        let binned = match self.config.trainer {
            Trainer::Binned => Some(BinnedDataset::from_presort(x, &presort, self.config.n_bins)),
            Trainer::Presorted => None,
        };
        let fitted = fit_trees(x.n_rows(), &self.config, |seed, sample| {
            let mut cfg = tree_config.clone();
            cfg.seed = seed;
            match &binned {
                Some(data) => {
                    let flat = grow_binned::<Gini>(data, &yf, sample, &cfg);
                    Ok(DecisionTreeClassifier::from_flat(cfg, flat))
                }
                None => {
                    let mut t = DecisionTreeClassifier::new(cfg);
                    t.fit_on_sample_with(x, y, sample, Some(&presort))?;
                    Ok(t)
                }
            }
        })?;

        // OOB vote accumulation, walking each flat tree unchecked (row
        // widths come straight from `x`).
        let mut prob_sum = vec![0.0f64; x.n_rows()];
        let mut votes = vec![0u32; x.n_rows()];
        let mut trees = Vec::with_capacity(fitted.len());
        let mut per_tree_imp = Vec::with_capacity(fitted.len());
        for (t, oob) in fitted {
            let flat = t.flat().ok_or(LearnError::NotFitted)?;
            for &i in &oob {
                prob_sum[i] += flat.traverse(x.row(i));
                votes[i] += 1;
            }
            per_tree_imp.push(t.feature_importances()?);
            trees.push(t);
        }
        let mut correct = 0usize;
        let mut counted = 0usize;
        for i in 0..x.n_rows() {
            if votes[i] == 0 {
                continue;
            }
            counted += 1;
            let pred = u8::from(prob_sum[i] / f64::from(votes[i]) >= 0.5);
            if pred == y[i] {
                correct += 1;
            }
        }
        self.oob_score = Some(if counted == 0 {
            f64::NAN
        } else {
            correct as f64 / counted as f64
        });
        self.importances = averaged_importances(&per_tree_imp, p);
        self.trees = trees;
        Ok(())
    }
}

impl Classifier for RandomForestClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), LearnError> {
        self.fit_impl(x, y)
    }
}

impl Predictor for RandomForestClassifier {
    fn predict_row(&self, x: &[f64]) -> Result<f64, LearnError> {
        let first = self.trees.first().ok_or(LearnError::NotFitted)?;
        if x.len() != first.n_features() {
            return Err(LearnError::Shape(format!(
                "row has {} features, tree expects {}",
                x.len(),
                first.n_features()
            )));
        }
        let sum = sum_trees(self.trees.iter().map(DecisionTreeClassifier::flat), x);
        Ok(sum / self.trees.len() as f64)
    }

    fn n_features(&self) -> usize {
        self.trees.first().map_or(0, Predictor::n_features)
    }

    fn predict_batch(&self, x: MatrixView<'_>, out: &mut [f64]) -> Result<(), LearnError> {
        let flats = self.flats();
        let n_trees = flats.len() as f64;
        predict_batch_flats(&flats, self.config.n_threads, x, out, |s| s / n_trees)
    }

    fn leaf_table(&self, x: &Matrix) -> Option<LeafTable> {
        LeafTable::build(&self.flats(), x, self.config.n_threads)
    }

    fn predict_delta(
        &self,
        table: &LeafTable,
        x: &ColumnOverlay<'_>,
        out: &mut [f64],
    ) -> Result<(), LearnError> {
        let flats = self.flats();
        let n_trees = flats.len() as f64;
        predict_delta_flats(&flats, self.config.n_threads, table, x, out, |s| {
            s / n_trees
        })
    }
}

/// A bootstrap random-forest regressor. Predictions are mean leaf values
/// across trees.
#[derive(Debug, Clone)]
pub struct RandomForestRegressor {
    /// Forest hyperparameters.
    pub config: ForestConfig,
    trees: Vec<DecisionTreeRegressor>,
    oob_r2: Option<f64>,
    importances: Vec<f64>,
}

impl Default for RandomForestRegressor {
    fn default() -> Self {
        RandomForestRegressor::new(ForestConfig::default())
    }
}

impl RandomForestRegressor {
    /// Forest with the given hyperparameters.
    pub fn new(config: ForestConfig) -> Self {
        RandomForestRegressor {
            config,
            trees: Vec::new(),
            oob_r2: None,
            importances: Vec::new(),
        }
    }

    /// Convenience constructor: `n_trees` trees, given seed.
    pub fn with_trees(n_trees: usize, seed: u64) -> Self {
        let config = ForestConfig {
            n_trees,
            seed,
            ..ForestConfig::default()
        };
        RandomForestRegressor::new(config)
    }

    /// Normalized impurity feature importances averaged over trees.
    ///
    /// # Errors
    /// [`LearnError::NotFitted`] before fit.
    pub fn feature_importances(&self) -> Result<&[f64], LearnError> {
        if self.trees.is_empty() {
            return Err(LearnError::NotFitted);
        }
        Ok(&self.importances)
    }

    /// Out-of-bag R² estimate.
    ///
    /// # Errors
    /// [`LearnError::NotFitted`] before fit.
    pub fn oob_r2(&self) -> Result<f64, LearnError> {
        self.oob_r2.ok_or(LearnError::NotFitted)
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees' flat layouts, in tree order.
    fn flats(&self) -> Vec<&FlatTree> {
        self.trees
            .iter()
            .filter_map(DecisionTreeRegressor::flat)
            .collect()
    }

    fn fit_impl(&mut self, x: &Matrix, y: &[f64]) -> Result<(), LearnError> {
        if y.len() != x.n_rows() {
            return Err(LearnError::Shape(format!(
                "{} targets for {} rows",
                y.len(),
                x.n_rows()
            )));
        }
        check_no_nan_features(x)?;
        let p = x.n_cols();
        let mut tree_config = self.config.tree.clone();
        if tree_config.max_features.is_none() {
            // Regression default: p/3.
            tree_config.max_features = Some((p / 3).clamp(1, p.max(1)));
        }
        // One full-dataset presort shared by every tree worker; the
        // binned tier quantizes it once more into one shared bin matrix.
        let presort = FullPresort::new(x, y);
        let binned = match self.config.trainer {
            Trainer::Binned => Some(BinnedDataset::from_presort(x, &presort, self.config.n_bins)),
            Trainer::Presorted => None,
        };
        let fitted = fit_trees(x.n_rows(), &self.config, |seed, sample| {
            let mut cfg = tree_config.clone();
            cfg.seed = seed;
            match &binned {
                Some(data) => {
                    let flat = grow_binned::<Mse>(data, y, sample, &cfg);
                    Ok(DecisionTreeRegressor::from_flat(cfg, flat))
                }
                None => {
                    let mut t = DecisionTreeRegressor::new(cfg);
                    t.fit_on_sample_with(x, y, sample, Some(&presort))?;
                    Ok(t)
                }
            }
        })?;

        let mut pred_sum = vec![0.0f64; x.n_rows()];
        let mut votes = vec![0u32; x.n_rows()];
        let mut trees = Vec::with_capacity(fitted.len());
        let mut per_tree_imp = Vec::with_capacity(fitted.len());
        for (t, oob) in fitted {
            let flat = t.flat().ok_or(LearnError::NotFitted)?;
            for &i in &oob {
                pred_sum[i] += flat.traverse(x.row(i));
                votes[i] += 1;
            }
            per_tree_imp.push(t.feature_importances()?);
            trees.push(t);
        }
        let covered: Vec<usize> = (0..x.n_rows()).filter(|&i| votes[i] > 0).collect();
        self.oob_r2 = Some(if covered.len() < 2 {
            f64::NAN
        } else {
            let mean_y = covered.iter().map(|&i| y[i]).sum::<f64>() / covered.len() as f64;
            let ss_res: f64 = covered
                .iter()
                .map(|&i| {
                    let p = pred_sum[i] / f64::from(votes[i]);
                    (y[i] - p) * (y[i] - p)
                })
                .sum();
            let ss_tot: f64 = covered
                .iter()
                .map(|&i| (y[i] - mean_y) * (y[i] - mean_y))
                .sum();
            if ss_tot == 0.0 {
                0.0
            } else {
                1.0 - ss_res / ss_tot
            }
        });
        self.importances = averaged_importances(&per_tree_imp, p);
        self.trees = trees;
        Ok(())
    }
}

impl Regressor for RandomForestRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), LearnError> {
        self.fit_impl(x, y)
    }
}

impl Predictor for RandomForestRegressor {
    fn predict_row(&self, x: &[f64]) -> Result<f64, LearnError> {
        let first = self.trees.first().ok_or(LearnError::NotFitted)?;
        if x.len() != first.n_features() {
            return Err(LearnError::Shape(format!(
                "row has {} features, tree expects {}",
                x.len(),
                first.n_features()
            )));
        }
        let sum = sum_trees(self.trees.iter().map(DecisionTreeRegressor::flat), x);
        Ok(sum / self.trees.len() as f64)
    }

    fn n_features(&self) -> usize {
        self.trees.first().map_or(0, Predictor::n_features)
    }

    fn predict_batch(&self, x: MatrixView<'_>, out: &mut [f64]) -> Result<(), LearnError> {
        let flats = self.flats();
        let n_trees = flats.len() as f64;
        predict_batch_flats(&flats, self.config.n_threads, x, out, |s| s / n_trees)
    }

    fn leaf_table(&self, x: &Matrix) -> Option<LeafTable> {
        LeafTable::build(&self.flats(), x, self.config.n_threads)
    }

    fn predict_delta(
        &self,
        table: &LeafTable,
        x: &ColumnOverlay<'_>,
        out: &mut [f64],
    ) -> Result<(), LearnError> {
        let flats = self.flats();
        let n_trees = flats.len() as f64;
        predict_delta_flats(&flats, self.config.n_threads, table, x, out, |s| {
            s / n_trees
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Noisy two-feature classification problem: class = x0 + x1 > 1.
    fn class_data(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        let y: Vec<u8> = rows
            .iter()
            .map(|r| u8::from(r[0] + r[1] + 0.1 * (rng.gen::<f64>() - 0.5) > 1.0))
            .collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn reg_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen::<f64>() * 4.0, rng.gen::<f64>()])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r[0].sin() * 3.0 + 0.05 * (rng.gen::<f64>() - 0.5))
            .collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn classifier_fits_and_scores_well() {
        let (x, y) = class_data(400, 1);
        let mut f = RandomForestClassifier::with_trees(40, 7);
        f.fit(&x, &y).unwrap();
        assert_eq!(f.n_trees(), 40);
        let acc = f.oob_accuracy().unwrap();
        assert!(acc > 0.9, "oob accuracy {acc}");
        // Probabilities in range.
        let p = f.predict_row(x.row(0)).unwrap();
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn classifier_importances_identify_signal_features() {
        let (x, y) = class_data(400, 2);
        let mut f = RandomForestClassifier::with_trees(40, 3);
        f.fit(&x, &y).unwrap();
        let imp = f.feature_importances().unwrap();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // x2 is pure noise.
        assert!(imp[0] > imp[2] * 3.0, "{imp:?}");
        assert!(imp[1] > imp[2] * 3.0, "{imp:?}");
    }

    #[test]
    fn forest_is_deterministic_for_fixed_seed() {
        let (x, y) = class_data(200, 3);
        let mut a = RandomForestClassifier::with_trees(10, 42);
        let mut b = RandomForestClassifier::with_trees(10, 42);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        for i in 0..x.n_rows() {
            assert_eq!(
                a.predict_row(x.row(i)).unwrap(),
                b.predict_row(x.row(i)).unwrap()
            );
        }
        assert_eq!(
            a.feature_importances().unwrap(),
            b.feature_importances().unwrap()
        );
        // Different seed differs somewhere.
        let mut c = RandomForestClassifier::with_trees(10, 43);
        c.fit(&x, &y).unwrap();
        let same = (0..x.n_rows())
            .all(|i| a.predict_row(x.row(i)).unwrap() == c.predict_row(x.row(i)).unwrap());
        assert!(!same);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (x, y) = class_data(200, 4);
        let seq_cfg = ForestConfig {
            n_trees: 12,
            seed: 5,
            n_threads: 1,
            ..ForestConfig::default()
        };
        let mut par_cfg = seq_cfg.clone();
        par_cfg.n_threads = 4;
        let mut seq = RandomForestClassifier::new(seq_cfg);
        let mut par = RandomForestClassifier::new(par_cfg);
        seq.fit(&x, &y).unwrap();
        par.fit(&x, &y).unwrap();
        assert_eq!(
            seq.feature_importances().unwrap(),
            par.feature_importances().unwrap()
        );
        assert_eq!(seq.oob_accuracy().unwrap(), par.oob_accuracy().unwrap());
    }

    #[test]
    fn unbounded_thread_request_is_capped_and_changes_nothing() {
        let hw = hardware_parallelism();
        assert!(worker_count(usize::MAX, usize::MAX) <= hw);
        assert!(worker_count(usize::MAX, 120) <= hw);
        assert_eq!(worker_count(0, 120), 1);
        assert_eq!(worker_count(usize::MAX, 1), 1);
        assert_eq!(worker_count(usize::MAX, 0), 1);

        let (x, y) = class_data(150, 30);
        let fit = |n_threads| {
            let mut f = RandomForestClassifier::new(ForestConfig {
                n_trees: 16,
                seed: 31,
                n_threads,
                ..ForestConfig::default()
            });
            f.fit(&x, &y).unwrap();
            f
        };
        let (one, max) = (fit(1), fit(usize::MAX));
        assert_eq!(
            one.feature_importances().unwrap(),
            max.feature_importances().unwrap()
        );
        assert_eq!(
            one.oob_accuracy().unwrap().to_bits(),
            max.oob_accuracy().unwrap().to_bits()
        );
        let mut a = vec![0.0; x.n_rows()];
        let mut b = vec![0.0; x.n_rows()];
        one.predict_batch((&x).into(), &mut a).unwrap();
        max.predict_batch((&x).into(), &mut b).unwrap();
        assert!(a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()));
    }

    #[test]
    fn nan_features_error_cleanly_in_forest_fit() {
        let (x, y) = class_data(40, 18);
        let mut rows: Vec<Vec<f64>> = (0..x.n_rows()).map(|i| x.row(i).to_vec()).collect();
        rows[7][1] = f64::NAN;
        let bad = Matrix::from_rows(&rows).unwrap();
        let mut f = RandomForestClassifier::with_trees(4, 19);
        assert!(matches!(
            f.fit(&bad, &y).unwrap_err(),
            LearnError::Invalid(_)
        ));
        let mut r = RandomForestRegressor::with_trees(4, 19);
        let yr: Vec<f64> = y.iter().map(|&v| f64::from(v)).collect();
        assert!(matches!(
            r.fit(&bad, &yr).unwrap_err(),
            LearnError::Invalid(_)
        ));
    }

    #[test]
    fn regressor_fits_nonlinear_signal() {
        let (x, y) = reg_data(500, 6);
        let mut f = RandomForestRegressor::with_trees(40, 8);
        f.fit(&x, &y).unwrap();
        let r2 = f.oob_r2().unwrap();
        assert!(r2 > 0.9, "oob r2 {r2}");
        let imp = f.feature_importances().unwrap();
        assert!(imp[0] > 0.8, "signal feature dominates: {imp:?}");
    }

    #[test]
    fn errors_before_fit_and_on_bad_config() {
        let f = RandomForestClassifier::default();
        assert!(f.predict_row(&[0.0]).is_err());
        assert!(f.feature_importances().is_err());
        assert!(f.oob_accuracy().is_err());
        let r = RandomForestRegressor::default();
        assert!(r.predict_row(&[0.0]).is_err());
        assert!(r.oob_r2().is_err());

        let (x, y) = class_data(10, 9);
        let mut zero = RandomForestClassifier::with_trees(0, 0);
        assert!(zero.fit(&x, &y).is_err());
        let mut rr = RandomForestRegressor::with_trees(2, 0);
        assert!(rr.fit(&x, &[1.0]).is_err());
        let mut cc = RandomForestClassifier::with_trees(2, 0);
        assert!(cc.fit(&Matrix::zeros(0, 2), &[]).is_err());
    }

    #[test]
    fn batch_is_bit_identical_and_thread_count_invariant() {
        use crate::overlay::ColumnOverlay;
        let (x, y) = class_data(150, 20);
        let mut f = RandomForestClassifier::with_trees(15, 21);
        f.fit(&x, &y).unwrap();

        // Overlay batch == per-row on the materialized matrix, bit for bit.
        let mut overlay = ColumnOverlay::new(&x);
        overlay.map_col(0, |v| (v * 1.3).min(1.0)).unwrap();
        let dense = overlay.to_matrix();
        let mut out = vec![0.0; x.n_rows()];
        f.predict_batch((&overlay).into(), &mut out).unwrap();
        for (i, &p) in out.iter().enumerate() {
            assert!(p.to_bits() == f.predict_row(dense.row(i)).unwrap().to_bits());
        }

        // Parallelism never changes results: 1, 3, and 8 threads agree.
        let mut reference = vec![0.0; x.n_rows()];
        f.config.n_threads = 1;
        f.predict_batch((&x).into(), &mut reference).unwrap();
        for threads in [3, 8] {
            f.config.n_threads = threads;
            let mut got = vec![0.0; x.n_rows()];
            f.predict_batch((&x).into(), &mut got).unwrap();
            assert_eq!(got, reference, "threads = {threads}");
        }

        // Regressor path too.
        let (rx, ry) = reg_data(120, 22);
        let mut r = RandomForestRegressor::with_trees(9, 23);
        r.fit(&rx, &ry).unwrap();
        let mut a = vec![0.0; rx.n_rows()];
        r.config.n_threads = 1;
        r.predict_batch((&rx).into(), &mut a).unwrap();
        let mut b = vec![0.0; rx.n_rows()];
        r.config.n_threads = 6;
        r.predict_batch((&rx).into(), &mut b).unwrap();
        assert_eq!(a, b);
        for (i, &p) in a.iter().enumerate() {
            assert!(p.to_bits() == r.predict_row(rx.row(i)).unwrap().to_bits());
        }

        // Unfitted forests fail loudly; empty batches are fine.
        let un = RandomForestRegressor::default();
        assert!(un.predict_batch((&rx).into(), &mut a).is_err());
        let empty = Matrix::zeros(0, 2);
        let mut none: Vec<f64> = Vec::new();
        assert!(r.predict_batch((&empty).into(), &mut none).is_ok());
    }

    #[test]
    fn single_tree_forest_works() {
        let (x, y) = class_data(100, 10);
        let mut f = RandomForestClassifier::with_trees(1, 11);
        f.fit(&x, &y).unwrap();
        assert_eq!(f.n_trees(), 1);
        assert!(f.oob_accuracy().unwrap() > 0.5);
    }

    #[test]
    fn regressor_predictions_average_trees() {
        let (x, y) = reg_data(200, 12);
        let mut f = RandomForestRegressor::with_trees(5, 13);
        f.fit(&x, &y).unwrap();
        // Forest prediction is bounded by the min/max of training targets.
        let lo = y.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for i in 0..x.n_rows() {
            let p = f.predict_row(x.row(i)).unwrap();
            assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }
}
