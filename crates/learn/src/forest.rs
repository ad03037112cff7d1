//! Bootstrap random forests, and the prediction surface every tree
//! ensemble shares.
//!
//! The paper's discrete-KPI model is a scikit-learn
//! `RandomForestClassifier`; driver importances are its impurity feature
//! importances. [`RandomForest`] reproduces those semantics for both KPI
//! kinds (the classifier and regressor are `RandomForest<Binary>` and
//! `RandomForest<Continuous>`): bootstrap rows per tree, sqrt/one-third
//! feature subsampling per split, averaged normalized impurity
//! importances, and out-of-bag scoring. One fit serves both kinds; only
//! the label check, the criterion, the `max_features` default and the
//! OOB score differ. Trees train in parallel on std scoped threads; each
//! tree worker also walks its tree's out-of-bag rows, so the OOB score
//! folds ready votes.
//!
//! Every tree ensemble — both forests and both GBDT types
//! ([`crate::binned`]) — keeps its fitted trees in one `Ensemble`: the
//! trees plus the link that maps a row's sum of leaf values to its score
//! (the mean for forests, `base + sum` or its sigmoid for boosting).
//! `Ensemble` implements prediction once, and each family's
//! [`Predictor`] delegates to it.
//!
//! Batched prediction is **tree-major blocked**: rows are scored in
//! blocks of [`PREDICT_ROW_BLOCK`], and within a block every tree is
//! traversed for all rows before the next tree starts, so one tree's
//! flattened node arrays stay cache-hot across the block instead of the
//! whole forest being dragged through cache once per row. The per-row
//! shape check is hoisted to one check per batch. Both changes are
//! bit-identical to the seed's row-major `if x <= t` walk, which
//! `tests/forest_equivalence.rs` keeps as its oracle. A batch big enough
//! to split runs its row chunks on the parked workers of [`crate::pool`],
//! not on threads spawned per call.
//!
//! A view that moves one column of the training matrix can skip most
//! of that work: `Ensemble` implements [`Predictor::leaf_table`] and
//! [`Predictor::predict_delta`] for every tree ensemble, keeping each
//! (row, tree) pair's training-matrix leaf wherever the moved value
//! cannot change it and walking only the rest ([`crate::delta`]). The
//! delta kernel fans out over rows with the same worker rule and the
//! same pool as the full kernel and gives the same bits.

use crate::binned::{grow_binned, sigmoid, BinnedDataset, Thresholds, MAX_BINS};
use crate::delta::{predict_delta_flats, LeafTable};
use crate::linalg::Matrix;
use crate::model::{
    binary_targets, check_batch_shape, check_targets, Binary, Classifier, Continuous, LearnError,
    MatrixView, Predictor, Regressor,
};
use crate::overlay::ColumnOverlay;
use crate::pool;
use crate::tree::{
    check_no_nan_features, normalize, Criterion, FlatTree, FullPresort, Gini, Grow, Mse, Trainer,
    TreeConfig, GROUP,
};
use core::marker::PhantomData;
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

/// Fitted trees, each with its out-of-bag votes: `(row, leaf)` for every
/// row its bootstrap sample left out, the leaf the row lands on in that
/// tree.
type FittedTrees = Vec<(FlatTree, Vec<(u32, u32)>)>;

/// Train `config.n_trees` trees on bootstrap rows of `x` and walk each
/// one's out-of-bag rows.
///
/// `train` receives `(tree_seed, bootstrap_sample)` and grows the tree.
/// Trees come back in tree order, so folding their votes in that order
/// is independent of the thread count. A panic in `train` reaches the
/// caller with its own payload.
fn fit_trees<F>(x: &Matrix, config: &ForestConfig, train: F) -> Result<FittedTrees, LearnError>
where
    F: Fn(u64, &[usize]) -> FlatTree + Sync,
{
    let n_rows = x.n_rows();
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
    let fit_one = |(seed, sample): &(u64, Vec<usize>)| {
        let tree = train(*seed, sample);
        let votes = oob_leaves(&tree, x, &out_of_bag_indices(sample, n_rows));
        (tree, votes)
    };

    let n_threads = worker_count(config.n_threads, config.n_trees);
    if n_threads == 1 {
        return Ok(jobs.iter().map(fit_one).collect());
    }

    // Scoped threads, not the pool's parked workers: a worker's malloc
    // arena would keep the per-tree scratch resident (see `crate::pool`).
    // Each thread takes a contiguous chunk of the trees, so a fit pays
    // one spawn per thread, about 0.1 ms, however short its trees are: a
    // 1000-row tree takes ~0.4 ms on the histogram grower.
    let chunk = jobs.len().div_ceil(n_threads);
    Ok(std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|chunk_jobs| {
                let fit_one = &fit_one;
                scope.spawn(move || chunk_jobs.iter().map(fit_one).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    }))
}

/// `(row, leaf)` for each of `rows`: the leaf the row of `x` lands on
/// in `tree`, walked four rows at a time.
fn oob_leaves(tree: &FlatTree, x: &Matrix, rows: &[usize]) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(rows.len());
    let full = rows.len() - rows.len() % GROUP;
    for group in rows[..full].chunks_exact(GROUP) {
        let leaves = tree.leaves_of([
            x.row(group[0]),
            x.row(group[1]),
            x.row(group[2]),
            x.row(group[3]),
        ]);
        out.extend(group.iter().zip(leaves).map(|(&r, l)| (r as u32, l as u32)));
    }
    out.extend(
        rows[full..]
            .iter()
            .map(|&r| (r as u32, tree.leaf_of(x.row(r)) as u32)),
    );
    out
}

/// Minimum row×tree work before a tree-ensemble batch fans out to
/// threads ([`batch_threads`]).
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

/// The worker count a tree ensemble with `n_threads` threads uses for a
/// batch of `rows` rows over `n_trees` trees: one below
/// [`PARALLEL_BATCH_MIN_WORK`] row×tree work, since waking a parked
/// worker and waiting for it still costs µs, else [`worker_count`].
/// Callers that parallelize at a coarser level (e.g. per scenario) ask
/// it whether a batch will fan out on its own, to avoid nesting
/// fan-outs.
pub fn batch_threads(n_threads: usize, rows: usize, n_trees: usize) -> usize {
    let work = rows.saturating_mul(n_trees);
    if work < PARALLEL_BATCH_MIN_WORK {
        1
    } else {
        worker_count(n_threads, rows)
    }
}

/// Rows per chunk when `rows` rows fan out under the [`batch_threads`]
/// rule: one contiguous chunk per worker, never empty.
pub(crate) fn row_chunk_len(n_threads: usize, rows: usize, n_trees: usize) -> usize {
    rows.div_ceil(batch_threads(n_threads, rows, n_trees))
        .max(1)
}

/// Shared batched prediction for every tree ensemble, tree-major
/// blocked. Rows are split into contiguous chunks scored on the parked
/// workers of [`crate::pool`]; within each [`PREDICT_ROW_BLOCK`]-row
/// block, every tree is traversed for the whole block before the next
/// tree starts. `finalize` maps each row's accumulated leaf sum to the
/// final score (the ensemble's [`Link`]). Per-row math (sum trees in
/// order, finalize once) matches [`Ensemble::predict_row`] exactly, and
/// every row writes its own slot, so the result is bit-identical and
/// deterministic regardless of thread count and block size.
pub(crate) fn predict_batch_flats(
    trees: &[FlatTree],
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
    // One contiguous row chunk per worker, on the pool.
    let chunk_len = row_chunk_len(n_threads, out.len(), trees.len());
    pool::for_each(out.chunks_mut(chunk_len).enumerate(), |(k, chunk)| {
        score_rows(k * chunk_len, chunk);
    });
    Ok(())
}

/// How a tree ensemble turns one row's sum of leaf values into its
/// score.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) enum Link {
    /// Forests: the mean over the trees.
    #[default]
    Mean,
    /// GBDT regressor: `base + sum` (shrinkage is in the leaves).
    Offset(f64),
    /// GBDT classifier: `sigmoid(base + sum)`, the class-1 probability.
    Sigmoid(f64),
}

/// The fitted trees of a forest or a boosted ensemble, in order, and
/// the [`Link`] that scores their leaf sums: the one prediction surface
/// of every tree ensemble. No trees before fit.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ensemble {
    pub(crate) trees: Vec<FlatTree>,
    pub(crate) link: Link,
}

impl Ensemble {
    /// The link as a function of a row's leaf sum.
    fn finalize(&self) -> impl Fn(f64) -> f64 + Sync {
        let (link, n_trees) = (self.link, self.trees.len() as f64);
        move |sum| match link {
            Link::Mean => sum / n_trees,
            Link::Offset(base) => base + sum,
            Link::Sigmoid(base) => sigmoid(base + sum),
        }
    }

    pub(crate) fn n_features(&self) -> usize {
        self.trees.first().map_or(0, FlatTree::n_features)
    }

    /// Total node count across the trees (store weight accounting).
    pub(crate) fn n_nodes(&self) -> usize {
        self.trees.iter().map(FlatTree::n_nodes).sum()
    }

    pub(crate) fn predict_row(&self, x: &[f64]) -> Result<f64, LearnError> {
        let first = self.trees.first().ok_or(LearnError::NotFitted)?;
        if x.len() != first.n_features() {
            return Err(LearnError::Shape(format!(
                "row has {} features, model expects {}",
                x.len(),
                first.n_features()
            )));
        }
        let mut sum = 0.0;
        for t in &self.trees {
            sum += t.traverse(x);
        }
        Ok(self.finalize()(sum))
    }

    pub(crate) fn predict_batch(
        &self,
        n_threads: usize,
        x: MatrixView<'_>,
        out: &mut [f64],
    ) -> Result<(), LearnError> {
        predict_batch_flats(&self.trees, n_threads, x, out, self.finalize())
    }

    pub(crate) fn leaf_table(&self, x: &Matrix, n_threads: usize) -> Option<LeafTable> {
        LeafTable::build(&self.trees, x, n_threads)
    }

    pub(crate) fn predict_delta(
        &self,
        n_threads: usize,
        table: &LeafTable,
        x: &ColumnOverlay<'_>,
        out: &mut [f64],
    ) -> Result<(), LearnError> {
        predict_delta_flats(&self.trees, n_threads, table, x, out, self.finalize())
    }
}

/// A bootstrap random forest for KPI kind `K`: a classifier
/// ([`RandomForestClassifier`]) for [`Binary`], a regressor
/// ([`RandomForestRegressor`]) for [`Continuous`]. Predictions are mean
/// leaf values across trees: class-1 probabilities or mean targets.
#[derive(Debug, Clone)]
pub struct RandomForest<K> {
    /// Forest hyperparameters.
    pub config: ForestConfig,
    ensemble: Ensemble,
    /// Out-of-bag accuracy (classifier) or R² (regressor).
    oob_score: Option<f64>,
    importances: Vec<f64>,
    kind: PhantomData<fn() -> K>,
}

/// A bootstrap random-forest binary classifier.
pub type RandomForestClassifier = RandomForest<Binary>;

/// A bootstrap random-forest regressor.
pub type RandomForestRegressor = RandomForest<Continuous>;

impl<K> Default for RandomForest<K> {
    fn default() -> Self {
        RandomForest::new(ForestConfig::default())
    }
}

impl<K> RandomForest<K> {
    /// Forest with the given hyperparameters.
    pub fn new(config: ForestConfig) -> Self {
        RandomForest {
            config,
            ensemble: Ensemble::default(),
            oob_score: None,
            importances: Vec::new(),
            kind: PhantomData,
        }
    }

    /// Convenience constructor: `n_trees` trees, given seed, defaults
    /// elsewhere.
    pub fn with_trees(n_trees: usize, seed: u64) -> Self {
        RandomForest::new(ForestConfig {
            n_trees,
            seed,
            ..ForestConfig::default()
        })
    }

    /// Normalized impurity feature importances averaged over trees
    /// (all ≥ 0, sum to 1).
    ///
    /// # Errors
    /// [`LearnError::NotFitted`] before fit.
    pub fn feature_importances(&self) -> Result<&[f64], LearnError> {
        if self.ensemble.trees.is_empty() {
            return Err(LearnError::NotFitted);
        }
        Ok(&self.importances)
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.ensemble.trees.len()
    }

    /// Total node count across trees (store weight accounting).
    pub fn n_nodes(&self) -> usize {
        self.ensemble.n_nodes()
    }

    /// Grow the forest with criterion `C` on the checked targets `y`,
    /// `default_features` features per split unless the tree config
    /// sets them, and return each row's out-of-bag `(sum of leaf
    /// values, votes)`.
    fn fit_forest<C: Criterion>(
        &mut self,
        x: &Matrix,
        y: &[f64],
        default_features: usize,
    ) -> Result<Vec<(f64, u32)>, LearnError> {
        // One NaN screen for the whole forest instead of one per tree.
        check_no_nan_features(x)?;
        let mut tree_config = self.config.tree.clone();
        tree_config.max_features.get_or_insert(default_features);
        // One full-dataset presort shared by every tree worker; the
        // histogram grower quantizes it once more into one shared bin
        // matrix (this is the "one-time per-forest" cost — tree workers
        // never sort or scan full-precision columns again).
        let presort = FullPresort::new(x, y);
        // The one choice of grower. The binned tier always grows
        // histogram trees. The exact tier grows them too when its trees
        // come out the same: counts fold in any order (Gini, not MSE)
        // and every feature has at most `MAX_BINS` distinct values, so
        // that bins are value classes (`docs/FOREST.md`, "Training").
        let histograms = match self.config.trainer {
            Trainer::Binned => Some((
                BinnedDataset::from_presort(x, &presort, self.config.n_bins),
                Thresholds::Cuts,
            )),
            Trainer::Presorted if !C::ORDER_SENSITIVE => {
                let data = BinnedDataset::from_presort(x, &presort, MAX_BINS);
                data.bins_are_classes()
                    .then_some((data, Thresholds::Midpoints))
            }
            Trainer::Presorted => None,
        };
        let train = |seed, sample: &[usize]| {
            let cfg = TreeConfig {
                seed,
                ..tree_config.clone()
            };
            match &histograms {
                Some((data, thresholds)) => grow_binned::<C>(data, y, sample, &cfg, *thresholds),
                None => Grow::<C>::build(x, y, sample, &cfg, &presort),
            }
        };
        let fitted = fit_trees(x, &self.config, train)?;

        // OOB votes and importances fold in tree order, from the leaves
        // the tree workers found.
        let mut oob = vec![(0.0, 0u32); x.n_rows()];
        let mut importances = vec![0.0; x.n_cols()];
        let mut trees = Vec::with_capacity(fitted.len());
        for (tree, votes) in fitted {
            for &(i, leaf) in &votes {
                let (sum, n) = &mut oob[i as usize];
                *sum += tree.leaf_value(leaf as usize);
                *n += 1;
            }
            let mut tree_importances = tree.importances().to_vec();
            normalize(&mut tree_importances);
            for (a, v) in importances.iter_mut().zip(tree_importances) {
                *a += v;
            }
            trees.push(tree);
        }
        normalize(&mut importances);
        self.importances = importances;
        self.ensemble = Ensemble {
            trees,
            link: Link::Mean,
        };
        Ok(oob)
    }
}

impl RandomForest<Binary> {
    /// Out-of-bag accuracy estimate (rows never sampled by a tree are
    /// scored by that tree; majority vote per row).
    ///
    /// # Errors
    /// [`LearnError::NotFitted`] before fit.
    pub fn oob_accuracy(&self) -> Result<f64, LearnError> {
        self.oob_score.ok_or(LearnError::NotFitted)
    }
}

impl RandomForest<Continuous> {
    /// Out-of-bag R² estimate.
    ///
    /// # Errors
    /// [`LearnError::NotFitted`] before fit.
    pub fn oob_r2(&self) -> Result<f64, LearnError> {
        self.oob_score.ok_or(LearnError::NotFitted)
    }
}

impl Classifier for RandomForest<Binary> {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), LearnError> {
        let targets = binary_targets(x, y)?;
        // Classification default: √p features per split.
        let p = x.n_cols();
        let sqrt_p = ((p as f64).sqrt().round() as usize).clamp(1, p.max(1));
        let oob = self.fit_forest::<Gini>(x, &targets, sqrt_p)?;
        let mut correct = 0usize;
        let mut counted = 0usize;
        for (&(sum, votes), &label) in oob.iter().zip(y) {
            if votes > 0 {
                counted += 1;
                correct += usize::from(u8::from(sum / f64::from(votes) >= 0.5) == label);
            }
        }
        self.oob_score = Some(if counted == 0 {
            f64::NAN
        } else {
            correct as f64 / counted as f64
        });
        Ok(())
    }
}

impl Regressor for RandomForest<Continuous> {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), LearnError> {
        check_targets(x, y)?;
        // Regression default: p/3 features per split.
        let p = x.n_cols();
        let oob = self.fit_forest::<Mse>(x, y, (p / 3).clamp(1, p.max(1)))?;
        let covered: Vec<usize> = (0..x.n_rows()).filter(|&i| oob[i].1 > 0).collect();
        self.oob_score = Some(if covered.len() < 2 {
            f64::NAN
        } else {
            let mean_y = covered.iter().map(|&i| y[i]).sum::<f64>() / covered.len() as f64;
            let ss_res: f64 = covered
                .iter()
                .map(|&i| {
                    let p = oob[i].0 / f64::from(oob[i].1);
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
        Ok(())
    }
}

impl<K> Predictor for RandomForest<K> {
    fn predict_row(&self, x: &[f64]) -> Result<f64, LearnError> {
        self.ensemble.predict_row(x)
    }

    fn n_features(&self) -> usize {
        self.ensemble.n_features()
    }

    fn predict_batch(&self, x: MatrixView<'_>, out: &mut [f64]) -> Result<(), LearnError> {
        self.ensemble.predict_batch(self.config.n_threads, x, out)
    }

    fn leaf_table(&self, x: &Matrix) -> Option<LeafTable> {
        self.ensemble.leaf_table(x, self.config.n_threads)
    }

    fn predict_delta(
        &self,
        table: &LeafTable,
        x: &ColumnOverlay<'_>,
        out: &mut [f64],
    ) -> Result<(), LearnError> {
        self.ensemble
            .predict_delta(self.config.n_threads, table, x, out)
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
        use crate::binned::{GbdtClassifier, GbdtRegressor};
        let (x, y) = class_data(10, 9);
        // An unfitted ensemble holds no trees: it scores nothing, builds
        // no table, has no width and no importances, and a table built
        // by a fitted model does not change that.
        let mut fitted = RandomForestClassifier::with_trees(2, 0);
        fitted.fit(&x, &y).unwrap();
        let table = fitted.leaf_table(&x).unwrap();
        let mut overlay = ColumnOverlay::new(&x);
        overlay.map_col(0, |v| v * 2.0).unwrap();
        let unfitted = |model: &dyn Predictor, importances: Result<&[f64], LearnError>| {
            let mut out = vec![0.0; x.n_rows()];
            assert!(model.predict_row(x.row(0)).is_err());
            assert!(model.predict_batch((&x).into(), &mut out).is_err());
            assert!(model.predict_delta(&table, &overlay, &mut out).is_err());
            assert!(model.leaf_table(&x).is_none());
            assert_eq!(model.n_features(), 0);
            assert_eq!(importances, Err(LearnError::NotFitted));
        };
        let (fc, fr) = (
            RandomForestClassifier::default(),
            RandomForestRegressor::default(),
        );
        let (gc, gr) = (GbdtClassifier::default(), GbdtRegressor::default());
        unfitted(&fc, fc.feature_importances());
        unfitted(&fr, fr.feature_importances());
        unfitted(&gc, gc.feature_importances());
        unfitted(&gr, gr.feature_importances());
        assert!(fc.oob_accuracy().is_err());
        assert!(fr.oob_r2().is_err());

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
    fn a_tree_worker_panic_reaches_the_caller_with_its_message() {
        let (x, _) = class_data(40, 1);
        let config = ForestConfig {
            n_trees: 8,
            n_threads: 2,
            ..ForestConfig::default()
        };
        let panic = std::panic::catch_unwind(|| {
            fit_trees(&x, &config, |_, _| -> FlatTree {
                panic!("tree growth failed")
            })
        })
        .unwrap_err();
        assert_eq!(
            panic.downcast_ref::<&str>(),
            Some(&"tree growth failed"),
            "the worker's own payload, not a wrapper"
        );
    }

    #[test]
    fn fitted_trees_keep_no_spare_node_capacity() {
        use crate::binned::{GbdtConfig, GbdtRegressor};
        let (x, y) = class_data(300, 40);
        let targets: Vec<f64> = y.iter().map(|&v| f64::from(v)).collect();
        let config = |trainer| ForestConfig {
            n_trees: 4,
            seed: 41,
            trainer,
            ..ForestConfig::default()
        };
        // Gini on the histogram grower, MSE on the presorted grower,
        // and the binned tier.
        let mut exact = RandomForestClassifier::new(config(Trainer::Presorted));
        exact.fit(&x, &y).unwrap();
        let mut presorted = RandomForestRegressor::new(config(Trainer::Presorted));
        presorted.fit(&x, &targets).unwrap();
        let mut binned = RandomForestClassifier::new(config(Trainer::Binned));
        binned.fit(&x, &y).unwrap();
        let mut gbdt = GbdtRegressor::new(GbdtConfig {
            n_rounds: 4,
            holdout_fraction: 0.0,
            ..GbdtConfig::default()
        });
        gbdt.fit(&x, &targets).unwrap();
        let forests = [&exact.ensemble, &presorted.ensemble, &binned.ensemble];
        let trees = forests.iter().flat_map(|e| &e.trees).chain(gbdt.trees());
        for (i, tree) in trees.enumerate() {
            assert!(tree.n_nodes() > 1, "tree {i} splits");
            assert_eq!(tree.spare_capacity(), 0, "tree {i}");
        }
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
