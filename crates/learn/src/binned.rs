//! Histogram-binned tree growing and gradient-boosted ensembles.
//!
//! The exact trainer ([`crate::tree::Trainer::Presorted`]) scans
//! O(rows) per feature per node. This module trades
//! bit-identity for asymptotics: each feature is quantized **once per
//! forest** to at most [`MAX_BINS`] quantile buckets, rows become a
//! row-major `u8` bin matrix, and every split decision is made from
//! per-node histograms:
//!
//! * **Binning** reuses the `FullPresort` sort work — per-feature run
//!   counts and cut values fall out of the packed value classes in one
//!   O(rows) walk, with [`whatif_stats::quantile_run_bins`] choosing
//!   equal-count bin boundaries (runs of equal values never straddle a
//!   bin).
//! * **Accumulation** samples the node's feature subset *first*, then
//!   makes one streaming pass over the node's rows filling only those
//!   `k` histograms (`[count, Σy, Σy²]` per bin via
//!   `Criterion::add`). Forests sample features per **node**, so
//!   only `k` of `p` histograms are ever scanned — streaming the rows
//!   for just those beats maintaining all-feature histograms for
//!   parent−sibling subtraction, which must accumulate every feature.
//! * **Split finding** is a ≤[`MAX_BINS`]-entry prefix walk per feature
//!   instead of a row scan.
//!
//! The tier is deterministic for a fixed seed (thread count never
//! enters training) but **not** bit-identical to the exact tier: bin
//! boundaries coarsen the threshold candidates and f64 histogram
//! arithmetic folds in bin order. Its contract is *accuracy* (AUC/MSE
//! within ε of exact — see `tests/binned_accuracy.rs`), not
//! equivalence.
//!
//! The exact tier borrows the grower for Gini forests whose features
//! have at most [`MAX_BINS`] distinct values each: there every bin is a
//! value class, and with the exact tier's midpoint thresholds the
//! histogram grower grows its trees bit for bit (`docs/FOREST.md`,
//! "Training"). Gini trees partition their rows with a stable
//! two-stream split; MSE trees keep the swap loop their f64 bin sums'
//! fold order depends on.
//!
//! The same machinery powers [`Gbdt`] ([`GbdtRegressor`] /
//! [`GbdtClassifier`]): sequential shallow binned trees fit to residuals
//! (least squares) or logistic gradients, with shrinkage and early
//! stopping on an internal holdout. Fitted rounds are ordinary
//! `FlatTree`s in the forests' `Ensemble`, so the tree-major batched
//! prediction path — and everything stacked on it (overlays, delta
//! views, caches, wire protocols) — works unchanged.

use crate::delta::LeafTable;
use crate::forest::{Ensemble, Link};
use crate::linalg::Matrix;
use crate::model::{
    binary_targets, check_targets, Binary, Classifier, Continuous, LearnError, MatrixView,
    Predictor, Regressor,
};
use crate::overlay::ColumnOverlay;
use crate::split::train_test_split;
use crate::tree::{
    check_no_nan_features, entry_class, leaf_meta, normalize, stable_partition, Criterion,
    FlatTree, FullPresort, Mse, TreeConfig,
};
use core::marker::PhantomData;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use whatif_stats::quantile_run_bins;

/// Hard cap on bins per feature: bin ids must fit a `u8`.
pub const MAX_BINS: usize = 256;

/// Per-forest feature quantization: the `u8` bin matrix plus the cut
/// values that map bins back to `x <= t` thresholds.
///
/// Built once from a [`FullPresort`] and shared (immutably) by every
/// tree worker; a tree only ever reads `bins` rows, `cuts` and
/// `values`.
#[derive(Debug)]
pub(crate) struct BinnedDataset {
    /// Row-major bin ids, indexed `row * p + feature`.
    bins: Vec<u8>,
    /// Per-feature bin-range offsets into `cuts` (length `p + 1`); the
    /// feature's bin count is `offsets[f + 1] - offsets[f]`.
    offsets: Vec<u32>,
    /// Per-bin upper thresholds: a row goes left of a split at bin `b`
    /// iff its bin id `<= b` iff its value `<= cuts[offsets[f] + b]`.
    /// The last bin of each feature carries `+∞` (never a split).
    cuts: Vec<f64>,
    /// Per bin (indexed like `cuts`), the value of one of its rows: the
    /// bin's one value when [`Self::bins_are_classes`].
    values: Vec<f64>,
    /// Whether every bin of every feature holds exactly one value class.
    bins_are_classes: bool,
    n_rows: usize,
    p: usize,
}

impl BinnedDataset {
    /// Quantize every feature using the presort's packed value classes.
    ///
    /// For each feature, one O(rows) walk over the packed column yields
    /// the per-distinct-value run counts (and one representative row
    /// per distinct value); [`quantile_run_bins`] turns those into
    /// equal-count bin ids. No additional sorting happens here — the
    /// forest's existing presort already paid for it. A feature with at
    /// most `max_bins` distinct values gets one bin per value.
    pub(crate) fn from_presort(
        x: &Matrix,
        presort: &FullPresort,
        max_bins: usize,
    ) -> BinnedDataset {
        let n = presort.n_rows;
        let p = x.n_cols();
        let max_bins = max_bins.clamp(2, MAX_BINS);
        let mut bins = vec![0u8; n * p];
        let mut offsets = Vec::with_capacity(p + 1);
        offsets.push(0u32);
        let mut cuts: Vec<f64> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut bins_are_classes = true;
        let mut counts: Vec<usize> = Vec::new();
        let mut rep: Vec<u32> = Vec::new();
        for f in 0..p {
            let packed = &presort.packed[f * n..(f + 1) * n];
            counts.clear();
            rep.clear();
            for (row, &m) in packed.iter().enumerate() {
                let c = entry_class(m) as usize;
                if c >= counts.len() {
                    counts.resize(c + 1, 0);
                    rep.resize(c + 1, 0);
                }
                counts[c] += 1;
                rep[c] = row as u32;
            }
            let bin_of = quantile_run_bins(&counts, max_bins);
            let nb = bin_of.last().map_or(1, |&b| b as usize + 1);
            for (row, &m) in packed.iter().enumerate() {
                bins[row * p + f] = bin_of[entry_class(m) as usize] as u8;
            }
            bins_are_classes &= nb == counts.len();
            let cut_base = cuts.len();
            cuts.resize(cut_base + nb, f64::INFINITY);
            values.resize(cut_base + nb, 0.0);
            for (c, &r) in rep.iter().enumerate() {
                values[cut_base + bin_of[c] as usize] = x.get(r as usize, f);
            }
            for c in 0..counts.len().saturating_sub(1) {
                if bin_of[c + 1] != bin_of[c] {
                    let hi = x.get(rep[c] as usize, f);
                    let lo = x.get(rep[c + 1] as usize, f);
                    let mid = 0.5 * (hi + lo);
                    // The training partition routes by bin id; prediction
                    // routes by `v <= t`. They agree iff `t` separates the
                    // boundary values exactly, which the midpoint can fail
                    // to do (rounding to a neighbor, ±∞ endpoints, f64
                    // overflow) — fall back to the left endpoint then.
                    let t = if mid >= hi && mid < lo { mid } else { hi };
                    cuts[cut_base + bin_of[c] as usize] = t;
                }
            }
            offsets.push(cuts.len() as u32);
        }
        BinnedDataset {
            bins,
            offsets,
            cuts,
            values,
            bins_are_classes,
            n_rows: n,
            p,
        }
    }

    /// Whether every bin of every feature holds exactly one value class:
    /// true iff no feature has more distinct values than the bins the
    /// dataset was built with.
    pub(crate) fn bins_are_classes(&self) -> bool {
        self.bins_are_classes
    }

    /// Bin count of one feature.
    #[cfg(test)]
    fn n_bins(&self, f: usize) -> usize {
        (self.offsets[f + 1] - self.offsets[f]) as usize
    }

    /// Bin id of one cell.
    #[cfg(test)]
    fn bin(&self, row: usize, f: usize) -> u8 {
        self.bins[row * self.p + f]
    }

    /// Threshold mapped to a split "after bin `b`" of feature `f`.
    #[cfg(test)]
    fn cut(&self, f: usize, b: usize) -> f64 {
        self.cuts[self.offsets[f] as usize + b]
    }
}

/// How a histogram tree turns a winning bin boundary into the `x <= t`
/// threshold its node stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Thresholds {
    /// The dataset's per-bin `cuts`, fixed once per forest: the binned
    /// tier and GBDT.
    Cuts,
    /// The exact tier's threshold: the midpoint of the boundary bin's
    /// value and the value of the node's next non-empty bin. Only for
    /// datasets whose bins are value classes
    /// ([`BinnedDataset::bins_are_classes`]).
    Midpoints,
}

/// The winning boundary of one node's prefix walk.
struct BestSplit<A> {
    feature: usize,
    /// Rows with a bin id below `left_bins` go left.
    left_bins: usize,
    /// The equivalent `x <= t` threshold for prediction.
    threshold: f64,
    gain: f64,
    /// The left side's aggregate, or `None` when the threshold sends
    /// the node's rows across the boundary it was found at (a midpoint
    /// that rounded onto the next value, or overflowed), so that the
    /// partition has to recount it.
    left: Option<A>,
}

/// A bootstrap-sample slot: the source row (for bin-matrix lookups)
/// paired with its target, kept together so node scans stream one
/// contiguous array.
#[derive(Clone, Copy, Default)]
struct Entry {
    row: u32,
    y: f64,
}

/// Histogram-binned recursive tree builder over a bootstrap sample.
///
/// Mirrors [`crate::tree`]'s `Grow` output contract (pre-order
/// [`FlatTree`] arenas, impurity-decrease importances, identical leaf
/// conditions) but replaces every row scan with histogram work. Each
/// node samples its feature subset first, streams its rows once to
/// fill only those `k` histograms in the shared `hist` scratch, then
/// walks each histogram's ≤[`MAX_BINS`] entries — so a node's split
/// costs O(rows·k + k·bins) instead of the exact tier's per-feature
/// value scans plus an O(rows·p) column partition.
///
/// On a dataset whose bins are value classes, with the Gini criterion
/// and [`Thresholds::Midpoints`], it grows the exact tier's trees bit
/// for bit: counts do not depend on fold order, the candidate
/// boundaries are the exact scan's class changes in the same order,
/// and the thresholds and the routing are the exact grower's
/// (`docs/FOREST.md`, "Training").
struct BinnedGrow<'a, C: Criterion> {
    data: &'a BinnedDataset,
    config: &'a TreeConfig,
    thresholds: Thresholds,
    /// Features considered per split.
    k: usize,
    /// One record per bootstrap slot, partitioned down the tree:
    /// keeping the source row and its target side by side makes the
    /// histogram pass a single sequential read of the node's range (no
    /// per-row gathers through separate slot/target arrays).
    entries: Vec<Entry>,
    /// The right side's entries during a stable partition (order-free
    /// criteria only; empty otherwise).
    spill: Vec<Entry>,
    rng: StdRng,
    /// Reused feature-subsample buffer (partial Fisher–Yates).
    feat_buf: Vec<usize>,
    n_total: f64,
    /// One shared histogram scratch: the node's `j`-th sampled feature
    /// owns `hist[j * MAX_BINS..]`. A node is done with it before its
    /// children run, so a single buffer serves the whole tree.
    hist: Vec<C::Agg>,
    // Output arenas (the FlatTree under construction).
    meta: Vec<u64>,
    thresh: Vec<f64>,
    importances: Vec<f64>,
    max_depth_seen: usize,
}

/// The aggregate of `entries`, folded in order.
fn fold<C: Criterion>(entries: &[Entry]) -> C::Agg {
    let mut agg = C::empty();
    for e in entries {
        C::add(&mut agg, e.y);
    }
    agg
}

impl<C: Criterion> BinnedGrow<'_, C> {
    fn push_leaf(&mut self, value: f64) -> u32 {
        let i = self.meta.len() as u32;
        self.meta.push(leaf_meta(i));
        self.thresh.push(value);
        i
    }

    /// Same leaf conditions as the exact trainers.
    fn becomes_leaf(&self, agg: &C::Agg, n: usize, depth: usize) -> bool {
        depth >= self.config.max_depth
            || n < self.config.min_samples_split
            || C::impurity(agg) <= 1e-12
    }

    /// Grow a subtree over `entries[start..end]`; returns its node index.
    fn grow(&mut self, start: usize, end: usize, depth: usize, agg: C::Agg) -> u32 {
        self.max_depth_seen = self.max_depth_seen.max(depth);
        let n = end - start;
        if self.becomes_leaf(&agg, n, depth) {
            return self.push_leaf(C::leaf_value(&agg));
        }
        let Some(best) = self.best_split(start, end, &agg) else {
            return self.push_leaf(C::leaf_value(&agg));
        };
        let feature = best.feature;
        let split_at = self.partition(start, end, feature, best.left_bins);
        let left_agg = best
            .left
            .unwrap_or_else(|| fold::<C>(&self.entries[start..split_at]));
        debug_assert_eq!(split_at - start, C::count(&left_agg));
        // The presorted grower's check. It can only fail when the
        // threshold moved rows across the boundary, and then the node
        // becomes a leaf there too.
        let min_leaf = self.config.min_samples_leaf;
        if split_at - start < min_leaf || end - split_at < min_leaf {
            return self.push_leaf(C::leaf_value(&agg));
        }
        let right_agg = C::subtract_lossy(&agg, &left_agg);

        self.importances[feature] += best.gain * n as f64 / self.n_total;
        // Reserve the parent slot before recursing so child indices are
        // stable; the left child is the next node pushed.
        let placeholder = self.push_leaf(0.0);
        self.grow(start, split_at, depth + 1, left_agg);
        let right = self.grow(split_at, end, depth + 1, right_agg);
        let slot = placeholder as usize;
        self.meta[slot] = (u64::from(right) << 32) | feature as u64;
        self.thresh[slot] = best.threshold;
        placeholder
    }

    /// Partition `entries[start..end]` so that the rows whose bin id on
    /// `feature` is below `left_bins` come first; returns where the
    /// right side starts. Both loops are branchless: a ~50/50 branch
    /// would mispredict its way down the tree.
    fn partition(&mut self, start: usize, end: usize, feature: usize, left_bins: usize) -> usize {
        let data = self.data;
        let goes_left =
            |e: Entry| usize::from(data.bins[e.row as usize * data.p + feature]) < left_bins;
        if C::ORDER_SENSITIVE {
            // f64 histogram sums fold in entry order, so MSE trees keep
            // the in-place swap loop that fixes that order.
            let mut lo = start;
            let mut hi = end;
            while lo < hi {
                let a = self.entries[lo];
                let b = self.entries[hi - 1];
                let left = goes_left(a);
                self.entries[lo] = if left { a } else { b };
                self.entries[hi - 1] = if left { b } else { a };
                lo += usize::from(left);
                hi -= usize::from(!left);
            }
            lo
        } else {
            // Counts fold in any order: the presorted grower's stable
            // split, whose loads do not wait on the previous compare.
            start + stable_partition(&mut self.entries[start..end], &mut self.spill, goes_left)
        }
    }

    /// The threshold of the boundary after bin `s` of the feature whose
    /// `nb` bins start at `off`, where `next` is the node's next
    /// non-empty bin, and how it routes: rows with a bin id below the
    /// returned count go left.
    fn threshold(&self, off: usize, nb: usize, s: usize, next: usize) -> (f64, usize) {
        match self.thresholds {
            Thresholds::Cuts => (self.data.cuts[off + s], s + 1),
            Thresholds::Midpoints => {
                // `x <= t` sends a whole value class one way, so it
                // routes by bin id too, below the classes' partition
                // point (values ascend by bin). A sum that overflows, or
                // a midpoint that rounds onto `values[next]`, moves
                // that point out of `s + 1..=next`.
                let values = &self.data.values[off..off + nb];
                let t = (values[s] + values[next]) / 2.0;
                (t, values.partition_point(|&v| v <= t))
            }
        }
    }

    /// Best boundary over a freshly sampled feature subset: reset the
    /// `k` histogram slices, stream the node's rows once (gathering the
    /// `k` bin ids out of each contiguous bin-matrix row), then walk
    /// each histogram folding a running left prefix and deriving the
    /// right side by aggregate subtraction — O(rows·k + k·bins).
    fn best_split(
        &mut self,
        start: usize,
        end: usize,
        parent_agg: &C::Agg,
    ) -> Option<BestSplit<C::Agg>> {
        let p = self.data.p;
        let k = self.k;
        for (i, f) in self.feat_buf.iter_mut().enumerate() {
            *f = i;
        }
        if k < p {
            for i in 0..k {
                let j = self.rng.gen_range(i..p);
                self.feat_buf.swap(i, j);
            }
        }
        // Reset only the bins each sampled feature actually has.
        for (j, &feature) in self.feat_buf[..k].iter().enumerate() {
            let nb = (self.data.offsets[feature + 1] - self.data.offsets[feature]) as usize;
            for e in &mut self.hist[j * MAX_BINS..j * MAX_BINS + nb] {
                *e = C::empty();
            }
        }
        // One streaming pass over the node's rows fills all k slices:
        // each row's `p` bin ids share a cache line, so the k sampled
        // gathers out of it are nearly free once the line is loaded.
        // `chunks_exact_mut(MAX_BINS)` gives slices of compile-time-
        // known length, so the `u8` bin id indexes them check-free.
        let feats = &self.feat_buf[..k];
        let hist = &mut self.hist[..k * MAX_BINS];
        for e in &self.entries[start..end] {
            let base = e.row as usize * p;
            let row_bins = &self.data.bins[base..base + p];
            for (h, &feature) in hist.chunks_exact_mut(MAX_BINS).zip(feats) {
                let b = row_bins[feature] as usize;
                C::add(&mut h[b], e.y);
            }
        }

        let parent_impurity = C::impurity(parent_agg);
        let total = C::count(parent_agg);
        let n = (end - start) as f64;
        let min_leaf = self.config.min_samples_leaf;
        let mut best: Option<BestSplit<C::Agg>> = None;
        let mut best_gain = f64::NEG_INFINITY;
        for (j, &feature) in self.feat_buf[..k].iter().enumerate() {
            let off = self.data.offsets[feature] as usize;
            let nb = self.data.offsets[feature + 1] as usize - off;
            let h = &self.hist[j * MAX_BINS..j * MAX_BINS + nb];
            let mut left = C::empty();
            // The last non-empty bin folded into `left`: the next
            // non-empty bin closes the candidate boundary after it. An
            // empty bin leaves the partition unchanged, so a boundary
            // after it would duplicate the previous candidate (keep-first
            // tie handling would discard it anyway) — and deep nodes
            // have mostly-empty histograms.
            let mut last = None;
            for (b, agg) in h.iter().enumerate() {
                if C::count(agg) == 0 {
                    continue;
                }
                if let Some(s) = last {
                    let nl = C::count(&left);
                    let nr = total - nl;
                    if nl >= min_leaf && nr >= min_leaf {
                        let right = C::subtract_lossy(parent_agg, &left);
                        let weighted =
                            (nl as f64 * C::impurity(&left) + nr as f64 * C::impurity(&right)) / n;
                        let gain = parent_impurity - weighted;
                        // Zero-gain splits are accepted like the exact
                        // scan (greedy CART needs them past XOR-style
                        // interactions); strict `>` keeps the first
                        // best, deterministically.
                        if gain >= 0.0 && gain > best_gain {
                            best_gain = gain;
                            let (threshold, left_bins) = self.threshold(off, nb, s, b);
                            best = Some(BestSplit {
                                feature,
                                left_bins,
                                threshold,
                                gain,
                                left: (s < left_bins && left_bins <= b).then(|| left.clone()),
                            });
                        }
                    }
                }
                C::merge(&mut left, agg);
                if C::count(&left) == total {
                    break; // no non-empty bin left
                }
                last = Some(b);
            }
        }
        best
    }
}

/// Grow one histogram-binned tree over a bootstrap `sample` against a
/// shared [`BinnedDataset`], with its split thresholds from
/// `thresholds`. Deterministic for a fixed `config.seed`.
pub(crate) fn grow_binned<C: Criterion>(
    data: &BinnedDataset,
    y: &[f64],
    sample: &[usize],
    config: &TreeConfig,
    thresholds: Thresholds,
) -> FlatTree {
    let n = sample.len();
    let p = data.p;
    assert!(n < (1usize << 31), "sample too large for packed slots");
    debug_assert!(sample.iter().all(|&r| r < data.n_rows));
    debug_assert!(thresholds == Thresholds::Cuts || data.bins_are_classes);
    let k = config.max_features.unwrap_or(p).clamp(1, p);
    let spill_len = if C::ORDER_SENSITIVE { 0 } else { n };
    let mut g = BinnedGrow::<C> {
        data,
        config,
        thresholds,
        k,
        entries: sample
            .iter()
            .map(|&r| Entry {
                row: r as u32,
                y: y[r],
            })
            .collect(),
        spill: vec![Entry::default(); spill_len],
        rng: StdRng::seed_from_u64(config.seed),
        feat_buf: (0..p).collect(),
        n_total: n as f64,
        hist: vec![C::empty(); k * MAX_BINS],
        meta: Vec::with_capacity(2 * n),
        thresh: Vec::with_capacity(2 * n),
        importances: vec![0.0; p],
        max_depth_seen: 0,
    };
    let root = fold::<C>(&g.entries);
    g.grow(0, n, 0, root);
    FlatTree::from_parts(g.meta, g.thresh, p, g.importances, g.max_depth_seen)
}

// ---------------------------------------------------------------------
// Gradient-boosted trees on the binned machinery.
// ---------------------------------------------------------------------

/// Gradient-boosting hyperparameters (shared by [`GbdtRegressor`] and
/// [`GbdtClassifier`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GbdtConfig {
    /// Maximum boosting rounds (trees). Early stopping may keep fewer.
    pub n_rounds: usize,
    /// Shrinkage applied to every leaf (0 < lr ≤ 1).
    pub learning_rate: f64,
    /// Per-round tree depth — boosting wants weak learners.
    pub max_depth: usize,
    /// Minimum rows per leaf.
    pub min_samples_leaf: usize,
    /// Features considered per split (`None` = all: boosting already
    /// decorrelates rounds through the residuals).
    pub max_features: Option<usize>,
    /// Bins per feature (clamped to `2..=`[`MAX_BINS`]).
    pub n_bins: usize,
    /// Fraction of rows held out for early stopping; `0` trains on
    /// everything for exactly `n_rounds` rounds.
    pub holdout_fraction: f64,
    /// Stop after this many rounds without holdout improvement.
    pub early_stop_rounds: usize,
    /// Master seed (holdout shuffle + per-round feature subsampling).
    pub seed: u64,
    /// Worker threads for *prediction* (training is sequential by
    /// construction — each round depends on the previous scores).
    pub n_threads: usize,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            n_rounds: 200,
            learning_rate: 0.1,
            max_depth: 4,
            min_samples_leaf: 5,
            max_features: None,
            n_bins: MAX_BINS,
            holdout_fraction: 0.2,
            early_stop_rounds: 10,
            seed: 0,
            n_threads: 4,
        }
    }
}

/// The logistic function, the GBDT classifier's link.
pub(crate) fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Core boosting loop shared by both losses. Returns the kept rounds,
/// the base score, and the number of features.
///
/// Sequential by design: round `r + 1` fits the gradients of the scores
/// after round `r`, so thread count can never influence the model.
fn fit_gbdt(
    x: &Matrix,
    y: &[f64],
    cfg: &GbdtConfig,
    classification: bool,
) -> Result<(Vec<FlatTree>, f64), LearnError> {
    let n = x.n_rows();
    if n == 0 {
        return Err(LearnError::Invalid("cannot fit on zero rows".to_owned()));
    }
    check_targets(x, y)?;
    if cfg.n_rounds == 0 {
        return Err(LearnError::Invalid(
            "gbdt needs at least one round".to_owned(),
        ));
    }
    if !(cfg.learning_rate > 0.0 && cfg.learning_rate <= 1.0) {
        return Err(LearnError::Invalid(format!(
            "learning_rate must be in (0, 1], got {}",
            cfg.learning_rate
        )));
    }
    if !(0.0..1.0).contains(&cfg.holdout_fraction) {
        return Err(LearnError::Invalid(format!(
            "holdout_fraction must be in [0, 1), got {}",
            cfg.holdout_fraction
        )));
    }
    check_no_nan_features(x)?;

    // Holdout for early stopping; degenerate sets train on everything.
    let (train, hold) = if cfg.holdout_fraction > 0.0 && n >= 4 {
        train_test_split(n, cfg.holdout_fraction, cfg.seed)?
    } else {
        ((0..n).collect(), Vec::new())
    };

    let presort = FullPresort::new(x, y);
    let data = BinnedDataset::from_presort(x, &presort, cfg.n_bins);

    // Base score: target mean (regression) / clamped log-odds of the
    // positive rate (classification), both over the training split.
    let train_mean = train.iter().map(|&i| y[i]).sum::<f64>() / train.len() as f64;
    let base = if classification {
        let p = train_mean.clamp(1e-6, 1.0 - 1e-6);
        (p / (1.0 - p)).ln()
    } else {
        train_mean
    };

    let tree_cfg_template = TreeConfig {
        max_depth: cfg.max_depth,
        min_samples_split: (2 * cfg.min_samples_leaf).max(2),
        min_samples_leaf: cfg.min_samples_leaf.max(1),
        max_features: cfg.max_features,
        seed: 0,
    };
    let mut master = StdRng::seed_from_u64(cfg.seed);
    let mut score = vec![base; n];
    let mut grad = vec![0.0; n];
    let mut trees: Vec<FlatTree> = Vec::new();
    let mut best_loss = f64::INFINITY;
    let mut best_len = 0usize;
    let mut since_best = 0usize;
    for _ in 0..cfg.n_rounds {
        // Pseudo-residuals (negative loss gradients) on the train rows.
        for &i in &train {
            grad[i] = if classification {
                y[i] - sigmoid(score[i])
            } else {
                y[i] - score[i]
            };
        }
        let mut tree_cfg = tree_cfg_template.clone();
        tree_cfg.seed = master.gen();
        let mut tree = grow_binned::<Mse>(&data, &grad, &train, &tree_cfg, Thresholds::Cuts);
        tree.scale_leaves(cfg.learning_rate);
        for (i, s) in score.iter_mut().enumerate() {
            *s += tree.traverse(x.row(i));
        }
        trees.push(tree);
        if hold.is_empty() {
            continue;
        }
        let loss = if classification {
            // Log-loss with clamped probabilities (never −∞).
            let mut s = 0.0;
            for &i in &hold {
                let p = sigmoid(score[i]).clamp(1e-12, 1.0 - 1e-12);
                s -= if y[i] >= 0.5 { p.ln() } else { (1.0 - p).ln() };
            }
            s / hold.len() as f64
        } else {
            hold.iter().map(|&i| (y[i] - score[i]).powi(2)).sum::<f64>() / hold.len() as f64
        };
        if loss < best_loss {
            best_loss = loss;
            best_len = trees.len();
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= cfg.early_stop_rounds.max(1) {
                break;
            }
        }
    }
    if !hold.is_empty() {
        // Keep only the rounds up to the best holdout loss.
        trees.truncate(best_len.max(1));
    }
    Ok((trees, base))
}

/// A gradient-boosted ensemble over histogram-binned trees for KPI kind
/// `K`. For [`Continuous`] ([`GbdtRegressor`]) it fits least squares and
/// predicts `base + Σ leaf`; for [`Binary`] ([`GbdtClassifier`]) it fits
/// the logistic loss and predicts `sigmoid(base + Σ leaf)`, the class-1
/// probability. Shrinkage is baked into the leaves.
#[derive(Debug, Clone)]
pub struct Gbdt<K> {
    /// Boosting hyperparameters.
    pub config: GbdtConfig,
    ensemble: Ensemble,
    importances: Vec<f64>,
    kind: PhantomData<fn() -> K>,
}

/// A gradient-boosted regression ensemble.
pub type GbdtRegressor = Gbdt<Continuous>;

/// A gradient-boosted binary classifier (logistic loss).
pub type GbdtClassifier = Gbdt<Binary>;

impl<K> Default for Gbdt<K> {
    fn default() -> Self {
        Gbdt::new(GbdtConfig::default())
    }
}

impl<K> Gbdt<K> {
    /// Ensemble with the given hyperparameters.
    pub fn new(config: GbdtConfig) -> Self {
        Gbdt {
            config,
            ensemble: Ensemble::default(),
            importances: Vec::new(),
            kind: PhantomData,
        }
    }

    /// Number of kept boosting rounds (≤ `config.n_rounds` when early
    /// stopping trims the tail).
    pub fn n_trees(&self) -> usize {
        self.ensemble.trees.len()
    }

    /// Normalized impurity feature importances summed over rounds.
    ///
    /// # Errors
    /// [`LearnError::NotFitted`] before fit.
    pub fn feature_importances(&self) -> Result<&[f64], LearnError> {
        if self.ensemble.trees.is_empty() {
            return Err(LearnError::NotFitted);
        }
        Ok(&self.importances)
    }

    /// Total node count across rounds (store weight accounting).
    pub fn n_nodes(&self) -> usize {
        self.ensemble.n_nodes()
    }

    /// The kept rounds.
    #[cfg(test)]
    pub(crate) fn trees(&self) -> &[FlatTree] {
        &self.ensemble.trees
    }

    /// Boost on the checked targets `y` and keep the rounds with the
    /// classification or regression link.
    fn fit_rounds(
        &mut self,
        x: &Matrix,
        y: &[f64],
        classification: bool,
    ) -> Result<(), LearnError> {
        let (trees, base) = fit_gbdt(x, y, &self.config, classification)?;
        // Raw impurity decreases summed over the kept rounds, then
        // normalized (the forests' importance contract).
        let mut importances = vec![0.0; x.n_cols()];
        for t in &trees {
            for (a, v) in importances.iter_mut().zip(t.importances()) {
                *a += v;
            }
        }
        normalize(&mut importances);
        self.importances = importances;
        let link = if classification {
            Link::Sigmoid(base)
        } else {
            Link::Offset(base)
        };
        self.ensemble = Ensemble { trees, link };
        Ok(())
    }
}

impl Regressor for Gbdt<Continuous> {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), LearnError> {
        self.fit_rounds(x, y, false)
    }
}

impl Classifier for Gbdt<Binary> {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), LearnError> {
        let targets = binary_targets(x, y)?;
        self.fit_rounds(x, &targets, true)
    }
}

impl<K> Predictor for Gbdt<K> {
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
    use crate::tree::Gini;

    fn dataset(rows: &[Vec<f64>]) -> (Matrix, FullPresort) {
        let x = Matrix::from_rows(rows).unwrap();
        let y = vec![0.0; x.n_rows()];
        let ps = FullPresort::new(&x, &y);
        (x, ps)
    }

    /// One binned tree on a private quantization of `x` (forests share
    /// one [`BinnedDataset`] across their trees instead).
    fn grow_standalone<C: Criterion>(
        x: &Matrix,
        y: &[f64],
        sample: &[usize],
        config: &TreeConfig,
    ) -> FlatTree {
        let data = BinnedDataset::from_presort(x, &FullPresort::new(x, y), MAX_BINS);
        grow_binned::<C>(&data, y, sample, config, Thresholds::Cuts)
    }

    #[test]
    fn constant_feature_is_one_unsplittable_bin() {
        let (x, ps) = dataset(&[vec![3.5], vec![3.5], vec![3.5]]);
        let d = BinnedDataset::from_presort(&x, &ps, 256);
        assert_eq!(d.n_bins(0), 1);
        assert_eq!(d.cut(0, 0), f64::INFINITY);
        for r in 0..3 {
            assert_eq!(d.bin(r, 0), 0);
        }
    }

    #[test]
    fn few_distinct_values_get_exact_bins_and_separating_cuts() {
        let (x, ps) = dataset(&[vec![1.0], vec![5.0], vec![1.0], vec![9.0]]);
        let d = BinnedDataset::from_presort(&x, &ps, 256);
        assert_eq!(d.n_bins(0), 3);
        assert_eq!(d.bin(0, 0), 0);
        assert_eq!(d.bin(1, 0), 1);
        assert_eq!(d.bin(2, 0), 0);
        assert_eq!(d.bin(3, 0), 2);
        // Cuts are the midpoints and route `v <= t` exactly like bins.
        assert_eq!(d.cut(0, 0), 3.0);
        assert_eq!(d.cut(0, 1), 7.0);
        assert_eq!(d.cut(0, 2), f64::INFINITY);
    }

    #[test]
    fn signed_zeros_share_a_bin() {
        let (x, ps) = dataset(&[vec![-0.0], vec![0.0], vec![1.0]]);
        let d = BinnedDataset::from_presort(&x, &ps, 256);
        assert_eq!(d.n_bins(0), 2);
        assert_eq!(d.bin(0, 0), d.bin(1, 0));
        let t = d.cut(0, 0);
        // Both zeros route left of the cut, 1.0 routes right.
        assert!((0.0..1.0).contains(&t) && -0.0 <= t);
    }

    #[test]
    fn infinities_bin_at_the_extremes_and_cuts_still_separate() {
        let (x, ps) = dataset(&[
            vec![f64::NEG_INFINITY],
            vec![-1.0],
            vec![2.0],
            vec![f64::INFINITY],
        ]);
        let d = BinnedDataset::from_presort(&x, &ps, 256);
        assert_eq!(d.n_bins(0), 4);
        assert_eq!(d.bin(0, 0), 0);
        assert_eq!(d.bin(3, 0), 3);
        // -∞ | -1: midpoint is -∞ and still separates (only -∞ ≤ -∞).
        let t0 = d.cut(0, 0);
        assert!((f64::NEG_INFINITY..-1.0).contains(&t0));
        // 2 | +∞: midpoint overflows to +∞, guard falls back to the
        // left endpoint so +∞ routes right.
        let t2 = d.cut(0, 2);
        assert_eq!(t2, 2.0);
        assert!(f64::INFINITY > t2);
    }

    #[test]
    fn more_distinct_values_than_bins_quantile_compress() {
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![f64::from(i)]).collect();
        let (x, ps) = dataset(&rows);
        let d = BinnedDataset::from_presort(&x, &ps, 256);
        let nb = d.n_bins(0);
        assert!((250..=256).contains(&nb), "{nb} bins");
        // Bin ids are monotone in the value and every cut separates its
        // boundary: v ≤ cut(b) iff bin(v) ≤ b.
        for r in 0..999 {
            assert!(d.bin(r, 0) <= d.bin(r + 1, 0));
        }
        for b in 0..nb - 1 {
            let t = d.cut(0, b);
            for r in 0..1000 {
                let v = x.get(r, 0);
                assert_eq!(v <= t, d.bin(r, 0) <= b as u8, "row {r} cut {b}");
            }
        }
    }

    #[test]
    fn binned_tree_partition_matches_prediction_routing() {
        // Train a deep binned tree and check that every training row's
        // prediction lands on its own leaf's side: equivalent to the
        // cut/bin agreement holding on real split paths.
        let mut rng = StdRng::seed_from_u64(7);
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|_| vec![rng.gen::<f64>() * 10.0, rng.gen::<f64>()])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].floor()).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let sample: Vec<usize> = (0..300).collect();
        let cfg = TreeConfig {
            max_depth: 16,
            min_samples_leaf: 1,
            ..TreeConfig::default()
        };
        let t = grow_standalone::<Mse>(&x, &y, &sample, &cfg);
        // With every row distinct in feature 0 and unlimited depth the
        // tree can isolate the integer plateaus: training rows must
        // predict their own plateau value exactly.
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(t.traverse(row), y[r], "row {r}");
        }
    }

    #[test]
    fn gini_binned_tree_separates_classes() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
        let y: Vec<f64> = (0..100).map(|i| f64::from(u8::from(i >= 50))).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let sample: Vec<usize> = (0..100).collect();
        let cfg = TreeConfig::default();
        let t = grow_standalone::<Gini>(&x, &y, &sample, &cfg);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(t.traverse(row), y[r], "row {r}");
        }
    }

    #[test]
    fn gbdt_regressor_learns_a_nonlinear_signal() {
        let mut rng = StdRng::seed_from_u64(11);
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|_| vec![rng.gen::<f64>() * 4.0, rng.gen::<f64>()])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].sin() * 3.0).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut g = GbdtRegressor::default();
        g.fit(&x, &y).unwrap();
        assert!(g.n_trees() >= 1);
        let preds = g.predict_matrix(&x).unwrap();
        let mse = preds
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 0.05, "train mse {mse}");
        let imp = g.feature_importances().unwrap();
        assert!(imp[0] > 0.9, "signal feature dominates: {imp:?}");
    }

    #[test]
    fn gbdt_classifier_outputs_probabilities_and_separates() {
        let mut rng = StdRng::seed_from_u64(13);
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        let y: Vec<u8> = rows.iter().map(|r| u8::from(r[0] + r[1] > 1.0)).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut g = GbdtClassifier::default();
        g.fit(&x, &y).unwrap();
        let preds = g.predict_matrix(&x).unwrap();
        let acc = preds
            .iter()
            .zip(&y)
            .filter(|(p, &t)| u8::from(**p >= 0.5) == t)
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.95, "train accuracy {acc}");
        assert!(preds.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn gbdt_batch_predictions_match_row_path_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        let rows: Vec<Vec<f64>> = (0..150)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 - r[1]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut g = GbdtRegressor::default();
        g.fit(&x, &y).unwrap();
        let mut out = vec![0.0; x.n_rows()];
        g.predict_batch((&x).into(), &mut out).unwrap();
        for (i, &p) in out.iter().enumerate() {
            assert_eq!(p.to_bits(), g.predict_row(x.row(i)).unwrap().to_bits());
        }
        // Thread count never changes batch output.
        let mut g8 = g.clone();
        g8.config.n_threads = 8;
        let mut out8 = vec![0.0; x.n_rows()];
        g8.predict_batch((&x).into(), &mut out8).unwrap();
        assert_eq!(out, out8);
    }

    #[test]
    fn gbdt_rejects_bad_inputs() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]).unwrap();
        let y = vec![1.0, 2.0, 3.0, 4.0];
        let mut g = GbdtRegressor::default();
        // NaN features error cleanly.
        let bad = Matrix::from_rows(&[vec![1.0], vec![f64::NAN], vec![3.0], vec![4.0]]).unwrap();
        assert!(matches!(
            g.fit(&bad, &y).unwrap_err(),
            LearnError::Invalid(_)
        ));
        // Shape mismatch.
        assert!(matches!(
            g.fit(&x, &y[..3]).unwrap_err(),
            LearnError::Shape(_)
        ));
        // Bad hyperparameters.
        let mut zero = GbdtRegressor::new(GbdtConfig {
            n_rounds: 0,
            ..GbdtConfig::default()
        });
        assert!(zero.fit(&x, &y).is_err());
        let mut lr = GbdtRegressor::new(GbdtConfig {
            learning_rate: 0.0,
            ..GbdtConfig::default()
        });
        assert!(lr.fit(&x, &y).is_err());
        let mut hf = GbdtRegressor::new(GbdtConfig {
            holdout_fraction: 1.0,
            ..GbdtConfig::default()
        });
        assert!(hf.fit(&x, &y).is_err());
        // Unfitted predict errors.
        assert!(GbdtRegressor::default().predict_row(&[1.0]).is_err());
        assert!(GbdtClassifier::default().predict_row(&[1.0]).is_err());
        // Classifier label validation.
        let mut c = GbdtClassifier::default();
        assert!(c.fit(&x, &[0, 1, 2, 0]).is_err());
    }

    #[test]
    fn gbdt_is_deterministic_and_holdout_zero_disables_early_stop() {
        let mut rng = StdRng::seed_from_u64(23);
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] - r[1]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let cfg = GbdtConfig {
            n_rounds: 25,
            seed: 5,
            ..GbdtConfig::default()
        };
        let mut a = GbdtRegressor::new(cfg.clone());
        let mut b = GbdtRegressor::new(cfg);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        let pa = a.predict_matrix(&x).unwrap();
        let pb = b.predict_matrix(&x).unwrap();
        assert_eq!(pa, pb);

        let mut full = GbdtRegressor::new(GbdtConfig {
            n_rounds: 25,
            holdout_fraction: 0.0,
            ..GbdtConfig::default()
        });
        full.fit(&x, &y).unwrap();
        assert_eq!(full.n_trees(), 25, "no early stop without a holdout");
    }
}
