//! CART decision trees (binary splits) for classification and regression.
//!
//! These are the base learners of the random forests in [`crate::forest`].
//! Split quality is Gini impurity for classification and variance (MSE)
//! for regression, the two `Criterion`s every grower is generic over;
//! [`DecisionTree`] picks one by its KPI-kind tag. Each tree accumulates
//! impurity-decrease feature importances, which the forest averages into
//! the paper's driver importances.
//!
//! # Hot-path layout
//!
//! Training uses **presorted split finding**: the full dataset is
//! sorted once per forest (`FullPresort`), each tree derives its
//! bootstrap sample's per-feature sorted columns with a linear counting
//! scatter, and the columns are partitioned stably down the tree — no
//! node ever sorts, and the per-node cost is a few linear passes over a
//! reusable per-tree workspace instead of the seed's per-node
//! gather-and-sort. Constant features and leaf-only fringes drop out of
//! the partition work entirely. Fitted trees are stored **flattened**
//! (`FlatTree`): packed `u32` feature/right-child index words with a
//! leaf sentinel next to one contiguous `f64` array holding thresholds
//! and leaf values (the left child is always the next node, pre-order).
//! Leaves point at themselves, so prediction walks pick children with a
//! conditional move instead of a branch.
//! Both changes are **bit-identical** to the seed implementation
//! (per-node gather-and-sort, enum-arena walk), which survives only as
//! the standalone test oracle in `tests/seed_cart` — see
//! `docs/FOREST.md` for the determinism and tie-order contract.
//!
//! Single trees, MSE forests and Gini forests with a feature of more
//! than 256 distinct values take this presorted grower (`Grow`). Other
//! Gini forests grow the same trees on value-class histograms
//! ([`crate::binned`]); the choice is made in `fit_forest`.

use crate::linalg::Matrix;
use crate::model::{
    binary_targets, check_targets, Binary, Classifier, Continuous, LearnError, Predictor, Regressor,
};
use core::hint::select_unpredictable;
use core::marker::PhantomData;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyperparameters shared by trees and forests.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples a node needs to be considered for splitting.
    pub min_samples_split: usize,
    /// Minimum samples each child of a split must keep.
    pub min_samples_leaf: usize,
    /// Features examined per split; `None` = all features.
    pub max_features: Option<usize>,
    /// Seed for per-split feature subsampling.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        }
    }
}

/// Which training tier grows a forest's trees.
///
/// `Presorted` is the exact tier: bit-identical to the seed
/// gather-and-sort CART, which `tests/forest_equivalence.rs` pins it
/// against. `Binned` is the histogram tier: quantized features, O(bins)
/// split scans, explicitly **not** bit-identical to the exact tier —
/// it carries its own accuracy contract instead (see `docs/FOREST.md`
/// and [`crate::binned`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trainer {
    /// The exact tier. A forest-level presort feeds one of two growers,
    /// picked by the criterion and the data: a Gini forest whose
    /// features have at most 256 distinct values each grows on
    /// value-class histograms (the binned tier's grower with the exact
    /// tier's midpoint thresholds). MSE forests and the rest take the
    /// presorted grower, which partitions the presorted columns stably
    /// down the tree and, for MSE, replays the seed's pair order by
    /// counting sort. Neither allocates per node, and both give the
    /// seed's trees bit for bit.
    Presorted,
    /// Histogram-binned split finding: each feature quantized to ≤256
    /// quantile buckets once per forest; every node samples its feature
    /// subset first and builds histograms for those features only, in
    /// one streaming pass over its rows (no parent − sibling
    /// subtraction, which would have to keep histograms for every
    /// feature). Approximate (own accuracy contract), not bit-identical
    /// to the exact trainer.
    Binned,
}

/// Leaf sentinel in the feature half of [`FlatTree::meta`].
pub(crate) const LEAF: u32 = u32::MAX;

/// The `meta` word of the leaf stored at node `index`: [`LEAF`] in the
/// feature half and the leaf's own index in the right-child half, so a
/// walk that reaches the leaf stays there (see [`FlatTree`]). Every
/// grower writes leaves through this.
#[inline]
pub(crate) fn leaf_meta(index: u32) -> u64 {
    (u64::from(index) << 32) | u64::from(LEAF)
}

/// Rows one batch walk moves together ([`FlatTree::walk_group`]).
pub(crate) const GROUP: usize = 4;

/// Split `GROUP` consecutive rows of width `p` into one slice per row.
#[inline(always)]
pub(crate) fn group_rows(rows: &[f64], p: usize) -> [&[f64]; GROUP] {
    [
        &rows[..p],
        &rows[p..2 * p],
        &rows[2 * p..3 * p],
        &rows[3 * p..4 * p],
    ]
}

/// Map an f64 to a u64 whose unsigned order equals `f64::total_cmp`
/// order (sign-magnitude flip).
#[inline]
fn total_order_key(v: f64) -> u64 {
    let b = v.to_bits();
    b ^ ((((b as i64) >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Packed presorted-column entry: `slot << 32 | value_class << 1 |
/// label`. `value_class` is the dense rank of the entry's feature value
/// among the dataset's *distinct* (`!=`-distinct) values for that
/// feature, so a boundary between splittable values is exactly a class
/// change — the split scan never touches the f64 column except to
/// compute a winning threshold. `label` caches `y >= 0.5` for the Gini
/// scan.
type Entry = u64;

#[inline]
fn entry_slot(e: Entry) -> usize {
    (e >> 32) as usize
}

/// Value class of a packed entry (also valid on [`FullPresort::packed`]
/// words, which share the low-32-bit layout).
#[inline]
pub(crate) fn entry_class(e: Entry) -> u32 {
    ((e & 0xFFFF_FFFF) >> 1) as u32
}

/// Per-feature full-dataset sort metadata, computed **once per forest**
/// and shared by every tree worker: for each feature and row, the row's
/// *rank* in the full sorted order and its *value class* (dense rank of
/// the row's distinct value), plus the cached `y >= 0.5` label. Each
/// tree derives its bootstrap sample's sorted entry columns from these
/// with one branch-free counting scatter per feature — no per-tree
/// sorts and no value loads.
#[derive(Debug)]
pub(crate) struct FullPresort {
    /// `p * n_rows`, indexed `f * n_rows + row`:
    /// `rank << 32 | class << 1 | label`.
    pub(crate) packed: Vec<u64>,
    /// Per feature: whether -0.0 and +0.0 coexist (the one case where
    /// `==`-equal values differ in bits, forcing the MSE bucket replay
    /// to fall back to bit-level run detection).
    mixed_zero: Vec<bool>,
    pub(crate) n_rows: usize,
}

impl FullPresort {
    pub(crate) fn new(x: &Matrix, y: &[f64]) -> FullPresort {
        let n_rows = x.n_rows();
        let p = x.n_cols();
        assert!(n_rows < (1usize << 31), "matrix too large for packed rows");
        let mut packed = vec![0u64; p * n_rows];
        let mut mixed_zero = vec![false; p];
        if n_rows == 0 {
            // Callers reject empty training sets; keep the metadata
            // empty instead of indexing into nothing.
            return FullPresort {
                packed,
                mixed_zero,
                n_rows,
            };
        }
        // (total-order key, row) pairs sort on plain integers — no
        // comparator indirection into the matrix.
        let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(n_rows);
        for f in 0..p {
            keyed.clear();
            keyed.extend((0..n_rows).map(|r| (total_order_key(x.get(r, f)), r as u32)));
            keyed.sort_unstable();
            let mut class = 0u64;
            let mut prev = x.get(keyed[0].1 as usize, f);
            for (rank, &(_, r)) in keyed.iter().enumerate() {
                let v = x.get(r as usize, f);
                if v != prev {
                    class += 1;
                } else if v.to_bits() != prev.to_bits() && rank > 0 {
                    mixed_zero[f] = true; // -0.0 and +0.0 both present
                }
                prev = v;
                let label = u64::from(y[r as usize] >= 0.5);
                packed[f * n_rows + r as usize] = ((rank as u64) << 32) | (class << 1) | label;
            }
        }
        FullPresort {
            packed,
            mixed_zero,
            n_rows,
        }
    }
}

/// A fitted tree in a flattened, cache-friendly layout.
///
/// Nodes are stored in pre-order, so node `i`'s left child is always
/// `i + 1` and only the right child needs storing. `meta[i]` packs both
/// `u32` indices (`right_child << 32 | feature`; feature == [`LEAF`]
/// marks a leaf) so one load fetches them, and `thresh[i]` holds the
/// split threshold — or the leaf value for leaves — keeping a
/// traversal's working set to 16 bytes per node (the seed's enum arena
/// spent 40).
///
/// Leaves are **absorbing**: a leaf's right-child half holds its own
/// index ([`leaf_meta`]). Together with [`Self::step`], which sends a
/// row at a leaf "right", a walk that has landed stays on its leaf, so
/// the batch kernel can keep stepping a group of rows without asking
/// which of them are done.
#[derive(Debug, Clone)]
pub(crate) struct FlatTree {
    meta: Vec<u64>,
    thresh: Vec<f64>,
    n_features: usize,
    /// Unnormalized impurity-decrease importances.
    importances: Vec<f64>,
    depth: usize,
}

impl FlatTree {
    /// One step of a walk from node `i`: the left child `i + 1` when
    /// `row[feature] <= threshold`, else the right-child half of the
    /// node's word. At a leaf the feature half is [`LEAF`], which is out
    /// of range for every row, so the test reads NaN, compares false
    /// and takes the right-child half: the leaf itself. A NaN cell at a
    /// split goes right too, exactly like the `if`-based seed walk.
    ///
    /// The child is picked with `select_unpredictable`, which compiles
    /// to a conditional move (`ucomisd` + `cmovae`, checked with
    /// objdump). Do not turn it back into an `if`: the release build
    /// compiles `if x <= t { i + 1 } else { right }` to `ucomisd` +
    /// `jb`, a jump whose direction depends on the data at every node,
    /// and its mispredicts were the batch kernel's dominant cost
    /// (`docs/FOREST.md`, "Prediction").
    #[inline(always)]
    fn step(meta: &[u64], thresh: &[f64], row: &[f64], i: usize) -> usize {
        let m = meta[i];
        let x = *row.get((m as u32) as usize).unwrap_or(&f64::NAN);
        select_unpredictable(x <= thresh[i], i + 1, (m >> 32) as usize)
    }

    /// The node arrays, `thresh` cut to `meta`'s length: equal lengths
    /// let one bounds check cover both.
    #[inline(always)]
    fn nodes(&self) -> (&[u64], &[f64]) {
        let meta = &self.meta[..];
        (meta, &self.thresh[..meta.len()])
    }

    /// Walk four rows from the root together and return their leaves.
    ///
    /// The rows' walks interleave so the CPU overlaps four independent
    /// chains of dependent node loads. Each step moves all four rows
    /// with [`Self::step`] and has no per-row leaf test: a row that has
    /// landed stays on its absorbing leaf. The group leaves the loop
    /// once all four rows stand on leaves — one predictable branch per
    /// step — so it takes exactly as many steps as a per-row-test loop
    /// would, even on a lopsided tree. Every batch walk goes through
    /// here: [`Self::accumulate_block`], [`Self::leaves_into`] (the
    /// leaf-table build) and the delta kernel's walks
    /// ([`Self::leaves_of`]).
    #[inline(always)]
    fn walk_group(meta: &[u64], thresh: &[f64], rows: [&[f64]; GROUP]) -> [usize; GROUP] {
        let mut cur = [0usize; GROUP];
        loop {
            let mut landed = true;
            for g in 0..GROUP {
                landed &= meta[cur[g]] as u32 == LEAF;
                cur[g] = Self::step(meta, thresh, rows[g], cur[g]);
            }
            if landed {
                return cur;
            }
        }
    }

    /// The leaf a row lands on. The caller has validated the row width
    /// (batch paths check once per batch, not once per row).
    #[inline]
    pub(crate) fn leaf_of(&self, row: &[f64]) -> usize {
        let (meta, thresh) = self.nodes();
        let mut i = 0usize;
        while meta[i] as u32 != LEAF {
            i = Self::step(meta, thresh, row, i);
        }
        i
    }

    /// The leaves of four rows, walked together ([`Self::walk_group`]).
    #[inline]
    pub(crate) fn leaves_of(&self, rows: [&[f64]; GROUP]) -> [usize; GROUP] {
        let (meta, thresh) = self.nodes();
        Self::walk_group(meta, thresh, rows)
    }

    /// The value stored at leaf `leaf`.
    #[inline(always)]
    pub(crate) fn leaf_value(&self, leaf: usize) -> f64 {
        self.thresh[leaf]
    }

    /// Walk a row to its leaf value. The caller has validated the row
    /// width (batch paths check once per batch, not once per row).
    #[inline]
    pub(crate) fn traverse(&self, row: &[f64]) -> f64 {
        self.thresh[self.leaf_of(row)]
    }

    /// Accumulate this tree's leaf value for every row of a contiguous
    /// row-major block (`block.len() == acc.len() * p`) into `acc`,
    /// walking the rows four at a time ([`Self::walk_group`]).
    ///
    /// Each row ends on the same leaf as [`Self::traverse`] and the
    /// seed's `if`-based walk (same `<=` test, same NaN routing), and
    /// `acc` gains one leaf value per call, so per-row sums still fold
    /// the trees in order: the result is bit-identical to the
    /// row-at-a-time path.
    pub(crate) fn accumulate_block(&self, block: &[f64], p: usize, acc: &mut [f64]) {
        let (meta, thresh) = self.nodes();
        let full = acc.len() - acc.len() % GROUP;
        for (r, sums) in acc[..full].chunks_exact_mut(GROUP).enumerate() {
            let rows = &block[r * GROUP * p..(r + 1) * GROUP * p];
            let leaves = Self::walk_group(meta, thresh, group_rows(rows, p));
            for (sum, leaf) in sums.iter_mut().zip(leaves) {
                *sum += thresh[leaf];
            }
        }
        for (row, slot) in acc.iter_mut().enumerate().skip(full) {
            *slot += self.traverse(&block[row * p..(row + 1) * p]);
        }
    }

    /// Write the leaf every row of `x` lands on into `out` (one slot
    /// per row), walking four rows at a time. The caller has checked
    /// that `x` has this tree's width and that every node index fits a
    /// `u16`.
    pub(crate) fn leaves_into(&self, x: &Matrix, out: &mut [u16]) {
        let (meta, thresh) = self.nodes();
        let p = x.n_cols();
        let data = x.data();
        let full = out.len() - out.len() % GROUP;
        for (r, slots) in out[..full].chunks_exact_mut(GROUP).enumerate() {
            let rows = &data[r * GROUP * p..(r + 1) * GROUP * p];
            let leaves = Self::walk_group(meta, thresh, group_rows(rows, p));
            for (slot, leaf) in slots.iter_mut().zip(leaves) {
                *slot = leaf as u16;
            }
        }
        for (row, slot) in out.iter_mut().enumerate().skip(full) {
            *slot = self.leaf_of(x.row(row)) as u16;
        }
    }

    /// Append this tree's internal nodes to `nodes`, grouped by the
    /// feature they test — feature 0's group first — with each group in
    /// pre-order, and push the end of every group (an index into
    /// `nodes`) onto `ends`: one end per feature. The caller has checked
    /// that every node index fits a `u16` and every end a `u32`.
    pub(crate) fn index_tests(&self, nodes: &mut Vec<u16>, ends: &mut Vec<u32>) {
        let (meta, _) = self.nodes();
        let base = nodes.len();
        // `next[f]` counts feature `f - 1`'s tests, then becomes the
        // start of feature `f`'s group and the cursor that fills it.
        let mut next = vec![0usize; self.n_features + 1];
        for &m in meta.iter().filter(|&&m| m as u32 != LEAF) {
            next[(m as u32) as usize + 1] += 1;
        }
        for f in 0..self.n_features {
            next[f + 1] += next[f];
        }
        ends.extend(next[1..].iter().map(|&end| (base + end) as u32));
        nodes.resize(base + next[self.n_features], 0);
        for (i, &m) in meta.iter().enumerate().filter(|(_, &m)| m as u32 != LEAF) {
            let f = (m as u32) as usize;
            nodes[base + next[f]] = i as u16;
            next[f] += 1;
        }
    }

    /// For every node, the interval of feature `j` that keeps a walk on
    /// its way to the node when no other feature changes, written to
    /// `lo[node]` and `hi[node]`; a non-NaN value `x` follows the path
    /// to the node at every test of `j` exactly when `lo < x && x <= hi`.
    /// `tests` lists this tree's internal nodes that test `j`
    /// ([`Self::index_tests`]); `lo` and `hi` need a slot per node.
    ///
    /// Only a node that tests `j` can route two such rows apart, so a
    /// node's interval is fixed by the tests of `j` above it: `hi` is
    /// the smallest threshold where the path goes left (the walk took
    /// `x <= t`), `lo` the largest where it goes right (it took
    /// `!(x <= t)`, i.e. `x > t` for a non-NaN `x`), and −∞ / +∞ when
    /// there is none. A NaN threshold on a test of `j` sets `lo` to +∞
    /// for everything below it, so those leaves always walk. A NaN `x`
    /// fails `lo < x` and always walks too.
    ///
    /// Pre-order makes each of those a range update: every slot starts
    /// at (−∞, +∞), and a test of `j` at node `i` with threshold `t` and
    /// right child `r` applies `hi = min(hi, t)` over its left subtree
    /// `[i + 1, r)` and `lo = max(lo, t)` over its right subtree
    /// `[r, e)`, where `e` is one past the leaf reached by following
    /// right children from `r`. `min` and `max` commute, so the order
    /// of `tests` does not matter, and on a tie between ±0 they may keep
    /// either, which the check's `<` and `<=` do not tell apart.
    pub(crate) fn intervals(&self, tests: &[u16], lo: &mut [f64], hi: &mut [f64]) {
        let (meta, thresh) = self.nodes();
        let (lo, hi) = (&mut lo[..meta.len()], &mut hi[..meta.len()]);
        lo.fill(f64::NEG_INFINITY);
        hi.fill(f64::INFINITY);
        let right = |i: usize| (meta[i] >> 32) as usize;
        for &i in tests {
            let i = usize::from(i);
            let t = thresh[i];
            let r = right(i);
            let mut last = r;
            while meta[last] as u32 != LEAF {
                last = right(last);
            }
            if t.is_nan() {
                lo[i + 1..=last].fill(f64::INFINITY);
                continue;
            }
            for h in &mut hi[i + 1..r] {
                *h = h.min(t);
            }
            for l in &mut lo[r..=last] {
                *l = l.max(t);
            }
        }
    }

    fn predict_row(&self, x: &[f64]) -> Result<f64, LearnError> {
        if x.len() != self.n_features {
            return Err(LearnError::Shape(format!(
                "row has {} features, tree expects {}",
                x.len(),
                self.n_features
            )));
        }
        Ok(self.traverse(x))
    }

    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// Assemble a finished tree from its grower's arenas ([`Grow`] or
    /// the histogram grower in [`crate::binned`]). `meta`/`thresh` must
    /// follow this type's pre-order layout: left child at `i + 1`,
    /// feature == [`LEAF`] marking leaves whose `thresh` is the leaf
    /// value, and every leaf absorbing ([`leaf_meta`]).
    ///
    /// The growers reserve room for the most nodes a sample can make
    /// (`2 * n`); a fitted tree keeps only what it uses, since a forest
    /// holds its trees for as long as the model is served.
    pub(crate) fn from_parts(
        mut meta: Vec<u64>,
        mut thresh: Vec<f64>,
        n_features: usize,
        importances: Vec<f64>,
        depth: usize,
    ) -> FlatTree {
        debug_assert!(
            meta.iter()
                .enumerate()
                .all(|(i, &m)| m as u32 != LEAF || m == leaf_meta(i as u32)),
            "every leaf must point its right child at itself"
        );
        meta.shrink_to_fit();
        thresh.shrink_to_fit();
        FlatTree {
            meta,
            thresh,
            n_features,
            importances,
            depth,
        }
    }

    /// Multiply every leaf value by `factor` (gradient-boosting
    /// shrinkage). Split thresholds and importances are untouched.
    pub(crate) fn scale_leaves(&mut self, factor: f64) {
        for (m, t) in self.meta.iter().zip(self.thresh.iter_mut()) {
            if *m as u32 == LEAF {
                *t *= factor;
            }
        }
    }

    /// Unnormalized impurity-decrease importances (boosting sums these
    /// across rounds before normalizing).
    pub(crate) fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of nodes (store weight accounting).
    pub(crate) fn n_nodes(&self) -> usize {
        self.meta.len()
    }

    /// Allocated but unused node slots, over both arrays.
    #[cfg(test)]
    pub(crate) fn spare_capacity(&self) -> usize {
        self.meta.capacity() - self.meta.len() + self.thresh.capacity() - self.thresh.len()
    }
}

/// Reject NaN feature cells up front: the split search orders values
/// with `f64::total_cmp` (which never panics), but a NaN would silently
/// sort to an extreme and poison thresholds, so training refuses it with
/// a clean error instead.
pub(crate) fn check_no_nan_features(x: &Matrix) -> Result<(), LearnError> {
    if x.data().iter().any(|v| v.is_nan()) {
        return Err(LearnError::Invalid(
            "feature matrix contains NaN; clean or impute before training".to_owned(),
        ));
    }
    Ok(())
}

/// Impurity criterion abstraction: classification tracks (n, n_pos),
/// regression tracks (n, Σy, Σy²). Both expose per-sample impurity and the
/// leaf value. Shared with the histogram trainer in [`crate::binned`],
/// whose per-bin accumulators are these same aggregates.
pub(crate) trait Criterion {
    /// Aggregate node statistics.
    type Agg: Clone;
    /// Whether the aggregate depends on the *order* targets are folded
    /// in. Integer-count aggregates (Gini) are order-free; f64 sums
    /// (MSE) are not, so the presorted trainer replays the seed's exact
    /// pair order for them.
    const ORDER_SENSITIVE: bool;
    fn empty() -> Self::Agg;
    fn add(agg: &mut Self::Agg, y: f64);
    fn remove(agg: &mut Self::Agg, y: f64);
    /// Fold `n` samples, `pos` of them positive, as if added one by one
    /// (only callable for order-free aggregates).
    fn add_bulk(agg: &mut Self::Agg, n: usize, pos: usize);
    fn remove_bulk(agg: &mut Self::Agg, n: usize, pos: usize);
    /// `parent - left`, exactly equal to folding the right segment
    /// directly — possible only for integer (order-free) aggregates.
    fn subtract(parent: &Self::Agg, left: &Self::Agg) -> Option<Self::Agg>;
    /// Fold another aggregate in (histogram prefix walks). Exact for
    /// integer aggregates; for f64 sums the fold order is the bin
    /// order, which the binned tier accepts (it is deterministic but
    /// not bit-identical to element order).
    fn merge(agg: &mut Self::Agg, other: &Self::Agg);
    /// `parent - child` allowing f64 subtraction: exact for integer
    /// aggregates, numerically lossy (but deterministic) for f64 sums.
    /// Only the binned tier — which owns an accuracy contract rather
    /// than a bit-identity contract — may use this.
    fn subtract_lossy(parent: &Self::Agg, child: &Self::Agg) -> Self::Agg;
    fn count(agg: &Self::Agg) -> usize;
    /// Per-sample impurity of the aggregate.
    fn impurity(agg: &Self::Agg) -> f64;
    fn leaf_value(agg: &Self::Agg) -> f64;
}

/// Gini impurity for binary labels.
pub(crate) struct Gini;

impl Criterion for Gini {
    type Agg = (usize, usize); // (n, n_pos)
    const ORDER_SENSITIVE: bool = false;

    fn empty() -> Self::Agg {
        (0, 0)
    }
    fn add(agg: &mut Self::Agg, y: f64) {
        // Branchless: a ~50/50 label branch would mispredict its way
        // through every split scan.
        agg.0 += 1;
        agg.1 += usize::from(y >= 0.5);
    }
    fn remove(agg: &mut Self::Agg, y: f64) {
        agg.0 -= 1;
        agg.1 -= usize::from(y >= 0.5);
    }
    fn add_bulk(agg: &mut Self::Agg, n: usize, pos: usize) {
        agg.0 += n;
        agg.1 += pos;
    }
    fn remove_bulk(agg: &mut Self::Agg, n: usize, pos: usize) {
        agg.0 -= n;
        agg.1 -= pos;
    }
    fn subtract(parent: &Self::Agg, left: &Self::Agg) -> Option<Self::Agg> {
        Some((parent.0 - left.0, parent.1 - left.1))
    }
    fn merge(agg: &mut Self::Agg, other: &Self::Agg) {
        agg.0 += other.0;
        agg.1 += other.1;
    }
    fn subtract_lossy(parent: &Self::Agg, child: &Self::Agg) -> Self::Agg {
        (parent.0 - child.0, parent.1 - child.1)
    }
    fn count(agg: &Self::Agg) -> usize {
        agg.0
    }
    fn impurity(agg: &Self::Agg) -> f64 {
        if agg.0 == 0 {
            return 0.0;
        }
        let p = agg.1 as f64 / agg.0 as f64;
        2.0 * p * (1.0 - p)
    }
    fn leaf_value(agg: &Self::Agg) -> f64 {
        if agg.0 == 0 {
            0.0
        } else {
            agg.1 as f64 / agg.0 as f64
        }
    }
}

/// Variance (MSE) impurity for continuous targets.
pub(crate) struct Mse;

impl Criterion for Mse {
    type Agg = (usize, f64, f64); // (n, sum, sum_sq)
    const ORDER_SENSITIVE: bool = true;

    fn empty() -> Self::Agg {
        (0, 0.0, 0.0)
    }
    fn add(agg: &mut Self::Agg, y: f64) {
        agg.0 += 1;
        agg.1 += y;
        agg.2 += y * y;
    }
    fn remove(agg: &mut Self::Agg, y: f64) {
        agg.0 -= 1;
        agg.1 -= y;
        agg.2 -= y * y;
    }
    fn add_bulk(_: &mut Self::Agg, _: usize, _: usize) {
        unreachable!("MSE aggregates are order-sensitive");
    }
    fn remove_bulk(_: &mut Self::Agg, _: usize, _: usize) {
        unreachable!("MSE aggregates are order-sensitive");
    }
    fn subtract(_: &Self::Agg, _: &Self::Agg) -> Option<Self::Agg> {
        None // f64 sums: folding order matters, recompute instead
    }
    fn merge(agg: &mut Self::Agg, other: &Self::Agg) {
        agg.0 += other.0;
        agg.1 += other.1;
        agg.2 += other.2;
    }
    fn subtract_lossy(parent: &Self::Agg, child: &Self::Agg) -> Self::Agg {
        // f64 subtraction: deterministic but not bit-equal to a direct
        // fold — binned-tier only (see trait docs).
        (parent.0 - child.0, parent.1 - child.1, parent.2 - child.2)
    }
    fn count(agg: &Self::Agg) -> usize {
        agg.0
    }
    fn impurity(agg: &Self::Agg) -> f64 {
        if agg.0 == 0 {
            return 0.0;
        }
        let n = agg.0 as f64;
        let mean = agg.1 / n;
        // Catastrophic cancellation can give tiny negatives; clamp.
        (agg.2 / n - mean * mean).max(0.0)
    }
    fn leaf_value(agg: &Self::Agg) -> f64 {
        if agg.0 == 0 {
            0.0
        } else {
            agg.1 / agg.0 as f64
        }
    }
}

/// The seed's boundary scan over a presorted entry segment: fold one
/// sample into the left/right aggregates, skip equal-value boundaries,
/// respect `min_samples_leaf`, keep the strictly-best gain. The target
/// sequence comes from `y_at` (the seed's pair order), boundaries are
/// read from the packed value classes, and threshold endpoints are
/// loaded from the feature's value column only when a boundary improves
/// the running best. Zero-gain splits are accepted: greedy CART needs
/// them to get past XOR-style interactions (both children stay impure
/// but strictly smaller, so recursion terminates).
#[allow(clippy::too_many_arguments)]
fn scan_entries<C: Criterion>(
    feature: usize,
    entries: &[Entry],
    col: &[f64],
    y_at: impl Fn(usize) -> f64,
    parent_agg: &C::Agg,
    parent_impurity: f64,
    n: f64,
    min_samples_leaf: usize,
    best: &mut Option<(usize, f64, f64)>,
) {
    let mut left = C::empty();
    let mut right = parent_agg.clone();
    for w in 0..entries.len() - 1 {
        let y = y_at(w);
        C::add(&mut left, y);
        C::remove(&mut right, y);
        // Can only split between distinct feature values (class change).
        if entry_class(entries[w]) == entry_class(entries[w + 1]) {
            continue;
        }
        let nl = C::count(&left);
        let nr = C::count(&right);
        if nl < min_samples_leaf || nr < min_samples_leaf {
            continue;
        }
        let weighted = (nl as f64 * C::impurity(&left) + nr as f64 * C::impurity(&right)) / n;
        let gain = parent_impurity - weighted;
        if gain >= 0.0 && best.is_none_or(|(_, _, g)| gain > g) {
            let threshold = (col[entry_slot(entries[w])] + col[entry_slot(entries[w + 1])]) / 2.0;
            *best = Some((feature, threshold, gain));
        }
    }
}

/// Tree construction over a bootstrap sample.
///
/// Sample occurrences are addressed by *slot* (position in the sample),
/// not row, so bootstrap duplicates stay distinguishable. `xv` holds the
/// sample's feature values feature-major (`xv[f * n + slot]`) and `ys`
/// the per-slot targets. The recursion array `idx` replays the seed's
/// in-place swap partition, which fixes every order-sensitive f64
/// accumulation (node aggregates, leaf values, MSE boundary scans) —
/// this is what makes the presorted trainer bit-identical rather than
/// merely equivalent.
pub(crate) struct Grow<'a, C: Criterion> {
    config: &'a TreeConfig,
    /// Sample size (slots are `0..n`).
    n: usize,
    /// Feature count.
    p: usize,
    /// Feature-major value gather (`xv[f * n + slot]`).
    xv: Vec<f64>,
    ys: Vec<f64>,
    idx: Vec<u32>,
    rng: StdRng,
    n_total: f64,
    // Per-feature packed [`Entry`] lists in ascending total order
    // (bit-equal values contiguous), partitioned stably down the tree.
    entries: Vec<Entry>,
    scratch: Vec<Entry>,
    /// Per-split membership by slot (`x <= threshold`), shared by the
    /// `idx` partition and every feature column's partition.
    goes_left: Vec<u8>,
    run_of: Vec<u32>,
    bucket_pos: Vec<u32>,
    /// MSE tie-order replay buffer: targets in the seed's pair order.
    ord_y: Vec<f64>,
    /// Per feature: -0.0/+0.0 coexist (MSE bucket-replay fallback).
    mixed_zero: Vec<bool>,
    /// Reused feature-subsample buffer: refilled with `0..p` per node
    /// and partially Fisher–Yates-shuffled with the exact same RNG draws
    /// as `whatif_stats::sampling::sample_without_replacement`.
    feat_buf: Vec<usize>,
    // Output arenas (the FlatTree under construction).
    meta: Vec<u64>,
    thresh: Vec<f64>,
    importances: Vec<f64>,
    max_depth_seen: usize,
    _criterion: std::marker::PhantomData<C>,
}

impl<'a, C: Criterion> Grow<'a, C> {
    /// Grow one exact tree over `sample`, reading the sort order from
    /// `full` (built from the same `x` and `y`). The caller has checked
    /// the inputs and the sample.
    pub(crate) fn build(
        x: &Matrix,
        y: &[f64],
        sample: &[usize],
        config: &'a TreeConfig,
        full: &FullPresort,
    ) -> FlatTree {
        let n = sample.len();
        let p = x.n_cols();
        // Entries pack the slot into 32 bits and the value class into 31.
        assert!(n < (1usize << 31), "sample too large for packed slots");
        // Gather the sample once, feature-major: every later pass is a
        // sequential or cache-resident-column access instead of strided
        // reads into the full row-major matrix.
        let mut xv = vec![0.0; p * n];
        let mut ys = vec![0.0; n];
        for (slot, &row) in sample.iter().enumerate() {
            for (f, &v) in x.row(row).iter().enumerate() {
                xv[f * n + slot] = v;
            }
            ys[slot] = y[row];
        }
        // Derive the sample's per-feature sorted entry columns from the
        // shared full-dataset ranks with one branch-free counting scatter
        // per feature. Entry tie order within equal values differs from
        // the seed's stable sort only *inside* runs, where it is provably
        // irrelevant (count aggregates; the MSE replay re-orders by
        // `idx`), so the result is bit-identical.
        let n_rows = full.n_rows;
        let mut entries = vec![0u64; p * n];
        let mut count = vec![0u32; n_rows + 1];
        for f in 0..p {
            let meta = &full.packed[f * n_rows..(f + 1) * n_rows];
            count[..n_rows + 1].fill(0);
            for &row in sample {
                count[(meta[row] >> 32) as usize + 1] += 1;
            }
            for r in 0..n_rows {
                count[r + 1] += count[r];
            }
            let base = f * n;
            for (slot, &row) in sample.iter().enumerate() {
                let m = meta[row];
                let cursor = &mut count[(m >> 32) as usize];
                entries[base + *cursor as usize] =
                    (u64::from(slot as u32) << 32) | (m & 0xFFFF_FFFF);
                *cursor += 1;
            }
        }
        let mut b = Grow::<C> {
            config,
            n,
            p,
            xv,
            ys,
            idx: (0..n as u32).collect(),
            rng: StdRng::seed_from_u64(config.seed),
            n_total: n as f64,
            entries,
            scratch: vec![0u64; n],
            goes_left: vec![0u8; n],
            run_of: vec![0u32; n],
            bucket_pos: vec![0u32; n],
            ord_y: vec![0.0; n],
            mixed_zero: full.mixed_zero.clone(),
            feat_buf: (0..p).collect(),
            meta: Vec::with_capacity(2 * n),
            thresh: Vec::with_capacity(2 * n),
            importances: vec![0.0; p],
            max_depth_seen: 0,
            _criterion: std::marker::PhantomData,
        };
        b.grow(0, n, 0, None);
        FlatTree::from_parts(b.meta, b.thresh, p, b.importances, b.max_depth_seen)
    }

    fn push_leaf(&mut self, value: f64) -> u32 {
        let i = self.meta.len() as u32;
        self.meta.push(leaf_meta(i));
        self.thresh.push(value);
        i
    }

    /// Aggregate `idx[start..end)` in index order — the seed's exact
    /// fold order, which fixes every f64 rounding step.
    fn segment_agg(&self, start: usize, end: usize) -> C::Agg {
        let mut agg = C::empty();
        for i in start..end {
            C::add(&mut agg, self.ys[self.idx[i] as usize]);
        }
        agg
    }

    /// Whether `grow` will turn this segment into a leaf without ever
    /// scanning its feature columns (used to skip partitioning columns
    /// for fringe children). Mirrors `grow`'s leaf conditions exactly.
    fn becomes_leaf(&self, agg: &C::Agg, n: usize, depth: usize) -> bool {
        depth >= self.config.max_depth
            || n < self.config.min_samples_split
            || C::impurity(agg) <= 1e-12
    }

    /// Grow a subtree over `idx[start..end]`; returns its node index.
    /// `agg` is the segment's precomputed aggregate when the parent
    /// already folded it (same fold order, identical bits).
    fn grow(&mut self, start: usize, end: usize, depth: usize, agg: Option<C::Agg>) -> u32 {
        self.max_depth_seen = self.max_depth_seen.max(depth);
        let agg = agg.unwrap_or_else(|| self.segment_agg(start, end));
        let node_impurity = C::impurity(&agg);
        let n = end - start;
        // Single source of truth with the fringe partition-skip: a
        // condition added here but not there would let a skipped child
        // scan a stale column segment.
        let make_leaf = self.becomes_leaf(&agg, n, depth);
        if !make_leaf {
            if let Some((feature, threshold, gain)) =
                self.best_split(start, end, &agg, node_impurity)
            {
                // Resolve the split predicate (x <= threshold) once per
                // slot; the `idx` partition and every feature column's
                // partition then share it. The slots satisfying the
                // predicate are exactly a prefix of the split feature's
                // sorted segment, so a log-n probe finds the boundary and
                // the fill never touches the value column per element.
                let col = feature * self.n;
                let seg = &self.entries[col + start..col + end];
                let nl = seg.partition_point(|&e| self.xv[col + entry_slot(e)] <= threshold);
                for &e in &seg[..nl] {
                    self.goes_left[entry_slot(e)] = 1;
                }
                for &e in &seg[nl..] {
                    self.goes_left[entry_slot(e)] = 0;
                }
                // Partition `idx` in place exactly like the seed: left
                // gets x <= threshold (the swap order fixes the seed's
                // child accumulation order), run branchlessly with
                // conditional moves instead of a ~50/50 branch.
                let mut lo = start;
                let mut hi = end;
                while lo < hi {
                    let a = self.idx[lo];
                    let b = self.idx[hi - 1];
                    let left = self.goes_left[a as usize] != 0;
                    self.idx[lo] = if left { a } else { b };
                    self.idx[hi - 1] = if left { b } else { a };
                    lo += usize::from(left);
                    hi -= usize::from(!left);
                }
                let split_at = lo;
                if split_at - start >= self.config.min_samples_leaf
                    && end - split_at >= self.config.min_samples_leaf
                {
                    let left_agg = self.segment_agg(start, split_at);
                    // Integer aggregates subtract exactly; f64 sums
                    // refold the right child in the seed's order.
                    let right_agg = C::subtract(&agg, &left_agg)
                        .unwrap_or_else(|| self.segment_agg(split_at, end));
                    // Children that are certainly leaves never scan
                    // their columns: skip partitioning entirely when
                    // both are leaves, and compact only the living
                    // side when one is — the bulk of the fringe.
                    let left_leaf = self.becomes_leaf(&left_agg, split_at - start, depth + 1);
                    let right_leaf = self.becomes_leaf(&right_agg, end - split_at, depth + 1);
                    if !(left_leaf && right_leaf) {
                        self.partition_columns(
                            start, split_at, end, feature, left_leaf, right_leaf,
                        );
                    }
                    self.importances[feature] += gain * n as f64 / self.n_total;
                    // Reserve the parent slot before recursing so child
                    // indices are stable; the left child is the next
                    // node pushed (placeholder + 1), so only the right
                    // index needs patching.
                    let placeholder = self.push_leaf(0.0);
                    self.grow(start, split_at, depth + 1, Some(left_agg));
                    let right = self.grow(split_at, end, depth + 1, Some(right_agg));
                    let slot = placeholder as usize;
                    self.meta[slot] = (u64::from(right) << 32) | feature as u64;
                    self.thresh[slot] = threshold;
                    return placeholder;
                }
            }
        }
        self.push_leaf(C::leaf_value(&agg))
    }

    /// Best `(feature, threshold, impurity_gain)` over the feature subset,
    /// or `None` when no split improves impurity.
    fn best_split(
        &mut self,
        start: usize,
        end: usize,
        parent_agg: &C::Agg,
        parent_impurity: f64,
    ) -> Option<(usize, f64, f64)> {
        let p = self.p;
        let k = self.config.max_features.unwrap_or(p).clamp(1, p);
        // The seed's `sample_without_replacement` draws, replayed as a
        // partial Fisher–Yates over a reused buffer: no per-node
        // allocation, and no draws at all when every feature is used.
        for (i, f) in self.feat_buf.iter_mut().enumerate() {
            *f = i;
        }
        if k < p {
            for i in 0..k {
                let j = self.rng.gen_range(i..p);
                self.feat_buf.swap(i, j);
            }
        }
        let n = (end - start) as f64;
        let len = end - start;
        let mut best: Option<(usize, f64, f64)> = None;
        for &feature in &self.feat_buf[..k] {
            let col = feature * self.n;
            let seg = &self.entries[col + start..col + end];
            let vcol = &self.xv[col..col + self.n];
            if entry_class(seg[0]) == entry_class(seg[len - 1]) {
                continue; // constant feature in this node
            }
            if C::ORDER_SENSITIVE {
                // Replay the seed's exact pair order with a counting
                // sort: ascending bit-distinct value buckets, each bucket
                // filled by walking `idx` in node order (= the stable
                // sort's tie order). Bit granularity, not `==`, keeps
                // -0.0/+0.0 ties in the same order the seed's total-order
                // sort puts them; when a feature has no mixed-sign zeros
                // (the only bit-distinct `==`-equal case), class changes
                // are bit changes and the value column is never touched.
                let mut runs = 0usize;
                if self.mixed_zero[feature] {
                    let mut prev = 0u64;
                    for (i, &e) in seg.iter().enumerate() {
                        let s = entry_slot(e);
                        let bits = vcol[s].to_bits();
                        if i == 0 || bits != prev {
                            self.bucket_pos[runs] = i as u32;
                            runs += 1;
                            prev = bits;
                        }
                        self.run_of[s] = (runs - 1) as u32;
                    }
                } else {
                    let mut prev = u32::MAX;
                    for (i, &e) in seg.iter().enumerate() {
                        let class = entry_class(e);
                        if i == 0 || class != prev {
                            self.bucket_pos[runs] = i as u32;
                            runs += 1;
                            prev = class;
                        }
                        self.run_of[entry_slot(e)] = (runs - 1) as u32;
                    }
                }
                for i in start..end {
                    let s = self.idx[i] as usize;
                    let cursor = &mut self.bucket_pos[self.run_of[s] as usize];
                    self.ord_y[*cursor as usize] = self.ys[s];
                    *cursor += 1;
                }
                let ord_y = &self.ord_y;
                scan_entries::<C>(
                    feature,
                    seg,
                    vcol,
                    |w| ord_y[w],
                    parent_agg,
                    parent_impurity,
                    n,
                    self.config.min_samples_leaf,
                    &mut best,
                );
            } else if len < 256 {
                // Order-free aggregates (integer counts), small segment:
                // one fused pass accumulating the current equal-value run
                // (integer sums are associative, so run-at-once folds are
                // bit-identical to the seed's element loop) and
                // evaluating at each class change.
                let mut left = C::empty();
                let mut right = parent_agg.clone();
                let mut run_n = 0usize;
                let mut run_pos = 0usize;
                let mut prev_class = entry_class(seg[0]);
                for w in 0..len {
                    let e = seg[w];
                    let c = entry_class(e);
                    if c != prev_class {
                        C::add_bulk(&mut left, run_n, run_pos);
                        C::remove_bulk(&mut right, run_n, run_pos);
                        run_n = 0;
                        run_pos = 0;
                        prev_class = c;
                        let nl = C::count(&left);
                        let nr = C::count(&right);
                        if nl >= self.config.min_samples_leaf && nr >= self.config.min_samples_leaf
                        {
                            let weighted = (nl as f64 * C::impurity(&left)
                                + nr as f64 * C::impurity(&right))
                                / n;
                            let gain = parent_impurity - weighted;
                            if gain >= 0.0 && best.is_none_or(|(_, _, g)| gain > g) {
                                let threshold =
                                    (vcol[entry_slot(seg[w - 1])] + vcol[entry_slot(e)]) / 2.0;
                                best = Some((feature, threshold, gain));
                            }
                        }
                    }
                    run_n += 1;
                    run_pos += (e & 1) as usize;
                }
            } else {
                // Large segment: fold run by run — integer sums are
                // associative, so adding a whole equal-value run at once
                // is bit-identical to the seed's element loop, and the
                // per-run label sum is a pure vectorizable reduction over
                // the packed label bits.
                let mut runs = 0usize;
                let mut prev = u32::MAX;
                for (i, &e) in seg.iter().enumerate() {
                    let c = entry_class(e);
                    if i == 0 || c != prev {
                        self.bucket_pos[runs] = i as u32;
                        runs += 1;
                        prev = c;
                    }
                }
                let mut left = C::empty();
                let mut right = parent_agg.clone();
                for r in 0..runs {
                    let a = self.bucket_pos[r] as usize;
                    let b = if r + 1 < runs {
                        self.bucket_pos[r + 1] as usize
                    } else {
                        len
                    };
                    let pos: u64 = seg[a..b].iter().map(|&e| e & 1).sum();
                    C::add_bulk(&mut left, b - a, pos as usize);
                    C::remove_bulk(&mut right, b - a, pos as usize);
                    if r + 1 == runs {
                        break; // the seed never evaluates past the last value
                    }
                    let nl = C::count(&left);
                    let nr = C::count(&right);
                    if nl < self.config.min_samples_leaf || nr < self.config.min_samples_leaf {
                        continue;
                    }
                    let weighted =
                        (nl as f64 * C::impurity(&left) + nr as f64 * C::impurity(&right)) / n;
                    let gain = parent_impurity - weighted;
                    if gain >= 0.0 && best.is_none_or(|(_, _, g)| gain > g) {
                        let threshold =
                            (vcol[entry_slot(seg[b - 1])] + vcol[entry_slot(seg[b])]) / 2.0;
                        best = Some((feature, threshold, gain));
                    }
                }
            }
        }
        best
    }

    /// Stably split every feature's presorted entry list around the
    /// chosen threshold, so both children inherit presorted columns.
    /// Membership comes from `goes_left`, which was filled with the same
    /// `x <= threshold` predicate as the `idx` partition, so the two
    /// stay aligned even when the midpoint threshold rounds onto a
    /// neighboring feature value.
    fn partition_columns(
        &mut self,
        start: usize,
        split_at: usize,
        end: usize,
        split_feature: usize,
        left_leaf: bool,
        right_leaf: bool,
    ) {
        for f in 0..self.p {
            // The split feature's own segment is already partitioned:
            // its left members are exactly the sorted prefix, and a
            // stable partition of a prefix-membership list is the
            // identity.
            if f == split_feature {
                continue;
            }
            let base = f * self.n;
            // A feature constant in this node stays constant in every
            // descendant, and descendants only ever ask "is it
            // constant?" (equal classes, any order) — so its segment
            // can go stale and never needs partitioning again.
            if entry_class(self.entries[base + start]) == entry_class(self.entries[base + end - 1])
            {
                continue;
            }
            if right_leaf {
                // Only the left child lives on: compact its members
                // forward in place (branchless — the store always
                // retires, the cursor advances only on a member).
                let mut keep = start;
                for i in start..end {
                    let e = self.entries[base + i];
                    self.entries[base + keep] = e;
                    keep += usize::from(self.goes_left[entry_slot(e)]);
                }
                debug_assert_eq!(keep, split_at);
            } else if left_leaf {
                // Only the right child lives on: compact its members
                // backward in place, which preserves their order and
                // never overwrites an unread slot.
                let mut keep = end;
                for i in (start..end).rev() {
                    let e = self.entries[base + i];
                    self.entries[base + keep - 1] = e;
                    keep -= usize::from(self.goes_left[entry_slot(e)] == 0);
                }
                debug_assert_eq!(keep, split_at);
            } else {
                let goes_left = &self.goes_left;
                let keep = stable_partition(
                    &mut self.entries[base + start..base + end],
                    &mut self.scratch,
                    |e| goes_left[entry_slot(e)] != 0,
                );
                debug_assert_eq!(start + keep, split_at);
            }
        }
    }
}

/// Move the items `goes_left` accepts to the front of `items` and the
/// others after them, both in their original order; returns how many
/// went left. `spill` holds the right side meanwhile and needs room for
/// it.
///
/// A branchless two-stream split: both stores retire every iteration
/// and only the matching cursor advances, so a ~50/50 left/right
/// outcome never mispredicts, and no load waits on the previous
/// compare as an in-place swap loop's do.
#[inline]
pub(crate) fn stable_partition<T: Copy>(
    items: &mut [T],
    spill: &mut [T],
    goes_left: impl Fn(T) -> bool,
) -> usize {
    let mut keep = 0;
    let mut spilled = 0;
    for i in 0..items.len() {
        let e = items[i];
        let left = usize::from(goes_left(e));
        items[keep] = e;
        spill[spilled] = e;
        keep += left;
        spilled += 1 - left;
    }
    items[keep..].copy_from_slice(&spill[..spilled]);
    keep
}

/// Normalize importances to sum to 1 (leaves zeros untouched).
pub(crate) fn normalize(importances: &mut [f64]) {
    let total: f64 = importances.iter().sum();
    if total > 0.0 {
        for v in importances.iter_mut() {
            *v /= total;
        }
    }
}

/// A single CART tree for KPI kind `K`: for [`Binary`] a classifier
/// ([`DecisionTreeClassifier`]: Gini splits, predictions are class-1
/// probabilities, the leaf's positive fraction), for [`Continuous`] a
/// regressor ([`DecisionTreeRegressor`]: variance splits, mean leaves).
#[derive(Debug, Clone)]
pub struct DecisionTree<K> {
    /// Tree hyperparameters.
    pub config: TreeConfig,
    fitted: Option<FlatTree>,
    /// The tag only selects code; `fn() -> K` keeps the tree `Send` and
    /// `Sync` whatever `K` is.
    kind: PhantomData<fn() -> K>,
}

/// A CART classification tree: binary labels, Gini splits.
pub type DecisionTreeClassifier = DecisionTree<Binary>;

/// A CART regression tree: variance splits, mean leaves.
pub type DecisionTreeRegressor = DecisionTree<Continuous>;

impl<K> Default for DecisionTree<K> {
    fn default() -> Self {
        DecisionTree::new(TreeConfig::default())
    }
}

impl<K> DecisionTree<K> {
    /// Tree with the given hyperparameters.
    pub fn new(config: TreeConfig) -> Self {
        DecisionTree {
            config,
            fitted: None,
            kind: PhantomData,
        }
    }

    /// Grow the tree with criterion `C` over `sample`, once the caller
    /// has checked `y`.
    fn fit_sample<C: Criterion>(
        &mut self,
        x: &Matrix,
        y: &[f64],
        sample: &[usize],
    ) -> Result<(), LearnError> {
        if sample.is_empty() {
            return Err(LearnError::Invalid("empty training sample".to_owned()));
        }
        if let Some(&bad) = sample.iter().find(|&&i| i >= x.n_rows()) {
            return Err(LearnError::Invalid(format!(
                "sample index {bad} out of range"
            )));
        }
        let presort = FullPresort::new(x, y);
        self.fitted = Some(Grow::<C>::build(x, y, sample, &self.config, &presort));
        Ok(())
    }

    /// The flattened fitted tree.
    #[cfg(test)]
    pub(crate) fn flat(&self) -> Option<&FlatTree> {
        self.fitted.as_ref()
    }

    /// Normalized impurity feature importances (sum to 1, all ≥ 0).
    ///
    /// # Errors
    /// [`LearnError::NotFitted`] before fit.
    pub fn feature_importances(&self) -> Result<Vec<f64>, LearnError> {
        let f = self.fitted.as_ref().ok_or(LearnError::NotFitted)?;
        let mut imp = f.importances.clone();
        normalize(&mut imp);
        Ok(imp)
    }

    /// Depth of the fitted tree.
    ///
    /// # Errors
    /// [`LearnError::NotFitted`] before fit.
    pub fn depth(&self) -> Result<usize, LearnError> {
        Ok(self.fitted.as_ref().ok_or(LearnError::NotFitted)?.depth)
    }
}

impl DecisionTree<Binary> {
    /// Fit over an explicit row sample (bootstrap-style, duplicates
    /// allowed).
    ///
    /// # Errors
    /// [`LearnError`] on shape/label problems or NaN feature cells.
    pub fn fit_on_sample(
        &mut self,
        x: &Matrix,
        y: &[u8],
        sample: &[usize],
    ) -> Result<(), LearnError> {
        check_no_nan_features(x)?;
        let targets = binary_targets(x, y)?;
        self.fit_sample::<Gini>(x, &targets, sample)
    }
}

impl DecisionTree<Continuous> {
    /// Fit over an explicit row sample (bootstrap-style, duplicates
    /// allowed).
    ///
    /// # Errors
    /// [`LearnError`] on shape problems or NaN feature cells.
    pub fn fit_on_sample(
        &mut self,
        x: &Matrix,
        y: &[f64],
        sample: &[usize],
    ) -> Result<(), LearnError> {
        check_no_nan_features(x)?;
        check_targets(x, y)?;
        self.fit_sample::<Mse>(x, y, sample)
    }
}

impl Classifier for DecisionTree<Binary> {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<(), LearnError> {
        let all: Vec<usize> = (0..x.n_rows()).collect();
        self.fit_on_sample(x, y, &all)
    }
}

impl Regressor for DecisionTree<Continuous> {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), LearnError> {
        let all: Vec<usize> = (0..x.n_rows()).collect();
        self.fit_on_sample(x, y, &all)
    }
}

impl<K> Predictor for DecisionTree<K> {
    fn predict_row(&self, x: &[f64]) -> Result<f64, LearnError> {
        self.fitted
            .as_ref()
            .ok_or(LearnError::NotFitted)?
            .predict_row(x)
    }

    fn n_features(&self) -> usize {
        self.fitted.as_ref().map_or(0, FlatTree::n_features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Vec<u8>) {
        // XOR: not linearly separable, easy for a depth-2 tree.
        let rows = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![0.1, 0.1],
            vec![0.1, 0.9],
            vec![0.9, 0.1],
            vec![0.9, 0.9],
        ];
        let y = vec![0, 1, 1, 0, 0, 1, 1, 0];
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn classifier_learns_xor() {
        let (x, y) = xor_data();
        let mut t = DecisionTreeClassifier::default();
        t.fit(&x, &y).unwrap();
        for (i, &label) in y.iter().enumerate() {
            assert_eq!(t.predict_class_row(x.row(i)).unwrap(), label);
        }
        assert!(t.depth().unwrap() >= 2, "xor needs at least two levels");
    }

    #[test]
    fn classifier_importances_sum_to_one() {
        let (x, y) = xor_data();
        let mut t = DecisionTreeClassifier::default();
        t.fit(&x, &y).unwrap();
        let imp = t.feature_importances().unwrap();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn pure_node_is_a_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let mut t = DecisionTreeClassifier::default();
        t.fit(&x, &[1, 1, 1]).unwrap();
        assert_eq!(t.depth().unwrap(), 0);
        assert_eq!(t.predict_row(&[9.0]).unwrap(), 1.0);
    }

    #[test]
    fn max_depth_limits_growth() {
        let (x, y) = xor_data();
        let cfg = TreeConfig {
            max_depth: 1,
            ..TreeConfig::default()
        };
        let mut t = DecisionTreeClassifier::new(cfg);
        t.fit(&x, &y).unwrap();
        assert!(t.depth().unwrap() <= 1);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<u8> = (0..10).map(|i| u8::from(i == 0)).collect();
        let cfg = TreeConfig {
            min_samples_leaf: 3,
            ..TreeConfig::default()
        };
        let mut t = DecisionTreeClassifier::new(cfg);
        t.fit(&Matrix::from_rows(&rows).unwrap(), &y).unwrap();
        // The isolated positive at x=0 cannot be split off alone; the left
        // leaf must pool at least 3 samples.
        let p = t.predict_row(&[0.0]).unwrap();
        assert!(p < 0.5);
    }

    #[test]
    fn regressor_fits_piecewise_constant() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut t = DecisionTreeRegressor::default();
        t.fit(&x, &y).unwrap();
        assert!((t.predict_row(&[3.0]).unwrap() - 1.0).abs() < 1e-9);
        assert!((t.predict_row(&[15.0]).unwrap() - 5.0).abs() < 1e-9);
        let imp = t.feature_importances().unwrap();
        assert!((imp[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regressor_approximates_smooth_function() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 20.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0]).sin()).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut t = DecisionTreeRegressor::default();
        t.fit(&x, &y).unwrap();
        let mut worst = 0.0f64;
        for (i, r) in rows.iter().enumerate() {
            worst = worst.max((t.predict_row(r).unwrap() - y[i]).abs());
        }
        assert!(worst < 0.05, "worst error {worst}");
    }

    #[test]
    fn irrelevant_feature_gets_low_importance() {
        // Feature 0 decides the class; feature 1 is a constant.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 4) as f64, 7.0]).collect();
        let y: Vec<u8> = rows.iter().map(|r| u8::from(r[0] >= 2.0)).collect();
        let mut t = DecisionTreeClassifier::default();
        t.fit(&Matrix::from_rows(&rows).unwrap(), &y).unwrap();
        let imp = t.feature_importances().unwrap();
        assert!(imp[0] > 0.99);
        assert!(imp[1] < 0.01);
    }

    #[test]
    fn errors_on_bad_input() {
        let (x, y) = xor_data();
        let mut t = DecisionTreeClassifier::default();
        assert!(t.predict_row(&[0.0, 0.0]).is_err(), "not fitted");
        assert!(t.fit_on_sample(&x, &y, &[]).is_err());
        assert!(t.fit_on_sample(&x, &y, &[999]).is_err());
        let bad: Vec<u8> = vec![3; x.n_rows()];
        assert!(t.fit(&x, &bad).is_err());
        t.fit(&x, &y).unwrap();
        assert!(t.predict_row(&[1.0]).is_err(), "wrong width");

        let mut r = DecisionTreeRegressor::default();
        assert!(r.fit(&x, &[1.0]).is_err());
        assert!(r.fit_on_sample(&x, &vec![0.0; x.n_rows()], &[999]).is_err());
        assert!(r.feature_importances().is_err());
        assert!(r.depth().is_err());
    }

    #[test]
    fn nan_feature_cell_is_a_clean_error_not_a_panic() {
        let (mut rows, y) = {
            let (x, y) = xor_data();
            let rows: Vec<Vec<f64>> = (0..x.n_rows()).map(|i| x.row(i).to_vec()).collect();
            (rows, y)
        };
        rows[3][1] = f64::NAN;
        let x = Matrix::from_rows(&rows).unwrap();
        let mut t = DecisionTreeClassifier::default();
        let err = t.fit(&x, &y).unwrap_err();
        assert!(matches!(err, LearnError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("NaN"));

        let mut r = DecisionTreeRegressor::default();
        let yr: Vec<f64> = y.iter().map(|&v| f64::from(v)).collect();
        assert!(matches!(
            r.fit(&x, &yr).unwrap_err(),
            LearnError::Invalid(_)
        ));
    }

    #[test]
    fn max_features_subsampling_still_fits() {
        let (x, y) = xor_data();
        let cfg = TreeConfig {
            max_features: Some(1),
            seed: 42,
            ..TreeConfig::default()
        };
        let mut t = DecisionTreeClassifier::new(cfg);
        t.fit(&x, &y).unwrap();
        // With one random feature per split the tree still fits something
        // sensible (probabilities in range).
        for i in 0..x.n_rows() {
            let p = t.predict_row(x.row(i)).unwrap();
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn duplicate_feature_values_never_split_between_equals() {
        // All feature values identical -> no split possible -> leaf.
        let rows: Vec<Vec<f64>> = (0..6).map(|_| vec![1.0]).collect();
        let y = vec![0, 1, 0, 1, 0, 1];
        let mut t = DecisionTreeClassifier::default();
        t.fit(&Matrix::from_rows(&rows).unwrap(), &y).unwrap();
        assert_eq!(t.depth().unwrap(), 0);
        assert!((t.predict_row(&[1.0]).unwrap() - 0.5).abs() < 1e-9);
    }

    /// Every node's interval on feature `j`, from the root down: a
    /// child inherits its parent's, tightened when the parent tests `j`.
    fn path_intervals(tree: &FlatTree, j: usize) -> Vec<(f64, f64)> {
        let mut want = vec![(f64::NAN, f64::NAN); tree.n_nodes()];
        let mut stack = vec![(0usize, f64::NEG_INFINITY, f64::INFINITY)];
        while let Some((i, lo, hi)) = stack.pop() {
            want[i] = (lo, hi);
            let m = tree.meta[i];
            if m as u32 == LEAF {
                continue;
            }
            let (t, right) = (tree.thresh[i], (m >> 32) as usize);
            let ((llo, lhi), (rlo, rhi)) = if (m as u32) as usize != j {
                ((lo, hi), (lo, hi))
            } else if t.is_nan() {
                ((f64::INFINITY, hi), (f64::INFINITY, hi))
            } else {
                ((lo, hi.min(t)), (lo.max(t), hi))
            };
            stack.push((i + 1, llo, lhi));
            stack.push((right, rlo, rhi));
        }
        want
    }

    /// The feature index lists exactly the nodes that test each feature,
    /// in pre-order, and the range updates it drives give every node —
    /// internal nodes included — the interval of its path from the root.
    fn assert_indexed_intervals_follow_the_paths(tree: &FlatTree) {
        let mut nodes = Vec::new();
        let mut ends = vec![0u32];
        tree.index_tests(&mut nodes, &mut ends);
        assert_eq!(ends.len(), tree.n_features() + 1);
        let (mut lo, mut hi) = (vec![0.0; tree.n_nodes()], vec![0.0; tree.n_nodes()]);
        for j in 0..tree.n_features() {
            let tests = &nodes[ends[j] as usize..ends[j + 1] as usize];
            let want: Vec<u16> = (0..tree.n_nodes())
                .filter(|&i| tree.meta[i] as u32 == j as u32)
                .map(|i| i as u16)
                .collect();
            assert_eq!(tests, &want[..], "feature {j}");
            tree.intervals(tests, &mut lo, &mut hi);
            for (i, &(l, h)) in path_intervals(tree, j).iter().enumerate() {
                // `==`: ±0 may come out either way, as the check allows.
                assert!(lo[i] == l && hi[i] == h, "feature {j}, node {i}");
            }
        }
    }

    #[test]
    fn indexed_intervals_match_the_path_to_every_node() {
        // Two features and deep trees, so a path tests each many times.
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![((i * 37) % 101) as f64 / 8.0, ((i * 11) % 23) as f64 - 11.0])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0] * r[1]).sin()).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        for seed in 0..4 {
            let mut t = DecisionTreeRegressor::new(TreeConfig {
                max_depth: 14,
                max_features: Some(1),
                seed,
                ..TreeConfig::default()
            });
            t.fit(&x, &y).unwrap();
            assert_indexed_intervals_follow_the_paths(t.flat().unwrap());
        }
        // A hand-built tree with a NaN threshold above tests of both
        // features: node 0 sends x0 <= 1 to node 1 (x1 <= NaN), whose
        // left subtree splits on x0 at 0.5 and then on x1 at 0; the
        // root's right subtree splits on x0 at 3.
        let meta = vec![
            8u64 << 32,
            (7u64 << 32) | 1,
            4u64 << 32,
            leaf_meta(3),
            (6u64 << 32) | 1,
            leaf_meta(5),
            leaf_meta(6),
            leaf_meta(7),
            10u64 << 32,
            leaf_meta(9),
            leaf_meta(10),
        ];
        let mut thresh = vec![1.0, f64::NAN, 0.5, 0.0, 0.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0];
        let tree = FlatTree::from_parts(meta.clone(), thresh.clone(), 2, vec![0.0; 2], 4);
        assert_indexed_intervals_follow_the_paths(&tree);
        thresh[0] = f64::NAN;
        let tree = FlatTree::from_parts(meta, thresh, 2, vec![0.0; 2], 4);
        assert_indexed_intervals_follow_the_paths(&tree);
    }
}
