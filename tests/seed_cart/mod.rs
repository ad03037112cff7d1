//! The seed CART and its bootstrap forest, written once and standalone:
//! the oracle that `tests/forest_equivalence.rs` pins the production
//! trainer and walk against, bit for bit.
//!
//! This is the algorithm the exact trainer and the flat-tree walk of
//! `whatif-learn` replaced, with the same arithmetic in the same order:
//! a per-node `(value, y)` gather, a stable `total_cmp` sort and the
//! boundary scan; the in-place swap partition and a refold of every
//! child's aggregate; feature subsets from `sample_without_replacement`;
//! and an `if x <= t` walk over an enum arena. It reads its inputs
//! through `Matrix` accessors and the plain `TreeConfig`/`ForestConfig`
//! hyperparameters, draws randomness through `whatif::stats::sampling`
//! and `rand`, and calls nothing of `whatif-learn`'s trainer or walk, so
//! a change there cannot move the oracle along with it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use whatif::learn::forest::ForestConfig;
use whatif::learn::tree::TreeConfig;
use whatif::learn::Matrix;
use whatif::stats::sampling::{bootstrap_indices, out_of_bag_indices, sample_without_replacement};

/// A split criterion over a node's running aggregate.
pub trait Criterion {
    type Agg: Clone;
    fn empty() -> Self::Agg;
    fn add(agg: &mut Self::Agg, y: f64);
    fn remove(agg: &mut Self::Agg, y: f64);
    fn count(agg: &Self::Agg) -> usize;
    /// Per-sample impurity.
    fn impurity(agg: &Self::Agg) -> f64;
    fn leaf_value(agg: &Self::Agg) -> f64;
}

/// Gini impurity on binary labels: `(n, n_pos)`.
pub struct Gini;

impl Criterion for Gini {
    type Agg = (usize, usize);
    fn empty() -> Self::Agg {
        (0, 0)
    }
    fn add(agg: &mut Self::Agg, y: f64) {
        agg.0 += 1;
        if y >= 0.5 {
            agg.1 += 1;
        }
    }
    fn remove(agg: &mut Self::Agg, y: f64) {
        agg.0 -= 1;
        if y >= 0.5 {
            agg.1 -= 1;
        }
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

/// Variance on continuous targets: `(n, Σy, Σy²)`.
pub struct Mse;

impl Criterion for Mse {
    type Agg = (usize, f64, f64);
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
    fn count(agg: &Self::Agg) -> usize {
        agg.0
    }
    fn impurity(agg: &Self::Agg) -> f64 {
        if agg.0 == 0 {
            return 0.0;
        }
        let n = agg.0 as f64;
        let mean = agg.1 / n;
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

/// The seed's node arena: one enum per node, children by index.
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted seed tree.
pub struct SeedTree {
    nodes: Vec<Node>,
    /// Unnormalized impurity-decrease importances.
    importances: Vec<f64>,
    pub depth: usize,
}

impl SeedTree {
    /// Grow a tree over `sample`, a list of row indices into `x` that may
    /// repeat (a bootstrap draw).
    pub fn fit<C: Criterion>(x: &Matrix, y: &[f64], sample: &[usize], config: &TreeConfig) -> Self {
        let mut grow = Grow::<C> {
            x,
            rows: sample,
            ys: sample.iter().map(|&r| y[r]).collect(),
            idx: (0..sample.len()).collect(),
            config,
            rng: StdRng::seed_from_u64(config.seed),
            n_total: sample.len() as f64,
            tree: SeedTree {
                nodes: Vec::new(),
                importances: vec![0.0; x.n_cols()],
                depth: 0,
            },
            criterion: std::marker::PhantomData,
        };
        grow.grow(0, sample.len(), 0);
        grow.tree
    }

    /// The `if x <= t` walk; a NaN cell fails the test and goes right.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match self.nodes[i] {
                Node::Leaf { value } => return value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[feature] <= threshold {
                        left
                    } else {
                        right
                    }
                }
            }
        }
    }

    /// Importances normalized to sum to 1 (all zeros stay zeros).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut imp = self.importances.clone();
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }
}

/// Recursive growth over `idx[start..end]`, a range of sample slots.
struct Grow<'a, C> {
    x: &'a Matrix,
    /// Slot → row of `x`.
    rows: &'a [usize],
    /// Slot → target.
    ys: Vec<f64>,
    idx: Vec<usize>,
    config: &'a TreeConfig,
    rng: StdRng,
    n_total: f64,
    tree: SeedTree,
    criterion: std::marker::PhantomData<C>,
}

impl<C: Criterion> Grow<'_, C> {
    fn grow(&mut self, start: usize, end: usize, depth: usize) -> usize {
        self.tree.depth = self.tree.depth.max(depth);
        let mut agg = C::empty();
        for &s in &self.idx[start..end] {
            C::add(&mut agg, self.ys[s]);
        }
        let n = end - start;
        let impurity = C::impurity(&agg);
        if depth < self.config.max_depth && n >= self.config.min_samples_split && impurity > 1e-12 {
            if let Some((feature, threshold, gain)) = self.best_split(start, end, &agg, impurity) {
                let (mut lo, mut hi) = (start, end);
                while lo < hi {
                    if self.x.get(self.rows[self.idx[lo]], feature) <= threshold {
                        lo += 1;
                    } else {
                        hi -= 1;
                        self.idx.swap(lo, hi);
                    }
                }
                let min_leaf = self.config.min_samples_leaf;
                if lo - start >= min_leaf && end - lo >= min_leaf {
                    self.tree.importances[feature] += gain * n as f64 / self.n_total;
                    let at = self.tree.nodes.len();
                    self.tree.nodes.push(Node::Leaf { value: 0.0 });
                    let left = self.grow(start, lo, depth + 1);
                    let right = self.grow(lo, end, depth + 1);
                    self.tree.nodes[at] = Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    };
                    return at;
                }
            }
        }
        self.tree.nodes.push(Node::Leaf {
            value: C::leaf_value(&agg),
        });
        self.tree.nodes.len() - 1
    }

    /// Best `(feature, threshold, gain)` over a random feature subset.
    /// Zero-gain splits count, and only a strictly better gain replaces
    /// the running best.
    fn best_split(
        &mut self,
        start: usize,
        end: usize,
        parent: &C::Agg,
        parent_impurity: f64,
    ) -> Option<(usize, f64, f64)> {
        let p = self.x.n_cols();
        let k = self.config.max_features.unwrap_or(p).clamp(1, p);
        let features = if k == p {
            (0..p).collect()
        } else {
            sample_without_replacement(&mut self.rng, p, k)
        };
        let n = (end - start) as f64;
        let mut best: Option<(usize, f64, f64)> = None;
        for feature in features {
            let mut pairs: Vec<(f64, f64)> = self.idx[start..end]
                .iter()
                .map(|&s| (self.x.get(self.rows[s], feature), self.ys[s]))
                .collect();
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            if pairs[0].0 == pairs[pairs.len() - 1].0 {
                continue;
            }
            let mut left = C::empty();
            let mut right = parent.clone();
            for w in 0..pairs.len() - 1 {
                C::add(&mut left, pairs[w].1);
                C::remove(&mut right, pairs[w].1);
                if pairs[w].0 == pairs[w + 1].0 {
                    continue;
                }
                let (nl, nr) = (C::count(&left), C::count(&right));
                if nl < self.config.min_samples_leaf || nr < self.config.min_samples_leaf {
                    continue;
                }
                let weighted =
                    (nl as f64 * C::impurity(&left) + nr as f64 * C::impurity(&right)) / n;
                let gain = parent_impurity - weighted;
                if gain >= 0.0 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((feature, (pairs[w].0 + pairs[w + 1].0) / 2.0, gain));
                }
            }
        }
        best
    }
}

/// A fitted seed bootstrap forest.
pub struct SeedForest {
    trees: Vec<SeedTree>,
    /// OOB accuracy (classifier) or OOB R² (regressor).
    pub oob_score: f64,
    /// Per-tree normalized importances, averaged and renormalized.
    pub importances: Vec<f64>,
}

impl SeedForest {
    /// A classifier forest: √p features per split unless configured.
    pub fn fit_classifier(x: &Matrix, labels: &[u8], config: &ForestConfig) -> Self {
        let p = x.n_cols();
        let k = ((p as f64).sqrt().round() as usize).clamp(1, p);
        let y: Vec<f64> = labels.iter().map(|&l| f64::from(l)).collect();
        let (trees, oob_sum, votes) = Self::fit_trees::<Gini>(x, &y, config, k);
        let (mut correct, mut counted) = (0usize, 0usize);
        for i in 0..x.n_rows() {
            if votes[i] > 0 {
                counted += 1;
                if u8::from(oob_sum[i] / f64::from(votes[i]) >= 0.5) == labels[i] {
                    correct += 1;
                }
            }
        }
        let oob_score = if counted == 0 {
            f64::NAN
        } else {
            correct as f64 / counted as f64
        };
        Self::assemble(trees, oob_score, p)
    }

    /// A regressor forest: p/3 features per split unless configured.
    pub fn fit_regressor(x: &Matrix, y: &[f64], config: &ForestConfig) -> Self {
        let p = x.n_cols();
        let (trees, oob_sum, votes) = Self::fit_trees::<Mse>(x, y, config, (p / 3).clamp(1, p));
        let covered: Vec<usize> = (0..x.n_rows()).filter(|&i| votes[i] > 0).collect();
        let oob_score = if covered.len() < 2 {
            f64::NAN
        } else {
            let mean = covered.iter().map(|&i| y[i]).sum::<f64>() / covered.len() as f64;
            let ss_res: f64 = covered
                .iter()
                .map(|&i| {
                    let pred = oob_sum[i] / f64::from(votes[i]);
                    (y[i] - pred) * (y[i] - pred)
                })
                .sum();
            let ss_tot: f64 = covered.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();
            if ss_tot == 0.0 {
                0.0
            } else {
                1.0 - ss_res / ss_tot
            }
        };
        Self::assemble(trees, oob_score, p)
    }

    /// Every tree's seed and bootstrap sample is drawn from the master
    /// seed up front; each tree then votes on its out-of-bag rows.
    fn fit_trees<C: Criterion>(
        x: &Matrix,
        y: &[f64],
        config: &ForestConfig,
        default_features: usize,
    ) -> (Vec<SeedTree>, Vec<f64>, Vec<u32>) {
        let n = x.n_rows();
        let mut master = StdRng::seed_from_u64(config.seed);
        let jobs: Vec<(u64, Vec<usize>)> = (0..config.n_trees)
            .map(|_| (master.gen(), bootstrap_indices(&mut master, n)))
            .collect();
        let mut oob_sum = vec![0.0; n];
        let mut votes = vec![0u32; n];
        let mut trees = Vec::new();
        for (seed, sample) in jobs {
            let tree_config = TreeConfig {
                max_features: Some(config.tree.max_features.unwrap_or(default_features)),
                seed,
                ..config.tree.clone()
            };
            let tree = SeedTree::fit::<C>(x, y, &sample, &tree_config);
            for i in out_of_bag_indices(&sample, n) {
                oob_sum[i] += tree.predict_row(x.row(i));
                votes[i] += 1;
            }
            trees.push(tree);
        }
        (trees, oob_sum, votes)
    }

    fn assemble(trees: Vec<SeedTree>, oob_score: f64, p: usize) -> Self {
        let mut importances = vec![0.0; p];
        for tree in &trees {
            for (a, v) in importances.iter_mut().zip(tree.feature_importances()) {
                *a += v;
            }
        }
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for a in &mut importances {
                *a /= total;
            }
        }
        SeedForest {
            trees,
            oob_score,
            importances,
        }
    }

    /// The mean of the trees' walks for one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut sum = 0.0;
        for tree in &self.trees {
            sum += tree.predict_row(row);
        }
        sum / self.trees.len() as f64
    }
}
