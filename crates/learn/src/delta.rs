//! Delta prediction: score a view that moves one driver by walking only
//! the (row, tree) pairs whose leaf the move changes.
//!
//! Most what-if views move one driver: a sensitivity slider stop, each
//! curve of a comparison sweep, each goal-seek probe. Such a view is a
//! [`ColumnOverlay`] of the training matrix with one column replaced.
//! Every other cell equals the training matrix, so a row's walk can
//! leave the path it took there only at a node that tests the moved
//! column. A [`LeafTable`] records where each of those paths ends — the
//! leaf every (tree, row) of the training matrix lands on — and the
//! delta kernel keeps that leaf wherever the moved value stays inside
//! the leaf's interval on the moved column (`FlatTree::intervals`, fed
//! by the table's per-tree index of the nodes that test each feature).
//!
//! A slider drag moves the same driver again and again, so the table
//! also keeps the leaves of the model's last one-driver view (the
//! memo): the next view on that driver keeps a memo leaf wherever its
//! value lies in that leaf's interval. Only the pairs neither leaf
//! covers walk from the root, four at a time, through the same group
//! walk as the full kernel, from rows gathered once per view.
//!
//! Each row still gains exactly one leaf value per tree, in tree order —
//! the leaf the full kernel reaches — and finalizes once, so the result
//! is bit-identical to [`Predictor::predict_batch`] at any thread count.
//! Rows fan out over the parked workers of [`crate::pool`].
//! `docs/FOREST.md` ("Delta prediction") has the argument and the
//! numbers.
//!
//! [`Predictor::predict_batch`]: crate::model::Predictor::predict_batch

use crate::forest::{batch_threads, predict_batch_flats, row_chunk_len};
use crate::linalg::Matrix;
use crate::model::{check_batch_shape, LearnError, MatrixView};
use crate::overlay::ColumnOverlay;
use crate::pool;
use crate::tree::{FlatTree, GROUP};
use core::hint::select_unpredictable;
use std::sync::{Mutex, TryLockError};

/// The leaf every tree of an ensemble sends every row of one matrix to:
/// `u16` node indices, tree-major (`tree * n_rows + row`), 2 bytes per
/// (row, tree). Alongside it, per tree, the internal nodes grouped by
/// the feature they test, and the memo of the last one-driver view's
/// leaves, same shape as the table.
///
/// Built by [`Predictor::leaf_table`] and only meaningful to the model
/// that built it, for overlays of the matrix it was built from
/// ([`Predictor::predict_delta`]).
///
/// [`Predictor::leaf_table`]: crate::model::Predictor::leaf_table
/// [`Predictor::predict_delta`]: crate::model::Predictor::predict_delta
#[derive(Debug)]
pub struct LeafTable {
    leaves: Vec<u16>,
    n_rows: usize,
    n_trees: usize,
    n_features: usize,
    /// Per tree, its internal nodes grouped by the feature they test
    /// (feature 0's group first), each group in pre-order.
    tests: Vec<u16>,
    /// Tree `t`'s feature-`f` group is `tests[offsets[k]..offsets[k + 1]]`
    /// with `k = t * n_features + f`.
    offsets: Vec<u32>,
    /// Taken with `try_lock`: a view that finds it held runs without it.
    memo: Mutex<Memo>,
}

/// The leaves of the model's last one-driver view that held the memo.
///
/// Every entry read is a leaf its row reaches when only `driver` moves:
/// refilled from the table when the driver changes (for the trees that
/// test it; no other tree's entries are read), then overwritten by each
/// walked pair. So a memo leaf whose interval holds a view's moved
/// value is exactly the leaf that row's walk reaches.
#[derive(Debug, Default)]
struct Memo {
    /// The driver `leaves` holds leaves for; `None` before the first
    /// view, and while a view updates `leaves`, so one that unwinds half
    /// way leaves the next a full reset.
    driver: Option<usize>,
    /// Tree-major like the table's; allocated by the first view.
    leaves: Vec<u16>,
}

impl LeafTable {
    /// The most nodes a tree may have for its node indices to fit a
    /// `u16`. An ensemble with a larger tree gets no table.
    pub const MAX_TREE_NODES: usize = 1 << 16;

    /// Walk every row of `x` down every tree, trees split across up to
    /// `n_threads` workers, and index each tree's tests by feature.
    /// `None` for an empty ensemble or matrix, a width mismatch, or a
    /// tree over [`Self::MAX_TREE_NODES`] nodes.
    pub(crate) fn build(trees: &[&FlatTree], x: &Matrix, n_threads: usize) -> Option<LeafTable> {
        let n = x.n_rows();
        let first = trees.first()?;
        let n_features = first.n_features();
        let n_nodes: usize = trees.iter().map(|t| t.n_nodes()).sum();
        if n == 0
            || x.n_cols() != n_features
            || trees.iter().any(|t| t.n_nodes() > Self::MAX_TREE_NODES)
            || u32::try_from(n_nodes).is_err()
        {
            return None;
        }
        let mut leaves = vec![0u16; trees.len() * n];
        let per = trees
            .len()
            .div_ceil(batch_threads(n_threads, trees.len(), n));
        pool::for_each(
            trees.chunks(per).zip(leaves.chunks_mut(per * n)),
            |(trees, out)| {
                for (tree, out) in trees.iter().zip(out.chunks_mut(n)) {
                    tree.leaves_into(x, out);
                }
            },
        );
        let mut tests = Vec::with_capacity(n_nodes / 2);
        let mut offsets = Vec::with_capacity(trees.len() * n_features + 1);
        offsets.push(0);
        for tree in trees {
            tree.index_tests(&mut tests, &mut offsets);
        }
        Some(LeafTable {
            leaves,
            n_rows: n,
            n_trees: trees.len(),
            n_features,
            tests,
            offsets,
            memo: Mutex::default(),
        })
    }

    /// Rows of the matrix the table was built from.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Trees of the model that built it.
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// Bytes a table holds once its memo is in use, for `n_rows` rows
    /// of an ensemble of `n_trees` trees with `n_nodes` nodes in all
    /// over `n_features` features: the leaves and the memo, 2 B per
    /// (row, tree) each, and the feature index, 2 B per internal node
    /// (`(n_nodes − n_trees) / 2` of them) plus a 4 B offset per (tree,
    /// feature) and one more. What the model store charges up front.
    pub fn bytes_for(n_rows: usize, n_trees: usize, n_nodes: usize, n_features: usize) -> usize {
        let leaves = n_rows.saturating_mul(n_trees).saturating_mul(2);
        let offsets = n_trees.saturating_mul(n_features).saturating_add(1);
        leaves
            .saturating_mul(2)
            .saturating_add(n_nodes.saturating_sub(n_trees))
            .saturating_add(offsets.saturating_mul(4))
    }

    /// Bytes this table holds once its memo is in use (what
    /// [`Self::bytes_for`] charges for its shape).
    pub fn heap_bytes(&self) -> usize {
        4 * self.leaves.len() + 2 * self.tests.len() + 4 * self.offsets.len()
    }

    /// Tree `tree`'s internal nodes that test feature `j`, in pre-order.
    fn tests_of(&self, tree: usize, j: usize) -> &[u16] {
        let k = tree * self.n_features + j;
        &self.tests[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }
}

/// The one overridden column of `x` and its values, when there is
/// exactly one.
fn single_column<'o>(x: &'o ColumnOverlay<'_>) -> Option<(usize, &'o [f64])> {
    if x.n_overridden() != 1 {
        return None;
    }
    (0..x.n_cols()).find_map(|j| x.col_override(j).map(|col| (j, col)))
}

/// `Predictor::predict_delta` for every tree ensemble. `finalize` maps
/// a row's leaf sum to its score, as in [`predict_batch_flats`], which
/// scores any `x` that does not replace exactly one column of a matrix
/// of `table`'s shape. The view uses the table's memo unless another
/// view holds it.
pub(crate) fn predict_delta_flats(
    trees: &[&FlatTree],
    n_threads: usize,
    table: &LeafTable,
    x: &ColumnOverlay<'_>,
    out: &mut [f64],
    finalize: impl Fn(f64) -> f64 + Sync,
) -> Result<(), LearnError> {
    let Some(view) = Moved::of(trees, table, x) else {
        return predict_batch_flats(trees, n_threads, MatrixView::Overlay(x), out, finalize);
    };
    check_batch_shape(trees[0].n_features(), &MatrixView::Overlay(x), out)?;
    // A view that unwound while holding the memo cleared its driver, so
    // the poison guards nothing stale.
    let mut memo = match table.memo.try_lock() {
        Ok(memo) => Some(memo),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    };
    view.score(n_threads, out, finalize, memo.as_deref_mut());
    Ok(())
}

/// A view that moves column `j` of the matrix a [`LeafTable`] was built
/// from to `moved`, on the trees that built it.
struct Moved<'a> {
    trees: &'a [&'a FlatTree],
    table: &'a LeafTable,
    base: &'a Matrix,
    j: usize,
    moved: &'a [f64],
}

impl<'a> Moved<'a> {
    /// `x` as such a view, when it replaces exactly one column of a
    /// matrix of `table`'s shape. A built table never has zero trees,
    /// so a match implies `trees[0]`.
    fn of(
        trees: &'a [&'a FlatTree],
        table: &'a LeafTable,
        x: &'a ColumnOverlay<'a>,
    ) -> Option<Moved<'a>> {
        let (j, moved) = single_column(x)?;
        (table.n_rows == x.n_rows() && table.n_trees == trees.len()).then_some(Moved {
            trees,
            table,
            base: x.base(),
            j,
            moved,
        })
    }

    /// Score every row into `out`, in contiguous row chunks on the pool
    /// under the full kernel's worker rule, each chunk with its share
    /// of the memo's rows when the view holds it.
    fn score(
        &self,
        n_threads: usize,
        out: &mut [f64],
        finalize: impl Fn(f64) -> f64 + Sync,
        memo: Option<&mut Memo>,
    ) {
        let n = self.table.n_rows;
        let chunk_len = row_chunk_len(n_threads, n, self.trees.len());
        // Each chunk's memo rows, one slice per tree; none without it.
        let mut parts: Vec<Vec<&mut [u16]>> = out.chunks(chunk_len).map(|_| Vec::new()).collect();
        let (tag, reset) = match memo {
            Some(Memo { driver, leaves }) => {
                let fresh = leaves.len() != self.table.leaves.len();
                if fresh {
                    *leaves = vec![0; self.table.leaves.len()];
                }
                let reset = fresh || *driver != Some(self.j);
                *driver = None;
                for tree_rows in leaves.chunks_mut(n) {
                    for (part, rows) in parts.iter_mut().zip(tree_rows.chunks_mut(chunk_len)) {
                        part.push(rows);
                    }
                }
                (Some(driver), reset)
            }
            None => (None, false),
        };
        let chunks = out.chunks_mut(chunk_len).zip(parts).enumerate();
        pool::for_each(chunks, |(k, (acc, memo))| {
            self.score_rows(k * chunk_len, acc, memo, reset);
            for slot in acc.iter_mut() {
                *slot = finalize(*slot);
            }
        });
        if let Some(driver) = tag {
            *driver = Some(self.j);
        }
    }

    /// Leaf sums of the rows `start..start + acc.len()` into `acc`.
    /// `memo` is empty, or holds these rows' memo leaves, one slice per
    /// tree; `reset` refills them from the table first.
    ///
    /// Per tree, in order: a tree with no test of `j` keeps every table
    /// leaf. Otherwise the tree's intervals on `j` come from its index;
    /// each row keeps its table leaf when the moved value lies in that
    /// leaf's interval, else its memo leaf when the value lies in that
    /// one's, and is listed otherwise (a branch-free compaction); the
    /// listed rows walk from the root, four at a time, and their leaves
    /// go into the memo; finally every row's leaf value joins its sum.
    fn score_rows(&self, start: usize, acc: &mut [f64], memo: Vec<&mut [u16]>, reset: bool) {
        let len = acc.len();
        let (n, p, j) = (self.table.n_rows, self.base.n_cols(), self.j);
        let moved = &self.moved[start..start + len];
        // The chunk's rows with the moved cell patched in, gathered once.
        let mut rows = self.base.data()[start * p..(start + len) * p].to_vec();
        for (row, &v) in rows.chunks_exact_mut(p).zip(moved) {
            row[j] = v;
        }
        let row = |r: u32| &rows[r as usize * p..(r as usize + 1) * p];
        let max_nodes = self.trees.iter().map(|t| t.n_nodes()).max().unwrap_or(0);
        let (mut lo, mut hi) = (vec![0.0; max_nodes], vec![0.0; max_nodes]);
        let mut leaf = vec![0u16; len];
        let mut walk = vec![0u32; len];
        let mut memo = memo.into_iter();
        acc.fill(0.0);
        for (t, tree) in self.trees.iter().enumerate() {
            let table_leaves = &self.table.leaves[t * n + start..t * n + start + len];
            let mut memo_leaves = memo.next();
            let tests = self.table.tests_of(t, j);
            if tests.is_empty() {
                // No move of `j` changes a leaf here, and the memo is
                // never read for this tree while it holds `j`.
                for (sum, &l) in acc.iter_mut().zip(table_leaves) {
                    *sum += tree.leaf_value(usize::from(l));
                }
                continue;
            }
            tree.intervals(tests, &mut lo, &mut hi);
            if let Some(memo_leaves) = memo_leaves.as_deref_mut().filter(|_| reset) {
                memo_leaves.copy_from_slice(table_leaves);
            }
            // Without the memo the table stands in for it, and the
            // second check repeats the first.
            let second = memo_leaves.as_deref().unwrap_or(table_leaves);
            let holds = |l: u16, v: f64| {
                let l = usize::from(l);
                (lo[l] < v) & (v <= hi[l])
            };
            let mut n_walk = 0;
            for (r, (((&l, &m), &v), slot)) in table_leaves
                .iter()
                .zip(second)
                .zip(moved)
                .zip(leaf.iter_mut())
                .enumerate()
            {
                let (in_table, in_memo) = (holds(l, v), holds(m, v));
                *slot = select_unpredictable(in_table, l, m);
                walk[n_walk] = r as u32;
                n_walk += usize::from(!(in_table | in_memo));
            }
            let walked = &walk[..n_walk];
            let full = n_walk - n_walk % GROUP;
            for group in walked[..full].chunks_exact(GROUP) {
                let leaves =
                    tree.leaves_of([row(group[0]), row(group[1]), row(group[2]), row(group[3])]);
                for (&r, l) in group.iter().zip(leaves) {
                    leaf[r as usize] = l as u16;
                }
            }
            for &r in &walked[full..] {
                leaf[r as usize] = tree.leaf_of(row(r)) as u16;
            }
            if let Some(memo_leaves) = memo_leaves {
                for &r in walked {
                    memo_leaves[r as usize] = leaf[r as usize];
                }
            }
            for (sum, &l) in acc.iter_mut().zip(&leaf) {
                *sum += tree.leaf_value(usize::from(l));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{ForestConfig, RandomForestClassifier, RandomForestRegressor};
    use crate::model::{Classifier, Predictor, Regressor};
    use crate::tree::{leaf_meta, DecisionTreeRegressor, TreeConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Barrier;

    /// A right-leaning caterpillar on feature `j`: internal node `k`
    /// sends `x <= thresholds[k]` to a leaf worth `k` and everything
    /// else on to the next internal node; the last right child is a
    /// leaf worth `thresholds.len()`.
    fn caterpillar(j: usize, p: usize, thresholds: &[f64]) -> FlatTree {
        let mut meta = Vec::new();
        let mut thresh = Vec::new();
        for (k, &t) in thresholds.iter().enumerate() {
            let i = meta.len() as u64;
            meta.push(((i + 2) << 32) | j as u64);
            thresh.push(t);
            meta.push(leaf_meta(i as u32 + 1));
            thresh.push(k as f64);
        }
        meta.push(leaf_meta(meta.len() as u32));
        thresh.push(thresholds.len() as f64);
        FlatTree::from_parts(meta, thresh, p, vec![0.0; p], thresholds.len())
    }

    /// Delta and full kernel agree bit for bit on `x` with column `j`
    /// replaced by `moved`, and return the full kernel's scores.
    fn agree(trees: &[&FlatTree], x: &Matrix, j: usize, moved: Vec<f64>) -> Vec<f64> {
        let table = LeafTable::build(trees, x, 1).unwrap();
        let mut overlay = ColumnOverlay::new(x);
        overlay.set_col(j, moved).unwrap();
        let mut full = vec![0.0; x.n_rows()];
        let mut delta = vec![0.0; x.n_rows()];
        predict_batch_flats(trees, 1, (&overlay).into(), &mut full, |s| s).unwrap();
        predict_delta_flats(trees, 1, &table, &overlay, &mut delta, |s| s).unwrap();
        for (i, (a, b)) in full.iter().zip(&delta).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}: full {a}, delta {b}");
        }
        full
    }

    #[test]
    fn moves_onto_thresholds_signed_zeros_infinities_and_nan_route_like_the_walk() {
        // Thresholds include 0.0, so ±0 moves land exactly on one.
        let thresholds = [-2.0, -0.5, 0.0, 0.75, 3.0];
        let tree = caterpillar(1, 2, &thresholds);
        let base: Vec<f64> = vec![-3.0, -1.0, -0.25, 0.5, 1.0, 5.0, -0.0, 0.0];
        let rows: Vec<Vec<f64>> = base.iter().map(|&v| vec![7.0, v]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -2.0,
            -0.5,
            0.75,
            3.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        for &v in &specials {
            let got = agree(&[&tree], &x, 1, vec![v; x.n_rows()]);
            // Cross-check against the walk's own `<=`: the first
            // threshold `v` is at or below.
            let want = thresholds
                .iter()
                .position(|&t| v <= t)
                .unwrap_or(thresholds.len()) as f64;
            assert!(got.iter().all(|&s| s.to_bits() == want.to_bits()), "{v}");
        }
        // Each row moved onto every threshold in turn, and rows moved
        // by a shift that keeps some on their leaf and sends others off.
        for &t in &thresholds {
            agree(&[&tree], &x, 1, vec![t; x.n_rows()]);
        }
        agree(&[&tree], &x, 1, base.iter().map(|v| v + 0.3).collect());
        // Moving the column no node tests keeps every leaf.
        agree(&[&tree], &x, 0, vec![f64::NAN; x.n_rows()]);
    }

    #[test]
    fn a_nan_threshold_on_the_moved_column_walks_and_still_agrees() {
        // `x <= NaN` is false for every x, so every row goes right at
        // the NaN test; the leaves below it always walk.
        let tree = caterpillar(0, 1, &[f64::NAN, 1.0, 2.0]);
        let x = Matrix::from_rows(&[vec![0.5], vec![1.5], vec![2.5], vec![-4.0]]).unwrap();
        for v in [0.0, 1.0, 1.5, 2.0, 9.0, f64::NAN, f64::NEG_INFINITY] {
            agree(&[&tree], &x, 0, vec![v; 4]);
        }
    }

    #[test]
    fn forests_agree_on_random_moves_at_any_thread_count() {
        let mut rng = StdRng::seed_from_u64(5);
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|_| {
                (0..3)
                    .map(|_| f64::from(rng.gen_range(0..40u32)) / 4.0)
                    .collect()
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let labels: Vec<u8> = rows.iter().map(|r| u8::from(r[0] + r[1] > 9.0)).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[2] - r[1]).collect();
        for n_threads in [1, 2, usize::MAX] {
            let config = ForestConfig {
                n_trees: 40,
                tree: TreeConfig {
                    max_depth: 16,
                    ..TreeConfig::default()
                },
                seed: 3,
                n_threads,
                ..ForestConfig::default()
            };
            let mut c = RandomForestClassifier::new(config.clone());
            c.fit(&x, &labels).unwrap();
            let mut r = RandomForestRegressor::new(config);
            r.fit(&x, &y).unwrap();
            let models: [&dyn Predictor; 2] = [&c, &r];
            for model in models {
                let table = model.leaf_table(&x).unwrap();
                assert_eq!((table.n_rows(), table.n_trees()), (300, 40));
                for j in 0..3 {
                    // Grid steps of 1/8 hit the midpoint thresholds.
                    let moved: Vec<f64> = (0..300)
                        .map(|i| match i % 7 {
                            0 => f64::NAN,
                            1 => f64::from(rng.gen_range(-4..90i32)) / 8.0,
                            2 => -0.0,
                            _ => x.get(i, j) * 1.2,
                        })
                        .collect();
                    let mut overlay = ColumnOverlay::new(&x);
                    overlay.set_col(j, moved).unwrap();
                    let mut full = vec![0.0; 300];
                    let mut delta = vec![0.0; 300];
                    model.predict_batch((&overlay).into(), &mut full).unwrap();
                    model.predict_delta(&table, &overlay, &mut delta).unwrap();
                    assert!(full
                        .iter()
                        .zip(&delta)
                        .all(|(a, b)| a.to_bits() == b.to_bits()));
                }
            }
        }
    }

    #[test]
    fn other_views_and_mismatched_tables_fall_back_to_the_full_kernel() {
        let tree = caterpillar(0, 2, &[1.0, 2.0]);
        let x = Matrix::from_rows(&[vec![0.5, 0.0], vec![1.5, 0.0], vec![9.0, 0.0]]).unwrap();
        let table = LeafTable::build(&[&tree], &x, 1).unwrap();
        let score = |o: &ColumnOverlay<'_>, table: &LeafTable| {
            let mut out = vec![0.0; o.n_rows()];
            predict_delta_flats(&[&tree], 1, table, o, &mut out, |s| s).unwrap();
            out
        };
        // Two moved columns: the full kernel scores them.
        let mut two = ColumnOverlay::new(&x);
        two.set_col(0, vec![1.5, 9.0, 0.5]).unwrap();
        two.set_col(1, vec![1.0; 3]).unwrap();
        assert_eq!(score(&two, &table), vec![1.0, 2.0, 0.0]);
        // A table of another height is ignored.
        let short = Matrix::from_rows(&[vec![0.5, 0.0]]).unwrap();
        let other = LeafTable::build(&[&tree], &short, 1).unwrap();
        let mut one = ColumnOverlay::new(&x);
        one.set_col(0, vec![1.5, 9.0, 0.5]).unwrap();
        assert_eq!(score(&one, &other), score(&one, &table));
        // No table for an empty matrix, a width mismatch, or no trees.
        assert!(LeafTable::build(&[&tree], &Matrix::zeros(0, 2), 1).is_none());
        assert!(LeafTable::build(&[&tree], &Matrix::zeros(3, 1), 1).is_none());
        assert!(LeafTable::build(&[], &x, 1).is_none());
    }

    #[test]
    fn a_tree_too_large_for_u16_indices_gets_no_table() {
        let x = Matrix::from_rows(&[vec![0.0]]).unwrap();
        // 2k + 1 nodes for k thresholds.
        let fits: Vec<f64> = (0..(LeafTable::MAX_TREE_NODES - 1) / 2)
            .map(|k| k as f64)
            .collect();
        let too_big: Vec<f64> = (0..LeafTable::MAX_TREE_NODES / 2)
            .map(|k| k as f64)
            .collect();
        let small = caterpillar(0, 1, &fits);
        let large = caterpillar(0, 1, &too_big);
        assert_eq!(small.n_nodes(), LeafTable::MAX_TREE_NODES - 1);
        assert_eq!(large.n_nodes(), LeafTable::MAX_TREE_NODES + 1);
        assert!(LeafTable::build(&[&small], &x, 1).is_some());
        assert!(LeafTable::build(&[&small, &large], &x, 1).is_none());
    }

    #[test]
    fn a_view_without_the_memo_runs_beside_one_that_holds_it() {
        let mut rng = StdRng::seed_from_u64(9);
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|_| {
                (0..3)
                    .map(|_| f64::from(rng.gen_range(0..64u32)) / 8.0)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[1] - r[2]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let fitted: Vec<DecisionTreeRegressor> = (0..12)
            .map(|seed| {
                let mut t = DecisionTreeRegressor::new(TreeConfig {
                    max_depth: 12,
                    max_features: Some(2),
                    seed,
                    ..TreeConfig::default()
                });
                let sample: Vec<usize> = (0..400).map(|_| rng.gen_range(0..400)).collect();
                t.fit_on_sample(&x, &y, &sample).unwrap();
                t
            })
            .collect();
        let trees: Vec<&FlatTree> = fitted.iter().filter_map(|t| t.flat()).collect();
        let table = LeafTable::build(&trees, &x, 2).unwrap();
        let overlay = |j: usize, pct: f64| {
            let mut o = ColumnOverlay::new(&x);
            o.map_col(j, |v| v * (1.0 + pct)).unwrap();
            o
        };
        let full = |o: &ColumnOverlay<'_>| {
            let mut out = vec![0.0; 400];
            predict_batch_flats(&trees, 2, o.into(), &mut out, |s| s).unwrap();
            out
        };
        let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits());
        let drag = [-0.5, -0.3, -0.1, 0.0, 0.2, 0.4, 0.8, 1.2];
        // Each thread records which of its views matched, and both
        // always reach `done`, so a mismatch fails below, never hangs.
        let (start, done) = (Barrier::new(2), Barrier::new(2));
        let (held, other) = std::thread::scope(|s| {
            // Holds the memo across its whole drag on driver 0.
            let held = s.spawn(|| {
                let mut memo = table.memo.lock().unwrap();
                start.wait();
                let matched: Vec<bool> = drag
                    .iter()
                    .map(|&pct| {
                        let o = overlay(0, pct);
                        let view = Moved::of(&trees, &table, &o).unwrap();
                        let mut out = vec![0.0; 400];
                        view.score(2, &mut out, |s| s, Some(&mut memo));
                        same(&out, &full(&o))
                    })
                    .collect();
                done.wait();
                matched
            });
            // Drags driver 1 meanwhile and finds the memo taken.
            let other = s.spawn(|| {
                start.wait();
                let taken = matches!(table.memo.try_lock(), Err(TryLockError::WouldBlock));
                let matched: Vec<bool> = drag
                    .iter()
                    .map(|&pct| {
                        let o = overlay(1, pct);
                        let mut out = vec![0.0; 400];
                        predict_delta_flats(&trees, 2, &table, &o, &mut out, |s| s).unwrap();
                        same(&out, &full(&o))
                    })
                    .collect();
                done.wait();
                (taken, matched)
            });
            (held.join().unwrap(), other.join().unwrap())
        });
        assert_eq!(held, vec![true; drag.len()], "views holding the memo");
        assert!(other.0, "the second view found the memo free");
        assert_eq!(other.1, vec![true; drag.len()], "views without the memo");
        // The memo holds the holder's drag, which the next view on
        // driver 0 reuses, and a switch to driver 1 resets it.
        assert_eq!(table.memo.lock().unwrap().driver, Some(0));
        for (j, pct) in [(0, 1.0), (1, 0.3), (0, -0.2)] {
            let o = overlay(j, pct);
            let mut out = vec![0.0; 400];
            predict_delta_flats(&trees, 2, &table, &o, &mut out, |s| s).unwrap();
            assert!(same(&out, &full(&o)));
            assert_eq!(table.memo.lock().unwrap().driver, Some(j));
        }
    }
}
