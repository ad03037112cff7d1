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
//! the leaf's interval on the moved column (`FlatTree::leaf_intervals`).
//! Only the other pairs walk from the root, four at a time, through the
//! same group walk as the full kernel.
//!
//! Each row still gains exactly one leaf value per tree, in tree order —
//! the leaf the full kernel reaches — and finalizes once, so the result
//! is bit-identical to [`Predictor::predict_batch`] at any thread count.
//! `docs/FOREST.md` ("Delta prediction") has the argument and the
//! numbers.
//!
//! [`Predictor::predict_batch`]: crate::model::Predictor::predict_batch

use crate::forest::{batch_threads, for_row_chunks, predict_batch_flats};
use crate::linalg::Matrix;
use crate::model::{check_batch_shape, LearnError, MatrixView};
use crate::overlay::ColumnOverlay;
use crate::tree::{group_rows, FlatTree, GROUP};

/// The leaf every tree of an ensemble sends every row of one matrix to:
/// `u16` node indices, tree-major (`tree * n_rows + row`), 2 bytes per
/// (row, tree).
///
/// Built by [`Predictor::leaf_table`] and only meaningful to the model
/// that built it, for overlays of the matrix it was built from
/// ([`Predictor::predict_delta`]).
///
/// [`Predictor::leaf_table`]: crate::model::Predictor::leaf_table
/// [`Predictor::predict_delta`]: crate::model::Predictor::predict_delta
#[derive(Debug, Clone)]
pub struct LeafTable {
    leaves: Vec<u16>,
    n_rows: usize,
    n_trees: usize,
}

impl LeafTable {
    /// The most nodes a tree may have for its node indices to fit a
    /// `u16`. An ensemble with a larger tree gets no table.
    pub const MAX_TREE_NODES: usize = 1 << 16;

    /// Walk every row of `x` down every tree, trees split across up to
    /// `n_threads` workers. `None` for an empty ensemble or matrix, a
    /// width mismatch, or a tree over [`Self::MAX_TREE_NODES`] nodes.
    pub(crate) fn build(trees: &[&FlatTree], x: &Matrix, n_threads: usize) -> Option<LeafTable> {
        let n = x.n_rows();
        let first = trees.first()?;
        if n == 0
            || x.n_cols() != first.n_features()
            || trees.iter().any(|t| t.n_nodes() > Self::MAX_TREE_NODES)
        {
            return None;
        }
        let mut leaves = vec![0u16; trees.len() * n];
        let fill = |trees: &[&FlatTree], out: &mut [u16]| {
            for (tree, out) in trees.iter().zip(out.chunks_mut(n)) {
                tree.leaves_into(x, out);
            }
        };
        let threads = batch_threads(n_threads, trees.len(), n);
        if threads == 1 {
            fill(trees, &mut leaves);
        } else {
            let per = trees.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for (trees, out) in trees.chunks(per).zip(leaves.chunks_mut(per * n)) {
                    let fill = &fill;
                    scope.spawn(move || fill(trees, out));
                }
            });
        }
        Some(LeafTable {
            leaves,
            n_rows: n,
            n_trees: trees.len(),
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
/// of `table`'s shape.
///
/// Each worker takes a contiguous chunk of rows and, per tree in order:
/// computes the tree's leaf intervals on the moved column; keeps each
/// row's table leaf when the moved value lies in that leaf's interval
/// and lists the row otherwise (a branch-free compaction); walks the
/// listed rows from the root, four at a time, each gathered from the
/// base row with the moved cell patched in; and finally adds every
/// row's leaf value to its sum.
pub(crate) fn predict_delta_flats(
    trees: &[&FlatTree],
    n_threads: usize,
    table: &LeafTable,
    x: &ColumnOverlay<'_>,
    out: &mut [f64],
    finalize: impl Fn(f64) -> f64 + Sync,
) -> Result<(), LearnError> {
    // A built table never has zero trees, so a match implies `trees[0]`.
    let one_column =
        single_column(x).filter(|_| table.n_rows == x.n_rows() && table.n_trees == trees.len());
    let Some((j, moved)) = one_column else {
        return predict_batch_flats(trees, n_threads, MatrixView::Overlay(x), out, finalize);
    };
    check_batch_shape(trees[0].n_features(), &MatrixView::Overlay(x), out)?;
    let n = table.n_rows;
    let p = x.n_cols();
    let base = x.base();
    let max_nodes = trees.iter().map(|t| t.n_nodes()).max().unwrap_or(0);
    let score_rows = |start: usize, acc: &mut [f64]| {
        let len = acc.len();
        let moved = &moved[start..start + len];
        let mut iv = vec![(0.0, 0.0); max_nodes];
        let mut stack = Vec::new();
        let mut leaf = vec![0u16; len];
        let mut walk = vec![0u32; len];
        let mut rows = vec![0.0; GROUP * p];
        let gather = |rows: &mut [f64], r: usize| {
            rows.copy_from_slice(base.row(start + r));
            rows[j] = moved[r];
        };
        acc.fill(0.0);
        for (t, tree) in trees.iter().enumerate() {
            tree.leaf_intervals(j, &mut iv, &mut stack);
            let table_leaves = &table.leaves[t * n + start..t * n + start + len];
            let mut n_walk = 0;
            for (r, ((&l, &v), slot)) in table_leaves
                .iter()
                .zip(moved)
                .zip(leaf.iter_mut())
                .enumerate()
            {
                let (lo, hi) = iv[usize::from(l)];
                *slot = l;
                walk[n_walk] = r as u32;
                n_walk += usize::from(!((lo < v) & (v <= hi)));
            }
            let walked = &walk[..n_walk];
            let full = n_walk - n_walk % GROUP;
            for group in walked[..full].chunks_exact(GROUP) {
                for (g, &r) in group.iter().enumerate() {
                    gather(&mut rows[g * p..(g + 1) * p], r as usize);
                }
                let leaves = tree.leaves_of(group_rows(&rows, p));
                for (&r, l) in group.iter().zip(leaves) {
                    leaf[r as usize] = l as u16;
                }
            }
            for &r in &walked[full..] {
                gather(&mut rows[..p], r as usize);
                leaf[r as usize] = tree.leaf_of(&rows[..p]) as u16;
            }
            for (sum, &l) in acc.iter_mut().zip(&leaf) {
                *sum += tree.leaf_value(usize::from(l));
            }
        }
        for slot in acc.iter_mut() {
            *slot = finalize(*slot);
        }
    };
    for_row_chunks(n_threads, trees.len(), out, score_rows);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{ForestConfig, RandomForestClassifier, RandomForestRegressor};
    use crate::model::{Classifier, Predictor, Regressor};
    use crate::tree::{leaf_meta, TreeConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
}
