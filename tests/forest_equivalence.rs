//! Equivalence suite for the forest hot-path overhaul: the presorted
//! trainer and the tree-major flattened predictor must be
//! **bit-identical** to the seed implementations (per-node
//! gather-and-sort training, row-major per-row prediction), which are
//! retained as `fit_reference` / `fit_on_sample_reference` /
//! `predict_batch_rowmajor`. Identity is pinned across random data
//! (including duplicate-heavy quantized features that stress the
//! tie-order replay), random tree/forest configurations, and thread
//! counts — covering predictions, depths, importances, and OOB scores.

use proptest::prelude::*;
use whatif::core::kpi::KpiKind;
use whatif::core::model_backend::{ModelConfig, ModelKind, TrainedModel};
use whatif::learn::forest::ForestConfig;
use whatif::learn::tree::{DecisionTreeClassifier, DecisionTreeRegressor, Trainer, TreeConfig};
use whatif::learn::{
    Classifier as _, ColumnOverlay, GbdtClassifier, GbdtConfig, GbdtRegressor, LearnError, Matrix,
    MatrixView, Predictor, RandomForestClassifier, RandomForestRegressor, Regressor as _,
};

const FEATURES: usize = 4;

/// Deterministically expand a compact seed into a training set.
/// `quantize` controls value granularity: small moduli produce heavy
/// duplicate runs (bootstrap duplicates on top), which is exactly what
/// stresses the presorted trainer's tie-order bucketing.
fn training_data(seed: u64, n_rows: usize, quantize: u64) -> (Matrix, Vec<u8>, Vec<f64>) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % quantize) as f64 / 4.0
    };
    let rows: Vec<Vec<f64>> = (0..n_rows)
        .map(|_| (0..FEATURES).map(|_| next()).collect())
        .collect();
    let labels: Vec<u8> = rows
        .iter()
        .map(|r| u8::from(r[0] + 0.5 * r[1] - 0.25 * r[2] + 0.01 * next() > quantize as f64 / 6.0))
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| 2.0 * r[0] - 1.5 * r[1] + 0.25 * r[3] + 0.05 * next())
        .collect();
    (Matrix::from_rows(&rows).unwrap(), labels, y)
}

fn tree_config(
    max_depth: usize,
    min_leaf: usize,
    max_features: Option<usize>,
    seed: u64,
) -> TreeConfig {
    TreeConfig {
        max_depth,
        min_samples_leaf: min_leaf,
        max_features,
        seed,
        ..TreeConfig::default()
    }
}

/// Probe rows off the training support (shifted/scaled), so prediction
/// equivalence is checked beyond the training matrix.
fn probe_rows(x: &Matrix) -> Vec<Vec<f64>> {
    (0..x.n_rows().min(16))
        .map(|i| {
            x.row(i)
                .iter()
                .enumerate()
                .map(|(j, &v)| v * 1.1 + j as f64 * 0.3 - 0.7)
                .collect()
        })
        .collect()
}

/// The seed row-major batch path of a forest.
type RowMajor<'a> = &'a dyn Fn(MatrixView<'_>, &mut [f64]) -> Result<(), LearnError>;

/// Batch prediction == the seed row-major path (when the family has
/// one) == per-row prediction, bit for bit, on the dense matrix, on an
/// overlay scaling column 1 by `1 + pct`, and on an overlay whose
/// column 0 holds ±inf cells and NaN cells (an analyst's −100 % move of
/// an infinite cell) among scaled ones: such cells must route exactly
/// like the seed's `if x <= t` walk.
fn batch_paths_agree<P: Predictor>(
    model: &P,
    row_major: Option<RowMajor<'_>>,
    x: &Matrix,
    pct: f64,
) {
    let n = x.n_rows();
    let moved = |v: f64, pct: f64| v * (1.0 + pct);
    let mut scaled = ColumnOverlay::new(x);
    scaled.map_col(1, |v| moved(v, pct)).unwrap();
    let mut extreme = ColumnOverlay::new(x);
    let cells = (0..n)
        .map(|i| match i % 5 {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => moved(f64::INFINITY, -1.0),
            _ => moved(x.get(i, 0), pct),
        })
        .collect();
    extreme.set_col(0, cells).unwrap();
    assert!(extreme.get(2, 0).is_nan());

    let views = [
        (MatrixView::Dense(x), x.clone()),
        (MatrixView::Overlay(&scaled), scaled.to_matrix()),
        (MatrixView::Overlay(&extreme), extreme.to_matrix()),
    ];
    for (view, reference) in views {
        let mut batch = vec![0.0; n];
        model.predict_batch(view, &mut batch).unwrap();
        if let Some(row_major) = row_major {
            let mut seed_path = vec![0.0; n];
            row_major(view, &mut seed_path).unwrap();
            for (i, (a, b)) in batch.iter().zip(&seed_path).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
        }
        for (i, a) in batch.iter().enumerate() {
            let per_row = model.predict_row(reference.row(i)).unwrap();
            assert_eq!(a.to_bits(), per_row.to_bits(), "row {i}");
        }
    }
}

/// [`training_data`] with column 3 shifted down by an odd number of
/// eighths, so it straddles zero and a split between its values −1/8
/// and +1/8 has a threshold of exactly 0.0, which ±0 moves land on.
fn training_data_with_zero_split(seed: u64, n_rows: usize) -> (Matrix, Vec<u8>, Vec<f64>) {
    let (x, labels, y) = training_data(seed, n_rows, 101);
    let rows: Vec<Vec<f64>> = (0..x.n_rows())
        .map(|i| {
            let mut row = x.row(i).to_vec();
            row[3] -= 101.0 / 8.0;
            row
        })
        .collect();
    (Matrix::from_rows(&rows).unwrap(), labels, y)
}

/// Every kind of one-column move an analyst's view can produce, each as
/// a replacement for column `j`: scaled by `1 + pct`, shifted by `pct`,
/// a 0 % move (the base values), a −100 % move (±0 cells), and a mix of
/// NaN, ±∞, ±0 and cells on the 1/8 grid, where the exact and binned
/// tiers put their split thresholds (midpoints of adjacent quarters).
fn one_column_moves(x: &Matrix, j: usize, pct: f64, seed: u64) -> Vec<Vec<f64>> {
    let base: Vec<f64> = (0..x.n_rows()).map(|i| x.get(i, j)).collect();
    let mut state = seed | 1;
    let mixed = base
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let grid = (state % 240) as f64 / 8.0 - 14.0;
            match i % 8 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5 | 6 => grid,
                _ => v * (1.0 + pct),
            }
        })
        .collect();
    let scaled = |by: f64| base.iter().map(|v| v * (1.0 + by)).collect();
    vec![
        scaled(pct),
        base.iter().map(|v| v + pct).collect(),
        scaled(0.0),
        scaled(-1.0),
        mixed,
    ]
}

/// [`Predictor::predict_delta`] on each of [`one_column_moves`] equals
/// [`Predictor::predict_batch`] on the same overlay, row by row.
fn delta_agrees_with_full_kernel(model: &dyn Predictor, x: &Matrix, j: usize, pct: f64, seed: u64) {
    let table = model.leaf_table(x).expect("tree ensembles build a table");
    assert_eq!(table.n_rows(), x.n_rows());
    for moved in one_column_moves(x, j, pct, seed) {
        let mut overlay = ColumnOverlay::new(x);
        overlay.set_col(j, moved).unwrap();
        let mut full = vec![0.0; x.n_rows()];
        let mut delta = vec![0.0; x.n_rows()];
        model.predict_batch((&overlay).into(), &mut full).unwrap();
        model.predict_delta(&table, &overlay, &mut delta).unwrap();
        for (i, (a, b)) in full.iter().zip(&delta).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}: full {a}, delta {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    // Single trees: presorted == reference on depth, importances, and
    // every prediction, for both criteria, across configs and
    // bootstrap-style samples with duplicates.
    #[test]
    fn tree_presorted_equals_reference(
        seed in 0u64..1000,
        n_rows in 12usize..70,
        quantize_flag in 0usize..3,
        max_depth in 2usize..9,
        min_leaf in 1usize..4,
        feat_flag in 0usize..3,
        dup_stride in 1usize..5,
    ) {
        let quantize = [5u64, 13, 1009][quantize_flag];
        let (x, labels, y) = training_data(seed, n_rows, quantize);
        let max_features = [None, Some(2), Some(FEATURES)][feat_flag];
        let cfg = tree_config(max_depth, min_leaf, max_features, seed ^ 0xABCD);
        // A sample with duplicates, like a bootstrap draw.
        let sample: Vec<usize> = (0..n_rows).map(|i| (i * dup_stride) % n_rows).collect();

        let mut a = DecisionTreeClassifier::new(cfg.clone());
        let mut b = DecisionTreeClassifier::new(cfg.clone());
        a.fit_on_sample(&x, &labels, &sample).unwrap();
        b.fit_on_sample_reference(&x, &labels, &sample).unwrap();
        prop_assert_eq!(a.depth().unwrap(), b.depth().unwrap());
        prop_assert_eq!(a.feature_importances().unwrap(), b.feature_importances().unwrap());
        for i in 0..x.n_rows() {
            prop_assert!(
                a.predict_row(x.row(i)).unwrap().to_bits()
                    == b.predict_row(x.row(i)).unwrap().to_bits()
            );
        }

        let mut ra = DecisionTreeRegressor::new(cfg.clone());
        let mut rb = DecisionTreeRegressor::new(cfg);
        ra.fit_on_sample(&x, &y, &sample).unwrap();
        rb.fit_on_sample_reference(&x, &y, &sample).unwrap();
        prop_assert_eq!(ra.depth().unwrap(), rb.depth().unwrap());
        prop_assert_eq!(ra.feature_importances().unwrap(), rb.feature_importances().unwrap());
        for row in probe_rows(&x) {
            prop_assert!(
                ra.predict_row(&row).unwrap().to_bits()
                    == rb.predict_row(&row).unwrap().to_bits()
            );
        }
    }

    // Forests: presorted == reference on OOB score, importances, and
    // batched predictions, at any training thread count.
    #[test]
    fn forest_presorted_equals_reference(
        seed in 0u64..1000,
        n_rows in 25usize..70,
        quantize_flag in 0usize..2,
        n_trees in 1usize..9,
        max_depth in 2usize..8,
        n_threads in 1usize..5,
        classify_flag in 0u32..2,
    ) {
        let quantize = [7u64, 1009][quantize_flag];
        let classify = classify_flag == 1;
        let (x, labels, y) = training_data(seed, n_rows, quantize);
        let config = ForestConfig {
            n_trees,
            tree: tree_config(max_depth, 1, None, 0),
            seed,
            n_threads,
            ..ForestConfig::default()
        };
        if classify {
            let mut new = RandomForestClassifier::new(config.clone());
            let mut old = RandomForestClassifier::new(config);
            new.fit(&x, &labels).unwrap();
            old.fit_reference(&x, &labels).unwrap();
            prop_assert!(
                new.oob_accuracy().unwrap().to_bits() == old.oob_accuracy().unwrap().to_bits()
            );
            prop_assert_eq!(new.feature_importances().unwrap(), old.feature_importances().unwrap());
            let mut pa = vec![0.0; x.n_rows()];
            let mut pb = vec![0.0; x.n_rows()];
            new.predict_batch(MatrixView::Dense(&x), &mut pa).unwrap();
            old.predict_batch(MatrixView::Dense(&x), &mut pb).unwrap();
            for (a, b) in pa.iter().zip(&pb) {
                prop_assert!(a.to_bits() == b.to_bits());
            }
        } else {
            let mut new = RandomForestRegressor::new(config.clone());
            let mut old = RandomForestRegressor::new(config);
            new.fit(&x, &y).unwrap();
            old.fit_reference(&x, &y).unwrap();
            prop_assert!(new.oob_r2().unwrap().to_bits() == old.oob_r2().unwrap().to_bits());
            prop_assert_eq!(new.feature_importances().unwrap(), old.feature_importances().unwrap());
            for row in probe_rows(&x) {
                prop_assert!(
                    new.predict_row(&row).unwrap().to_bits()
                        == old.predict_row(&row).unwrap().to_bits()
                );
            }
        }
    }

    // The tree-major flattened batch path == the seed row-major path ==
    // per-row prediction, bit for bit, for every family that scores
    // through it (exact and binned forests of both kinds, GBDT rounds),
    // from stumps to depth-24 trees, on dense and overlay inputs —
    // including ±inf and NaN overlay cells — at any thread count.
    #[test]
    fn treemajor_batch_equals_rowmajor_and_per_row(
        seed in 0u64..1000,
        n_rows in 30usize..90,
        n_trees in 1usize..10,
        max_depth in 0usize..25,
        threads in 1usize..6,
        pct in -0.5f64..1.5,
    ) {
        let (x, labels, y) = training_data(seed, n_rows, 101);
        for trainer in [Trainer::Presorted, Trainer::Binned] {
            let config = ForestConfig {
                n_trees,
                tree: tree_config(max_depth, 1, None, 0),
                seed,
                n_threads: threads,
                trainer,
                ..ForestConfig::default()
            };
            let mut c = RandomForestClassifier::new(config.clone());
            c.fit(&x, &labels).unwrap();
            batch_paths_agree(&c, Some(&|v, out| c.predict_batch_rowmajor(v, out)), &x, pct);
            let mut r = RandomForestRegressor::new(config);
            r.fit(&x, &y).unwrap();
            batch_paths_agree(&r, Some(&|v, out| r.predict_batch_rowmajor(v, out)), &x, pct);
        }
        let gbdt = GbdtConfig {
            n_rounds: n_trees,
            max_depth,
            min_samples_leaf: 1,
            holdout_fraction: 0.0,
            seed,
            n_threads: threads,
            ..GbdtConfig::default()
        };
        let mut gr = GbdtRegressor::new(gbdt.clone());
        gr.fit(&x, &y).unwrap();
        batch_paths_agree(&gr, None, &x, pct);
        let mut gc = GbdtClassifier::new(gbdt);
        gc.fit(&x, &labels).unwrap();
        batch_paths_agree(&gc, None, &x, pct);
    }

    // The delta path (a leaf table plus walks of only the pairs a move
    // changes) == the full kernel, bit for bit and row by row, on
    // one-column overlays of the training matrix, for every model with
    // a table: exact and binned forests of both families and both GBDT
    // types, from stumps to depth 24, at 1, 2 and unbounded threads.
    #[test]
    fn delta_equals_full_kernel_on_one_column_overlays(
        seed in 0u64..1000,
        n_rows in 30usize..400,
        n_trees in 1usize..30,
        max_depth in 0usize..25,
        threads_flag in 0usize..3,
        column in 0usize..FEATURES,
        pct in -1.0f64..1.5,
    ) {
        let threads = [1, 2, usize::MAX][threads_flag];
        let (x, labels, y) = training_data_with_zero_split(seed, n_rows);
        let mut models: Vec<Box<dyn Predictor>> = Vec::new();
        for trainer in [Trainer::Presorted, Trainer::Binned] {
            let config = ForestConfig {
                n_trees,
                tree: tree_config(max_depth, 1, None, 0),
                seed,
                n_threads: threads,
                trainer,
                ..ForestConfig::default()
            };
            let mut c = RandomForestClassifier::new(config.clone());
            c.fit(&x, &labels).unwrap();
            models.push(Box::new(c));
            let mut r = RandomForestRegressor::new(config);
            r.fit(&x, &y).unwrap();
            models.push(Box::new(r));
        }
        let gbdt = GbdtConfig {
            n_rounds: n_trees,
            max_depth,
            min_samples_leaf: 1,
            holdout_fraction: 0.0,
            seed,
            n_threads: threads,
            ..GbdtConfig::default()
        };
        let mut gr = GbdtRegressor::new(gbdt.clone());
        gr.fit(&x, &y).unwrap();
        models.push(Box::new(gr));
        let mut gc = GbdtClassifier::new(gbdt);
        gc.fit(&x, &labels).unwrap();
        models.push(Box::new(gc));
        for model in &models {
            delta_agrees_with_full_kernel(model.as_ref(), &x, column, pct, seed);
        }
    }

    // Model fingerprints survive the rewrite's determinism contract:
    // identical inputs produce identical fingerprints regardless of the
    // training thread count (forest training stays thread-invariant).
    #[test]
    fn forest_model_fingerprint_is_stable(
        seed in 0u64..300,
        n_threads in 1usize..5,
    ) {
        let (x, _, y) = training_data(seed, 40, 53);
        let names: Vec<String> = (0..FEATURES).map(|j| format!("d{j}")).collect();
        let fit = |threads: usize| {
            TrainedModel::fit(
                "y",
                KpiKind::Continuous,
                names.clone(),
                x.clone(),
                y.clone(),
                &ModelConfig {
                    kind: ModelKind::RandomForest,
                    n_trees: 8,
                    max_depth: 6,
                    seed,
                    n_threads: threads,
                    ..ModelConfig::default()
                },
            )
            .unwrap()
        };
        prop_assert_eq!(fit(1).fingerprint(), fit(n_threads).fingerprint());
    }
}

/// A NaN feature cell is a clean [`LearnError`] from every fit entry
/// point — never a panic — and both trainers refuse identically.
#[test]
fn nan_cell_yields_clean_error_everywhere() {
    let (x, labels, y) = training_data(3, 30, 101);
    let mut rows: Vec<Vec<f64>> = (0..x.n_rows()).map(|i| x.row(i).to_vec()).collect();
    rows[11][2] = f64::NAN;
    let bad = Matrix::from_rows(&rows).unwrap();

    let mut tc = DecisionTreeClassifier::default();
    assert!(matches!(tc.fit(&bad, &labels), Err(LearnError::Invalid(_))));
    let mut tr = DecisionTreeRegressor::default();
    assert!(matches!(tr.fit(&bad, &y), Err(LearnError::Invalid(_))));
    let all: Vec<usize> = (0..bad.n_rows()).collect();
    assert!(tc.fit_on_sample_reference(&bad, &labels, &all).is_err());
    assert!(tr.fit_on_sample_reference(&bad, &y, &all).is_err());

    let mut fc = RandomForestClassifier::with_trees(3, 1);
    assert!(matches!(fc.fit(&bad, &labels), Err(LearnError::Invalid(_))));
    assert!(fc.fit_reference(&bad, &labels).is_err());
    let mut fr = RandomForestRegressor::with_trees(3, 1);
    assert!(matches!(fr.fit(&bad, &y), Err(LearnError::Invalid(_))));
    assert!(fr.fit_reference(&bad, &y).is_err());

    // And through the model backend: training surfaces the error
    // instead of panicking the caller (the server's train path).
    let names: Vec<String> = (0..FEATURES).map(|j| format!("d{j}")).collect();
    let result = TrainedModel::fit(
        "y",
        KpiKind::Continuous,
        names,
        bad,
        y,
        &ModelConfig {
            kind: ModelKind::RandomForest,
            n_trees: 3,
            ..ModelConfig::default()
        },
    );
    assert!(result.is_err());
}

/// Infinities are *not* NaN: they sort deterministically and training
/// still succeeds (the seed accepted them; the rewrite must too).
#[test]
fn infinite_features_still_train_identically() {
    let (x, labels, _) = training_data(9, 40, 101);
    let mut rows: Vec<Vec<f64>> = (0..x.n_rows()).map(|i| x.row(i).to_vec()).collect();
    rows[3][0] = f64::INFINITY;
    rows[17][0] = f64::NEG_INFINITY;
    let inf = Matrix::from_rows(&rows).unwrap();
    let mut a = RandomForestClassifier::with_trees(4, 2);
    let mut b = RandomForestClassifier::with_trees(4, 2);
    a.fit(&inf, &labels).unwrap();
    b.fit_reference(&inf, &labels).unwrap();
    for i in 0..inf.n_rows() {
        assert_eq!(
            a.predict_row(inf.row(i)).unwrap().to_bits(),
            b.predict_row(inf.row(i)).unwrap().to_bits()
        );
    }
}
