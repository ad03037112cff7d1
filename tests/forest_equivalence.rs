//! Equivalence suite for the forest hot-path overhaul: the presorted
//! trainer and the tree-major flattened predictor must be
//! **bit-identical** to the seed implementation (per-node
//! gather-and-sort training, row-major `if x <= t` walks), which lives
//! on only as the standalone oracle in `seed_cart`. Identity is pinned
//! across random data (including duplicate-heavy quantized features
//! that stress the tie-order replay), random tree/forest
//! configurations, and thread counts — covering predictions, depths,
//! importances, and OOB scores. Golden fingerprints pin the binned tier
//! and GBDT, which the oracle does not model.

mod seed_cart;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seed_cart::{Gini, Mse, SeedForest, SeedTree};
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

/// The labels as the 0/1 targets the oracle's Gini criterion folds.
fn as_targets(labels: &[u8]) -> Vec<f64> {
    labels.iter().map(|&l| f64::from(l)).collect()
}

/// Batch prediction == the seed oracle's row-major walk (for the exact
/// tier) == per-row prediction, bit for bit, on the dense matrix, on an
/// overlay scaling column 1 by `1 + pct`, and on an overlay whose
/// column 0 holds ±inf cells and NaN cells (an analyst's −100 % move of
/// an infinite cell) among scaled ones: such cells must route exactly
/// like the seed's `if x <= t` walk.
fn batch_paths_agree<P: Predictor>(model: &P, oracle: Option<&SeedForest>, x: &Matrix, pct: f64) {
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
        for (i, a) in batch.iter().enumerate() {
            if let Some(oracle) = oracle {
                let seed = oracle.predict_row(reference.row(i));
                assert_eq!(a.to_bits(), seed.to_bits(), "row {i}");
            }
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

/// One view of a random drag script: the driver it moves and the
/// values that replace that driver's column. `step` is `(driver, kind,
/// amount)`; `drag` is the running (driver, percentage) of the slider,
/// which kinds 0 and 1 carry on monotonically.
fn drag_view(
    x: &Matrix,
    step: (usize, usize, f64),
    drag: &mut (usize, f64),
    k: usize,
) -> (usize, Vec<f64>) {
    let (driver, kind, amount) = step;
    let base = |j: usize| (0..x.n_rows()).map(move |i| x.get(i, j));
    match kind {
        // The drag goes on, up or down, on the same driver.
        0 | 1 => drag.1 += if kind == 0 { 0.15 } else { -0.15 },
        // A switch to another driver, at any percentage or at 0 %.
        2 => *drag = (driver, amount),
        3 => *drag = (driver, 0.0),
        _ => drag.0 = driver,
    }
    let (j, pct) = *drag;
    let moved = match kind {
        // NaN, ±∞ and ±0 cells among scaled ones.
        4 => base(j)
            .enumerate()
            .map(|(i, v)| match (i + k) % 6 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                _ => v * (1.0 + pct),
            })
            .collect(),
        // Cells on the 1/8 grid, where the split thresholds sit.
        5 => (0..x.n_rows())
            .map(|i| ((i * 7 + k * 13) % 240) as f64 / 8.0 - 14.0)
            .collect(),
        // Every row onto one grid value.
        6 => vec![(amount * 8.0).round() / 8.0; x.n_rows()],
        _ => base(j).map(|v| v * (1.0 + pct)).collect(),
    };
    (j, moved)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    // Single trees: presorted == the seed oracle on depth, importances,
    // and every prediction, for both criteria, across configs and
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
        a.fit_on_sample(&x, &labels, &sample).unwrap();
        let b = SeedTree::fit::<Gini>(&x, &as_targets(&labels), &sample, &cfg);
        prop_assert_eq!(a.depth().unwrap(), b.depth);
        prop_assert_eq!(a.feature_importances().unwrap(), b.feature_importances());
        for i in 0..x.n_rows() {
            prop_assert!(
                a.predict_row(x.row(i)).unwrap().to_bits() == b.predict_row(x.row(i)).to_bits()
            );
        }

        let mut ra = DecisionTreeRegressor::new(cfg.clone());
        ra.fit_on_sample(&x, &y, &sample).unwrap();
        let rb = SeedTree::fit::<Mse>(&x, &y, &sample, &cfg);
        prop_assert_eq!(ra.depth().unwrap(), rb.depth);
        prop_assert_eq!(ra.feature_importances().unwrap(), rb.feature_importances());
        for row in probe_rows(&x) {
            prop_assert!(ra.predict_row(&row).unwrap().to_bits() == rb.predict_row(&row).to_bits());
        }
    }

    // Forests: presorted == the seed oracle on OOB score, importances,
    // and batched predictions, at any training thread count.
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
            new.fit(&x, &labels).unwrap();
            let old = SeedForest::fit_classifier(&x, &labels, &config);
            prop_assert!(new.oob_accuracy().unwrap().to_bits() == old.oob_score.to_bits());
            prop_assert_eq!(new.feature_importances().unwrap(), &old.importances[..]);
            let mut pa = vec![0.0; x.n_rows()];
            new.predict_batch(MatrixView::Dense(&x), &mut pa).unwrap();
            for (i, a) in pa.iter().enumerate() {
                prop_assert!(a.to_bits() == old.predict_row(x.row(i)).to_bits());
            }
        } else {
            let mut new = RandomForestRegressor::new(config.clone());
            new.fit(&x, &y).unwrap();
            let old = SeedForest::fit_regressor(&x, &y, &config);
            prop_assert!(new.oob_r2().unwrap().to_bits() == old.oob_score.to_bits());
            prop_assert_eq!(new.feature_importances().unwrap(), &old.importances[..]);
            for row in probe_rows(&x) {
                prop_assert!(new.predict_row(&row).unwrap().to_bits() == old.predict_row(&row).to_bits());
            }
        }
    }

    // The tree-major flattened batch path == per-row prediction, bit for
    // bit, for every family that scores through it (exact and binned
    // forests of both kinds, GBDT rounds), and == the seed oracle's
    // row-major walk for exact forests, from stumps to depth-24 trees,
    // on dense and overlay inputs — including ±inf and NaN overlay
    // cells — at any thread count.
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
            let exact = trainer == Trainer::Presorted;
            let mut c = RandomForestClassifier::new(config.clone());
            c.fit(&x, &labels).unwrap();
            let oracle = exact.then(|| SeedForest::fit_classifier(&x, &labels, &config));
            batch_paths_agree(&c, oracle.as_ref(), &x, pct);
            let mut r = RandomForestRegressor::new(config.clone());
            r.fit(&x, &y).unwrap();
            let oracle = exact.then(|| SeedForest::fit_regressor(&x, &y, &config));
            batch_paths_agree(&r, oracle.as_ref(), &x, pct);
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

    // The drag memo: a random script of one-driver views on one model
    // and one leaf table — monotone drags up and down, driver switches,
    // 0 % stops, NaN, ±∞ and ±0 cells, and values on the threshold grid
    // — scores every view bit for bit like the full kernel, for an exact
    // and a binned forest and a GBDT, at 1, 2 and unbounded threads.
    #[test]
    fn memo_views_in_any_order_equal_the_full_kernel(
        seed in 0u64..1000,
        n_rows in 30usize..300,
        n_trees in 1usize..20,
        max_depth in 1usize..20,
        threads_flag in 0usize..3,
        script in prop::collection::vec((0usize..FEATURES, 0usize..8, -1.0f64..1.5), 4..30),
    ) {
        let threads = [1, 2, usize::MAX][threads_flag];
        let (x, labels, y) = training_data_with_zero_split(seed, n_rows);
        let forest = |trainer| ForestConfig {
            n_trees,
            tree: tree_config(max_depth, 1, None, 0),
            seed,
            n_threads: threads,
            trainer,
            ..ForestConfig::default()
        };
        let mut exact = RandomForestClassifier::new(forest(Trainer::Presorted));
        exact.fit(&x, &labels).unwrap();
        let mut binned = RandomForestRegressor::new(forest(Trainer::Binned));
        binned.fit(&x, &y).unwrap();
        let mut gbdt = GbdtRegressor::new(GbdtConfig {
            n_rounds: n_trees,
            max_depth: max_depth.min(8),
            holdout_fraction: 0.0,
            seed,
            n_threads: threads,
            ..GbdtConfig::default()
        });
        gbdt.fit(&x, &y).unwrap();
        let models: [&dyn Predictor; 3] = [&exact, &binned, &gbdt];
        for model in models {
            let table = model.leaf_table(&x).expect("tree ensembles build a table");
            let mut drag = (0, 0.0);
            for (k, &step) in script.iter().enumerate() {
                let (j, moved) = drag_view(&x, step, &mut drag, k);
                let mut overlay = ColumnOverlay::new(&x);
                overlay.set_col(j, moved).unwrap();
                let mut full = vec![0.0; x.n_rows()];
                let mut delta = vec![0.0; x.n_rows()];
                model.predict_batch((&overlay).into(), &mut full).unwrap();
                model.predict_delta(&table, &overlay, &mut delta).unwrap();
                for (i, (a, b)) in full.iter().zip(&delta).enumerate() {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "view {} (driver {}), row {}: full {}, delta {}", k, j, i, a, b
                    );
                }
            }
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
/// point — never a panic.
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

    let mut fc = RandomForestClassifier::with_trees(3, 1);
    assert!(matches!(fc.fit(&bad, &labels), Err(LearnError::Invalid(_))));
    let mut fr = RandomForestRegressor::with_trees(3, 1);
    assert!(matches!(fr.fit(&bad, &y), Err(LearnError::Invalid(_))));

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

/// Golden model fingerprints on [`training_data`] (xorshift, no libm
/// calls), recorded before the seed trainer moved out of `whatif-learn`.
/// A fingerprint hashes the training predictions and the holdout
/// confidence, so any drift in the exact tier, the binned tier or GBDT
/// changes it — including the two the seed oracle cannot see. The GBDT
/// classifier is left out: its logistic loss calls `exp` and `ln`, whose
/// last bits depend on the platform's libm.
#[test]
fn golden_model_fingerprints() {
    use whatif::core::model_backend::TrainerTier;
    const GOLDEN: [(&str, u128); 14] = [
        (
            "forest/continuous/exact/seed5",
            0x5e44d1bc67e2fcfbc3a9efb20b84c78e,
        ),
        (
            "forest/continuous/exact_mf2/seed5",
            0x8a0904b2856e058570250059a38799b8,
        ),
        (
            "forest/continuous/binned/seed5",
            0x7edfeae9f07f0dbf3221efcb04d2bf2d,
        ),
        (
            "forest/binary/exact/seed5",
            0xb4442e0c0e28e66ffe2380f38c59eb3b,
        ),
        (
            "forest/binary/exact_mf2/seed5",
            0x0b84a50ac807dda9ee43ac62d74aafd2,
        ),
        (
            "forest/binary/binned/seed5",
            0xa44d6854bcfae766951b217b619b73b7,
        ),
        ("gbdt/continuous/seed5", 0x18239d408c2dfddbf0f2240f0bb869ee),
        (
            "forest/continuous/exact/seed77",
            0xf848defaad3e956b458d657f24ee0b5c,
        ),
        (
            "forest/continuous/exact_mf2/seed77",
            0xccd71956367377e61bf33ddeefd7ec9a,
        ),
        (
            "forest/continuous/binned/seed77",
            0x8d442e1046db0654eb1decf94d1d5f32,
        ),
        (
            "forest/binary/exact/seed77",
            0x8201329b9ce35731573965cf5c602b6a,
        ),
        (
            "forest/binary/exact_mf2/seed77",
            0xefa9cbe40ec2bb38bb701f9dd152a3e3,
        ),
        (
            "forest/binary/binned/seed77",
            0x7c8a11e47dcdfc4c73fb1d1cd356362f,
        ),
        ("gbdt/continuous/seed77", 0x1041e3164c90dae7e35dbb1683347c6a),
    ];
    let names: Vec<String> = (0..FEATURES).map(|j| format!("d{j}")).collect();
    let fingerprint = |x: &Matrix, y: &[f64], kpi_kind, config: ModelConfig| {
        TrainedModel::fit("y", kpi_kind, names.clone(), x.clone(), y.to_vec(), &config)
            .unwrap()
            .fingerprint()
            .as_u128()
    };
    let mut got = Vec::new();
    for seed in [5u64, 77] {
        let (x, labels, y) = training_data(seed, 120, 1009);
        let binary: Vec<f64> = labels.iter().map(|&l| f64::from(l)).collect();
        for (kpi, kpi_kind, target) in [
            ("continuous", KpiKind::Continuous, &y),
            ("binary", KpiKind::Binary, &binary),
        ] {
            for (tier, trainer, max_features) in [
                ("exact", TrainerTier::Exact, None),
                ("exact_mf2", TrainerTier::Exact, Some(2)),
                ("binned", TrainerTier::Binned, None),
            ] {
                let config = ModelConfig {
                    kind: ModelKind::RandomForest,
                    n_trees: 12,
                    max_depth: 8,
                    seed,
                    max_features,
                    n_threads: 2,
                    trainer,
                    ..ModelConfig::default()
                };
                let name = format!("forest/{kpi}/{tier}/seed{seed}");
                got.push((name, fingerprint(&x, target, kpi_kind, config)));
            }
        }
        let config = ModelConfig {
            kind: ModelKind::Gbdt,
            n_trees: 12,
            max_depth: 4,
            seed,
            n_threads: 2,
            ..ModelConfig::default()
        };
        let name = format!("gbdt/continuous/seed{seed}");
        got.push((name, fingerprint(&x, &y, KpiKind::Continuous, config)));
    }
    let table: String = got
        .iter()
        .map(|(name, fp)| format!("    (\"{name}\", 0x{fp:032x}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "actual fingerprints:\n{table}");
    for ((name, fp), (golden_name, golden)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        assert_eq!(*fp, golden, "{name} drifted; actual fingerprints:\n{table}");
    }
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
    a.fit(&inf, &labels).unwrap();
    let b = SeedForest::fit_classifier(&inf, &labels, &a.config);
    for i in 0..inf.n_rows() {
        assert_eq!(
            a.predict_row(inf.row(i)).unwrap().to_bits(),
            b.predict_row(inf.row(i)).to_bits()
        );
    }
}

/// Fixed duplicate-heavy quantized features stress the tie-order replay
/// (run bucketing) of single trees on both criteria, with and without
/// feature subsampling, on a bootstrap-like sample with duplicates.
#[test]
fn presorted_matches_reference_trainer_bit_for_bit() {
    let rows: Vec<Vec<f64>> = (0..60)
        .map(|i| vec![(i % 5) as f64, ((i * 7) % 3) as f64, (i % 11) as f64 / 2.0])
        .collect();
    let x = Matrix::from_rows(&rows).unwrap();
    let y: Vec<u8> = rows.iter().map(|r| u8::from(r[0] + r[1] > 3.0)).collect();
    let yr: Vec<f64> = rows
        .iter()
        .map(|r| r[0] * 1.7 - r[2] * 0.3 + r[1])
        .collect();
    let sample: Vec<usize> = (0..60).map(|i| (i * 13 + i % 7) % 60).collect();
    for max_features in [None, Some(2)] {
        let cfg = TreeConfig {
            max_depth: 6,
            min_samples_leaf: 2,
            max_features,
            seed: 9,
            ..TreeConfig::default()
        };
        let mut a = DecisionTreeClassifier::new(cfg.clone());
        a.fit_on_sample(&x, &y, &sample).unwrap();
        let b = SeedTree::fit::<Gini>(&x, &as_targets(&y), &sample, &cfg);
        assert_eq!(a.depth().unwrap(), b.depth);
        assert_eq!(a.feature_importances().unwrap(), b.feature_importances());
        for i in 0..x.n_rows() {
            assert_eq!(
                a.predict_row(x.row(i)).unwrap().to_bits(),
                b.predict_row(x.row(i)).to_bits()
            );
        }
        let mut ra = DecisionTreeRegressor::new(cfg.clone());
        ra.fit_on_sample(&x, &yr, &sample).unwrap();
        let rb = SeedTree::fit::<Mse>(&x, &yr, &sample, &cfg);
        assert_eq!(ra.depth().unwrap(), rb.depth);
        assert_eq!(ra.feature_importances().unwrap(), rb.feature_importances());
        for i in 0..x.n_rows() {
            assert_eq!(
                ra.predict_row(x.row(i)).unwrap().to_bits(),
                rb.predict_row(x.row(i)).to_bits()
            );
        }
    }
}

/// Default-configured forests of both families on continuous random
/// features match the seed oracle on OOB score, importances and every
/// training-row prediction.
#[test]
fn presorted_forest_matches_reference_forest_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(14);
    let rows: Vec<Vec<f64>> = (0..180)
        .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()])
        .collect();
    let labels: Vec<u8> = rows
        .iter()
        .map(|r| u8::from(r[0] + r[1] + 0.1 * (rng.gen::<f64>() - 0.5) > 1.0))
        .collect();
    let x = Matrix::from_rows(&rows).unwrap();
    let mut new = RandomForestClassifier::with_trees(12, 15);
    new.fit(&x, &labels).unwrap();
    let old = SeedForest::fit_classifier(&x, &labels, &new.config);
    assert_eq!(
        new.oob_accuracy().unwrap().to_bits(),
        old.oob_score.to_bits()
    );
    assert_eq!(new.feature_importances().unwrap(), &old.importances[..]);
    for i in 0..x.n_rows() {
        assert_eq!(
            new.predict_row(x.row(i)).unwrap().to_bits(),
            old.predict_row(x.row(i)).to_bits()
        );
    }

    let mut rng = StdRng::seed_from_u64(16);
    let rows: Vec<Vec<f64>> = (0..150)
        .map(|_| vec![rng.gen::<f64>() * 4.0, rng.gen::<f64>()])
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| r[0].sin() * 3.0 + 0.05 * (rng.gen::<f64>() - 0.5))
        .collect();
    let x = Matrix::from_rows(&rows).unwrap();
    let mut new = RandomForestRegressor::with_trees(9, 17);
    new.fit(&x, &y).unwrap();
    let old = SeedForest::fit_regressor(&x, &y, &new.config);
    assert_eq!(new.oob_r2().unwrap().to_bits(), old.oob_score.to_bits());
    assert_eq!(new.feature_importances().unwrap(), &old.importances[..]);
    for i in 0..x.n_rows() {
        assert_eq!(
            new.predict_row(x.row(i)).unwrap().to_bits(),
            old.predict_row(x.row(i)).to_bits()
        );
    }
}
