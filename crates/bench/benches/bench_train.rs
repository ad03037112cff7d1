//! Model-fit latency: interpretable linear/logistic models vs random
//! forests — the cost side of the paper's §5 interpretability-vs-
//! accuracy trade-off — plus the forest's training paths:
//!
//! * `train_forest/presorted`: the exact tier on the deal-closing
//!   data, whose drivers have a dozen or so distinct values each, so its
//!   Gini trees grow on value-class histograms;
//! * `train_forest/presorted_high_cardinality`: the exact tier on
//!   continuous features with hundreds of distinct values each, more
//!   than 256, so its trees take the presorted grower;
//! * `train_forest/binned`: the histogram-binned tier on the
//!   deal-closing data.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use whatif_core::model_backend::{ModelConfig, ModelKind};
use whatif_core::session::Session;
use whatif_datagen::{deal_closing, make_classification, make_regression, Dataset};
use whatif_learn::forest::ForestConfig;
use whatif_learn::tree::TreeConfig;
use whatif_learn::{Classifier as _, Matrix, RandomForestClassifier, Trainer};

fn config(kind: ModelKind, n_trees: usize) -> ModelConfig {
    ModelConfig {
        kind,
        n_trees,
        holdout_fraction: 0.0, // isolate the fit cost
        ..ModelConfig::default()
    }
}

/// The training matrix and 0/1 labels a session builds from `dataset`.
fn matrix_and_labels(dataset: &Dataset) -> (Matrix, Vec<u8>) {
    let session = Session::new(dataset.frame.clone())
        .with_kpi(&dataset.kpi)
        .expect("kpi");
    let model = session
        .train(&ModelConfig {
            kind: ModelKind::RandomForest,
            n_trees: 1, // only the matrix/labels are needed here
            holdout_fraction: 0.0,
            ..ModelConfig::default()
        })
        .expect("fit");
    let labels = model
        .targets()
        .iter()
        .map(|&v| u8::from(v >= 0.5))
        .collect();
    (model.matrix().clone(), labels)
}

/// The forest's training paths (module docs). The exact tier is
/// bit-identical to the seed CART on either grower, pinned by
/// `tests/forest_equivalence.rs`.
fn bench_trainer_paths(c: &mut Criterion) {
    let deals = matrix_and_labels(&deal_closing(600, 7));
    let continuous = matrix_and_labels(&make_classification(600, 12, 6, 0.5, 7));
    let config = ForestConfig {
        n_trees: 24,
        tree: TreeConfig {
            max_depth: 8,
            ..TreeConfig::default()
        },
        seed: 7,
        n_threads: 4,
        ..ForestConfig::default()
    };
    let binned = ForestConfig {
        trainer: Trainer::Binned,
        ..config.clone()
    };

    let mut group = c.benchmark_group("train_forest");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for (name, config, (x, labels)) in [
        ("presorted", &config, &deals),
        ("presorted_high_cardinality", &config, &continuous),
        ("binned", &binned, &deals),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut f = RandomForestClassifier::new(config.clone());
                f.fit(x, labels).expect("fit");
                f
            })
        });
    }
    group.finish();
}

fn bench_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("train");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for &n in &[500usize, 2_000] {
        let reg = make_regression(n, 12, 6, 0.5, 3);
        let reg_session = Session::new(reg.frame.clone())
            .with_kpi(&reg.kpi)
            .expect("kpi");
        group.bench_with_input(BenchmarkId::new("linear", n), &reg_session, |b, s| {
            let cfg = config(ModelKind::Linear, 0);
            b.iter(|| s.train(&cfg).expect("fit"))
        });
        group.bench_with_input(
            BenchmarkId::new("forest_regressor_40", n),
            &reg_session,
            |b, s| {
                let cfg = config(ModelKind::RandomForest, 40);
                b.iter(|| s.train(&cfg).expect("fit"))
            },
        );
        group.bench_with_input(BenchmarkId::new("gbdt_40", n), &reg_session, |b, s| {
            let cfg = config(ModelKind::Gbdt, 40);
            b.iter(|| s.train(&cfg).expect("fit"))
        });

        let clf = make_classification(n, 12, 6, 0.5, 3);
        let clf_session = Session::new(clf.frame.clone())
            .with_kpi(&clf.kpi)
            .expect("kpi");
        group.bench_with_input(BenchmarkId::new("logistic", n), &clf_session, |b, s| {
            let cfg = config(ModelKind::Logistic, 0);
            b.iter(|| s.train(&cfg).expect("fit"))
        });
        group.bench_with_input(
            BenchmarkId::new("forest_classifier_40", n),
            &clf_session,
            |b, s| {
                let cfg = config(ModelKind::RandomForest, 40);
                b.iter(|| s.train(&cfg).expect("fit"))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_trainer_paths, bench_train);
criterion_main!(benches);
