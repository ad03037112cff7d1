//! Prediction latency: the sensitivity-slider hot path. Every slider
//! move re-scores the whole dataset, so full-matrix prediction cost is
//! the interactive budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use whatif_core::model_backend::{ModelConfig, ModelKind};
use whatif_core::session::Session;
use whatif_datagen::make_classification;

fn bench_predict(c: &mut Criterion) {
    let mut group = c.benchmark_group("predict");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for &n in &[500usize, 2_000] {
        let data = make_classification(n, 12, 6, 0.5, 3);
        let session = Session::new(data.frame.clone())
            .with_kpi(&data.kpi)
            .expect("kpi");
        let cfg = ModelConfig {
            kind: ModelKind::RandomForest,
            n_trees: 40,
            holdout_fraction: 0.0,
            ..ModelConfig::default()
        };
        let forest = session.train(&cfg).expect("fit");
        let cfg = ModelConfig {
            kind: ModelKind::Logistic,
            ..cfg
        };
        let logistic = session.train(&cfg).expect("fit");

        let row: Vec<f64> = forest.matrix().row(0).to_vec();
        group.bench_with_input(BenchmarkId::new("forest_row", n), &forest, |b, m| {
            b.iter(|| m.predict_row(&row).expect("predict"))
        });
        group.bench_with_input(BenchmarkId::new("forest_full_kpi", n), &forest, |b, m| {
            b.iter(|| m.kpi_for_matrix(m.matrix()).expect("predict"))
        });
        group.bench_with_input(
            BenchmarkId::new("logistic_full_kpi", n),
            &logistic,
            |b, m| b.iter(|| m.kpi_for_matrix(m.matrix()).expect("predict")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_predict);
criterion_main!(benches);
