//! Property-based tests over the core data structures and invariants,
//! spanning the frame, perturbation, optimizer, and stats layers.

use proptest::prelude::*;
use whatif::core::perturbation::{Perturbation, PerturbationSet};
use whatif::frame::csv::{parse_csv, write_csv};
use whatif::frame::{Column, Frame};
use whatif::learn::Matrix;
use whatif::optim::objective::FnObjective;
use whatif::optim::random_search::random_search;
use whatif::optim::Bounds;
use whatif::stats::{average_ranks, pearson, quantile, spearman};

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frame_filter_never_grows(values in finite_vec(64), mask_seed in 0u64..1000) {
        let n = values.len();
        let frame = Frame::from_columns(vec![Column::from_f64("x", values)]).unwrap();
        let mask: Vec<bool> = (0..n).map(|i| !(i as u64 + mask_seed).is_multiple_of(3)).collect();
        let filtered = frame.filter(&mask).unwrap();
        prop_assert!(filtered.n_rows() <= n);
        prop_assert_eq!(filtered.n_rows(), mask.iter().filter(|&&b| b).count());
    }

    #[test]
    fn csv_roundtrip_preserves_numeric_frames(
        xs in finite_vec(32),
        ks in prop::collection::vec(-1000i64..1000, 1..32),
    ) {
        let n = xs.len().min(ks.len());
        let frame = Frame::from_columns(vec![
            Column::from_f64("x", xs[..n].to_vec()),
            Column::from_i64("k", ks[..n].to_vec()),
        ]).unwrap();
        let back = parse_csv(&write_csv(&frame)).unwrap();
        prop_assert_eq!(back.n_rows(), frame.n_rows());
        let x0 = frame.column("x").unwrap().f64_values().unwrap();
        let x1 = back.column("x").unwrap().to_f64_lossy().unwrap();
        for (a, b) in x0.iter().zip(&x1) {
            prop_assert!((a - b).abs() <= a.abs() * 1e-12 + 1e-12);
        }
    }

    #[test]
    fn zero_perturbation_is_identity(values in finite_vec(32)) {
        let n = values.len();
        let m = Matrix::from_vec(values, n, 1).unwrap();
        let names = vec!["d".to_owned()];
        let set = PerturbationSet::new(vec![Perturbation::percentage("d", 0.0)])
            .without_clamp();
        let out = set.apply_to_matrix(&m, &names).unwrap();
        prop_assert_eq!(out.data(), m.data());
    }

    #[test]
    fn percentage_perturbation_scales_linearly(
        values in prop::collection::vec(0.0f64..1e6, 1..32),
        pct in -99.0f64..300.0,
    ) {
        let n = values.len();
        let m = Matrix::from_vec(values.clone(), n, 1).unwrap();
        let names = vec!["d".to_owned()];
        let set = PerturbationSet::new(vec![Perturbation::percentage("d", pct)]);
        let out = set.apply_to_matrix(&m, &names).unwrap();
        for (orig, new) in values.iter().zip(out.data()) {
            let expected = orig * (1.0 + pct / 100.0);
            prop_assert!((new - expected).abs() <= expected.abs() * 1e-12 + 1e-9);
            prop_assert!(*new >= 0.0, "clamp keeps counts non-negative");
        }
    }

    #[test]
    fn clamped_absolute_perturbation_never_negative(
        values in prop::collection::vec(0.0f64..100.0, 1..32),
        delta in -1000.0f64..1000.0,
    ) {
        let n = values.len();
        let m = Matrix::from_vec(values, n, 1).unwrap();
        let names = vec!["d".to_owned()];
        let set = PerturbationSet::new(vec![Perturbation::absolute("d", delta)]);
        let out = set.apply_to_matrix(&m, &names).unwrap();
        prop_assert!(out.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn random_search_stays_in_bounds(
        lo in -100.0f64..0.0,
        width in 0.1f64..100.0,
        seed in 0u64..500,
    ) {
        let bounds = Bounds::new(vec![lo, lo], vec![lo + width, lo + width]).unwrap();
        let objective = FnObjective::new(2, |x: &[f64]| x[0] + x[1]);
        let r = random_search(&objective, &bounds, 40, seed).unwrap();
        prop_assert!(bounds.contains(&r.best_x));
        for (x, _) in &r.history {
            prop_assert!(bounds.contains(x));
        }
        // Convergence trace is monotone non-increasing.
        let trace = r.convergence_trace();
        for w in trace.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn pearson_is_bounded_and_symmetric(
        pairs in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..64),
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r = pearson(&xs, &ys);
        if !r.is_nan() {
            prop_assert!((-1.0..=1.0).contains(&r));
            let r2 = pearson(&ys, &xs);
            prop_assert!((r - r2).abs() < 1e-12);
        }
        let rho = spearman(&xs, &ys);
        if !rho.is_nan() {
            prop_assert!((-1.0..=1.0).contains(&rho));
        }
    }

    #[test]
    fn ranks_are_a_valid_assignment(values in finite_vec(64)) {
        let ranks = average_ranks(&values);
        let n = values.len() as f64;
        // Ranks sum to n(n+1)/2 regardless of ties.
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
        prop_assert!(ranks.iter().all(|&r| r >= 1.0 && r <= n));
    }

    #[test]
    fn quantiles_are_monotone(values in finite_vec(64), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&values, lo);
        let b = quantile(&values, hi);
        prop_assert!(a <= b + 1e-12, "quantile({lo}) = {a} > quantile({hi}) = {b}");
    }

    #[test]
    fn lstsq_residual_is_orthogonal_ish(
        rows in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 4..32),
        c0 in -5.0f64..5.0,
        c1 in -5.0f64..5.0,
    ) {
        // Exact linear data must be recovered to high precision.
        let data: Vec<Vec<f64>> = rows.iter().map(|&(a, b)| vec![a, b]).collect();
        let y: Vec<f64> = rows.iter().map(|&(a, b)| c0 * a + c1 * b).collect();
        let m = Matrix::from_rows(&data).unwrap();
        let beta = whatif::learn::linalg::lstsq(&m, &y).unwrap();
        let fitted = m.matvec(&beta).unwrap();
        for (f, t) in fitted.iter().zip(&y) {
            prop_assert!((f - t).abs() < 1e-6 * (1.0 + t.abs()));
        }
    }
}
