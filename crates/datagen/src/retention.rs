//! U2: customer retention analysis dataset.
//!
//! "Sigma's multi-touch attribution dataset ... consists of a customer's
//! activities and product manager's hypothesis formulas such as pivoting
//! on data, performing join operation, using 3+ formulas in two weeks,
//! etc., during the last six months, along with a label indicating
//! whether the customer was retained after six months" (§3 U2).
//!
//! Notable structure mirrored from the paper's session:
//!
//! * **Hypothesis formula columns** — boolean drivers *derived* from the
//!   raw activities (`Used 3+ Formulas In Two Weeks`,
//!   `Attended 2+ Demo Meetings`), generated here as the product
//!   manager's formulas would compute them.
//! * **An "obvious predictor"** — `Days Active` dominates the signal;
//!   the paper's product manager "explicitly asked us to remove an
//!   obvious predictor and perform the functionalities again", which the
//!   U2 experiment replays.
//! * **A negative driver** — `Support Tickets` lowers retention, so the
//!   importance view exercises its negative (red) range.

use crate::ground_truth::{Dataset, GroundTruth, TaskKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use whatif_frame::{Column, Frame};
use whatif_stats::distributions::{normal, poisson, sigmoid};

/// `(name, λ, per-unit β)` for the raw activity drivers.
const ACTIVITIES: &[(&str, f64, f64)] = &[
    ("Days Active", 60.0, 0.07), // the obvious predictor
    ("Documents Created", 8.0, 0.09),
    ("Visualizations Added", 6.0, 0.08),
    ("Pivot Tables Used", 3.0, 0.10),
    ("Join Operations", 4.0, 0.07),
    ("Formulas Used", 10.0, 0.05),
    ("Demo Meetings Attended", 1.8, 0.16),
    ("Dashboards Shared", 2.5, 0.09),
    ("Help Chats", 5.0, 0.02),
    ("Support Tickets", 2.0, -0.22), // negative driver
];

/// Extra latent boosts when the hypothesis-formula conditions hold.
const FORMULA_3PLUS_BOOST: f64 = 0.35;
const DEMO_2PLUS_BOOST: f64 = 0.40;

/// Intercept calibrated for a ≈ 55 % retention base rate.
const INTERCEPT: f64 = -6.95;

/// Latent noise standard deviation.
const NOISE_STD: f64 = 0.8;

/// Noise-free retention probability given raw activity values, in the
/// order of the frame's activity columns (`Days Active` first,
/// `Support Tickets` last).
pub fn true_retention_probability(activities: &[f64]) -> f64 {
    let mut z = INTERCEPT;
    for (j, &(_, _, b)) in ACTIVITIES.iter().enumerate() {
        z += b * activities[j];
    }
    // Formulas Used is index 5; Demo Meetings is index 6.
    if activities[5] >= 3.0 {
        z += FORMULA_3PLUS_BOOST;
    }
    if activities[6] >= 2.0 {
        z += DEMO_2PLUS_BOOST;
    }
    sigmoid(z)
}

/// Generate the retention dataset with `n` customers.
///
/// Columns: `Customer` (str), the ten activity counts (int), the two
/// derived hypothesis booleans, and the `Retained After 6 Months?` KPI
/// (bool). Drivers are the activities plus the hypothesis columns.
pub fn retention(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = ACTIVITIES.len();
    let mut acts: Vec<Vec<i64>> = vec![Vec::with_capacity(n); k];
    let mut formula3: Vec<bool> = Vec::with_capacity(n);
    let mut demo2: Vec<bool> = Vec::with_capacity(n);
    let mut retained: Vec<bool> = Vec::with_capacity(n);
    let mut customers: Vec<String> = Vec::with_capacity(n);

    for i in 0..n {
        customers.push(format!("Customer-{i:05}"));
        let mut raw = Vec::with_capacity(k);
        for &(_, lambda, _) in ACTIVITIES {
            raw.push(poisson(&mut rng, lambda) as f64);
        }
        let p_clean = true_retention_probability(&raw);
        // Re-add noise at the latent level for label generation.
        let z_noisy = (p_clean / (1.0 - p_clean)).ln() + normal(&mut rng, 0.0, NOISE_STD);
        retained.push(rng.gen::<f64>() < sigmoid(z_noisy));
        formula3.push(raw[5] >= 3.0);
        demo2.push(raw[6] >= 2.0);
        for (j, &v) in raw.iter().enumerate() {
            acts[j].push(v as i64);
        }
    }

    let mut frame = Frame::new();
    frame
        .push_column(Column::from_str_values("Customer", customers))
        .expect("fresh frame");
    for (j, &(name, _, _)) in ACTIVITIES.iter().enumerate() {
        frame
            .push_column(Column::from_i64(name, std::mem::take(&mut acts[j])))
            .expect("unique column");
    }
    frame
        .push_column(Column::from_bool("Used 3+ Formulas In Two Weeks", formula3))
        .expect("unique column");
    frame
        .push_column(Column::from_bool("Attended 2+ Demo Meetings", demo2))
        .expect("unique column");
    frame
        .push_column(Column::from_bool("Retained After 6 Months?", retained))
        .expect("unique column");

    // Effect scale: β·σ for Poisson activities (σ = √λ); the hypothesis
    // booleans use boost·σ(bernoulli).
    let mut driver_names: Vec<String> = ACTIVITIES.iter().map(|&(n, _, _)| n.to_owned()).collect();
    let mut effects: Vec<f64> = ACTIVITIES
        .iter()
        .map(|&(_, lambda, b)| b * lambda.sqrt())
        .collect();
    driver_names.push("Used 3+ Formulas In Two Weeks".to_owned());
    driver_names.push("Attended 2+ Demo Meetings".to_owned());
    // P(Poisson(10) >= 3) ≈ 0.997 -> tiny variance; P(Poisson(1.8) >= 2)
    // ≈ 0.537 -> near-maximal variance.
    effects.push(FORMULA_3PLUS_BOOST * 0.055);
    effects.push(DEMO_2PLUS_BOOST * 0.499);

    let truth = GroundTruth {
        driver_names: driver_names.clone(),
        effects,
        intercept: INTERCEPT,
        task: TaskKind::Classification,
        noise: NOISE_STD,
    };
    Dataset {
        frame,
        kpi: "Retained After 6 Months?".to_owned(),
        drivers: driver_names,
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_schema() {
        let d = retention(600, 1);
        assert_eq!(d.frame.n_rows(), 600);
        assert_eq!(d.frame.n_cols(), 14); // Customer + 10 + 2 + KPI
        assert_eq!(d.kpi, "Retained After 6 Months?");
        assert_eq!(d.drivers.len(), 12);
        assert!(d
            .drivers
            .contains(&"Used 3+ Formulas In Two Weeks".to_owned()));
    }

    #[test]
    fn base_rate_is_moderate() {
        let d = retention(20_000, 2);
        let r = d
            .frame
            .column("Retained After 6 Months?")
            .unwrap()
            .bool_values()
            .unwrap();
        let rate = r.iter().filter(|&&b| b).count() as f64 / r.len() as f64;
        assert!(
            rate > 0.40 && rate < 0.70,
            "retention base rate {rate:.3} out of expected band"
        );
    }

    #[test]
    fn days_active_is_the_obvious_predictor() {
        let d = retention(10, 0);
        assert_eq!(d.truth.ranked_names()[0], "Days Active");
        // And its effect dwarfs the median driver's.
        let effects: Vec<f64> = d.truth.effects.iter().map(|e| e.abs()).collect();
        let max = effects.iter().copied().fold(0.0f64, f64::max);
        let median = whatif_stats::median(&effects);
        assert!(max > 2.0 * median);
    }

    #[test]
    fn support_tickets_effect_is_negative() {
        let d = retention(10, 0);
        assert!(d.truth.effect_of("Support Tickets").unwrap() < 0.0);
        // Statistically: ticket-heavy customers retain less.
        let d = retention(20_000, 4);
        let tickets = d
            .frame
            .column("Support Tickets")
            .unwrap()
            .i64_values()
            .unwrap();
        let retained = d
            .frame
            .column("Retained After 6 Months?")
            .unwrap()
            .bool_values()
            .unwrap();
        let tx: Vec<f64> = tickets.iter().map(|&v| v as f64).collect();
        let ty: Vec<f64> = retained.iter().map(|&b| f64::from(u8::from(b))).collect();
        assert!(whatif_stats::pearson(&tx, &ty) < -0.02);
    }

    #[test]
    fn hypothesis_columns_match_their_definitions() {
        let d = retention(500, 5);
        let formulas = d
            .frame
            .column("Formulas Used")
            .unwrap()
            .i64_values()
            .unwrap();
        let flag = d
            .frame
            .column("Used 3+ Formulas In Two Weeks")
            .unwrap()
            .bool_values()
            .unwrap();
        for (f, fl) in formulas.iter().zip(flag) {
            assert_eq!(*fl, *f >= 3);
        }
        let demos = d
            .frame
            .column("Demo Meetings Attended")
            .unwrap()
            .i64_values()
            .unwrap();
        let dflag = d
            .frame
            .column("Attended 2+ Demo Meetings")
            .unwrap()
            .bool_values()
            .unwrap();
        for (v, fl) in demos.iter().zip(dflag) {
            assert_eq!(*fl, *v >= 2);
        }
    }

    #[test]
    fn true_probability_is_monotone_in_positive_drivers() {
        let base: Vec<f64> = ACTIVITIES.iter().map(|&(_, l, _)| l).collect();
        let p0 = true_retention_probability(&base);
        let mut more_days = base.clone();
        more_days[0] += 20.0;
        assert!(true_retention_probability(&more_days) > p0);
        let mut more_tickets = base.clone();
        more_tickets[9] += 5.0;
        assert!(true_retention_probability(&more_tickets) < p0);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(retention(100, 8).frame, retention(100, 8).frame);
        assert_ne!(retention(100, 8).frame, retention(100, 9).frame);
    }
}
