//! Reproduce every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p whatif-bench --bin repro --release -- all
//! cargo run -p whatif-bench --bin repro --release -- fig2-sensitivity
//! cargo run -p whatif-bench --bin repro --release -- fig3 --quick
//! ```

use whatif_bench::experiments::{self, Scale};
use whatif_study::questionnaire::{instrument, QuestionCategory};
use whatif_study::render_figure3;

const EXPERIMENTS: &[&str] = &[
    "fig2-importance",
    "fig2-sensitivity",
    "fig2-goal-inversion",
    "table1",
    "fig3",
    "sec4-rankings",
    "u1-marketing",
    "u2-retention",
    "u3-deal",
    "opt-compare",
    "robustness",
    "wire",
    "obs",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let seed = 7;
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if wanted.is_empty() {
        eprintln!("usage: repro [--quick] <experiment|all> ...");
        eprintln!("experiments: {}", EXPERIMENTS.join(", "));
        std::process::exit(2);
    }
    let run_all = wanted.contains(&"all");
    let should = |name: &str| run_all || wanted.contains(&name);
    for name in &wanted {
        if *name != "all" && !EXPERIMENTS.contains(name) {
            eprintln!(
                "unknown experiment {name:?}; known: {}",
                EXPERIMENTS.join(", ")
            );
            std::process::exit(2);
        }
    }

    if should("fig2-importance") {
        fig2_importance(scale, seed);
    }
    if should("fig2-sensitivity") {
        fig2_sensitivity(scale, seed);
    }
    if should("fig2-goal-inversion") {
        fig2_goal_inversion(scale, seed);
    }
    if should("table1") {
        table1();
    }
    if should("fig3") {
        fig3(scale);
    }
    if should("sec4-rankings") {
        sec4_rankings(scale);
    }
    if should("u1-marketing") {
        u1_marketing(scale, seed);
    }
    if should("u2-retention") {
        u2_retention(scale, seed);
    }
    if should("u3-deal") {
        u3_deal(scale, seed);
    }
    if should("opt-compare") {
        opt_compare(scale, seed);
    }
    if should("robustness") {
        robustness(scale, seed);
    }
    if should("wire") {
        wire(scale, seed);
    }
    if should("obs") {
        obs(scale, seed);
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn fig2_importance(scale: Scale, seed: u64) {
    header("fig2-importance — Driver Importance Analysis (paper §2 E)");
    let e = experiments::fig2_importance(scale, seed);
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10}",
        "driver", "model", "pearson", "spearman", "shapley"
    );
    let order = {
        let mut idx: Vec<usize> = (0..e.importance.scores.len()).collect();
        idx.sort_by(|&a, &b| {
            e.importance.scores[b]
                .abs()
                .partial_cmp(&e.importance.scores[a].abs())
                .expect("finite scores")
        });
        idx
    };
    for i in order {
        println!(
            "{:<26} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            e.importance.driver_names[i],
            e.importance.scores[i],
            e.verification.pearson[i],
            e.verification.spearman[i],
            e.verification.shapley[i],
        );
    }
    println!(
        "rank agreement (kendall tau): pearson {:.2}, spearman {:.2}, shapley {:.2}",
        e.verification.tau_pearson, e.verification.tau_spearman, e.verification.tau_shapley
    );
    println!(
        "paper top-3    {:?} -> matched {}/3",
        e.paper_top3, e.top3_matches
    );
    println!(
        "paper bottom-3 {:?} -> matched {}/3",
        e.paper_bottom3, e.bottom3_matches
    );
    println!("ground-truth top-3: {:?}", &e.truth_ranking[..3]);
}

fn fig2_sensitivity(scale: Scale, seed: u64) {
    header("fig2-sensitivity — +40% Open Marketing Email (paper §2 H)");
    let e = experiments::fig2_sensitivity(scale, seed);
    println!("{:<28} {:>10} {:>10}", "quantity", "paper", "measured");
    println!(
        "{:<28} {:>9.2}% {:>9.2}%",
        "baseline deal-close rate",
        100.0 * e.paper_baseline,
        100.0 * e.result.baseline_kpi
    );
    println!(
        "{:<28} {:>9.2}% {:>9.2}%",
        "KPI after +40% OME",
        100.0 * e.paper_kpi,
        100.0 * e.result.perturbed_kpi
    );
    println!(
        "{:<28} {:>8.2}pp {:>8.2}pp",
        "uplift",
        100.0 * e.paper_uplift,
        100.0 * e.result.uplift()
    );
}

fn fig2_goal_inversion(scale: Scale, seed: u64) {
    header("fig2-goal-inversion — constrained OME in [+40%, +80%] (paper §2 I)");
    let e = experiments::fig2_goal_inversion(scale, seed);
    println!("{:<28} {:>10} {:>10}", "quantity", "paper", "measured");
    println!(
        "{:<28} {:>9.2}% {:>9.2}%",
        "constrained max KPI",
        100.0 * e.paper_kpi,
        100.0 * e.constrained.achieved_kpi
    );
    println!(
        "{:<28} {:>8.2}pp {:>8.2}pp",
        "uplift vs original",
        100.0 * e.paper_uplift,
        100.0 * e.constrained.uplift()
    );
    println!(
        "{:<28} {:>10} {:>9.2}%",
        "free-max KPI (no constraint)",
        "-",
        100.0 * e.free.achieved_kpi
    );
    println!(
        "model confidence: {:.3}; evaluations: {}",
        e.constrained.confidence, e.constrained.n_evals
    );
    let ome = e
        .constrained
        .driver_percentages
        .iter()
        .find(|(d, _)| d == "Open Marketing Email")
        .map(|(_, p)| *p)
        .unwrap_or(f64::NAN);
    println!("recommended OME change: {ome:+.1}% (allowed 40..80)");
}

fn table1() {
    header("table1 — study instrument (paper Table 1)");
    for (cat, label) in [
        (QuestionCategory::PreStudy, "Pre-study"),
        (QuestionCategory::Usability, "System usability (Likert 1-5)"),
        (QuestionCategory::OpenEnded, "Open-ended"),
    ] {
        println!("\n[{label}]");
        for q in instrument().iter().filter(|q| q.category == cat) {
            println!("  - {}", q.text);
        }
    }
}

fn fig3(scale: Scale) {
    header("fig3 — usability ratings, paper vs simulated panels (paper Figure 3)");
    let rows = experiments::fig3(scale);
    print!("{}", render_figure3(&rows));
    let mean_abs_dev = rows
        .iter()
        .map(|r| (r.sim_mean - r.paper_mean).abs())
        .sum::<f64>()
        / rows.len() as f64;
    println!("mean |simulated - paper| = {mean_abs_dev:.3} Likert points");
}

fn sec4_rankings(scale: Scale) {
    header("sec4-rankings — functionality usefulness rankings (paper §4)");
    let r = experiments::sec4_rankings(scale);
    println!(
        "{:<36} {:>12} {:>12}",
        "functionality", "mean #first", "mean #last"
    );
    for ((f, first), (_, last)) in r.mean_first_choices.iter().zip(&r.mean_last_choices) {
        println!("{:<36} {:>12.2} {:>12.2}", f.label(), first, last);
    }
    println!(
        "paper modal outcome (3x DriverImportance, 1x Sensitivity, 1x Constrained) reproduced in {:.0}% of panels",
        100.0 * r.modal_agreement
    );
}

fn u1_marketing(scale: Scale, seed: u64) {
    header("u1-marketing — Marketing Mix Modeling (paper §3 U1)");
    let e = experiments::u1_marketing(scale, seed);
    println!(
        "channel importances (model confidence R^2 = {:.3}):",
        e.confidence
    );
    for (name, score) in e.importance.driver_names.iter().zip(&e.importance.scores) {
        println!("  {name:<10} {score:>7.3}");
    }
    println!(
        "ground-truth marginal-impact ranking: {:?}",
        e.truth_ranking
    );
    println!("\nbudget-constrained (±50% per channel) sales maximization:");
    for (channel, pct) in &e.budget_result.driver_percentages {
        println!("  {channel:<10} {pct:>+7.1}%");
    }
    println!(
        "expected mean daily sales: {:.0} -> {:.0} ({:+.1}%)",
        e.budget_result.baseline_kpi,
        e.budget_result.achieved_kpi,
        100.0 * e.budget_result.uplift() / e.budget_result.baseline_kpi
    );
}

fn u2_retention(scale: Scale, seed: u64) {
    header("u2-retention — Customer Retention Analysis (paper §3 U2)");
    let e = experiments::u2_retention(scale, seed);
    println!(
        "top-5 drivers with all columns: {:?}",
        e.importance_full.top_k(5)
    );
    println!(
        "negative driver {:?} score: {:.3}",
        e.negative_driver,
        e.importance_full
            .score_of(&e.negative_driver)
            .unwrap_or(f64::NAN)
    );
    println!(
        "\nafter removing the obvious predictor ({}): top-5 = {:?}",
        e.removed,
        e.importance_reduced.top_k(5)
    );
    println!(
        "retention maximization (without {}): {:.1}% -> {:.1}%",
        e.removed,
        100.0 * e.goal.baseline_kpi,
        100.0 * e.goal.achieved_kpi
    );
}

fn u3_deal(scale: Scale, seed: u64) {
    header("u3-deal — Deal Closing Analysis (paper §3 U3)");
    let e = experiments::u3_deal(scale, seed);
    println!(
        "per-data analysis (prospect #0): close prob {:.3} -> {:.3} after doubling their marketing-email opens",
        e.per_data_baseline, e.per_data_perturbed
    );
    println!("\ndriver leverage (KPI span across -50%..+100% sweep):");
    let mut spans: Vec<(&str, f64)> = e
        .comparison
        .iter()
        .map(|c| (c.driver.as_str(), c.kpi_span()))
        .collect();
    spans.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite spans"));
    for (driver, span) in spans.iter().take(5) {
        println!("  {driver:<26} {span:.4}");
    }
    println!("\n\"ideal customer journey\" (recommended mean activity levels):");
    for (driver, value) in e.journey.iter().take(6) {
        println!("  {driver:<26} {value:>7.2}");
    }
}

fn opt_compare(scale: Scale, seed: u64) {
    header("opt-compare — goal-inversion engines at equal budgets");
    let rows = experiments::optimizer_comparison(scale, seed);
    let budgets: Vec<usize> = rows[0].series.iter().map(|(b, _)| *b).collect();
    print!("{:<14}", "engine");
    for b in &budgets {
        print!(" {:>8}", format!("n={b}"));
    }
    println!();
    for r in &rows {
        print!("{:<14}", r.engine);
        for (_, kpi) in &r.series {
            print!(" {kpi:>8.4}");
        }
        println!();
    }
    println!("(cells are best deal-close KPI found at that evaluation budget)");
}

fn wire(scale: Scale, seed: u64) {
    header("wire — v2 JSON lines vs v3 columnar frames over loopback TCP");
    let r = experiments::wire_bench(scale, seed);
    println!(
        "model: {} rows, {} trees (tiny on purpose — the bench isolates wire cost)",
        r.n_rows, r.n_trees
    );
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "scenarios",
        "v2 ms",
        "v2 bytes",
        "v3 ms",
        "v3 bytes",
        "v3+lz4 ms",
        "v3+lz4 B",
        "wall x",
        "bytes x"
    );
    for g in &r.grids {
        println!(
            "{:>10} {:>12.1} {:>12} {:>12.1} {:>12} {:>12.1} {:>12} {:>8.1} {:>8.1}",
            g.n_scenarios,
            g.v2_json_ms,
            g.v2_json_bytes,
            g.v3_plain_ms,
            g.v3_plain_bytes,
            g.v3_lz4_ms,
            g.v3_lz4_bytes,
            g.wall_speedup,
            g.bytes_reduction
        );
    }
    experiments::write_wire_bench_json("BENCH_wire.json", &r).expect("write BENCH_wire.json");
    println!("wrote BENCH_wire.json");
}

fn obs(scale: Scale, seed: u64) {
    header("obs — instrumentation overhead on the cached slider hot path");
    let r = experiments::obs_bench(scale, seed);
    println!(
        "model: {} rows, {} trees; {} requests/pass x {} reps, cache hit rate {:.3}",
        r.n_rows, r.n_trees, r.requests, r.reps, r.cache_hit_rate
    );
    println!(
        "envelope path: {:.2} -> {:.2} us/req ({:+.2}% with instrumentation on)",
        r.engine_off_us_per_req, r.engine_on_us_per_req, r.engine_overhead_pct
    );
    println!(
        "json-line path: {:.2} -> {:.2} us/req ({:+.2}% with instrumentation on, target < 2%)",
        r.json_off_us_per_req, r.json_on_us_per_req, r.json_overhead_pct
    );
    experiments::write_obs_bench_json("BENCH_obs.json", &r).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");
}

fn robustness(scale: Scale, seed: u64) {
    header("robustness — importance stability across model seeds (paper §5)");
    let e = experiments::robustness(scale, seed);
    println!(
        "across {} differently-seeded forests: mean pairwise kendall tau = {:.3}, top-3 set stability = {:.0}%",
        e.n_seeds,
        e.mean_pairwise_tau,
        100.0 * e.top3_stability
    );
}
