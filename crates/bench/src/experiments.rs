//! One function per paper artifact (see DESIGN.md §4 for the index).
//!
//! Every function returns a structured result whose fields carry both
//! the paper's reported numbers and the reproduction's measured ones, so
//! the `repro` binary, EXPERIMENTS.md, and the integration tests all
//! read from the same source of truth.

use whatif_core::bulk::{ScenarioOutcome, ScenarioSet, ScenarioSpec};
use whatif_core::goal::{Goal, GoalConfig, GoalInversionResult, OptimizerChoice};
use whatif_core::importance::{DriverImportance, VerificationReport};
use whatif_core::model_backend::ModelConfig;
use whatif_core::perturbation::{Perturbation, PerturbationSet};
use whatif_core::sensitivity::{ComparisonCurve, SensitivityResult};
use whatif_core::session::Session;
use whatif_core::{DriverConstraint, TrainedModel};
use whatif_datagen::{deal_closing, marketing_mix, retention, Dataset};
use whatif_learn::shapley::ShapleyConfig;
use whatif_study::simulate::{simulate_rankings, RankingSummary, StudyConfig};
use whatif_study::{figure3, simulate::LikertSummary};

/// Paper constants from the Figure 2 walkthrough (§2).
pub mod paper {
    /// Deal-closing rate on the original data implied by §2 H/I
    /// (43.24 − 1.35 and 90.54 − 48.65 both give 41.89).
    pub const BASE_CLOSE_RATE: f64 = 0.4189;
    /// KPI after the +40 % Open Marketing Email perturbation.
    pub const SENSITIVITY_KPI: f64 = 0.4324;
    /// Uplift of that perturbation.
    pub const SENSITIVITY_UPLIFT: f64 = 0.0135;
    /// Constrained goal inversion optimum (OME ∈ [+40 %, +80 %]).
    pub const CONSTRAINED_KPI: f64 = 0.9054;
    /// Uplift of the constrained optimum.
    pub const CONSTRAINED_UPLIFT: f64 = 0.4865;
    /// Top-3 drivers from §2 E.
    pub const TOP3: [&str; 3] = ["Open Marketing Email", "Renewal", "Call"];
    /// Bottom-3 drivers from §2 E (least important last).
    pub const BOTTOM3: [&str; 3] = ["Meeting", "Initiate New Contact", "LinkedIn Contact"];
}

/// Experiment scale: `Full` reproduces the paper-sized configuration,
/// `Quick` shrinks everything for fast CI/tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-sized (2000 prospects, 120 trees, 96 optimizer calls).
    Full,
    /// Test-sized (320 prospects, 24 trees, 32 optimizer calls).
    Quick,
}

impl Scale {
    fn deal_rows(self) -> usize {
        match self {
            Scale::Full => 2000,
            Scale::Quick => 600,
        }
    }

    fn retention_rows(self) -> usize {
        match self {
            Scale::Full => 1200,
            Scale::Quick => 320,
        }
    }

    fn model_config(self) -> ModelConfig {
        let mut cfg = ModelConfig::default();
        match self {
            Scale::Full => {
                cfg.n_trees = 120;
                cfg.max_depth = 16;
                cfg.max_features = Some(6);
            }
            Scale::Quick => {
                cfg.n_trees = 24;
                cfg.max_depth = 8;
            }
        }
        cfg
    }

    fn optimizer_calls(self) -> usize {
        match self {
            Scale::Full => 96,
            Scale::Quick => 32,
        }
    }

    fn study_config(self) -> StudyConfig {
        StudyConfig {
            n_replications: match self {
                Scale::Full => 2000,
                Scale::Quick => 200,
            },
            ..Default::default()
        }
    }
}

/// Train the deal-closing model used by the Figure 2 experiments.
///
/// # Panics
/// Panics on internal errors — experiments are top-level binaries and a
/// failure should abort loudly.
pub fn train_deal_model(scale: Scale, seed: u64) -> (Dataset, TrainedModel) {
    let dataset = deal_closing(scale.deal_rows(), seed);
    let refs = dataset.driver_refs();
    let session = Session::new(dataset.frame.clone())
        .with_kpi(&dataset.kpi)
        .expect("KPI exists")
        .with_drivers(&refs)
        .expect("drivers exist");
    let model = session
        .train(&scale.model_config())
        .expect("training succeeds");
    (dataset, model)
}

/// Figure 2 E: driver importance + verification vs ground truth.
#[derive(Debug, Clone)]
pub struct ImportanceExperiment {
    /// Model importances.
    pub importance: DriverImportance,
    /// Shapley/Pearson/Spearman verification.
    pub verification: VerificationReport,
    /// Ground-truth ranking from the generator.
    pub truth_ranking: Vec<String>,
    /// Paper's published top-3.
    pub paper_top3: [&'static str; 3],
    /// Paper's published bottom-3.
    pub paper_bottom3: [&'static str; 3],
    /// Model top-3 ∩ paper top-3 (0..=3).
    pub top3_matches: usize,
    /// Model bottom-3 ∩ paper bottom-3 (0..=3).
    pub bottom3_matches: usize,
}

/// Run the Figure 2 E experiment.
pub fn fig2_importance(scale: Scale, seed: u64) -> ImportanceExperiment {
    let (dataset, model) = train_deal_model(scale, seed);
    let importance = model.driver_importance().expect("model fitted");
    let shapley = ShapleyConfig {
        n_permutations: match scale {
            Scale::Full => 24,
            Scale::Quick => 10,
        },
        n_rows: match scale {
            Scale::Full => 64,
            Scale::Quick => 24,
        },
        seed,
    };
    let verification = model
        .verify_importance(&shapley)
        .expect("verification runs");
    let ranked = importance.ranked_names();
    let top3_matches = ranked[..3]
        .iter()
        .filter(|d| paper::TOP3.contains(d))
        .count();
    let bottom3_matches = ranked[ranked.len() - 3..]
        .iter()
        .filter(|d| paper::BOTTOM3.contains(d))
        .count();
    ImportanceExperiment {
        importance,
        verification,
        truth_ranking: dataset
            .truth
            .ranked_names()
            .into_iter()
            .map(str::to_owned)
            .collect(),
        paper_top3: paper::TOP3,
        paper_bottom3: paper::BOTTOM3,
        top3_matches,
        bottom3_matches,
    }
}

/// Figure 2 H: the +40 % Open Marketing Email sensitivity run.
#[derive(Debug, Clone)]
pub struct SensitivityExperiment {
    /// Measured result.
    pub result: SensitivityResult,
    /// Paper baseline KPI.
    pub paper_baseline: f64,
    /// Paper perturbed KPI.
    pub paper_kpi: f64,
    /// Paper uplift.
    pub paper_uplift: f64,
}

/// Run the Figure 2 H experiment.
pub fn fig2_sensitivity(scale: Scale, seed: u64) -> SensitivityExperiment {
    let (_, model) = train_deal_model(scale, seed);
    let set = PerturbationSet::new(vec![Perturbation::percentage("Open Marketing Email", 40.0)]);
    SensitivityExperiment {
        result: model.sensitivity(&set).expect("valid perturbation"),
        paper_baseline: paper::BASE_CLOSE_RATE,
        paper_kpi: paper::SENSITIVITY_KPI,
        paper_uplift: paper::SENSITIVITY_UPLIFT,
    }
}

/// Figure 2 I: free + constrained goal inversion.
#[derive(Debug, Clone)]
pub struct GoalExperiment {
    /// Free maximization over default bounds.
    pub free: GoalInversionResult,
    /// Constrained run (OME ∈ [+40 %, +80 %]).
    pub constrained: GoalInversionResult,
    /// Paper's constrained optimum KPI.
    pub paper_kpi: f64,
    /// Paper's constrained uplift.
    pub paper_uplift: f64,
}

/// Run the Figure 2 I experiment.
pub fn fig2_goal_inversion(scale: Scale, seed: u64) -> GoalExperiment {
    let (_, model) = train_deal_model(scale, seed);
    let mut free_cfg = GoalConfig::for_goal(Goal::Maximize);
    free_cfg.optimizer = OptimizerChoice::Bayesian {
        n_calls: scale.optimizer_calls(),
    };
    free_cfg.seed = seed;
    let free = model.goal_inversion(&free_cfg).expect("free inversion");

    let mut con_cfg =
        GoalConfig::for_goal(Goal::Maximize).with_constraints(vec![DriverConstraint::new(
            "Open Marketing Email",
            40.0,
            80.0,
        )]);
    con_cfg.optimizer = OptimizerChoice::Bayesian {
        n_calls: scale.optimizer_calls(),
    };
    con_cfg.seed = seed;
    let constrained = model
        .goal_inversion(&con_cfg)
        .expect("constrained inversion");

    GoalExperiment {
        free,
        constrained,
        paper_kpi: paper::CONSTRAINED_KPI,
        paper_uplift: paper::CONSTRAINED_UPLIFT,
    }
}

/// Figure 3: paper-vs-simulated Likert bars.
pub fn fig3(scale: Scale) -> Vec<LikertSummary> {
    figure3(&scale.study_config())
}

/// §4 rankings: simulated first/last-choice distribution.
pub fn sec4_rankings(scale: Scale) -> RankingSummary {
    simulate_rankings(&scale.study_config())
}

/// Train the marketing-mix sales model used by the U1 experiment and
/// the bulk-scenario benchmarks.
///
/// # Panics
/// Panics on internal errors — experiments are top-level binaries and a
/// failure should abort loudly.
pub fn train_marketing_model(scale: Scale, seed: u64) -> (Dataset, TrainedModel) {
    let days = match scale {
        Scale::Full => 360,
        Scale::Quick => 180,
    };
    let dataset = marketing_mix(days, seed);
    let refs = dataset.driver_refs();
    let session = Session::new(dataset.frame.clone())
        .with_kpi(&dataset.kpi)
        .expect("KPI exists")
        .with_drivers(&refs)
        .expect("drivers exist");
    let model = session
        .train(&scale.model_config())
        .expect("training succeeds");
    (dataset, model)
}

/// A deterministic grid of `n` heterogeneous scenarios over the given
/// drivers: alternating single- and two-driver perturbations, mixed
/// percentage/absolute kinds — the workload shape of the
/// `bench_scenarios` clone-vs-overlay comparison.
pub fn scenario_grid(drivers: &[String], n: usize, seed: u64) -> Vec<ScenarioSpec> {
    (0..n)
        .map(|i| {
            let k = (seed as usize).wrapping_add(i * 7919);
            let d0 = &drivers[k % drivers.len()];
            let pct = -50.0 + (k % 29) as f64 * 5.0;
            let mut perturbations = vec![Perturbation::percentage(d0.clone(), pct)];
            if i % 2 == 1 {
                let d1 = &drivers[(k / drivers.len() + 1) % drivers.len()];
                if d1 != d0 {
                    perturbations.push(Perturbation::absolute(d1.clone(), (k % 11) as f64 - 5.0));
                }
            }
            ScenarioSpec::new(format!("grid-{i}"), PerturbationSet::new(perturbations))
        })
        .collect()
}

/// The legacy scenario-evaluation path: clone the full training matrix
/// per scenario, predict row by row. Kept as the baseline side of the
/// `bench_scenarios` comparison and the reference the equivalence tests
/// pin the overlay path against.
///
/// # Panics
/// Panics on invalid scenarios — benchmark inputs are trusted.
pub fn eval_scenarios_clone_path(model: &TrainedModel, specs: &[ScenarioSpec]) -> Vec<f64> {
    specs
        .iter()
        .map(|s| {
            let cloned = s
                .perturbations
                .apply_to_matrix(model.matrix(), model.driver_names())
                .expect("valid scenario");
            let preds: Vec<f64> = (0..cloned.n_rows())
                .map(|i| model.predict_row(cloned.row(i)).expect("prediction"))
                .collect();
            preds.iter().sum::<f64>() / preds.len() as f64
        })
        .collect()
}

/// The overlay path for the same workload: one `ScenarioSet` call.
///
/// # Panics
/// Panics on invalid scenarios — benchmark inputs are trusted.
pub fn eval_scenarios_overlay_path(
    model: &TrainedModel,
    specs: &[ScenarioSpec],
    n_threads: usize,
) -> Vec<ScenarioOutcome> {
    model
        .evaluate_scenarios(&ScenarioSet::new(specs.to_vec()).with_threads(n_threads))
        .expect("valid scenarios")
}

/// One simulated slider lap: what a single analyst pass over the
/// sensitivity view costs. For every driver the lap sweeps the slider
/// across [`SLIDER_POSITIONS`] percentage stops (one sensitivity
/// evaluation each), then runs one Excel-style goal seek on the first
/// driver — the mixed re-evaluation workload the paper's interactive
/// loop produces, where real sessions revisit the same stops
/// constantly.
pub const SLIDER_POSITIONS: [f64; 12] = [
    -50.0, -40.0, -30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 40.0, 60.0, 80.0, 120.0,
];

/// Outcome of a slider-loop run (see [`slider_loop`]).
#[derive(Debug, Clone)]
pub struct SliderLoopReport {
    /// Total KPI evaluations requested across all laps.
    pub evaluations: usize,
    /// Fraction of evaluations served from the cache (0 when uncached).
    pub hit_rate: f64,
    /// Order-stable sum of every KPI produced — the cached and uncached
    /// paths must agree on this bit for bit.
    pub checksum: f64,
}

/// Run `laps` identical slider laps, through the result cache when one
/// is given. The first lap is all misses; every later lap replays the
/// same questions, which is exactly the repetition profile the cache
/// is built for (`bench_cache` measures the speedup, the unit test
/// pins bit-identity).
///
/// # Panics
/// Panics on evaluation errors — benchmark inputs are trusted.
pub fn slider_loop(
    model: &TrainedModel,
    cache: Option<&whatif_core::EvalCache>,
    laps: usize,
) -> SliderLoopReport {
    let drivers: Vec<String> = model.driver_names().to_vec();
    let mut evaluations = 0usize;
    let mut hits = 0usize;
    let mut checksum = 0.0f64;
    for _ in 0..laps {
        for driver in &drivers {
            for &pct in &SLIDER_POSITIONS {
                let set = PerturbationSet::new(vec![Perturbation::percentage(driver.clone(), pct)]);
                evaluations += 1;
                let kpi = match cache {
                    Some(cache) => {
                        let (s, hit) = model.sensitivity_cached(&set, cache).expect("valid driver");
                        hits += usize::from(hit);
                        s.perturbed_kpi
                    }
                    None => model.sensitivity(&set).expect("valid driver").perturbed_kpi,
                };
                checksum += kpi;
            }
        }
        let target = model.baseline_kpi() * 1.02;
        evaluations += 1;
        let seek_kpi = match cache {
            Some(cache) => {
                let (r, hit) = model
                    .goal_seek_driver_cached(&drivers[0], target, -50.0, 120.0, 1e-9, cache)
                    .expect("valid seek");
                hits += usize::from(hit);
                r.achieved_kpi
            }
            None => {
                model
                    .goal_seek_driver(&drivers[0], target, -50.0, 120.0, 1e-9)
                    .expect("valid seek")
                    .achieved_kpi
            }
        };
        checksum += seek_kpi;
    }
    SliderLoopReport {
        evaluations,
        hit_rate: if evaluations == 0 {
            0.0
        } else {
            hits as f64 / evaluations as f64
        },
        checksum,
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn write_json<T: serde::Serialize>(path: &str, report: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json + "\n")
}

/// One scenario-grid size measured across the three wire paths: a v2
/// JSON-lines envelope, v3 binary frames with compression declined, and
/// v3 with LZ4-style frame compression.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WireGridMeasurement {
    /// Scenarios in the grid.
    pub n_scenarios: usize,
    /// Wall ms for one `EvaluateScenarios` envelope over JSON lines.
    pub v2_json_ms: f64,
    /// Bytes on the wire for the v2 exchange (request + reply).
    pub v2_json_bytes: u64,
    /// Wall ms for the v3 columnar exchange, uncompressed frames.
    pub v3_plain_ms: f64,
    /// Bytes on the wire for the uncompressed v3 exchange.
    pub v3_plain_bytes: u64,
    /// Wall ms for the v3 columnar exchange, compressed frames.
    pub v3_lz4_ms: f64,
    /// Bytes on the wire for the compressed v3 exchange.
    pub v3_lz4_bytes: u64,
    /// `v2_json_ms / v3_lz4_ms`.
    pub wall_speedup: f64,
    /// `v2_json_bytes / v3_lz4_bytes`.
    pub bytes_reduction: f64,
}

/// Machine-readable report of the wire-protocol benchmark, written to
/// `BENCH_wire.json` by `benches/bench_wire.rs` (and the `repro`
/// binary's `wire` experiment): the same scenario grids priced over
/// real loopback TCP through v2 JSON lines and both v3 framings.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WireBenchReport {
    /// Dataset rows behind the session (kept small: the bench isolates
    /// wire cost, not model cost — all three paths pay the same
    /// evaluation work).
    pub n_rows: usize,
    /// Trees in the (deliberately tiny) forest.
    pub n_trees: usize,
    /// One measurement per grid size, ascending.
    pub grids: Vec<WireGridMeasurement>,
}

/// Price identical scenario grids through all three wire protocols
/// against one live TCP server, measuring wall clock and true
/// bytes-on-wire. The engine's result cache is disabled so the second
/// and third runs cannot ride the first run's computations, and every
/// v3 KPI column is checked bit-for-bit against the v2 JSON outcomes.
///
/// # Panics
/// Panics on internal errors — experiments are top-level binaries and a
/// failure should abort loudly.
pub fn wire_bench(scale: Scale, seed: u64) -> WireBenchReport {
    use std::time::Instant;
    use whatif_server::v3::specs_to_grid;
    use whatif_server::{serve, Client, Envelope, Reply, Request, Response, UseCase, V3Client};
    use whatif_wire::Compression;

    // A tiny model keeps per-scenario evaluation cheap, so the numbers
    // compare serialization and transport, which is what v3 changes.
    let n_rows = 32usize;
    let config = ModelConfig {
        n_trees: 4,
        max_depth: 4,
        ..ModelConfig::default()
    };

    let (addr, handle) = serve("127.0.0.1:0").expect("bind");
    let mut setup = Client::connect(addr).expect("connect");
    // With the cache on, whichever protocol runs first would pay for
    // the model work and the others would hit cached results.
    assert!(!setup
        .call(&Request::ConfigureCache {
            capacity_bytes: None,
            enabled: Some(false),
        })
        .expect("configure cache")
        .is_error());
    let session = match setup
        .call(&Request::LoadUseCase {
            use_case: UseCase::DealClosing,
            n_rows: Some(n_rows),
            seed: Some(seed),
        })
        .expect("load")
    {
        Response::SessionCreated { session, .. } => session,
        other => panic!("unexpected: {other:?}"),
    };
    assert!(!setup
        .call(&Request::SelectKpi {
            session,
            kpi: "Deal Closed?".into(),
        })
        .expect("kpi")
        .is_error());
    assert!(!setup
        .call(&Request::Train {
            session,
            config: Some(config.clone()),
        })
        .expect("train")
        .is_error());

    let drivers = ["Open Marketing Email", "Renewal", "Call", "Chat"];
    let specs_for = |n: usize| -> Vec<ScenarioSpec> {
        (0..n)
            .map(|i| {
                let driver = drivers[i % drivers.len()];
                let pct = ((i * 37) % 151) as f64 - 50.0;
                ScenarioSpec::new(
                    format!("s{i}"),
                    PerturbationSet::new(vec![Perturbation::percentage(driver, pct)]),
                )
            })
            .collect()
    };

    // One small untimed round through each path to warm connections,
    // thread pools, and allocator arenas.
    {
        let warm = specs_for(64);
        let mut v2 = Client::connect(addr).expect("connect");
        let reply = v2
            .call_v2(
                0,
                Request::EvaluateScenarios {
                    session,
                    scenarios: warm.clone(),
                    record: false,
                    n_threads: None,
                },
            )
            .expect("warm-up");
        assert!(!reply.is_error());
        let mut v3 = V3Client::connect(addr).expect("connect");
        v3.evaluate_grid(0, specs_to_grid(session, &warm, false, None))
            .expect("warm-up");
    }

    let sizes: &[usize] = match scale {
        Scale::Full => &[1_000, 10_000, 100_000],
        Scale::Quick => &[200, 1_000, 5_000],
    };
    let mut grids = Vec::new();
    for &n in sizes {
        let specs = specs_for(n);

        // v2: the whole grid as one JSON envelope, one JSON reply
        // line. The timer covers the full application-visible exchange
        // — client-side encode, round trip, client-side decode — the
        // same span `evaluate_grid` pays on the v3 side.
        let mut v2 = Client::connect(addr).expect("connect");
        let request = Request::EvaluateScenarios {
            session,
            scenarios: specs.clone(),
            record: false,
            n_threads: None,
        };
        let t = Instant::now();
        let line = serde_json::to_string(&Envelope::new(1, request)).expect("encode");
        let reply_line = v2.send_raw(&line).expect("round trip");
        let reply: Reply = serde_json::from_str(&reply_line).expect("parse");
        let v2_json_ms = ms(t.elapsed());
        let v2_json_bytes = (line.len() + 1 + reply_line.len()) as u64;
        let Response::ScenariosEvaluated { outcomes, .. } = reply.into_result().expect("evaluates")
        else {
            panic!("expected ScenariosEvaluated");
        };
        assert_eq!(outcomes.len(), n);

        // v3: the same grid as columnar frames, plain then compressed.
        let run_v3 = |compression: Compression| -> (f64, u64) {
            let mut v3 = V3Client::connect(addr).expect("connect");
            v3.compression = compression;
            let grid = specs_to_grid(session, &specs, false, None);
            let t = Instant::now();
            let streamed = v3.evaluate_grid(1, grid).expect("grid evaluates");
            let elapsed = ms(t.elapsed());
            assert_eq!(streamed.kpi.len(), n);
            // Same engine, same inputs: the columnar path must agree
            // with the JSON path bit for bit.
            for (columnar, row) in streamed.kpi.iter().zip(&outcomes) {
                assert_eq!(
                    columnar.to_bits(),
                    row.kpi.to_bits(),
                    "columnar KPI diverged from the JSON outcome"
                );
            }
            (elapsed, v3.bytes_sent() + v3.bytes_received())
        };
        let (v3_plain_ms, v3_plain_bytes) = run_v3(Compression::None);
        let (v3_lz4_ms, v3_lz4_bytes) = run_v3(Compression::Lz4Like);

        grids.push(WireGridMeasurement {
            n_scenarios: n,
            v2_json_ms,
            v2_json_bytes,
            v3_plain_ms,
            v3_plain_bytes,
            v3_lz4_ms,
            v3_lz4_bytes,
            wall_speedup: v2_json_ms / v3_lz4_ms,
            bytes_reduction: v2_json_bytes as f64 / v3_lz4_bytes as f64,
        });
    }

    setup.call(&Request::Shutdown).expect("shutdown");
    handle.join().expect("server exits");
    WireBenchReport {
        n_rows,
        n_trees: config.n_trees,
        grids,
    }
}

/// Serialize a [`WireBenchReport`] to `path` (the `BENCH_wire.json`
/// emitter).
///
/// # Errors
/// Propagated I/O errors from writing the file.
pub fn write_wire_bench_json(path: &str, report: &WireBenchReport) -> std::io::Result<()> {
    write_json(path, report)
}

/// Machine-readable report of the observability overhead benchmark,
/// written to `BENCH_obs.json` by `benches/bench_obs.rs` and the
/// `repro` binary's `obs` experiment. It answers one question: what
/// does the always-on instrumentation (per-request counters, latency
/// histograms, stage spans, slow-query check) cost on the cached
/// slider hot path, measured as enabled-vs-disabled on the same binary
/// via the `whatif_obs` kill switch.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ObsBenchReport {
    /// Dataset rows behind the trained session.
    pub n_rows: usize,
    /// Trees in the (deliberately small) forest.
    pub n_trees: usize,
    /// Slider laps per timed pass.
    pub laps: usize,
    /// Requests dispatched per timed pass (`laps` × lap length).
    pub requests: usize,
    /// Interleaved repetitions; each number below is the min across
    /// them.
    pub reps: usize,
    /// Result-cache hit rate over the whole run — the target workload
    /// is the *cached* hot path, so this should be close to 1.
    pub cache_hit_rate: f64,
    /// µs per request through `Engine::handle_envelope` (no JSON),
    /// instrumentation off.
    pub engine_off_us_per_req: f64,
    /// Same, instrumentation on.
    pub engine_on_us_per_req: f64,
    /// `(on − off) / off` in percent for the envelope path.
    pub engine_overhead_pct: f64,
    /// µs per request through `Engine::dispatch_line` (parse + dispatch
    /// + serialize — the full v2 server path), instrumentation off.
    pub json_off_us_per_req: f64,
    /// Same, instrumentation on.
    pub json_on_us_per_req: f64,
    /// `(on − off) / off` in percent for the JSON-line path. This is
    /// the number the <2 % overhead target is pinned on: it is what a
    /// TCP client actually pays per request.
    pub json_overhead_pct: f64,
}

/// Measure instrumented-vs-uninstrumented dispatch on the slider-loop
/// workload: every driver swept across [`SLIDER_POSITIONS`] sensitivity
/// stops plus one goal inversion per lap, all served from the warm
/// result cache. The same engine runs with the `whatif_obs` kill
/// switch on and off in interleaved repetitions (min taken) so the
/// difference isolates the instrumentation itself.
///
/// # Panics
/// Panics on dispatch errors — benchmark inputs are trusted.
pub fn obs_bench(scale: Scale, seed: u64) -> ObsBenchReport {
    use std::time::Instant;
    use whatif_server::{Engine, Envelope, Request, Response};

    // The measured deltas are tens of nanoseconds per request, so the
    // rep count is high: min-of-reps over interleaved passes needs many
    // samples before scheduler noise (±1.5 points run to run at 7 reps)
    // stops dominating the overhead percentage.
    let (n_rows, n_trees, laps, reps) = match scale {
        Scale::Full => (600, 16, 40, 80),
        Scale::Quick => (200, 8, 6, 3),
    };

    let engine = Engine::new();
    let session = match engine
        .handle(Request::LoadUseCase {
            use_case: whatif_server::UseCase::DealClosing,
            n_rows: Some(n_rows),
            seed: Some(seed),
        })
        .expect("load use case")
    {
        Response::SessionCreated { session, .. } => session,
        other => panic!("unexpected: {other:?}"),
    };
    engine
        .handle(Request::SelectKpi {
            session,
            kpi: "Deal Closed?".into(),
        })
        .expect("select kpi");
    let config = ModelConfig {
        n_trees,
        max_depth: 6,
        ..ModelConfig::default()
    };
    engine
        .handle(Request::Train {
            session,
            config: Some(config),
        })
        .expect("train");

    // One analyst lap: each driver swept across the slider stops, then
    // one Excel-style inversion. Identical laps replay the same cache
    // keys — the interactive re-evaluation profile the cache serves.
    let drivers = ["Open Marketing Email", "Renewal", "Call", "Chat"];
    let mut lap: Vec<Request> = Vec::new();
    for driver in drivers {
        for &pct in &SLIDER_POSITIONS {
            lap.push(Request::SensitivityView {
                session,
                perturbations: vec![Perturbation::percentage(driver, pct)],
            });
        }
    }
    lap.push(Request::GoalInversionView {
        session,
        goal: Goal::Maximize,
        constraints: vec![],
        optimizer: None,
        seed,
    });
    let lines: Vec<String> = lap
        .iter()
        .enumerate()
        .map(|(i, req)| {
            serde_json::to_string(&Envelope::new(i as u64, req.clone())).expect("serialize")
        })
        .collect();
    let requests = laps * lap.len();

    // Chunk size for paired timing: big enough that branch-predictor
    // re-warm after an on/off flip is diluted, small enough that slow
    // drift stays common to both halves of a pair.
    const CHUNK_LAPS: usize = 5;
    let run_chunk_envelopes = |engine: &Engine| -> std::time::Duration {
        let t = Instant::now();
        for _ in 0..CHUNK_LAPS {
            for (i, req) in lap.iter().enumerate() {
                let reply = engine.handle_envelope(Envelope::new(i as u64, req.clone()));
                assert!(reply.error.is_none(), "dispatch failed: {:?}", reply.error);
            }
        }
        t.elapsed()
    };
    let run_chunk_lines = |engine: &Engine| -> std::time::Duration {
        let t = Instant::now();
        for _ in 0..CHUNK_LAPS {
            for line in &lines {
                let (reply, _) = engine.dispatch_line(line);
                std::hint::black_box(&reply);
            }
        }
        t.elapsed()
    };

    // Warm pass: fills the result cache (later passes are ~all hits)
    // and pre-faults allocator arenas.
    whatif_obs::set_enabled(true);
    run_chunk_envelopes(&engine);
    run_chunk_lines(&engine);

    // Paired measurement: the signal is tens of nanoseconds per request,
    // far below pass-level scheduler noise. Each chunk is timed
    // instrumented and uninstrumented back to back and only the
    // *difference* is kept, so drift that moves both timings together
    // (thermal, frequency, interference) cancels; the median over all
    // paired deltas is then added to the fastest observed baseline
    // chunk. Far more stable run-to-run than comparing two
    // independently-taken minimums.
    let pairs = (laps * reps).div_ceil(CHUNK_LAPS);
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let mut engine_off = f64::INFINITY;
    let mut json_off = f64::INFINITY;
    let mut engine_deltas = Vec::with_capacity(pairs);
    let mut json_deltas = Vec::with_capacity(pairs);
    // ABBA ordering: alternate which mode runs first within a pair, so
    // any systematic first-vs-second effect (cache state left by the
    // previous chunk) cancels across pairs instead of biasing the delta.
    for i in 0..pairs {
        let on_first = i % 2 == 0;
        whatif_obs::set_enabled(on_first);
        let first = us(run_chunk_envelopes(&engine));
        whatif_obs::set_enabled(!on_first);
        let second = us(run_chunk_envelopes(&engine));
        let (on, off) = if on_first {
            (first, second)
        } else {
            (second, first)
        };
        engine_off = engine_off.min(off);
        engine_deltas.push(on - off);
    }
    for i in 0..pairs {
        let on_first = i % 2 == 0;
        whatif_obs::set_enabled(on_first);
        let first = us(run_chunk_lines(&engine));
        whatif_obs::set_enabled(!on_first);
        let second = us(run_chunk_lines(&engine));
        let (on, off) = if on_first {
            (first, second)
        } else {
            (second, first)
        };
        json_off = json_off.min(off);
        json_deltas.push(on - off);
    }
    // The kill switch is process-global: leave it the way servers run.
    whatif_obs::set_enabled(true);

    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        xs[xs.len() / 2]
    };
    let chunk_len = (lap.len() * CHUNK_LAPS) as f64;
    let engine_on = engine_off + median(&mut engine_deltas);
    let json_on = json_off + median(&mut json_deltas);

    let per_req = |chunk_us: f64| chunk_us / chunk_len;
    let overhead = |on: f64, off: f64| (on - off) / off * 100.0;
    ObsBenchReport {
        n_rows,
        n_trees,
        laps,
        requests,
        reps,
        cache_hit_rate: engine.cache().stats().hit_rate(),
        engine_off_us_per_req: per_req(engine_off),
        engine_on_us_per_req: per_req(engine_on),
        engine_overhead_pct: overhead(engine_on, engine_off),
        json_off_us_per_req: per_req(json_off),
        json_on_us_per_req: per_req(json_on),
        json_overhead_pct: overhead(json_on, json_off),
    }
}

/// Serialize an [`ObsBenchReport`] to `path` (the `BENCH_obs.json`
/// emitter).
///
/// # Errors
/// Propagated I/O errors from writing the file.
pub fn write_obs_bench_json(path: &str, report: &ObsBenchReport) -> std::io::Result<()> {
    write_json(path, report)
}

/// U1: marketing mix — importance ranking plus a budget-style
/// constrained inversion.
#[derive(Debug, Clone)]
pub struct MarketingExperiment {
    /// Channel importances from the (linear) sales model.
    pub importance: DriverImportance,
    /// Ground-truth channel ranking.
    pub truth_ranking: Vec<String>,
    /// Constrained maximization: every channel within ±50 % of current
    /// spend (the "budget reality" constraint).
    pub budget_result: GoalInversionResult,
    /// Comparison sweep used to pick the channel to boost.
    pub comparison: Vec<ComparisonCurve>,
    /// Model confidence (holdout R²).
    pub confidence: f64,
}

/// Run the U1 experiment.
pub fn u1_marketing(scale: Scale, seed: u64) -> MarketingExperiment {
    let (dataset, model) = train_marketing_model(scale, seed);
    let importance = model.driver_importance().expect("model fitted");
    let comparison = model
        .comparison_analysis(&[-40.0, -20.0, 0.0, 20.0, 40.0])
        .expect("sweep runs");
    let mut cfg = GoalConfig::for_goal(Goal::Maximize).with_constraints(
        dataset
            .drivers
            .iter()
            .map(|d| DriverConstraint::new(d.clone(), -50.0, 50.0))
            .collect(),
    );
    cfg.optimizer = OptimizerChoice::Bayesian {
        n_calls: scale.optimizer_calls(),
    };
    cfg.seed = seed;
    let budget_result = model.goal_inversion(&cfg).expect("inversion runs");
    MarketingExperiment {
        importance,
        truth_ranking: dataset
            .truth
            .ranked_names()
            .into_iter()
            .map(str::to_owned)
            .collect(),
        budget_result,
        comparison,
        confidence: model.confidence(),
    }
}

/// U2: retention — the "remove the obvious predictor and rerun" episode.
#[derive(Debug, Clone)]
pub struct RetentionExperiment {
    /// Importance with all drivers (Days Active dominates).
    pub importance_full: DriverImportance,
    /// Importance after removing the obvious predictor.
    pub importance_reduced: DriverImportance,
    /// The removed driver.
    pub removed: String,
    /// Maximization of retention after the removal.
    pub goal: GoalInversionResult,
    /// The negative driver the view renders in red.
    pub negative_driver: String,
}

/// Run the U2 experiment.
pub fn u2_retention(scale: Scale, seed: u64) -> RetentionExperiment {
    let dataset = retention(scale.retention_rows(), seed);
    let refs = dataset.driver_refs();
    let session = Session::new(dataset.frame.clone())
        .with_kpi(&dataset.kpi)
        .expect("KPI exists")
        .with_drivers(&refs)
        .expect("drivers exist");
    let model = session
        .train(&scale.model_config())
        .expect("training succeeds");
    let importance_full = model.driver_importance().expect("model fitted");

    let removed = "Days Active".to_owned();
    let reduced_session = session
        .without_drivers(&[&removed])
        .expect("driver present");
    let reduced_model = reduced_session
        .train(&scale.model_config())
        .expect("training succeeds");
    let importance_reduced = reduced_model.driver_importance().expect("model fitted");

    let mut cfg = GoalConfig::for_goal(Goal::Maximize);
    cfg.optimizer = OptimizerChoice::Bayesian {
        n_calls: scale.optimizer_calls(),
    };
    cfg.seed = seed;
    let goal = reduced_model.goal_inversion(&cfg).expect("inversion runs");
    RetentionExperiment {
        importance_full,
        importance_reduced,
        removed,
        goal,
        negative_driver: "Support Tickets".to_owned(),
    }
}

/// U3: deal closing — per-data drilldown and the "ideal customer
/// journey" (goal-inversion driver values).
#[derive(Debug, Clone)]
pub struct DealExperiment {
    /// A single prospect's predicted close probability before/after
    /// doubling their marketing-email opens.
    pub per_data_baseline: f64,
    /// After the per-data perturbation.
    pub per_data_perturbed: f64,
    /// Comparison sweep across all drivers.
    pub comparison: Vec<ComparisonCurve>,
    /// The "ideal customer journey": recommended mean activity levels.
    pub journey: Vec<(String, f64)>,
}

/// Run the U3 experiment.
pub fn u3_deal(scale: Scale, seed: u64) -> DealExperiment {
    let (_, model) = train_deal_model(scale, seed);
    let set = PerturbationSet::new(vec![Perturbation::percentage(
        "Open Marketing Email",
        100.0,
    )]);
    let per_data = model.per_data_sensitivity(0, &set).expect("row 0 exists");
    let comparison = model
        .comparison_analysis(&[-50.0, 0.0, 50.0, 100.0])
        .expect("sweep runs");
    let mut cfg = GoalConfig::for_goal(Goal::Maximize);
    cfg.optimizer = OptimizerChoice::Bayesian {
        n_calls: scale.optimizer_calls(),
    };
    cfg.seed = seed;
    let goal = model.goal_inversion(&cfg).expect("inversion runs");
    DealExperiment {
        per_data_baseline: per_data.baseline,
        per_data_perturbed: per_data.perturbed,
        comparison,
        journey: goal.driver_values,
    }
}

/// Optimizer shoot-out: best KPI per evaluation budget, per engine —
/// the "who wins, where's the crossover" series behind the goal bench.
#[derive(Debug, Clone)]
pub struct OptimizerComparison {
    /// Engine label.
    pub engine: &'static str,
    /// `(budget, best KPI at that budget)` series.
    pub series: Vec<(usize, f64)>,
}

/// Compare goal-inversion engines at equal budgets on the deal model.
pub fn optimizer_comparison(scale: Scale, seed: u64) -> Vec<OptimizerComparison> {
    let (_, model) = train_deal_model(scale, seed);
    let budgets: &[usize] = match scale {
        Scale::Full => &[16, 32, 64, 96],
        Scale::Quick => &[8, 16, 32],
    };
    type EngineFactory = Box<dyn Fn(usize) -> OptimizerChoice>;
    let engines: Vec<(&'static str, EngineFactory)> = vec![
        (
            "bayesian",
            Box::new(|b| OptimizerChoice::Bayesian { n_calls: b }),
        ),
        (
            "random",
            Box::new(|b| OptimizerChoice::RandomSearch { n_evals: b }),
        ),
        (
            "nelder-mead",
            Box::new(|b| OptimizerChoice::NelderMead { max_evals: b }),
        ),
    ];
    engines
        .into_iter()
        .map(|(name, make)| {
            let series = budgets
                .iter()
                .map(|&b| {
                    let mut cfg = GoalConfig::for_goal(Goal::Maximize);
                    cfg.optimizer = make(b);
                    cfg.seed = seed;
                    let r = model.goal_inversion(&cfg).expect("inversion runs");
                    (b, r.achieved_kpi)
                })
                .collect();
            OptimizerComparison {
                engine: name,
                series,
            }
        })
        .collect()
}

/// §5 robustness: stability of the importance ranking across model
/// seeds (the "multiplicity of explanatory models" concern).
#[derive(Debug, Clone)]
pub struct RobustnessExperiment {
    /// Mean pairwise Kendall tau between importance rankings across
    /// differently-seeded forests.
    pub mean_pairwise_tau: f64,
    /// Fraction of seeds whose top-3 equals the modal top-3.
    pub top3_stability: f64,
    /// Seeds used.
    pub n_seeds: usize,
}

/// Run the robustness experiment.
pub fn robustness(scale: Scale, base_seed: u64) -> RobustnessExperiment {
    let n_seeds = match scale {
        Scale::Full => 8,
        Scale::Quick => 4,
    };
    let dataset = deal_closing(scale.deal_rows(), base_seed);
    let refs = dataset.driver_refs();
    let session = Session::new(dataset.frame.clone())
        .with_kpi(&dataset.kpi)
        .expect("KPI exists")
        .with_drivers(&refs)
        .expect("drivers exist");
    let mut scores: Vec<Vec<f64>> = Vec::with_capacity(n_seeds);
    let mut top3s: Vec<Vec<String>> = Vec::with_capacity(n_seeds);
    for s in 0..n_seeds {
        let mut cfg = scale.model_config();
        cfg.seed = base_seed.wrapping_add(s as u64 * 101);
        let model = session.train(&cfg).expect("training succeeds");
        let imp = model.driver_importance().expect("model fitted");
        top3s.push(imp.top_k(3).into_iter().map(str::to_owned).collect());
        scores.push(imp.scores.iter().map(|v| v.abs()).collect());
    }
    let mut taus = Vec::new();
    for i in 0..n_seeds {
        for j in (i + 1)..n_seeds {
            taus.push(whatif_stats::kendall_tau(&scores[i], &scores[j]));
        }
    }
    let mean_pairwise_tau = taus.iter().sum::<f64>() / taus.len().max(1) as f64;
    // Modal top-3 set: count agreement with the first seed's set.
    let reference: std::collections::HashSet<&String> = top3s[0].iter().collect();
    let stable = top3s
        .iter()
        .filter(|t| t.iter().collect::<std::collections::HashSet<_>>() == reference)
        .count();
    RobustnessExperiment {
        mean_pairwise_tau,
        top3_stability: stable as f64 / n_seeds as f64,
        n_seeds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_importance_experiment_matches_paper_shape() {
        let e = fig2_importance(Scale::Quick, 7);
        assert_eq!(e.importance.driver_names.len(), 12);
        // At quick scale at least 2 of the paper's top-3 should surface
        // and the verification measures should broadly agree.
        assert!(e.top3_matches >= 2, "top3 matches {}", e.top3_matches);
        assert!(
            e.verification.tau_pearson > 0.2,
            "tau {}",
            e.verification.tau_pearson
        );
        assert_eq!(e.truth_ranking[0], "Open Marketing Email");
    }

    #[test]
    fn quick_sensitivity_experiment_has_small_positive_uplift() {
        let e = fig2_sensitivity(Scale::Quick, 7);
        assert!(
            e.result.uplift() > -0.01 && e.result.uplift() < 0.08,
            "uplift {:.4}",
            e.result.uplift()
        );
        assert!((e.result.baseline_kpi - e.paper_baseline).abs() < 0.1);
    }

    #[test]
    fn quick_goal_experiment_lifts_kpi_substantially() {
        let e = fig2_goal_inversion(Scale::Quick, 7);
        assert!(
            e.constrained.uplift() > 0.15,
            "constrained uplift {:.4}",
            e.constrained.uplift()
        );
        let ome = e
            .constrained
            .driver_percentages
            .iter()
            .find(|(d, _)| d == "Open Marketing Email")
            .unwrap()
            .1;
        assert!((40.0..=80.0).contains(&ome));
        assert!(e.free.achieved_kpi >= e.constrained.achieved_kpi - 0.05);
    }

    #[test]
    fn fig3_and_rankings_run_quick() {
        let bars = fig3(Scale::Quick);
        assert_eq!(bars.len(), 8);
        let rk = sec4_rankings(Scale::Quick);
        assert!(rk.modal_agreement > 0.3);
    }

    #[test]
    fn u1_marketing_runs_quick() {
        let e = u1_marketing(Scale::Quick, 11);
        assert_eq!(e.importance.driver_names.len(), 5);
        assert_eq!(e.truth_ranking[0], "Internet");
        assert!(e.budget_result.uplift() > 0.0);
        for (_, pct) in &e.budget_result.driver_percentages {
            assert!((-50.0..=50.0).contains(pct), "budget bound violated: {pct}");
        }
        assert!(e.confidence > 0.1, "confidence {}", e.confidence);
    }

    #[test]
    fn u2_retention_removal_changes_ranking() {
        let e = u2_retention(Scale::Quick, 13);
        assert_eq!(e.importance_full.ranked_names()[0], "Days Active");
        assert!(!e
            .importance_reduced
            .driver_names
            .contains(&"Days Active".to_owned()));
        assert!(e.goal.uplift() > 0.0);
        assert!(
            e.importance_full
                .score_of(&e.negative_driver)
                .unwrap()
                .abs()
                > 0.0
        );
    }

    #[test]
    fn u3_deal_runs_quick() {
        let e = u3_deal(Scale::Quick, 7);
        assert!((0.0..=1.0).contains(&e.per_data_baseline));
        assert!(e.per_data_perturbed >= 0.0);
        assert_eq!(e.comparison.len(), 12);
        assert_eq!(e.journey.len(), 12);
        assert!(e.journey.iter().all(|(_, v)| *v >= 0.0));
    }

    #[test]
    fn optimizer_comparison_runs_quick() {
        let rows = optimizer_comparison(Scale::Quick, 7);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.series.len(), 3);
            // Best-so-far KPI is non-decreasing in budget for seeded
            // engines sharing a trajectory prefix... not guaranteed across
            // independent runs, so just check sanity bounds.
            assert!(r.series.iter().all(|(_, k)| (0.0..=1.0).contains(k)));
        }
    }

    #[test]
    fn scenario_grid_overlay_path_matches_clone_path() {
        let (dataset, model) = train_marketing_model(Scale::Quick, 7);
        let specs = scenario_grid(&dataset.drivers, 25, 7);
        assert_eq!(specs.len(), 25);
        let clone_kpis = eval_scenarios_clone_path(&model, &specs);
        let overlay = eval_scenarios_overlay_path(&model, &specs, 4);
        assert_eq!(overlay.len(), 25);
        for (c, o) in clone_kpis.iter().zip(&overlay) {
            assert!(c.to_bits() == o.kpi.to_bits(), "paths diverged");
        }
    }

    #[test]
    fn slider_loop_cached_is_bit_identical_and_hits_on_replay() {
        let (_, model) = train_marketing_model(Scale::Quick, 7);
        let uncached = slider_loop(&model, None, 2);
        let cache = whatif_core::EvalCache::default();
        let cached = slider_loop(&model, Some(&cache), 2);
        assert_eq!(uncached.evaluations, cached.evaluations);
        assert!(
            cached.checksum.to_bits() == uncached.checksum.to_bits(),
            "cached slider loop drifted from uncached"
        );
        // Lap 2 replays lap 1 exactly, so at least half the
        // evaluations hit (the goal seek's probes overlap the sweep
        // stops, so in practice more do).
        assert!(cached.hit_rate >= 0.5, "hit rate {}", cached.hit_rate);
        assert!((0.0..=1.0).contains(&cached.hit_rate));
        assert_eq!(uncached.hit_rate, 0.0);
        let stats = cache.stats();
        assert!(stats.hits > 0 && stats.misses > 0);
    }

    #[test]
    fn robustness_is_high_on_clean_data() {
        let e = robustness(Scale::Quick, 7);
        assert_eq!(e.n_seeds, 4);
        assert!(e.mean_pairwise_tau > 0.4, "tau {}", e.mean_pairwise_tau);
        // Top-3 sets can wobble across seeds — that instability is the
        // §5 robustness finding itself; just require it isn't chaotic.
        assert!(e.top3_stability >= 0.25, "stability {}", e.top3_stability);
    }
}
