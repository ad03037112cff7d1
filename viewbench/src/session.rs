//! `session_cold`: one analyst's whole Figure 2 script on a fresh
//! dataset, then a colleague on the same data. Closed loop, one request
//! at a time.
//!
//! The analyst (v2) loads a new deal-closing seed, selects the KPI,
//! trains the exact forest, opens driver importance, drags one driver's
//! slider across all twelve stops (cold), then opens the comparison,
//! per-data and goal-inversion views. The colleague (a v3 client)
//! opens the same data: their exact `Train` is a model-store share, the
//! same twelve stops are cache hits, and a binned `Train` is a store
//! miss. Datagen, training, prediction and the optimizer do nearly all
//! the work here; the codec and the socket almost none.
//!
//! Every answer the analyst got cold is recomputed in process, without
//! the cache, on the served model, and must be equal to the reply.

use crate::bed::Bed;
use crate::client::{kpi_bits_of, session_of, shared_of, Client, Exchange, Tally};
use crate::gen::{iteration_seed, slider_request, slider_set, Rng, SLIDER_POSITIONS};
use crate::outcome::{us, Counters, Outcome};
use crate::pin;
use crate::replay::{Phase, Tracer};
use crate::slider::{forest_config, DEAL_KPI};
use crate::stats;
use crate::Ctx;
use std::time::{Duration, Instant};
use whatif_core::goal::{Goal, GoalConfig, OptimizerChoice};
use whatif_core::model_backend::TrainerTier;
use whatif_core::perturbation::{Perturbation, PerturbationSet};
use whatif_core::{CoreError, Session, TrainedModel};
use whatif_datagen::deal_closing;
use whatif_server::{Engine, Request, Response, UseCase};

/// Rows per generated dataset.
const ROWS: usize = 1000;
const SHORT_ROWS: usize = 200;

/// The comparison view's sweep.
const COMPARISON: [f64; 4] = [-40.0, -20.0, 20.0, 40.0];

/// Bayesian optimizer calls in the goal-inversion view.
const GOAL_CALLS: usize = 32;
const SHORT_GOAL_CALLS: usize = 8;

/// Timings of one iteration.
#[derive(Default)]
struct Script {
    first_kpi: Duration,
    total: Duration,
    cold_stops_us: Vec<f64>,
    warm_stops_us: Vec<f64>,
    goal_us: f64,
}

/// A view the analyst opened cold, with what it asked.
#[derive(Debug)]
enum Cold {
    Importance,
    Stop(PerturbationSet),
    Comparison,
    PerData(usize, PerturbationSet),
    Goal(GoalConfig),
}

impl Cold {
    /// The view's answer computed in process, without the cache.
    fn recompute(&self, model: &TrainedModel) -> Result<Response, CoreError> {
        match self {
            Cold::Importance => model
                .driver_importance()
                .map(|importance| Response::Importance {
                    importance,
                    verification: None,
                }),
            Cold::Stop(set) => model.sensitivity(set).map(Response::Sensitivity),
            Cold::Comparison => model
                .comparison_analysis(&COMPARISON)
                .map(Response::Comparison),
            Cold::PerData(row, set) => model.per_data_sensitivity(*row, set).map(Response::PerData),
            Cold::Goal(config) => model.goal_inversion(config).map(Response::GoalInversion),
        }
    }
}

struct Clients {
    analyst: Client,
    colleague: Client,
    /// The colleague's client thread and server thread, pinned together
    /// for the warm stops (see `pin`). Training and cold views stay
    /// unpinned: they use both CPUs from the connection thread.
    colleague_pair: Option<pin::Pair>,
}

impl Clients {
    fn open(addr: std::net::SocketAddr) -> Result<Clients, String> {
        let (colleague, server) = pin::spawned_during(|| -> Result<Client, String> {
            let mut c = Client::v3(addr)?;
            c.call(&Request::ListUseCases, None)?;
            Ok(c)
        });
        Ok(Clients {
            analyst: Client::v2(addr)?,
            colleague: colleague?,
            colleague_pair: pin::Pair::new(server),
        })
    }

    fn tally(&self) -> Tally {
        let mut t = self.analyst.tally;
        t.add(self.colleague.tally);
        t
    }
}

/// One analyst-plus-colleague iteration on dataset `index`.
fn iteration(
    ctx: &Ctx,
    engine: &Engine,
    index: u64,
    c: &mut Clients,
    tracer: &mut Option<Tracer>,
    out: &mut Outcome,
) -> Result<Script, String> {
    let rows = if ctx.short { SHORT_ROWS } else { ROWS };
    let ds = iteration_seed(ctx.seed, index);
    let mut rng = Rng::new(ds, 3);
    let mut s = Script::default();
    let timed = |s: &mut Script, ex: Exchange| {
        s.total += ex.rtt;
        ex
    };
    let load = Request::LoadUseCase {
        use_case: UseCase::DealClosing,
        n_rows: Some(rows),
        seed: Some(ds),
    };
    let exact = forest_config(ctx.short);
    let binned = whatif_core::ModelConfig {
        trainer: TrainerTier::Binned,
        ..exact.clone()
    };

    // The analyst.
    let a = &mut c.analyst;
    let (sa, _) = session_of(&timed(&mut s, a.call(&load, tracer.as_mut())?))?;
    let select = |session| Request::SelectKpi {
        session,
        kpi: DEAL_KPI.into(),
    };
    timed(&mut s, a.call(&select(sa), tracer.as_mut())?);
    let ex = timed(
        &mut s,
        a.call(
            &Request::SelectDrivers {
                session: sa,
                drivers: None,
            },
            tracer.as_mut(),
        )?,
    );
    let Response::Drivers { selected: drivers } = ex.result() else {
        return Err("driver list reply was not Drivers".into());
    };
    let driver = drivers[rng.below(drivers.len())].clone();
    let train = |session, config: &whatif_core::ModelConfig| Request::Train {
        session,
        config: Some(config.clone()),
    };
    timed(&mut s, a.call(&train(sa, &exact), tracer.as_mut())?);
    // Every cold answer, with what it answered, for the check below.
    let mut cold: Vec<(Cold, Response)> = Vec::new();
    let mut ask = |s: &mut Script, what: Cold, request: Request| -> Result<Exchange, String> {
        let ex = timed(s, a.call(&request, tracer.as_mut())?);
        cold.push((what, ex.result().clone()));
        Ok(ex)
    };
    ask(
        &mut s,
        Cold::Importance,
        Request::DriverImportanceView {
            session: sa,
            verify: false,
        },
    )?;
    let mut cold_bits = Vec::with_capacity(SLIDER_POSITIONS.len());
    for (i, &pct) in SLIDER_POSITIONS.iter().enumerate() {
        let what = Cold::Stop(slider_set(&driver, pct));
        let ex = ask(&mut s, what, slider_request(sa, &driver, pct))?;
        if i == 0 {
            s.first_kpi = s.total;
        }
        s.cold_stops_us.push(us(ex.rtt));
        cold_bits.push(kpi_bits_of(&ex)?);
    }
    ask(
        &mut s,
        Cold::Comparison,
        Request::ComparisonView {
            session: sa,
            percentages: COMPARISON.to_vec(),
        },
    )?;
    let row = rng.below(rows);
    let perturbations = vec![Perturbation::percentage(driver.clone(), 40.0)];
    ask(
        &mut s,
        Cold::PerData(row, PerturbationSet::new(perturbations.clone())),
        Request::PerDataView {
            session: sa,
            row,
            perturbations,
        },
    )?;
    let calls = if ctx.short {
        SHORT_GOAL_CALLS
    } else {
        GOAL_CALLS
    };
    let optimizer = OptimizerChoice::Bayesian { n_calls: calls };
    let mut goal = GoalConfig::for_goal(Goal::Maximize).with_constraints(Vec::new());
    goal.optimizer = optimizer;
    goal.seed = ds;
    let ex = ask(
        &mut s,
        Cold::Goal(goal),
        Request::GoalInversionView {
            session: sa,
            goal: Goal::Maximize,
            constraints: Vec::new(),
            optimizer: Some(optimizer),
            seed: ds,
        },
    )?;
    s.goal_us = us(ex.rtt);

    // The colleague, on the same dataset.
    let b = &mut c.colleague;
    let (sb, _) = session_of(&timed(&mut s, b.call(&load, tracer.as_mut())?))?;
    timed(&mut s, b.call(&select(sb), tracer.as_mut())?);
    let ex = timed(&mut s, b.call(&train(sb, &exact), tracer.as_mut())?);
    if !shared_of(&ex)? {
        out.mismatch(format!(
            "dataset {index}: colleague's exact Train was not shared"
        ));
    }
    let pair = c.colleague_pair.as_ref().filter(|p| p.pin());
    let stops = (|| -> Result<(), String> {
        for (i, &pct) in SLIDER_POSITIONS.iter().enumerate() {
            let request = slider_request(sb, &driver, pct);
            let ex = timed(&mut s, b.call(&request, tracer.as_mut())?);
            s.warm_stops_us.push(us(ex.rtt));
            if !ex.reply.cached {
                out.mismatch(format!(
                    "dataset {index}: colleague stop {i} missed the cache"
                ));
            }
            if kpi_bits_of(&ex)? != cold_bits[i] {
                out.mismatch(format!(
                    "dataset {index}: stop {i} KPI differs between sessions"
                ));
            }
        }
        Ok(())
    })();
    if let Some(p) = pair {
        p.release();
    }
    stops?;
    let ex = timed(&mut s, b.call(&train(sb, &binned), tracer.as_mut())?);
    if shared_of(&ex)? {
        out.mismatch(format!("dataset {index}: binned Train was shared"));
    }

    // The served model, through the engine's own store (a share), and
    // every cold answer recomputed on it without the cache.
    let replica = Session::new(deal_closing(rows, ds).frame)
        .with_kpi(DEAL_KPI)
        .map_err(|e| e.to_string())?;
    let (model, shared) = engine
        .model_store()
        .train_or_share(&replica, &exact)
        .map_err(|e| e.to_string())?;
    if !shared {
        out.mismatch(format!(
            "dataset {index}: the benchmark's model handle was not the served model"
        ));
    }
    for (what, served) in &cold {
        match what.recompute(&model) {
            Ok(fresh) if fresh == *served => {}
            Ok(_) => out.mismatch(format!(
                "dataset {index}: {what:?} differs from the uncached answer"
            )),
            Err(e) => out.mismatch(format!("dataset {index}: {what:?}: {e}")),
        }
    }

    for (client, session) in [(&mut c.analyst, sa), (&mut c.colleague, sb)] {
        timed(
            &mut s,
            client.call(&Request::CloseSession { session }, tracer.as_mut())?,
        );
    }
    Ok(s)
}

/// Run the workload.
///
/// # Errors
/// A failure that stops the workload.
pub fn run(ctx: &Ctx, tracer: &mut Option<Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_tally = Tally::default();
    let mut setup = |round: usize, out: &mut Outcome| -> Result<(Bed, Clients), String> {
        // Start a server and run one untimed warm-up iteration on a
        // dataset the timed loop never uses.
        let start = Instant::now();
        let bed = Bed::start().map_err(|e| e.to_string())?;
        let mut clients = Clients::open(bed.addr)?;
        iteration(
            ctx,
            &bed.engine,
            u64::MAX - round as u64,
            &mut clients,
            tracer,
            out,
        )?;
        out.setup_done(start.elapsed().as_secs_f64());
        setup_tally.add(clients.tally());
        Ok((bed, clients))
    };
    for round in 1..ctx.setups {
        // Extra set-ups, each torn down before the next starts.
        let (bed, clients) = setup(round, &mut out)?;
        drop(clients);
        bed.stop()?;
    }
    let (bed, mut clients) = setup(0, &mut out)?;
    out.phase("setup", setup_tally);
    if let Some(t) = tracer.as_mut() {
        t.phase = Phase::Timed;
    }

    let before = Counters::read(&bed.engine);
    let tally_before = clients.tally();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut scripts = Vec::new();
    let mut index = 1;
    while Instant::now() < deadline || scripts.is_empty() {
        scripts.push(iteration(
            ctx,
            &bed.engine,
            index,
            &mut clients,
            tracer,
            &mut out,
        )?);
        index += 1;
    }
    let after = Counters::read(&bed.engine);
    out.counters = after.since(&before);
    out.counters.store_hits = after.store_hits;
    out.counters.store_misses = after.store_misses;
    let now = clients.tally();
    let timed = Tally {
        sent: now.sent - tally_before.sent,
        failed: now.failed - tally_before.failed,
    };
    out.phase("sessions", timed);
    out.timed_requests = timed.sent;

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let session_ms: Vec<f64> = scripts.iter().map(|s| ms(s.total)).collect();
    let goal_ms: Vec<f64> = scripts.iter().map(|s| s.goal_us / 1e3).collect();
    out.first_kpi_ms = scripts.iter().map(|s| ms(s.first_kpi)).collect();
    out.view_v2_us = scripts
        .iter()
        .flat_map(|s| s.cold_stops_us.clone())
        .collect();
    out.view_v3_us = scripts
        .iter()
        .flat_map(|s| s.warm_stops_us.clone())
        .collect();
    out.work_per_s = stats::median(&session_ms).map_or(0.0, |ms| 1e3 / ms);
    out.work_samples = scripts.len();
    let sens_ms: Vec<f64> = out.view_v2_us.iter().map(|u| u / 1e3).collect();
    out.notes = vec![
        format!("first_kpi_ms: {}", stats::describe(&out.first_kpi_ms, "ms")),
        format!("sens_cold_ms: {}", stats::describe(&sens_ms, "ms")),
        format!("goal_ms: {}", stats::describe(&goal_ms, "ms")),
        format!("session_ms: {}", stats::describe(&session_ms, "ms")),
        format!(
            "colleague_warm_stop_us (v3): {}",
            stats::describe(&out.view_v3_us, "us")
        ),
    ];
    drop(clients);
    bed.stop()?;
    Ok(out)
}
