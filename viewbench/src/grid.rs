//! `scenario_grid`: pricing bulk budget-reallocation grids on the
//! marketing-mix linear model (the paper's U1 use case). One client,
//! closed loop; requests alternate between a v2 JSON envelope and a v3
//! columnar frame with LZ4-style compression.
//!
//! Every grid is fresh, so each scenario is a cache miss plus an
//! insertion, and warm-up runs until the result cache has started
//! evicting: this is the cache's write-and-evict path, beside
//! `slider_warm`'s read path. Replies are large and the linear model is
//! cheap, so f64 formatting, frame encoding and compression dominate.

use crate::bed::Bed;
use crate::client::{session_of, Client, Tally};
use crate::gen::{budget_grid, iteration_seed};
use crate::outcome::{us, Counters, Outcome};
use crate::replay::{Phase, Tracer};
use crate::stats;
use crate::Ctx;
use std::time::{Duration, Instant};
use whatif_core::bulk::{ScenarioSet, ScenarioSpec};
use whatif_core::model_backend::{ModelConfig, ModelKind};
use whatif_core::{Session, SharedModel};
use whatif_datagen::marketing_mix;
use whatif_server::{Request, UseCase};

/// Days of marketing data (two years).
const DAYS: usize = 730;
const SHORT_DAYS: usize = 120;

/// Scenarios per grid.
const GRID: usize = 10_000;
const SHORT_GRID: usize = 300;

/// Scenario-pricing threads, fixed so results do not depend on the
/// machine.
const THREADS: usize = 2;

/// Short runs shrink the result cache so warm-up still reaches
/// eviction with small grids.
const SHORT_CACHE_BYTES: u64 = 1 << 20;

/// Warm-up gives up (and fails the run) after this many grids.
const MAX_WARMUP_GRIDS: u64 = 400;

fn linear() -> ModelConfig {
    ModelConfig {
        kind: ModelKind::Linear,
        n_threads: THREADS,
        ..ModelConfig::default()
    }
}

struct Ready {
    bed: Bed,
    v2: Client,
    v3: Client,
    session: u64,
    model: SharedModel,
    next_grid: u64,
    warmup_grids: u64,
}

fn setup(ctx: &Ctx, tracer: &mut Option<Tracer>, out: &mut Outcome) -> Result<Ready, String> {
    let start = Instant::now();
    let (days, n) = sizes(ctx);
    let ds = iteration_seed(ctx.seed, 0);
    let bed = Bed::start().map_err(|e| e.to_string())?;
    let mut v2 = Client::v2(bed.addr)?;
    let v3 = Client::v3(bed.addr)?;
    if ctx.short {
        v2.call(
            &Request::ConfigureCache {
                capacity_bytes: Some(SHORT_CACHE_BYTES),
                enabled: None,
            },
            tracer.as_mut(),
        )?;
    }
    let ex = v2.call(
        &Request::LoadUseCase {
            use_case: UseCase::MarketingMix,
            n_rows: Some(days),
            seed: Some(ds),
        },
        tracer.as_mut(),
    )?;
    let mut first_kpi = ex.rtt;
    let (session, kpi) = session_of(&ex)?;
    let kpi = kpi.ok_or("the marketing use case suggests no KPI")?;
    first_kpi += v2
        .call(
            &Request::SelectKpi {
                session,
                kpi: kpi.clone(),
            },
            tracer.as_mut(),
        )?
        .rtt;
    first_kpi += v2
        .call(
            &Request::Train {
                session,
                config: Some(linear()),
            },
            tracer.as_mut(),
        )?
        .rtt;
    let (rtt, _, _) = v2.grid(
        session,
        &budget_grid(ctx.seed, 0, n),
        THREADS,
        tracer.as_mut(),
    )?;
    first_kpi += rtt;

    // Warm-up in process, through the served engine's own cache, until
    // the cache has started evicting.
    let replica = Session::new(marketing_mix(days, ds).frame)
        .with_kpi(&kpi)
        .map_err(|e| e.to_string())?;
    let (model, shared) = bed
        .engine
        .model_store()
        .train_or_share(&replica, &linear())
        .map_err(|e| e.to_string())?;
    if !shared {
        out.mismatch("the benchmark's model handle was not the served model");
    }
    let mut next_grid = 1;
    while bed.engine.cache().stats().evictions == 0 {
        if next_grid > MAX_WARMUP_GRIDS {
            return Err("warm-up never filled the result cache".into());
        }
        let set = ScenarioSet::new(budget_grid(ctx.seed, next_grid, n)).with_threads(THREADS);
        model
            .evaluate_scenarios_cached(&set, bed.engine.cache())
            .map_err(|e| e.to_string())?;
        if let Some(t) = tracer.as_ref() {
            t.mirror_warmup(session, &set)?;
        }
        next_grid += 1;
    }
    out.setup_done(start.elapsed().as_secs_f64());
    out.first_kpi_ms.push(first_kpi.as_secs_f64() * 1e3);
    Ok(Ready {
        bed,
        v2,
        v3,
        session,
        model,
        next_grid,
        warmup_grids: next_grid - 1,
    })
}

fn sizes(ctx: &Ctx) -> (usize, usize) {
    if ctx.short {
        (SHORT_DAYS, SHORT_GRID)
    } else {
        (DAYS, GRID)
    }
}

/// Compare served KPIs with the uncached in-process answer, bit for bit.
fn check(
    model: &SharedModel,
    specs: &[ScenarioSpec],
    kpis: &[f64],
    names: Option<&[String]>,
) -> Result<(), String> {
    let set = ScenarioSet::new(specs.to_vec()).with_threads(THREADS);
    let reference = model.evaluate_scenarios(&set).map_err(|e| e.to_string())?;
    if kpis.len() != reference.len() {
        return Err(format!(
            "{} KPIs for {} scenarios",
            kpis.len(),
            reference.len()
        ));
    }
    if let Some(i) = (0..kpis.len()).find(|&i| kpis[i].to_bits() != reference[i].kpi.to_bits()) {
        return Err(format!(
            "scenario {i} KPI differs from the in-process answer"
        ));
    }
    if let Some(names) = names {
        if names.iter().zip(specs).any(|(n, s)| *n != s.name) {
            return Err("scenario names came back out of order".into());
        }
    }
    Ok(())
}

/// Run the workload.
///
/// # Errors
/// A failure that stops the workload.
pub fn run(ctx: &Ctx, tracer: &mut Option<Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_tally = Tally::default();
    for _ in 1..ctx.setups {
        // Extra set-ups, each torn down before the next starts.
        let old = setup(ctx, tracer, &mut out)?;
        setup_tally.add(old.v2.tally);
        setup_tally.add(old.v3.tally);
        drop((old.v2, old.v3));
        old.bed.stop()?;
    }
    let mut ready = setup(ctx, tracer, &mut out)?;
    setup_tally.add(ready.v2.tally);
    setup_tally.add(ready.v3.tally);
    out.phase("setup", setup_tally);
    if let Some(t) = tracer.as_mut() {
        t.phase = Phase::Timed;
    }
    let (_, n) = sizes(ctx);

    let before = Counters::read(&ready.bed.engine);
    let (v2_before, v3_before) = (ready.v2.tally, ready.v3.tally);
    let mut v2_us = Vec::new();
    let mut v3_us = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut round = 0u64;
    while Instant::now() < deadline || v2_us.is_empty() || v3_us.is_empty() {
        let specs = budget_grid(ctx.seed, ready.next_grid, n);
        ready.next_grid += 1;
        let over_v3 = round % 2 == 1;
        round += 1;
        let client = if over_v3 {
            &mut ready.v3
        } else {
            &mut ready.v2
        };
        match client.grid(ready.session, &specs, THREADS, tracer.as_mut()) {
            Ok((rtt, kpis, names)) => {
                if over_v3 { &mut v3_us } else { &mut v2_us }.push(us(rtt));
                if let Err(e) = check(&ready.model, &specs, &kpis, names.as_deref()) {
                    out.mismatch(format!("grid {}: {e}", ready.next_grid - 1));
                }
            }
            Err(e) => out.mismatch(e),
        }
        if out.mismatches.len() > 8 {
            break;
        }
    }
    let after = Counters::read(&ready.bed.engine);
    out.counters = after.since(&before);
    out.counters.store_hits = after.store_hits;
    out.counters.store_misses = after.store_misses;
    out.timed_requests = round;
    if out.counters.cache_evictions == 0.0 {
        out.mismatch("the timed grids never made the result cache evict");
    }

    // Cross-protocol gate (untimed): one more fresh grid over v2, then
    // the same grid over v3; the columnar KPIs must equal the JSON ones.
    let specs = budget_grid(ctx.seed, ready.next_grid, n);
    let (_, json_kpis, _) = ready.v2.grid(ready.session, &specs, THREADS, None)?;
    let (_, frame_kpis, _) = ready.v3.grid(ready.session, &specs, THREADS, None)?;
    let same = json_kpis.len() == frame_kpis.len()
        && json_kpis
            .iter()
            .zip(&frame_kpis)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        out.mismatch("v3 grid KPIs differ from the v2 reply for the same grid");
    }
    let since = |now: Tally, then: Tally| Tally {
        sent: now.sent - then.sent,
        failed: now.failed - then.failed,
    };
    out.phase(
        "grids v2 (+1 cross-check)",
        since(ready.v2.tally, v2_before),
    );
    out.phase(
        "grids v3 (+1 cross-check)",
        since(ready.v3.tally, v3_before),
    );

    // Scenarios per second at each protocol's median round trip; the
    // workload alternates the two, so together they take the mean time.
    let (m2, m3) = (stats::median(&v2_us), stats::median(&v3_us));
    let (m2, m3) = (m2.unwrap_or(f64::NAN), m3.unwrap_or(f64::NAN));
    let sps = |median_us: f64| n as f64 / (median_us / 1e6);
    out.work_samples = v2_us.len() + v3_us.len();
    out.work_per_s = sps((m2 + m3) / 2.0);
    out.notes = vec![
        format!(
            "grid_v2_sps: {:.0} scenarios/s at the median (n={} grids of {n})",
            sps(m2),
            v2_us.len()
        ),
        format!(
            "grid_v3_sps: {:.0} scenarios/s at the median (n={} grids of {n})",
            sps(m3),
            v3_us.len()
        ),
        format!("grid_v2_rtt_us: {}", stats::describe(&v2_us, "us")),
        format!("grid_v3_rtt_us: {}", stats::describe(&v3_us, "us")),
        format!(
            "first_kpi_ms (per set-up): {}",
            stats::describe(&out.first_kpi_ms, "ms")
        ),
        format!(
            "timed cache insertions {} evictions {}",
            out.counters.cache_insertions, out.counters.cache_evictions
        ),
        format!(
            "warm-up priced {} grids in process before the cache evicted",
            ready.warmup_grids
        ),
    ];
    out.view_v2_us = v2_us;
    out.view_v3_us = v3_us;
    drop((ready.v2, ready.v3));
    ready.bed.stop()?;
    Ok(out)
}
