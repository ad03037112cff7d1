//! `slider_warm`: an analyst dragging a driver slider on a warm result
//! cache. Closed loop: each move waits for the view to redraw.
//!
//! One lap is a `SensitivityView` at every slider stop for every driver,
//! in a seeded order; laps repeat. Phases: one client on v2, one client
//! on v3 (JSON body), then two v2 clients on two sessions over the same
//! data (the second session's `Train` is a model-store share). The
//! engine answers a warm move in about a microsecond, so transport,
//! codec, dispatch and the cache probe are what this workload times.

use crate::bed::Bed;
use crate::client::{kpi_bits_of, session_of, shared_of, Client, Tally};
use crate::gen::{iteration_seed, slider_lap, slider_request, slider_set, v2_line, v3_json_frame};
use crate::outcome::{us, Counters, Outcome};
use crate::pin;
use crate::replay::{Phase, Tracer};
use crate::stats;
use crate::Ctx;
use std::time::{Duration, Instant};
use whatif_core::model_backend::ModelConfig;
use whatif_core::{Session, SharedModel};
use whatif_datagen::deal_closing;
use whatif_server::{Request, Response, UseCase};

/// Rows in the deal-closing dataset.
const ROWS: usize = 2000;
const SHORT_ROWS: usize = 240;

/// The KPI of the deal-closing use case.
pub const DEAL_KPI: &str = "Deal Closed?";

/// Cache hit ratio the timed phases must hold.
const MIN_HIT_RATIO: f64 = 0.99;

/// The paper-sized forest (120 trees, depth 16, 6 features per split),
/// trained on the benchmark's fixed two threads.
#[must_use]
pub fn forest_config(short: bool) -> ModelConfig {
    let mut cfg = ModelConfig {
        n_trees: 120,
        max_depth: 16,
        max_features: Some(6),
        n_threads: 2,
        ..ModelConfig::default()
    };
    if short {
        cfg.n_trees = 8;
        cfg.max_depth = 6;
    }
    cfg
}

struct Warm {
    bed: Bed,
    client: Client,
    s1: u64,
    s2: u64,
    model: SharedModel,
    lap: Vec<(String, f64)>,
    /// The KPI bits each move produced when the cache was cold.
    cold_bits: Vec<u64>,
}

fn setup(ctx: &Ctx, tracer: &mut Option<Tracer>, out: &mut Outcome) -> Result<Warm, String> {
    let start = Instant::now();
    let rows = if ctx.short { SHORT_ROWS } else { ROWS };
    let cfg = forest_config(ctx.short);
    let ds = iteration_seed(ctx.seed, 0);
    let bed = Bed::start().map_err(|e| e.to_string())?;
    let mut c = Client::v2(bed.addr)?;
    let load = Request::LoadUseCase {
        use_case: UseCase::DealClosing,
        n_rows: Some(rows),
        seed: Some(ds),
    };
    let mut first_kpi = Duration::ZERO;
    let mut t = |ex: &crate::client::Exchange| first_kpi += ex.rtt;

    let ex = c.call(&load, tracer.as_mut())?;
    t(&ex);
    let (s1, _) = session_of(&ex)?;
    let kpi = Request::SelectKpi {
        session: s1,
        kpi: DEAL_KPI.into(),
    };
    t(&c.call(&kpi, tracer.as_mut())?);
    let ex = c.call(
        &Request::SelectDrivers {
            session: s1,
            drivers: None,
        },
        tracer.as_mut(),
    )?;
    t(&ex);
    let Response::Drivers { selected: drivers } = ex.result() else {
        return Err("driver list reply was not Drivers".into());
    };
    let lap = slider_lap(drivers, ctx.seed);
    let train = |session| Request::Train {
        session,
        config: Some(cfg.clone()),
    };
    t(&c.call(&train(s1), tracer.as_mut())?);

    // Warm-up lap: every move once, cold, filling the result cache.
    let mut cold_bits = Vec::with_capacity(lap.len());
    for (i, (driver, pct)) in lap.iter().enumerate() {
        let ex = c.call(&slider_request(s1, driver, *pct), tracer.as_mut())?;
        if i == 0 {
            t(&ex);
        }
        cold_bits.push(kpi_bits_of(&ex)?);
    }

    // The second analyst's session over the same data: a store share.
    let ex = c.call(&load, tracer.as_mut())?;
    let (s2, _) = session_of(&ex)?;
    c.call(
        &Request::SelectKpi {
            session: s2,
            kpi: DEAL_KPI.into(),
        },
        tracer.as_mut(),
    )?;
    if !shared_of(&c.call(&train(s2), tracer.as_mut())?)? {
        out.mismatch("second session's Train was not a model-store share");
    }
    out.setup_done(start.elapsed().as_secs_f64());
    out.first_kpi_ms.push(first_kpi.as_secs_f64() * 1e3);

    // The served model, through the engine's own store (a share).
    let replica = Session::new(deal_closing(rows, ds).frame)
        .with_kpi(DEAL_KPI)
        .map_err(|e| e.to_string())?;
    let (model, shared) = bed
        .engine
        .model_store()
        .train_or_share(&replica, &cfg)
        .map_err(|e| e.to_string())?;
    if !shared {
        out.mismatch("the benchmark's model handle was not the served model");
    }
    Ok(Warm {
        bed,
        client: c,
        s1,
        s2,
        model,
        lap,
        cold_bits,
    })
}

/// Pre-encoded requests for one session and protocol.
struct Script {
    requests: Vec<Request>,
    bytes: Vec<Vec<u8>>,
}

fn script(lap: &[(String, f64)], session: u64, v3: bool) -> Script {
    let requests: Vec<Request> = lap
        .iter()
        .map(|(d, p)| slider_request(session, d, *p))
        .collect();
    let bytes = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if v3 {
                v3_json_frame(i as u64, r.clone())
            } else {
                v2_line(i as u64, r.clone())
            }
        })
        .collect();
    Script { requests, bytes }
}

/// Length of one interleaved measurement segment.
const SEGMENT: Duration = Duration::from_millis(100);

/// One client's closed loop, accumulated over every segment it ran.
#[derive(Default)]
struct Loop {
    samples_us: Vec<f64>,
    /// The median round trip of each segment.
    segment_p50s: Vec<f64>,
    tally: Tally,
    mismatches: Vec<String>,
    /// Position in the lap of the next move.
    next: usize,
}

/// Drive `client` around the lap until `deadline`, checking every reply
/// against the cold-cache KPI of the same move.
fn drive(
    client: &mut Client,
    script: &Script,
    cold_bits: &[u64],
    out: &mut Loop,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) {
    let before = client.tally;
    let first = out.samples_us.len();
    while Instant::now() < deadline && out.mismatches.len() <= 8 {
        let k = out.next % script.requests.len();
        out.next += 1;
        match client.send(&script.bytes[k], &script.requests[k], tracer.as_deref_mut()) {
            Ok(ex) => {
                out.samples_us.push(us(ex.rtt));
                match kpi_bits_of(&ex) {
                    Ok(bits) if bits == cold_bits[k] && ex.reply.cached => {}
                    Ok(_) if !ex.reply.cached => {
                        out.mismatches
                            .push(format!("warm move {k} missed the cache"));
                    }
                    Ok(_) => out
                        .mismatches
                        .push(format!("move {k}: warm KPI differs from the cold KPI")),
                    Err(e) => out.mismatches.push(e),
                }
            }
            Err(e) => out.mismatches.push(e),
        }
    }
    out.tally.add(Tally {
        sent: client.tally.sent - before.sent,
        failed: client.tally.failed - before.failed,
    });
    if let Some(p50) = stats::median(&out.samples_us[first..]) {
        out.segment_p50s.push(p50);
    }
}

/// Run the workload.
///
/// # Errors
/// A failure that stops the workload (server unreachable, a set-up
/// request refused).
pub fn run(ctx: &Ctx, tracer: &mut Option<Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_tally = Tally::default();
    for _ in 1..ctx.setups {
        // Extra set-ups, each on a fresh server torn down before the
        // next starts; only the last one is measured.
        let old = setup(ctx, tracer, &mut out)?;
        setup_tally.add(old.client.tally);
        drop(old.client);
        old.bed.stop()?;
    }
    let warm = setup(ctx, tracer, &mut out)?;
    setup_tally.add(warm.client.tally);
    out.phase("setup", setup_tally);
    if let Some(t) = tracer.as_mut() {
        t.phase = Phase::Timed;
    }

    let s1_v2 = script(&warm.lap, warm.s1, false);
    let s1_v3 = script(&warm.lap, warm.s1, true);
    let s2_v2 = script(&warm.lap, warm.s2, false);
    let before = Counters::read(&warm.bed.engine);

    // Fresh connections for the timed phases, each pinned with its
    // server thread: the first session's clients to one CPU, the second
    // session's to another.
    let main_tid = pin::current_tid();
    let original = main_tid.map(pin::allowed).unwrap_or_default();
    let (cpu_a, cpu_b) = match original.as_slice() {
        [a, b, ..] => (Some(*a), Some(*b)),
        [a] => (Some(*a), Some(*a)),
        [] => (None, None),
    };
    let mut probes = Tally::default();
    let mut pinned = 0;
    let mut open = |v3: bool, script: &Script, cpu: Option<usize>| -> Result<Client, String> {
        let (c, server) = pin::spawned_during(|| -> Result<Client, String> {
            let mut c = if v3 {
                Client::v3(warm.bed.addr)?
            } else {
                Client::v2(warm.bed.addr)?
            };
            c.send(&script.bytes[0], &script.requests[0], None)?;
            Ok(c)
        });
        let mut c = c?;
        probes.add(c.tally);
        c.tally = Tally::default();
        if let (Some(cpu), Some(tid)) = (cpu, server) {
            pinned += usize::from(pin::set(tid, &[cpu]));
        }
        Ok(c)
    };
    let mut v2_client = open(false, &s1_v2, cpu_a)?;
    let mut v3_client = open(true, &s1_v3, cpu_a)?;
    let mut second = open(false, &s2_v2, cpu_b)?;
    let main_pinned = cpu_a.is_some_and(pin::pin_current);
    out.phase("connection probes", probes);
    out.notes.push(format!(
        "pinning: {pinned} of 3 server threads and {} client thread pinned (CPUs {cpu_a:?} and {cpu_b:?})",
        usize::from(main_pinned)
    ));

    // The three phases run in interleaved segments, so each one samples
    // the whole run rather than a third of it.
    let (mut v2, mut v3, mut a) = (Loop::default(), Loop::default(), Loop::default());
    let mut b = Loop {
        next: warm.lap.len() / 2,
        ..Loop::default()
    };
    let cold = &warm.cold_bits;
    let end = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut segment = 0;
    let mut two_client_time = Duration::ZERO;
    while Instant::now() < end {
        // One client, v2 JSON lines.
        let deadline = Instant::now() + SEGMENT;
        drive(
            &mut v2_client,
            &s1_v2,
            cold,
            &mut v2,
            deadline,
            tracer.as_mut(),
        );
        // One client, v3 frames carrying the same envelopes.
        let deadline = Instant::now() + SEGMENT;
        drive(
            &mut v3_client,
            &s1_v3,
            cold,
            &mut v3,
            deadline,
            tracer.as_mut(),
        );
        // Two v2 clients, one per session, concurrently.
        segment += 1;
        let mut fork = tracer.as_ref().map(|t| t.fork(segment));
        let started = Instant::now();
        let deadline = started + SEGMENT;
        std::thread::scope(|s| {
            let (second, b, fork, script) = (&mut second, &mut b, fork.as_mut(), &s2_v2);
            let other = s.spawn(move || {
                if let Some(cpu) = cpu_b {
                    pin::pin_current(cpu);
                }
                drive(second, script, cold, b, deadline, fork);
            });
            drive(
                &mut v2_client,
                &s1_v2,
                cold,
                &mut a,
                deadline,
                tracer.as_mut(),
            );
            other.join().expect("second slider client panicked");
        });
        two_client_time += started.elapsed();
        if let (Some(t), Some(f)) = (tracer.as_mut(), fork) {
            t.absorb(f);
        }
    }
    if let Some(tid) = main_tid.filter(|_| main_pinned) {
        pin::set(tid, &original);
    }
    drop((v2_client, v3_client, second));
    out.counters = Counters::read(&warm.bed.engine).since(&before);
    let store = Counters::read(&warm.bed.engine);
    out.counters.store_hits = store.store_hits;
    out.counters.store_misses = store.store_misses;

    let mut two = a.tally;
    two.add(b.tally);
    out.phase("v2 1 client", v2.tally);
    out.phase("v3 1 client", v3.tally);
    out.phase("v2 2 clients", two);
    out.timed_requests = v2.tally.sent + v3.tally.sent + two.sent;
    for l in [&v2, &v3, &a, &b] {
        out.mismatches.extend(l.mismatches.iter().cloned());
    }

    // Correctness: every move's KPI (cold, and so every warm reply that
    // matched it) is bit-identical to the uncached in-process answer.
    for (k, (driver, pct)) in warm.lap.iter().enumerate() {
        match warm.model.sensitivity(&slider_set(driver, *pct)) {
            Ok(r) if r.perturbed_kpi.to_bits() == warm.cold_bits[k] => {}
            Ok(_) => out.mismatch(format!("move {k} ({driver} {pct:+}%) differs in process")),
            Err(e) => out.mismatch(e.to_string()),
        }
    }
    let hit_ratio = out.counters.cache_hits / out.counters.cache_lookups().max(1.0);
    if hit_ratio < MIN_HIT_RATIO {
        out.mismatch(format!(
            "timed cache hit ratio {hit_ratio:.4} below {MIN_HIT_RATIO}"
        ));
    }

    out.view_v2_us = v2.samples_us.clone();
    out.view_v3_us = v3.samples_us.clone();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.segment_p50_us = Some([mean(&v2.segment_p50s), mean(&v3.segment_p50s)]);
    // Moves the two clients completed per second of 2-client wall time.
    let moves = a.samples_us.len() + b.samples_us.len();
    out.work_per_s = moves as f64 / two_client_time.as_secs_f64();
    out.work_samples = moves;
    out.notes.extend(vec![
        format!("slider_v2_us: {}", stats::describe(&v2.samples_us, "us")),
        format!("slider_v3_us: {}", stats::describe(&v3.samples_us, "us")),
        format!(
            "segment medians, mean (v2, v3): {:.3} us over {} segments, {:.3} us over {} segments",
            mean(&v2.segment_p50s),
            v2.segment_p50s.len(),
            mean(&v3.segment_p50s),
            v3.segment_p50s.len()
        ),
        format!(
            "first_kpi_ms (per set-up): {}",
            stats::describe(&out.first_kpi_ms, "ms")
        ),
        format!(
            "slider_2c_rps: {:.1} moves/s over {:.3} s of 2-client segments (n={} + {})",
            out.work_per_s,
            two_client_time.as_secs_f64(),
            a.samples_us.len(),
            b.samples_us.len()
        ),
        format!("timed cache hit ratio: {hit_ratio:.6}"),
    ]);
    drop(warm.client);
    warm.bed.stop()?;
    Ok(out)
}
