//! End-to-end view-latency benchmark for the what-if server.
//!
//! Each workload drives a real `whatif-server` on loopback from closed-
//! loop clients in this process, times every request from its first
//! byte written to its last reply byte read, and checks every reply.
//! A traced run replays each request layer by layer in process (see
//! [`replay`]) to split the round trip into per-layer metrics.
//! `README.md` beside this crate lists workloads, metrics and the
//! layer → end-to-end map.

pub mod bed;
pub mod client;
pub mod gen;
pub mod grid;
pub mod layers;
pub mod net;
pub mod outcome;
pub mod pin;
pub mod replay;
pub mod session;
pub mod slider;
pub mod stats;
pub mod trace;

use outcome::Outcome;
use replay::Tracer;
use std::fmt::Write as _;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the measured loop, in seconds.
    pub seconds: f64,
    /// Small datasets and models, for tests.
    pub short: bool,
    /// Set-ups to run (the last one is measured).
    pub setups: usize,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm-cache slider moves over v2, v3 and two clients.
    SliderWarm,
    /// One analyst's cold Figure 2 session plus a colleague.
    SessionCold,
    /// Fresh 10 000-scenario grids, alternating v2 and v3.
    ScenarioGrid,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SliderWarm,
        Workload::SessionCold,
        Workload::ScenarioGrid,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SliderWarm => "slider_warm",
            Workload::SessionCold => "session_cold",
            Workload::ScenarioGrid => "scenario_grid",
        }
    }

    /// Parse a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Per-layer metrics this workload does not exercise. Its traced run
    /// prints them as such and leaves them out of the result line. The
    /// workloads in `BENCHMARK.json` exercise every one.
    #[must_use]
    pub fn unexercised(self) -> &'static [&'static str] {
        match self {
            Workload::SliderWarm | Workload::SessionCold => &[],
            Workload::ScenarioGrid => &[
                "cache.hit_us",
                "store.share_us",
                "learn.predict_us",
                "core.sensitivity_us",
            ],
        }
    }

    fn run(self, ctx: &Ctx, tracer: &mut Option<Tracer>) -> Result<Outcome, String> {
        match self {
            Workload::SliderWarm => slider::run(ctx, tracer),
            Workload::SessionCold => session::run(ctx, tracer),
            Workload::ScenarioGrid => grid::run(ctx, tracer),
        }
    }
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("view_p50_us", "us"),
    ("view_v3_p50_us", "us"),
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One run's result: the human-readable report and the machine-readable
/// metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Human-readable lines, printed before the result line.
    pub lines: Vec<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed or refused.
    pub failed: u64,
    /// Correctness-gate failures.
    pub mismatches: Vec<String>,
    /// Spans of a traced run, as JSON lines.
    pub spans_jsonl: Option<String>,
}

impl Report {
    /// Whether every reply was correct and none failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

fn describe_outcome(o: &Outcome, lines: &mut Vec<String>) {
    for p in &o.phases {
        lines.push(format!(
            "phase {}: sent {}, succeeded {}, failed {}",
            p.name,
            p.tally.sent,
            p.tally.sent - p.tally.failed,
            p.tally.failed
        ));
    }
    let t = o.total();
    lines.push(format!(
        "error_ratio: {} (failed or refused {} of {} sent)",
        t.failed as f64 / t.sent.max(1) as f64,
        t.failed,
        t.sent
    ));
    lines.extend(o.notes.iter().cloned());
}

/// The end-to-end metrics of an untraced outcome.
fn end_to_end(o: &Outcome) -> Result<Vec<(String, f64, String)>, String> {
    let need = |name: &str, v: Option<f64>| v.ok_or(format!("{name}: no samples"));
    let [p50_v2, p50_v3] = o.view_p50_us();
    let values = [
        need("view_p50_us", p50_v2)?,
        need("view_v3_p50_us", p50_v3)?,
        o.work_per_s,
        need("setup_s", stats::median(&o.setup_s))?,
        need("peak_rss_mb", o.peak_rss_mb)?,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| {
            if v.is_finite() && v > 0.0 {
                Ok((name.to_string(), v, unit.to_string()))
            } else {
                Err(format!("{name} measured {v}"))
            }
        })
        .collect()
}

fn sample_counts(o: &Outcome) -> [usize; 5] {
    [
        o.view_v2_us.len(),
        o.view_v3_us.len(),
        o.work_samples,
        o.setup_s.len(),
        1,
    ]
}

/// Run `workload` once: untraced, or (with `trace`) untraced and then
/// traced on the same seed, reporting per-layer metrics. `short` shrinks
/// datasets and models, for tests.
#[must_use]
pub fn measure(workload: Workload, seed: u64, seconds: f64, trace: bool, short: bool) -> Report {
    let mut report = Report::default();
    let lines = &mut report.lines;
    lines.push(format!(
        "workload {} seed {seed} seconds {seconds} trace {} cpus {}",
        workload.name(),
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    let ctx = Ctx {
        seed,
        seconds,
        short,
        setups: if trace || short { 1 } else { SETUPS },
    };
    let untraced = match workload.run(&ctx, &mut None) {
        Ok(o) => o,
        Err(e) => {
            report.mismatches.push(e);
            report.failed = 1;
            return report;
        }
    };
    describe_outcome(&untraced, lines);
    let total = untraced.total();
    report.attempted = total.sent;
    report.failed = total.failed;
    report
        .mismatches
        .extend(untraced.mismatches.iter().cloned());
    let e2e = match end_to_end(&untraced) {
        Ok(m) => m,
        Err(e) => {
            report.mismatches.push(e);
            return report;
        }
    };
    for ((name, value, unit), n) in e2e.iter().zip(sample_counts(&untraced)) {
        lines.push(format!("metric {name} = {value} {unit} (n={n})"));
    }
    if !trace {
        report.metrics = e2e;
        return report;
    }

    let mut tracer = Some(Tracer::new());
    let traced = match workload.run(&ctx, &mut tracer) {
        Ok(o) => o,
        Err(e) => {
            report.mismatches.push(format!("traced run: {e}"));
            return report;
        }
    };
    lines.push("traced run:".into());
    describe_outcome(&traced, lines);
    let total = traced.total();
    report.attempted += total.sent;
    report.failed += total.failed;
    report.mismatches.extend(traced.mismatches.iter().cloned());
    let tracer = tracer.expect("the traced run keeps its tracer");
    let untraced_p50 = untraced.view_p50_us()[0].unwrap_or(f64::NAN);
    let summary = layers::summarize(&tracer, &traced, untraced_p50);
    report.lines.extend(summary.lines);
    if workload == Workload::SliderWarm && summary.negative_remainder_share > 0.5 {
        // The median request's layers must not take longer than its
        // round trip, or the split does not explain it.
        report.mismatches.push(format!(
            "replayed layers exceed the round trip on {:.3} of timed requests",
            summary.negative_remainder_share
        ));
    }
    for (name, unit) in layers::PER_LAYER {
        match summary.metrics.iter().find(|(n, _, _)| n == name) {
            Some((_, v, _)) => report.metrics.push((name.into(), *v, unit.into())),
            None if workload.unexercised().contains(&name) => {}
            None => report
                .mismatches
                .push(format!("per-layer metric {name} was not measured")),
        }
    }
    report.spans_jsonl = Some(summary.spans_jsonl);
    report
}
