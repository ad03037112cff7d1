//! Per-layer metrics from a traced run: span statistics from the
//! replays plus the served engine's own counters.

use crate::outcome::Outcome;
use crate::replay::{Phase, Proto, Tracer};
use crate::stats::median;
use crate::trace::Span;
use std::collections::HashMap;
use std::fmt::Write as _;

/// The per-layer metrics a traced run reports, with units. Each is
/// measured on every workload in `BENCHMARK.json`; see
/// [`crate::Workload::unexercised`] for the others.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("tcp.transport_us", "us"),
    ("tcp.req_bytes", "B"),
    ("tcp.reply_bytes", "B"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.lz4_ratio", "ratio"),
    ("engine.dispatch_us", "us"),
    ("engine.self_us", "us"),
    ("engine.shed", "count"),
    ("engine.errors", "count"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_us", "us"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.share_us", "us"),
    ("learn.train_exact_ms", "ms"),
    ("learn.predict_us", "us"),
    ("learn.rows_x_trees", "count"),
    ("core.sensitivity_us", "us"),
    ("optim.evals", "count"),
    ("datagen.ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Span-timed metrics: `(metric, span, unit, scale from ns)`, the median
/// over every span of that name in the traced run.
const SPAN_MEDIANS: [(&str, &str, &str, f64); 8] = [
    ("cache.hit_us", "cache.hit", "us", 1e-3),
    ("store.share_us", "store.share", "us", 1e-3),
    ("learn.train_binned_ms", "learn.train_binned", "ms", 1e-6),
    ("learn.predict_us", "learn.predict", "us", 1e-3),
    ("core.sensitivity_us", "core.sensitivity", "us", 1e-3),
    ("core.comparison_ms", "core.comparison", "ms", 1e-6),
    ("core.importance_ms", "core.importance", "ms", 1e-6),
    ("optim.goal_ms", "optim.goal", "ms", 1e-6),
];

/// Per-layer metrics and report lines.
pub struct Layers {
    /// `(name, value, unit)` for every metric measured.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable detail, including per-request reconciliation.
    pub lines: Vec<String>,
    /// Spans as JSON lines, for the trace file.
    pub spans_jsonl: String,
    /// Share of timed requests whose replayed layers took longer than
    /// the round trip (a negative `tcp.transport` remainder).
    pub negative_remainder_share: f64,
}

/// Summarize a traced run. `untraced_p50_us` is the headline view's
/// median from the untraced run of the same workload and seed.
#[must_use]
pub fn summarize(tracer: &Tracer, traced: &Outcome, untraced_p50_us: f64) -> Layers {
    let (spans, roots) = tracer.spans();
    let own = tracer.self_times();
    let timed_request: HashMap<u64, bool> = roots
        .iter()
        .map(|r| (spans[r.span].request, r.phase == Phase::Timed))
        .collect();
    let is_timed = |s: &Span| timed_request.get(&s.request).copied().unwrap_or(false);

    let durations = |name: &str, timed_only: bool, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && (!timed_only || is_timed(s)))
            .map(|s| s.duration_ns() as f64 * scale)
            .collect()
    };
    let self_of = |name: &str, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name && is_timed(s))
            .map(|(_, &o)| o as f64 * scale)
            .collect()
    };
    let med = |v: Vec<f64>| median(&v);

    let c = &traced.counters;
    let requests = traced.timed_requests.max(1) as f64;
    let mut metrics: Vec<(String, Option<f64>, &str)> = vec![
        (
            "tcp.transport_us".into(),
            med(self_of("request", 1e-3)),
            "us",
        ),
        ("tcp.req_bytes".into(), Some(c.net_in / requests), "B"),
        ("tcp.reply_bytes".into(), Some(c.net_out / requests), "B"),
        (
            "protocol.decode_us".into(),
            med(durations("protocol.decode", true, 1e-3)),
            "us",
        ),
        (
            "protocol.encode_us".into(),
            med(durations("protocol.encode", true, 1e-3)),
            "us",
        ),
        (
            "wire.decode_us".into(),
            med(durations("wire.decode", true, 1e-3)),
            "us",
        ),
        (
            "wire.encode_us".into(),
            med(durations("wire.encode", true, 1e-3)),
            "us",
        ),
        (
            "wire.lz4_ratio".into(),
            (c.v3_wire_out > 0.0).then(|| c.v3_raw_out / c.v3_wire_out),
            "ratio",
        ),
        (
            "engine.dispatch_us".into(),
            med(durations("engine.dispatch", true, 1e-3)),
            "us",
        ),
        (
            "engine.self_us".into(),
            med(self_of("engine.dispatch", 1e-3)),
            "us",
        ),
        ("engine.shed".into(), Some(c.shed), "count"),
        ("engine.errors".into(), Some(c.errors), "count"),
        ("cache.lookups".into(), Some(c.cache_lookups()), "count"),
        (
            "cache.hit_ratio".into(),
            Some(c.cache_hits / c.cache_lookups().max(1.0)),
            "ratio",
        ),
        ("cache.insertions".into(), Some(c.cache_insertions), "count"),
        ("cache.evictions".into(), Some(c.cache_evictions), "count"),
        ("store.hits".into(), Some(c.store_hits), "count"),
        ("store.misses".into(), Some(c.store_misses), "count"),
        (
            "learn.train_exact_ms".into(),
            med(durations("learn.train_exact", false, 1e-6)),
            "ms",
        ),
        (
            "learn.rows_x_trees".into(),
            Some(tracer.cold_evals / tracer.cold_views.max(1) as f64),
            "count",
        ),
        (
            "optim.evals".into(),
            Some(median(&tracer.goal_evals).unwrap_or(0.0)),
            "count",
        ),
        (
            "datagen.ms".into(),
            med(durations("datagen", false, 1e-6)),
            "ms",
        ),
        (
            "trace.overhead_pct".into(),
            traced.view_p50_us()[0].map(|p| (p - untraced_p50_us) / untraced_p50_us * 100.0),
            "%",
        ),
    ];
    for (metric, span, unit, scale) in SPAN_MEDIANS {
        metrics.push((metric.into(), med(durations(span, false, scale)), unit));
    }
    if tracer.bulk_scenarios > 0 {
        let total_us: f64 = durations("core.bulk", false, 1e-3).iter().sum();
        metrics.push((
            "core.bulk_us_per_scenario".into(),
            Some(total_us / tracer.bulk_scenarios as f64),
            "us",
        ));
    }

    let mut lines = Vec::new();
    let mut out_metrics = Vec::new();
    for (name, value, unit) in metrics {
        match value {
            Some(v) => {
                lines.push(format!("layer {name} = {v} {unit}"));
                out_metrics.push((name, v, unit.to_string()));
            }
            None => lines.push(format!("layer {name}: not exercised by this workload")),
        }
    }

    // Reconciliation: per request, the layers' self times plus the
    // remainder (the root's self time) make up the round trip. Replays run
    // one after another, so the sum holds by construction; what can go
    // wrong is a replay slower than the round trip, which leaves the
    // remainder negative.
    let remainders: Vec<f64> = roots
        .iter()
        .filter(|r| r.phase == Phase::Timed)
        .map(|r| own[r.span] as f64)
        .collect();
    let negative = remainders.iter().filter(|&&ns| ns < 0.0).count();
    let negative_remainder_share = negative as f64 / remainders.len().max(1) as f64;
    let shares: Vec<f64> = roots
        .iter()
        .filter(|r| r.phase == Phase::Timed)
        .map(|r| own[r.span] as f64 / (spans[r.span].duration_ns() as f64).max(1.0))
        .collect();
    lines.push(format!(
        "reconciliation: {} timed requests; {negative} ({negative_remainder_share:.4}) with a negative \
         remainder; median remainder {} ns, median share of round trip {:.3}",
        remainders.len(),
        median(&remainders).unwrap_or(0.0),
        median(&shares).unwrap_or(0.0)
    ));
    for proto in [Proto::V2, Proto::V3Json, Proto::V3Grid] {
        let n = roots
            .iter()
            .filter(|r| r.proto == proto && r.phase == Phase::Timed)
            .count();
        if n > 0 {
            lines.push(format!("traced timed requests over {proto:?}: {n}"));
        }
    }

    let mut spans_jsonl = String::new();
    for (s, o) in spans.iter().zip(&own) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            spans_jsonl,
            "{{\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{o}}}",
            s.name, s.request, s.start_ns, s.end_ns
        );
    }
    Layers {
        metrics: out_metrics,
        lines,
        spans_jsonl,
        negative_remainder_share,
    }
}
