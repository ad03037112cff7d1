//! What one workload run measured, before it is turned into a report.

use crate::client::Tally;
use crate::stats::median;
use whatif_server::Engine;

/// A point-in-time reading of the served engine's own counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Result-cache hits.
    pub cache_hits: f64,
    /// Result-cache misses.
    pub cache_misses: f64,
    /// Result-cache insertions.
    pub cache_insertions: f64,
    /// Result-cache evictions.
    pub cache_evictions: f64,
    /// Model-store hits (trainings avoided).
    pub store_hits: f64,
    /// Model-store misses (trainings performed).
    pub store_misses: f64,
    /// Socket bytes read by the server.
    pub net_in: f64,
    /// Socket bytes written by the server.
    pub net_out: f64,
    /// v3 reply payload bytes before compression.
    pub v3_raw_out: f64,
    /// v3 reply bytes on the wire.
    pub v3_wire_out: f64,
    /// Requests that ended in a typed error.
    pub errors: f64,
    /// Heavy requests shed by admission control.
    pub shed: f64,
}

impl Counters {
    /// Read every counter from `engine`.
    #[must_use]
    pub fn read(engine: &Engine) -> Counters {
        let cache = engine.cache().stats();
        let store = engine.model_store().stats();
        let snap = engine.metrics_snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        Counters {
            cache_hits: cache.hits as f64,
            cache_misses: cache.misses as f64,
            cache_insertions: cache.insertions as f64,
            cache_evictions: cache.evictions as f64,
            store_hits: store.hits as f64,
            store_misses: store.misses as f64,
            net_in: c("net.bytes_in"),
            net_out: c("net.bytes_out"),
            v3_raw_out: c("v3.bytes_out_raw"),
            v3_wire_out: c("v3.bytes_out_wire"),
            errors: c("errors_total"),
            shed: c("shed_total"),
        }
    }

    /// `self − earlier`, counter by counter.
    #[must_use]
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_insertions: self.cache_insertions - earlier.cache_insertions,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            store_hits: self.store_hits - earlier.store_hits,
            store_misses: self.store_misses - earlier.store_misses,
            net_in: self.net_in - earlier.net_in,
            net_out: self.net_out - earlier.net_out,
            v3_raw_out: self.v3_raw_out - earlier.v3_raw_out,
            v3_wire_out: self.v3_wire_out - earlier.v3_wire_out,
            errors: self.errors - earlier.errors,
            shed: self.shed - earlier.shed,
        }
    }

    /// Cache lookups (hits plus misses).
    #[must_use]
    pub fn cache_lookups(&self) -> f64 {
        self.cache_hits + self.cache_misses
    }
}

/// Requests sent, succeeded and failed in one phase of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTally {
    /// Phase name.
    pub name: String,
    /// Counts.
    pub tally: Tally,
}

/// Everything a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Round trips of the workload's headline view over v2, in µs.
    pub view_v2_us: Vec<f64>,
    /// Round trips of the workload's headline view over v3, in µs.
    pub view_v3_us: Vec<f64>,
    /// For a workload timed in interleaved segments: the mean over its
    /// segments of each segment's median round trip, v2 then v3, in µs.
    pub segment_p50_us: Option<[f64; 2]>,
    /// Work completed per second; each workload says how it is taken.
    pub work_per_s: f64,
    /// Round trips behind `work_per_s`.
    pub work_samples: usize,
    /// Time to first KPI, in ms: one sample per setup or per session.
    pub first_kpi_ms: Vec<f64>,
    /// Wall time of each setup, in s.
    pub setup_s: Vec<f64>,
    /// Peak resident memory once the first set-up is complete, in MiB.
    /// Read before the timed loop so it does not depend on how much work
    /// the loop got through.
    pub peak_rss_mb: Option<f64>,
    /// Workload-specific lines for the human-readable report.
    pub notes: Vec<String>,
    /// Per-phase request accounting.
    pub phases: Vec<PhaseTally>,
    /// Correctness-gate failures.
    pub mismatches: Vec<String>,
    /// Served-engine counter deltas over the timed phases (model-store
    /// counters cover the whole run, since training happens in set-up).
    pub counters: Counters,
    /// Requests sent in the timed phases.
    pub timed_requests: u64,
}

impl Outcome {
    /// The headline view latencies, v2 then v3, in µs: the mean of the
    /// segment medians where the workload ran in segments, else the
    /// median round trip. A mean of segment medians moves in proportion
    /// to the share of the run the host spent in a slower mode, where a
    /// pooled median jumps between the modes.
    #[must_use]
    pub fn view_p50_us(&self) -> [Option<f64>; 2] {
        match self.segment_p50_us {
            Some([v2, v3]) => [Some(v2), Some(v3)],
            None => [median(&self.view_v2_us), median(&self.view_v3_us)],
        }
    }

    /// Record a phase's accounting.
    pub fn phase(&mut self, name: &str, tally: Tally) {
        self.phases.push(PhaseTally {
            name: name.to_string(),
            tally,
        });
    }

    /// Record one finished set-up. The first set-up of the process also
    /// fixes `peak_rss_mb`, so memory the allocator keeps from torn-down
    /// set-ups does not count.
    pub fn setup_done(&mut self, elapsed_s: f64) {
        self.setup_s.push(elapsed_s);
        if self.peak_rss_mb.is_none() {
            self.peak_rss_mb = crate::bed::peak_rss_mb();
        }
    }

    /// Record a correctness-gate failure.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.mismatches.push(what.into());
    }

    /// All requests sent and failed, over every phase.
    #[must_use]
    pub fn total(&self) -> Tally {
        let mut t = Tally::default();
        for p in &self.phases {
            t.add(p.tally);
        }
        t
    }
}

/// Microseconds in a duration.
#[must_use]
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
