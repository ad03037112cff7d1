//! In-memory spans for the traced run.
//!
//! A span records one call into a layer: its name, start, end, the span
//! that caused it, and the request it belongs to. The root span of a
//! request is its loopback round trip. Its children are in-process
//! replays of the same request through each layer's public functions,
//! run after the round trip, so they are attributions rather than
//! intervals nested inside it. Coverage is therefore computed from the
//! children's own intervals: a span's self time is its duration minus
//! the length of the union of its children's intervals. For a request
//! whose children do not overlap, the self times of its spans sum to the
//! round trip exactly, and the root's self time is the remainder that no
//! replayed layer explains.

use std::time::Instant;

/// Index of a span within its [`Recorder`].
pub type SpanId = usize;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `"engine.dispatch"`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub request: u64,
    /// The span that caused this one (`None` for a request's root).
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span log. Spans stay in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty log whose clock starts at `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span measured elsewhere.
    pub fn push(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Run `f` as one span and record it.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = self.now_ns();
        let out = std::hint::black_box(f());
        let end = self.now_ns();
        (out, self.push(name, request, parent, start, end))
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of half-open intervals.
#[must_use]
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    covered
}

/// Self time of every span, in nanoseconds (negative when replayed
/// children took longer than the span they explain).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns.max(span.start_ns)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() as i64 - union_len(kids) as i64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
            span("c", Some(0), 90, 95),
        ];
        let own = self_times(&spans);
        // Union of [10,50), [30,70), [90,95) is 65 long.
        assert_eq!(own, vec![35, 40, 40, 5]);
    }

    #[test]
    fn nested_children_leave_self_time_at_each_level() {
        let spans = vec![
            span("root", None, 0, 100),
            span("mid", Some(0), 10, 60),
            span("leaf", Some(1), 20, 30),
            span("leaf", Some(1), 25, 40),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 10, 15]);
    }

    #[test]
    fn replayed_children_outside_the_root_still_attribute() {
        // Children measured after the round trip: self times still sum
        // to the root's duration when they do not overlap each other.
        let spans = vec![
            span("request", None, 0, 100),
            span("decode", Some(0), 200, 210),
            span("dispatch", Some(0), 210, 270),
            span("cache", Some(2), 300, 320),
            span("encode", Some(0), 270, 285),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![15, 10, 40, 20, 15]);
        assert_eq!(own.iter().sum::<i64>(), 100);
    }

    #[test]
    fn replays_longer_than_the_request_give_a_negative_remainder() {
        let spans = vec![span("request", None, 0, 10), span("x", Some(0), 20, 35)];
        assert_eq!(self_times(&spans), vec![-5, 15]);
    }

    #[test]
    fn recorder_times_and_links_spans() {
        let mut rec = Recorder::new(Instant::now());
        let (_, root) = rec.time("request", 7, None, std::thread::yield_now);
        let (v, child) = rec.time("leaf", 7, Some(root), || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(rec.spans()[child].parent, Some(root));
        assert!(rec.spans()[root].end_ns >= rec.spans()[root].start_ns);
    }
}
