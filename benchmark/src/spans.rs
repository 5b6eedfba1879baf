//! The benchmark's own tracer: spans recorded around calls into each
//! layer, held in memory and written out as JSON lines when the run
//! ends. The product is not instrumented here; spans inside it are a
//! later change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: a call into a layer, or a root grouping one op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The metric-style name of what was called (`core.refine`, …).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The op (job index, session index, request index) all spans of
    /// one unit of work share.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, total and self time of every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus what their child spans cover.
    pub self_ns: u64,
}

/// [`NameTotals`] by span name.
#[derive(Clone, Debug, Default)]
pub struct Totals(BTreeMap<&'static str, NameTotals>);

impl Totals {
    /// The totals of `name` (all zero when no such span was recorded).
    pub fn of(&self, name: &str) -> NameTotals {
        self.0.get(name).copied().unwrap_or_default()
    }

    /// Total seconds spent in spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.of(name).total_ns as f64 / 1e9
    }

    /// Mean microseconds per span named `name` (0 when there is none).
    pub fn per_call_us(&self, name: &str) -> f64 {
        match self.of(name) {
            NameTotals { count: 0, .. } => 0.0,
            totals => totals.total_ns as f64 / 1e3 / totals.count as f64,
        }
    }

    /// Every name with its totals, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, NameTotals)> + '_ {
        self.0.iter().map(|(&name, &totals)| (name, totals))
    }
}

/// Single-threaded span recorder with a parent stack.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become
    /// its children. Returns `f`'s result and the span's duration in
    /// seconds.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (result, (end_ns - start_ns) as f64 / 1e9)
    }

    /// [`Tracer::timed`] for callers that do not need the duration.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.timed(name, op, f).0
    }

    /// Record an interval measured elsewhere (another thread's clock
    /// readings, taken against [`Tracer::epoch`]) as a root span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            op,
        });
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time. Children never overlap
    /// (the tracer is single-threaded), so a span's self time is its
    /// duration minus the sum of its direct children's.
    pub fn totals(&self) -> Totals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(covered);
        }
        Totals(totals)
    }

    /// One JSON object per span, one per line:
    /// `{"name":…,"start_ns":…,"end_ns":…,"parent":…,"op":…}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            // Names are the benchmark's own identifiers: no escaping needed.
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-written intervals, so the arithmetic is exact.
    fn fixture() -> Tracer {
        let span = |name, start_ns, end_ns, parent, op| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        };
        Tracer {
            epoch: Instant::now(),
            spans: vec![
                span("job", 0, 100, None, 7),
                span("build", 10, 30, Some(0), 7),
                span("map", 30, 90, Some(0), 7),
                span("refine", 40, 80, Some(2), 7),
                span("job", 100, 150, None, 8),
                span("build", 100, 150, Some(4), 8),
            ],
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let totals = fixture().totals();
        // job: (100 - 20 - 60) + (50 - 50); map: 60 - 40.
        assert_eq!(
            totals.of("job"),
            NameTotals {
                count: 2,
                total_ns: 150,
                self_ns: 20
            }
        );
        assert_eq!(
            totals.of("map"),
            NameTotals {
                count: 1,
                total_ns: 60,
                self_ns: 20
            }
        );
        assert_eq!(totals.of("refine").self_ns, 40);
        assert_eq!(totals.of("build").total_ns, 70);
    }

    #[test]
    fn self_times_sum_to_the_root_spans() {
        let tracer = fixture();
        let self_sum: u64 = tracer.totals().iter().map(|(_, t)| t.self_ns).sum();
        let roots: u64 = tracer
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        assert_eq!(self_sum, roots);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut tracer = Tracer::default();
        let value = tracer.span("outer", 3, |t| {
            t.span("inner", 3, |_| ());
            t.span("inner", 3, |_| 5)
        });
        assert_eq!(value, 5);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(spans.iter().all(|s| s.op == 3));
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let text = fixture().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(
            lines[0],
            r#"{"name":"job","start_ns":0,"end_ns":100,"parent":null,"op":7}"#
        );
        assert_eq!(
            lines[3],
            r#"{"name":"refine","start_ns":40,"end_ns":80,"parent":2,"op":7}"#
        );
    }
}
