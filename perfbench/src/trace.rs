//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions (name, start, end, parent span, operation id), kept in
//! memory and written out once when the run ends. Counters taken at the same
//! boundaries (engine and solver statistics, cache hits) are accumulated
//! next to them. A disabled tracer records nothing, so the untraced run
//! measures the end-to-end metrics without tracing cost.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    /// The operation (pass, request, restart) the span belongs to.
    pub op: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
}

/// Handle of an open span; [`Tracer::end`] closes it.
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// Records an interval measured elsewhere (e.g. inside a closure the
    /// pipeline calls back) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += v;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Durations of the spans named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Writes every span as a tab-separated line:
    /// `id parent op name start_ns end_ns` (parent `-` for roots).
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_interval_nests_under_the_open_span() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer");
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        tr.record("inner", start, Instant::now());
        tr.end(outer);
        assert!(tr.total("inner") >= 0.002);
        assert!(tr.total("outer") >= tr.total("inner"));
        assert_eq!(tr.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin("x");
        tr.end(s);
        tr.count("c", 1.0);
        assert_eq!(tr.total("x"), 0.0);
        assert_eq!(tr.counter("c"), 0.0);
    }
}
