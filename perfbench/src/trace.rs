//! In-memory spans.
//!
//! A span has a name, a start and an end (offsets from the tracer's
//! origin) and the span that caused it; the spans of one request share a
//! trace id. When a request finishes, each span's self time — its
//! duration minus the part its children cover — is added to a per-name
//! total, and the first spans are also kept verbatim for the trace file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Spans each tracer keeps verbatim for the trace file.
const KEEP: usize = 20_000;

struct Span {
    trace: u64,
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// An open span of the current request.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

pub struct Tracer {
    source: String,
    origin: Instant,
    /// Id of the request in progress; also the count of finished ones.
    trace: u64,
    open: Vec<Span>,
    kept: Vec<Span>,
    self_time: BTreeMap<&'static str, Duration>,
}

impl Tracer {
    pub fn new(source: impl Into<String>, origin: Instant) -> Tracer {
        Tracer {
            source: source.into(),
            origin,
            trace: 0,
            open: Vec::new(),
            kept: Vec::new(),
            self_time: BTreeMap::new(),
        }
    }

    /// Starts a span of the current request.
    pub fn enter(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.origin.elapsed();
        let id = self.open.len();
        self.open.push(Span {
            trace: self.trace,
            id,
            parent: parent.map(|p| p.0),
            name,
            start: now,
            end: now,
        });
        SpanId(id)
    }

    pub fn exit(&mut self, span: SpanId) {
        self.open[span.0].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span that is a child of `parent`.
    pub fn span<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, Some(parent));
        let out = f();
        self.exit(span);
        out
    }

    /// Ends the current request.
    pub fn finish(&mut self) {
        let mut covered = vec![Duration::ZERO; self.open.len()];
        for s in &self.open {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        for (s, covered) in self.open.iter().zip(covered) {
            *self.self_time.entry(s.name).or_default() += (s.end - s.start).saturating_sub(covered);
        }
        if self.kept.len() + self.open.len() <= KEEP {
            self.kept.append(&mut self.open);
        } else {
            self.open.clear();
        }
        self.trace += 1;
    }

    /// Total self time of the spans named `name`, per finished trace (a
    /// frame), in microseconds.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        match self.self_time.get(name) {
            Some(total) if self.trace > 0 => total.as_secs_f64() * 1e6 / self.trace as f64,
            _ => 0.0,
        }
    }

    /// Appends the kept spans to `out`, one JSON object per line.
    pub fn write_jsonl(&self, out: &mut String) {
        for s in &self.kept {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"source\":\"{}\",\"trace\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.source,
                s.trace,
                s.id,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
    }
}
