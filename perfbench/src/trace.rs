//! In-memory spans recorded by the benchmark around its calls into each
//! layer, with self time computed as a span's duration minus the part
//! of it that its child spans cover.

use std::io::Write;
use std::time::Instant;

/// One timed call: its name, interval (nanoseconds since the tracer's
/// origin), the span that caused it and the operation it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer boundary, e.g. `nmsccp.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the origin.
    pub start: u64,
    /// End, in nanoseconds since the origin.
    pub end: u64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    /// The operation (session, replayed request or solve) it belongs to.
    pub op: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The span's duration in microseconds.
    pub fn micros(&self) -> f64 {
        self.duration() as f64 / 1e3
    }
}

/// Collects spans of one thread; tracers sharing an origin merge into
/// one timeline.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer timing from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start: self.nanos(start),
            end: self.nanos(end),
            parent,
            op,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, op, now, now)
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&mut self, id: usize) {
        let now = self.nanos(Instant::now());
        self.spans[id].end = now;
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, op, start, Instant::now());
        (out, id)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span. Overlapping children (a
/// parallel fan-out) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(span.end));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration() - covered
        })
        .collect()
}

/// Durations in microseconds of every span with the given name.
pub fn micros_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::micros)
        .collect()
}

/// Writes the spans as JSON lines, each with its self time.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{}}}",
            span.name, span.op, span.start, span.end, parent, self_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("session", 0, 100, None),
            span("connect", 0, 10, Some(0)),
            span("write", 10, 20, Some(0)),
            span("await", 20, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 10, 70]);
    }

    #[test]
    fn self_time_with_overlapping_children() {
        let spans = vec![
            span("negotiate", 0, 100, None),
            // Two parallel runs overlap on 20..30: covered 10..40 once.
            span("run", 10, 30, Some(0)),
            span("run", 20, 40, Some(0)),
            // Nested inside the first run: not a direct child of 0.
            span("solve", 12, 18, Some(1)),
            // A child that outlives its parent is clipped to it.
            span("late", 90, 130, Some(0)),
            // A child entirely inside an earlier one adds nothing.
            span("inner", 22, 28, Some(0)),
        ];
        let self_ns = self_times(&spans);
        assert_eq!(self_ns[0], 100 - 30 - 10);
        assert_eq!(self_ns[1], 20 - 6);
        assert_eq!(self_ns[2], 20);
        assert_eq!(self_ns[4], 40);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.begin("a", None, 1);
        a.end(root);
        let mut b = Tracer::new(origin);
        let parent = b.begin("b", None, 2);
        let (_, child) = b.time("c", Some(parent), 2, || ());
        b.end(parent);
        assert_eq!(child, 1);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(micros_of(a.spans(), "c").len(), 1);
    }
}
