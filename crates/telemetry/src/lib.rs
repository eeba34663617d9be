//! Zero-dependency observability layer for the softsoa workspace.
//!
//! The paper's dependability story — checked transitions keeping the
//! store inside the `C1`–`C4` interval, the refinement `S⇓E ⊑ R⇓E` —
//! is only auditable when runs are inspectable. This crate provides
//! the measurement substrate: counters, gauges, observation
//! aggregates, ordered series, timings, and hierarchical spans, all
//! routed through a pluggable [`Sink`].
//!
//! # Overhead contract
//!
//! A [`Telemetry`] handle is disabled by default. Every recording
//! method starts with a single branch on the absence of a sink and
//! returns immediately — no allocation, no locking, no formatting, no
//! clock reads. Instrumented hot paths therefore pay one predictable
//! branch when observability is off.
//!
//! # Determinism
//!
//! [`Snapshot::to_json`] renders only the deterministic families —
//! counters, gauges, observation aggregates, and series — with keys
//! sorted and integer values only. Wall-clock timings are excluded;
//! they appear only in [`Snapshot::render_pretty`]. A fixed-seed run
//! instrumented through this crate therefore produces a byte-for-byte
//! identical JSON snapshot across invocations.
//!
//! # Examples
//!
//! ```
//! use softsoa_telemetry::Telemetry;
//!
//! let (tel, sink) = Telemetry::recording();
//! tel.count("solve.nodes", 42);
//! tel.gauge("solve.threads", 4);
//! {
//!     let span = tel.span("broker.negotiate");
//!     span.telemetry().incr("broker.sessions");
//! } // span drop records a timing under "broker.negotiate"
//! let snap = sink.snapshot();
//! assert_eq!(snap.counters.get("solve.nodes"), Some(&42));
//! assert_eq!(snap.counters.get("broker.negotiate/broker.sessions"), Some(&1));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One telemetry event, borrowed from the recording site.
///
/// Sinks receive events synchronously on the recording thread; a sink
/// that needs to retain data must copy it out.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// A monotone counter increment.
    Count {
        /// Metric name (already prefix-resolved).
        name: &'a str,
        /// Amount to add.
        delta: u64,
    },
    /// A point-in-time value; the last write wins.
    Gauge {
        /// Metric name.
        name: &'a str,
        /// Current value.
        value: i64,
    },
    /// One sample of a distribution (histogram-style aggregate:
    /// count / sum / min / max).
    Observe {
        /// Metric name.
        name: &'a str,
        /// Sampled value.
        value: u64,
    },
    /// One point of an ordered series (e.g. the consistency level at
    /// each nmsccp step).
    Series {
        /// Series name.
        name: &'a str,
        /// X-axis position (step, attempt, ...).
        index: u64,
        /// Rendered Y value.
        value: &'a str,
    },
    /// A measured duration. Excluded from deterministic snapshots.
    Timing {
        /// Metric name.
        name: &'a str,
        /// Elapsed wall-clock time in nanoseconds.
        nanos: u64,
    },
}

impl Event<'_> {
    /// The event's metric name.
    pub fn name(&self) -> &str {
        match self {
            Event::Count { name, .. }
            | Event::Gauge { name, .. }
            | Event::Observe { name, .. }
            | Event::Series { name, .. }
            | Event::Timing { name, .. } => name,
        }
    }
}

/// Receives telemetry events. Implementations must be cheap: they run
/// synchronously on the instrumented thread.
pub trait Sink: Send + Sync {
    /// Records one event.
    fn record(&self, event: Event<'_>);
}

/// A cloneable handle instrumented code records through.
///
/// Disabled by default ([`Telemetry::disabled`], also `Default`):
/// every method is a single-branch no-op. Enable by attaching a
/// [`Sink`] with [`Telemetry::with_sink`] or [`Telemetry::recording`].
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn Sink>>,
    prefix: Option<Arc<str>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.sink, &self.prefix) {
            (None, _) => f.write_str("Telemetry(disabled)"),
            (Some(_), None) => f.write_str("Telemetry(enabled)"),
            (Some(_), Some(p)) => write!(f, "Telemetry(enabled, prefix={p:?})"),
        }
    }
}

impl Telemetry {
    /// The no-op handle: records nothing, costs one branch per call.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// A handle that forwards every event to `sink`.
    pub fn with_sink(sink: Arc<dyn Sink>) -> Telemetry {
        Telemetry {
            sink: Some(sink),
            prefix: None,
        }
    }

    /// Convenience: an enabled handle backed by a fresh in-memory
    /// sink, returned alongside it for later [`MemorySink::snapshot`].
    pub fn recording() -> (Telemetry, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::default());
        (Telemetry::with_sink(sink.clone()), sink)
    }

    /// Whether a sink is attached. Use to guard batches of recordings
    /// or any formatting work feeding [`Telemetry::series`].
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// A handle recording to the same sink with `segment/` prepended
    /// to every metric name. Scoping a disabled handle stays free.
    pub fn scoped(&self, segment: &str) -> Telemetry {
        let Some(sink) = &self.sink else {
            return Telemetry::default();
        };
        let prefix: Arc<str> = match &self.prefix {
            Some(p) => Arc::from(format!("{p}/{segment}")),
            None => Arc::from(segment),
        };
        Telemetry {
            sink: Some(sink.clone()),
            prefix: Some(prefix),
        }
    }

    fn full_name<'a>(&self, name: &'a str) -> std::borrow::Cow<'a, str> {
        match &self.prefix {
            Some(p) => std::borrow::Cow::Owned(format!("{p}/{name}")),
            None => std::borrow::Cow::Borrowed(name),
        }
    }

    /// Adds `delta` to the counter `name`.
    pub fn count(&self, name: &str, delta: u64) {
        let Some(sink) = &self.sink else { return };
        sink.record(Event::Count {
            name: &self.full_name(name),
            delta,
        });
    }

    /// Adds one to the counter `name`.
    pub fn incr(&self, name: &str) {
        self.count(name, 1);
    }

    /// Adds `delta` to the counter `name{label}` (per-provider,
    /// per-rule, ... breakdowns).
    pub fn count_labeled(&self, name: &str, label: &str, delta: u64) {
        let Some(sink) = &self.sink else { return };
        sink.record(Event::Count {
            name: &self.full_name(&format!("{name}{{{label}}}")),
            delta,
        });
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge(&self, name: &str, value: i64) {
        let Some(sink) = &self.sink else { return };
        sink.record(Event::Gauge {
            name: &self.full_name(name),
            value,
        });
    }

    /// Records one sample of the distribution `name`.
    pub fn observe(&self, name: &str, value: u64) {
        let Some(sink) = &self.sink else { return };
        sink.record(Event::Observe {
            name: &self.full_name(name),
            value,
        });
    }

    /// Appends `(index, value)` to the series `name`. The value is
    /// only formatted when a sink is attached.
    pub fn series(&self, name: &str, index: u64, value: impl fmt::Display) {
        let Some(sink) = &self.sink else { return };
        let rendered = value.to_string();
        sink.record(Event::Series {
            name: &self.full_name(name),
            index,
            value: &rendered,
        });
    }

    /// Records an elapsed duration under `name`.
    pub fn timing(&self, name: &str, elapsed: Duration) {
        let Some(sink) = &self.sink else { return };
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        sink.record(Event::Timing {
            name: &self.full_name(name),
            nanos,
        });
    }

    /// Records an elapsed duration under `name{label}`.
    pub fn timing_labeled(&self, name: &str, label: &str, elapsed: Duration) {
        let Some(sink) = &self.sink else { return };
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        sink.record(Event::Timing {
            name: &self.full_name(&format!("{name}{{{label}}}")),
            nanos,
        });
    }

    /// Opens a hierarchical span named `name`.
    ///
    /// The span's [`Span::telemetry`] handle prefixes nested metrics
    /// with the span path; dropping the span records the elapsed time
    /// as a [`Event::Timing`] under the path. On a disabled handle the
    /// span is free: no clock is read.
    pub fn span(&self, name: &str) -> Span {
        if self.sink.is_none() {
            return Span {
                scope: Telemetry::default(),
                start: None,
            };
        }
        Span {
            scope: self.scoped(name),
            start: Some(Instant::now()),
        }
    }
}

/// A hierarchical timing scope; see [`Telemetry::span`].
#[derive(Debug)]
pub struct Span {
    scope: Telemetry,
    start: Option<Instant>,
}

impl Span {
    /// The handle scoped to this span's path.
    pub fn telemetry(&self) -> &Telemetry {
        &self.scope
    }

    /// Opens a child span.
    pub fn span(&self, name: &str) -> Span {
        self.scope.span(name)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            // Record the elapsed time under the span path itself: the
            // scope already carries the full path as its prefix.
            let Some(sink) = &self.scope.sink else { return };
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let name = self.scope.prefix.as_deref().unwrap_or("span");
            sink.record(Event::Timing { name, nanos });
        }
    }
}

/// Aggregate of [`Event::Observe`] samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObservationStats {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (saturating).
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl ObservationStats {
    fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }
}

/// Aggregate of [`Event::Timing`] samples, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimingStats {
    /// Number of measured durations.
    pub count: u64,
    /// Total elapsed nanoseconds (saturating).
    pub total_nanos: u64,
    /// Shortest duration, in nanoseconds.
    pub min_nanos: u64,
    /// Longest duration, in nanoseconds.
    pub max_nanos: u64,
}

impl TimingStats {
    fn record(&mut self, nanos: u64) {
        if self.count == 0 {
            self.min_nanos = nanos;
            self.max_nanos = nanos;
        } else {
            self.min_nanos = self.min_nanos.min(nanos);
            self.max_nanos = self.max_nanos.max(nanos);
        }
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
    }
}

#[derive(Debug, Clone, Default)]
struct MemoryState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    observations: BTreeMap<String, ObservationStats>,
    series: BTreeMap<String, Vec<(u64, String)>>,
    timings: BTreeMap<String, TimingStats>,
}

/// The standard in-memory sink: thread-safe aggregation into sorted
/// maps, snapshot on demand.
#[derive(Default)]
pub struct MemorySink {
    state: Mutex<MemoryState>,
}

impl fmt::Debug for MemorySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MemorySink")
    }
}

impl Sink for MemorySink {
    fn record(&self, event: Event<'_>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match event {
            Event::Count { name, delta } => {
                let slot = state.counters.entry(name.to_string()).or_insert(0);
                *slot = slot.saturating_add(delta);
            }
            Event::Gauge { name, value } => {
                state.gauges.insert(name.to_string(), value);
            }
            Event::Observe { name, value } => {
                state
                    .observations
                    .entry(name.to_string())
                    .or_default()
                    .record(value);
            }
            Event::Series { name, index, value } => {
                state
                    .series
                    .entry(name.to_string())
                    .or_default()
                    .push((index, value.to_string()));
            }
            Event::Timing { name, nanos } => {
                state
                    .timings
                    .entry(name.to_string())
                    .or_default()
                    .record(nanos);
            }
        }
    }
}

impl MemorySink {
    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        Snapshot {
            counters: state.counters.clone(),
            gauges: state.gauges.clone(),
            observations: state.observations.clone(),
            series: state.series.clone(),
            timings: state.timings.clone(),
        }
    }
}

/// A point-in-time copy of a [`MemorySink`]'s aggregates.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotone counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges, by name.
    pub gauges: BTreeMap<String, i64>,
    /// Distribution aggregates, by name.
    pub observations: BTreeMap<String, ObservationStats>,
    /// Ordered series, by name.
    pub series: BTreeMap<String, Vec<(u64, String)>>,
    /// Wall-clock timing aggregates, by name. Excluded from
    /// [`Snapshot::to_json`].
    pub timings: BTreeMap<String, TimingStats>,
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Snapshot {
    /// Renders the deterministic families — counters, gauges,
    /// observation aggregates, series — as one line of JSON with keys
    /// in sorted order and integer values only. Timings are excluded,
    /// so equal fixed-seed runs produce byte-for-byte equal output.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"observations\":{");
        for (i, (k, o)) in self.observations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
                o.count, o.sum, o.min, o.max
            ));
        }
        out.push_str("},\"series\":{");
        for (i, (k, points)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            out.push_str(":[");
            for (j, (index, value)) in points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{index},"));
                push_json_string(&mut out, value);
                out.push(']');
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }

    /// Renders a human-readable report including wall-clock timings.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        if !self.observations.is_empty() {
            out.push_str("observations:\n");
            for (k, o) in &self.observations {
                let mean = o.sum.checked_div(o.count).unwrap_or(0);
                out.push_str(&format!(
                    "  {k}: n={} sum={} min={} mean={} max={}\n",
                    o.count, o.sum, o.min, mean, o.max
                ));
            }
        }
        if !self.series.is_empty() {
            out.push_str("series:\n");
            for (k, points) in &self.series {
                out.push_str(&format!("  {k}:"));
                for (index, value) in points {
                    out.push_str(&format!(" {index}:{value}"));
                }
                out.push('\n');
            }
        }
        if !self.timings.is_empty() {
            out.push_str("timings (non-deterministic, excluded from json):\n");
            for (k, t) in &self.timings {
                let mean = t.total_nanos.checked_div(t.count).unwrap_or(0);
                out.push_str(&format!(
                    "  {k}: n={} total={}µs min={}µs mean={}µs max={}µs\n",
                    t.count,
                    t.total_nanos / 1_000,
                    t.min_nanos / 1_000,
                    mean / 1_000,
                    t.max_nanos / 1_000
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no telemetry recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_memory_sink_keeps_recording() {
        let (tel, sink) = Telemetry::recording();
        tel.count("a", 1);
        let poisoned = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = sink.state.lock().unwrap();
                    panic!("panic while holding the sink lock");
                })
                .join()
        });
        assert!(poisoned.is_err() && sink.state.is_poisoned());
        tel.count("a", 2);
        assert_eq!(sink.snapshot().counters.get("a"), Some(&3));
    }

    #[test]
    fn disabled_handle_records_nothing_and_reports_disabled() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        tel.count("a", 1);
        tel.gauge("b", 2);
        tel.observe("c", 3);
        tel.series("d", 0, "x");
        tel.timing("e", Duration::from_millis(1));
        let span = tel.span("f");
        assert!(!span.telemetry().enabled());
        drop(span);
        assert_eq!(format!("{tel:?}"), "Telemetry(disabled)");
    }

    #[test]
    fn counters_accumulate_and_labels_key_separately() {
        let (tel, sink) = Telemetry::recording();
        tel.incr("hits");
        tel.count("hits", 4);
        tel.count_labeled("hits", "svc-a", 2);
        let snap = sink.snapshot();
        assert_eq!(snap.counters["hits"], 5);
        assert_eq!(snap.counters["hits{svc-a}"], 2);
    }

    #[test]
    fn gauges_last_write_wins() {
        let (tel, sink) = Telemetry::recording();
        tel.gauge("threads", 2);
        tel.gauge("threads", 8);
        assert_eq!(sink.snapshot().gauges["threads"], 8);
    }

    #[test]
    fn observations_aggregate_count_sum_min_max() {
        let (tel, sink) = Telemetry::recording();
        for v in [5u64, 1, 9] {
            tel.observe("chunk", v);
        }
        let o = sink.snapshot().observations["chunk"];
        assert_eq!((o.count, o.sum, o.min, o.max), (3, 15, 1, 9));
    }

    #[test]
    fn series_preserve_order_and_indices() {
        let (tel, sink) = Telemetry::recording();
        tel.series("level", 0, 10);
        tel.series("level", 1, 7);
        tel.series("level", 1, 7);
        let points = sink.snapshot().series["level"].clone();
        assert_eq!(
            points,
            vec![
                (0, "10".to_string()),
                (1, "7".to_string()),
                (1, "7".to_string())
            ]
        );
    }

    #[test]
    fn spans_scope_names_and_record_timings() {
        let (tel, sink) = Telemetry::recording();
        {
            let outer = tel.span("outer");
            outer.telemetry().incr("work");
            {
                let inner = outer.span("inner");
                inner.telemetry().incr("work");
            }
        }
        let snap = sink.snapshot();
        assert_eq!(snap.counters["outer/work"], 1);
        assert_eq!(snap.counters["outer/inner/work"], 1);
        assert_eq!(snap.timings["outer"].count, 1);
        assert_eq!(snap.timings["outer/inner"].count, 1);
    }

    #[test]
    fn json_is_deterministic_sorted_and_excludes_timings() {
        let (tel, sink) = Telemetry::recording();
        tel.count("z", 1);
        tel.count("a", 2);
        tel.gauge("g", -3);
        tel.observe("o", 4);
        tel.series("s", 0, "lo\"w");
        tel.timing("t", Duration::from_millis(5));
        let a = sink.snapshot().to_json();
        let b = sink.snapshot().to_json();
        assert_eq!(a, b);
        assert_eq!(
            a,
            "{\"counters\":{\"a\":2,\"z\":1},\"gauges\":{\"g\":-3},\
             \"observations\":{\"o\":{\"count\":1,\"sum\":4,\"min\":4,\"max\":4}},\
             \"series\":{\"s\":[[0,\"lo\\\"w\"]]}}"
        );
        assert!(!a.contains("\"t\""));
        assert!(sink.snapshot().render_pretty().contains("timings"));
    }

    #[test]
    fn scoped_prefixes_compose() {
        let (tel, sink) = Telemetry::recording();
        tel.scoped("broker").scoped("provider").incr("retries");
        assert_eq!(sink.snapshot().counters["broker/provider/retries"], 1);
    }
}
