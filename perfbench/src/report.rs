//! The metric catalogue and the result line every run prints.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats::{self, Tally};
use crate::trace::Span;

/// End-to-end metrics, with units, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The tail percentile of the end-to-end metrics.
const TAIL_PCT: u32 = 90;

/// Ops per window of a run whose ops cycle through `pool` inputs: the
/// fewest whole passes over the pool that leave [`stats::TAIL_SAMPLES`]
/// samples beyond each window's tail percentile.
pub fn window_ops(pool: usize) -> usize {
    let needed = stats::TAIL_SAMPLES * 100 / (100 - TAIL_PCT as usize);
    let pool = pool.max(1);
    needed.div_ceil(pool) * pool
}

/// Measured ops after which `peak_rss_mb` is read, so the figure
/// covers a fixed amount of work however fast the program runs (at the
/// window's end when fewer ops complete).
pub const RSS_OPS: usize = 1000;

/// Session outcome labels reported as `server.outcomes.<label>`.
pub const OUTCOME_LABELS: [&str; 9] = [
    "bound",
    "degraded",
    "error",
    "shed",
    "timed-out",
    "closed",
    "garbled",
    "hung",
    "connect-failed",
];

/// Per-layer metrics, with units, in output order. A traced run of any
/// workload reports all of them; a layer the workload never enters
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.session_ms.p50", "ms"),
    ("server.session_ms.p99", "ms"),
    ("server.connect_us.p50", "us"),
    ("server.residual_ms.p50", "ms"),
    ("server.residual_ms.p99", "ms"),
    ("server.outcomes.bound", "count"),
    ("server.outcomes.degraded", "count"),
    ("server.outcomes.error", "count"),
    ("server.outcomes.shed", "count"),
    ("server.outcomes.timed-out", "count"),
    ("server.outcomes.closed", "count"),
    ("server.outcomes.garbled", "count"),
    ("server.outcomes.hung", "count"),
    ("server.outcomes.connect-failed", "count"),
    ("protocol.request_parse_us.p50", "us"),
    ("protocol.reply_render_us.p50", "us"),
    ("transport.frame_us.p50", "us"),
    ("protocol.request_bytes", "bytes"),
    ("protocol.reply_bytes", "bytes"),
    ("registry.discover_us.p50", "us"),
    ("registry.candidates.mean", "count"),
    ("registry.write_us.p50", "us"),
    ("registry.services", "count"),
    ("broker.negotiate_ms.p50", "ms"),
    ("broker.self_us.p50", "us"),
    ("broker.agreements_per_attempt", "frac"),
    ("chaos.negotiate_ms.p50", "ms"),
    ("chaos.retries", "1/session"),
    ("chaos.rollbacks", "1/session"),
    ("chaos.relaxations", "1/session"),
    ("chaos.faults_injected", "1/session"),
    ("nmsccp.run_us.p50", "us"),
    ("nmsccp.steps.mean", "count"),
    ("nmsccp.runs_per_session", "count"),
    ("core.binding_incremental_us.p50", "us"),
    ("core.binding_cold_us.p50", "us"),
    ("core.binding_threads", "count"),
    ("core.binding_nodes", "count"),
    ("core.compile_us.p50", "us"),
    ("core.search_us.p50", "us"),
    ("core.nodes.mean", "count"),
    ("core.prunings.mean", "count"),
    ("core.threads", "count"),
    ("core.tree.table_cells.mean", "count"),
    ("core.tree.fallbacks", "count"),
    ("core.materialize_us.mean", "us"),
    ("share.server_residual", "frac"),
    ("share.nmsccp_binding", "frac"),
    ("share.registry_write", "frac"),
    ("share.chaos", "frac"),
    ("trace.layer_spans", "count"),
    ("trace.overhead_frac", "frac"),
];

/// The `server.outcomes.<label>` metric name of a label.
pub fn outcome_metric(label: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.strip_prefix("server.outcomes.") == Some(label))
        .expect("every outcome label has a metric")
}

/// Spans recorded at the server, broker and nmsccp layers.
pub fn layer_spans(spans: &[Span]) -> usize {
    spans
        .iter()
        .filter(|s| {
            [
                "client.",
                "replay.",
                "broker.",
                "registry.",
                "chaos.",
                "nmsccp.",
            ]
            .iter()
            .any(|prefix| s.name.starts_with(prefix))
        })
        .count()
}

/// The p99 of an ascending sample, or, when fewer than ten samples lie
/// beyond it, the highest percentile that has them (with a warning).
pub fn tail_or_warn(sorted: &[f64], metric: &str) -> f64 {
    match stats::tail(sorted, 99) {
        Some((99, value)) => value,
        Some((pct, value)) => {
            eprintln!(
                "warning: {metric}: {} samples support only p{pct}",
                sorted.len()
            );
            value
        }
        None => {
            eprintln!(
                "warning: {metric}: {} samples support no tail",
                sorted.len()
            );
            sorted.last().copied().unwrap_or(0.0)
        }
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Named metric values of one run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Fills the end-to-end metrics from a run's measured ops, each
    /// `(finish offset in seconds, latency in ms)`, that cycle through
    /// `pool` inputs. Throughput and latencies are medians over windows
    /// of [`window_ops`] ops ([`stats::windowed`]).
    pub fn end_to_end(
        &mut self,
        ops: &[(f64, f64)],
        pool: usize,
        tally: &Tally,
        setup_s: f64,
        rss_mb: f64,
    ) -> Result<(), String> {
        let run = stats::windowed(ops, window_ops(pool), TAIL_PCT)
            .ok_or("no op completed in the window")?;
        let values = [
            run.throughput,
            run.p50,
            run.tail,
            1.0 - tally.failed_frac(),
            setup_s,
            rss_mb,
        ];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            self.values.push((name, value, unit));
        }
        Ok(())
    }

    /// Fills every per-layer metric, 0 where `measured` has no value.
    pub fn per_layer(&mut self, measured: &BTreeMap<&str, f64>) -> Result<(), String> {
        if let Some(unknown) = measured
            .keys()
            .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric `{unknown}` is not in the catalogue"));
        }
        for &(name, unit) in PER_LAYER {
            let value = measured.get(name).copied().unwrap_or(0.0);
            self.values
                .push((name, if value.is_finite() { value } else { 0.0 }, unit));
        }
        Ok(())
    }

    fn to_value(&self) -> Value {
        Value::Obj(
            self.values
                .iter()
                .map(|&(name, value, unit)| {
                    let metric = Value::Obj(vec![
                        ("value".into(), Value::Float(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]);
                    (name.to_string(), metric)
                })
                .collect(),
        )
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every op attempted, by outcome.
    pub tally: Tally,
    /// The metrics the run reports.
    pub metrics: Metrics,
}

impl RunResult {
    /// Whether every op was answered correctly.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed() == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.tally.attempted)),
            ("failed".into(), Value::UInt(self.tally.failed())),
            ("metrics".into(), self.metrics.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_outcomes_covered() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(name, _)| *name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for label in OUTCOME_LABELS {
            assert!(outcome_metric(label).ends_with(label));
        }
    }

    #[test]
    fn windows_are_whole_passes_with_ten_samples_beyond_the_tail() {
        assert_eq!(window_ops(64), 128);
        assert_eq!(window_ops(80), 160);
        assert_eq!(window_ops(128), 128);
        assert_eq!(window_ops(1), 100);
        assert_eq!(window_ops(0), 100);
    }

    #[test]
    fn per_layer_rejects_unknown_names_and_fills_zeros() {
        let mut m = Metrics::default();
        let mut measured = BTreeMap::new();
        measured.insert("nmsccp.run_us.p50", 250.0);
        m.per_layer(&measured).unwrap();
        assert_eq!(m.values.len(), PER_LAYER.len());
        assert!(m
            .values
            .iter()
            .any(|v| v.0 == "nmsccp.run_us.p50" && v.1 == 250.0));
        assert!(m.values.iter().any(|v| v.0 == "core.threads" && v.1 == 0.0));
        measured.insert("nmsccp.typo", 1.0);
        assert!(Metrics::default().per_layer(&measured).is_err());
    }
}
