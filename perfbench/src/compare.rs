//! Compare mode: one row per (metric, workload) with a verdict, using
//! the bounds in `BENCHMARK.json`.
//!
//! The rule: where the parent's run-to-run spread (interquartile range
//! over median) is wider than the metric's bound, the metric is
//! unresolved unless every run of the change reads better than every
//! run of the parent. Otherwise a median worse by more than the bound
//! is worse; a change that wins at least nine tenths of the run pairs
//! and whose median is better by more than the parent's spread is
//! improved; anything else is unchanged.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats;

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the rule above.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse than the bound allows.
    Worse,
    /// The spread is too wide (or the runs too few) to tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the change's runs against the parent's. Runs pair by index
/// (`base[i]` with `change[i]`); at least two runs a side are needed.
pub fn verdict(base: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (Some([q1, base_median, q3]), Some([_, change_median, _])) =
        (stats::quartiles(base), stats::quartiles(change))
    else {
        return Verdict::Unresolved;
    };
    // Orient everything so that larger means better.
    let better = |x: f64| if higher_is_better { x } else { -x };
    let scale = base_median.abs().max(f64::MIN_POSITIVE);
    let spread = (q3 - q1) / scale;
    let gain = (better(change_median) - better(base_median)) / scale;
    let worst_change = change
        .iter()
        .map(|&x| better(x))
        .fold(f64::INFINITY, f64::min);
    let best_base = base
        .iter()
        .map(|&x| better(x))
        .fold(f64::NEG_INFINITY, f64::max);
    if spread > bound {
        return if worst_change > best_base {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if -gain > bound {
        return Verdict::Worse;
    }
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(&b, &c)| better(c) > better(b))
        .count();
    if wins as f64 >= 0.9 * pairs as f64 && gain > spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// An end-to-end metric of `BENCHMARK.json`.
struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn bounds(benchmark: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(benchmark).map_err(|e| format!("{benchmark}: {e}"))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("{benchmark}: {e}"))?;
    let Some(Value::Arr(metrics)) = value.get("end_to_end") else {
        return Err(format!("{benchmark}: no end_to_end list"));
    };
    metrics
        .iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("end_to_end entry without a name".to_string()),
            };
            let higher_is_better = matches!(m.get("better"), Some(Value::Str(s)) if s == "higher");
            let bound = number(m.get("bound")).ok_or(format!("{name}: no bound"))?;
            Ok(Bound {
                name,
                higher_is_better,
                bound,
            })
        })
        .collect()
}

fn number(value: Option<&Value>) -> Option<f64> {
    match value? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// Metric values per workload, in run order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads a result file: the standard output of one or more runs,
/// concatenated. Each result line is attributed to the workload of the
/// stamp line before it.
pub fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    let mut workload = None;
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let value: Value = serde_json::from_str(line).map_err(|e| format!("{path}: {e}"))?;
        if let Some(stamp) = value.get("stamp") {
            workload = match stamp.get("workload") {
                Some(Value::Str(w)) => Some(w.clone()),
                _ => return Err(format!("{path}: a stamp without a workload")),
            };
            continue;
        }
        let Some(Value::Obj(metrics)) = value.get("metrics") else {
            continue;
        };
        let Some(workload) = workload.take() else {
            return Err(format!("{path}: a result without a stamp line before it"));
        };
        let per_metric = runs.entry(workload).or_default();
        for (name, metric) in metrics {
            if let Some(v) = number(metric.get("value")) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// `compare BASE CHANGE [--benchmark BENCHMARK.json]`: prints one row
/// per (metric, workload); exits 1 when any row is worse.
pub fn run(args: &[String]) -> Result<u8, String> {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg == "--benchmark" {
            benchmark = rest.next().ok_or("--benchmark needs a path")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [base_path, change_path] = files.as_slice() else {
        return Err("usage: compare BASE CHANGE [--benchmark BENCHMARK.json]".into());
    };
    let bounds = bounds(&benchmark)?;
    let base = load(base_path)?;
    let change = load(change_path)?;
    println!(
        "{:<14} {:<18} {:>5} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "runs", "base", "change", "delta", "spread", "bound"
    );
    let mut worse = false;
    for (workload, base_metrics) in &base {
        let Some(change_metrics) = change.get(workload) else {
            continue;
        };
        for b in &bounds {
            let (Some(xs), Some(ys)) = (base_metrics.get(&b.name), change_metrics.get(&b.name))
            else {
                continue;
            };
            let v = verdict(xs, ys, b.higher_is_better, b.bound);
            worse |= v == Verdict::Worse;
            let (bm, cm) = (stats::median(xs), stats::median(ys));
            let spread = stats::quartiles(xs).map_or(f64::NAN, |q| (q[2] - q[0]) / bm.abs());
            println!(
                "{:<14} {:<18} {:>2}/{:<2} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>5.1}%  {}",
                workload,
                b.name,
                xs.len(),
                ys.len(),
                bm,
                cm,
                (cm - bm) / bm.abs() * 100.0,
                spread * 100.0,
                b.bound * 100.0,
                v.as_str()
            );
        }
    }
    Ok(u8::from(worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * (f64::from(i % 5) - 2.0))
            .collect()
    }

    #[test]
    fn steady_runs_within_the_bound_are_unchanged() {
        let base = runs(100.0, 0.5);
        let change = runs(101.0, 0.5);
        assert_eq!(verdict(&base, &change, false, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn a_clear_gain_is_improved_in_either_direction() {
        let base = runs(100.0, 0.5);
        let faster = runs(80.0, 0.5);
        assert_eq!(verdict(&base, &faster, false, 0.10), Verdict::Improved);
        assert_eq!(verdict(&base, &faster, true, 0.10), Verdict::Worse);
        let more = runs(120.0, 0.5);
        assert_eq!(verdict(&base, &more, true, 0.10), Verdict::Improved);
    }

    #[test]
    fn a_gain_inside_the_spread_is_not_improved() {
        // Spread 4% of the median, gain 3%: unchanged, not improved.
        let base = runs(100.0, 2.0);
        let change = runs(97.0, 2.0);
        assert_eq!(verdict(&base, &change, false, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let base = runs(100.0, 10.0);
        assert_eq!(
            verdict(&base, &runs(105.0, 10.0), false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &runs(40.0, 1.0), false, 0.10),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &runs(200.0, 1.0), false, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn too_few_runs_are_unresolved() {
        assert_eq!(verdict(&[1.0], &[2.0], true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&[], &[], true, 0.1), Verdict::Unresolved);
    }
}
