//! Sample arithmetic: percentiles and the tail rule, failure counting,
//! the server residual, and the quartiles the compare mode uses.

use std::collections::BTreeMap;

/// Fewest samples that must lie beyond a percentile before it is
/// reported as a tail.
pub const TAIL_SAMPLES: usize = 10;

/// Linear-interpolation (R-7) percentile, `pct` in `0..=100`, over an
/// ascending sample. `None` for an empty sample.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = last as f64 * pct / 100.0;
    let lo = pos.floor() as usize;
    let hi = (pos.ceil() as usize).min(last);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Samples lying beyond the `pct` percentile of `n` samples.
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    n * (100 - pct.min(100) as usize) / 100
}

/// The tail percentile to report: `wanted` when at least
/// [`TAIL_SAMPLES`] samples lie beyond it, else the highest of the
/// coarser ladder entries that has them. `None` when not even the
/// median qualifies.
pub fn tail(sorted: &[f64], wanted: u32) -> Option<(u32, f64)> {
    [wanted, 99, 95, 90, 75, 50]
        .into_iter()
        .filter(|&p| p <= wanted)
        .find(|&p| samples_beyond(sorted.len(), p) >= TAIL_SAMPLES)
        .and_then(|p| percentile(sorted, f64::from(p)).map(|v| (p, v)))
}

/// Sorts a sample ascending (NaN last, never panicking).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of an unsorted sample, `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0).unwrap_or(0.0)
}

/// The arithmetic mean, `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First, second and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`. `None` below two
/// samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Attempted operations by outcome label, and how many were answered
/// correctly. Every op that is not answered correctly counts as failed:
/// connect failures, closes, garbled or hung replies, shed, timed-out
/// and error replies, and replies that fail the correctness check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations answered correctly.
    pub ok: u64,
    /// Attempts per outcome label.
    pub outcomes: BTreeMap<String, u64>,
}

impl Tally {
    /// Records one attempt with its outcome label and whether it was
    /// answered correctly.
    pub fn record(&mut self, label: &str, ok: bool) {
        self.attempted += 1;
        *self.outcomes.entry(label.to_string()).or_insert(0) += 1;
        self.ok += u64::from(ok);
    }

    /// Attempts that were not answered correctly.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// The share of attempts that were not answered correctly.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Attempts with the given label.
    pub fn count(&self, label: &str) -> u64 {
        self.outcomes.get(label).copied().unwrap_or(0)
    }

    /// Adds another tally's counts into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        for (label, n) in &other.outcomes {
            *self.outcomes.entry(label.clone()).or_insert(0) += n;
        }
    }
}

/// Throughput, median and tail latency of a run, each the median over
/// its windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Ops per second.
    pub throughput: f64,
    /// Median latency.
    pub p50: f64,
    /// The `pct` tail latency.
    pub tail: f64,
}

/// Cuts a run's ops, in finish order, into consecutive windows of
/// `size` ops and reports the medians over the windows of their
/// throughput, median and `pct` latency. A burst of load from outside
/// the program then moves the windows it hits, not the result. When
/// `size` is a whole number of passes over the run's inputs, every
/// window carries the same work.
///
/// `ops` holds `(finish offset in seconds from the window start,
/// latency)`. A window's throughput is its ops over the time from the
/// previous window's last finish (or the start) to its own last
/// finish. Up to `size - 1` of the latest ops are left out; with fewer
/// than `size` ops the run is one window. `None` without ops.
pub fn windowed(ops: &[(f64, f64)], size: usize, pct: u32) -> Option<Windowed> {
    if ops.is_empty() {
        return None;
    }
    let mut ordered = ops.to_vec();
    ordered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let size = size.clamp(1, ordered.len());
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut previous = 0.0;
    for window in ordered.chunks_exact(size) {
        let last = window[size - 1].0;
        rates.push(size as f64 / (last - previous).max(1e-9));
        previous = last;
        let latencies = sorted(window.iter().map(|op| op.1).collect());
        p50s.push(percentile(&latencies, 50.0)?);
        tails.push(percentile(&latencies, f64::from(pct))?);
    }
    Some(Windowed {
        throughput: median(&rates),
        p50: median(&p50s),
        tail: median(&tails),
    })
}

/// Session latency minus the in-process replay time of the same
/// request: what the accept poll, the queue, framing and syscalls
/// added. `sessions` holds `(request index, latency)`; `replay` the
/// replay time per request index, in the same unit. Sessions whose
/// request has no replay time are skipped.
pub fn residuals(sessions: &[(usize, f64)], replay: &[f64]) -> Vec<f64> {
    sessions
        .iter()
        .filter_map(|&(entry, latency)| replay.get(entry).map(|r| latency - r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 50.0), Some(5.5));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        let p99 = percentile(&s, 99.0).unwrap();
        assert!((p99 - 9.91).abs() < 1e-12, "{p99}");
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[4.0], 99.0), Some(4.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(999, 99), 9);
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&thousand, 99).map(|t| t.0), Some(99));
        // 999 samples leave only 9 beyond p99 but 49 beyond p95.
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&short, 99).map(|t| t.0), Some(95));
        // 100 samples: 5 beyond p95, 10 beyond p90.
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&hundred, 99).map(|t| t.0), Some(90));
        // 19 samples: only 9 beyond the median.
        let tiny: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&tiny, 99), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn failed_frac_counts_every_unanswered_or_wrong_op() {
        let mut t = Tally::default();
        t.record("bound", true);
        t.record("bound", true);
        t.record("bound", false); // answered, but failed the check
        t.record("shed", false);
        t.record("hung", false);
        t.record("connect-failed", false);
        t.record("timed-out", false);
        t.record("degraded", true);
        assert_eq!(t.attempted, 8);
        assert_eq!(t.ok, 3);
        assert_eq!(t.failed(), 5);
        assert!((t.failed_frac() - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(t.count("bound"), 3);
        assert_eq!(t.count("error"), 0);

        let mut total = Tally::default();
        assert_eq!(total.failed_frac(), 0.0);
        total.merge(&t);
        total.merge(&t);
        assert_eq!(total.attempted, 16);
        assert_eq!(total.failed(), 10);
        assert_eq!(total.count("hung"), 2);
    }

    #[test]
    fn windowed_takes_medians_over_windows() {
        // Back-to-back ops of 1 ms (1,000 per second), except that ops
        // 200..500 hit a stall and take 4 ms each. Windows of 100 ops:
        // two clear, three stalled, five clear.
        let mut ops = Vec::new();
        let mut clock = 0.0;
        for i in 0..1000 {
            let latency = if (200..500).contains(&i) { 4.0 } else { 1.0 };
            clock += latency / 1e3;
            ops.push((clock, latency));
        }
        let pooled = sorted(ops.iter().map(|o| o.1).collect());
        assert_eq!(percentile(&pooled, 90.0), Some(4.0));
        let run = windowed(&ops, 100, 90).unwrap();
        assert!((run.throughput - 1000.0).abs() < 1e-6);
        assert_eq!(run.p50, 1.0);
        assert_eq!(run.tail, 1.0);
        // Finish order, not input order, defines the windows.
        let mut shuffled = ops.clone();
        shuffled.reverse();
        assert_eq!(windowed(&shuffled, 100, 90), Some(run));
        // Fewer ops than a window: one window of all of them.
        let few = windowed(&ops[..3], 100, 90).unwrap();
        assert_eq!(few.p50, 1.0);
        assert!((few.throughput - 3.0 / ops[2].0).abs() < 1e-9);
        assert_eq!(windowed(&[], 100, 90), None);
        // Stalled in six windows of ten, the median moves.
        for op in &mut ops[..600] {
            op.1 = 4.0;
        }
        assert_eq!(windowed(&ops, 100, 90).unwrap().p50, 4.0);
    }

    #[test]
    fn residual_subtracts_the_replay_of_the_same_request() {
        let sessions = [(0, 2.5), (1, 10.0), (0, 3.0), (7, 1.0)];
        let replay = [0.5, 9.25];
        // Request 7 has no replay time and is skipped.
        assert_eq!(residuals(&sessions, &replay), vec![2.0, 0.75, 2.5]);
    }
}
