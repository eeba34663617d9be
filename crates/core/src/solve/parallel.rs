//! The one scoped-thread fan-out: every parallel solver path and
//! coalition formation turn a [`Parallelism`] policy and their amount
//! of work into a thread count here.
//!
//! The workspace builds without external thread-pool crates, so the
//! solvers split their outermost loop into contiguous index ranges and
//! run each range on a scoped `std` thread. Results come back in chunk
//! order, which is what lets the solvers reproduce their sequential
//! answers (first-witness and frontier-representative choices) exactly.

use std::ops::Range;

use crate::solve::treedec::MIN_CELLS_PER_THREAD;
use crate::solve::Parallelism;

/// The number of chunks [`fan_out`] splits `items` into.
pub(crate) fn chunk_count(parallelism: Parallelism, items: usize, cells: u64) -> usize {
    let requested = match parallelism {
        Parallelism::Sequential => 1,
        Parallelism::Threads(n) => n,
        Parallelism::Auto => {
            let grain = usize::try_from(cells / MIN_CELLS_PER_THREAD).unwrap_or(usize::MAX);
            // Asking the host costs tens of µs (it reads the cgroup
            // quota), as much as a small solve: below the grain, don't.
            if grain < 2 {
                1
            } else {
                std::thread::available_parallelism().map_or(1, |n| n.get().min(grain))
            }
        }
    };
    requested.clamp(1, items.max(1))
}

/// Splits `0..items` into contiguous chunks, runs `f` on each and
/// returns one result per chunk **in chunk order**: its length is the
/// number of threads used. `Sequential` makes one chunk, `Threads(n)`
/// exactly `n`, and `Auto` the host's threads but no more than give each
/// [`MIN_CELLS_PER_THREAD`] of the `cells`, the caller's estimate of the
/// work (search-space volume, table cells, masks); always at least one
/// and at most `items`. One chunk runs inline on the caller's thread; a
/// panicking worker re-raises its own payload on the caller.
///
/// ```
/// use softsoa_core::solve::{parallel::fan_out, Parallelism};
///
/// let sums = fan_out(Parallelism::Threads(2), 10, 10, |r| r.sum::<usize>());
/// assert_eq!(sums, vec![10, 35]); // 0..5 and 5..10, on two threads
/// assert_eq!(fan_out(Parallelism::Auto, 10, 10, |r| r.len()), vec![10]); // inline
/// ```
pub fn fan_out<R, F>(parallelism: Parallelism, items: usize, cells: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let threads = chunk_count(parallelism, items, cells);
    if threads == 1 {
        return vec![f(0..items)];
    }
    // Chunk sizes differ by at most one; the first chunk is the longer.
    let bound = |t: usize| (t * items).div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || f(bound(t)..bound(t + 1))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn covers_every_index_exactly_once_in_order() {
        for threads in 1..=5 {
            for total in 0..=17 {
                let parts = fan_out(Parallelism::Threads(threads), total, 0, |r| {
                    r.collect::<Vec<_>>()
                });
                assert_eq!(parts.len(), threads.clamp(1, total.max(1)));
                let flat: Vec<usize> = parts.into_iter().flatten().collect();
                assert_eq!(flat, (0..total).collect::<Vec<_>>(), "{threads} x {total}");
            }
        }
    }

    #[test]
    fn explicit_policies_ignore_the_work_estimate() {
        assert_eq!(chunk_count(Parallelism::Sequential, 64, u64::MAX), 1);
        assert_eq!(chunk_count(Parallelism::Threads(8), 3, 0), 3);
        assert_eq!(chunk_count(Parallelism::Threads(0), 3, 0), 1);
        // Zero items still need one chunk (it just finds nothing).
        assert_eq!(chunk_count(Parallelism::Threads(8), 0, 0), 1);
    }

    #[test]
    fn auto_gives_every_thread_at_least_the_grain() {
        let host = thread::available_parallelism().map_or(1, |n| n.get());
        let chunks = |cells| chunk_count(Parallelism::Auto, 1024, cells);
        assert_eq!(chunks(0), 1);
        assert_eq!(chunks(2 * MIN_CELLS_PER_THREAD - 1), 1);
        assert_eq!(chunks(2 * MIN_CELLS_PER_THREAD), host.min(2));
        assert_eq!(chunks(u64::MAX), host);
        assert_eq!(chunk_count(Parallelism::Auto, 1, u64::MAX), 1);
    }

    #[test]
    fn auto_below_the_grain_runs_on_the_caller_thread() {
        let caller = thread::current().id();
        let cells = MIN_CELLS_PER_THREAD - 1;
        let parts = fan_out(Parallelism::Auto, 64, cells, |r| {
            (thread::current().id(), r)
        });
        assert_eq!(parts, vec![(caller, 0..64)]);
        // An explicit thread count still splits the same work.
        let parts = fan_out(Parallelism::Threads(3), 64, cells, |_| {
            thread::current().id()
        });
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|&id| id != caller));
    }

    #[test]
    fn worker_panics_reraise_their_payload() {
        let payload = std::panic::catch_unwind(|| {
            fan_out(Parallelism::Threads(2), 4, 0, |r| {
                if r.contains(&3) {
                    panic!("worker boom");
                }
                r.len()
            })
        })
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker boom"));
    }
}
