//! The server-side contended-batching window.
//!
//! When [`crate::server::ServerConfig::fairness`] is set, negotiate
//! requests are no longer answered one session at a time: each request
//! parks in a shared [`Batcher`] until the batching window closes
//! (first entry older than `batch_window`, or `max_batch` entries),
//! then exactly one parked session — the *leader* — solves the whole
//! batch jointly with [`crate::Broker::negotiate_contended`] and
//! publishes everyone's replies. The window is the server's unit of
//! contention: clients that arrive within it compete for capacity
//! under the configured fairness objective instead of racing FCFS.
//!
//! The batcher is deliberately session-shaped: there is no extra
//! thread. Workers already block on their session's socket; here they
//! block on a condvar instead, and the leader role falls to whichever
//! parked worker first observes a closed window. One leader runs at a
//! time, so concurrent batches can never double-book a capacity slot.

use std::collections::{HashMap, HashSet};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::server::protocol::{NegotiateRequest, Reply};

/// One parked negotiate request.
#[derive(Debug)]
pub(crate) struct BatchEntry {
    /// The waiter's claim ticket.
    pub ticket: u64,
    /// Stable client identity for the fairness ledger.
    pub client: String,
    /// The wire-level request (the leader re-validates and translates).
    pub request: NegotiateRequest,
}

/// What [`Batcher::await_turn`] resolved to.
#[derive(Debug)]
pub(crate) enum Turn {
    /// A leader published this waiter's reply.
    Reply(Reply),
    /// The window closed and this waiter is the leader: solve the
    /// batch, then [`Batcher::publish`] the results and wait again.
    Lead(Vec<BatchEntry>),
    /// The waiter's session deadline passed first. Its entry (or
    /// orphaned result) has been withdrawn.
    Deadline,
}

/// The shared batching window (one per server).
#[derive(Debug)]
pub(crate) struct Batcher {
    window: Duration,
    max_batch: usize,
    state: Mutex<BatchState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct BatchState {
    next_ticket: u64,
    /// When the oldest parked entry arrived (the window anchor).
    opened_at: Option<Instant>,
    entries: Vec<BatchEntry>,
    results: HashMap<u64, Reply>,
    /// Tickets whose waiter gave up; their results are dropped on
    /// publish instead of leaking into `results` forever.
    abandoned: HashSet<u64>,
    /// Whether a leader is currently solving. Serialises batches so
    /// capacity bookkeeping is never split across two allocations.
    leader_busy: bool,
}

impl Batcher {
    /// Creates a window of `window` duration closing early at
    /// `max_batch` entries (clamped to at least 1).
    pub fn new(window: Duration, max_batch: usize) -> Batcher {
        Batcher {
            window,
            max_batch: max_batch.max(1),
            state: Mutex::new(BatchState::default()),
            ready: Condvar::new(),
        }
    }

    /// Parks a request in the current window, returning the claim
    /// ticket for [`Batcher::await_turn`].
    pub fn submit(&self, client: String, request: NegotiateRequest) -> u64 {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.next_ticket += 1;
        let ticket = state.next_ticket;
        if state.entries.is_empty() {
            state.opened_at = Some(Instant::now());
        }
        state.entries.push(BatchEntry {
            ticket,
            client,
            request,
        });
        if state.entries.len() >= self.max_batch {
            // The window closed by fill: wake the parked waiters so
            // one of them takes the lead without waiting out the
            // window.
            self.ready.notify_all();
        }
        ticket
    }

    /// Blocks until the ticket's reply arrives, the caller should lead
    /// the closed window it is part of, or `deadline` passes.
    pub fn await_turn(&self, ticket: u64, deadline: Instant) -> Turn {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(reply) = state.results.remove(&ticket) {
                return Turn::Reply(reply);
            }
            let now = Instant::now();
            if now >= deadline {
                state.entries.retain(|e| e.ticket != ticket);
                // If a leader already took the entry, the reply will
                // arrive with nobody waiting: mark it abandoned so
                // publish drops it.
                state.abandoned.insert(ticket);
                return Turn::Deadline;
            }
            let parked = state.entries.iter().any(|e| e.ticket == ticket);
            let closes_at = state.opened_at.map(|t| t + self.window);
            let closed = !state.entries.is_empty()
                && (state.entries.len() >= self.max_batch || closes_at.is_some_and(|t| now >= t));
            if parked && closed && !state.leader_busy {
                state.leader_busy = true;
                state.opened_at = None;
                return Turn::Lead(std::mem::take(&mut state.entries));
            }
            // Sleep until whichever comes first: the session deadline
            // or (when still parked and no leader is ahead of us) the
            // window closing. Publishes notify, so a busy leader needs
            // no timed wakeup.
            let wake_at = match closes_at {
                Some(t) if parked && !state.leader_busy => deadline.min(t),
                _ => deadline,
            };
            let timeout = wake_at.saturating_duration_since(now);
            let (guard, _) = self
                .ready
                .wait_timeout(state, timeout.max(Duration::from_micros(100)))
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }

    /// Publishes a solved batch's replies and releases the leader
    /// role. Replies for abandoned tickets are dropped.
    pub fn publish(&self, results: impl IntoIterator<Item = (u64, Reply)>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        for (ticket, reply) in results {
            if !state.abandoned.remove(&ticket) {
                state.results.insert(ticket, reply);
            }
        }
        state.leader_busy = false;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::OfferShape;
    use std::sync::Arc;
    use std::thread;

    fn request(capability: &str) -> NegotiateRequest {
        NegotiateRequest {
            capability: capability.to_string(),
            variable: "x".to_string(),
            domain: [1, 9],
            policy: OfferShape::Piecewise {
                points: vec![(1, 1.0), (9, 1.0)],
            },
            accept: [0.0, 1.0],
            client: None,
        }
    }

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn a_poisoned_batcher_keeps_serving() {
        let batcher = Batcher::new(Duration::from_millis(2), 8);
        let poisoned = thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = batcher.state.lock().unwrap();
                    panic!("panic while holding the batcher lock");
                })
                .join()
        });
        assert!(poisoned.is_err() && batcher.state.is_poisoned());
        // submit, await_turn and publish all still work.
        let ticket = batcher.submit("a".into(), request("compute"));
        let Turn::Lead(batch) = batcher.await_turn(ticket, far()) else {
            panic!("expected leadership");
        };
        batcher.publish(batch.iter().map(|e| (e.ticket, Reply::Pong { epoch: 3 })));
        assert!(matches!(
            batcher.await_turn(ticket, far()),
            Turn::Reply(Reply::Pong { epoch: 3 })
        ));
    }

    #[test]
    fn lone_waiter_leads_after_the_window() {
        let batcher = Batcher::new(Duration::from_millis(5), 8);
        let ticket = batcher.submit("a".into(), request("compute"));
        match batcher.await_turn(ticket, far()) {
            Turn::Lead(batch) => {
                assert_eq!(batch.len(), 1);
                assert_eq!(batch[0].ticket, ticket);
                assert_eq!(batch[0].client, "a");
            }
            other => panic!("expected leadership, got {other:?}"),
        }
        batcher.publish([(ticket, Reply::Pong { epoch: 1 })]);
        assert!(matches!(
            batcher.await_turn(ticket, far()),
            Turn::Reply(Reply::Pong { epoch: 1 })
        ));
    }

    #[test]
    fn full_window_closes_early_and_followers_get_replies() {
        let batcher = Arc::new(Batcher::new(Duration::from_secs(30), 2));
        let follower = {
            let batcher = Arc::clone(&batcher);
            thread::spawn(move || {
                let ticket = batcher.submit("follower".into(), request("compute"));
                batcher.await_turn(ticket, far())
            })
        };
        // Wait for the follower to park, then fill the window.
        while batcher.state.lock().unwrap().entries.is_empty() {
            thread::sleep(Duration::from_millis(1));
        }
        let ticket = batcher.submit("leader".into(), request("compute"));
        match batcher.await_turn(ticket, far()) {
            Turn::Lead(batch) => {
                assert_eq!(batch.len(), 2);
                let replies: Vec<(u64, Reply)> = batch
                    .iter()
                    .map(|e| (e.ticket, Reply::Pong { epoch: 7 }))
                    .collect();
                batcher.publish(replies);
            }
            other => panic!("expected leadership, got {other:?}"),
        }
        assert!(matches!(
            batcher.await_turn(ticket, far()),
            Turn::Reply(Reply::Pong { epoch: 7 })
        ));
        assert!(matches!(
            follower.join().expect("follower"),
            Turn::Reply(Reply::Pong { epoch: 7 })
        ));
    }

    #[test]
    fn deadline_withdraws_the_entry_and_abandons_the_reply() {
        let batcher = Batcher::new(Duration::from_secs(30), 8);
        let ticket = batcher.submit("a".into(), request("compute"));
        let soon = Instant::now() + Duration::from_millis(5);
        assert!(matches!(batcher.await_turn(ticket, soon), Turn::Deadline));
        // The entry is gone; a later publish for the ticket is dropped.
        batcher.publish([(ticket, Reply::Pong { epoch: 1 })]);
        let state = batcher.state.lock().unwrap();
        assert!(state.entries.is_empty());
        assert!(state.results.is_empty());
        assert!(state.abandoned.is_empty());
    }

    #[test]
    fn next_window_opens_while_the_leader_is_busy() {
        let batcher = Batcher::new(Duration::from_millis(2), 8);
        let first = batcher.submit("a".into(), request("compute"));
        let Turn::Lead(batch) = batcher.await_turn(first, far()) else {
            panic!("expected leadership");
        };
        // Leader is mid-solve; a new submission parks for the *next*
        // window rather than joining the taken batch.
        let second = batcher.submit("b".into(), request("compute"));
        {
            let state = batcher.state.lock().unwrap();
            assert!(state.leader_busy);
            assert_eq!(state.entries.len(), 1);
        }
        batcher.publish(batch.iter().map(|e| (e.ticket, Reply::Pong { epoch: 1 })));
        assert!(matches!(batcher.await_turn(first, far()), Turn::Reply(_)));
        // With the leader role free, the second waiter leads its own
        // window once it expires.
        assert!(matches!(
            batcher.await_turn(second, far()),
            Turn::Lead(batch) if batch.len() == 1
        ));
    }
}
