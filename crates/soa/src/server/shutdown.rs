//! Graceful-shutdown control plane.
//!
//! Shutdown is a three-phase state machine shared by every pool thread
//! — the leader in `accept()` and the followers serving sessions — and
//! every in-flight session:
//!
//! 1. **Running** — accept, hand off or queue, serve.
//! 2. **Draining** — the leader sheds new connections with a fast
//!    `draining` reply; followers finish the queue and their in-flight
//!    sessions while the drain deadline allows, then retire.
//! 3. **Stopped** — once only the leader is left, or past the deadline:
//!    sessions abort at their next checkpoint with a typed `timed-out`
//!    reply, still-queued connections are shed, threads exit.
//!
//! Every blocking operation in the server is bounded (socket timeouts,
//! condvar waits, step-bounded negotiations), so the transition from
//! *Draining* to *Stopped* is observed promptly — a drain never hangs
//! on a stuck peer. The one exception is the leader's blocking
//! `accept()`: on *Stopped*, shutdown wakes it with a loopback connect
//! bounded by a timeout.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// Shared shutdown state.
#[derive(Debug)]
pub(crate) struct Control {
    phase: AtomicU8,
    drain_deadline: Mutex<Option<Instant>>,
}

impl Control {
    /// A control plane in the *Running* phase.
    pub fn new() -> Control {
        Control {
            phase: AtomicU8::new(RUNNING),
            drain_deadline: Mutex::new(None),
        }
    }

    /// Enters the *Draining* phase with the given deadline.
    pub fn begin_drain(&self, deadline: Instant) {
        *self
            .drain_deadline
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(deadline);
        // Never regress from Stopped.
        let _ = self
            .phase
            .compare_exchange(RUNNING, DRAINING, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Enters the *Stopped* phase.
    pub fn stop(&self) {
        self.phase.store(STOPPED, Ordering::SeqCst);
    }

    /// Whether the server is past *Running*.
    pub fn is_draining(&self) -> bool {
        self.phase.load(Ordering::SeqCst) != RUNNING
    }

    /// Whether the server is fully stopped.
    pub fn is_stopped(&self) -> bool {
        self.phase.load(Ordering::SeqCst) == STOPPED
    }

    /// Whether in-flight work must abort now: the server is stopped,
    /// or draining past its deadline.
    pub fn should_abort(&self) -> bool {
        match self.phase.load(Ordering::SeqCst) {
            STOPPED => true,
            DRAINING => self
                .drain_deadline
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_some_and(|d| Instant::now() >= d),
            _ => false,
        }
    }
}

/// What the drain accomplished, reported by
/// [`crate::server::ServerHandle::shutdown`].
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Sessions that completed normally during the drain and were
    /// dequeued, or read a request, after it began (queued, or
    /// in flight with requests still to send). A session whose client
    /// had already finished before the drain does not count.
    pub drained: usize,
    /// Connections shed with a `draining` reply (arrived during the
    /// drain, or still queued when the deadline passed).
    pub shed: usize,
    /// In-flight sessions aborted at the drain deadline with a typed
    /// `timed-out` reply.
    pub aborted: usize,
    /// Wall-clock duration of the drain (begin to last thread joined).
    pub elapsed: Duration,
    /// Whether shutdown returned within the drain deadline plus the
    /// bounded-abort grace: one read tick, one bounded write, the
    /// leader's wake connect, and scheduling slack.
    pub within_deadline: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_phases_progress_monotonically() {
        let control = Control::new();
        assert!(!control.is_draining());
        assert!(!control.should_abort());
        control.begin_drain(Instant::now() + Duration::from_secs(60));
        assert!(control.is_draining());
        assert!(!control.should_abort());
        control.stop();
        assert!(control.should_abort());
        // begin_drain after stop must not regress the phase.
        control.begin_drain(Instant::now() + Duration::from_secs(60));
        assert!(control.is_stopped());
    }

    #[test]
    fn expired_drain_deadline_aborts() {
        let control = Control::new();
        control.begin_drain(Instant::now() - Duration::from_millis(1));
        assert!(control.is_draining());
        assert!(control.should_abort());
    }
}
