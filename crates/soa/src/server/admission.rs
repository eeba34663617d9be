//! Admission control: the leader/followers state of the server's
//! thread pool and its bounded accept-queue.
//!
//! The pool has one thread more than the configured worker count, and
//! at any time exactly one of them — the *leader* — is blocked in
//! `accept()`. When the leader accepts a connection it asks
//! [`AdmissionQueue::admit`] what to do with it:
//!
//! * a follower is idle and nothing is queued — the leader hands the
//!   accept role to that follower and serves the connection itself, so
//!   the session starts on the thread that accepted it;
//! * otherwise the connection joins the queue, the server's only
//!   elastic buffer — and it is *bounded*: when it is full the
//!   connection is shed with a fast `overloaded` reply instead of being
//!   queued into starvation;
//! * once the queue is closed for a drain, every arrival is shed
//!   `draining`.
//!
//! The leader serves only after handing the accept role on, so one of
//! the `workers + 1` threads always leads and at most `workers`
//! sessions are in flight. Fairness follows from FIFO order — a connection is served directly
//! only when nothing is queued, and queued sessions are taken in
//! arrival order, so under overload every admitted client makes
//! progress and the excess is refused predictably (the
//! graceful-degradation stance of the fairness work cited in
//! PAPERS.md, applied to admission).

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::Instant;

use crate::server::protocol::ShedReason;

/// A connection accepted by the leader, waiting for (or handed to) the
/// thread that serves it.
#[derive(Debug)]
pub(crate) struct Pending {
    /// The accepted stream.
    pub stream: TcpStream,
    /// Monotonic connection id (drives per-connection chaos plans).
    pub conn_id: u64,
    /// When the leader accepted it (starts the session deadline).
    pub accepted_at: Instant,
}

/// What the leader does with a connection it just accepted.
#[derive(Debug)]
pub(crate) enum Admission {
    /// An idle follower took the accept role: the leader serves the
    /// connection itself.
    Serve(Pending),
    /// Queued; the new queue depth rides along for the depth gauge.
    Queued(usize),
    /// Refused: the caller sheds it with this reason.
    Shed(Pending, ShedReason),
}

/// What a pool thread does next.
#[derive(Debug)]
pub(crate) enum Role {
    /// Take the accept role.
    Lead,
    /// Serve this queued connection.
    Serve(Pending),
    /// Exit: the drain needs no more of this thread.
    Retire,
}

/// The pool's state; every transition is one method, under one lock.
#[derive(Debug)]
struct Inner {
    queue: VecDeque<Pending>,
    limit: usize,
    /// The thread in (or on its way to) `accept()`; `None` while the
    /// accept role is being handed to a follower.
    leader: Option<ThreadId>,
    /// Followers waiting for a role.
    idle: usize,
    /// Threads that have not retired.
    alive: usize,
    /// Draining: arrivals are shed, and followers retire once nothing
    /// is queued for them.
    closed: bool,
    /// Stopped: nobody takes the lead or a queued connection again.
    stopped: bool,
}

impl Inner {
    fn admit(&mut self, pending: Pending) -> Admission {
        if self.closed {
            return Admission::Shed(pending, ShedReason::Draining);
        }
        if self.queue.is_empty() && self.idle > 0 {
            self.leader = None;
            return Admission::Serve(pending);
        }
        if self.queue.len() >= self.limit {
            return Admission::Shed(pending, ShedReason::Overloaded);
        }
        self.queue.push_back(pending);
        Admission::Queued(self.queue.len())
    }

    /// The calling thread's next role, or `None` if it must wait. Past
    /// the drain deadline (`abort`) a thread takes nothing more off the
    /// queue; shutdown sheds what is left.
    fn next_role(&mut self, me: ThreadId, abort: bool) -> Option<Role> {
        if self.stopped {
            return Some(self.retire());
        }
        if self.leader.is_none() {
            self.leader = Some(me);
            return Some(Role::Lead);
        }
        if !abort {
            if let Some(pending) = self.queue.pop_front() {
                return Some(Role::Serve(pending));
            }
        }
        if self.closed || abort {
            return Some(self.retire());
        }
        None
    }

    fn retire(&mut self) -> Role {
        self.alive -= 1;
        Role::Retire
    }
}

/// The leader/followers pool state with its bounded FIFO accept-queue.
#[derive(Debug)]
pub(crate) struct AdmissionQueue {
    inner: Mutex<Inner>,
    /// Followers wait here for the accept role or a queued connection.
    follow: Condvar,
    /// Shutdown waits here for followers to retire.
    retired: Condvar,
}

impl AdmissionQueue {
    /// The state of a pool of `threads` threads (the leader included)
    /// whose queue holds at most `limit` connections. The accept role
    /// starts vacant: the first thread to [`follow`](Self::follow)
    /// takes it.
    pub fn new(limit: usize, threads: usize) -> AdmissionQueue {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                limit: limit.max(1),
                leader: None,
                idle: 0,
                alive: threads,
                closed: false,
                stopped: false,
            }),
            follow: Condvar::new(),
            retired: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Decides the fate of a connection the leader just accepted. On
    /// [`Admission::Serve`] the calling thread is no longer the leader:
    /// a follower has been woken to take the role.
    pub fn admit(&self, pending: Pending) -> Admission {
        let mut inner = self.lock();
        let admission = inner.admit(pending);
        let wake = match admission {
            Admission::Serve(_) => true,
            Admission::Queued(_) => inner.idle > 0,
            Admission::Shed(..) => false,
        };
        drop(inner);
        if wake {
            self.follow.notify_one();
        }
        admission
    }

    /// Blocks the calling thread until it has a role: the vacant accept
    /// role first, then the oldest queued connection, else retirement
    /// once the queue is closed (or at once with `abort`).
    pub fn follow(&self, abort: bool) -> Role {
        let me = thread::current().id();
        let mut inner = self.lock();
        loop {
            if let Some(role) = inner.next_role(me, abort) {
                if matches!(role, Role::Retire) {
                    self.retired.notify_one();
                }
                return role;
            }
            inner.idle += 1;
            inner = self.follow.wait(inner).unwrap_or_else(|e| e.into_inner());
            inner.idle -= 1;
        }
    }

    /// Closes the queue for a drain: arrivals are shed `draining` and
    /// idle followers wake to retire. Already-queued connections remain
    /// takeable (the drain serves them while the deadline allows).
    pub fn close(&self) {
        self.lock().closed = true;
        self.follow.notify_all();
    }

    /// Waits until every thread but one — the leader — has retired, or
    /// `deadline` passes. Returns whether it got there in time.
    pub fn await_leader_only(&self, deadline: Instant) -> bool {
        let mut inner = self.lock();
        while inner.alive > 1 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            inner = self
                .retired
                .wait_timeout(inner, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        true
    }

    /// Stops the pool: no thread takes the accept role or a queued
    /// connection again. Returns what is still queued, for shedding.
    pub fn stop(&self) -> Vec<Pending> {
        let mut inner = self.lock();
        inner.stopped = true;
        let leftovers = inner.queue.drain(..).collect();
        drop(inner);
        self.follow.notify_all();
        leftovers
    }

    /// The thread holding the accept role, if any.
    pub fn leader(&self) -> Option<ThreadId> {
        self.lock().leader
    }

    /// The current queue depth.
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Followers waiting for a role.
    #[cfg(test)]
    pub fn idle(&self) -> usize {
        self.lock().idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::time::Duration;

    /// Connections accepted on one loopback listener.
    struct Arrivals {
        listener: TcpListener,
        /// The client ends, kept open for the test's duration.
        clients: Vec<TcpStream>,
        next_id: u64,
    }

    impl Arrivals {
        fn new() -> Arrivals {
            Arrivals {
                listener: TcpListener::bind("127.0.0.1:0").unwrap(),
                clients: Vec::new(),
                next_id: 0,
            }
        }

        fn next(&mut self) -> Pending {
            self.clients
                .push(TcpStream::connect(self.listener.local_addr().unwrap()).unwrap());
            self.next_id += 1;
            Pending {
                stream: self.listener.accept().unwrap().0,
                conn_id: self.next_id,
                accepted_at: Instant::now(),
            }
        }
    }

    /// A pool state of `threads` threads in which the caller leads.
    fn led(limit: usize, threads: usize) -> (Inner, ThreadId) {
        let me = thread::current().id();
        let mut inner = AdmissionQueue::new(limit, threads)
            .inner
            .into_inner()
            .unwrap();
        assert!(matches!(inner.next_role(me, false), Some(Role::Lead)));
        (inner, me)
    }

    #[test]
    fn hands_off_only_when_a_follower_is_idle_and_the_queue_is_empty() {
        let mut arrivals = Arrivals::new();
        let (mut inner, me) = led(4, 3);

        // Nobody idle: the leader keeps the role and queues.
        assert!(matches!(inner.admit(arrivals.next()), Admission::Queued(1)));
        assert_eq!(inner.leader, Some(me));
        // A follower idle, but a connection already waits: queue behind
        // it (FIFO), never jump it.
        inner.idle = 1;
        assert!(matches!(inner.admit(arrivals.next()), Admission::Queued(2)));
        assert_eq!(inner.leader, Some(me));
        let order: Vec<u64> = inner.queue.iter().map(|p| p.conn_id).collect();
        assert_eq!(order, [1, 2]);
        // Queue empty and a follower idle: the leader serves the
        // connection itself and the accept role falls vacant.
        inner.queue.clear();
        match inner.admit(arrivals.next()) {
            Admission::Serve(pending) => assert_eq!(pending.conn_id, 3),
            other => panic!("expected a hand-off, got {other:?}"),
        }
        assert_eq!(inner.leader, None);
        // The vacant role goes to the next thread that asks, before
        // anything queued.
        inner.queue.push_back(arrivals.next());
        let follower = thread::spawn(|| thread::current().id()).join().unwrap();
        assert!(matches!(inner.next_role(follower, false), Some(Role::Lead)));
        assert_eq!(inner.leader, Some(follower));
        assert!(matches!(inner.next_role(me, false), Some(Role::Serve(_))));
        assert!(inner.next_role(me, false).is_none(), "nothing left: wait");
    }

    #[test]
    fn queues_up_to_the_limit_then_sheds_overloaded() {
        let mut arrivals = Arrivals::new();
        let (mut inner, _) = led(2, 2);
        assert!(matches!(inner.admit(arrivals.next()), Admission::Queued(1)));
        assert!(matches!(inner.admit(arrivals.next()), Admission::Queued(2)));
        match inner.admit(arrivals.next()) {
            Admission::Shed(pending, ShedReason::Overloaded) => assert_eq!(pending.conn_id, 3),
            other => panic!("expected an overload shed, got {other:?}"),
        }
        assert_eq!(inner.queue.len(), 2);
    }

    #[test]
    fn a_closed_queue_sheds_draining_and_retires_followers_once_served() {
        let mut arrivals = Arrivals::new();
        let (mut inner, me) = led(4, 3);
        assert!(matches!(inner.admit(arrivals.next()), Admission::Queued(1)));
        inner.closed = true;
        inner.idle = 1;
        assert!(matches!(
            inner.admit(arrivals.next()),
            Admission::Shed(_, ShedReason::Draining)
        ));
        // The drain still serves what was queued, then retires.
        assert!(matches!(inner.next_role(me, false), Some(Role::Serve(_))));
        assert!(matches!(inner.next_role(me, false), Some(Role::Retire)));
        assert_eq!(inner.alive, 2);
    }

    #[test]
    fn past_the_drain_deadline_nothing_more_is_taken_off_the_queue() {
        let mut arrivals = Arrivals::new();
        let (mut inner, me) = led(4, 2);
        assert!(matches!(inner.admit(arrivals.next()), Admission::Queued(1)));
        inner.closed = true;
        assert!(matches!(inner.next_role(me, true), Some(Role::Retire)));
        assert_eq!(inner.queue.len(), 1, "left for shutdown to shed");
    }

    #[test]
    fn no_thread_takes_the_vacant_lead_after_stop() {
        let (mut inner, me) = led(4, 2);
        inner.leader = None;
        inner.stopped = true;
        assert!(matches!(inner.next_role(me, false), Some(Role::Retire)));
        assert_eq!(inner.leader, None);
    }

    #[test]
    fn an_idle_follower_wakes_to_take_the_handed_off_lead() {
        let mut arrivals = Arrivals::new();
        let queue = Arc::new(AdmissionQueue::new(4, 2));
        assert!(matches!(queue.follow(false), Role::Lead));
        let follower = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let role = queue.follow(false);
                (matches!(role, Role::Lead), thread::current().id())
            })
        };
        while queue.idle() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(queue.admit(arrivals.next()), Admission::Serve(_)));
        let (led, id) = follower.join().unwrap();
        assert!(led, "the follower took the lead");
        assert_eq!(queue.leader(), Some(id));
    }

    #[test]
    fn shutdown_waits_for_followers_to_retire() {
        let queue = Arc::new(AdmissionQueue::new(4, 3));
        assert!(matches!(queue.follow(false), Role::Lead));
        let followers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || matches!(queue.follow(false), Role::Retire))
            })
            .collect();
        assert!(
            !queue.await_leader_only(Instant::now() + Duration::from_millis(20)),
            "running followers do not retire"
        );
        queue.close();
        assert!(queue.await_leader_only(Instant::now() + Duration::from_secs(5)));
        for follower in followers {
            assert!(follower.join().unwrap());
        }
        assert!(queue.stop().is_empty());
    }
}
