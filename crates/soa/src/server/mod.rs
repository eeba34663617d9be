//! The negotiation broker daemon: a std-only TCP server exposing
//! discovery → negotiation → binding over a line-JSON protocol, built
//! around an explicit fault envelope.
//!
//! The runtime is deliberately boring — `std::net` sockets, a bounded
//! accept-queue, a fixed leader/followers thread pool — so every
//! robustness property is a *local, testable invariant* rather than an
//! emergent one:
//!
//! * **Deadlines.** Every session carries a wall-clock deadline from
//!   the moment it is accepted; every socket read and write carries a
//!   timeout; every negotiation runs on the step-bounded virtual clock
//!   of the resilience machinery. No blocking operation is unbounded,
//!   so no session can hang.
//! * **Backpressure.** The pool has `workers + 1` threads, and exactly
//!   one of them, the leader, blocks in `accept()`. When a follower is
//!   idle and nothing is queued, the leader hands the accept role to it
//!   and serves the connection itself, so no thread switch sits between
//!   a client's connect and its first byte read. Otherwise the
//!   connection joins the accept-queue ([`admission`]). The queue is
//!   the only buffer and it is bounded; when it fills, new connections
//!   get a fast typed `shed` reply instead of silently queueing.
//! * **Graceful drain.** Shutdown ([`shutdown`]) stops admitting,
//!   serves what is queued and in flight while the drain deadline
//!   allows, then aborts the rest with typed replies — and reports
//!   exactly what happened as a [`DrainReport`]. Once only the leader
//!   is left and the server is stopped, one loopback connection wakes
//!   the leader's blocked `accept()`, and the leader exits without
//!   counting or queueing it.
//! * **Transport chaos.** The deterministic per-connection fault plans
//!   of [`transport`] (drops, stalls, truncation, slow-loris) exercise
//!   the envelope from the wire side with a fixed seed.

pub(crate) mod admission;
mod batch;
pub mod loadgen;
pub mod protocol;
mod session;
mod shutdown;
pub mod transport;

use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use softsoa_telemetry::Telemetry;

use crate::broker::Broker;
use crate::contention::Fairness;
use crate::registry::Registry;
use crate::server::admission::{Admission, AdmissionQueue, Pending, Role};
use crate::server::batch::Batcher;
use crate::server::protocol::{Reply, ShedReason, WireSemiring};
use crate::server::session::{
    run_session, SessionContext, SessionEnd, SESSION_TICK, WRITE_TIMEOUT,
};
use crate::server::shutdown::Control;
use crate::server::transport::{FrameWriter, TransportChaos};

pub use shutdown::DrainReport;

/// Back-off after a failed `accept()` (e.g. `EMFILE`), so the
/// leader cannot spin on a persistent error.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(2);
/// Bound on the loopback connect that wakes the leader blocked in
/// `accept()` at shutdown.
const ACCEPTOR_WAKE_TIMEOUT: Duration = Duration::from_millis(100);

/// Store-level chaos knobs for the daemon: every negotiation runs
/// through the resilient interpreter with this fault plan seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreChaos {
    /// Seed for the per-provider fault plans.
    pub seed: u64,
    /// Probability a fault fires at each eligible step.
    pub fault_rate: f64,
}

/// Daemon configuration. [`ServerConfig::default`] is tuned for the
/// load generator and the test suite: a two-second session budget,
/// chaos off. Sessions tick every 50 ms, bound each write by one
/// second and each request frame by
/// [`DEFAULT_MAX_FRAME_BYTES`](transport::DEFAULT_MAX_FRAME_BYTES).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Sessions served at once. The pool runs one thread more: the
    /// one blocked in `accept()`.
    pub workers: usize,
    /// Accept-queue bound; beyond it connections are shed.
    pub queue_limit: usize,
    /// Wall-clock budget per session, measured from accept.
    pub session_deadline: Duration,
    /// Step budget for one negotiation on the resilient interpreter's
    /// virtual clock (only consulted when `store_chaos` is on).
    pub negotiation_deadline_steps: usize,
    /// Store-level chaos (fault injection inside negotiations).
    pub store_chaos: Option<StoreChaos>,
    /// Transport-level chaos applied server-side to admitted
    /// connections (deterministic per connection id).
    pub transport_chaos: Option<TransportChaos>,
    /// Inert: nothing reads it. Kept only because the benchmark crate
    /// still names it; it goes with the follow-up of ROADMAP.md item 2.
    pub incremental: bool,
    /// Contended-allocation objective. `None` keeps the historical
    /// per-session FCFS path; `Some` routes every negotiate request
    /// through the batching window so clients arriving together
    /// compete for capacity under the objective
    /// ([`crate::Broker::negotiate_contended`]).
    pub fairness: Option<Fairness>,
    /// How long the batching window stays open after its first entry
    /// (only consulted when `fairness` is set).
    pub batch_window: Duration,
    /// Entries that close the batching window early.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_limit: 64,
            session_deadline: Duration::from_secs(2),
            negotiation_deadline_steps: 64,
            store_chaos: None,
            transport_chaos: None,
            incremental: false,
            fairness: None,
            batch_window: Duration::from_millis(25),
            max_batch: 8,
        }
    }
}

/// The negotiation broker daemon.
#[derive(Debug)]
pub struct NegotiationServer;

impl NegotiationServer {
    /// Binds, spawns the leader/followers pool (`workers + 1` threads),
    /// and returns a handle. The daemon serves until
    /// [`ServerHandle::shutdown`].
    pub fn start<S: WireSemiring>(
        semiring: S,
        registry: Registry,
        config: ServerConfig,
        telemetry: Telemetry,
    ) -> std::io::Result<ServerHandle<S>> {
        let listener = bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let broker = Broker::new(semiring, registry).with_telemetry(telemetry.scoped("server"));
        let threads = config.workers.max(1) + 1;
        let pool = Arc::new(Pool {
            listener,
            queue: AdmissionQueue::new(config.queue_limit, threads),
            conn_ids: AtomicU64::new(0),
            drained: AtomicUsize::new(0),
            aborted: AtomicUsize::new(0),
            shed_draining: AtomicUsize::new(0),
            ctx: SessionContext {
                batcher: Arc::new(Batcher::new(config.batch_window, config.max_batch)),
                config,
                control: Control::new(),
                telemetry,
            },
        });

        let mut workers = Vec::with_capacity(threads);
        for index in 0..threads {
            let mut worker_broker = broker.clone();
            let worker_pool = Arc::clone(&pool);
            workers.push(
                thread::Builder::new()
                    .name(format!("soa-worker-{index}"))
                    .spawn(move || pool_thread(&mut worker_broker, &worker_pool))?,
            );
        }

        Ok(ServerHandle {
            addr,
            pool,
            workers,
            broker,
        })
    }
}

/// What every thread of the leader/followers pool shares.
#[derive(Debug)]
struct Pool {
    ctx: SessionContext,
    listener: TcpListener,
    queue: AdmissionQueue,
    /// The last connection id handed out. Only the leader accepts, so
    /// ids are monotonic in accept order.
    conn_ids: AtomicU64,
    /// Sessions completed during the drain that were dequeued, or read
    /// a request, after it began — whichever thread served them.
    drained: AtomicUsize,
    /// Sessions aborted at the drain deadline.
    aborted: AtomicUsize,
    /// Arrivals shed `draining`.
    shed_draining: AtomicUsize,
}

fn bind(addr: &str) -> std::io::Result<TcpListener> {
    let mut last = None;
    for candidate in addr.to_socket_addrs()? {
        match TcpListener::bind(candidate) {
            Ok(listener) => return Ok(listener),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to nothing",
        )
    }))
}

/// One pool thread: takes whatever role the admission state gives it
/// until it retires, or until it leads when the server stops.
fn pool_thread<S: WireSemiring>(broker: &mut Broker<S>, pool: &Pool) {
    let ctx = &pool.ctx;
    loop {
        let pending = match pool.queue.follow(ctx.control.should_abort()) {
            Role::Serve(pending) => pending,
            Role::Lead => match lead(pool) {
                Some(pending) => pending,
                None => return,
            },
            Role::Retire => return,
        };
        let dequeued_in_drain = ctx.control.is_draining();
        // A panicking session must not retire its thread. A panic while
        // handling a request is caught in the session (the peer reads an
        // `internal` error); this catch is the backstop for the rest:
        // the unwind drops the stream (the peer sees a close), and the
        // thread goes back to the pool.
        let Ok(outcome) =
            panic::catch_unwind(AssertUnwindSafe(|| run_session(broker, ctx, pending)))
        else {
            ctx.telemetry.incr("server.sessions.panicked");
            continue;
        };
        if ctx.control.is_draining() {
            // Drained means the drain saw the session work: dequeued,
            // or reading a request, after it began. A client that had
            // already finished, whose EOF was still unread, does not
            // count.
            let tally = match outcome.end {
                SessionEnd::Aborted => &pool.aborted,
                SessionEnd::Completed if dequeued_in_drain || outcome.read_in_drain => {
                    &pool.drained
                }
                _ => continue,
            };
            tally.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The leader's loop: accepts, and queues or sheds what it accepted,
/// until it hands the accept role to a follower — then it returns the
/// connection to serve itself — or the server stops (`None`).
fn lead(pool: &Pool) -> Option<Pending> {
    let control = &pool.ctx.control;
    let telemetry = &pool.ctx.telemetry;
    loop {
        let accepted = pool.listener.accept();
        // Checked before anything is counted or queued: once stopped,
        // what woke the leader is the shutdown's own wake connection
        // (or a client racing it), and is dropped.
        if control.is_stopped() {
            return None;
        }
        let Ok((stream, _)) = accepted else {
            // Accept errors (per-connection resets, fd exhaustion):
            // back off briefly rather than spinning or dying.
            thread::sleep(ACCEPT_ERROR_BACKOFF);
            continue;
        };
        telemetry.incr("server.sessions.accepted");
        let pending = Pending {
            stream,
            conn_id: pool.conn_ids.fetch_add(1, Ordering::Relaxed) + 1,
            accepted_at: Instant::now(),
        };
        let admission = if control.is_draining() {
            Admission::Shed(pending, ShedReason::Draining)
        } else {
            pool.queue.admit(pending)
        };
        match admission {
            Admission::Serve(pending) => return Some(pending),
            Admission::Queued(depth) => telemetry.gauge("server.queue.depth", depth as i64),
            Admission::Shed(refused, reason) => {
                if reason == ShedReason::Draining {
                    pool.shed_draining.fetch_add(1, Ordering::Relaxed);
                }
                shed(refused.stream, reason, telemetry);
            }
        }
    }
}

/// Refuses a connection with a fast typed `shed` reply — never a hang,
/// never a silent close while the peer still expects an answer.
fn shed<W: SetWriteTimeout>(stream: W, reason: ShedReason, telemetry: &Telemetry) {
    // Best effort: a peer that vanished before the reply is its own
    // problem; the leader must not block on it.
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    telemetry.count_labeled("server.sessions.shed", reason.as_str(), 1);
    let mut writer = FrameWriter::new(stream);
    let _ = writer.write_encoded(Reply::Shed { reason }.to_frame().as_bytes());
}

/// The one socket capability `shed` needs, factored out so tests can
/// shed into plain buffers.
trait SetWriteTimeout: Write {
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
}

impl SetWriteTimeout for TcpStream {
    fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads serving (they are
/// detached with the process); tests and the CLI always drain.
#[derive(Debug)]
pub struct ServerHandle<S: WireSemiring> {
    addr: SocketAddr,
    pool: Arc<Pool>,
    workers: Vec<JoinHandle<()>>,
    broker: Broker<S>,
}

impl<S: WireSemiring> ServerHandle<S> {
    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A broker clone sharing the daemon's registry — for seeding
    /// providers and reading epochs.
    pub fn broker(&self) -> &Broker<S> {
        &self.broker
    }

    /// The configuration the daemon runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.pool.ctx.config
    }

    /// Current accept-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.pool.queue.depth()
    }

    /// Gracefully drains and stops the daemon.
    ///
    /// New connections are shed immediately with a `draining` reply;
    /// queued and in-flight sessions are served while `drain` allows;
    /// past the deadline, in-flight sessions abort at their next
    /// checkpoint with a typed `timed-out` reply and anything still
    /// queued is shed. Blocks until every thread has joined — which is
    /// bounded, because every blocking operation in the server is, and
    /// the leader's `accept()` is woken by a loopback connect (if that
    /// connect fails, the leader is detached instead of joined).
    pub fn shutdown(self, drain: Duration) -> DrainReport {
        let begun = Instant::now();
        let pool = &self.pool;
        let control = &pool.ctx.control;
        control.begin_drain(begun + drain);
        // Close the queue: the leader sheds every arrival and idle
        // followers wake to retire. Already-queued sessions remain
        // takeable.
        pool.queue.close();

        // Aborts are observed at the next loop checkpoint: one read
        // tick to notice and one bounded write to reply. Then the
        // leader's wake connect, plus scheduling slack. Anything beyond
        // that is a genuine drain overrun.
        let grace =
            SESSION_TICK + WRITE_TIMEOUT + ACCEPTOR_WAKE_TIMEOUT + Duration::from_millis(200);
        pool.queue.await_leader_only(begun + drain + grace);
        control.stop();

        // Anything still queued was sacrificed to the deadline.
        let leftovers = pool.queue.stop();
        let shed_total = leftovers.len();
        for pending in leftovers {
            shed(pending.stream, ShedReason::Draining, &pool.ctx.telemetry);
        }
        let leader = pool.queue.leader();
        for worker in self.workers {
            if Some(worker.thread().id()) != leader {
                let _ = worker.join();
            } else if !stop_acceptor(worker, self.addr) {
                pool.ctx.telemetry.incr("server.acceptor.detached");
            }
        }

        let elapsed = begun.elapsed();
        DrainReport {
            drained: pool.drained.load(Ordering::Relaxed),
            shed: shed_total + pool.shed_draining.load(Ordering::Relaxed),
            aborted: pool.aborted.load(Ordering::Relaxed),
            elapsed,
            within_deadline: elapsed <= drain + grace,
        }
    }
}

/// Wakes the leader blocked in `accept()` with one loopback connection
/// to the bound port, then joins it. Must run after [`Control::stop`],
/// so the leader drops that connection and exits.
///
/// Returns whether the leader was joined. If the wake connect fails
/// within [`ACCEPTOR_WAKE_TIMEOUT`], the leader is left detached
/// rather than joined: shutdown stays bounded, and the thread exits on
/// the next connection it accepts.
fn stop_acceptor(leader: JoinHandle<()>, addr: SocketAddr) -> bool {
    match TcpStream::connect_timeout(&wake_target(addr), ACCEPTOR_WAKE_TIMEOUT) {
        Ok(_wake) => {
            let _ = leader.join();
            true
        }
        Err(_) => false,
    }
}

/// The address a local client reaches the listener on: an unspecified
/// bind address (`0.0.0.0`, `::`) maps to the same family's loopback.
fn wake_target(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::OfferShape;
    use crate::server::protocol::{ErrorCode, NegotiateRequest, Request};
    use crate::server::session::PANIC_CAPABILITY;
    use crate::server::transport::{FrameError, FrameReader, DEFAULT_MAX_FRAME_BYTES};
    use softsoa_semiring::Fuzzy;

    /// One request on a fresh connection: `Ok(None)` if the server
    /// closes without a reply, `Err` if nothing arrives in time.
    fn exchange(addr: SocketAddr, capability: &str) -> std::io::Result<Option<Reply>> {
        let request = Request::Negotiate(NegotiateRequest {
            capability: capability.into(),
            variable: "x".into(),
            domain: [0, 4],
            policy: OfferShape::Constant { level: 0.7 },
            accept: [0.0, 1.0],
            client: None,
        });
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        FrameWriter::new(&stream).write_frame(&request.to_json())?;
        match FrameReader::new(&stream, DEFAULT_MAX_FRAME_BYTES).read_frame() {
            Ok(frame) => Ok(Some(Reply::parse(&frame).expect("a well-formed reply"))),
            Err(FrameError::Closed) => Ok(None),
            Err(FrameError::Io(e)) => Err(e),
            Err(e) => panic!("unexpected frame error: {e:?}"),
        }
    }

    #[test]
    fn a_panicking_session_does_not_retire_its_worker() {
        let (telemetry, sink) = Telemetry::recording();
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let handle =
            NegotiationServer::start(Fuzzy, loadgen::seed_providers(1), config, telemetry).unwrap();
        let addr = handle.local_addr();

        // The request panics; the peer reads a typed internal error
        // before the close, rather than a bare close or a hang.
        let reply = exchange(addr, PANIC_CAPABILITY).unwrap();
        assert!(
            matches!(
                reply,
                Some(Reply::Error {
                    code: ErrorCode::Internal,
                    ..
                })
            ),
            "{reply:?}"
        );
        // The only worker survived and serves the next session.
        let reply = exchange(addr, "compute").expect("the worker serves the next session");
        assert!(matches!(reply, Some(Reply::Bound { .. })), "{reply:?}");
        assert!(handle.workers.iter().all(|w| !w.is_finished()));

        handle.shutdown(Duration::from_secs(1));
        let counters = sink.snapshot().counters;
        assert_eq!(counters.get("server.sessions.panicked"), Some(&1));
        assert_eq!(counters.get("server.sessions.completed"), Some(&1));
    }

    #[test]
    fn sequential_sessions_on_an_idle_server_are_served_by_the_thread_that_accepts() {
        let (telemetry, sink) = Telemetry::recording();
        let config = ServerConfig::default();
        let workers = config.workers;
        let handle =
            NegotiationServer::start(Fuzzy, loadgen::seed_providers(1), config, telemetry).unwrap();

        const SESSIONS: u64 = 8;
        for _ in 0..SESSIONS {
            // Idle: every thread but the leader waits for a role.
            while handle.pool.queue.idle() < workers {
                thread::sleep(Duration::from_millis(1));
            }
            let reply = exchange(handle.local_addr(), "compute").unwrap();
            assert!(matches!(reply, Some(Reply::Bound { .. })), "{reply:?}");
        }
        handle.shutdown(Duration::from_secs(1));

        // The leader handed off and served each connection itself:
        // nothing was ever queued, and each queue wait was recorded.
        let snapshot = sink.snapshot();
        assert_eq!(snapshot.gauges.get("server.queue.depth"), None);
        let waits = snapshot.timings.get("server.phase.queue_wait");
        assert_eq!(waits.map(|w| w.count), Some(SESSIONS));
    }

    #[test]
    fn wake_target_maps_unspecified_addresses_to_loopback() {
        let v4: SocketAddr = "0.0.0.0:4100".parse().unwrap();
        let v6: SocketAddr = "[::]:4100".parse().unwrap();
        let bound: SocketAddr = "192.0.2.7:4100".parse().unwrap();
        assert_eq!(wake_target(v4), "127.0.0.1:4100".parse().unwrap());
        assert_eq!(wake_target(v6), "[::1]:4100".parse().unwrap());
        assert_eq!(wake_target(bound), bound);
    }

    #[test]
    fn failed_wake_detaches_the_acceptor_instead_of_blocking() {
        // An acceptor blocked on one listener, woken at a port nobody
        // listens on: the connect is refused (or times out) and the
        // join is skipped, so shutdown cannot hang on it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let live = listener.local_addr().unwrap();
        let acceptor = thread::spawn(move || {
            let _ = listener.accept();
        });
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();

        let begun = Instant::now();
        assert!(!stop_acceptor(acceptor, dead), "no acceptor was woken");
        assert!(
            begun.elapsed() < ACCEPTOR_WAKE_TIMEOUT + Duration::from_millis(200),
            "a failed wake returns within its connect bound: {:?}",
            begun.elapsed()
        );
        // Release the detached thread.
        let _ = TcpStream::connect(live);
    }
}
