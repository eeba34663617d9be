//! The negotiation broker daemon: a std-only TCP server exposing
//! discovery → negotiation → binding over a line-JSON protocol, built
//! around an explicit fault envelope.
//!
//! The runtime is deliberately boring — `std::net` sockets, a bounded
//! accept-queue, a fixed worker pool — so every robustness property is
//! a *local, testable invariant* rather than an emergent one:
//!
//! * **Deadlines.** Every session carries a wall-clock deadline from
//!   the moment it is accepted; every socket read and write carries a
//!   timeout; every negotiation runs on the step-bounded virtual clock
//!   of the resilience machinery. No blocking operation is unbounded,
//!   so no session can hang.
//! * **Backpressure.** The acceptor blocks in `accept()` and hands each
//!   connection to the accept-queue ([`admission`]) the moment it
//!   arrives. The queue is the only buffer and it is bounded; when it
//!   fills, new connections get a fast typed `shed` reply instead of
//!   silently queueing.
//! * **Graceful drain.** Shutdown ([`shutdown`]) stops admitting,
//!   serves what is queued and in flight while the drain deadline
//!   allows, then aborts the rest with typed replies — and reports
//!   exactly what happened as a [`DrainReport`]. Once stopped, one
//!   loopback connection wakes the blocked acceptor, which exits
//!   without counting or queueing it.
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use softsoa_telemetry::Telemetry;

use crate::broker::Broker;
use crate::contention::Fairness;
use crate::registry::Registry;
use crate::server::admission::{AdmissionQueue, Pending};
use crate::server::batch::Batcher;
use crate::server::protocol::{Reply, ShedReason, WireSemiring};
use crate::server::session::{run_session, SessionContext, SessionEnd};
use crate::server::shutdown::Control;
use crate::server::transport::{FrameWriter, TransportChaos, DEFAULT_MAX_FRAME_BYTES};

pub use shutdown::DrainReport;

/// Back-off after a failed `accept()` (e.g. `EMFILE`), so the
/// acceptor cannot spin on a persistent error.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(2);
/// Bound on the loopback connect that wakes the blocked acceptor at
/// shutdown.
const ACCEPTOR_WAKE_TIMEOUT: Duration = Duration::from_millis(100);
/// How long an idle worker waits on the queue before re-checking
/// drain state (`offer` and `close` wake it sooner).
const TAKE_TICK: Duration = Duration::from_millis(25);

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
/// load generator and the test suite: short ticks, a two-second
/// session budget, chaos off.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads serving sessions.
    pub workers: usize,
    /// Accept-queue bound; beyond it connections are shed.
    pub queue_limit: usize,
    /// Wall-clock budget per session, measured from accept.
    pub session_deadline: Duration,
    /// Socket read timeout — the session loop's tick: deadline and
    /// drain state are re-checked at least this often.
    pub read_timeout: Duration,
    /// Socket write timeout (bounds a peer that stops reading).
    pub write_timeout: Duration,
    /// Hard bound on a single request frame.
    pub max_frame_bytes: usize,
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
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(1),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
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

/// Per-worker accounting, folded into the [`DrainReport`].
#[derive(Debug, Default, Clone, Copy)]
struct WorkerStats {
    drained: usize,
    aborted: usize,
}

/// The negotiation broker daemon.
#[derive(Debug)]
pub struct NegotiationServer;

impl NegotiationServer {
    /// Binds, spawns the acceptor and worker pool, and returns a
    /// handle. The daemon serves until [`ServerHandle::shutdown`].
    pub fn start<S: WireSemiring>(
        semiring: S,
        registry: Registry,
        config: ServerConfig,
        telemetry: Telemetry,
    ) -> std::io::Result<ServerHandle<S>> {
        let listener = bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let broker = Broker::new(semiring, registry).with_telemetry(telemetry.scoped("server"));
        let control = Arc::new(Control::new());
        let queue = Arc::new(AdmissionQueue::new(config.queue_limit));
        let shed_draining = Arc::new(AtomicUsize::new(0));
        let ctx = Arc::new(SessionContext {
            batcher: Arc::new(Batcher::new(config.batch_window, config.max_batch)),
            config: config.clone(),
            control: Arc::clone(&control),
            telemetry: telemetry.clone(),
        });

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for index in 0..config.workers.max(1) {
            let mut worker_broker = broker.clone();
            let worker_ctx = Arc::clone(&ctx);
            let worker_queue = Arc::clone(&queue);
            let worker_control = Arc::clone(&control);
            workers.push(
                thread::Builder::new()
                    .name(format!("soa-worker-{index}"))
                    .spawn(move || {
                        worker_loop(
                            &mut worker_broker,
                            &worker_ctx,
                            &worker_queue,
                            &worker_control,
                        )
                    })?,
            );
        }

        let acceptor = {
            let acceptor_control = Arc::clone(&control);
            let acceptor_queue = Arc::clone(&queue);
            let acceptor_shed = Arc::clone(&shed_draining);
            let acceptor_telemetry = telemetry.clone();
            thread::Builder::new()
                .name("soa-acceptor".to_string())
                .spawn(move || {
                    accept_loop(
                        &listener,
                        &acceptor_control,
                        &acceptor_queue,
                        &acceptor_shed,
                        &acceptor_telemetry,
                    )
                })?
        };

        Ok(ServerHandle {
            addr,
            config,
            control,
            queue,
            workers,
            acceptor,
            shed_draining,
            telemetry,
            broker,
        })
    }
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

fn accept_loop(
    listener: &TcpListener,
    control: &Control,
    queue: &AdmissionQueue,
    shed_draining: &AtomicUsize,
    telemetry: &Telemetry,
) {
    let mut conn_id = 0u64;
    loop {
        let accepted = listener.accept();
        // Checked before anything is counted or queued: once stopped,
        // what woke the acceptor is the shutdown's own wake connection
        // (or a client racing it), and is dropped.
        if control.is_stopped() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                conn_id += 1;
                telemetry.incr("server.sessions.accepted");
                if control.is_draining() {
                    shed_draining.fetch_add(1, Ordering::Relaxed);
                    shed(stream, ShedReason::Draining, telemetry);
                    continue;
                }
                let pending = Pending {
                    stream,
                    conn_id,
                    accepted_at: Instant::now(),
                };
                match queue.offer(pending) {
                    Ok(depth) => telemetry.gauge("server.queue.depth", depth as i64),
                    Err(refused) => {
                        shed(refused.stream, ShedReason::Overloaded, telemetry);
                    }
                }
            }
            // Accept errors (per-connection resets, fd exhaustion):
            // back off briefly rather than spinning or dying.
            Err(_) => thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Refuses a connection with a fast typed `shed` reply — never a hang,
/// never a silent close while the peer still expects an answer.
fn shed<W: SetWriteTimeout>(stream: W, reason: ShedReason, telemetry: &Telemetry) {
    // Best effort: a peer that vanished before the reply is its own
    // problem; the acceptor must not block on it.
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    telemetry.count_labeled(
        "server.sessions.shed",
        match reason {
            ShedReason::Overloaded => "overloaded",
            ShedReason::Draining => "draining",
        },
        1,
    );
    let mut writer = FrameWriter::new(stream);
    let _ = writer.write_frame(&Reply::Shed { reason }.to_json());
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

fn worker_loop<S: WireSemiring>(
    broker: &mut Broker<S>,
    ctx: &SessionContext,
    queue: &AdmissionQueue,
    control: &Control,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    loop {
        if control.should_abort() {
            break;
        }
        match queue.take(TAKE_TICK) {
            Some(pending) => {
                // A panicking session must not retire its worker: the
                // unwind drops the stream (the peer sees a close), and
                // the worker takes the next connection.
                let Ok(outcome) =
                    panic::catch_unwind(AssertUnwindSafe(|| run_session(broker, ctx, pending)))
                else {
                    ctx.telemetry.incr("server.sessions.panicked");
                    continue;
                };
                if control.is_draining() {
                    match outcome.end {
                        SessionEnd::Aborted => stats.aborted += 1,
                        SessionEnd::Completed => stats.drained += 1,
                        _ => {}
                    }
                }
            }
            None => {
                // Queue empty (or closed): during a drain that means
                // this worker's job is done.
                if control.is_draining() && queue.depth() == 0 {
                    break;
                }
            }
        }
    }
    stats
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads serving (they are
/// detached with the process); tests and the CLI always drain.
#[derive(Debug)]
pub struct ServerHandle<S: WireSemiring> {
    addr: SocketAddr,
    config: ServerConfig,
    control: Arc<Control>,
    queue: Arc<AdmissionQueue>,
    workers: Vec<JoinHandle<WorkerStats>>,
    acceptor: JoinHandle<()>,
    shed_draining: Arc<AtomicUsize>,
    telemetry: Telemetry,
    broker: Broker<S>,
}

impl<S: WireSemiring> ServerHandle<S> {
    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A broker clone sharing the daemon's registry and caches — for
    /// seeding providers, asserting cache bounds, reading epochs.
    pub fn broker(&self) -> &Broker<S> {
        &self.broker
    }

    /// The configuration the daemon runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Current accept-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Gracefully drains and stops the daemon.
    ///
    /// New connections are shed immediately with a `draining` reply;
    /// queued and in-flight sessions are served while `drain` allows;
    /// past the deadline, in-flight sessions abort at their next
    /// checkpoint with a typed `timed-out` reply and anything still
    /// queued is shed. Blocks until every thread has joined — which is
    /// bounded, because every blocking operation in the server is, and
    /// the acceptor's `accept()` is woken by a loopback connect (if
    /// that connect fails, the acceptor is detached instead of joined).
    pub fn shutdown(self, drain: Duration) -> DrainReport {
        let begun = Instant::now();
        self.control.begin_drain(begun + drain);
        // Close the queue: offers are refused (the acceptor sheds
        // anyway) and idle workers wake instead of sleeping out their
        // tick. Already-queued sessions remain takeable.
        self.queue.close();

        let mut drained = 0;
        let mut aborted = 0;
        for worker in self.workers {
            let stats = worker.join().unwrap_or_default();
            drained += stats.drained;
            aborted += stats.aborted;
        }
        self.control.stop();

        // Anything still queued was sacrificed to the deadline.
        let leftovers = self.queue.drain_remaining();
        let mut shed_total = leftovers.len();
        for pending in leftovers {
            shed(pending.stream, ShedReason::Draining, &self.telemetry);
        }
        if !stop_acceptor(self.acceptor, self.addr) {
            self.telemetry.incr("server.acceptor.detached");
        }
        shed_total += self.shed_draining.load(Ordering::Relaxed);

        let elapsed = begun.elapsed();
        // Aborts are observed at the next loop checkpoint: one read
        // tick to notice and one bounded write to reply. Then the
        // acceptor's wake connect, plus scheduling slack. Anything
        // beyond that is a genuine drain overrun. (Idle workers wait
        // on no tick: closing the queue wakes them.)
        let grace = self.config.read_timeout
            + self.config.write_timeout
            + ACCEPTOR_WAKE_TIMEOUT
            + Duration::from_millis(200);
        DrainReport {
            drained,
            shed: shed_total,
            aborted,
            elapsed,
            within_deadline: elapsed <= drain + grace,
        }
    }
}

/// Wakes the acceptor blocked in `accept()` with one loopback
/// connection to the bound port, then joins it. Must run after
/// [`Control::stop`], so the acceptor drops that connection and exits.
///
/// Returns whether the acceptor was joined. If the wake connect fails
/// within [`ACCEPTOR_WAKE_TIMEOUT`], the acceptor is left detached
/// rather than joined: shutdown stays bounded, and the thread exits on
/// the next connection it accepts.
fn stop_acceptor(acceptor: JoinHandle<()>, addr: SocketAddr) -> bool {
    match TcpStream::connect_timeout(&wake_target(addr), ACCEPTOR_WAKE_TIMEOUT) {
        Ok(_wake) => {
            let _ = acceptor.join();
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
    use crate::server::protocol::{NegotiateRequest, Request};
    use crate::server::session::PANIC_CAPABILITY;
    use crate::server::transport::{FrameError, FrameReader};
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

        // The session panics; the unwind drops the stream, so the peer
        // sees a close rather than a hang.
        assert!(exchange(addr, PANIC_CAPABILITY).unwrap().is_none());
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
