//! End-to-end tests for the negotiation daemon's fault envelope.
//!
//! Every test here exercises a *robustness invariant* over real TCP
//! sockets on the loopback interface:
//!
//! - well-behaved clients get `bound` agreements and epoch-bumping
//!   registry mutations;
//! - overload is shed with a fast typed reply, never queued into
//!   starvation;
//! - stalled and truncating clients get typed timeouts/errors at the
//!   deadline, never a hang;
//! - shutdown drains gracefully within its deadline and reports what
//!   it served, aborted and shed, and the loopback connection that
//!   wakes the blocking acceptor is neither counted nor shed;
//! - and the headline acceptance check: a fixed-seed chaos load
//!   (hundreds of concurrent sessions, >10% hostile transports, store
//!   faults injected into every negotiation) terminates every single
//!   session with a typed outcome — zero hung clients — and leaves the
//!   broker's caches bounded.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use softsoa_dependability::Attribute;
use softsoa_semiring::Fuzzy;
use softsoa_soa::server::loadgen::{self, LoadConfig};
use softsoa_soa::server::protocol::{NegotiateRequest, PublishRequest, Reply, Request, ShedReason};
use softsoa_soa::server::transport::TransportChaos;
use softsoa_soa::{
    NegotiationServer, OfferShape, QosOffer, ServerConfig, ServerHandle, StoreChaos,
};
use softsoa_telemetry::Telemetry;

fn start(config: ServerConfig) -> ServerHandle<Fuzzy> {
    NegotiationServer::start(
        Fuzzy,
        loadgen::seed_providers(6),
        config,
        Telemetry::disabled(),
    )
    .expect("server starts")
}

/// Sends one request frame and reads one reply frame.
fn roundtrip(stream: &TcpStream, request: &Request) -> Reply {
    let mut s = stream;
    s.write_all(format!("{}\n", request.to_json()).as_bytes())
        .expect("request written");
    read_reply(stream).expect("a reply frame")
}

fn read_reply(stream: &TcpStream) -> Option<Reply> {
    let mut s = stream;
    let mut buffer = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match s.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) if byte[0] == b'\n' => {
                let text = String::from_utf8(buffer).expect("utf-8 reply");
                return Some(Reply::parse(&text).expect("well-formed reply"));
            }
            Ok(_) => buffer.push(byte[0]),
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

fn negotiate() -> Request {
    Request::Negotiate(NegotiateRequest {
        capability: "compute".into(),
        variable: "x".into(),
        domain: [0, 8],
        policy: OfferShape::Linear {
            slope: -0.01,
            intercept: 0.9,
        },
        accept: [0.2, 1.0],
        client: None,
    })
}

#[test]
fn negotiation_binds_end_to_end() {
    let handle = start(ServerConfig::default());
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    match roundtrip(&stream, &Request::Ping) {
        Reply::Pong { .. } => {}
        other => panic!("expected pong, got {other:?}"),
    }
    match roundtrip(&stream, &negotiate()) {
        Reply::Bound { level, binding, .. } => {
            assert!(level > 0.2, "agreed level {level} inside acceptance");
            assert!(binding.is_some(), "a binding witness rides along");
        }
        other => panic!("expected bound, got {other:?}"),
    }
    drop(stream);
    let report = handle.shutdown(Duration::from_secs(2));
    assert!(report.within_deadline, "clean drain: {report:?}");
}

#[test]
fn publish_and_deregister_bump_the_epoch() {
    let handle = start(ServerConfig::default());
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let before = match roundtrip(&stream, &Request::Ping) {
        Reply::Pong { epoch } => epoch,
        other => panic!("expected pong, got {other:?}"),
    };
    let publish = Request::Publish(PublishRequest {
        service: "svc-new".into(),
        provider: "acme".into(),
        capability: "compute".into(),
        offer: QosOffer {
            attribute: Attribute::Reliability,
            variable: "x".into(),
            shape: OfferShape::Linear {
                slope: 0.02,
                intercept: 0.5,
            },
        },
        capacity: None,
    });
    let published = match roundtrip(&stream, &publish) {
        Reply::Published { epoch } => epoch,
        other => panic!("expected published, got {other:?}"),
    };
    assert!(published > before, "publish bumps the epoch");
    match roundtrip(
        &stream,
        &Request::Deregister {
            service: "svc-new".into(),
        },
    ) {
        Reply::Deregistered { epoch, existed } => {
            assert!(existed, "the service we just published exists");
            assert!(epoch > published, "deregister bumps the epoch");
        }
        other => panic!("expected deregistered, got {other:?}"),
    }
    drop(stream);
    handle.shutdown(Duration::from_secs(2));
}

#[test]
fn concurrent_writes_reply_with_their_own_epochs() {
    // Regression: a `Published`/`Deregistered` reply used to read the
    // registry's epoch after the write guard dropped, so another
    // worker's write landing in between made two replies report the
    // same epoch. Each write publishes exactly one epoch; the replies
    // of all concurrent writes must name each of them once.
    const CLIENTS: usize = 8;
    const WRITES: usize = 8;
    let handle = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let barrier = std::sync::Barrier::new(CLIENTS);
    let mut epochs: Vec<u64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .unwrap();
                    barrier.wait();
                    let service = format!("svc-{client}");
                    (0..WRITES)
                        .map(|write| {
                            let request = if write % 2 == 0 {
                                Request::Publish(PublishRequest {
                                    service: service.clone(),
                                    provider: "acme".into(),
                                    capability: "compute".into(),
                                    offer: QosOffer {
                                        attribute: Attribute::Reliability,
                                        variable: "x".into(),
                                        shape: OfferShape::Linear {
                                            slope: 0.02,
                                            intercept: 0.5,
                                        },
                                    },
                                    capacity: None,
                                })
                            } else {
                                Request::Deregister {
                                    service: service.clone(),
                                }
                            };
                            match roundtrip(&stream, &request) {
                                Reply::Published { epoch } => epoch,
                                Reply::Deregistered { epoch, existed } => {
                                    assert!(existed, "{service} was published by this client");
                                    epoch
                                }
                                other => panic!("expected a write reply, got {other:?}"),
                            }
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().expect("client thread"))
            .collect()
    });
    epochs.sort_unstable();
    let all: Vec<u64> = (1..=(CLIENTS * WRITES) as u64).collect();
    assert_eq!(epochs, all, "pairwise-distinct epochs covering 1..=N");
    handle.shutdown(Duration::from_secs(2));
}

#[test]
fn overload_is_shed_with_a_fast_typed_reply() {
    let config = ServerConfig {
        workers: 1,
        queue_limit: 1,
        session_deadline: Duration::from_millis(900),
        ..ServerConfig::default()
    };
    let handle = start(config);
    let addr = handle.local_addr();

    // Occupy the only worker with a stalled session, and fill the
    // queue slot with a second one.
    let hold = |_: usize| {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut s = &stream;
        s.write_all(b"{\"op\":").expect("half a frame");
        stream
    };
    let in_flight = hold(0);
    // Let the only worker take it off the queue before filling the
    // queue slot, so admission state is deterministic.
    std::thread::sleep(Duration::from_millis(250));
    let queued = hold(1);
    std::thread::sleep(Duration::from_millis(150));

    // Everything beyond worker + queue must be refused, fast.
    let mut sheds = 0;
    for _ in 0..4 {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(3)))
            .unwrap();
        if let Some(Reply::Shed {
            reason: ShedReason::Overloaded,
        }) = read_reply(&stream)
        {
            sheds += 1;
        }
    }
    assert!(sheds >= 3, "expected fast overload sheds, got {sheds}");

    // The stalled sessions still terminate with typed timeouts.
    for stream in [in_flight, queued] {
        match read_reply(&stream) {
            Some(Reply::TimedOut { .. }) | None => {}
            other => panic!("expected a typed timeout or close, got {other:?}"),
        }
    }
    let report = handle.shutdown(Duration::from_secs(2));
    assert!(report.within_deadline, "clean drain: {report:?}");
}

#[test]
fn stalled_client_times_out_with_a_typed_reply() {
    let config = ServerConfig {
        session_deadline: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let handle = start(config);
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut s = &stream;
    s.write_all(b"{\"op\":\"negot").expect("half a frame");
    // Say nothing more: the deadline must answer for us.
    match read_reply(&stream) {
        Some(Reply::TimedOut { .. }) => {}
        other => panic!("expected timed-out, got {other:?}"),
    }
    handle.shutdown(Duration::from_secs(1));
}

#[test]
fn truncated_frame_gets_a_typed_error() {
    let handle = start(ServerConfig::default());
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut s = &stream;
    s.write_all(b"{\"op\":\"ping\"}")
        .expect("unterminated frame");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("write side closed");
    match read_reply(&stream) {
        Some(Reply::Error { code, .. }) => {
            assert_eq!(format!("{code:?}"), "TruncatedFrame");
        }
        other => panic!("expected truncated-frame error, got {other:?}"),
    }
    handle.shutdown(Duration::from_secs(1));
}

#[test]
fn drain_aborts_overrunning_sessions_with_typed_replies() {
    let config = ServerConfig {
        session_deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let handle = start(config);
    let addr = handle.local_addr();

    // A session that would outlive any reasonable drain.
    let straggler = TcpStream::connect(addr).expect("connect");
    straggler
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    {
        let mut s = &straggler;
        s.write_all(b"{\"op\":").expect("half a frame");
    }
    std::thread::sleep(Duration::from_millis(150));

    let report = handle.shutdown(Duration::from_millis(300));
    assert!(report.aborted >= 1, "the straggler was aborted: {report:?}");
    assert!(report.within_deadline, "drain met its deadline: {report:?}");
    // The aborted client still received a typed reply.
    match read_reply(&straggler) {
        Some(Reply::TimedOut { .. }) => {}
        other => panic!("expected a typed abort reply, got {other:?}"),
    }
}

#[test]
fn shutdown_wake_connection_is_neither_accepted_nor_shed() {
    let (telemetry, sink) = Telemetry::recording();
    let handle: ServerHandle<Fuzzy> = NegotiationServer::start(
        Fuzzy,
        loadgen::seed_providers(6),
        ServerConfig::default(),
        telemetry,
    )
    .expect("server starts");

    const SESSIONS: u64 = 3;
    for session in 0..SESSIONS {
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match roundtrip(&stream, &negotiate()) {
            Reply::Bound { .. } => {}
            other => panic!("session {session}: expected bound, got {other:?}"),
        }
    }
    let report = handle.shutdown(Duration::from_secs(2));
    assert!(report.within_deadline, "clean drain: {report:?}");
    assert_eq!(report.shed, 0, "nothing was shed: {report:?}");

    let counters = sink.snapshot().counters;
    assert_eq!(
        counters.get("server.sessions.accepted").copied(),
        Some(SESSIONS),
        "only the client sessions were accepted: {counters:?}"
    );
    assert!(
        !counters
            .keys()
            .any(|k| k.starts_with("server.sessions.shed")),
        "the wake connection was not shed: {counters:?}"
    );
    assert_eq!(
        counters.get("server.acceptor.detached"),
        None,
        "the acceptor was woken and joined: {counters:?}"
    );
}

#[test]
fn idle_server_on_an_unspecified_address_shuts_down_promptly() {
    // The wake connection goes to loopback when the listener is bound
    // to 0.0.0.0.
    let handle = start(ServerConfig {
        addr: "0.0.0.0:0".to_string(),
        ..ServerConfig::default()
    });
    assert!(handle.local_addr().ip().is_unspecified());
    let report = handle.shutdown(Duration::from_millis(500));
    assert!(report.within_deadline, "clean drain: {report:?}");
    assert!(
        report.elapsed < Duration::from_millis(500),
        "an idle drain does not wait out its deadline: {report:?}"
    );
}

/// The PR's acceptance test: a fixed-seed chaos load — hundreds of
/// concurrent sessions, >10% hostile transports, store-level faults in
/// every negotiation, server-side wire chaos, registry churn — where
/// **every session terminates with a typed outcome and nobody hangs**,
/// followed by a clean drain, with the broker's caches still bounded.
#[test]
fn chaos_load_terminates_every_session_with_a_typed_outcome() {
    let server = ServerConfig {
        workers: 8,
        queue_limit: 96,
        session_deadline: Duration::from_millis(800),
        store_chaos: Some(StoreChaos {
            seed: 41,
            fault_rate: 0.3,
        }),
        transport_chaos: Some(TransportChaos {
            seed: 17,
            fault_rate: 0.05,
            stall: Duration::from_millis(2),
            ..TransportChaos::default()
        }),
        ..ServerConfig::default()
    };
    let load = LoadConfig {
        clients: 240,
        concurrency: 24,
        transport_fault_rate: 0.15,
        churn_rate: 0.2,
        seed: 1008,
    };
    let report = loadgen::run_self_hosted(
        Fuzzy,
        loadgen::seed_providers(8),
        server,
        &load,
        Duration::from_secs(3),
    )
    .expect("self-hosted run");

    assert_eq!(report.load.sessions, 240, "every client ran");
    assert_eq!(
        report.load.hung, 0,
        "no session may hang: {:?}",
        report.load.outcomes
    );
    // Every tallied outcome is a known typed label.
    for label in report.load.outcomes.keys() {
        assert!(
            matches!(
                label.as_str(),
                "bound"
                    | "degraded"
                    | "shed"
                    | "timed-out"
                    | "error"
                    | "pong"
                    | "published"
                    | "deregistered"
                    | "closed"
                    | "abandoned"
                    | "connect-failed"
            ),
            "unexpected outcome label `{label}`: {:?}",
            report.load.outcomes
        );
    }
    let bound = report.load.outcomes.get("bound").copied().unwrap_or(0)
        + report.load.outcomes.get("degraded").copied().unwrap_or(0);
    assert!(
        bound >= 100,
        "most well-behaved sessions should bind: {:?}",
        report.load.outcomes
    );
    assert!(
        report.drain.within_deadline,
        "graceful drain met its deadline: {:?}",
        report.drain
    );
    assert!(
        report.load.final_epoch > 0,
        "churn clients actually churned the registry"
    );
}

#[test]
fn separate_sessions_bind_identically() {
    // Two *separate* TCP sessions negotiate the same request: the
    // broker keeps no binding state between them, so both scan the
    // domain afresh and agree on the same level.
    let (telemetry, sink) = Telemetry::recording();
    let handle: ServerHandle<Fuzzy> = NegotiationServer::start(
        Fuzzy,
        loadgen::seed_providers(6),
        ServerConfig::default(),
        telemetry,
    )
    .expect("server starts");

    let mut levels = Vec::new();
    for session in 0..2 {
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match roundtrip(&stream, &negotiate()) {
            Reply::Bound { level, .. } => levels.push(level),
            other => panic!("session {session}: expected bound, got {other:?}"),
        }
        drop(stream);
    }
    assert_eq!(levels[0], levels[1], "identical agreements across sessions");

    let report = handle.shutdown(Duration::from_secs(2));
    assert!(report.within_deadline, "clean drain: {report:?}");

    let counters = sink.snapshot().counters;
    assert!(
        counters.get("server/solve.runs{binding}").copied() >= Some(2),
        "both sessions bound by a domain scan: {counters:?}"
    );
}
