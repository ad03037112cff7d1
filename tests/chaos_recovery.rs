//! Chaos-driven recovery matrix: every registered fault point is armed
//! in turn and the server must come out the other side with a typed
//! error (or a clean degradation), a surviving or cleanly closed
//! connection, and no panic. Also pins the robustness features the
//! fault points drove into the server: request deadlines (v2 + v3),
//! admission-control shedding, client socket timeouts, bounded
//! retry-with-backoff, 1-byte I/O resilience, graceful drain, and
//! hostile JSON nesting answered with a typed error.
//!
//! Fault points are process-global, so every test here serializes its
//! armed window through one lock and disarms on the way out.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use whatif_chaos::Policy;
use whatif_core::model_backend::ModelConfig;
use whatif_core::perturbation::Perturbation;
use whatif_core::ErrorCode;
use whatif_server::tcp::{serve_with_options, ServeOptions};
use whatif_server::v3::RetryPolicy;
use whatif_server::{
    serve_with_engine, Client, Engine, Reply, Request, Response, UseCase, V3Client, V3Error,
};
use whatif_wire::{
    DriverColumn, FrameEvent, FrameType, PerturbKind, ReplyBody, RequestBody, ScenarioGridRequest,
    WireReply, WireRequest,
};

/// Chaos arming is process-global; hold this across any armed window.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Load + select KPI + train over the v1 protocol; returns the session.
fn train_over_v1(client: &mut Client) -> u64 {
    let session = match client
        .call(&Request::LoadUseCase {
            use_case: UseCase::DealClosing,
            n_rows: Some(150),
            seed: Some(1),
        })
        .unwrap()
    {
        Response::SessionCreated { session, .. } => session,
        other => panic!("unexpected: {other:?}"),
    };
    client
        .call(&Request::SelectKpi {
            session,
            kpi: "Deal Closed?".into(),
        })
        .unwrap();
    let cfg = ModelConfig {
        n_trees: 8,
        ..ModelConfig::default()
    };
    match client
        .call(&Request::Train {
            session,
            config: Some(cfg),
        })
        .unwrap()
    {
        Response::Trained { .. } => session,
        other => panic!("unexpected: {other:?}"),
    }
}

/// A fresh connection must complete a request: the server survived.
fn assert_server_alive(addr: std::net::SocketAddr) {
    let mut probe = Client::connect(addr).expect("server must keep accepting");
    match probe.call(&Request::ListUseCases).unwrap() {
        Response::UseCases(u) => assert_eq!(u.len(), 3),
        other => panic!("server unhealthy after fault: {other:?}"),
    }
}

fn small_grid(session: u64) -> ScenarioGridRequest {
    ScenarioGridRequest {
        session,
        n_scenarios: 4,
        record: false,
        n_threads: 0,
        names: Vec::new(),
        columns: vec![DriverColumn {
            name: "Open Marketing Email".into(),
            kind: PerturbKind::Percentage,
            values: vec![10.0, 20.0, 30.0, 40.0],
        }],
    }
}

/// The seeded fault matrix (tentpole acceptance): arm each registered
/// point with an error policy, drive traffic across it, and require a
/// typed error or clean close — never a panic, never a wedged server.
/// Ends by proving the matrix covers *exactly* the set of points the
/// process registered, so a new fault point cannot ship untested.
#[test]
#[cfg(debug_assertions)]
fn fault_matrix_every_registered_point_recovers() {
    let _guard = serial();
    whatif_chaos::disarm_all();
    let engine = Arc::new(Engine::new());
    let (addr, handle) = serve_with_engine("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut admin = Client::connect(addr).unwrap();
    let session = train_over_v1(&mut admin);

    const MATRIX: &[&str] = &[
        "cache.lookup",
        "engine.dispatch",
        "store.train",
        "tcp.read",
        "tcp.write",
        "v3.decode",
        "v3.encode",
    ];

    let injected_before = whatif_chaos::injected_total();
    for (i, &point) in MATRIX.iter().enumerate() {
        let seed = 0xC0FF_EE00 + i as u64;
        match point {
            "cache.lookup" => {
                // Forced cache misses degrade to recompute, not to an
                // error: the analysis still answers.
                whatif_chaos::arm(point, Policy::error().seed(seed));
                let mut c = Client::connect(addr).unwrap();
                let request = Request::SensitivityView {
                    session,
                    perturbations: vec![Perturbation::percentage("Open Marketing Email", 20.0)],
                };
                for _ in 0..2 {
                    if let Response::Error(e) = c.call(&request).unwrap() {
                        panic!("cache faults must degrade, not fail: {e:?}")
                    }
                }
            }
            "engine.dispatch" => {
                whatif_chaos::arm(point, Policy::error().seed(seed).limit(1));
                let mut c = Client::connect(addr).unwrap();
                match c.call(&Request::ListUseCases).unwrap() {
                    Response::Error(e) => {
                        assert_eq!(e.code, ErrorCode::Internal);
                        assert!(e.message.contains("chaos"), "message: {}", e.message);
                    }
                    other => panic!("expected a typed error, got {other:?}"),
                }
            }
            "store.train" => {
                whatif_chaos::arm(point, Policy::error().seed(seed).limit(1));
                let mut c = Client::connect(addr).unwrap();
                match c
                    .call(&Request::Train {
                        session,
                        config: None,
                    })
                    .unwrap()
                {
                    Response::Error(e) => {
                        assert!(e.message.contains("chaos"), "message: {}", e.message)
                    }
                    other => panic!("expected a typed error, got {other:?}"),
                }
            }
            "tcp.read" => {
                // The very first server-side read of a fresh connection
                // fails; the connection closes cleanly (client observes
                // EOF/reset), nothing panics, the listener lives on.
                // Unlimited so a parked handler waking concurrently
                // cannot steal the only scheduled fire.
                whatif_chaos::arm(point, Policy::error().seed(seed));
                let mut c = Client::connect(addr).unwrap();
                assert!(
                    c.call(&Request::ListUseCases).is_err(),
                    "injected read fault must drop the connection"
                );
            }
            "tcp.write" => {
                // The request is served but the reply write fails; the
                // client sees the connection die, not a partial line.
                // Unlimited, or `BufWriter`'s drop-flush would retry the
                // buffered reply after the limit is spent and deliver it
                // after all.
                whatif_chaos::arm(point, Policy::error().seed(seed));
                let mut c = Client::connect(addr).unwrap();
                assert!(
                    c.call(&Request::ListUseCases).is_err(),
                    "injected write fault must drop the connection"
                );
            }
            "v3.decode" => {
                // Decode faults are recoverable: a typed BadRequest
                // frame comes back and the SAME connection keeps
                // working (frame realignment).
                whatif_chaos::arm(point, Policy::error().seed(seed).limit(1));
                let mut v3 = V3Client::connect(addr).unwrap();
                match v3.call_json(1, &Request::ListUseCases) {
                    Err(V3Error::Server(e)) => {
                        assert_eq!(e.code, "BadRequest");
                        assert!(e.message.contains("chaos"), "message: {}", e.message);
                    }
                    other => panic!("expected a typed error frame, got {other:?}"),
                }
                let reply = v3.call_json(2, &Request::ListUseCases).unwrap();
                assert!(!reply.is_error(), "connection must survive a decode fault");
            }
            "v3.encode" => {
                whatif_chaos::arm(point, Policy::error().seed(seed).limit(1));
                let mut v3 = V3Client::connect(addr).unwrap();
                assert!(
                    v3.call_json(3, &Request::ListUseCases).is_err(),
                    "injected encode fault must drop the connection"
                );
            }
            other => panic!("matrix entry {other} has no driver"),
        }
        whatif_chaos::disarm_all();
        assert_server_alive(addr);
    }

    // Every matrix point actually fired, the process-wide injection
    // counter moved, and the matrix equals the registered set exactly:
    // a fault point added to production code without a matrix entry
    // (or vice versa) fails here.
    for &point in MATRIX {
        assert!(
            whatif_chaos::fires(point) >= 1,
            "{point} was never exercised"
        );
    }
    assert!(whatif_chaos::injected_total() >= injected_before + MATRIX.len() as u64);
    let registered = whatif_chaos::registered();
    let expected: Vec<String> = MATRIX.iter().map(|s| (*s).to_string()).collect();
    assert_eq!(registered, expected, "matrix out of sync with registry");

    assert_eq!(
        admin.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    );
    handle.join().unwrap();
}

/// Satellite 1: a panic inside dispatch is caught, answered as a typed
/// `Internal` error, counted, and the server keeps serving.
#[test]
#[cfg(debug_assertions)]
fn dispatch_panics_become_typed_internal_errors() {
    let _guard = serial();
    whatif_chaos::disarm_all();
    let engine = Arc::new(Engine::new());
    let (addr, handle) = serve_with_engine("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = Client::connect(addr).unwrap();

    whatif_chaos::arm("engine.dispatch", Policy::panic().limit(1));
    match client.call(&Request::ListUseCases).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::Internal);
            assert!(e.message.contains("panicked"), "message: {}", e.message);
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    whatif_chaos::disarm_all();
    assert_eq!(engine.obs().panics_total.get(), 1);

    // The same connection keeps working after the caught panic.
    assert!(matches!(
        client.call(&Request::ListUseCases).unwrap(),
        Response::UseCases(_)
    ));
    assert_eq!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    );
    handle.join().unwrap();
}

/// Satellite 3: with `tcp.read`/`tcp.write` clamped to 1-byte chunks,
/// both the JSON line loop and the v3 frame reader stay byte-exact.
#[test]
#[cfg(debug_assertions)]
fn one_byte_io_chunks_keep_both_protocols_correct() {
    let _guard = serial();
    whatif_chaos::disarm_all();
    let engine = Arc::new(Engine::new());
    let (addr, handle) = serve_with_engine("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut admin = Client::connect(addr).unwrap();
    let session = train_over_v1(&mut admin);

    whatif_chaos::arm("tcp.read", Policy::chunk_bytes(1));
    whatif_chaos::arm("tcp.write", Policy::chunk_bytes(1));

    // JSON lines arrive and leave one byte at a time, intact.
    let mut json = Client::connect(addr).unwrap();
    match json.call(&Request::ListUseCases).unwrap() {
        Response::UseCases(u) => assert_eq!(u.len(), 3),
        other => panic!("unexpected: {other:?}"),
    }

    // v3 frames survive the same treatment, stream blocks included.
    let mut v3 = V3Client::connect(addr).unwrap();
    let outcomes = v3.evaluate_grid(7, small_grid(session)).unwrap();
    assert_eq!(outcomes.kpi.len(), 4);
    assert!(outcomes.kpi.iter().all(|k| k.is_finite()));

    assert!(
        whatif_chaos::fires("tcp.read") > 0 && whatif_chaos::fires("tcp.write") > 0,
        "chunk policies must have clamped traffic"
    );
    whatif_chaos::disarm_all();

    assert_eq!(
        admin.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    );
    handle.join().unwrap();
}

/// A v2 envelope with `deadline_ms: 0` is expired on arrival: typed
/// `DeadlineExceeded`, counted, connection intact. Envelopes without
/// the field (old clients) behave exactly as before.
#[test]
fn v2_zero_deadline_is_instantly_exceeded() {
    let _guard = serial();
    let engine = Arc::new(Engine::new());
    let (addr, handle) = serve_with_engine("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut client = Client::connect(addr).unwrap();

    let reply = client
        .call_v2_with_deadline(21, Request::ListUseCases, 0)
        .unwrap();
    let err = reply.into_result().expect_err("deadline 0 must expire");
    assert_eq!(err.code, ErrorCode::DeadlineExceeded);
    assert!(err.message.contains("deadline"), "message: {}", err.message);
    assert_eq!(engine.obs().deadline_exceeded_total.get(), 1);

    // No deadline (an old client) on the same connection still works.
    let reply = client.call_v2(22, Request::ListUseCases).unwrap();
    assert!(!reply.is_error());
    // A generous deadline passes too.
    let reply = client
        .call_v2_with_deadline(23, Request::ListUseCases, 60_000)
        .unwrap();
    assert!(!reply.is_error());

    assert!(!client.call_v2(24, Request::Shutdown).unwrap().is_error());
    handle.join().unwrap();
}

/// A v3 request deadline is enforced while the outcome stream is being
/// written: when it expires between blocks, the stream is cut short
/// with a typed `DeadlineExceeded` frame the client surfaces.
#[test]
#[cfg(debug_assertions)]
fn v3_deadline_expires_during_the_outcome_stream() {
    let _guard = serial();
    whatif_chaos::disarm_all();
    let engine = Arc::new(Engine::new());
    let (addr, handle) = serve_with_engine("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let mut admin = Client::connect(addr).unwrap();
    let session = train_over_v1(&mut admin);

    // A zero deadline on the frame means "none": byte-identical to the
    // old format, and the stream completes.
    let mut v3 = V3Client::connect(addr).unwrap();
    let outcomes = v3
        .evaluate_grid_with_deadline(30, small_grid(session), 0)
        .unwrap();
    assert_eq!(outcomes.kpi.len(), 4);

    // Slow every outbound frame so a short budget expires after the
    // stream head; the pre-block deadline check must cut the stream.
    whatif_chaos::arm("v3.encode", Policy::delay_ms(25));
    let before = engine.obs().deadline_exceeded_total.get();
    match v3.evaluate_grid_with_deadline(31, small_grid(session), 5) {
        Err(V3Error::Server(e)) => {
            assert_eq!(e.code, "DeadlineExceeded");
            assert!(e.message.contains("deadline"), "message: {}", e.message);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    whatif_chaos::disarm_all();
    assert!(engine.obs().deadline_exceeded_total.get() > before);

    // The connection realigned: the same client completes a new call.
    let outcomes = v3.evaluate_grid(32, small_grid(session)).unwrap();
    assert_eq!(outcomes.kpi.len(), 4);

    assert_eq!(
        admin.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    );
    handle.join().unwrap();
}

/// Admission control: heavy requests over the in-flight cap are shed
/// with a typed `Overloaded` error and counted; cheap requests (the
/// ones an operator needs to inspect an overloaded server) still run.
#[test]
fn heavy_requests_over_the_inflight_cap_are_shed() {
    let _guard = serial();
    let engine = Engine::new();
    engine.set_max_inflight(0);

    let err = engine
        .handle(Request::Train {
            session: 1,
            config: None,
        })
        .expect_err("a heavy request over the cap must be shed");
    assert_eq!(err.code, ErrorCode::Overloaded);
    assert!(err.message.contains("retry"), "message: {}", err.message);
    assert_eq!(engine.obs().shed_total.get(), 1);

    // Light requests are never shed, whatever the cap.
    assert!(engine.handle(Request::ListUseCases).is_ok());
    assert!(engine.handle(Request::MetricsSnapshot).is_ok());

    // Raising the cap restores service (the permit accounting is not
    // stuck from the shed attempt).
    engine.set_max_inflight(whatif_server::engine::DEFAULT_MAX_INFLIGHT);
    assert_eq!(engine.inflight(), 0);
    let err = engine
        .handle(Request::Train {
            session: 999,
            config: None,
        })
        .expect_err("unknown session");
    assert_ne!(err.code, ErrorCode::Overloaded);
}

/// Satellite 2: V3Client socket timeouts surface as a typed
/// [`V3Error::Timeout`] instead of hanging the caller forever.
#[test]
#[cfg(debug_assertions)]
fn client_socket_timeout_is_a_typed_error() {
    let _guard = serial();
    whatif_chaos::disarm_all();
    let engine = Arc::new(Engine::new());
    let (addr, handle) = serve_with_engine("127.0.0.1:0", Arc::clone(&engine)).unwrap();

    let mut v3 = V3Client::connect(addr).unwrap();
    v3.set_io_timeout(Some(Duration::from_millis(50))).unwrap();
    // One slow dispatch: the reply exists but arrives after the
    // client's read deadline.
    whatif_chaos::arm("engine.dispatch", Policy::delay_ms(400).limit(1));
    match v3.call_json(41, &Request::ListUseCases) {
        Err(V3Error::Timeout(_)) => {}
        other => panic!("expected V3Error::Timeout, got {other:?}"),
    }
    whatif_chaos::disarm_all();
    drop(v3);

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    );
    handle.join().unwrap();
}

/// Bounded retry with jittered backoff: a transient connection-level
/// fault (server drops the connection before replying) is retried on a
/// fresh connection; typed server errors are answers and never retried.
#[test]
#[cfg(debug_assertions)]
fn transient_faults_are_retried_with_backoff() {
    let _guard = serial();
    whatif_chaos::disarm_all();
    let engine = Arc::new(Engine::new());
    let (addr, handle) = serve_with_engine("127.0.0.1:0", Arc::clone(&engine)).unwrap();

    let policy = RetryPolicy {
        attempts: 3,
        base_delay_ms: 1,
        max_delay_ms: 5,
        seed: 7,
    };

    // First attempt dies on an injected encode fault (zero reply bytes
    // arrive, so the request is safe to resend); the retry succeeds.
    let fires_before = whatif_chaos::fires("v3.encode");
    whatif_chaos::arm("v3.encode", Policy::error().limit(1));
    let mut v3 = V3Client::connect(addr).unwrap();
    let reply = v3
        .call_json_with_retry(51, &Request::ListUseCases, policy)
        .unwrap();
    assert!(!reply.is_error());
    whatif_chaos::disarm_all();
    assert_eq!(whatif_chaos::fires("v3.encode"), fires_before + 1);

    // A typed server error is an answer, not a transport fault: it is
    // delivered (never retried) as an error envelope.
    let reply = v3
        .call_json_with_retry(
            52,
            &Request::SelectKpi {
                session: 424_242,
                kpi: "nope".into(),
            },
            policy,
        )
        .unwrap();
    let err = reply.into_result().expect_err("unknown session");
    assert_eq!(err.code, ErrorCode::UnknownSession);

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    );
    handle.join().unwrap();
}

/// Graceful drain (tentpole acceptance): shutdown lets the in-flight
/// request finish and deliver its reply while new connections are
/// refused; the accept loop exits without the old self-connect wake-up.
#[test]
#[cfg(debug_assertions)]
fn graceful_drain_lets_in_flight_requests_finish() {
    let _guard = serial();
    whatif_chaos::disarm_all();
    let engine = Arc::new(Engine::new());
    let options = ServeOptions {
        drain_deadline_ms: 5_000,
        ..ServeOptions::default()
    };
    let (addr, handle) = serve_with_options("127.0.0.1:0", Arc::clone(&engine), options).unwrap();

    let mut slow_client = Client::connect(addr).unwrap();
    assert!(matches!(
        slow_client.call(&Request::ListUseCases).unwrap(),
        Response::UseCases(_)
    ));
    // Exactly one dispatch stalls long enough to still be in flight
    // when the shutdown order lands.
    whatif_chaos::arm("engine.dispatch", Policy::delay_ms(400).limit(1));
    let in_flight = std::thread::spawn(move || slow_client.call(&Request::ListUseCases));

    std::thread::sleep(Duration::from_millis(100));
    let mut shutdown = Client::connect(addr).unwrap();
    assert_eq!(
        shutdown.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    );
    // The accept loop observes the flag by polling and exits; drain
    // waits for the stalled request before the handle joins.
    handle.join().unwrap();
    whatif_chaos::disarm_all();

    match in_flight.join().unwrap() {
        Ok(Response::UseCases(u)) => assert_eq!(u.len(), 3),
        other => panic!("in-flight request must finish during drain: {other:?}"),
    }

    // The listener is gone: nobody serves new connections.
    let refused = Client::connect(addr).and_then(|mut c| c.call(&Request::ListUseCases));
    assert!(refused.is_err(), "new connections must be refused");
}

/// Release-profile cross-check for the test binary itself: the chaos
/// registry reports empty/zero when `debug_assertions` are off, so
/// none of the debug-gated matrix machinery can leak into release.
#[test]
#[cfg(not(debug_assertions))]
fn chaos_is_inert_in_release_builds() {
    let _guard = serial();
    whatif_chaos::arm("tcp.read", Policy::error());
    assert!(whatif_chaos::registered().is_empty());
    assert_eq!(whatif_chaos::injected_total(), 0);
    whatif_chaos::disarm_all();
}

/// The three hostile documents: a 1 MiB line of `[`, a request nested
/// 100 000 `Batch` levels deep, and a valid `ListUseCases` envelope
/// whose unknown field holds 1 MiB of balanced nested arrays.
fn hostile_lines() -> Vec<(&'static str, String)> {
    const LEVELS: usize = 100_000;
    let half = 1 << 19;
    vec![
        ("open brackets", "[".repeat(1 << 20)),
        (
            "nested batches",
            format!(
                "{}\"ListUseCases\"{}",
                "{\"Batch\":[".repeat(LEVELS),
                "]}".repeat(LEVELS)
            ),
        ),
        (
            "deep unknown field",
            format!(
                "{{\"id\":3,\"body\":\"ListUseCases\",\"pad\":{}{}}}",
                "[".repeat(half),
                "]".repeat(half)
            ),
        ),
    ]
}

/// A reply line is a typed `BadRequest`, in either JSON framing.
fn assert_bad_request_line(what: &str, line: &str) {
    let error = match serde_json::from_str::<Reply>(line) {
        Ok(reply) => reply.error,
        Err(_) => serde_json::from_str::<Response>(line)
            .unwrap_or_else(|e| panic!("{what}: unparseable reply {line:?}: {e}"))
            .as_error()
            .cloned(),
    };
    let error = error.unwrap_or_else(|| panic!("{what}: expected an error, got {line:?}"));
    assert_eq!(error.code, ErrorCode::BadRequest, "{what}: {error}");
}

/// Hostile nesting gets a typed `BadRequest` over JSON lines and as a
/// v3 opcode-1 body, instead of overflowing the connection thread's
/// stack and aborting the process; the server keeps answering.
#[test]
fn hostile_nesting_gets_a_typed_error_not_an_abort() {
    let _guard = serial();
    whatif_chaos::disarm_all();
    let engine = Arc::new(Engine::new());
    let (addr, handle) = serve_with_engine("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    for (what, line) in hostile_lines() {
        let mut json = Client::connect(addr).unwrap();
        let reply = json
            .send_raw(&line)
            .expect("the JSON connection must answer");
        assert_bad_request_line(what, &reply);

        let mut v3 = V3Client::connect(addr).unwrap();
        v3.send(&WireRequest {
            id: 5,
            deadline_ms: 0,
            body: RequestBody::Json(line),
        })
        .unwrap();
        let FrameEvent::Frame(frame) = v3.read_event().unwrap() else {
            panic!("{what}: expected a reply frame");
        };
        assert_eq!(frame.frame_type, FrameType::Reply, "{what}");
        let ReplyBody::Json(reply) = WireReply::decode(&frame.payload).unwrap().body else {
            panic!("{what}: expected a JSON reply body");
        };
        assert_bad_request_line(what, &reply);
        assert_server_alive(addr);
    }
    let mut admin = Client::connect(addr).unwrap();
    assert_eq!(
        admin.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    );
    handle.join().unwrap();
}
