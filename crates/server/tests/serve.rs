//! Integration tests for the daemon: wire protocol round trips over a
//! real socket, admission shedding, epoch publishes under traffic,
//! and orderly shutdown with a stalled member in flight.

use std::sync::Arc;
use std::time::Duration;

use delprop_core::runtime::solver::GreedySolver;
use delprop_core::runtime::{FaultMode, FaultySolver, Portfolio};
use delprop_core::solvers::local_search::Objective;
use delprop_server::{
    Bind, Client, Daemon, InstanceSpec, Request, Response, ServerConfig, SolveRequest,
};

fn fig1_config() -> ServerConfig {
    ServerConfig {
        initial: InstanceSpec::Fig1,
        initial_label: "fig1".to_string(),
        ..ServerConfig::default()
    }
}

fn connect(daemon: &Daemon) -> Client {
    let client = Client::connect_tcp(daemon.tcp_addr().expect("tcp daemon")).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    client
}

#[test]
fn health_solve_stats_epoch_roundtrip() {
    let daemon = Daemon::spawn(fig1_config()).expect("spawn");
    let mut client = connect(&daemon);

    match client.request(&Request::Health).expect("health") {
        Response::Health { epoch, label, .. } => {
            assert_eq!(epoch, 1);
            assert_eq!(label, "fig1");
        }
        other => panic!("expected health, got {other:?}"),
    }

    match client
        .request(&Request::Solve(SolveRequest::default()))
        .expect("solve")
    {
        Response::Ok(ok) => {
            assert_eq!(ok.epoch, 1);
            assert!(!ok.deleted.is_empty());
            assert!(!ok.degraded);
            assert!(
                ok.guarantee == "exact"
                    || ok.guarantee == "heuristic"
                    || ok.guarantee.starts_with("ratio"),
                "unlabeled guarantee {:?}",
                ok.guarantee
            );
        }
        other => panic!("expected ok, got {other:?}"),
    }

    match client.request(&Request::Stats).expect("stats") {
        Response::Stats { metrics } => {
            assert!(metrics.contains("serve.requests "), "{metrics}");
            assert!(metrics.contains("budget.ticks "), "{metrics}");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    match client.request(&Request::Epoch).expect("epoch") {
        Response::Epoch { epoch, label } => {
            assert_eq!(epoch, 1);
            assert_eq!(label, "fig1");
        }
        other => panic!("expected epoch, got {other:?}"),
    }
}

#[test]
fn balanced_objective_is_served() {
    let daemon = Daemon::spawn(fig1_config()).expect("spawn");
    let mut client = connect(&daemon);
    let req = SolveRequest {
        objective: Objective::Balanced,
        ..SolveRequest::default()
    };
    match client.request(&Request::Solve(req)).expect("solve") {
        Response::Ok(ok) => assert!(ok.cost.is_finite()),
        other => panic!("expected ok, got {other:?}"),
    }
}

#[test]
fn malformed_requests_get_typed_errors_and_the_connection_survives() {
    use delprop_server::wire::{send_frame, FrameBuffer};

    let daemon = Daemon::spawn(fig1_config()).expect("spawn");
    let mut stream = std::net::TcpStream::connect(daemon.tcp_addr().unwrap()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut frames = FrameBuffer::new();
    let mut out = Vec::new();

    // An unknown op is an application-level error; framing is intact,
    // so the connection keeps serving.
    send_frame(&mut stream, &mut out, |o| {
        o.extend_from_slice(br#"{"op":"explode"}"#)
    })
    .unwrap();
    let frame = frames.read_from(&mut stream).unwrap().unwrap();
    match Response::from_bytes(frame).unwrap() {
        Response::Error { message } => assert!(message.contains("unknown op"), "{message}"),
        other => panic!("expected error, got {other:?}"),
    }

    // Unparseable bytes in a well-formed frame: same story.
    send_frame(&mut stream, &mut out, |o| {
        o.extend_from_slice(b"not json at all")
    })
    .unwrap();
    let frame = frames.read_from(&mut stream).unwrap().unwrap();
    match Response::from_bytes(frame).unwrap() {
        Response::Error { message } => assert!(message.contains("bad request"), "{message}"),
        other => panic!("expected error, got {other:?}"),
    }

    // And the connection still answers real requests afterwards.
    send_frame(&mut stream, &mut out, |o| Request::Health.encode(o)).unwrap();
    let frame = frames.read_from(&mut stream).unwrap().unwrap();
    assert!(matches!(
        Response::from_bytes(frame).unwrap(),
        Response::Health { .. }
    ));
}

#[test]
fn rejected_publishes_keep_the_epoch_and_the_connection() {
    use delprop_server::wire::{send_frame, FrameBuffer};

    let daemon = Daemon::spawn(fig1_config()).expect("spawn");
    let mut stream = std::net::TcpStream::connect(daemon.tcp_addr().unwrap()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut frames = FrameBuffer::new();
    let mut out = Vec::new();
    let mut ask = |encode: &dyn Fn(&mut Vec<u8>)| {
        send_frame(&mut stream, &mut out, encode).unwrap();
        Response::from_bytes(frames.read_from(&mut stream).unwrap().unwrap()).unwrap()
    };

    // A spec the decoder refuses: negative and fractional counts.
    let refused = ask(&|o| {
        o.extend_from_slice(
            br#"{"op":"publish","spec":{"kind":"forest","chains":-4,"levels":2.7,"seed":-1}}"#,
        )
    });
    match refused {
        Response::Error { message } => assert!(message.contains("bad request"), "{message}"),
        other => panic!("expected error, got {other:?}"),
    }

    // A spec that decodes but that the generator cannot build.
    let unbuildable = Request::Publish {
        label: "wide".to_string(),
        spec: InstanceSpec::Forest {
            levels: 2,
            window: 5,
            chains: 4,
            delete_fraction: 0.2,
            weighted: false,
            seed: 1,
        },
    };
    match ask(&|o| unbuildable.encode(o)) {
        Response::Error { message } => {
            assert!(message.contains("publish failed"), "{message}");
            assert!(message.contains("`window` is 5"), "{message}");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // Nothing was published, and the same connection still serves.
    match ask(&|o| Request::Health.encode(o)) {
        Response::Health { epoch, label, .. } => assert_eq!((epoch, label.as_str()), (1, "fig1")),
        other => panic!("expected health, got {other:?}"),
    }
    assert_eq!(daemon.epoch(), 1);
}

#[test]
fn admission_sheds_when_slots_are_stalled() {
    // One slot, no queue; a stalling portfolio holds it for the whole
    // deadline, so a concurrent request must shed with `overloaded`.
    let mut cfg = fig1_config();
    cfg.admission.max_inflight = 1;
    cfg.admission.max_per_tenant = 1;
    cfg.admission.max_queued = 0;
    cfg.admission.max_wait = Duration::from_millis(50);
    cfg.engine.default_deadline_ms = 1_500;
    cfg.engine.max_retries = 0;
    cfg.engine.grace_ticks = 0;
    cfg.portfolio = Arc::new(|_| {
        Portfolio::new(Objective::Standard).with(FaultySolver::new(GreedySolver, FaultMode::Stall))
    });
    let daemon = Daemon::spawn(cfg).expect("spawn");

    let mut stuck = connect(&daemon);
    stuck
        .send(&Request::Solve(SolveRequest::default()))
        .expect("send");
    // Wait until the stalled solve holds the only slot.
    let mut probe = connect(&daemon);
    loop {
        match probe.request(&Request::Health).expect("health") {
            Response::Health { inflight: 1, .. } => break,
            Response::Health { .. } => std::thread::yield_now(),
            other => panic!("expected health, got {other:?}"),
        }
    }

    let mut shed = connect(&daemon);
    match shed
        .request(&Request::Solve(SolveRequest {
            tenant: "other".to_string(),
            ..SolveRequest::default()
        }))
        .expect("solve")
    {
        Response::Overloaded { reason } => {
            assert!(!reason.is_empty(), "shed reason must be stated");
        }
        other => panic!("expected overloaded, got {other:?}"),
    }

    // The stalled request itself resolves by deadline (stall polls the
    // budget), as deadline_exceeded with zero grace.
    match stuck.recv().expect("stuck response") {
        Response::DeadlineExceeded { .. } => {}
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
}

#[test]
fn tenant_saturation_sheds_only_that_tenant() {
    let mut cfg = fig1_config();
    cfg.admission.max_inflight = 8;
    cfg.admission.max_per_tenant = 1;
    cfg.admission.max_queued = 0;
    cfg.engine.default_deadline_ms = 1_500;
    cfg.engine.max_retries = 0;
    cfg.engine.grace_ticks = 0;
    cfg.portfolio = Arc::new(|_| {
        Portfolio::new(Objective::Standard).with(FaultySolver::new(GreedySolver, FaultMode::Stall))
    });
    let daemon = Daemon::spawn(cfg).expect("spawn");

    let mut holder = connect(&daemon);
    holder
        .send(&Request::Solve(SolveRequest {
            tenant: "a".to_string(),
            ..SolveRequest::default()
        }))
        .expect("send");
    let mut probe = connect(&daemon);
    loop {
        match probe.request(&Request::Health).expect("health") {
            Response::Health { inflight, .. } if inflight >= 1 => break,
            Response::Health { .. } => std::thread::yield_now(),
            other => panic!("expected health, got {other:?}"),
        }
    }

    // Same tenant: shed immediately with the tenant named.
    let mut same = connect(&daemon);
    match same
        .request(&Request::Solve(SolveRequest {
            tenant: "a".to_string(),
            ..SolveRequest::default()
        }))
        .expect("solve")
    {
        Response::Overloaded { reason } => assert!(reason.contains("tenant"), "{reason}"),
        other => panic!("expected overloaded, got {other:?}"),
    }
    // Different tenant: admitted (its stall then rides to deadline).
    let mut other_tenant = connect(&daemon);
    match other_tenant
        .request(&Request::Solve(SolveRequest {
            tenant: "b".to_string(),
            ..SolveRequest::default()
        }))
        .expect("solve")
    {
        Response::DeadlineExceeded { .. } => {}
        other => panic!("expected deadline_exceeded for tenant b, got {other:?}"),
    }
    let _ = holder.recv();
}

#[test]
fn publish_during_traffic_moves_the_epoch_without_breaking_solves() {
    let daemon = Daemon::spawn(fig1_config()).expect("spawn");
    let addr = daemon.tcp_addr().unwrap();

    std::thread::scope(|s| {
        // Four workers hammer solve while the main thread republishes.
        let workers: Vec<_> = (0..4)
            .map(|w| {
                s.spawn(move || {
                    let mut client = Client::connect_tcp(addr).expect("connect");
                    client
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let mut epochs = Vec::new();
                    for k in 0..10 {
                        match client
                            .request(&Request::Solve(SolveRequest {
                                tenant: format!("w{w}"),
                                deadline_ms: Some(5_000),
                                ..SolveRequest::default()
                            }))
                            .unwrap_or_else(|e| panic!("worker {w} req {k}: {e}"))
                        {
                            Response::Ok(ok) => {
                                assert!(!ok.deleted.is_empty());
                                epochs.push(ok.epoch);
                            }
                            Response::Overloaded { .. } | Response::DeadlineExceeded { .. } => {}
                            other => panic!("worker {w}: unexpected {other:?}"),
                        }
                    }
                    epochs
                })
            })
            .collect();

        let mut publisher = Client::connect_tcp(addr).expect("connect");
        publisher
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        for seed in 2..6u64 {
            match publisher
                .request(&Request::Publish {
                    label: format!("forest-{seed}"),
                    spec: InstanceSpec::Forest {
                        levels: 3,
                        window: 2,
                        chains: 4,
                        delete_fraction: 0.25,
                        weighted: false,
                        seed,
                    },
                })
                .expect("publish")
            {
                Response::Published { epoch, label } => {
                    assert!(epoch >= 2);
                    assert_eq!(label, format!("forest-{seed}"));
                }
                other => panic!("expected published, got {other:?}"),
            }
        }

        for w in workers {
            let epochs = w.join().expect("worker");
            // Epochs a worker observed never move backwards: snapshots
            // are taken per request from a monotone cell.
            for pair in epochs.windows(2) {
                assert!(pair[0] <= pair[1], "epoch went backwards: {epochs:?}");
            }
            for e in epochs {
                assert!((1..=5).contains(&e), "epoch {e} out of range");
            }
        }
    });

    assert_eq!(daemon.epoch(), 5);
}

#[test]
fn shutdown_with_a_stalled_request_is_prompt_and_orderly() {
    let mut cfg = fig1_config();
    cfg.engine.default_deadline_ms = 30_000; // the stall would run for ages...
    cfg.engine.max_retries = 0;
    cfg.engine.grace_ticks = 0;
    cfg.portfolio = Arc::new(|_| {
        Portfolio::new(Objective::Standard).with(FaultySolver::new(GreedySolver, FaultMode::Stall))
    });
    let mut daemon = Daemon::spawn(cfg).expect("spawn");
    let mut client = connect(&daemon);
    client
        .send(&Request::Solve(SolveRequest::default()))
        .expect("send");
    // Wait until the stall is actually in flight.
    let mut probe = connect(&daemon);
    loop {
        match probe.request(&Request::Health).expect("health") {
            Response::Health { inflight, .. } if inflight >= 1 => break,
            Response::Health { .. } => std::thread::yield_now(),
            other => panic!("expected health, got {other:?}"),
        }
    }

    // ...but shutdown cancels it pool-wide and joins everything
    // within a bounded wall clock.
    let start = delprop_core::runtime::now();
    daemon.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "shutdown took {:?}",
        start.elapsed()
    );
    // The stalled request resolved with a typed response (cancelled)
    // or the connection closed — never a hang, never a corrupt frame.
    match client.recv() {
        Ok(Response::Error { message }) => assert!(message.contains("cancelled"), "{message}"),
        Ok(other) => panic!("unexpected response {other:?}"),
        Err(_) => {} // connection closed during shutdown: acceptable
    }
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_the_same_protocol() {
    let path = std::env::temp_dir().join(format!("delpropd-test-{}.sock", std::process::id()));
    let mut cfg = fig1_config();
    cfg.bind = Bind::Unix(path.clone());
    let daemon = Daemon::spawn(cfg).expect("spawn");
    let mut client = Client::connect_unix(&path).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match client.request(&Request::Health).expect("health") {
        Response::Health { epoch: 1, .. } => {}
        other => panic!("expected health, got {other:?}"),
    }
    match client
        .request(&Request::Solve(SolveRequest::default()))
        .expect("solve")
    {
        Response::Ok(ok) => assert!(!ok.deleted.is_empty()),
        other => panic!("expected ok, got {other:?}"),
    }
    drop(daemon);
    assert!(!path.exists(), "socket file must be cleaned up");
}
