//! Concurrency stress tests for the snapshot-isolated execution core:
//! many clients mixing mutations, screens, and cancellations against a
//! multi-worker daemon, plus the headline isolation guarantees — a DELTA
//! overtaking a big in-flight SCREEN, and a cancelled screen leaving the
//! daemon byte-identical to one that never started it.

use kessler_core::ScreeningConfig;
use kessler_population::{PopulationConfig, PopulationGenerator};
use kessler_service::proto::ScreenSummary;
use kessler_service::{
    request, Client, ElementsSpec, Request, Server, ServerHandle, ServerOptions,
};
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

fn serve_preloaded(
    n: usize,
    workers: usize,
    threshold_km: f64,
    span_s: f64,
) -> (SocketAddr, ServerHandle) {
    let config = ScreeningConfig::grid_defaults(threshold_km, span_s);
    let options = ServerOptions {
        workers,
        ..ServerOptions::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config, options).expect("bind ephemeral port");
    let population = PopulationGenerator::new(PopulationConfig {
        seed: 42,
        ..Default::default()
    })
    .generate(n);
    server.preload(&population).expect("preload");
    let addr = server.local_addr();
    (addr, server.spawn().expect("spawn server thread"))
}

fn spec_for(id: u64) -> ElementsSpec {
    ElementsSpec {
        a: 7_000.0 + (id % 97) as f64 * 3.0,
        e: 0.001,
        incl: 0.4 + (id % 7) as f64 * 0.3,
        raan: (id % 41) as f64 * 0.15,
        argp: 0.1,
        mean_anomaly: (id % 113) as f64 * 0.055,
    }
}

/// Everything in a screen payload except the wall-clock timings, as a
/// canonical JSON string, for byte-identical comparisons across servers.
fn normalized(summary: &ScreenSummary) -> String {
    let mut value = serde_json::to_value(summary).expect("serialize summary");
    if let serde_json::Value::Object(map) = &mut value {
        map.remove("timings");
    }
    serde_json::to_string(&value).expect("serialize normalized summary")
}

/// The acceptance scenario: with `--workers 4` and a large catalog,
/// a DELTA completes while a full SCREEN is still in flight, and a
/// cancelled SCREEN leaves the daemon in exactly the state of a daemon
/// that never started it.
#[test]
fn cancelled_screen_is_invisible_and_delta_overtakes_a_big_screen() {
    let n = 8_192;
    let (addr, handle) = serve_preloaded(n, 4, 5.0, 240.0);
    let (control_addr, control_handle) = serve_preloaded(n, 4, 5.0, 240.0);

    let before = request(addr, &Request::Status)
        .expect("STATUS")
        .status
        .unwrap();
    assert_eq!(before.n_satellites, n);
    assert_eq!(before.pending_changes, n);

    // Launch a big tagged screen, then cancel it as soon as it registers.
    let screen_thread = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.send_tagged(&Request::Screen, "big").expect("SCREEN")
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let response = request(
            addr,
            &Request::Cancel {
                id: "big".to_string(),
            },
        )
        .expect("CANCEL");
        if response.ok {
            break;
        }
        assert!(
            response.error.unwrap().contains("no queued or running job"),
            "unexpected CANCEL failure"
        );
        assert!(
            Instant::now() < deadline,
            "CANCEL never caught the in-flight screen"
        );
        thread::sleep(Duration::from_millis(1));
    }
    let response = screen_thread.join().expect("screen thread");
    assert!(!response.ok, "cancelled screen must not return a result");
    let error = response.error.unwrap();
    assert!(error.contains("cancelled"), "unexpected error: {error}");

    // The daemon looks exactly like one that never started the screen.
    let after = request(addr, &Request::Status)
        .expect("STATUS")
        .status
        .unwrap();
    assert_eq!(after.n_satellites, before.n_satellites);
    assert_eq!(after.epoch, before.epoch);
    assert_eq!(after.pending_changes, before.pending_changes);
    assert_eq!(after.full_screens, 0);
    assert_eq!(after.delta_screens, 0);
    assert_eq!(after.live_conjunctions, 0);
    assert!(after.last_screen.is_none());

    // … and its first real screen is byte-identical (timings aside) to the
    // first screen of a control server that never saw the cancelled job.
    let ours = request(addr, &Request::Screen)
        .expect("SCREEN")
        .screen
        .unwrap();
    let control = request(control_addr, &Request::Screen)
        .expect("control SCREEN")
        .screen
        .unwrap();
    assert!(!ours.stale);
    assert_eq!(normalized(&ours), normalized(&control));

    // Warm engine, one mutation, then: DELTA on one connection completes
    // while a full screen of all 8k satellites is still running.
    let response = request(
        addr,
        &Request::Update {
            id: 7,
            elements: spec_for(7_777),
        },
    )
    .expect("UPDATE");
    assert!(response.ok);
    let screen_thread = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let response = client
            .send_tagged(&Request::Screen, "big-2")
            .expect("SCREEN");
        (response, Instant::now())
    });
    thread::sleep(Duration::from_millis(30)); // let the screen enqueue
    let delta = request(addr, &Request::Delta).expect("DELTA");
    let delta_done = Instant::now();
    assert!(delta.ok, "{:?}", delta.error);
    let (big, big_done) = screen_thread.join().expect("screen thread");
    assert!(big.ok, "{:?}", big.error);
    assert!(
        delta_done < big_done,
        "DELTA should complete while the full screen is still in flight"
    );

    // Replay equivalence: both ran at the same epoch, so they must agree.
    let delta = delta.screen.unwrap();
    let big = big.screen.unwrap();
    assert_eq!(delta.epoch, big.epoch);
    assert_eq!(delta.conjunctions, big.conjunctions);
    assert_eq!(delta.colliding_pairs, big.colliding_pairs);

    let metrics = request(addr, &Request::Metrics)
        .expect("METRICS")
        .metrics
        .unwrap();
    assert!(metrics.jobs_cancelled >= 1, "cancelled counter not bumped");
    assert!(metrics.queue_highwater >= 1);

    handle.shutdown();
    control_handle.shutdown();
}

/// Eight clients hammer one daemon with a mix of ADD, SCREEN, DELTA, and
/// CANCEL. Every response must be an ok or a well-known error; afterwards
/// the catalog holds exactly the expected satellites and a DELTA agrees
/// with a fresh full SCREEN at the same epoch.
#[test]
fn eight_concurrent_clients_mix_screens_deltas_cancels_and_adds() {
    let n = 512;
    let (addr, handle) = serve_preloaded(n, 4, 5.0, 120.0);

    // Warm the engine so DELTAs during the storm are cheap.
    let response = request(addr, &Request::Screen).expect("SCREEN");
    assert!(response.ok);

    let clients: Vec<_> = (0..8u64)
        .map(|k| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                match k % 4 {
                    0 => {
                        // Adders: 16 new satellites each, disjoint id ranges.
                        for j in 0..16u64 {
                            let id = 100_000 + k * 100 + j;
                            let response = client
                                .send(&Request::Add {
                                    id,
                                    elements: spec_for(id),
                                })
                                .expect("ADD");
                            assert!(response.ok, "ADD {id}: {:?}", response.error);
                        }
                    }
                    1 => {
                        // Tagged screeners: may be cancelled by the cancellers.
                        for j in 0..4 {
                            let req_id = format!("screen-{k}-{j}");
                            let response = client
                                .send_tagged(&Request::Screen, &req_id)
                                .expect("SCREEN");
                            assert!(
                                response.ok
                                    || response.error.as_deref().is_some_and(|e| {
                                        e.contains("cancelled") || e.contains("busy")
                                    }),
                                "SCREEN {req_id}: {:?}",
                                response.error
                            );
                            if response.ok {
                                assert_eq!(response.req_id.as_deref(), Some(req_id.as_str()));
                            }
                        }
                    }
                    2 => {
                        // Delta re-screeners.
                        for _ in 0..4 {
                            let response = client.send(&Request::Delta).expect("DELTA");
                            assert!(
                                response.ok
                                    || response
                                        .error
                                        .as_deref()
                                        .is_some_and(|e| e.contains("busy")),
                                "DELTA: {:?}",
                                response.error
                            );
                        }
                    }
                    _ => {
                        // Cancellers: race against the screeners' req_ids.
                        for screener in [1u64, 5] {
                            for j in 0..4 {
                                let response = client
                                    .send(&Request::Cancel {
                                        id: format!("screen-{screener}-{j}"),
                                    })
                                    .expect("CANCEL");
                                assert!(
                                        response.ok
                                            || response.error.as_deref().is_some_and(
                                                |e| e.contains("no queued or running job")
                                            ),
                                        "CANCEL: {:?}",
                                        response.error
                                    );
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for t in clients {
        t.join().expect("client thread");
    }

    // Quiesced: the catalog holds the preload plus both adders' batches.
    let status = request(addr, &Request::Status)
        .expect("STATUS")
        .status
        .unwrap();
    assert_eq!(status.n_satellites, n + 2 * 16);

    // Replay equivalence with no concurrent mutations: DELTA and a fresh
    // full SCREEN capture the same epoch and must agree exactly.
    let mut client = Client::connect(addr).expect("connect");
    let delta = client.send(&Request::Delta).expect("DELTA").screen.unwrap();
    let full = client
        .send(&Request::Screen)
        .expect("SCREEN")
        .screen
        .unwrap();
    assert_eq!(delta.epoch, full.epoch);
    assert_eq!(delta.conjunctions, full.conjunctions);
    assert_eq!(delta.colliding_pairs, full.colliding_pairs);
    assert!(!full.stale);

    let metrics = request(addr, &Request::Metrics)
        .expect("METRICS")
        .metrics
        .unwrap();
    assert!(metrics.queue_highwater >= 1);
    assert_eq!(metrics.worker_respawns, 0);
    drop(client);

    handle.shutdown();
}
