//! Hybrid-variant service tests: a daemon serving `--variant hybrid` must
//! answer SCREEN/DELTA/ADVANCE through the orbital filter chain with
//! filter-chain stats in its payloads, a cancelled hybrid screen must be
//! invisible, and variant-aware snapshot recovery must come back warm
//! (same variant) or cold (variant changed).

use kessler_core::{ScreeningConfig, Variant};
use kessler_population::{PopulationConfig, PopulationGenerator};
use kessler_service::proto::ScreenSummary;
use kessler_service::{
    request, Client, PersistOptions, Request, Server, ServerHandle, ServerOptions,
    HYBRID_DELTA_VARIANT,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

fn config_for(variant: Variant, span_s: f64) -> ScreeningConfig {
    match variant {
        Variant::Hybrid => ScreeningConfig::hybrid_defaults(5.0, span_s),
        _ => ScreeningConfig::grid_defaults(5.0, span_s),
    }
}

fn serve_preloaded(
    variant: Variant,
    n: usize,
    workers: usize,
    span_s: f64,
) -> (SocketAddr, ServerHandle) {
    let options = ServerOptions {
        workers,
        variant,
        ..ServerOptions::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config_for(variant, span_s), options)
        .expect("bind ephemeral port");
    let population = PopulationGenerator::new(PopulationConfig {
        seed: 42,
        ..Default::default()
    })
    .generate(n);
    server.preload(&population).expect("preload");
    let addr = server.local_addr();
    (addr, server.spawn().expect("spawn server thread"))
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

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("kessler-hybrid-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persist_options(dir: &Path) -> PersistOptions {
    PersistOptions {
        dir: dir.to_path_buf(),
        snapshot_every: 1,
        shards: None,
    }
}

#[test]
fn hybrid_daemon_serves_screen_delta_advance_with_filter_stats() {
    let (addr, handle) = serve_preloaded(Variant::Hybrid, 256, 2, 120.0);
    let mut client = Client::connect(addr).expect("connect");

    let status = client
        .send(&Request::Status)
        .expect("STATUS")
        .status
        .unwrap();
    assert_eq!(status.variant, "hybrid");
    assert!(status.last_screen.is_none());

    // Cold full screen: hybrid label, filter-chain stats attached.
    let screen = client
        .send(&Request::Screen)
        .expect("SCREEN")
        .screen
        .unwrap();
    assert_eq!(screen.n_satellites, 256);
    assert_eq!(screen.variant, "hybrid");
    let stats = screen.filter_stats.expect("hybrid screens carry stats");
    assert!(stats.tested > 0, "the chain saw no candidate pairs");
    assert!(stats.kept <= stats.tested);

    // One update, then DELTA takes the hybrid delta path and must agree
    // with a fresh full hybrid screen at the same epoch.
    let response = client
        .send(&Request::Update {
            id: 7,
            elements: kessler_service::ElementsSpec {
                a: 7_021.0,
                e: 0.001,
                incl: 1.3,
                raan: 1.4,
                argp: 0.1,
                mean_anomaly: 2.2,
            },
        })
        .expect("UPDATE");
    assert!(response.ok, "{:?}", response.error);
    let delta = client.send(&Request::Delta).expect("DELTA").screen.unwrap();
    assert_eq!(delta.variant, HYBRID_DELTA_VARIANT);
    assert!(
        delta.filter_stats.is_some(),
        "hybrid deltas run the filter chain too"
    );
    let full = client
        .send(&Request::Screen)
        .expect("SCREEN")
        .screen
        .unwrap();
    assert_eq!(delta.conjunctions, full.conjunctions);
    assert_eq!(delta.colliding_pairs, full.colliding_pairs);

    // STATUS reports the serving variant and the last adopted screen with
    // its chain stats.
    let status = client
        .send(&Request::Status)
        .expect("STATUS")
        .status
        .unwrap();
    assert_eq!(status.variant, "hybrid");
    assert!(status.full_screens >= 2);
    assert!(status.delta_screens >= 1);
    let last = status.last_screen.expect("last_screen after screening");
    assert_eq!(last.variant, "hybrid");
    assert!(last.filter_stats.is_some());

    // ADVANCE screens the freshly exposed tail through the same chain.
    let response = client
        .send(&Request::Advance { dt: 30.0 })
        .expect("ADVANCE");
    assert!(response.ok, "{:?}", response.error);
    assert_eq!(response.advance.unwrap().window, (30.0, 150.0));
    let status = client
        .send(&Request::Status)
        .expect("STATUS")
        .status
        .unwrap();
    assert_eq!(status.last_screen.unwrap().variant, "hybrid");

    // METRICS accumulates the chain counters across everything above.
    let metrics = client
        .send(&Request::Metrics)
        .expect("METRICS")
        .metrics
        .unwrap();
    let chain = metrics.filter_chain.expect("filter-chain counters");
    assert!(chain.tested >= stats.tested);
    assert!(chain.kept <= chain.tested);

    drop(client);
    handle.shutdown();
}

/// A CANCEL that lands mid-hybrid-screen (inside the filter-evaluation or
/// refinement loops) must leave the daemon in exactly the state of a
/// control daemon that never started the screen.
#[test]
fn cancelled_hybrid_screen_is_invisible() {
    let n = 8_192;
    let (addr, handle) = serve_preloaded(Variant::Hybrid, n, 4, 240.0);
    let (control_addr, control_handle) = serve_preloaded(Variant::Hybrid, n, 4, 240.0);

    let before = request(addr, &Request::Status)
        .expect("STATUS")
        .status
        .unwrap();
    assert_eq!(before.n_satellites, n);
    assert_eq!(before.variant, "hybrid");

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
            "CANCEL never caught the in-flight hybrid screen"
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
    // first screen of a control daemon that never saw the cancelled job.
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

    let metrics = request(addr, &Request::Metrics)
        .expect("METRICS")
        .metrics
        .unwrap();
    assert!(metrics.jobs_cancelled >= 1, "cancelled counter not bumped");

    handle.shutdown();
    control_handle.shutdown();
}

fn spec_for(id: u64) -> kessler_service::ElementsSpec {
    kessler_service::ElementsSpec {
        a: 7_000.0 + id as f64 * 3.0,
        e: 0.001,
        incl: 0.4 + (id % 7) as f64 * 0.3,
        raan: id as f64 * 0.2,
        argp: 0.1,
        mean_anomaly: id as f64 * 0.37,
    }
}

fn drive_adds_and_screen(addr: SocketAddr, n: u64) {
    let mut client = Client::connect(addr).expect("connect");
    for id in 0..n {
        let response = client
            .send(&Request::Add {
                id,
                elements: spec_for(id),
            })
            .expect("ADD");
        assert!(response.ok, "ADD {id}: {:?}", response.error);
    }
    let response = client.send(&Request::Screen).expect("SCREEN");
    assert!(response.ok, "{:?}", response.error);
}

/// A grid daemon's state directory restarted under `--variant hybrid`
/// recovers the catalog and counters but comes back cold: the grid warm
/// set is not a valid hybrid delta input, so the first DELTA falls back
/// to a full hybrid screen.
#[test]
fn grid_snapshot_restarted_as_hybrid_comes_back_cold() {
    let dir = temp_dir("variant-switch");

    let grid_options = ServerOptions {
        persist: Some(persist_options(&dir)),
        ..ServerOptions::default()
    };
    let daemon_a = Server::bind_with(
        "127.0.0.1:0",
        config_for(Variant::Grid, 120.0),
        grid_options,
    )
    .expect("bind grid daemon")
    .spawn()
    .expect("spawn server thread");
    drive_adds_and_screen(daemon_a.addr(), 16);
    let status_a = request(daemon_a.addr(), &Request::Status)
        .expect("STATUS")
        .status
        .unwrap();
    assert_eq!(status_a.variant, "grid");
    assert_eq!(status_a.full_screens, 1);
    daemon_a.shutdown();

    let hybrid_options = ServerOptions {
        persist: Some(persist_options(&dir)),
        variant: Variant::Hybrid,
        ..ServerOptions::default()
    };
    let daemon_b = Server::bind_with(
        "127.0.0.1:0",
        config_for(Variant::Hybrid, 120.0),
        hybrid_options,
    )
    .expect("bind hybrid daemon over grid state")
    .spawn()
    .expect("spawn server thread");

    let status_b = request(daemon_b.addr(), &Request::Status)
        .expect("STATUS")
        .status
        .unwrap();
    assert!(status_b.recovered, "daemon B restored from disk");
    assert_eq!(status_b.variant, "hybrid");
    assert_eq!(status_b.n_satellites, 16, "catalog survives the switch");
    assert_eq!(status_b.full_screens, 1, "counters survive the switch");
    assert_eq!(status_b.live_conjunctions, 0, "warm set must be dropped");
    assert!(
        status_b.last_screen.is_none(),
        "no adopted hybrid screen yet"
    );

    // Cold engine: DELTA falls back to a full screen of the new variant.
    let delta = request(daemon_b.addr(), &Request::Delta)
        .expect("DELTA")
        .screen
        .unwrap();
    assert_eq!(delta.variant, "hybrid");
    assert!(delta.filter_stats.is_some());

    daemon_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
