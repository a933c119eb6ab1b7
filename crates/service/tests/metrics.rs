//! End-to-end METRICS tests: drive a persistent daemon through full
//! screens, delta screens, and window advances, then assert the METRICS
//! verb reports per-phase quantile digests that distinguish full from
//! delta, WAL-fsync and snapshot latency distributions, and honest
//! counters — and that STATUS carries the one-line digest.

use kessler_core::ScreeningConfig;
use kessler_service::metrics::MetricsSnapshot;
use kessler_service::proto::ElementsSpec;
use kessler_service::{
    request, Client, FaultPlan, PersistOptions, Request, Response, Server, ServerHandle,
    ServerOptions,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("kessler-metrics-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_for(id: u64) -> ElementsSpec {
    ElementsSpec {
        a: 7_000.0 + id as f64 * 3.0,
        e: 0.001,
        incl: 0.4 + (id % 7) as f64 * 0.3,
        raan: id as f64 * 0.2,
        argp: 0.1,
        mean_anomaly: id as f64 * 0.37,
    }
}

fn config() -> ScreeningConfig {
    ScreeningConfig::grid_defaults(5.0, 120.0)
}

fn serve(options: ServerOptions) -> ServerHandle {
    Server::bind_with("127.0.0.1:0", config(), options)
        .expect("bind server")
        .spawn()
        .expect("spawn server thread")
}

fn metrics_of(handle: &ServerHandle) -> MetricsSnapshot {
    let response = request(handle.addr(), &Request::Metrics).expect("METRICS");
    assert!(response.ok, "{:?}", response.error);
    response.metrics.expect("metrics payload")
}

#[test]
fn fresh_daemon_reports_empty_metrics() {
    let handle = serve(ServerOptions::default());
    let metrics = metrics_of(&handle);
    assert!(metrics.full_screens.is_none());
    assert!(metrics.delta_screens.is_none());
    assert!(metrics.wal_fsync_ms.is_none());
    assert_eq!(metrics.queue_highwater, 0);
    assert_eq!(metrics.worker_respawns, 0);
    // The METRICS request itself is already on the books.
    assert!(metrics.requests.contains_key("METRICS"));
    handle.shutdown();
}

#[test]
fn metrics_distinguish_full_and_delta_and_time_durability() {
    let dir = temp_dir("e2e");
    let handle = serve(ServerOptions {
        persist: Some(PersistOptions {
            dir: dir.clone(),
            snapshot_every: 4,
            shards: None,
        }),
        ..ServerOptions::default()
    });
    let mut client = kessler_service::Client::connect(handle.addr()).expect("connect");

    // 12 adds, two full screens, two warm deltas, one window advance.
    let mut script: Vec<Request> = (0..12u64)
        .map(|id| Request::Add {
            id,
            elements: spec_for(id),
        })
        .collect();
    script.extend([
        Request::Screen,
        Request::Update {
            id: 3,
            elements: spec_for(30),
        },
        Request::Delta,
        Request::Screen,
        Request::Update {
            id: 7,
            elements: spec_for(31),
        },
        Request::Delta,
        Request::Advance { dt: 30.0 },
    ]);
    for req in &script {
        let response = client.send(req).expect("request");
        assert!(response.ok, "{req:?} failed: {:?}", response.error);
    }

    let metrics = metrics_of(&handle);

    // Full and delta screens land in *separate* per-phase series.
    let full = metrics.full_screens.expect("full-screen digests");
    let delta = metrics.delta_screens.expect("delta-screen digests");
    assert_eq!(full.screens, 2, "two SCREENs ran");
    assert_eq!(delta.screens, 2, "two warm DELTAs ran");
    for (name, digest) in [
        ("full insertion", &full.insertion),
        ("full pair_extraction", &full.pair_extraction),
        ("full refinement", &full.refinement),
        ("full total", &full.total),
        ("delta total", &delta.total),
    ] {
        assert_eq!(digest.count, 2, "{name}: {digest:?}");
        assert!(
            digest.min >= 0.0
                && digest.p50 >= digest.min
                && digest.p99 >= digest.p50
                && digest.max >= digest.p99,
            "{name} quantiles out of order: {digest:?}"
        );
    }
    let advance = metrics.advance_tails.expect("advance-tail digests");
    assert_eq!(advance.screens, 1);

    // Durability latencies: every mutation fsynced the WAL, and the
    // snapshot cadence (every 4 mutations) fired several times.
    let fsync = metrics.wal_fsync_ms.expect("wal fsync digests");
    assert!(fsync.count >= 15, "mutations fsynced: {}", fsync.count);
    assert!(fsync.p99 >= fsync.p50 && fsync.p50 >= 0.0);
    let snap_ms = metrics.snapshot_write_ms.expect("snapshot write digests");
    assert!(snap_ms.count >= 2, "snapshots written: {}", snap_ms.count);
    let snap_bytes = metrics.snapshot_bytes.expect("snapshot size digests");
    assert_eq!(snap_bytes.count, snap_ms.count);
    assert!(snap_bytes.min > 0.0, "snapshots are never empty");

    // Request counters and queue pressure.
    assert_eq!(metrics.requests.get("ADD").map(|c| c.ok), Some(12));
    assert_eq!(metrics.requests.get("SCREEN").map(|c| c.ok), Some(2));
    assert_eq!(metrics.requests.get("DELTA").map(|c| c.ok), Some(2));
    assert_eq!(metrics.requests.get("ADVANCE").map(|c| c.ok), Some(1));
    assert!(
        metrics.queue_highwater >= 1,
        "screens went through the queue"
    );
    assert_eq!(metrics.worker_respawns, 0);

    // STATUS carries the one-line digest of the same registry.
    let status = request(handle.addr(), &Request::Status)
        .expect("STATUS")
        .status
        .expect("status payload");
    let line = status.metrics.expect("STATUS metrics one-liner");
    assert!(line.contains("full p50/p99"), "{line}");
    assert!(line.contains("delta p50/p99"), "{line}");
    assert!(line.contains("wal fsync p99"), "{line}");

    // The payload survives a JSON roundtrip bit-for-bit enough to compare.
    let json = serde_json::to_string(&metrics).expect("serialize");
    let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.full_screens.unwrap().screens, 2);
    assert_eq!(back.queue_highwater, metrics.queue_highwater);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors_are_counted_per_command() {
    let handle = serve(ServerOptions::default());
    // UPDATE against an empty catalog fails; the error must be counted.
    let response = request(
        handle.addr(),
        &Request::Update {
            id: 99,
            elements: spec_for(0),
        },
    )
    .expect("UPDATE");
    assert!(!response.ok);
    let metrics = metrics_of(&handle);
    let update = metrics.requests.get("UPDATE").expect("UPDATE counter");
    assert_eq!(update.errors, 1);
    assert_eq!(update.ok, 0);
    handle.shutdown();
}

/// The answers an operator reads `errors` for are exactly the ones that
/// used to go uncounted: "server busy", a panicked screen, a dead worker.
/// Per screening verb, `ok + errors` must equal the responses the client
/// received.
#[test]
fn every_answered_screening_request_is_counted_exactly_once() {
    let faults = Arc::new(FaultPlan::default());
    let handle = serve(ServerOptions {
        queue_depth: 1,
        workers: 1,
        faults: Arc::clone(&faults),
        ..ServerOptions::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    for id in 0..200u64 {
        let elements = spec_for(id);
        assert!(client.send(&Request::Add { id, elements }).expect("ADD").ok);
    }

    // One burst, written in one segment: the first SCREEN panics in the
    // worker, and while it and its successor hold the worker and the one
    // queue slot, the rest of the burst finds the queue full.
    faults.arm_panic_screen();
    let verbs = [
        "SCREEN", "SCREEN", "SCREEN", "DELTA", "ADVANCE", "SCREEN", "DELTA", "SCREEN",
    ];
    let burst: String = (verbs.iter().enumerate())
        .map(|(i, verb)| match *verb {
            "ADVANCE" => format!("{{\"cmd\":\"ADVANCE\",\"dt\":1.0,\"req_id\":\"ADVANCE-{i}\"}}\n"),
            verb => format!("{{\"cmd\":\"{verb}\",\"req_id\":\"{verb}-{i}\"}}\n"),
        })
        .collect();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect raw");
    stream.write_all(burst.as_bytes()).expect("write burst");
    let mut answers: Vec<Response> = BufReader::new(&stream)
        .lines()
        .take(verbs.len())
        .map(|line| serde_json::from_str(&line.expect("response line")).expect("response"))
        .collect();
    // A worker that dies outside the panic guard answers through the
    // owed-response guard's drop.
    faults.arm_kill_worker();
    answers.push(
        client
            .send_tagged(&Request::Screen, "SCREEN-dead")
            .expect("SCREEN"),
    );

    let said = |what: &str| {
        let matching = answers
            .iter()
            .filter(|r| r.error.as_deref().is_some_and(|e| e.contains(what)));
        matching.count()
    };
    assert_eq!(said("panicked"), 1, "{answers:?}");
    assert_eq!(said("unavailable"), 1, "{answers:?}");
    assert!(
        said("server busy") >= 1,
        "the queue never filled: {answers:?}"
    );

    let metrics = metrics_of(&handle);
    for verb in ["SCREEN", "DELTA", "ADVANCE"] {
        let of_verb = |r: &&Response| r.req_id.as_deref().is_some_and(|id| id.starts_with(verb));
        let (answered, ok) = (
            answers.iter().filter(of_verb).count() as u64,
            answers.iter().filter(of_verb).filter(|r| r.ok).count() as u64,
        );
        let counted = metrics.requests.get(verb).copied().unwrap_or_default();
        assert_eq!(
            (counted.ok, counted.errors),
            (ok, answered - ok),
            "{verb}: {answers:?}"
        );
    }
    handle.shutdown();
}

/// The inline verbs, answered on the event loop, ok and refused alike:
/// per verb, `ok + errors` equals the answers received, and the METRICS
/// payload already includes the METRICS request that asked for it.
#[test]
fn every_inline_answer_is_counted_exactly_once() {
    let handle = serve(ServerOptions::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let script = [
        Request::Cancel {
            id: "no-such-job".into(),
        },
        Request::Subscribe {
            assets: vec![],
            all: true,
        },
        Request::Unsubscribe {
            sub_id: Some("no-such-sub".into()),
        },
        Request::Update {
            id: 99,
            elements: spec_for(0),
        },
        Request::Status,
    ];
    let mut answered = BTreeMap::<&str, (u64, u64)>::new();
    for req in &script {
        let response = client.send(req).expect("request");
        let counter = answered.entry(req.kind()).or_default();
        if response.ok {
            counter.0 += 1;
        } else {
            counter.1 += 1;
        }
    }
    assert_eq!(answered["CANCEL"], (0, 1), "the CANCEL misses");
    assert_eq!(answered["SUBSCRIBE"], (1, 0));
    assert_eq!(answered["UNSUBSCRIBE"], (0, 1), "the sub_id is unknown");
    assert_eq!(answered["UPDATE"], (0, 1), "the id is absent");

    let response = client.send(&Request::Metrics).expect("METRICS");
    assert!(response.ok, "{:?}", response.error);
    let metrics = response.metrics.expect("metrics payload");
    answered.insert("METRICS", (1, 0));
    let counted: BTreeMap<&str, (u64, u64)> = metrics
        .requests
        .iter()
        .map(|(verb, c)| (verb.as_str(), (c.ok, c.errors)))
        .collect();
    assert_eq!(counted, answered);
    handle.shutdown();
}

/// `Server::preload` seeds the catalog through the request path, and its
/// ADDs are counted like ones that came over the wire.
#[test]
fn preloaded_adds_are_counted() {
    let k = 7;
    let population: Vec<_> = (0..k)
        .map(|id| spec_for(id).into_elements().expect("valid elements"))
        .collect();
    let server =
        Server::bind_with("127.0.0.1:0", config(), ServerOptions::default()).expect("bind server");
    assert_eq!(server.preload(&population).expect("preload"), k as usize);
    let handle = server.spawn().expect("spawn server thread");
    let add = metrics_of(&handle).requests["ADD"];
    assert_eq!((add.ok, add.errors), (k, 0));
    handle.shutdown();
}

/// The snapshot a restart writes to fold a replayed WAL tail in is a
/// checkpoint like any other, and METRICS reports it before anything
/// else is written.
#[test]
fn the_post_replay_checkpoint_is_reported() {
    let dir = temp_dir("replay");
    let options = || ServerOptions {
        persist: Some(PersistOptions {
            dir: dir.clone(),
            snapshot_every: 1_000,
            shards: None,
        }),
        ..ServerOptions::default()
    };
    let handle = serve(options());
    let mut client = Client::connect(handle.addr()).expect("connect");
    for id in 0..5u64 {
        let elements = spec_for(id);
        assert!(client.send(&Request::Add { id, elements }).expect("ADD").ok);
    }
    drop(client);
    handle.shutdown();

    let server = Server::bind_with("127.0.0.1:0", config(), options()).expect("restart");
    let replayed = server.recovery().expect("durable daemon").replayed;
    assert_eq!(replayed, 5, "the adds were left in the WAL tail");
    let handle = server.spawn().expect("spawn server thread");
    let metrics = metrics_of(&handle);
    let written = metrics.snapshot_write_ms.expect("snapshot write digest");
    let bytes = metrics.snapshot_bytes.expect("snapshot size digest");
    assert_eq!((written.count, bytes.count), (1, 1));
    assert!(bytes.min > 0.0, "snapshots are never empty");
    assert!(metrics.wal_fsync_ms.is_none(), "the replay appends nothing");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The screens a restart replays from the WAL tail ran in the restarted
/// process, so its METRICS reports them like screens served live.
#[test]
fn replayed_screens_are_reported() {
    let dir = temp_dir("replayed-screens");
    let options = || ServerOptions {
        persist: Some(PersistOptions {
            dir: dir.clone(),
            snapshot_every: 1_000,
            shards: None,
        }),
        ..ServerOptions::default()
    };
    let handle = serve(options());
    let mut client = Client::connect(handle.addr()).expect("connect");
    for id in 0..6u64 {
        let elements = spec_for(id);
        assert!(client.send(&Request::Add { id, elements }).expect("ADD").ok);
    }
    assert!(client.send(&Request::Screen).expect("SCREEN").ok);
    let elements = spec_for(9);
    assert!(
        client
            .send(&Request::Update { id: 2, elements })
            .expect("UPDATE")
            .ok
    );
    assert!(client.send(&Request::Delta).expect("DELTA").ok);
    drop(client);
    handle.shutdown();

    let server = Server::bind_with("127.0.0.1:0", config(), options()).expect("restart");
    let replayed = server.recovery().expect("durable daemon").replayed;
    assert_eq!(replayed, 9, "every record was left in the WAL tail");
    let handle = server.spawn().expect("spawn server thread");
    let metrics = metrics_of(&handle);
    let screens = |series: Option<kessler_core::PhaseSummaries>| series.map(|s| s.screens);
    assert_eq!(
        screens(metrics.full_screens),
        Some(1),
        "the replayed SCREEN"
    );
    assert_eq!(
        screens(metrics.delta_screens),
        Some(1),
        "the replayed DELTA"
    );
    assert!(
        !metrics.requests.contains_key("SCREEN") && !metrics.requests.contains_key("DELTA"),
        "a replayed record is not an answered request"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
