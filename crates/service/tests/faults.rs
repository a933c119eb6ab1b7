//! Fault-injection suite: the daemon must degrade gracefully — error
//! responses, respawns, snapshot fallbacks — never crash or corrupt state.
//!
//! Process-internal faults (screening panics, worker death, torn WAL
//! appends) are injected deterministically through [`FaultPlan`]; on-disk
//! faults (corrupt snapshots, garbage bytes) are inflicted directly on the
//! state directory between daemon runs.

use kessler_core::ScreeningConfig;
use kessler_service::proto::ElementsSpec;
use kessler_service::{
    request, Client, FaultPlan, PersistOptions, Request, Server, ServerHandle, ServerOptions,
    MAX_LINE_BYTES,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("kessler-faults-{tag}-{}-{n}", std::process::id()));
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

fn populate(client: &mut Client, n: u64) {
    for id in 0..n {
        let response = client
            .send(&Request::Add {
                id,
                elements: spec_for(id),
            })
            .expect("ADD");
        assert!(response.ok, "ADD {id}: {:?}", response.error);
    }
}

#[test]
fn screening_panic_answers_error_and_the_worker_survives() {
    let faults = Arc::new(FaultPlan::default());
    let handle = serve(ServerOptions {
        faults: Arc::clone(&faults),
        ..ServerOptions::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    populate(&mut client, 8);

    faults.arm_panic_screen();
    let response = client.send(&Request::Screen).expect("SCREEN survives");
    assert!(!response.ok);
    assert!(
        response.error.as_deref().unwrap_or("").contains("panicked"),
        "{:?}",
        response.error
    );

    // Same connection, same worker: the next screen succeeds.
    let response = client.send(&Request::Screen).expect("SCREEN after panic");
    assert!(response.ok, "{:?}", response.error);
    assert_eq!(response.screen.unwrap().n_satellites, 8);
    handle.shutdown();
}

#[test]
fn a_killed_worker_restarts_its_loop_in_place() {
    let faults = Arc::new(FaultPlan::default());
    let handle = serve(ServerOptions {
        faults: Arc::clone(&faults),
        ..ServerOptions::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    populate(&mut client, 8);

    // This panic fires *outside* the catch_unwind guard: the worker thread
    // dies, the in-flight request gets an "unavailable" error...
    faults.arm_kill_worker();
    let response = client.send(&Request::Screen).expect("SCREEN survives");
    assert!(!response.ok);
    assert!(
        response
            .error
            .as_deref()
            .unwrap_or("")
            .contains("unavailable"),
        "{:?}",
        response.error
    );

    // ...and the worker thread restarts its loop and serves the next one.
    let response = client.send(&Request::Screen).expect("SCREEN after respawn");
    assert!(response.ok, "{:?}", response.error);
    assert_eq!(response.screen.unwrap().n_satellites, 8);

    // The respawn is visible in METRICS.
    let response = request(handle.addr(), &Request::Metrics).expect("METRICS");
    assert!(response.ok, "{:?}", response.error);
    let metrics = response.metrics.expect("metrics payload");
    assert!(
        metrics.worker_respawns >= 1,
        "worker restart not counted: {}",
        metrics.worker_respawns
    );
    handle.shutdown();
}

fn newest_manifest(dir: &Path) -> PathBuf {
    let mut manifests: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("state dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("manifest-") && n.ends_with(".json"))
        })
        .collect();
    manifests.sort();
    manifests.pop().expect("at least one manifest")
}

#[test]
fn corrupt_newest_snapshot_falls_back_to_the_previous_one() {
    let dir = temp_dir("snapfall");
    let options = || ServerOptions {
        persist: Some(PersistOptions {
            dir: dir.clone(),
            snapshot_every: 1,
            shards: None,
        }),
        ..ServerOptions::default()
    };

    let handle = serve(options());
    let mut client = Client::connect(handle.addr()).expect("connect");
    populate(&mut client, 5);
    let status = request(handle.addr(), &Request::Status)
        .unwrap()
        .status
        .unwrap();
    handle.shutdown();

    // Vandalise the newest snapshot's manifest; the one before it plus the
    // WAL must carry the daemon to the exact same state.
    std::fs::write(newest_manifest(&dir), b"garbage, not a manifest").expect("corrupt snapshot");

    let handle = serve(options());
    let recovered = request(handle.addr(), &Request::Status)
        .unwrap()
        .status
        .unwrap();
    assert_eq!(recovered.n_satellites, status.n_satellites);
    assert_eq!(recovered.epoch, status.epoch);
    assert_eq!(recovered.pending_changes, status.pending_changes);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_append_loses_only_the_unsynced_record() {
    let dir = temp_dir("tornwal");
    let faults = Arc::new(FaultPlan::default());
    let options = |faults: Arc<FaultPlan>| ServerOptions {
        persist: Some(PersistOptions {
            dir: dir.clone(),
            snapshot_every: 1_000_000,
            shards: None,
        }),
        faults,
        ..ServerOptions::default()
    };

    let handle = serve(options(Arc::clone(&faults)));
    let mut client = Client::connect(handle.addr()).expect("connect");
    populate(&mut client, 3);
    // The fourth ADD is acknowledged, but its WAL record is torn on disk —
    // exactly what a crash between write() and the end of the record does.
    faults.arm_torn_wal();
    let response = client
        .send(&Request::Add {
            id: 3,
            elements: spec_for(3),
        })
        .expect("ADD");
    assert!(response.ok);
    assert_eq!(response.catalog.unwrap().n_satellites, 4);
    handle.shutdown();

    // Restart: the torn record is dropped, everything before it survives.
    let handle = serve(options(FaultPlan::inert()));
    let status = request(handle.addr(), &Request::Status)
        .unwrap()
        .status
        .unwrap();
    assert_eq!(status.n_satellites, 3, "torn record must not replay");
    // The daemon is fully operational: re-adding the lost satellite works.
    let response = request(
        handle.addr(),
        &Request::Add {
            id: 3,
            elements: spec_for(3),
        },
    )
    .unwrap();
    assert!(response.ok, "{:?}", response.error);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_and_oversized_lines_get_errors_without_collateral() {
    let handle = serve(ServerOptions::default());
    let mut bystander = Client::connect(handle.addr()).expect("connect bystander");
    populate(&mut bystander, 2);

    // Garbage: error response, connection stays up.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let response = client
        .send_line("complete garbage {{{")
        .expect("garbage line");
    assert!(!response.ok);
    assert!(response.error.unwrap().starts_with("bad request"));

    // Oversized: raw socket, a line of x's 64 KiB over the protocol cap.
    // The server drains the line, answers with an error, and the
    // connection still serves valid requests afterwards, up to a line
    // just under the cap.
    let mut raw = TcpStream::connect(handle.addr()).expect("raw connect");
    let mut big = vec![b'x'; MAX_LINE_BYTES + 64 * 1024];
    big.push(b'\n');
    raw.write_all(&big).expect("oversized write");
    raw.flush().unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("oversized reply");
    assert!(
        reply.contains(&format!("exceeds the {MAX_LINE_BYTES}-byte cap")),
        "{reply}"
    );
    raw.write_all(b"{\"cmd\":\"STATUS\"}\n").expect("follow-up");
    raw.flush().unwrap();
    reply.clear();
    reader.read_line(&mut reply).expect("follow-up reply");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let mut under = b"{\"cmd\":\"STATUS\"}".to_vec();
    under.resize(MAX_LINE_BYTES - 1, b' ');
    under.push(b'\n');
    raw.write_all(&under).expect("line just under the cap");
    raw.flush().unwrap();
    reply.clear();
    reader.read_line(&mut reply).expect("reply under the cap");
    assert!(reply.contains("\"ok\":true"), "{reply}");

    // The bystander connection never noticed.
    let response = bystander.send(&Request::Status).expect("bystander STATUS");
    assert!(response.ok);
    assert_eq!(response.status.unwrap().n_satellites, 2);
    handle.shutdown();
}

#[test]
fn half_closed_client_still_gets_its_response() {
    let handle = serve(ServerOptions::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(b"{\"cmd\":\"STATUS\"}\n").expect("write");
    stream.flush().unwrap();
    // Close our write half: the server sees EOF after the request but must
    // still answer on the intact read half.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("reply");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    handle.shutdown();
}
