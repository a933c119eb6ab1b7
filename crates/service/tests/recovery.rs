//! Crash-recovery end-to-end tests: a daemon killed and restarted from
//! its state directory must answer STATUS and DELTA exactly like a daemon
//! that never died. Both rest on the delta-correctness invariant — WAL
//! replay re-drives the same requests through the same deterministic
//! request path.

use kessler_core::ScreeningConfig;
use kessler_service::proto::{ElementsSpec, StatusInfo};
use kessler_service::{
    request, PersistOptions, Request, Response, Server, ServerHandle, ServerOptions,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("kessler-recovery-{tag}-{}-{n}", std::process::id()));
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

fn bind_persistent(dir: &Path, snapshot_every: u64) -> Server {
    let options = ServerOptions {
        persist: Some(PersistOptions {
            dir: dir.to_path_buf(),
            snapshot_every,
            shards: None,
        }),
        ..ServerOptions::default()
    };
    Server::bind_with("127.0.0.1:0", config(), options).expect("bind persistent server")
}

fn serve_persistent(dir: &Path, snapshot_every: u64) -> ServerHandle {
    bind_persistent(dir, snapshot_every)
        .spawn()
        .expect("spawn server thread")
}

fn serve_ephemeral() -> ServerHandle {
    Server::bind("127.0.0.1:0", config())
        .expect("bind ephemeral server")
        .spawn()
        .expect("spawn server thread")
}

fn drive(addr: SocketAddr, requests: &[Request]) -> Vec<Response> {
    let mut client = kessler_service::Client::connect(addr).expect("connect");
    requests
        .iter()
        .map(|req| {
            let response = client.send(req).expect("request");
            assert!(response.ok, "{req:?} failed: {:?}", response.error);
            response
        })
        .collect()
}

/// File names in a state directory, sorted.
fn names_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("state dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn status_of(addr: SocketAddr) -> StatusInfo {
    request(addr, &Request::Status)
        .expect("STATUS")
        .status
        .expect("status payload")
}

/// The parts of STATUS that must survive a restart bit-for-bit. Wall-clock
/// fields (uptime, timings) and the request counter are process-local.
fn durable_key(s: &StatusInfo) -> (usize, u64, usize, usize, u64, u64, (f64, f64)) {
    (
        s.n_satellites,
        s.epoch,
        s.pending_changes,
        s.live_conjunctions,
        s.full_screens,
        s.delta_screens,
        s.window,
    )
}

#[test]
fn restart_resumes_warm_and_matches_uninterrupted() {
    let dir = temp_dir("restart");

    // A script exercising every mutation: populate, screen, update, delta,
    // slide the window, add more (leaving pending changes un-screened).
    let mut script: Vec<Request> = (0..24u64)
        .map(|id| Request::Add {
            id,
            elements: spec_for(id),
        })
        .collect();
    script.push(Request::Screen);
    script.push(Request::Update {
        id: 3,
        elements: spec_for(40),
    });
    script.push(Request::Delta);
    script.push(Request::Advance { dt: 30.0 });
    script.push(Request::Add {
        id: 24,
        elements: spec_for(24),
    });
    script.push(Request::Add {
        id: 25,
        elements: spec_for(25),
    });

    // Daemon A: run the script with snapshots every 4 mutations, then die
    // (shutdown without any special flushing — every ack is already
    // durable).
    let daemon_a = serve_persistent(&dir, 4);
    drive(daemon_a.addr(), &script);
    let final_a = status_of(daemon_a.addr());
    daemon_a.shutdown();

    // Flat is the 1×1 layout, not a format of its own: the directory
    // holds manifests and single-shard chunks, and no legacy v1 snapshot.
    let names = names_in(&dir);
    assert!(
        names.iter().any(|n| n.starts_with("manifest-")),
        "no manifest written: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("shard-")),
        "no chunk written: {names:?}"
    );
    assert!(
        names
            .iter()
            .filter(|n| n.starts_with("shard-"))
            .all(|n| n.ends_with("-0000.json")),
        "a flat daemon has one shard: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.starts_with("snapshot-")),
        "flat daemon wrote a v1 snapshot: {names:?}"
    );

    // Daemon B: restart from the state directory. No script — everything
    // must come back from snapshot + WAL replay.
    let daemon_b = serve_persistent(&dir, 4);
    // Daemon C: a control that never died, driven with the identical
    // script on a fresh in-memory server.
    let daemon_c = serve_ephemeral();
    drive(daemon_c.addr(), &script);

    let status_b = status_of(daemon_b.addr());
    let status_c = status_of(daemon_c.addr());
    assert_eq!(
        durable_key(&status_b),
        durable_key(&final_a),
        "restarted daemon differs from its pre-crash state"
    );
    assert_eq!(
        durable_key(&status_b),
        durable_key(&status_c),
        "restarted daemon differs from an uninterrupted control"
    );
    // STATUS is honest about recovery, and the request counter picks up
    // from the persisted count instead of restarting at the replay size
    // (the script alone was 30 requests; a fresh counter would be far
    // below that at this point).
    assert!(status_b.recovered, "daemon B restored from disk");
    assert!(!final_a.recovered, "daemon A started fresh");
    assert!(!status_c.recovered, "daemon C started fresh");
    assert!(
        status_b.requests_served >= 30,
        "request counter reset on recovery: {}",
        status_b.requests_served
    );
    // The warm engine carried over: the same UPDATE + DELTA on both
    // daemons produces identical summaries, including the top set.
    let post: Vec<Request> = vec![
        Request::Update {
            id: 5,
            elements: spec_for(41),
        },
        Request::Delta,
    ];
    let from_b = drive(daemon_b.addr(), &post);
    let from_c = drive(daemon_c.addr(), &post);
    let delta_b = from_b[1].screen.as_ref().expect("DELTA summary");
    let delta_c = from_c[1].screen.as_ref().expect("DELTA summary");
    assert_eq!(delta_b.n_satellites, delta_c.n_satellites);
    assert_eq!(delta_b.conjunctions, delta_c.conjunctions);
    assert_eq!(delta_b.colliding_pairs, delta_c.colliding_pairs);
    assert_eq!(delta_b.top, delta_c.top, "warm sets diverged");

    daemon_b.shutdown();
    daemon_c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_wal_tail_is_tolerated() {
    let dir = temp_dir("truncate");

    // No snapshots (huge cadence): state lives entirely in the WAL.
    let script: Vec<Request> = (0..6u64)
        .map(|id| Request::Add {
            id,
            elements: spec_for(id),
        })
        .collect();
    let daemon_a = serve_persistent(&dir, 1_000_000);
    drive(daemon_a.addr(), &script);
    let screened = drive(daemon_a.addr(), &[Request::Screen]);
    assert!(screened[0].screen.is_some());
    daemon_a.shutdown();

    // Simulate a crash mid-write: chop bytes off the WAL tail, damaging
    // the final record (the SCREEN) but nothing before it.
    let wal = dir.join("wal.log");
    let len = std::fs::metadata(&wal).expect("wal exists").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("open wal");
    file.set_len(len - 20).expect("truncate wal");
    drop(file);

    // Restart: the six ADDs recover, the torn SCREEN is dropped.
    let daemon_b = serve_persistent(&dir, 1_000_000);
    // Control: the same six ADDs, never screened.
    let daemon_c = serve_ephemeral();
    drive(daemon_c.addr(), &script);

    let status_b = status_of(daemon_b.addr());
    let status_c = status_of(daemon_c.addr());
    assert_eq!(durable_key(&status_b), durable_key(&status_c));
    assert_eq!(status_b.n_satellites, 6);
    assert_eq!(status_b.full_screens, 0, "torn SCREEN must not replay");
    assert_eq!(status_b.pending_changes, 6);

    // Screening both from here still agrees.
    let screen_b = drive(daemon_b.addr(), &[Request::Screen])[0]
        .screen
        .clone()
        .expect("SCREEN summary");
    let screen_c = drive(daemon_c.addr(), &[Request::Screen])[0]
        .screen
        .clone()
        .expect("SCREEN summary");
    assert_eq!(screen_b.conjunctions, screen_c.conjunctions);
    assert_eq!(screen_b.top, screen_c.top);

    daemon_b.shutdown();
    daemon_c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_after_restart_is_stable() {
    // Two consecutive restarts (snapshot + compaction after the first
    // replay) must not drift: a third daemon sees the same state.
    let dir = temp_dir("twice");
    let script: Vec<Request> = (0..9u64)
        .map(|id| Request::Add {
            id,
            elements: spec_for(id),
        })
        .chain([Request::Screen])
        .collect();

    let daemon = serve_persistent(&dir, 4);
    drive(daemon.addr(), &script);
    let first = status_of(daemon.addr());
    daemon.shutdown();

    let daemon = serve_persistent(&dir, 4);
    let second = status_of(daemon.addr());
    daemon.shutdown();

    let daemon = serve_persistent(&dir, 4);
    let third = status_of(daemon.addr());
    daemon.shutdown();

    assert_eq!(durable_key(&first), durable_key(&second));
    assert_eq!(durable_key(&second), durable_key(&third));
    assert!(!first.recovered);
    assert!(second.recovered && third.recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpoint_of_screen_commits_alone_rewrites_no_chunk() {
    // The dirty set is tracked under every layout, so a flat daemon whose
    // records since the last snapshot are all SCREEN / DELTA commits —
    // which change the warm set, never the catalog — writes a
    // manifest-only point that references the chunk it already has, and
    // recovers from it.
    let dir = temp_dir("manifest-only");
    let adds: Vec<Request> = (0..4u64)
        .map(|id| Request::Add {
            id,
            elements: spec_for(id),
        })
        .collect();
    let screens = [
        Request::Screen,
        Request::Delta,
        Request::Screen,
        Request::Delta,
    ];

    let daemon = serve_persistent(&dir, 4);
    drive(daemon.addr(), &adds);
    let manifest_at = |seq: u64| format!("manifest-{seq:020}.json");
    let chunk_at = |seq: u64| format!("shard-{seq:020}-0000.json");
    assert_eq!(
        names_in(&dir),
        vec![manifest_at(4), chunk_at(4), "wal.log".to_string()]
    );
    drive(daemon.addr(), &screens);
    assert_eq!(
        names_in(&dir),
        vec![
            manifest_at(4),
            manifest_at(8),
            chunk_at(4),
            "wal.log".to_string()
        ],
        "the seq-8 point must reuse the seq-4 chunk"
    );
    let before = status_of(daemon.addr());
    daemon.shutdown();

    let server = bind_persistent(&dir, 4);
    let recovery = server.recovery().expect("persistent daemon").clone();
    assert_eq!(recovery.snapshot_seq, Some(8), "manifest-only point used");
    assert_eq!((recovery.replayed, recovery.corrupt_snapshots), (0, 0));
    let daemon = server.spawn().expect("spawn server thread");
    let after = status_of(daemon.addr());
    assert_eq!(durable_key(&after), durable_key(&before));
    assert_eq!(after.full_screens, 2);
    assert_eq!(after.n_satellites, 4);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_advance_past_finite_time_is_refused_and_recovery_stays_clean() {
    // Two ADVANCEs of 1e308 s: the first keeps catalog time finite, the
    // second would make it +inf (and every mean anomaly NaN, and the
    // window a `null` on the wire and in every later snapshot).
    let dir = temp_dir("overflow");
    let adds: Vec<Request> = (0..4u64)
        .map(|id| Request::Add {
            id,
            elements: spec_for(id),
        })
        .chain([Request::Screen])
        .collect();
    let huge = Request::Advance { dt: 1e308 };

    let daemon = serve_persistent(&dir, 2);
    drive(daemon.addr(), &adds);
    drive(daemon.addr(), std::slice::from_ref(&huge));
    let refused = request(daemon.addr(), &huge).expect("ADVANCE answers");
    assert!(!refused.ok, "an overflowing ADVANCE must be refused");
    assert!(
        refused
            .error
            .as_deref()
            .unwrap_or_default()
            .contains("finite"),
        "{:?}",
        refused.error
    );
    // Later mutations checkpoint a state that still decodes.
    drive(
        daemon.addr(),
        &[
            Request::Add {
                id: 4,
                elements: spec_for(4),
            },
            Request::Delta,
        ],
    );
    let live = status_of(daemon.addr());
    assert!(live.window.0.is_finite() && live.window.1.is_finite());
    daemon.shutdown();

    let server = bind_persistent(&dir, 2);
    let recovery = server.recovery().expect("persistent daemon").clone();
    assert_eq!(recovery.corrupt_snapshots, 0, "{recovery:?}");
    let daemon = server.spawn().expect("spawn server thread");
    assert_eq!(durable_key(&status_of(daemon.addr())), durable_key(&live));
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
