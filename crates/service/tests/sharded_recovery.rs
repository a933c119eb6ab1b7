//! Crash-recovery end-to-end tests for sharded layouts: a daemon writing
//! incremental per-shard snapshots must restart into exactly the state an
//! uninterrupted daemon holds, fall back to the previous recovery point
//! when its newest shard chunk is corrupt, and read — and still write, byte
//! for byte — the flat and sharded directories earlier commits' binaries
//! left behind.

mod common;

use kessler_core::ScreeningConfig;
use kessler_service::proto::{ElementsSpec, StatusInfo};
use kessler_service::{
    request, PersistOptions, Request, Response, Server, ServerHandle, ServerOptions, ShardSpec,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("kessler-sharded-{tag}-{}-{n}", std::process::id()));
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

fn serve(dir: &Path, shards: Option<ShardSpec>, snapshot_every: u64) -> ServerHandle {
    let options = ServerOptions {
        persist: Some(PersistOptions {
            dir: dir.to_path_buf(),
            snapshot_every,
            shards: None,
        }),
        shards,
        ..ServerOptions::default()
    };
    Server::bind_with("127.0.0.1:0", config(), options)
        .expect("bind persistent server")
        .spawn()
        .expect("spawn server thread")
}

fn serve_ephemeral(shards: Option<ShardSpec>) -> ServerHandle {
    let options = ServerOptions {
        shards,
        ..ServerOptions::default()
    };
    Server::bind_with("127.0.0.1:0", config(), options)
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

/// Names of the files in a state directory, sorted.
fn file_names(dir: &Path) -> Vec<String> {
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

/// The parts of STATUS that must survive a restart bit-for-bit.
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

/// A mutation script touching several shards: adds across altitude bands
/// and inclination shells, a full screen, updates, a delta, a window
/// slide, and trailing un-screened adds.
fn script() -> Vec<Request> {
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
    script
}

/// STATUS must match the pre-crash daemon and an uninterrupted control,
/// and a post-restart UPDATE + DELTA must agree with the control — the
/// warm engine carried over through manifest + chunk materialization.
fn assert_restart_matches(
    dir: &Path,
    shards: Option<ShardSpec>,
    final_a: &StatusInfo,
    script: &[Request],
) {
    let daemon_b = serve(dir, shards, 4);
    let daemon_c = serve_ephemeral(shards);
    drive(daemon_c.addr(), script);

    let status_b = status_of(daemon_b.addr());
    let status_c = status_of(daemon_c.addr());
    assert_eq!(
        durable_key(&status_b),
        durable_key(final_a),
        "restarted daemon differs from its pre-crash state"
    );
    assert_eq!(
        durable_key(&status_b),
        durable_key(&status_c),
        "restarted daemon differs from an uninterrupted control"
    );
    assert!(status_b.recovered, "daemon B restored from disk");

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
}

#[test]
fn sharded_restart_resumes_warm_and_matches_uninterrupted() {
    let dir = temp_dir("restart");
    let shards = Some(ShardSpec::default());

    let daemon_a = serve(&dir, shards, 4);
    drive(daemon_a.addr(), &script());
    let final_a = status_of(daemon_a.addr());
    daemon_a.shutdown();

    // The sharded layout actually landed on disk: a manifest plus
    // per-shard chunk files, no legacy v1 snapshots.
    let names = file_names(&dir);
    assert!(
        names.iter().any(|n| n.starts_with("manifest-")),
        "no manifest written: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("shard-")),
        "no shard chunks written: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.starts_with("snapshot-")),
        "sharded daemon wrote a v1 snapshot: {names:?}"
    );

    assert_restart_matches(&dir, shards, &final_a, &script());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_chunk_falls_back_to_previous_point() {
    let dir = temp_dir("corrupt");
    let shards = Some(ShardSpec::default());

    let daemon_a = serve(&dir, shards, 4);
    drive(daemon_a.addr(), &script());
    let final_a = status_of(daemon_a.addr());
    daemon_a.shutdown();

    // Vandalize the newest shard chunk (highest sequence number in the
    // filename). The newest manifest references it, so that recovery
    // point is now unusable; the daemon must fall back to the previous
    // point and re-derive the same state from the longer WAL tail.
    let mut chunks: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("state dir")
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-"))
        })
        .collect();
    chunks.sort();
    let newest = chunks.last().expect("at least one chunk");
    let mut bytes = std::fs::read(newest).expect("read chunk");
    assert!(bytes.len() > 32, "chunk implausibly small");
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 8] {
        *b ^= 0x5a;
    }
    std::fs::write(newest, &bytes).expect("vandalize chunk");

    assert_restart_matches(&dir, shards, &final_a, &script());
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the daemons that wrote the golden fixtures were driven with: two
/// crossing satellites (ids 100, 101 — the one live conjunction) followed
/// by [`script`].
fn golden_script() -> Vec<Request> {
    let crossing = |id: u64, incl: f64, mean_anomaly: f64| Request::Add {
        id,
        elements: ElementsSpec {
            a: 7_000.0,
            e: 0.001,
            incl,
            raan: 0.3,
            argp: 0.1,
            mean_anomaly,
        },
    };
    let mut golden_script = vec![crossing(100, 0.5, 6.1185), crossing(101, 1.3, 6.1187)];
    golden_script.extend(script());
    golden_script
}

/// The golden directories and the layout each was written (and is served)
/// under.
fn golden_fixtures() -> [(&'static str, Option<ShardSpec>); 2] {
    let two_by_two = ShardSpec {
        alt_bands: 2,
        z_shells: 2,
    };
    [("parent_flat", None), ("parent_sharded", Some(two_by_two))]
}

/// Formats are a contract with the directories already on disk. The two
/// fixture directories under `tests/fixtures/` were written by a `kessler
/// serve --threshold 5 --span 120 --snapshot-every 7` binary of an earlier
/// commit — `parent_flat` (no `--shards`: one-chunk manifests) by f4e3320,
/// `parent_sharded` (`--shards 2x2`) by a695b38 — that answered one STATUS
/// and was then driven over the wire with [`golden_script`];
/// `<name>.status.json` is that daemon's last STATUS response. Each holds
/// snapshots at WAL seq 21 and 28 and a four-record tail (DELTA, ADVANCE,
/// ADD, ADD). Today's daemon must recover them to that STATUS and to the
/// state of a control that ran the same script uninterrupted. A deliberate
/// format change regenerates the fixtures with the last binary that wrote
/// the old format — it does not edit them, and no test serves them in
/// place (CI diffs the fixture tree after the suite).
#[test]
fn directories_written_by_an_earlier_commit_recover_unchanged() {
    for (name, shards) in golden_fixtures() {
        // Recovery writes into the directory, so work on a copy.
        let dir = temp_dir(name);
        common::copy_fixture(name, &dir);
        let final_a = common::fixture_status(name);
        assert_eq!(
            final_a.live_conjunctions, 1,
            "{name}: fixture lost its pair"
        );
        // The tail's DELTA ran warm; a restore that came back cold would
        // replay it as a second full screen and fail the comparison below.
        assert_eq!((final_a.full_screens, final_a.delta_screens), (1, 1));

        assert_restart_matches(&dir, shards, &final_a, &golden_script());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The body of the frame file `path`, without the one part of a manifest
/// that is wall-clock: the `last_screen.timings` object.
fn frame_body_without_timings(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("read frame file");
    let (_, mut body) = kessler_service::wal::decode_frame(text.trim_end()).expect("frame");
    if let Some(start) = body.find("\"timings\":{") {
        let end = start + body[start..].find('}').expect("timings object closes");
        body.replace_range(start..=end, "");
    }
    body
}

/// And the contract holds in the other direction: a fresh daemon of this
/// build, started under a fixture's flags and driven the way its writer
/// was, leaves the same files — every chunk byte for byte, every manifest
/// key for key and value for value outside the screen timings.
#[test]
fn a_fresh_daemon_writes_the_bytes_the_fixtures_hold() {
    for (name, shards) in golden_fixtures() {
        let dir = temp_dir(&format!("pin-{name}"));
        let daemon = serve(&dir, shards, 7);
        status_of(daemon.addr());
        drive(daemon.addr(), &golden_script());
        daemon.shutdown();

        let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name);
        assert_eq!(
            file_names(&dir),
            file_names(&golden),
            "{name}: different files kept"
        );
        for file in file_names(&golden) {
            let (ours, theirs) = (dir.join(&file), golden.join(&file));
            if file.starts_with("manifest-") {
                assert_eq!(
                    frame_body_without_timings(&ours),
                    frame_body_without_timings(&theirs),
                    "{name}/{file}"
                );
            } else {
                let read = |path: &Path| std::fs::read(path).expect("read state file");
                assert!(read(&ours) == read(&theirs), "{name}/{file} differs");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
