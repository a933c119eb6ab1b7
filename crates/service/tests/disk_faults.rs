//! Disk-chaos suite: drive the daemon against a failing disk and prove
//! there is no silent divergence. Every acknowledged mutation survives a
//! kill → restart; every failed one is rejected with `not_applied` and
//! leaves state byte-identical to never having been sent; the daemon
//! degrades to read-only under a persistent outage and recovers on its
//! own (visible in STATUS `mode` and the METRICS resilience counters).
//!
//! The oracle throughout is a control daemon: an uninterrupted in-memory
//! server driven with exactly the acknowledged script. If the chaos
//! daemon and the control ever answer STATUS or screening differently,
//! a fault leaked into the replayable history.

use kessler_core::ScreeningConfig;
use kessler_orbits::{ContourSolver, KeplerElements, PropagationConstants};
use kessler_population::fragmentation::Fragmentation;
use kessler_service::proto::{ElementsSpec, StatusInfo};
use kessler_service::MetricsSnapshot;
use kessler_service::{
    request, Client, FaultPlan, PersistOptions, Request, Response, Server, ServerHandle,
    ServerOptions, ShardSpec,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "kessler-diskchaos-{tag}-{}-{n}",
        std::process::id()
    ));
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

/// A persistent daemon with injectable storage faults and a fast probe,
/// so degraded→normal recovery happens within test timescales, under the
/// shard layout `shards` (`None`: the 1×1 one).
fn serve_chaos(
    dir: &Path,
    snapshot_every: u64,
    faults: Arc<FaultPlan>,
    shards: Option<ShardSpec>,
) -> ServerHandle {
    let options = ServerOptions {
        persist: Some(PersistOptions {
            dir: dir.to_path_buf(),
            snapshot_every,
            shards: None,
        }),
        faults,
        shards,
        probe_initial: Duration::from_millis(20),
        probe_max: Duration::from_millis(200),
        ..ServerOptions::default()
    };
    Server::bind_with("127.0.0.1:0", config(), options)
        .expect("bind chaos server")
        .spawn()
        .expect("spawn server thread")
}

fn serve_control() -> ServerHandle {
    Server::bind("127.0.0.1:0", config())
        .expect("bind control server")
        .spawn()
        .expect("spawn server thread")
}

fn drive(addr: SocketAddr, requests: &[Request]) -> Vec<Response> {
    let mut client = Client::connect(addr).expect("connect");
    requests
        .iter()
        .map(|req| {
            let response = client.send(req).expect("request");
            assert!(response.ok, "{req:?} failed: {:?}", response.error);
            response
        })
        .collect()
}

fn status_of(addr: SocketAddr) -> StatusInfo {
    request(addr, &Request::Status)
        .expect("STATUS")
        .status
        .expect("status payload")
}

fn metrics_of(addr: SocketAddr) -> MetricsSnapshot {
    request(addr, &Request::Metrics)
        .expect("METRICS")
        .metrics
        .expect("metrics payload")
}

/// The parts of STATUS that must survive faults and restarts bit-for-bit.
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

/// Poll STATUS until the daemon reports `mode`, or panic after ~10 s.
fn wait_for_mode(addr: SocketAddr, mode: &str) -> StatusInfo {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = status_of(addr);
        if status.mode == mode {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never reached mode `{mode}` (stuck at `{}`)",
            status.mode
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Time between the breakup and the ingest, s (about three orbits of the
/// parent). At the instant of breakup every fragment sits on the same
/// point, so all n·(n−1)/2 pairs are inside the threshold at every step
/// and a screen refines each of them 120 times over — minutes of Brent
/// searches in the debug profile that exercise nothing this suite is
/// about. Three orbits on, the differing periods have strung the cloud out
/// along the parent's track: a couple of pairs still meet inside the
/// window, which is all the compared sets need.
const CLOUD_AGE_S: f64 = 18_000.0;

/// A fragmentation-cascade-sized ingest load: debris cloud from a breakup
/// in a congested LEO shell, catalogued [`CLOUD_AGE_S`] later,
/// deterministic via the seed.
fn debris_cloud(fragments: usize) -> Vec<ElementsSpec> {
    let parent = KeplerElements::new(7_178.0, 0.0005, 1.05, 0.7, 1.3, 2.0).expect("parent orbit");
    let state =
        PropagationConstants::from_elements(&parent).propagate(0.0, &ContourSolver::default());
    Fragmentation {
        fragments,
        delta_v_sigma: 0.05,
        seed: 0xD15C,
    }
    .generate_from_state(state)
    .expect("fragment generation must not fall short")
    .iter()
    .map(|at_breakup| {
        let mut aged = *at_breakup;
        aged.mean_anomaly = at_breakup.mean_anomaly_at(CLOUD_AGE_S);
        ElementsSpec::from_elements(&aged)
    })
    .collect()
}

/// One injected WAL-append EIO: the mutation is rejected with
/// `not_applied`, the daemon degrades, the probe restores it, and a
/// kill → restart converges to a control that never saw the failed ADD.
#[test]
fn failed_append_rolls_back_and_the_daemon_self_heals() {
    let dir = temp_dir("append-eio");
    let faults = Arc::new(FaultPlan::default());
    let chaos = serve_chaos(&dir, 1_000, Arc::clone(&faults), None);
    let mut client = Client::connect(chaos.addr()).expect("connect");

    let mut acked: Vec<Request> = Vec::new();
    for id in 0..6u64 {
        let req = Request::Add {
            id,
            elements: spec_for(id),
        };
        assert!(client.send(&req).expect("ADD").ok);
        acked.push(req);
    }

    faults.arm_wal_append_eio();
    let rejected = client
        .send(&Request::Add {
            id: 6,
            elements: spec_for(6),
        })
        .expect("rejected ADD still answers");
    assert!(!rejected.ok);
    assert!(rejected.not_applied, "rejection must guarantee no apply");
    let err = rejected.error.as_deref().unwrap_or("");
    assert!(err.contains("not applied"), "{err}");
    assert!(err.contains("wal append failed"), "{err}");

    // The probe recovers on its own — no operator intervention.
    wait_for_mode(chaos.addr(), "normal");

    // The identical retry now lands: the rollback left no trace of the
    // failed attempt (a half-applied ADD would answer DuplicateId here).
    let retry = Request::Add {
        id: 6,
        elements: spec_for(6),
    };
    assert!(client.send(&retry).expect("retry ADD").ok, "retry rejected");
    acked.push(retry);

    let metrics = metrics_of(chaos.addr());
    assert!(metrics.wal_append_failures >= 1, "{metrics:?}");
    assert!(metrics.degraded_entries >= 1, "{metrics:?}");
    assert!(metrics.degraded_recoveries >= 1, "{metrics:?}");

    let pre_kill = status_of(chaos.addr());
    chaos.shutdown();

    // Restart from disk; control replays only the acknowledged script.
    let reborn = serve_chaos(&dir, 1_000, Arc::new(FaultPlan::default()), None);
    let control = serve_control();
    drive(control.addr(), &acked);

    let reborn_status = status_of(reborn.addr());
    assert_eq!(
        durable_key(&reborn_status),
        durable_key(&pre_kill),
        "restart lost or invented state"
    );
    assert_eq!(
        durable_key(&reborn_status),
        durable_key(&status_of(control.addr())),
        "restarted daemon diverged from the acked-only control"
    );

    reborn.shutdown();
    control.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sticky outage under a fragmentation-cascade ingest: mid-cloud the disk
/// dies outright. The daemon must reject every mutation (read-only),
/// keep serving STATUS/METRICS and ephemeral screens, back off and
/// re-probe, recover when the disk returns, finish the ingest, and after
/// a kill → restart be indistinguishable from an uninterrupted control.
/// Under the 1×1 layout and the default sharded one, whose screens run on
/// one grid like any other and report no shards.
#[test]
fn sticky_outage_degrades_serves_reads_and_recovers() {
    for shards in [None, Some(ShardSpec::default())] {
        sticky_outage(shards);
    }
}

fn sticky_outage(shards: Option<ShardSpec>) {
    let dir = temp_dir("sticky");
    let faults = Arc::new(FaultPlan::default());
    let chaos = serve_chaos(&dir, 25, Arc::clone(&faults), shards);
    let control = serve_control();
    let mut chaos_client = Client::connect(chaos.addr()).expect("connect chaos");
    let mut control_client = Client::connect(control.addr()).expect("connect control");

    let cloud = debris_cloud(120);
    let send_add = |client: &mut Client, id: u64, el: &ElementsSpec| {
        client
            .send(&Request::Add { id, elements: *el })
            .expect("ADD")
    };

    // First half of the cascade lands on both daemons.
    for (id, el) in cloud.iter().take(60).enumerate() {
        assert!(send_add(&mut chaos_client, id as u64, el).ok);
        assert!(send_add(&mut control_client, id as u64, el).ok);
    }

    // The disk dies. The first rejection reports the append failure …
    faults.set_wal_broken(true);
    let first = send_add(&mut chaos_client, 60, &cloud[60]);
    assert!(!first.ok && first.not_applied);
    assert!(
        first
            .error
            .as_deref()
            .unwrap_or("")
            .contains("wal append failed"),
        "{:?}",
        first.error
    );
    // … and every mutation after it is a typed degraded rejection.
    let second = send_add(&mut chaos_client, 61, &cloud[61]);
    assert!(!second.ok && second.not_applied);
    assert!(
        second
            .error
            .as_deref()
            .unwrap_or("")
            .contains("degraded (read-only)"),
        "{:?}",
        second.error
    );
    assert_eq!(status_of(chaos.addr()).mode, "degraded");

    // Reads still work: SCREEN is computed and served, but marked
    // ephemeral — it must not enter the replayable history.
    let screen = chaos_client.send(&Request::Screen).expect("SCREEN");
    assert!(screen.ok, "{:?}", screen.error);
    let summary = screen.screen.expect("screen summary");
    assert!(summary.ephemeral, "degraded screen must be ephemeral");
    assert_eq!(summary.n_satellites, 60);
    assert!(summary.shards.is_none(), "{shards:?}");

    // ADVANCE would have to mutate the catalog: rejected outright.
    let advance = chaos_client
        .send(&Request::Advance { dt: 30.0 })
        .expect("ADVANCE answers");
    assert!(!advance.ok && advance.not_applied);
    assert!(
        advance
            .error
            .as_deref()
            .unwrap_or("")
            .contains("degraded (read-only)"),
        "{:?}",
        advance.error
    );

    // The probe keeps hitting the dead disk with backoff.
    let probes_then = metrics_of(chaos.addr()).probe_failures;
    std::thread::sleep(Duration::from_millis(400));
    let probes_now = metrics_of(chaos.addr()).probe_failures;
    assert!(
        probes_now > probes_then,
        "probe stopped retrying ({probes_then} → {probes_now})"
    );

    // Disk comes back; the daemon recovers on its own.
    faults.set_wal_broken(false);
    wait_for_mode(chaos.addr(), "normal");

    // Finish the cascade on both daemons — including the two rejected
    // ids, whose rejections guaranteed nothing was applied.
    for (id, el) in cloud.iter().enumerate().skip(60) {
        let response = send_add(&mut chaos_client, id as u64, el);
        assert!(response.ok, "post-recovery ADD {id}: {:?}", response.error);
        assert!(send_add(&mut control_client, id as u64, el).ok);
    }

    // Both screen the full cloud; the adopted results must agree exactly.
    let chaos_screen = drive(chaos.addr(), &[Request::Screen])[0]
        .screen
        .clone()
        .expect("chaos SCREEN");
    let control_screen = drive(control.addr(), &[Request::Screen])[0]
        .screen
        .clone()
        .expect("control SCREEN");
    assert!(!chaos_screen.ephemeral, "post-recovery screen is durable");
    assert!(
        control_screen.conjunctions >= 1,
        "the aged cloud must still hold a conjunction to compare"
    );
    assert_eq!(chaos_screen.n_satellites, control_screen.n_satellites);
    assert_eq!(chaos_screen.conjunctions, control_screen.conjunctions);
    assert_eq!(chaos_screen.colliding_pairs, control_screen.colliding_pairs);
    assert_eq!(chaos_screen.top, control_screen.top, "warm sets diverged");

    let metrics = metrics_of(chaos.addr());
    assert!(metrics.degraded_entries >= 1);
    assert!(metrics.degraded_recoveries >= 1);
    assert!(metrics.probe_failures >= 1);

    // Kill → restart: the outage must be invisible in the recovered state.
    let pre_kill = status_of(chaos.addr());
    chaos.shutdown();
    let reborn = serve_chaos(&dir, 25, Arc::new(FaultPlan::default()), shards);
    let reborn_status = status_of(reborn.addr());
    assert_eq!(durable_key(&reborn_status), durable_key(&pre_kill));
    assert_eq!(
        durable_key(&reborn_status),
        durable_key(&status_of(control.addr())),
        "outage leaked into the replayable history"
    );
    // And the recovered warm engine still answers DELTA like the control.
    let post: Vec<Request> = vec![
        Request::Update {
            id: 7,
            elements: spec_for(200),
        },
        Request::Delta,
    ];
    let delta_reborn = drive(reborn.addr(), &post)[1]
        .screen
        .clone()
        .expect("reborn DELTA");
    let delta_control = drive(control.addr(), &post)[1]
        .screen
        .clone()
        .expect("control DELTA");
    assert_eq!(delta_reborn.conjunctions, delta_control.conjunctions);
    assert_eq!(delta_reborn.top, delta_control.top);

    reborn.shutdown();
    control.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed snapshot is not a failed mutation: the ADD stays acknowledged
/// (the WAL covers it), the failure is counted, and the *next* mutation
/// retries the snapshot and compacts the WAL.
#[test]
fn snapshot_failure_keeps_the_ack_and_retries_next_mutation() {
    let dir = temp_dir("snapfail");
    let faults = Arc::new(FaultPlan::default());
    let chaos = serve_chaos(&dir, 4, Arc::clone(&faults), None);
    let mut client = Client::connect(chaos.addr()).expect("connect");

    for id in 0..3u64 {
        assert!(
            client
                .send(&Request::Add {
                    id,
                    elements: spec_for(id),
                })
                .expect("ADD")
                .ok
        );
    }

    // The 4th mutation triggers the cadence snapshot — which fails.
    faults.arm_snapshot_write_fail();
    let response = client
        .send(&Request::Add {
            id: 3,
            elements: spec_for(3),
        })
        .expect("ADD with failing snapshot");
    assert!(response.ok, "a snapshot failure must not reject the ack");

    let metrics = metrics_of(chaos.addr());
    assert_eq!(metrics.snapshot_failures, 1, "{metrics:?}");
    assert_eq!(status_of(chaos.addr()).mode, "normal");

    // The next mutation retries and the snapshot lands, covering seq 5.
    assert!(
        client
            .send(&Request::Add {
                id: 4,
                elements: spec_for(4),
            })
            .expect("ADD retries snapshot")
            .ok
    );
    let snapshots: Vec<String> = std::fs::read_dir(&dir)
        .expect("state dir")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("manifest-") && n.ends_with(".json"))
        .collect();
    assert!(
        snapshots.iter().any(|n| n.ends_with("5.json")),
        "retried snapshot missing: {snapshots:?}"
    );

    chaos.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// ENOSPC is reported as what it is, and one freed-up disk later the
/// daemon is whole again.
#[test]
fn enospc_is_reported_and_transient() {
    let dir = temp_dir("enospc");
    let faults = Arc::new(FaultPlan::default());
    let chaos = serve_chaos(&dir, 1_000, Arc::clone(&faults), None);
    let mut client = Client::connect(chaos.addr()).expect("connect");
    assert!(
        client
            .send(&Request::Add {
                id: 0,
                elements: spec_for(0),
            })
            .expect("ADD")
            .ok
    );

    faults.arm_wal_append_enospc();
    let rejected = client
        .send(&Request::Add {
            id: 1,
            elements: spec_for(1),
        })
        .expect("rejected ADD answers");
    assert!(!rejected.ok && rejected.not_applied);
    assert!(
        rejected
            .error
            .as_deref()
            .unwrap_or("")
            .contains("os error 28"),
        "ENOSPC errno lost: {:?}",
        rejected.error
    );

    wait_for_mode(chaos.addr(), "normal");
    assert!(
        client
            .send(&Request::Add {
                id: 1,
                elements: spec_for(1),
            })
            .expect("retry ADD")
            .ok
    );
    assert_eq!(status_of(chaos.addr()).n_satellites, 2);
    chaos.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An fsync failure after the bytes were written must not leave a
/// phantom record: the daemon truncates the un-synced bytes, and a
/// kill → restart matches a control that never saw the failed mutation.
#[test]
fn fsync_failure_leaves_no_phantom_record_across_restart() {
    let dir = temp_dir("fsync");
    let faults = Arc::new(FaultPlan::default());
    let chaos = serve_chaos(&dir, 1_000, Arc::clone(&faults), None);
    let mut client = Client::connect(chaos.addr()).expect("connect");

    let acked: Vec<Request> = (0..5u64)
        .map(|id| Request::Add {
            id,
            elements: spec_for(id),
        })
        .collect();
    for req in &acked {
        assert!(client.send(req).expect("ADD").ok);
    }

    faults.arm_wal_fsync_fail();
    let rejected = client
        .send(&Request::Add {
            id: 5,
            elements: spec_for(5),
        })
        .expect("rejected ADD answers");
    assert!(!rejected.ok && rejected.not_applied, "{rejected:?}");

    // Kill immediately — recovery may or may not have run; either way the
    // failed record's bytes must not replay.
    chaos.shutdown();
    let reborn = serve_chaos(&dir, 1_000, Arc::new(FaultPlan::default()), None);
    let control = serve_control();
    drive(control.addr(), &acked);
    assert_eq!(
        durable_key(&status_of(reborn.addr())),
        durable_key(&status_of(control.addr())),
        "fsync residue replayed as a phantom mutation"
    );

    // The id the failed ADD would have used is genuinely free.
    let readd = drive(
        reborn.addr(),
        &[Request::Add {
            id: 5,
            elements: spec_for(5),
        }],
    );
    assert!(readd[0].ok);
    assert_eq!(status_of(reborn.addr()).n_satellites, 6);

    reborn.shutdown();
    control.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
