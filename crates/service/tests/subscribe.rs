//! SUBSCRIBE push-stream integration tests. The oracle is a control
//! daemon polled over plain request/response: the subscriber must
//! receive exactly the `new`/`updated`/`retired` set obtained by diffing
//! the control daemon's maintained pair set across two committed
//! screens. A second suite proves degraded-mode screens still push,
//! tagged `ephemeral`.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kessler_core::ScreeningConfig;
use kessler_service::proto::{ElementsSpec, ScreenSummary};
use kessler_service::{
    request, Client, EventKind, FaultPlan, PersistOptions, PushEvent, Request, Response, Server,
    ServerHandle, ServerOptions, PUSH_CONJUNCTION,
};

/// Closest-approach summary of one maintained pair, as the push layer
/// reports it: representative (minimum-PCA) conjunction + event count.
type PairInfo = (f64, f64, usize);

/// Long sampling interval so each crossing pair yields at most two
/// conjunction events (`total_steps == 2`) and `top` can never truncate:
/// the tests below require `top` to be the *complete* conjunction list
/// so it can stand in for the daemon's maintained pair set.
fn config() -> ScreeningConfig {
    let mut config = ScreeningConfig::grid_defaults(5.0, 120.0);
    config.seconds_per_sample = 60.0;
    config
}

fn serve(options: ServerOptions) -> ServerHandle {
    Server::bind_with("127.0.0.1:0", config(), options)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server thread")
}

/// A satellite of crossing cluster `cluster`. The members of a cluster
/// share one ascending node (clusters sit 0.5 rad ≈ 3500 km of node
/// apart and never meet) and one orbit shape in planes of different
/// inclination, and all pass the node about 60 s in — mid-window, so the
/// range between two members has an interior minimum there (a co-orbital
/// trailing pair's range is monotone over a 120 s window: a candidate,
/// but no conjunction). `lag` rad of extra mean anomaly puts a member
/// `lag × a` km ahead along its track; two members at node-crossing angle
/// θ then miss by `Δlag × a × cos(θ/2)` — 0.0002 rad ≈ 1.3 km, inside the
/// 5 km threshold; 0.5 rad is thousands of km out.
fn crossing(cluster: u32, incl: f64, lag: f64) -> ElementsSpec {
    ElementsSpec {
        a: 7_000.0,
        e: 0.001,
        incl,
        raan: 0.3 + 0.5 * f64::from(cluster),
        argp: 0.1,
        mean_anomaly: 6.1185 + lag,
    }
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

/// Group a complete conjunction list by pair, keeping the minimum-PCA
/// representative and the per-pair count — the same summary `publish`
/// computes from the maintained pair map. Valid only while dense indices
/// equal external ids (ids added in order, removals from the end only).
fn pair_infos(summary: &ScreenSummary) -> BTreeMap<(u64, u64), PairInfo> {
    assert_eq!(
        summary.top.len(),
        summary.conjunctions,
        "top must be the complete conjunction list for this diff to be exact"
    );
    let mut out: BTreeMap<(u64, u64), PairInfo> = BTreeMap::new();
    for c in &summary.top {
        let key = (u64::from(c.id_lo), u64::from(c.id_hi));
        match out.get_mut(&key) {
            None => {
                out.insert(key, (c.tca, c.pca_km, 1));
            }
            Some((tca, pca, count)) => {
                if c.pca_km < *pca {
                    *tca = c.tca;
                    *pca = c.pca_km;
                }
                *count += 1;
            }
        }
    }
    out
}

/// Diff two pair summaries with the publish semantics: `new` for pairs
/// only in `after`, `updated` for pairs whose summary changed (exact
/// `f64` compare — the delta engine recomputes unchanged pairs
/// bit-identically), `retired` (old TCA/PCA, count 0) for pairs only in
/// `before`. Sorted by pair key, matching the push stream's order.
fn expected_delta(
    before: &BTreeMap<(u64, u64), PairInfo>,
    after: &BTreeMap<(u64, u64), PairInfo>,
) -> Vec<((u64, u64), EventKind, PairInfo)> {
    let mut out = Vec::new();
    for (key, info) in after {
        match before.get(key) {
            None => out.push((*key, EventKind::New, *info)),
            Some(old) if old != info => out.push((*key, EventKind::Updated, *info)),
            Some(_) => {}
        }
    }
    for (key, &(tca, pca, _)) in before {
        if !after.contains_key(key) {
            out.push((*key, EventKind::Retired, (tca, pca, 0)));
        }
    }
    out.sort_by_key(|(key, _, _)| *key);
    out
}

fn assert_event(
    event: &PushEvent,
    sub_id: &str,
    expected: &((u64, u64), EventKind, PairInfo),
    epoch: u64,
    ephemeral: bool,
) {
    let ((lo, hi), kind, (tca, pca_km, count)) = *expected;
    assert_eq!(event.push, PUSH_CONJUNCTION);
    assert_eq!(event.sub_id, sub_id);
    assert_eq!((event.id_lo, event.id_hi), (lo, hi), "{event:?}");
    assert_eq!(event.kind, kind, "{event:?}");
    assert_eq!(event.tca, tca, "{event:?}");
    assert_eq!(event.pca_km, pca_km, "{event:?}");
    assert_eq!(event.conjunctions, count, "{event:?}");
    assert_eq!(event.epoch, epoch, "{event:?}");
    assert_eq!(event.ephemeral, ephemeral, "{event:?}");
}

/// The tentpole acceptance test: a subscriber on a live daemon receives
/// exactly the delta obtained by diffing the pair set of a
/// request/response-polled control daemon across two committed screens.
#[test]
fn subscriber_receives_the_exact_pair_set_delta() {
    let live = serve(ServerOptions::default());
    let control = serve(ServerOptions::default());

    // Three subscribers, registered before the first screen commits:
    // everything, only asset 6, and everything-but-quits-early.
    let mut sub_all = Client::connect(live.addr()).expect("connect");
    let mut sub_six = Client::connect(live.addr()).expect("connect");
    let mut sub_quit = Client::connect(live.addr()).expect("connect");
    for sub in [&mut sub_all, &mut sub_six, &mut sub_quit] {
        sub.set_timeouts(Some(Duration::from_secs(30)), Some(Duration::from_secs(30)))
            .expect("timeouts");
    }
    let subscribe_all = Request::Subscribe {
        assets: vec![],
        all: true,
    };
    for (sub, req_id, req) in [
        (&mut sub_all, "watch-all", subscribe_all.clone()),
        (
            &mut sub_six,
            "watch-6",
            Request::Subscribe {
                assets: vec![6],
                all: false,
            },
        ),
        (&mut sub_quit, "quitter", subscribe_all.clone()),
    ] {
        let ack = sub
            .send_tagged(&req, req_id)
            .expect("SUBSCRIBE")
            .subscription
            .expect("subscription ack");
        assert_eq!(ack.sub_id, req_id);
        assert_eq!(ack.active, 1);
    }

    // Four crossing pairs, one per cluster: (0, 1), (2, 3), (4, 5),
    // (6, 7). Satellites are added in id order and only the *last-added*
    // id is ever removed, so dense catalog indices stay equal to external
    // ids and the control daemon's `top` (which carries dense indices) can
    // be read as external ids.
    let mut script: Vec<Request> = (0..8u32)
        .map(|id| Request::Add {
            id: u64::from(id),
            elements: if id % 2 == 0 {
                crossing(id / 2, 0.5, 0.0)
            } else {
                crossing(id / 2, 1.3, 0.0002)
            },
        })
        .collect();
    script.push(Request::Screen);

    let live_screen1 = drive(live.addr(), &script).pop().unwrap().screen.unwrap();
    let ctrl_screen1 = drive(control.addr(), &script)
        .pop()
        .unwrap()
        .screen
        .unwrap();
    assert_eq!(live_screen1.epoch, ctrl_screen1.epoch);
    assert_eq!(live_screen1.conjunctions, ctrl_screen1.conjunctions);

    let baseline = BTreeMap::new();
    let pairs1 = pair_infos(&ctrl_screen1);
    let delta1 = expected_delta(&baseline, &pairs1);
    assert_eq!(delta1.len(), 4, "expected four crossing pairs: {delta1:?}");

    for (sub, sub_id) in [(&mut sub_all, "watch-all"), (&mut sub_quit, "quitter")] {
        for expected in &delta1 {
            let event = sub.next_event().expect("push event");
            assert_event(&event, sub_id, expected, ctrl_screen1.epoch, false);
        }
    }
    let six1: Vec<_> = delta1
        .iter()
        .filter(|((lo, hi), _, _)| *lo == 6 || *hi == 6)
        .collect();
    assert_eq!(six1.len(), 1, "asset 6 pairs once, with 7: {delta1:?}");
    let event = sub_six.next_event().expect("push event");
    assert_event(&event, "watch-6", six1[0], ctrl_screen1.epoch, false);

    // The quitter tears down before the second screen.
    let ack = sub_quit
        .send(&Request::Unsubscribe { sub_id: None })
        .expect("UNSUBSCRIBE")
        .subscription
        .expect("unsubscribe ack");
    assert_eq!(ack.active, 0);

    // Second act: satellite 0 jumps into the (2, 3) cluster on a third
    // plane through its node, pair (4, 5) tightens, satellite 7 leaves
    // the catalog. That retires (0, 1) and (6, 7), creates (0, 2) and
    // (0, 3), updates (4, 5) — and must stay silent about the untouched
    // pair (2, 3).
    let mutations = [
        Request::Update {
            id: 0,
            elements: crossing(1, 0.9, 0.0004),
        },
        Request::Update {
            id: 4,
            elements: crossing(2, 0.5, 0.0001),
        },
        Request::Remove { id: 7 },
        Request::Screen,
    ];
    let live_screen2 = drive(live.addr(), &mutations)
        .pop()
        .unwrap()
        .screen
        .unwrap();
    let ctrl_screen2 = drive(control.addr(), &mutations)
        .pop()
        .unwrap()
        .screen
        .unwrap();
    assert_eq!(live_screen2.epoch, ctrl_screen2.epoch);
    assert_eq!(live_screen2.conjunctions, ctrl_screen2.conjunctions);

    let pairs2 = pair_infos(&ctrl_screen2);
    let delta2 = expected_delta(&pairs1, &pairs2);
    for kind in [EventKind::New, EventKind::Updated, EventKind::Retired] {
        assert!(
            delta2.iter().any(|(_, k, _)| *k == kind),
            "scenario must exercise {kind:?}: {delta2:?}"
        );
    }
    assert!(
        !delta2.iter().any(|(key, _, _)| *key == (2, 3)),
        "untouched pair (2, 3) must recompute bit-identically: {delta2:?}"
    );

    for expected in &delta2 {
        let event = sub_all.next_event().expect("push event");
        assert_event(&event, "watch-all", expected, ctrl_screen2.epoch, false);
    }
    let six2: Vec<_> = delta2
        .iter()
        .filter(|((lo, hi), _, _)| *lo == 6 || *hi == 6)
        .collect();
    assert_eq!(six2.len(), 1, "{delta2:?}");
    assert_eq!(six2[0].1, EventKind::Retired);
    let event = sub_six.next_event().expect("push event");
    assert_event(&event, "watch-6", six2[0], ctrl_screen2.epoch, false);

    // The unsubscribed connection got nothing from the second screen but
    // still serves plain requests.
    let response = sub_quit.send(&Request::Status).expect("STATUS");
    assert!(response.ok);
    assert_eq!(sub_quit.queued_events(), 0, "events after UNSUBSCRIBE");

    // Push accounting: every event above was counted, none were shed.
    let metrics = request(live.addr(), &Request::Metrics)
        .expect("METRICS")
        .metrics
        .expect("metrics payload");
    assert_eq!(metrics.subscribers, 2);
    let expected_pushed = (2 * delta1.len() + six1.len() + delta2.len() + six2.len()) as u64;
    assert_eq!(metrics.events_pushed, expected_pushed, "{metrics:?}");
    assert_eq!(metrics.events_dropped, 0, "{metrics:?}");

    live.shutdown();
    control.shutdown();
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "kessler-subscribe-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Poll STATUS until the daemon reports `mode`, or panic after ~10 s.
fn wait_for_mode(addr: SocketAddr, mode: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = request(addr, &Request::Status)
            .expect("STATUS")
            .status
            .expect("status payload");
        if status.mode == mode {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon stuck in mode {:?}, wanted {mode:?}",
            status.mode
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A broken WAL must not blind subscribers: degraded-mode screens still
/// push their deltas, tagged `ephemeral`, and repeated degraded screens
/// do not re-announce the same pairs.
#[test]
fn degraded_screens_push_ephemeral_events() {
    let dir = temp_dir("ephemeral");
    let faults = Arc::new(FaultPlan::default());
    let options = ServerOptions {
        persist: Some(PersistOptions {
            dir: dir.clone(),
            snapshot_every: 1_000,
            keep_snapshots: 2,
            shards: None,
        }),
        faults: faults.clone(),
        probe_initial: Duration::from_millis(20),
        probe_max: Duration::from_millis(200),
        ..ServerOptions::default()
    };
    let server = serve(options);

    // Two far-apart satellites: the first committed screen maintains an
    // empty pair set, so the later conjunction is a clean `new`.
    let setup = [
        Request::Add {
            id: 0,
            elements: crossing(0, 0.5, 0.0),
        },
        Request::Add {
            id: 1,
            elements: crossing(0, 1.3, 0.5),
        },
        Request::Screen,
    ];
    let screen = drive(server.addr(), &setup).pop().unwrap().screen.unwrap();
    assert_eq!(screen.conjunctions, 0);
    assert!(!screen.ephemeral);

    let mut subscriber = Client::connect(server.addr()).expect("connect");
    subscriber
        .set_timeouts(Some(Duration::from_secs(30)), Some(Duration::from_secs(30)))
        .expect("timeouts");
    let ack = subscriber
        .send_tagged(&subscribe_all(), "watch")
        .expect("SUBSCRIBE")
        .subscription
        .expect("subscription ack");
    assert_eq!(ack.sub_id, "watch");

    // Move the pair together, then break the WAL for good: the screen
    // cannot be adopted, but its delta is still pushed as ephemeral.
    let mut driver = Client::connect(server.addr()).expect("connect");
    let response = driver
        .send(&Request::Update {
            id: 1,
            elements: crossing(0, 1.3, 0.0002),
        })
        .expect("UPDATE");
    assert!(response.ok, "{:?}", response.error);
    faults.set_wal_broken(true);

    let degraded = driver
        .send(&Request::Screen)
        .expect("SCREEN")
        .screen
        .expect("screen payload");
    assert!(degraded.ephemeral, "screen under broken WAL: {degraded:?}");
    assert!(degraded.conjunctions > 0);

    let event = subscriber.next_event().expect("push event");
    assert_eq!((event.id_lo, event.id_hi), (0, 1), "{event:?}");
    assert_eq!(event.kind, EventKind::New);
    assert!(event.ephemeral, "{event:?}");
    assert_eq!(event.epoch, degraded.epoch);
    assert_eq!(event.sub_id, "watch");

    // A second degraded screen over the unchanged catalog finds the same
    // pair set; the ephemeral baseline advanced, so nothing re-fires.
    let again = driver
        .send(&Request::Screen)
        .expect("SCREEN")
        .screen
        .expect("screen payload");
    assert!(again.ephemeral);

    // Heal the disk; the probe recovers the daemon on its own, and the
    // first adopted screen agrees with the published baseline: silence.
    faults.set_wal_broken(false);
    wait_for_mode(server.addr(), "normal");
    let healed = driver
        .send(&Request::Screen)
        .expect("SCREEN")
        .screen
        .expect("screen payload");
    assert!(!healed.ephemeral, "{healed:?}");

    let response = subscriber.send(&Request::Status).expect("STATUS");
    assert!(response.ok);
    assert_eq!(subscriber.queued_events(), 0, "spurious re-announcements");

    let metrics = driver
        .send(&Request::Metrics)
        .expect("METRICS")
        .metrics
        .expect("metrics payload");
    assert_eq!(metrics.subscribers, 1);
    assert_eq!(metrics.events_pushed, 1, "{metrics:?}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn subscribe_all() -> Request {
    Request::Subscribe {
        assets: vec![],
        all: true,
    }
}
