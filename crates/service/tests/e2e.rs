//! End-to-end test: real TCP server on an ephemeral port, four concurrent
//! clients populating the catalog, then screening, delta re-screening,
//! removal, and shutdown over the wire.

use kessler_core::ScreeningConfig;
use kessler_service::proto::ElementsSpec;
use kessler_service::{request, Client, Request, Server, DELTA_VARIANT};
use std::thread;
use std::time::{Duration, Instant};

/// Names of live threads in this process whose name starts with
/// `kessler-` — every thread the daemon spawns uses that prefix.
fn daemon_threads() -> Vec<String> {
    let mut names = Vec::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return names; // not Linux; skip the leak check
    };
    for task in tasks.flatten() {
        if let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) {
            let comm = comm.trim();
            if comm.starts_with("kessler-") {
                names.push(comm.to_string());
            }
        }
    }
    names
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

#[test]
fn four_concurrent_clients_drive_the_daemon() {
    let config = ScreeningConfig::grid_defaults(5.0, 120.0);
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.spawn().expect("spawn server thread");

    // Four clients, each adding eight satellites over its own connection.
    let adders: Vec<_> = (0..4u64)
        .map(|k| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for j in 0..8u64 {
                    let id = k * 8 + j;
                    let response = client
                        .send(&Request::Add {
                            id,
                            elements: spec_for(id),
                        })
                        .expect("ADD");
                    assert!(response.ok, "ADD {id} failed: {:?}", response.error);
                    assert_eq!(response.catalog.as_ref().unwrap().id, id);
                }
                let response = client.send(&Request::Status).expect("STATUS");
                assert!(response.ok);
                response.status.unwrap().n_satellites
            })
        })
        .collect();
    for t in adders {
        // Each client saw at least its own 8 satellites at STATUS time.
        assert!(t.join().expect("client thread") >= 8);
    }

    let mut client = Client::connect(addr).expect("connect");

    let status = client
        .send(&Request::Status)
        .expect("STATUS")
        .status
        .unwrap();
    assert_eq!(status.n_satellites, 32);
    assert_eq!(status.pending_changes, 32);

    // Cold screen.
    let screen = client
        .send(&Request::Screen)
        .expect("SCREEN")
        .screen
        .unwrap();
    assert_eq!(screen.n_satellites, 32);
    assert_eq!(screen.variant, "grid");
    assert!(screen.top.len() <= kessler_service::proto::TOP_CONJUNCTIONS);

    // One update, then DELTA must agree with a fresh full SCREEN.
    let response = client
        .send(&Request::Update {
            id: 0,
            elements: spec_for(40),
        })
        .expect("UPDATE");
    assert!(response.ok);
    let delta = client.send(&Request::Delta).expect("DELTA").screen.unwrap();
    assert_eq!(delta.variant, DELTA_VARIANT);
    let full = client
        .send(&Request::Screen)
        .expect("SCREEN")
        .screen
        .unwrap();
    assert_eq!(delta.conjunctions, full.conjunctions);
    assert_eq!(delta.colliding_pairs, full.colliding_pairs);

    // STATUS surfaces per-request screen timing (observability-lite).
    let status = client
        .send(&Request::Status)
        .expect("STATUS")
        .status
        .unwrap();
    assert!(status.full_screens >= 2);
    assert!(status.delta_screens >= 1);
    let last = status.last_screen.expect("last_screen after screening");
    assert!(last.timings.total.as_secs_f64() >= 0.0);

    // Malformed input gets an error response, not a dropped connection.
    let response = client.send_line("this is not json").expect("raw line");
    assert!(!response.ok);
    assert!(response.error.unwrap().starts_with("bad request"));

    // Removal shrinks the catalog.
    let response = client.send(&Request::Remove { id: 17 }).expect("REMOVE");
    assert!(response.ok);
    assert_eq!(response.catalog.unwrap().n_satellites, 31);

    // Advance slides the window.
    let response = client
        .send(&Request::Advance { dt: 30.0 })
        .expect("ADVANCE");
    assert!(response.ok, "{:?}", response.error);
    assert_eq!(response.advance.unwrap().window, (30.0, 150.0));

    // A client-supplied req_id is echoed on the response — for screening
    // verbs (where it doubles as the CANCEL handle) and cheap ones alike.
    let response = client
        .send_tagged(&Request::Screen, "job-e2e")
        .expect("tagged SCREEN");
    assert!(response.ok, "{:?}", response.error);
    assert_eq!(response.req_id.as_deref(), Some("job-e2e"));
    let response = client
        .send_tagged(&Request::Status, "s-1")
        .expect("tagged STATUS");
    assert_eq!(response.req_id.as_deref(), Some("s-1"));
    // CANCEL of a finished/unknown id is a clean error, echo included.
    let response = client
        .send_tagged(
            &Request::Cancel {
                id: "job-e2e".to_string(),
            },
            "c-1",
        )
        .expect("CANCEL");
    assert!(!response.ok);
    assert_eq!(response.req_id.as_deref(), Some("c-1"));
    assert!(response.error.unwrap().contains("no queued or running job"));

    // Shutdown via the one-shot helper, then join the server thread.
    drop(client); // let its connection thread exit
    let response = request(addr, &Request::Shutdown).expect("SHUTDOWN");
    assert!(response.ok);
    handle.shutdown();

    wait_for_no_daemon_threads("after the driven shutdown");

    // Regression: an *idle* client must not keep daemon threads alive
    // past SHUTDOWN. The old thread-per-connection front end parked a
    // detached `kessler-conn` thread in a blocking read here, leaking it
    // until the client went away; the evented loop owns all connections
    // and tears them down itself. The idle client stays connected the
    // whole time.
    let server = Server::bind("127.0.0.1:0", ScreeningConfig::grid_defaults(5.0, 120.0))
        .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.spawn().expect("spawn server thread");
    let mut idle = Client::connect(addr).expect("connect idle client");
    assert!(idle.send(&Request::Status).expect("STATUS").ok);

    let response = request(addr, &Request::Shutdown).expect("SHUTDOWN");
    assert!(response.ok);
    handle.shutdown();
    wait_for_no_daemon_threads("with an idle client still connected");
    drop(idle);
}

/// Every daemon thread is named `kessler-*`; after shutdown none may
/// linger (workers, reporter, the event loop). Give them a
/// moment to observe the shutdown.
fn wait_for_no_daemon_threads(when: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stray = daemon_threads();
        if stray.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "daemon threads leaked past shutdown {when}: {stray:?}"
        );
        thread::sleep(Duration::from_millis(50));
    }
}
