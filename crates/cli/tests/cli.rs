//! End-to-end tests of the `kessler` binary.

use std::process::Command;

fn kessler() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kessler"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let output = kessler().args(args).output().expect("binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let output = kessler().output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("USAGE"));
}

#[test]
fn unknown_subcommand_is_an_error() {
    let (ok, _, err) = run(&["warp"]);
    assert!(!ok);
    assert!(err.contains("unknown subcommand"));
}

#[test]
fn info_succeeds() {
    let (ok, out, _) = run(&["info"]);
    assert!(ok);
    assert!(out.contains("kessler"));
    assert!(out.contains("IPDPS 2023"));
}

#[test]
fn plan_reports_the_paper_scale_auto_adjustment() {
    let (ok, out, _) = run(&[
        "plan",
        "--n",
        "1024000",
        "--variant",
        "hybrid",
        "--memory-gib",
        "24",
        "--span",
        "3600",
    ]);
    assert!(ok, "plan failed: {out}");
    assert!(
        out.contains("auto-reduced"),
        "expected s_ps auto-reduction:\n{out}"
    );
    assert!(out.contains("parallel grids"));
}

#[test]
fn generate_screen_round_trip() {
    let dir = std::env::temp_dir();
    let pop = dir.join("kessler_cli_test_pop.json");
    let csv = dir.join("kessler_cli_test_conj.csv");
    let pop_s = pop.to_str().unwrap();
    let csv_s = csv.to_str().unwrap();

    let (ok, out, err) = run(&["generate", "--n", "300", "--seed", "7", "--out", pop_s]);
    assert!(ok, "generate failed: {err}");
    assert!(out.contains("300 satellites"));

    let (ok, out, err) = run(&[
        "screen",
        "--pop",
        pop_s,
        "--variant",
        "hybrid",
        "--threshold",
        "10",
        "--span",
        "600",
        "--csv",
        csv_s,
    ]);
    assert!(ok, "screen failed: {err}");
    assert!(out.contains("hybrid:"), "summary missing: {out}");

    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.starts_with("id_lo,id_hi,tca_s,pca_km"));

    std::fs::remove_file(&pop).ok();
    std::fs::remove_file(&csv).ok();
}

#[test]
fn screen_requires_a_population_source() {
    let (ok, _, err) = run(&["screen", "--variant", "grid"]);
    assert!(!ok);
    assert!(err.contains("--pop") || err.contains("--n"));
}

#[test]
fn compare_runs_all_variants() {
    let (ok, out, err) = run(&[
        "compare",
        "--n",
        "150",
        "--threshold",
        "10",
        "--span",
        "300",
    ]);
    assert!(ok, "compare failed: {err}");
    for v in ["legacy:", "grid:", "hybrid:"] {
        assert!(out.contains(v), "missing variant {v} in:\n{out}");
    }
    assert!(out.contains("vs legacy"));
}

#[test]
fn tle_parses_a_catalog_file() {
    let dir = std::env::temp_dir();
    let path = dir.join("kessler_cli_test_tle.txt");
    std::fs::write(
        &path,
        "ISS (ZARYA)\n\
         1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927\n\
         2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537\n",
    )
    .unwrap();
    let (ok, out, err) = run(&["tle", path.to_str().unwrap(), "--stats"]);
    assert!(ok, "tle failed: {err}");
    assert!(out.contains("1 records parsed"));
    assert!(out.contains("median altitude"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_flag_values_fail_cleanly() {
    let (ok, _, err) = run(&["generate", "--n", "not-a-number"]);
    assert!(!ok);
    assert!(err.contains("error:"));
}

/// Runs `kessler serve ARGS`, which must exit on its own (refuse its
/// configuration) rather than start a daemon; returns the exit status and
/// stderr.
fn serve_must_exit(args: &[&str]) -> (std::process::ExitStatus, String) {
    let mut child = kessler()
        .arg("serve")
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    // A daemon that started would never exit on its own.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            panic!("`serve {}` started a daemon", args.join(" "));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let output = child.wait_with_output().unwrap();
    (status, String::from_utf8_lossy(&output.stderr).into_owned())
}

/// A `--shards` value whose band × shell product wraps a u32 to within
/// the shard cap is refused before the daemon starts, instead of serving
/// one that panics on its first SCREEN.
#[test]
fn serve_refuses_a_shard_count_that_wraps() {
    let (status, err) = serve_must_exit(&["--n", "10", "--shards", "4096x1048577"]);
    assert!(!status.success());
    assert!(err.contains("invalid configuration"), "{err}");
    assert!(err.contains("exceeds the 4096-shard cap"), "{err}");
}

/// A mistyped flag is refused with exit 1 instead of falling back to its
/// default: `--statedir` would otherwise serve an ephemeral daemon, and
/// the retired `--shard-range` would be ignored.
#[test]
fn serve_refuses_a_flag_it_does_not_know() {
    let dir = std::env::temp_dir().join(format!("kessler-cli-typo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state_dir = dir.to_str().unwrap();
    for (args, flag) in [
        (["--statedir", state_dir], "--statedir"),
        (["--shard-range", "1:2"], "--shard-range"),
    ] {
        let (status, err) = serve_must_exit(&args);
        assert_eq!(status.code(), Some(1), "{err}");
        assert!(
            err.contains(&format!("unknown flag {flag} for serve")),
            "{err}"
        );
    }
    assert!(!dir.exists(), "a state directory was opened");
}

/// A `--queue-depth` past the limit is refused with exit 1 before the
/// state directory is opened, instead of the queue's allocation
/// panicking on `capacity overflow`.
#[test]
fn serve_refuses_an_oversized_queue_depth() {
    let dir = std::env::temp_dir().join(format!("kessler-cli-queue-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state_dir = dir.to_str().unwrap();
    let (status, err) = serve_must_exit(&[
        "--n",
        "10",
        "--state-dir",
        state_dir,
        "--queue-depth",
        "18446744073709551615",
    ]);
    assert_eq!(status.code(), Some(1), "{err}");
    assert!(err.contains("invalid configuration"), "{err}");
    assert!(err.contains("queue depth"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(!dir.exists(), "the state directory was opened");
}

/// An infinite threshold or step makes Eq. 1's cell size infinite. `screen`
/// and `serve` refuse it with the validation message and exit 1, instead
/// of a screen panicking on the grid (or a daemon whose every screen
/// panics).
#[test]
fn screen_and_serve_refuse_an_infinite_threshold_or_step() {
    for (flag, message) in [
        ("--threshold", "threshold must be positive and finite"),
        ("--sps", "seconds per sample must be positive and finite"),
    ] {
        for value in ["inf", "-inf"] {
            let output = kessler()
                .args(["screen", "--n", "50", "--span", "10", flag, value])
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(1),
                "screen {flag} {value}: {err}"
            );
            assert!(err.contains(message), "screen {flag} {value}: {err}");

            let (status, err) = serve_must_exit(&["--n", "20", "--span", "60", flag, value]);
            assert_eq!(status.code(), Some(1), "serve {flag} {value}: {err}");
            assert!(err.contains(message), "serve {flag} {value}: {err}");
        }
    }
}

/// A memory budget that is not a positive, finite number of GiB is a bad
/// flag value: `plan` exits 1 instead of planning against a 0-byte or
/// saturated budget.
#[test]
fn plan_refuses_a_memory_budget_that_is_not_positive_and_finite() {
    for value in ["nan", "-1", "0", "inf"] {
        let output = kessler()
            .args(["plan", "--n", "1000", "--memory-gib", value])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "--memory-gib {value}: {err}");
        assert!(
            err.contains("bad value for --memory-gib"),
            "--memory-gib {value}: {err}"
        );
        assert!(output.stdout.is_empty(), "--memory-gib {value} planned");
    }
}

/// A `--timeout` too large for a `Duration` is a bad flag value, not a
/// panic, for every action (the plain request path and the streaming
/// `tle` / `subscribe` connections alike).
#[test]
fn submit_refuses_a_timeout_no_duration_can_hold() {
    let dead = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    for value in ["1e30", "inf", "NaN"] {
        for action in [
            &["status"][..],
            &["subscribe", "--all"],
            &["tle", "none.tle"],
        ] {
            let output = kessler()
                .arg("submit")
                .args(action)
                .args(["--addr", &dead, "--timeout", value])
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "{action:?} {value}: {err}");
            assert!(
                err.contains("bad value for --timeout"),
                "{action:?} {value}: {err}"
            );
        }
    }
}

/// NaN and ±∞ would go out as JSON `null` and come back as a decode error
/// from the daemon; `submit` refuses them before it connects, so a dead
/// port answers with the flag instead of "connection refused".
#[test]
fn submit_refuses_non_finite_elements_and_dt_before_connecting() {
    let dead = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    for value in ["nan", "inf"] {
        for (action, flag) in [("add", "--a"), ("add", "--m"), ("advance", "--dt")] {
            let (ok, _, err) = run(&["submit", action, "--addr", &dead, flag, value]);
            assert!(!ok, "{action} {flag} {value}");
            assert!(
                err.contains(&format!("bad value for {flag}:")) && err.contains("must be finite"),
                "{action} {flag} {value}: {err}"
            );
            assert!(!err.contains("refused"), "{action} {flag} {value}: {err}");
        }
    }
}

/// `--retries` re-attempts transient failures under the one retry rule,
/// whether the request goes plain, tagged (`--req-id`) or as a `tle`
/// stream: a dead port exhausts its retry budget (visible in stderr) and
/// still fails; a live daemon answers on the first attempt with no retry
/// chatter.
#[test]
fn submit_retries_transient_failures_with_backoff() {
    use kessler_core::ScreeningConfig;
    use kessler_service::{request, Request, Server};

    let catalog =
        std::env::temp_dir().join(format!("kessler_cli_retry_{}.tle", std::process::id()));
    std::fs::write(
        &catalog,
        "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927\n\
         2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537\n",
    )
    .unwrap();
    let catalog = catalog.to_str().unwrap();
    let submits: [&[&str]; 3] = [
        &["status"],
        &["status", "--req-id", "ready"],
        &["tle", catalog],
    ];

    // Nothing listens here: connection refused is retryable even for
    // mutations (the request never reached a server).
    let dead = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    for args in submits {
        let (ok, _, err) = run(&[
            &["submit"][..],
            args,
            &["--addr", &dead, "--retries", "2", "--timeout", "1"],
        ]
        .concat());
        assert!(!ok, "{args:?}: dead port must still fail after retries");
        assert!(
            err.contains("retry 1/2 in "),
            "{args:?}: first retry not logged: {err}"
        );
        assert!(
            err.contains("retry 2/2 in "),
            "{args:?}: second retry not logged: {err}"
        );
        assert!(!err.contains("retry 3/2"), "{args:?}: {err}");
        let failure = if args[0] == "tle" {
            format!("connect to {dead} failed: ")
        } else {
            format!("request to {dead} failed after 3 attempt(s): ")
        };
        assert!(err.contains(&failure), "{args:?}: {err}");
    }

    // Against a live daemon the same flag is a no-op.
    let config = ScreeningConfig::grid_defaults(5.0, 120.0);
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let addr_s = addr.to_string();
    let handle = server.spawn().expect("spawn server thread");
    let (ok, out, err) = run(&[
        "submit",
        "add",
        "--id",
        "9",
        "--a",
        "7000",
        "--addr",
        &addr_s,
        "--retries",
        "3",
    ]);
    assert!(ok, "add with retries failed: {err}");
    assert!(out.contains("\"ok\": true"), "{out}");
    assert!(!err.contains("retry"), "no retries expected: {err}");
    for args in submits {
        let (ok, out, err) = run(&[
            &["submit"][..],
            args,
            &["--addr", &addr_s, "--retries", "3"],
        ]
        .concat());
        assert!(ok, "{args:?} with retries failed: {err}");
        assert!(
            !err.contains("retry"),
            "{args:?}: no retries expected: {err}"
        );
        if args.contains(&"--req-id") {
            assert!(out.contains("\"req_id\": \"ready\""), "{out}");
        }
    }

    request(addr, &Request::Shutdown).expect("SHUTDOWN");
    handle.shutdown();
    std::fs::remove_file(catalog).ok();
}

/// `kessler submit tle FILE` streams a catalog into a live daemon: first
/// pass ADDs every record, a second pass falls back to UPDATE, and tagged
/// / cancel round-trips work from the CLI too.
#[test]
fn submit_tle_streams_a_catalog_into_the_daemon() {
    use kessler_core::ScreeningConfig;
    use kessler_service::{request, Request, Server};

    let config = ScreeningConfig::grid_defaults(5.0, 120.0);
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let addr_s = addr.to_string();
    let handle = server.spawn().expect("spawn server thread");

    let path = std::env::temp_dir().join("kessler_cli_submit_tle.txt");
    std::fs::write(
        &path,
        "ISS (ZARYA)\n\
         1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927\n\
         2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537\n\
         ISS (DEB)\n\
         1 25545U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2928\n\
         2 25545  51.6416 250.0000 0006703 130.5360 325.0288 15.72125391563533\n",
    )
    .unwrap();

    let (ok, out, err) = run(&["submit", "tle", path.to_str().unwrap(), "--addr", &addr_s]);
    assert!(ok, "submit tle failed: {err}");
    assert!(
        out.contains("ingested 2 records (2 added, 0 updated, 0 rejected)"),
        "unexpected ingest summary:\n{out}"
    );

    // Re-ingesting the same file updates every record in place.
    let (ok, out, err) = run(&["submit", "tle", path.to_str().unwrap(), "--addr", &addr_s]);
    assert!(ok, "re-ingest failed: {err}");
    assert!(
        out.contains("ingested 2 records (0 added, 2 updated, 0 rejected)"),
        "unexpected re-ingest summary:\n{out}"
    );

    let status = request(addr, &Request::Status)
        .expect("STATUS")
        .status
        .unwrap();
    assert_eq!(status.n_satellites, 2);

    // --req-id tags the request and the daemon echoes it back.
    let (ok, out, err) = run(&["submit", "screen", "--req-id", "job-cli", "--addr", &addr_s]);
    assert!(ok, "tagged screen failed: {err}");
    assert!(out.contains("\"req_id\": \"job-cli\""), "{out}");

    // CANCEL of a finished job is a clean error, not a hang.
    let (ok, _, err) = run(&["submit", "cancel", "job-cli", "--addr", &addr_s]);
    assert!(!ok);
    assert!(err.contains("no queued or running job"), "{err}");

    request(addr, &Request::Shutdown).expect("SHUTDOWN");
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}
