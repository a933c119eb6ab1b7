//! `durable_ingest`: the write-heavy case. A daemon with a WAL, sharded
//! incremental snapshots and hybrid screening takes a catalog in over the
//! wire, screens it, and is recovered from a crash image.
//!
//! Phases: (a) ADDs pipelined 64 deep, (b) closed-loop ADDs on a raw socket,
//! (c) ADDs through `kessler_service::Client` (the path `kessler submit`
//! uses), then the state directory is taken as a crash image; (d) SCREENs,
//! a burst of UPDATEs, DELTA, SCREENs on the sharded hybrid path; (e) the
//! image is recovered several times, each time from a fresh copy.

use super::session::{
    add_lines, crash_image, delta_stages, describe, dir_usage, fresh_dir, same_set, update_line,
    Daemon,
};
use super::{Options, Outcome};
use crate::inputs::{self, fingerprint, manoeuvre_burst, SplitMix64};
use crate::layers;
use crate::spec;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::wire::Conn;
use kessler_core::{ScreeningConfig, Variant};
use kessler_orbits::KeplerElements;
use kessler_service::persist::{Persister, WAL_FILE};
use kessler_service::{
    Client, ElementsSpec, FaultPlan, PersistOptions, Request, Server, ServerOptions, ShardSpec,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

const THRESHOLD_KM: f64 = 10.0;
const PIPELINE_DEPTH: usize = 64;
const UNTIMED_SCREENS: usize = 3;

fn server_options(state_dir: &Path) -> ServerOptions {
    ServerOptions {
        persist: Some(PersistOptions::new(state_dir)),
        shards: Some(ShardSpec::default()),
        variant: Variant::Hybrid,
        ..ServerOptions::default()
    }
}

struct Session {
    daemon: Daemon,
    conn: Conn,
    catalog: Vec<KeplerElements>,
    lines: Vec<String>,
}

/// Population, request lines, an empty state directory, a booted daemon and
/// a connection to it. The ingest itself is what the workload measures.
fn set_up(options: &Options, config: ScreeningConfig, state_dir: &Path) -> Result<Session, String> {
    let sizes = &options.sizes;
    let total = sizes.durable_pipelined + sizes.durable_closed + sizes.client_sends;
    let catalog = inputs::population(options.seed, total);
    let lines = add_lines(&catalog, 0);
    fresh_dir(state_dir).map_err(|e| format!("state dir: {e}"))?;
    let daemon = Daemon::boot(config, server_options(state_dir))?;
    let conn = Conn::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Session {
        daemon,
        conn,
        catalog,
        lines,
    })
}

pub fn run(options: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(spec::DURABLE_INGEST);
    let sizes = options.sizes;
    let config = ScreeningConfig::hybrid_defaults(THRESHOLD_KM, sizes.durable_span_s);
    let scratch: PathBuf = options
        .out_dir
        .join(format!("durable-{}", std::process::id()));
    let state_dir = scratch.join("state");
    let image_dir = scratch.join("image");

    let mut setup = Samples::new();
    let mut session = None;
    // Tens of milliseconds a time, so it can afford more repeats than
    // `serve_delta`'s second and a half.
    for _ in 0..3 * options.setup_repeats() {
        drop(session.take());
        let t = Instant::now();
        let fresh = set_up(options, config, &state_dir)?;
        setup.push(t.elapsed().as_secs_f64());
        session = Some(fresh);
    }
    let Session {
        daemon,
        mut conn,
        mut catalog,
        lines,
    } = session.expect("set-up ran at least once");
    let mut tracer = Tracer::new(options.trace);
    // Every acknowledged mutation is one WAL record; recovery must account
    // for each of them.
    let mut acked_mutations = 0u64;
    let mut acked_adds = 0usize;

    // (a) pipelined ingest.
    let (pipelined, rest) = lines.split_at(sizes.durable_pipelined);
    let span = tracer.begin("ingest.pipelined", None, 0);
    let t = Instant::now();
    let acks = conn
        .pipeline(pipelined, PIPELINE_DEPTH)
        .map_err(|e| format!("pipelined ingest: {e}"))?;
    let ingest_s = t.elapsed().as_secs_f64();
    tracer.end(span);
    for ack in &acks {
        outcome.op(ack.ok, || format!("ADD refused: {:?}", ack.error));
        acked_mutations += u64::from(ack.ok);
        acked_adds += usize::from(ack.ok);
    }
    let ingest_per_s = pipelined.len() as f64 / ingest_s;

    // (b) closed loop: the durable ack round trip. A traced run alternates
    // traced and untraced requests.
    let (closed, client_lines) = rest.split_at(sizes.durable_closed);
    let mut add_us = Samples::new();
    let mut add_us_traced = Samples::new();
    for (i, line) in closed.iter().enumerate() {
        let with_spans = options.trace && i % 2 == 1;
        tracer.set_enabled(with_spans);
        let id = 1_000_000 + i as u64;
        let root = tracer.begin("ingest.add", None, id);
        let trip = conn
            .round_trip(line, &mut tracer, Some(root), id)
            .map_err(|e| format!("closed-loop ADD: {e}"))?;
        tracer.end(root);
        outcome.op(trip.response.ok, || {
            format!("ADD refused: {:?}", trip.response.error)
        });
        acked_mutations += u64::from(trip.response.ok);
        acked_adds += usize::from(trip.response.ok);
        let us = trip.elapsed.as_secs_f64() * 1e6;
        if with_spans {
            add_us_traced.push(us);
        } else {
            add_us.push(us);
        }
    }
    tracer.set_enabled(options.trace);

    // (c) the repository's own client.
    let mut client = Client::connect(daemon.addr()).map_err(|e| format!("client: {e}"))?;
    let mut client_add_us = Samples::new();
    let first_client_id = (sizes.durable_pipelined + sizes.durable_closed) as u64;
    // 44 ms a call (two small writes without TCP_NODELAY), so the number of
    // calls follows the window; the satellites left over are not added.
    let sends = client_lines
        .len()
        .min((2.0 * options.seconds) as usize)
        .max(4);
    for (i, el) in catalog[first_client_id as usize..]
        .iter()
        .take(sends)
        .enumerate()
    {
        let request = Request::Add {
            id: first_client_id + i as u64,
            elements: ElementsSpec::from_elements(el),
        };
        let span = tracer.begin("client.send", None, 2_000_000 + i as u64);
        let t = Instant::now();
        let response = client
            .send(&request)
            .map_err(|e| format!("Client::send: {e}"))?;
        client_add_us.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.end(span);
        outcome.op(response.ok, || format!("ADD refused: {:?}", response.error));
        acked_mutations += u64::from(response.ok);
        acked_adds += usize::from(response.ok);
    }

    // The mirror holds what the daemon holds: bursts pick from it.
    catalog.truncate(first_client_id as usize + sends);

    // The crash image is taken here, at the end of the ingest: recovery
    // replays the WAL tail through the request path, and a tail that held
    // phase (d)'s SCREEN and DELTA records would spend its time screening
    // again. No request is in flight and every ack was fsynced first, so a
    // copy taken now is what a crash at this instant would leave behind;
    // the daemon runs on, and only ever unlinks the files the image links.
    crash_image(&state_dir, &image_dir, WAL_FILE).map_err(|e| format!("crash image: {e}"))?;
    let imaged_mutations = acked_mutations;

    // (d) the sharded hybrid screening path: two cold SCREENs, a burst
    // absorbed by DELTA, two more cold SCREENs, the first of which is the
    // gate.
    //
    // Phase (c) left one CPU idle for a second or more, and this guest
    // parks an idle vCPU: the SCREENs that follow run both screening
    // threads on one vCPU, every phase at half speed, for about a second
    // of demand. Three SCREENs are spent on that first, untimed.
    for _ in 0..UNTIMED_SCREENS {
        let response = conn
            .call(&Request::Screen)
            .map_err(|e| format!("SCREEN: {e}"))?;
        outcome.op(response.ok, || {
            format!("SCREEN failed: {:?}", response.error)
        });
        acked_mutations += u64::from(response.ok);
    }
    let mut screens = Samples::new();
    let mut cold_screen = |conn: &mut Conn, outcome: &mut Outcome, acked: &mut u64| {
        let (response, took) = conn
            .timed_call(&Request::Screen)
            .map_err(|e| format!("SCREEN: {e}"))?;
        outcome.op(response.ok, || {
            format!("SCREEN failed: {:?}", response.error)
        });
        *acked += u64::from(response.ok);
        screens.push(took.as_secs_f64());
        response
            .screen
            .ok_or_else(|| "SCREEN answered without a summary".to_string())
    };
    let first = cold_screen(&mut conn, &mut outcome, &mut acked_mutations)?;
    let again = cold_screen(&mut conn, &mut outcome, &mut acked_mutations)?;
    outcome.op(same_set(&first, &again), || {
        format!(
            "two cold SCREENs of one catalog differ: {} vs {}",
            describe(&first),
            describe(&again)
        )
    });
    let mirror_ratio = first.shards.as_ref().map_or(0.0, |s| {
        s.mirrored_inserts as f64 / s.total_inserts.max(1) as f64
    });

    let mut rng = SplitMix64::new(options.seed ^ 0x6475_7261_626c_6521);
    let burst = manoeuvre_burst(&mut rng, &mut catalog, sizes.burst);
    let absorb_started = Instant::now();
    let root = tracer.begin("durable.absorb", None, 3_000_000);
    for &(sat, elements) in &burst {
        let trip = conn
            .round_trip(
                &update_line(sat, elements),
                &mut tracer,
                Some(root),
                3_000_000,
            )
            .map_err(|e| format!("UPDATE: {e}"))?;
        outcome.op(trip.response.ok, || {
            format!("UPDATE refused: {:?}", trip.response.error)
        });
        acked_mutations += u64::from(trip.response.ok);
    }
    let trip = conn
        .round_trip(
            &Conn::encode(&Request::Delta, None),
            &mut tracer,
            Some(root),
            3_000_000,
        )
        .map_err(|e| format!("DELTA: {e}"))?;
    let absorb_ms = absorb_started.elapsed().as_secs_f64() * 1e3;
    tracer.end(root);
    outcome.op(trip.response.ok, || {
        format!("DELTA failed: {:?}", trip.response.error)
    });
    acked_mutations += u64::from(trip.response.ok);
    let maintained = trip
        .response
        .screen
        .ok_or_else(|| "DELTA answered without a summary".to_string())?;
    tracer.reported_stages(trip.wait, 3_000_000, &delta_stages(&maintained));

    let cold = cold_screen(&mut conn, &mut outcome, &mut acked_mutations)?;
    cold_screen(&mut conn, &mut outcome, &mut acked_mutations)?;
    outcome.op(same_set(&maintained, &cold), || {
        format!(
            "maintained set ({}) differs from the cold SCREEN ({})",
            describe(&maintained),
            describe(&cold)
        )
    });
    outcome.conjunctions = cold.conjunctions;
    outcome.fingerprint = fingerprint(
        cold.conjunctions,
        cold.top.iter().map(|c| c.pair()).collect(),
    );

    let mut client_status_us = Samples::new();
    if options.trace {
        for _ in 0..10 {
            let t = Instant::now();
            let response = client
                .send(&Request::Status)
                .map_err(|e| format!("Client::send STATUS: {e}"))?;
            client_status_us.push(t.elapsed().as_secs_f64() * 1e6);
            outcome.op(response.ok, || "STATUS failed".to_string());
        }
    }
    drop(client);

    // (e) what is on disk, then the recoveries from the crash image.
    let metrics = conn
        .call(&Request::Metrics)
        .map_err(|e| format!("METRICS: {e}"))?
        .metrics
        .ok_or_else(|| "METRICS answered without a snapshot".to_string())?;
    outcome.ops_ok(1);
    let (disk_bytes, files) = dir_usage(&state_dir).map_err(|e| format!("state dir: {e}"))?;
    // One frame per line; the log keeps more than the tail after the last
    // snapshot (it is compacted only past the oldest retained full point).
    let wal = std::fs::read(state_dir.join(WAL_FILE)).map_err(|e| format!("wal: {e}"))?;
    let wal_bytes = wal.len();
    let wal_frames = wal.iter().filter(|&&b| b == b'\n').count();
    drop(wal);
    drop(conn);
    daemon.shutdown();

    let mut recovery_s = Samples::new();
    let mut tail_records = 0usize;
    let recoveries = sizes
        .recoveries
        .min((options.seconds / 2.0) as usize)
        .max(2);
    for i in 0..recoveries {
        let dir = scratch.join(format!("recover-{i}"));
        crash_image(&image_dir, &dir, WAL_FILE).map_err(|e| format!("recovery copy: {e}"))?;
        let span = tracer.begin("persist.recover", None, 4_000_000 + i as u64);
        let t = Instant::now();
        let server = Server::bind_with("127.0.0.1:0", config, server_options(&dir))
            .map_err(|e| format!("recovery {i}: {e}"))?;
        recovery_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        let summary = server.recovery().cloned().unwrap_or_default();
        let recovered = server.catalog_len();
        outcome.op(recovered == acked_adds, || {
            format!(
                "recovery {i} holds {recovered} satellites, {acked_adds} ADDs were acknowledged"
            )
        });
        // Snapshot + replayed tail must add up to every acknowledged
        // mutation: nothing acknowledged is lost, nothing is replayed twice.
        let covered = summary.snapshot_seq.unwrap_or(0) + summary.replayed as u64;
        outcome.op(covered == imaged_mutations && !summary.torn_tail, || {
            format!(
                "recovery {i}: snapshot at {:?} + {} replayed covers {covered} of {imaged_mutations} \
                 acknowledged mutations (torn tail: {})",
                summary.snapshot_seq, summary.replayed, summary.torn_tail
            )
        });
        tail_records = summary.replayed;
        // A bound server owns worker threads; run and stop it so they end.
        let addr = server.local_addr();
        let handle = server
            .spawn()
            .map_err(|e| format!("recovery {i} spawn: {e}"))?;
        let status = Conn::connect(addr).and_then(|mut c| c.call(&Request::Status));
        outcome.op(
            status.as_ref().is_ok_and(|r| {
                r.status
                    .as_ref()
                    .is_some_and(|s| s.n_satellites == acked_adds)
            }),
            || format!("recovered daemon does not report {acked_adds} satellites over the wire"),
        );
        handle.shutdown();
        std::fs::remove_dir_all(&dir).map_err(|e| format!("recovery cleanup: {e}"))?;
    }

    let mut open_ms = 0.0;
    if options.trace {
        let dir = scratch.join("open");
        crash_image(&image_dir, &dir, WAL_FILE).map_err(|e| format!("open copy: {e}"))?;
        let mut persist = PersistOptions::new(&dir);
        persist.shards = Some(ShardSpec::default());
        let t = Instant::now();
        let opened = Persister::open(&persist, FaultPlan::inert());
        open_ms = t.elapsed().as_secs_f64() * 1e3;
        outcome.op(opened.is_ok(), || {
            "Persister::open failed on the crash image".to_string()
        });
    }
    std::fs::remove_dir_all(&scratch).map_err(|e| format!("cleanup: {e}"))?;

    let wal_bytes_per_mutation = wal_bytes as f64 / wal_frames.max(1) as f64;
    let add_us_p50 = add_us.median();
    outcome.layer("ingest_per_s", ingest_per_s);
    outcome.layer("add_us", add_us_p50);
    outcome.layer("client_add_us", client_add_us.median());
    outcome.layer("absorb_ms", absorb_ms);
    outcome.layer("recovery_s", recovery_s.median());
    outcome.layer("wal_bytes_per_mutation", wal_bytes_per_mutation);
    outcome.layer(
        "disk_bytes_per_sat",
        disk_bytes as f64 / acked_adds.max(1) as f64,
    );
    outcome.layer("service.wal.frame_bytes", wal_bytes_per_mutation);
    outcome.layer("service.persist.files", files as f64);
    outcome.layer("service.persist.wal_tail_records", tail_records as f64);
    outcome.layer("service.shard.mirror_ratio", mirror_ratio);
    if let Some(fsync) = &metrics.wal_fsync_ms {
        outcome.layer("service.wal.append_fsync_us.p50", fsync.p50 * 1e3);
        outcome.layer("service.wal.append_fsync_us.p99", fsync.p99 * 1e3);
    }
    if let Some(snapshot) = &metrics.snapshot_write_ms {
        outcome.layer("service.persist.snapshot_ms", snapshot.p50);
    }
    if let Some(bytes) = &metrics.snapshot_bytes {
        outcome.layer("service.persist.snapshot_bytes", bytes.p50);
    }
    if let Some(dirty) = &metrics.dirty_shards_per_snapshot {
        outcome.layer("service.persist.dirty_shards_per_snapshot", dirty.p50);
    }
    outcome.layer(
        "service.exec.queue_highwater",
        metrics.queue_highwater as f64,
    );
    outcome.samples.insert("ingest_per_s", pipelined.len());
    outcome.samples.insert("add_us", add_us.len());
    outcome.samples.insert("client_add_us", client_add_us.len());
    outcome.samples.insert("recovery_s", recovery_s.len());
    outcome.samples.insert(spec::SCREEN_S, screens.len());
    outcome.samples.insert(spec::SETUP_S, setup.len());
    println!("samples screen_s {}", screens.listing());
    println!("samples recovery_s {}", recovery_s.listing());
    println!(
        "durable_ingest acked_adds={acked_adds} acked_mutations={acked_mutations} wal_bytes={wal_bytes} \
         wal_frames={wal_frames} disk_bytes={disk_bytes} files={files} tail={tail_records}"
    );

    if !options.trace {
        outcome.e2e.insert(spec::SETUP_S, setup.median());
        outcome.e2e.insert(spec::SCREEN_S, screens.median());
        // The disk under the state directory answers an fsync in anything
        // from 130 to 350 µs from one run to the next, so the ingest rate
        // and the ADD round trip do not repeat within any bound the
        // contract allows; they stay operation metrics. The bounded slots
        // take the recovery, which is mostly reading, parsing and replaying.
        let recovery = recovery_s.median();
        outcome.e2e.insert(spec::REQUEST_MS, recovery * 1e3);
        outcome
            .e2e
            .insert(spec::THROUGHPUT_PER_S, acked_adds as f64 / recovery);
        return Ok(outcome);
    }

    outcome.layer(
        "trace.overhead_pct",
        100.0 * (add_us_traced.median() - add_us_p50) / add_us_p50,
    );
    outcome.layer("service.persist.open_ms", open_ms);
    outcome.layer("service.client.send_status_us", client_status_us.median());
    outcome.layer("service.shard.assign_ns", layers::shard_assign_ns());
    let (decode_ns, encode_ns) = layers::proto_codec_ns();
    outcome.layer("service.proto.decode_ns", decode_ns);
    outcome.layer("service.proto.encode_ns", encode_ns);
    let (add_ns, update_ns) = layers::state_machine_ns();
    outcome.layer("service.state.add_ns", add_ns);
    outcome.layer("service.state.update_ns", update_ns);
    outcome.layer(
        "population.generate.ns_per_sat",
        layers::population_generate_ns_per_sat(options.seed, catalog.len()),
    );
    let path = options.out_dir.join("trace_durable_ingest.jsonl");
    if let Err(e) = tracer.write_jsonl(&path) {
        outcome.op(false, || format!("writing {}: {e}", path.display()));
    }
    Ok(outcome)
}
