//! `serve_delta`: the operational case. A warm daemon holds n satellites;
//! k ≪ n of them change, and the operator waits for the conjunction set to
//! be current again.
//!
//! Closed loop on connection A (one request in flight, as an operator
//! pipeline that waits for its acks). Connection B holds `SUBSCRIBE all`
//! and probes STATUS every 5 ms, so reads and pushes run beside the writes.

use super::session::{add_lines, delta_stages, describe, same_set, update_line, Daemon, Watcher};
use super::{Options, Outcome};
use crate::inputs::{self, fingerprint, manoeuvre_burst, SplitMix64};
use crate::layers;
use crate::spec;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::wire::Conn;
use kessler_core::ScreeningConfig;
use kessler_orbits::KeplerElements;
use kessler_service::proto::ScreenSummary;
use kessler_service::{DeltaEngine, Request, ServerOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const THRESHOLD_KM: f64 = 10.0;
const PIPELINE_DEPTH: usize = 64;
const ADVANCE_DT_S: f64 = 15.0;
const ADVANCE_EVERY: usize = 4;

struct Session {
    daemon: Daemon,
    conn: Conn,
    /// The harness's copy of what the daemon holds, to derive bursts from.
    catalog: Vec<KeplerElements>,
    first_screen: ScreenSummary,
}

/// Population, boot, ingest over the socket, first cold SCREEN: everything
/// before the daemon is warm.
fn set_up(options: &Options, outcome: &mut Outcome) -> Result<Session, String> {
    let n = options.sizes.serve_n;
    let catalog = inputs::population(options.seed, n);
    let config = ScreeningConfig::grid_defaults(THRESHOLD_KM, options.sizes.serve_span_s);
    let daemon = Daemon::boot(config, ServerOptions::default())?;
    let mut conn = Conn::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
    let acks = conn
        .pipeline(&add_lines(&catalog, 0), PIPELINE_DEPTH)
        .map_err(|e| format!("ingest: {e}"))?;
    for ack in &acks {
        outcome.op(ack.ok, || format!("ADD refused: {:?}", ack.error));
    }
    let response = conn
        .call(&Request::Screen)
        .map_err(|e| format!("SCREEN: {e}"))?;
    outcome.op(response.ok, || {
        format!("SCREEN failed: {:?}", response.error)
    });
    let first_screen = response
        .screen
        .ok_or_else(|| "SCREEN answered without a summary".to_string())?;
    Ok(Session {
        daemon,
        conn,
        catalog,
        first_screen,
    })
}

/// A screening verb on connection A, with the flag connection B reads.
fn screening_call(
    conn: &mut Conn,
    screening: &AtomicBool,
    request: &Request,
    tracer: &mut Tracer,
    parent: Option<crate::trace::SpanId>,
    id: u64,
) -> Result<crate::wire::RoundTrip, String> {
    // Relaxed: advisory flag, see `Watcher`.
    screening.store(true, Ordering::Relaxed);
    let trip = conn.round_trip(&Conn::encode(request, None), tracer, parent, id);
    screening.store(false, Ordering::Relaxed);
    trip.map_err(|e| format!("{}: {e}", request.kind()))
}

fn untraced_screening_call(
    conn: &mut Conn,
    screening: &AtomicBool,
    request: &Request,
) -> Result<crate::wire::RoundTrip, String> {
    screening_call(conn, screening, request, &mut Tracer::new(false), None, 0)
}

pub fn run(options: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(spec::SERVE_DELTA);
    let n = options.sizes.serve_n;
    let k = options.sizes.burst;

    let mut setup = Samples::new();
    let mut screens = Samples::new();
    let mut session = None;
    for _ in 0..options.setup_repeats() {
        // The previous daemon goes down before the next one comes up;
        // tearing down is not part of set-up.
        drop(session.take());
        let t = Instant::now();
        let fresh = set_up(options, &mut outcome)?;
        setup.push(t.elapsed().as_secs_f64());
        session = Some(fresh);
    }
    let Session {
        daemon,
        mut conn,
        mut catalog,
        first_screen,
        ..
    } = session.expect("set-up ran at least once");

    let screening = Arc::new(AtomicBool::new(false));
    let watcher = Watcher::start(daemon.addr(), Arc::clone(&screening))
        .map_err(|e| format!("watcher: {e}"))?;

    let mut tracer = Tracer::new(false);
    let mut rng = SplitMix64::new(options.seed ^ 0x5e72_7665_6465_6c74);
    let mut absorb_untraced = Samples::new();
    let mut absorb_traced = Samples::new();
    let mut update_rtt_us = Samples::new();
    let mut update_sum_ms = Samples::new();
    let mut advance_ms = Samples::new();
    let mut phase = [
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    ];
    let mut delta_replies: Vec<(u64, Instant)> = Vec::new();
    let mut last_delta: Option<ScreenSummary> = None;
    let mut live = first_screen.conjunctions;
    let mut advance_cold_gap = 0usize;
    let mut window_start = 0.0;
    let mut rounds_wall_s = 0.0;
    let mut updates_absorbed = 0usize;

    // The plan depends on `--seconds` alone, never on the clock, so a seed
    // always gives the same sequence of operations and the same final
    // conjunction set. A round takes a little under a second here; the
    // window also holds two more cold SCREENs: one after the last ADVANCE,
    // one at the very end as the gate.
    let rounds = ((0.8 * options.seconds) as usize).max(6);
    let advancing_rounds = (rounds * 2 / 3 / ADVANCE_EVERY).max(1) * ADVANCE_EVERY;
    for round in 0..rounds {
        if round == advancing_rounds {
            // Fold what ADVANCE left behind into a cold screen. The sliding
            // window merges re-found minima with a tolerance, so its set is
            // close to, not equal to, a cold screen of the advanced catalog;
            // the gap is reported, the gate below is on DELTA.
            let trip = untraced_screening_call(&mut conn, &screening, &Request::Screen)?;
            outcome.op(trip.response.ok, || "mid SCREEN failed".to_string());
            if let Some(summary) = &trip.response.screen {
                advance_cold_gap = summary.conjunctions.abs_diff(live);
                screens.push(trip.elapsed.as_secs_f64());
            }
        }

        let with_spans = options.trace && absorb_untraced.len() > absorb_traced.len();
        tracer.set_enabled(with_spans);
        let id = round as u64;
        let burst = manoeuvre_burst(&mut rng, &mut catalog, k);
        let lines: Vec<String> = burst
            .iter()
            .map(|&(sat, elements)| update_line(sat, elements))
            .collect();
        let round_started = Instant::now();
        let root = tracer.begin("serve.absorb", None, id);
        let mut updates_ms = 0.0;
        for line in &lines {
            let trip = conn
                .round_trip(line, &mut tracer, Some(root), id)
                .map_err(|e| format!("UPDATE: {e}"))?;
            outcome.op(trip.response.ok, || {
                format!("UPDATE refused: {:?}", trip.response.error)
            });
            update_rtt_us.push(trip.elapsed.as_secs_f64() * 1e6);
            updates_ms += trip.elapsed.as_secs_f64() * 1e3;
        }
        let trip = screening_call(
            &mut conn,
            &screening,
            &Request::Delta,
            &mut tracer,
            Some(root),
            id,
        )?;
        let absorb = round_started.elapsed();
        tracer.end(root);
        let replied = Instant::now();
        outcome.op(trip.response.ok, || {
            format!("DELTA failed: {:?}", trip.response.error)
        });
        let summary = trip
            .response
            .screen
            .ok_or_else(|| "DELTA answered without a summary".to_string())?;
        tracer.reported_stages(trip.wait, id, &delta_stages(&summary));
        let absorb_ms = absorb.as_secs_f64() * 1e3;
        if with_spans {
            absorb_traced.push(absorb_ms);
        } else {
            absorb_untraced.push(absorb_ms);
        }
        update_sum_ms.push(updates_ms);
        for (slot, (_, took)) in phase.iter_mut().zip(delta_stages(&summary)) {
            slot.push(took.as_secs_f64() * 1e3);
        }
        delta_replies.push((summary.epoch, replied));
        live = summary.conjunctions;
        last_delta = Some(summary);
        updates_absorbed += lines.len();
        rounds_wall_s += absorb.as_secs_f64();

        if round < advancing_rounds && (round + 1).is_multiple_of(ADVANCE_EVERY) {
            let trip = untraced_screening_call(
                &mut conn,
                &screening,
                &Request::Advance { dt: ADVANCE_DT_S },
            )?;
            outcome.op(trip.response.ok, || {
                format!("ADVANCE failed: {:?}", trip.response.error)
            });
            advance_ms.push(trip.elapsed.as_secs_f64() * 1e3);
            if let Some(ack) = trip.response.advance {
                window_start += ADVANCE_DT_S;
                outcome.op((ack.window.0 - window_start).abs() < 1e-6, || {
                    format!("window starts at {}, expected {window_start}", ack.window.0)
                });
                // The daemon re-propagated every satellite to the new
                // window start; the mirror follows, so the next burst is
                // still a small correction to what the daemon holds.
                for el in &mut catalog {
                    el.mean_anomaly = el.mean_anomaly_at(ADVANCE_DT_S);
                }
                let status = conn
                    .call(&Request::Status)
                    .map_err(|e| format!("STATUS: {e}"))?
                    .status;
                let expected = live + ack.discovered - ack.retired;
                outcome.op(
                    status.as_ref().map(|s| s.live_conjunctions) == Some(expected),
                    || {
                        format!(
                            "after ADVANCE the daemon holds {:?} conjunctions, expected {live} - {} + {}",
                            status.map(|s| s.live_conjunctions),
                            ack.retired,
                            ack.discovered
                        )
                    },
                );
                live = expected;
            }
        }
    }

    // Gate: the set DELTA maintained equals a cold SCREEN of the same
    // catalog.
    let trip = untraced_screening_call(&mut conn, &screening, &Request::Screen)?;
    outcome.op(trip.response.ok, || "final SCREEN failed".to_string());
    screens.push(trip.elapsed.as_secs_f64());
    let cold = trip
        .response
        .screen
        .ok_or_else(|| "SCREEN answered without a summary".to_string())?;
    let maintained = last_delta.ok_or_else(|| "no DELTA round ran".to_string())?;
    outcome.op(same_set(&maintained, &cold), || {
        format!(
            "maintained set ({}) differs from the cold SCREEN ({})",
            describe(&maintained),
            describe(&cold)
        )
    });
    // A third warm SCREEN, so `screen_s` is a median of three. The first
    // SCREEN of each set-up is not among them: it runs on fresh memory
    // right after the ingest and is a fifth slower.
    let trip = untraced_screening_call(&mut conn, &screening, &Request::Screen)?;
    outcome.op(trip.response.ok, || "repeat SCREEN failed".to_string());
    screens.push(trip.elapsed.as_secs_f64());
    outcome.conjunctions = cold.conjunctions;
    outcome.fingerprint = fingerprint(
        cold.conjunctions,
        cold.top.iter().map(|c| c.pair()).collect(),
    );

    let watch = watcher.finish().map_err(|e| format!("watcher: {e}"))?;
    outcome.attempted += watch.probes;
    outcome.failed += watch.failed_probes;

    let metrics = conn
        .call(&Request::Metrics)
        .map_err(|e| format!("METRICS: {e}"))?
        .metrics
        .ok_or_else(|| "METRICS answered without a snapshot".to_string())?;
    outcome.ops_ok(1);

    let absorb_ms = absorb_untraced.median();
    outcome.layer("absorb_ms", absorb_ms);
    outcome.layer("advance_ms", advance_ms.median());
    outcome.layer("service.server.update_rtt_us.p50", update_rtt_us.median());
    outcome.layer(
        "service.server.update_rtt_us.p99",
        update_rtt_us.quantile(0.99),
    );
    outcome.layer(
        "service.server.status_rtt_us.p50",
        watch.status_rtt_us.median(),
    );
    outcome.layer(
        "service.server.status_during_screen_us.p99",
        watch.status_during_screen_us.quantile(0.99),
    );
    for (name, samples) in [
        "service.delta.phase.insertion_ms",
        "service.delta.phase.pair_extraction_ms",
        "service.delta.phase.filters_ms",
        "service.delta.phase.refinement_ms",
    ]
    .into_iter()
    .zip(&phase)
    {
        outcome.layer(name, samples.median());
    }
    outcome.layer(
        "service.scheduler.advance_tail_ms",
        metrics.advance_tails.map_or(0.0, |tails| tails.total.p50),
    );
    outcome.layer(
        "service.scheduler.advance_cold_gap",
        advance_cold_gap as f64,
    );
    outcome.layer(
        "service.exec.queue_highwater",
        metrics.queue_highwater as f64,
    );
    outcome.layer("service.subs.events", metrics.events_pushed as f64);
    outcome.layer("service.subs.events_dropped", metrics.events_dropped as f64);
    // Push lag: from reading a DELTA's response on A to the last event of
    // that commit arriving on B. Negative when the pushes win the race.
    let lag_us: Samples = delta_replies
        .iter()
        .filter_map(|&(epoch, replied)| {
            watch
                .events
                .iter()
                .filter(|(e, _)| *e == epoch)
                .map(|&(_, arrived)| {
                    if arrived >= replied {
                        (arrived - replied).as_secs_f64() * 1e6
                    } else {
                        -((replied - arrived).as_secs_f64() * 1e6)
                    }
                })
                .reduce(f64::max)
        })
        .collect();
    outcome.layer("service.subs.lag_after_response_us", lag_us.median());
    outcome.samples.insert("absorb_ms", absorb_untraced.len());
    outcome.samples.insert("advance_ms", advance_ms.len());
    outcome.samples.insert(spec::SCREEN_S, screens.len());
    outcome.samples.insert(spec::SETUP_S, setup.len());
    outcome
        .samples
        .insert("service.server.update_rtt_us.p50", update_rtt_us.len());
    outcome.samples.insert(
        "service.server.status_rtt_us.p50",
        watch.status_rtt_us.len(),
    );
    outcome
        .samples
        .insert("service.subs.lag_after_response_us", lag_us.len());
    println!("samples screen_s {}", screens.listing());
    println!("samples absorb_ms {}", absorb_untraced.listing());
    println!(
        "serve_delta rounds={rounds} advances={} screens={} probes={} events_seen={}",
        advance_ms.len(),
        screens.len(),
        watch.probes,
        watch.events.len()
    );

    if !options.trace {
        outcome.e2e.insert(spec::SETUP_S, setup.median());
        outcome.e2e.insert(spec::SCREEN_S, screens.median());
        outcome.e2e.insert(spec::REQUEST_MS, absorb_ms);
        outcome.e2e.insert(
            spec::THROUGHPUT_PER_S,
            updates_absorbed as f64 / rounds_wall_s,
        );
        daemon.shutdown();
        return Ok(outcome);
    }

    // Per-layer pass.
    outcome.layer(
        "trace.overhead_pct",
        100.0 * (absorb_traced.median() - absorb_ms) / absorb_ms,
    );

    // A pipelined burst of UPDATEs: the front end's throughput when the
    // client does not wait. Re-sends what the daemon already holds, so the
    // catalog is unchanged (the daemon still marks them changed; the DELTA
    // after it absorbs them).
    let resend: Vec<String> = (0..512.min(n))
        .map(|i| {
            update_line(
                i as u64,
                kessler_service::ElementsSpec::from_elements(&catalog[i]),
            )
        })
        .collect();
    let t = Instant::now();
    let acks = conn
        .pipeline(&resend, PIPELINE_DEPTH)
        .map_err(|e| format!("pipelined UPDATE: {e}"))?;
    let took = t.elapsed().as_secs_f64();
    for ack in &acks {
        outcome.op(ack.ok, || {
            format!("pipelined UPDATE refused: {:?}", ack.error)
        });
    }
    outcome.layer(
        "service.server.pipelined_update_per_s",
        resend.len() as f64 / took,
    );
    let trip = untraced_screening_call(&mut conn, &screening, &Request::Delta)?;
    outcome.op(trip.response.ok, || {
        "DELTA after pipelined burst failed".to_string()
    });
    daemon.shutdown();

    // The delta engine without the daemon around it: same catalog, same
    // kind of burst. What DELTA costs when nothing but the engine runs.
    let config = ScreeningConfig::grid_defaults(THRESHOLD_KM, options.sizes.serve_span_s);
    let mut engine = DeltaEngine::new(config).map_err(|e| format!("delta engine: {e}"))?;
    let t = Instant::now();
    let full = engine.full_screen(&catalog);
    let full_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut engine_delta_ms = Samples::new();
    for _ in 0..3 {
        let burst = manoeuvre_burst(&mut rng, &mut catalog, k);
        let changed: Vec<u32> = burst.iter().map(|&(sat, _)| sat as u32).collect();
        let t = Instant::now();
        let report = engine.delta_screen(&catalog, &changed);
        engine_delta_ms.push(t.elapsed().as_secs_f64() * 1e3);
        outcome.op(report.n_satellites == full.n_satellites, || {
            "in-process delta screened a different catalog".to_string()
        });
    }
    let delta_ms = engine_delta_ms.median();
    outcome.layer("service.delta.full_ms", full_ms);
    outcome.layer("service.delta.delta_ms", delta_ms);
    outcome.layer("service.delta.delta_over_full", delta_ms / full_ms);
    outcome.layer("service.delta.useful_work_ratio", k as f64 / n as f64);
    outcome.layer(
        "service.wire.residual_ms",
        absorb_ms - update_sum_ms.median() - delta_ms,
    );

    let (decode_ns, encode_ns) = layers::proto_codec_ns();
    outcome.layer("service.proto.decode_ns", decode_ns);
    outcome.layer("service.proto.encode_ns", encode_ns);
    let (add_ns, update_ns) = layers::state_machine_ns();
    outcome.layer("service.state.add_ns", add_ns);
    outcome.layer("service.state.update_ns", update_ns);
    outcome.layer(
        "offline.rayon.call_overhead_us",
        layers::rayon_call_overhead_us(),
    );
    outcome.layer(
        "population.generate.ns_per_sat",
        layers::population_generate_ns_per_sat(options.seed, n),
    );

    let path = options.out_dir.join("trace_serve_delta.jsonl");
    if let Err(e) = tracer.write_jsonl(&path) {
        outcome.op(false, || format!("writing {}: {e}", path.display()));
    }
    Ok(outcome)
}
