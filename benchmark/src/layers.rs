//! Per-layer measurements taken from outside: each function times calls
//! into one layer's public API and returns a cost per unit of work.
//!
//! Two kinds live here. *Micro* measurements call one function in a loop
//! on fixed inputs (Kepler solve, Brent, pair-set insert, JSON codec, the
//! state machine, shard assignment, the pool's call overhead). The *replay*
//! walks a whole screen the way the screener does — propagate → reset →
//! insert → query at every sampling step, then filters and refinement —
//! with a span around every call, so the layer costs can be summed and
//! held against the wall time of the real `screen()` call.

use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};
use kessler_core::conjunction::dedup_conjunctions;
use kessler_core::planner::MemoryModel;
use kessler_core::refine::{grid_refine_interval, refine_pair};
use kessler_core::{
    group_pairs, refine_filtered_pair, Conjunction, FilterChain, FilterConfig, FilterDecision,
    ScreeningConfig, Variant,
};
use kessler_grid::{CandidatePair, PairSet, SpatialGrid};
use kessler_math::{brent_minimize, Interval, Vec3};
use kessler_orbits::kepler::KeplerSolver;
use kessler_orbits::{BatchPropagator, ContourSolver, KeplerElements};
use kessler_service::proto::CatalogAck;
use kessler_service::{
    ElementsSpec, Envelope, Request, Response, ServiceState, ShardMap, ShardSpec,
};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Layer metric name → value.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// Runs `batch` (which performs `units` units of work per call) until
/// `budget` has passed, at least three times, and returns the median cost
/// of one unit in nanoseconds.
fn ns_per_unit(budget: Duration, units: usize, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and lazy initialisation
    let started = Instant::now();
    let mut samples = Samples::new();
    while samples.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / units as f64);
    }
    samples.median()
}

const MICRO_BUDGET: Duration = Duration::from_millis(60);

pub fn kepler_solve_ns() -> f64 {
    let solver = ContourSolver::default();
    // Mean anomalies over the circle, eccentricities over the LEO range.
    let inputs: Vec<(f64, f64)> = (0..4096)
        .map(|i| {
            let m = i as f64 * std::f64::consts::TAU / 4096.0 + 1e-3;
            let e = 1e-4 + (i % 97) as f64 * 2e-4;
            (m, e)
        })
        .collect();
    ns_per_unit(MICRO_BUDGET, inputs.len(), || {
        let mut acc = 0.0;
        for &(m, e) in &inputs {
            acc += solver.ecc_anomaly(black_box(m), black_box(e));
        }
        black_box(acc);
    })
}

pub fn brent_minimize_ns() -> f64 {
    // A relative-distance-like curve: one interior minimum per interval,
    // at a different place for each input.
    let centres: Vec<f64> = (0..512).map(|i| 0.1 + 0.8 * (i as f64 / 512.0)).collect();
    ns_per_unit(MICRO_BUDGET, centres.len(), || {
        let mut acc = 0.0;
        for &c in &centres {
            let r = brent_minimize(
                |t| {
                    let d = t - c;
                    49.0 * d * d + 0.3 * (7.0 * d).sin().powi(2) + 1.0
                },
                black_box(0.0),
                black_box(1.0),
                1e-10,
                100,
            );
            acc += r.xmin;
        }
        black_box(acc);
    })
}

/// (insert ns per pair, drain ns per pair), single-threaded.
pub fn pairset_ns() -> (f64, f64) {
    const PAIRS: usize = 200_000;
    let pairs: Vec<CandidatePair> = (0..PAIRS as u32)
        .map(|i| CandidatePair::new(i % 30_011, 30_011 + i % 29_989, i % 150))
        .collect();
    let set = PairSet::with_capacity(4 * PAIRS);
    let mut insert = Samples::new();
    let mut drain = Samples::new();
    for _ in 0..5 {
        set.reset();
        let t = Instant::now();
        for &p in &pairs {
            set.insert(black_box(p));
        }
        insert.push(t.elapsed().as_nanos() as f64 / PAIRS as f64);
        let held = set.len().max(1);
        let t = Instant::now();
        let out = set.drain_to_vec();
        drain.push(t.elapsed().as_nanos() as f64 / held as f64);
        black_box(out.len());
    }
    (insert.median(), drain.median())
}

fn sample_spec(i: usize) -> ElementsSpec {
    ElementsSpec {
        a: 6_900.0 + (i % 1500) as f64 * 0.731,
        e: 1e-4 + (i % 89) as f64 * 1e-4,
        incl: 0.1 + (i % 300) as f64 * 0.01,
        raan: (i % 629) as f64 * 0.01,
        argp: (i % 311) as f64 * 0.02,
        mean_anomaly: (i % 6283) as f64 * 0.001,
    }
}

/// (decode ns per request line, encode ns per response line).
pub fn proto_codec_ns() -> (f64, f64) {
    let lines: Vec<String> = (0..512)
        .map(|i| {
            serde_json::to_string(&Request::Add {
                id: 1_000_000 + i as u64,
                elements: sample_spec(i),
            })
            .expect("requests serialize")
        })
        .collect();
    let decode = ns_per_unit(MICRO_BUDGET, lines.len(), || {
        for line in &lines {
            let envelope: Envelope =
                serde_json::from_str(black_box(line)).expect("own output parses");
            black_box(envelope);
        }
    });
    let acks: Vec<Response> = (0..512u64)
        .map(|i| {
            Response::with_catalog(CatalogAck {
                id: 1_000_000 + i,
                index: i as u32,
                n_satellites: 16_000 + i as usize,
                epoch: 40_000 + i,
            })
        })
        .collect();
    let encode = ns_per_unit(MICRO_BUDGET, acks.len(), || {
        for ack in &acks {
            black_box(serde_json::to_string(black_box(ack)).expect("responses serialize"));
        }
    });
    (decode, encode)
}

/// (ADD ns, UPDATE ns) through `ServiceState::handle`, no sockets, no WAL.
pub fn state_machine_ns() -> (f64, f64) {
    const N: usize = 4_000;
    let config = ScreeningConfig::grid_defaults(10.0, 120.0);
    let adds: Vec<Request> = (0..N)
        .map(|i| Request::Add {
            id: i as u64,
            elements: sample_spec(i),
        })
        .collect();
    let updates: Vec<Request> = (0..N)
        .map(|i| Request::Update {
            id: i as u64,
            elements: sample_spec(i + 7),
        })
        .collect();
    let mut add = Samples::new();
    let mut update = Samples::new();
    for _ in 0..5 {
        let mut state = ServiceState::new(config).expect("valid config");
        let t = Instant::now();
        for request in &adds {
            black_box(state.handle(request));
        }
        add.push(t.elapsed().as_nanos() as f64 / N as f64);
        let t = Instant::now();
        for request in &updates {
            black_box(state.handle(request));
        }
        update.push(t.elapsed().as_nanos() as f64 / N as f64);
    }
    (add.median(), update.median())
}

pub fn shard_assign_ns() -> f64 {
    let map = ShardMap::new(ShardSpec::default()).expect("default spec is valid");
    let inputs: Vec<(f64, f64)> = (0..4096)
        .map(|i| (6_600.0 + i as f64 * 0.55, (i % 314) as f64 * 0.01))
        .collect();
    ns_per_unit(MICRO_BUDGET, inputs.len(), || {
        let mut acc = 0u32;
        for &(a, incl) in &inputs {
            acc = acc.wrapping_add(map.assign(black_box(a), black_box(incl)));
        }
        black_box(acc);
    })
}

/// Cost of one empty two-item parallel call: the floor under every
/// parallel phase, and the stand-in pool's own contribution to noise.
pub fn rayon_call_overhead_us() -> f64 {
    let items = [0u8; 2];
    ns_per_unit(MICRO_BUDGET, 256, || {
        for _ in 0..256 {
            items.par_iter().for_each(|x| {
                black_box(x);
            });
        }
    }) / 1e3
}

pub fn population_generate_ns_per_sat(seed: u64, n: usize) -> f64 {
    let mut samples = Samples::new();
    for _ in 0..5 {
        let t = Instant::now();
        black_box(crate::inputs::population(seed, n));
        samples.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    samples.median()
}

/// What the replay of one screen found and what each layer cost.
pub struct Replay {
    pub conjunctions: Vec<Conjunction>,
    /// Sum of every timed layer call, s.
    pub layer_sum_s: f64,
    pub values: LayerValues,
}

/// Accumulates the time of calls into one layer, each inside a span.
struct LayerClock<'t> {
    tracer: &'t mut Tracer,
    parent: SpanId,
    request: u64,
}

impl LayerClock<'_> {
    fn time<R>(&mut self, name: &'static str, total: &mut Duration, f: impl FnOnce() -> R) -> R {
        let id = self.tracer.begin(name, Some(self.parent), self.request);
        let t = Instant::now();
        let out = f();
        *total += t.elapsed();
        self.tracer.end(id);
        out
    }
}

/// Walks one screen of `population` layer by layer, exactly the calls and
/// the order of the screeners' default path (`parallel_steps: None`): the
/// planner's step count and cell size, one grid and one pair set reused
/// across steps, parallel propagation and insertion inside a step.
pub fn replay_screen(
    population: &[KeplerElements],
    config: &ScreeningConfig,
    variant: Variant,
    tracer: &mut Tracer,
    request: u64,
) -> Replay {
    let n = population.len();
    let solver = ContourSolver::default();
    let root = tracer.begin("replay", None, request);
    let mut clock = LayerClock {
        tracer,
        parent: root,
        request,
    };
    let plan = MemoryModel::new(variant).plan(n, config);
    let propagator = BatchPropagator::new(population);
    let grid = SpatialGrid::new(n, plan.cell_size_km);
    let pairs = PairSet::with_capacity(plan.pair_capacity);
    let mut positions = vec![Vec3::ZERO; n];

    let mut t_propagate = Duration::ZERO;
    let mut t_reset = Duration::ZERO;
    let mut t_insert = Duration::ZERO;
    let mut t_query = Duration::ZERO;
    let steps = plan.total_steps;
    for step in 0..steps {
        let t = step as f64 * plan.seconds_per_sample;
        clock.time("orbits.propagate", &mut t_propagate, || {
            propagator.positions_into(t, &mut positions)
        });
        if step > 0 {
            clock.time("grid.reset", &mut t_reset, || grid.reset());
        }
        clock.time("grid.insert", &mut t_insert, || {
            grid.insert_all(&positions)
                .expect("grid sized at 2n slots cannot fill up")
        });
        clock.time("grid.query", &mut t_query, || {
            grid.collect_candidate_pairs(step, config.neighbor_scan, &pairs)
        });
    }
    assert_eq!(
        pairs.overflow_count(),
        0,
        "replay does not regrow the pair set; the planner's capacity must hold"
    );

    let mut t_drain = Duration::ZERO;
    let entries = clock.time("grid.pairset.drain", &mut t_drain, || pairs.drain_to_vec());
    let candidate_entries = entries.len();

    let columns = propagator.columns();
    let mut t_filters = Duration::ZERO;
    let mut t_refine = Duration::ZERO;
    let mut filter_pairs = 0usize;
    let mut filter_kept = 0usize;
    let refined_units;
    let found: Vec<Conjunction> = match variant {
        Variant::Hybrid => {
            let grouped = group_pairs(entries);
            filter_pairs = grouped.len();
            let chain = FilterChain::new(FilterConfig::new(config.threshold_km));
            let span = Interval::new(0.0, config.span_seconds);
            let decisions: Vec<FilterDecision> =
                clock.time("filters.chain", &mut t_filters, || {
                    grouped
                        .par_iter()
                        .map(|g| {
                            chain.evaluate(
                                &population[g.id_lo as usize],
                                &population[g.id_hi as usize],
                                span,
                            )
                        })
                        .collect()
                });
            filter_kept = decisions
                .iter()
                .filter(|d| matches!(d, FilterDecision::Windows(_) | FilterDecision::Coplanar))
                .count();
            refined_units = filter_kept;
            clock.time("core.refine", &mut t_refine, || {
                grouped
                    .par_iter()
                    .zip(decisions.par_iter())
                    .flat_map_iter(|(g, decision)| {
                        refine_filtered_pair(
                            &columns.gather(g.id_lo as usize),
                            &columns.gather(g.id_hi as usize),
                            &solver,
                            g,
                            decision,
                            &plan,
                            config.threshold_km,
                        )
                    })
                    .collect()
            })
        }
        _ => {
            refined_units = entries.len();
            clock.time("core.refine", &mut t_refine, || {
                entries
                    .par_iter()
                    .filter_map(|entry| {
                        let a = columns.gather(entry.id_lo as usize);
                        let b = columns.gather(entry.id_hi as usize);
                        let t = entry.step as f64 * plan.seconds_per_sample;
                        let interval = grid_refine_interval(&a, &b, &solver, t, plan.cell_size_km);
                        refine_pair(
                            &a,
                            &b,
                            &solver,
                            entry.id_lo,
                            entry.id_hi,
                            interval,
                            config.threshold_km,
                        )
                    })
                    .collect()
            })
        }
    };
    let mut conjunctions = dedup_conjunctions(found, config.tca_dedup_tolerance_s);
    if variant == Variant::Hybrid {
        // As the hybrid screener does; the grid screener keeps minima its
        // refinement intervals find just outside the span.
        conjunctions.retain(|c| c.tca >= -1e-9 && c.tca <= config.span_seconds + 1e-9);
    }
    tracer.end(root);

    let sat_steps = n as f64 * steps as f64;
    let map_slots = 2.0 * n as f64;
    let per = |total: Duration, units: f64| total.as_nanos() as f64 / units.max(1.0);
    let mut values = LayerValues::new();
    values.insert(
        "orbits.propagate.ns_per_sat_step",
        per(t_propagate, sat_steps),
    );
    // 11 f64 columns read, one Vec3 written, per satellite and step.
    values.insert("orbits.propagate.bytes_per_sat_step", 88.0 + 24.0);
    values.insert(
        "grid.reset.ns_per_slot",
        per(t_reset, map_slots * steps.saturating_sub(1) as f64),
    );
    values.insert("grid.insert.ns_per_entry", per(t_insert, sat_steps));
    values.insert("grid.query.ns_per_entry", per(t_query, sat_steps));
    values.insert(
        "grid.query.pairs_per_step",
        candidate_entries as f64 / steps.max(1) as f64,
    );
    values.insert(
        "grid.pairset.drain_ns_per_pair",
        per(t_drain, candidate_entries as f64),
    );
    values.insert(
        "filters.chain.ns_per_pair",
        per(t_filters, filter_pairs as f64),
    );
    values.insert(
        "filters.chain.kept_ratio",
        filter_kept as f64 / filter_pairs.max(1) as f64,
    );
    values.insert(
        "core.refine.ns_per_pair",
        per(t_refine, refined_units as f64),
    );
    values.insert(
        "core.refine.hit_ratio",
        conjunctions.len() as f64 / refined_units.max(1) as f64,
    );
    let layer_sum_s =
        (t_propagate + t_reset + t_insert + t_query + t_drain + t_filters + t_refine).as_secs_f64();
    Replay {
        conjunctions,
        layer_sum_s,
        values,
    }
}
