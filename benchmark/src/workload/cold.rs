//! `cold_grid` and `cold_hybrid`: the paper's one-shot screen, called as a
//! library function.

use super::{Options, Outcome};
use crate::inputs::{self, fingerprint};
use crate::layers;
use crate::spec;
use crate::stats::Samples;
use crate::trace::Tracer;
use kessler_core::{
    GridScreener, HybridScreener, LegacyScreener, Screener, ScreeningConfig, ScreeningReport,
    Variant,
};
use kessler_orbits::KeplerElements;
use std::time::Instant;

const THRESHOLD_KM: f64 = 10.0;

fn config_for(variant: Variant, span_s: f64) -> ScreeningConfig {
    match variant {
        Variant::Hybrid => ScreeningConfig::hybrid_defaults(THRESHOLD_KM, span_s),
        _ => ScreeningConfig::grid_defaults(THRESHOLD_KM, span_s),
    }
}

fn screener_for(variant: Variant, config: ScreeningConfig) -> Box<dyn Screener> {
    match variant {
        Variant::Hybrid => Box::new(HybridScreener::new(config)),
        _ => Box::new(GridScreener::new(config)),
    }
}

/// The `n` satellites packed into the narrowest band of semi-major axis:
/// where the population is densest, so the quadratic reference screen has
/// the most close approaches to find for its cost.
fn densest_band(population: &[KeplerElements], n: usize) -> Vec<KeplerElements> {
    let mut sorted: Vec<&KeplerElements> = population.iter().collect();
    sorted.sort_by(|a, b| a.semi_major_axis.total_cmp(&b.semi_major_axis));
    let n = n.min(sorted.len());
    let start = (0..=sorted.len() - n)
        .min_by(|&i, &j| {
            let width = |k: usize| sorted[k + n - 1].semi_major_axis - sorted[k].semi_major_axis;
            width(i).total_cmp(&width(j))
        })
        .unwrap_or(0);
    sorted[start..start + n].iter().map(|&el| *el).collect()
}

/// The paper's §V-D claim as a gate: every colliding pair the O(n²) legacy
/// screen finds, this variant finds too.
fn reference_gate(
    outcome: &mut Outcome,
    population: &[KeplerElements],
    variant: Variant,
    options: &Options,
) {
    let subset = densest_band(population, options.sizes.reference_n);
    let span = options.sizes.cold_span_s;
    let reference = LegacyScreener::new(ScreeningConfig::hybrid_defaults(THRESHOLD_KM, span))
        .parallel(true)
        .screen(&subset);
    let candidate = screener_for(variant, config_for(variant, span)).screen(&subset);
    let found = candidate.colliding_pairs();
    let expected = reference.colliding_pairs();
    println!(
        "gate reference n={} legacy_pairs={} {}_pairs={}",
        subset.len(),
        expected.len(),
        variant.label(),
        found.len()
    );
    for pair in &expected {
        outcome.op(found.contains(pair), || {
            format!(
                "{} missed colliding pair {pair:?} that the O(n^2) reference found",
                variant.label()
            )
        });
    }
    // Two screens ran even when the reference found nothing to compare.
    outcome.ops_ok(2);
}

fn phase_percentages(outcome: &mut Outcome, reports: &[ScreeningReport]) {
    let median_pct = |pick: fn(&ScreeningReport) -> f64| -> f64 {
        reports.iter().map(pick).collect::<Samples>().median()
    };
    outcome.layer(
        "core.phase.insertion_pct",
        median_pct(|r| 100.0 * r.timings.fraction(r.timings.insertion)),
    );
    outcome.layer(
        "core.phase.pair_extraction_pct",
        median_pct(|r| 100.0 * r.timings.fraction(r.timings.pair_extraction)),
    );
    outcome.layer(
        "core.phase.filters_pct",
        median_pct(|r| 100.0 * r.timings.fraction(r.timings.filters)),
    );
    outcome.layer(
        "core.phase.refinement_pct",
        median_pct(|r| 100.0 * r.timings.fraction(r.timings.refinement)),
    );
}

pub fn run(variant: Variant, options: &Options) -> Outcome {
    let name = match variant {
        Variant::Hybrid => spec::COLD_HYBRID,
        _ => spec::COLD_GRID,
    };
    let mut outcome = Outcome::new(name);
    let n = options.sizes.cold_n;
    let config = config_for(variant, options.sizes.cold_span_s);

    // Set-up: the population, the screener, and the first screen, which
    // spawns the pool's workers, faults in the pages and runs whatever the
    // program initialises lazily — work moved out of the timed screens into
    // a first call shows here. Taken once: population and screener alone
    // are milliseconds, too short to repeat within a quarter, and the
    // first screen is seconds.
    let t = Instant::now();
    let population = inputs::population(options.seed, n);
    let screener = screener_for(variant, config);
    let warm = screener.screen(&population);
    let setup_s = t.elapsed().as_secs_f64();
    outcome.ops_ok(1);
    let expected_conjunctions = warm.conjunction_count();

    let mut tracer = Tracer::new(false);
    let mut untraced = Samples::new();
    let mut traced = Samples::new();
    let mut reports: Vec<ScreeningReport> = Vec::new();
    let window = Instant::now();
    let budget = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    let enough = |untraced: &Samples, traced: &Samples| {
        if options.trace {
            !untraced.is_empty() && !traced.is_empty()
        } else {
            untraced.len() >= 3
        }
    };
    while !enough(&untraced, &traced) || window.elapsed().as_secs_f64() < budget {
        // A traced run alternates untraced and traced screens, so both
        // medians see the same machine state.
        let with_spans = options.trace && untraced.len() > traced.len();
        tracer.set_enabled(with_spans);
        let request = reports.len() as u64;
        let span = tracer.begin("core.screen", None, request);
        let t = Instant::now();
        let report = screener.screen(&population);
        let elapsed = t.elapsed().as_secs_f64();
        tracer.end(span);
        tracer.reported_stages(
            span,
            request,
            &[
                ("core.phase.insertion", report.timings.insertion),
                ("core.phase.pair_extraction", report.timings.pair_extraction),
                ("core.phase.filters", report.timings.filters),
                ("core.phase.refinement", report.timings.refinement),
            ],
        );
        if with_spans {
            traced.push(elapsed);
        } else {
            untraced.push(elapsed);
        }
        outcome.op(report.conjunction_count() == expected_conjunctions, || {
            format!(
                "screen {} found {} conjunctions, the warm-up found {expected_conjunctions}",
                reports.len(),
                report.conjunction_count()
            )
        });
        reports.push(report);
    }
    let screen_s = untraced.median();
    println!("samples screen_s {}", untraced.listing());
    let last = reports.last().expect("at least one timed screen");
    outcome.conjunctions = last.conjunction_count();
    outcome.fingerprint = fingerprint(
        last.conjunction_count(),
        last.colliding_pairs().into_iter().collect(),
    );
    phase_percentages(&mut outcome, &reports);
    outcome.samples.insert(spec::SCREEN_S, untraced.len());
    outcome.samples.insert(spec::SETUP_S, 1);

    if !options.trace {
        let steps = f64::from(last.planner.total_steps);
        outcome.e2e.insert(spec::SETUP_S, setup_s);
        outcome.e2e.insert(spec::SCREEN_S, screen_s);
        outcome.e2e.insert(spec::REQUEST_MS, screen_s * 1e3);
        outcome
            .e2e
            .insert(spec::THROUGHPUT_PER_S, n as f64 * steps / screen_s);
        reference_gate(&mut outcome, &population, variant, options);
        return outcome;
    }

    // Per-layer pass. The replay is the same screen taken apart.
    tracer.set_enabled(true);
    let replay = layers::replay_screen(&population, &config, variant, &mut tracer, u64::MAX);
    outcome.op(replay.conjunctions.len() == expected_conjunctions, || {
        format!(
            "layer replay found {} conjunctions, screen() found {expected_conjunctions}",
            replay.conjunctions.len()
        )
    });
    outcome.layers_from(replay.values);
    outcome.layer(
        "core.replay.residual_pct",
        100.0 * (screen_s - replay.layer_sum_s) / screen_s,
    );
    outcome.layer(
        "trace.overhead_pct",
        100.0 * (traced.median() - screen_s) / screen_s,
    );

    let threads = rayon::current_num_threads();
    let single = screener_for(
        variant,
        ScreeningConfig {
            threads: Some(1),
            ..config
        },
    );
    let t = Instant::now();
    let report = single.screen(&population);
    let single_s = t.elapsed().as_secs_f64();
    outcome.op(report.conjunction_count() == expected_conjunctions, || {
        "single-threaded screen disagrees with the parallel one".to_string()
    });
    println!("threads {threads} single_thread_screen_s {single_s:.6}");
    outcome.layer(
        "core.scaling.efficiency",
        single_s / (threads as f64 * screen_s),
    );

    outcome.layer("orbits.kepler.solve_ns", layers::kepler_solve_ns());
    outcome.layer("math.brent.minimize_ns", layers::brent_minimize_ns());
    let (insert_ns, _) = layers::pairset_ns();
    outcome.layer("grid.pairset.insert_ns", insert_ns);
    outcome.layer(
        "offline.rayon.call_overhead_us",
        layers::rayon_call_overhead_us(),
    );
    outcome.layer(
        "population.generate.ns_per_sat",
        layers::population_generate_ns_per_sat(options.seed, n),
    );

    let path = options.out_dir.join(format!("trace_{name}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        outcome.op(false, || format!("writing {}: {e}", path.display()));
    }
    outcome
}
