//! Delta re-screening correctness at scale: after k = 64 element updates on
//! an n = 8000 population, a warm delta re-screen must produce *exactly* the
//! conjunction set a cold full re-screen of the mutated population produces —
//! same pairs in both directions, same TCAs and PCAs. The hybrid twin runs
//! the same invariant through the orbital filter chain at n = 4000, and a
//! seeded case holds the daemon's screens and a DELTA's culled extraction
//! to the cold screeners bit for bit.

use kessler::core::PhaseTimings;
use kessler::core::{CpuScreener, Extraction};
use kessler::grid::grid::NeighborScan;
use kessler::math::Vec3;
use kessler::orbits::BatchPropagator;
use kessler::prelude::*;
use kessler::service::persist::{SHARD_R_MAX_KM, SHARD_R_MIN_KM};
use kessler::service::{DeltaEngine, HYBRID_DELTA_VARIANT};
use std::collections::BTreeSet;

const N: usize = 8_000;
const K: usize = 64;

#[test]
fn delta_rescreen_equals_cold_rescreen_after_64_updates() {
    let population = PopulationGenerator::new(PopulationConfig {
        seed: 0xDE17A,
        ..Default::default()
    })
    .generate(N);
    let config = ScreeningConfig::grid_defaults(5.0, 120.0);

    // Warm the engine on the original population.
    let mut engine = DeltaEngine::new(config).unwrap();
    engine.full_screen(&population);

    // Perturb 64 distinct satellites (127 is coprime with 8000, so the
    // indices j·127 mod 8000 never repeat).
    let mut mutated = population.clone();
    let mut changed: Vec<u32> = Vec::with_capacity(K);
    for j in 0..K {
        let idx = (j * 127) % N;
        let el = &mutated[idx];
        mutated[idx] = KeplerElements::new(
            el.semi_major_axis + 0.5,
            el.eccentricity,
            el.inclination,
            el.raan + 0.01,
            el.arg_perigee,
            el.mean_anomaly + 0.3,
        )
        .unwrap();
        changed.push(idx as u32);
    }

    let delta_report = engine.delta_screen(&mutated, &changed);
    let cold_report = GridScreener::new(config).screen(&mutated);

    assert_reports_identical(&delta_report, &cold_report);
}

#[test]
fn hybrid_delta_rescreen_equals_cold_hybrid_rescreen_after_64_updates() {
    const HYBRID_N: usize = 4_000;
    let population = PopulationGenerator::new(PopulationConfig {
        seed: 0xDE17A,
        ..Default::default()
    })
    .generate(HYBRID_N);
    let config = ScreeningConfig::hybrid_defaults(5.0, 120.0);

    // Warm the engine on the original population.
    let mut engine = DeltaEngine::with_screener(HybridScreener::new(config));
    engine.full_screen(&population);

    // Perturb 64 distinct satellites (127 is coprime with 4000, so the
    // indices j·127 mod 4000 never repeat).
    let mut mutated = population.clone();
    let mut changed: Vec<u32> = Vec::with_capacity(K);
    for j in 0..K {
        let idx = (j * 127) % HYBRID_N;
        let el = &mutated[idx];
        mutated[idx] = KeplerElements::new(
            el.semi_major_axis + 0.5,
            el.eccentricity,
            el.inclination,
            el.raan + 0.01,
            el.arg_perigee,
            el.mean_anomaly + 0.3,
        )
        .unwrap();
        changed.push(idx as u32);
    }

    let delta_report = engine.delta_screen(&mutated, &changed);
    assert_eq!(
        delta_report.variant, HYBRID_DELTA_VARIANT,
        "a warm hybrid engine must take the hybrid delta path"
    );
    let cold_report = HybridScreener::new(config).screen(&mutated);

    assert_reports_identical(&delta_report, &cold_report);
}

/// splitmix64 (Steele, Lea & Flood): the whole generator state is one
/// `u64`, so a failing case replays from the seed its message prints.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Whatever the snapshot layout, a screen runs on one grid: a SCREEN and a
/// DELTA find the cold screener's conjunctions to the bit, from the same
/// number of candidate entries. The population has groups of four meeting
/// at one node at one moment, at radii on band edges of the 8- and 2-band
/// layouts, among them eccentric ones whose apsides lie bands apart; the
/// changed set is drawn at random, half of it from those.
#[test]
fn every_layout_screens_and_deltas_bit_identical_to_the_cold_screeners() {
    const N: usize = 1_500;
    const SPECIAL: usize = 120;
    let band_width = (SHARD_R_MAX_KM - SHARD_R_MIN_KM) / 8.0;

    for seed in [1u64, 2, 3] {
        let mut rng = SplitMix64(seed);
        let mut population = PopulationGenerator::new(PopulationConfig {
            seed,
            ..Default::default()
        })
        .generate(N);
        // Groups of four through one node at one moment, at radii within
        // 2 km of a band edge: interior edges of the 8-band layout, the
        // fourth of which is also the 2-band layout's only edge. One of
        // the four is eccentric, at perigee there.
        for group in 0..SPECIAL / 4 {
            let edge = SHARD_R_MIN_KM + band_width * (1 + group % 4) as f64;
            let raan = std::f64::consts::TAU * rng.unit();
            let at_node = 20.0 + 140.0 * rng.unit();
            for member in 0..4 {
                let e = if member == 0 {
                    0.03 + 0.05 * rng.unit()
                } else {
                    0.0
                };
                let a = (edge + 4.0 * (rng.unit() - 0.5)) / (1.0 - e);
                let inclination = 0.3 + 0.6 * member as f64 + 0.2 * rng.unit();
                let mut el = KeplerElements::new(a, e, inclination, raan, 0.0, 0.0).unwrap();
                el.mean_anomaly = (-el.mean_motion() * at_node).rem_euclid(std::f64::consts::TAU);
                population[group * 4 + member] = el;
            }
        }

        let mut changed = BTreeSet::new();
        while changed.len() < 48 {
            let pool = if changed.len() < 24 { SPECIAL } else { N };
            changed.insert((rng.unit() * pool as f64) as u32);
        }
        let changed: Vec<u32> = changed.into_iter().collect();
        let mut mutated = population.clone();
        for &idx in &changed {
            let el = &mutated[idx as usize];
            mutated[idx as usize] = KeplerElements::new(
                el.semi_major_axis + rng.unit() - 0.5,
                el.eccentricity,
                el.inclination,
                el.raan,
                el.arg_perigee,
                el.mean_anomaly + 0.002 * (rng.unit() - 0.5),
            )
            .unwrap();
        }

        for variant in [Variant::Grid, Variant::Hybrid] {
            let what = format!("seed {seed}, {}", variant.label());
            let (config, cold_before, cold_after) = match variant {
                Variant::Hybrid => {
                    let config = ScreeningConfig::hybrid_defaults(10.0, 180.0);
                    let screener = HybridScreener::new(config);
                    (
                        config,
                        screener.screen(&population),
                        screener.screen(&mutated),
                    )
                }
                _ => {
                    let config = ScreeningConfig::grid_defaults(10.0, 180.0);
                    let screener = GridScreener::new(config);
                    (
                        config,
                        screener.screen(&population),
                        screener.screen(&mutated),
                    )
                }
            };

            let mut engine = DeltaEngine::with_screener(CpuScreener::new(variant, config).unwrap());
            let full = engine.full_screen(&population);
            assert_bit_identical(&full, &cold_before, &what);
            // The full screen is the cold screen: the same candidates and
            // filter decisions, not only the same conjunctions.
            assert_eq!(
                (full.candidate_entries, full.candidate_pairs),
                (cold_before.candidate_entries, cold_before.candidate_pairs),
                "{what}"
            );
            assert_eq!(full.filter_stats, cold_before.filter_stats, "{what}");
            let delta = engine.delta_screen(&mutated, &changed);
            assert_bit_identical(&delta, &cold_after, &what);
            assert!(delta.conjunction_count() > 0, "{what}");

            // The same delta's extraction, run directly. The per-step path
            // inserts everyone once per step; the culled run finds the same
            // entries inserting every changed satellite at every step and
            // fewer than everyone.
            let planner = cold_after.planner;
            let propagator = BatchPropagator::new(&mutated);
            let (entries, inserts) =
                Extraction::new(&changed, planner.cell_size_km, NeighborScan::Half)
                    .run(&propagator, &planner, &mut PhaseTimings::default(), None)
                    .expect("no token, no cancellation");
            assert_eq!(entries.len(), delta.candidate_entries, "{what}");
            let steps = u64::from(planner.total_steps);
            assert!(
                (changed.len() as u64 * steps..N as u64 * steps).contains(&inserts),
                "{what}: {inserts} inserts"
            );

            let mut every_step =
                Extraction::new(&changed, planner.cell_size_km, NeighborScan::Half);
            let mut positions = vec![Vec3::ZERO; N];
            let everyone: Vec<u32> = (0..N as u32).collect();
            for step in 0..planner.total_steps {
                propagator.positions_into(step as f64 * planner.seconds_per_sample, &mut positions);
                every_step.step(step, &positions, &everyone, &mut PhaseTimings::default());
            }
            let (every_entries, every_inserts) = every_step.finish();
            assert_eq!(every_entries, entries, "{what}");
            assert_eq!(every_inserts, N as u64 * steps, "{what}");
        }
    }
}

/// Same conjunctions in the same order, TCA and PCA equal to the bit.
fn assert_bit_identical(got: &ScreeningReport, want: &ScreeningReport, what: &str) {
    assert_eq!(
        got.conjunction_count(),
        want.conjunction_count(),
        "{what}: {:?} / {:?}",
        got.pairs_missing_from(want),
        want.pairs_missing_from(got)
    );
    for (g, w) in got.conjunctions.iter().zip(&want.conjunctions) {
        assert_eq!(g.pair(), w.pair(), "{what}");
        assert_eq!(g.tca.to_bits(), w.tca.to_bits(), "{what}: {:?}", g.pair());
        assert_eq!(
            g.pca_km.to_bits(),
            w.pca_km.to_bits(),
            "{what}: {:?}",
            g.pair()
        );
    }
}

/// Exact-equality comparison of two screening reports: identical pair sets
/// in both directions, identical multiplicities, and one-to-one TCA/PCA
/// agreement within floating-point noise.
fn assert_reports_identical(delta_report: &ScreeningReport, cold_report: &ScreeningReport) {
    assert_eq!(
        delta_report.pairs_missing_from(cold_report),
        Vec::<(u32, u32)>::new(),
        "delta found pairs the cold screen did not"
    );
    assert_eq!(
        cold_report.pairs_missing_from(delta_report),
        Vec::<(u32, u32)>::new(),
        "cold screen found pairs the delta missed"
    );
    assert_eq!(
        delta_report.conjunction_count(),
        cold_report.conjunction_count(),
        "per-pair conjunction multiplicities differ"
    );

    // Identical pair sets and counts: compare the records one-to-one.
    let mut delta_conjunctions = delta_report.conjunctions.clone();
    let mut cold_conjunctions = cold_report.conjunctions.clone();
    let sort_key = |c: &Conjunction| (c.id_lo, c.id_hi, c.tca);
    delta_conjunctions.sort_by(|a, b| sort_key(a).partial_cmp(&sort_key(b)).unwrap());
    cold_conjunctions.sort_by(|a, b| sort_key(a).partial_cmp(&sort_key(b)).unwrap());
    for (d, c) in delta_conjunctions.iter().zip(&cold_conjunctions) {
        assert_eq!((d.id_lo, d.id_hi), (c.id_lo, c.id_hi));
        assert!(
            (d.tca - c.tca).abs() < 1e-9,
            "TCA drift on ({}, {}): {} vs {}",
            d.id_lo,
            d.id_hi,
            d.tca,
            c.tca
        );
        assert!(
            (d.pca_km - c.pca_km).abs() < 1e-9,
            "PCA drift on ({}, {}): {} vs {}",
            d.id_lo,
            d.id_hi,
            d.pca_km,
            c.pca_km
        );
    }
}
