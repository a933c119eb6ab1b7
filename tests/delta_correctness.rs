//! Delta re-screening correctness at scale: after k = 64 element updates on
//! an n = 8000 population, a warm delta re-screen must produce *exactly* the
//! conjunction set a cold full re-screen of the mutated population produces —
//! same pairs in both directions, same TCAs and PCAs. The hybrid twin runs
//! the same invariant through the orbital filter chain at n = 4000.

use kessler::prelude::*;
use kessler::service::{DeltaEngine, Pipeline, ShardSpec, HYBRID_DELTA_VARIANT};

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

/// The ISSUE 9 acceptance invariant: with the catalog sharded by orbital
/// regime, both the sharded full screen and a warm sharded delta re-screen
/// must equal the flat, unsharded result *exactly* — same pairs, same TCAs
/// and PCAs to 1e-9 — including satellites parked right on a shard band
/// edge (whose grid cells straddle two shards) and eccentric satellites
/// whose apsis range spans several altitude bands.
#[test]
fn sharded_screens_equal_unsharded_exactly_including_boundary_straddlers() {
    let mut population = PopulationGenerator::new(PopulationConfig {
        seed: 0xDE17A,
        ..Default::default()
    })
    .generate(N);

    // Park satellites on and around an interior altitude-band edge of the
    // default shard layout (8 bands over [6500, 9000] km put edges at
    // 6812.5, 7125, …), plus a few eccentric ones whose perigee and apogee
    // fall in different bands. Their candidate cells are mirrored across
    // the shard boundary, which is exactly the machinery under test.
    let spec = ShardSpec::default();
    let band_edge = spec.r_min_km + (spec.r_max_km - spec.r_min_km) * 2.0 / spec.alt_bands as f64;
    for j in 0..48 {
        let idx = N - 1 - j * 31;
        let el = &population[idx];
        let ecc = if j % 5 == 0 { 0.04 } else { el.eccentricity };
        population[idx] = KeplerElements::new(
            band_edge + (j as f64 - 24.0) * 0.05,
            ecc,
            el.inclination,
            el.raan,
            el.arg_perigee,
            el.mean_anomaly,
        )
        .unwrap();
    }
    let config = ScreeningConfig::grid_defaults(5.0, 120.0);

    // Cold: the sharded full screen must already match the flat screener.
    let pipeline = Pipeline::new(config, Variant::Grid)
        .and_then(|pipeline| pipeline.with_shards(Some(spec)))
        .unwrap();
    let mut engine = DeltaEngine::with_pipeline(pipeline);
    let sharded_full = engine.full_screen(&population);
    let cold_full = GridScreener::new(config).screen(&population);
    assert_reports_identical(&sharded_full, &cold_full);

    // Warm: perturb 64 satellites — the usual stride plus a handful of the
    // boundary straddlers — and compare the sharded delta re-screen against
    // a cold unsharded screen of the mutated population.
    let mut mutated = population.clone();
    let mut changed: Vec<u32> = Vec::with_capacity(K);
    for j in 0..K {
        let idx = if j < 8 { N - 1 - j * 31 } else { (j * 127) % N };
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
    let mut engine = DeltaEngine::with_pipeline(Pipeline::new(config, Variant::Hybrid).unwrap());
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
