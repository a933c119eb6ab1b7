//! Batch propagation must agree with the scalar reference path.
//!
//! [`BatchPropagator`] computes positions in parallel chunks over its
//! per-satellite records, while [`PropagationConstants::propagate`] walks
//! one satellite at a time with a per-call [`ContourSolver`] and also
//! derives the velocity. The two paths share every arithmetic step of the
//! position in the same order, so they are required to agree to 1e-12
//! (and in fact bit-for-bit) across the full element domain:
//! near-circular and highly eccentric (e → 0.9), prograde and retrograde,
//! near-equatorial and near-polar — including empty, tiny and odd-sized
//! populations.

use kessler_math::Vec3;
use kessler_orbits::propagator::PropagationConstants;
use kessler_orbits::{BatchPropagator, ContourSolver, KeplerElements};
use proptest::prelude::*;
use std::f64::consts::{PI, TAU};

/// Componentwise |batch − scalar| ≤ 1e-12 · (1 + |scalar|): absolute in the
/// sub-metre regime, relative at LEO/GEO magnitudes (thousands of km).
const TOL: f64 = 1e-12;

fn assert_close(batch: f64, scalar: f64, what: &str) {
    let bound = TOL * (1.0 + scalar.abs());
    assert!(
        (batch - scalar).abs() <= bound,
        "{what}: batch {batch} vs scalar {scalar} (|Δ| = {:e} > {bound:e})",
        (batch - scalar).abs()
    );
}

/// Compare every satellite of `population` at `dt` through both paths.
fn check_population(population: &[KeplerElements], dt: f64) {
    let solver = ContourSolver::default();
    let batch = BatchPropagator::new(population);
    let mut positions = vec![Vec3::ZERO; population.len()];
    batch.positions_into(dt, &mut positions);
    assert_eq!(positions.len(), population.len());
    for (i, el) in population.iter().enumerate() {
        let scalar = PropagationConstants::from_elements(el).propagate(dt, &solver);
        for (axis, (b, s)) in [
            (positions[i].x, scalar.position.x),
            (positions[i].y, scalar.position.y),
            (positions[i].z, scalar.position.z),
        ]
        .iter()
        .enumerate()
        .map(|(axis, pair)| (axis, *pair))
        {
            assert_close(b, s, &format!("sat {i} position axis {axis}"));
        }
    }
}

/// A deterministic population of `n` satellites spread across the element
/// domain.
fn spread_population(n: usize, base: &KeplerElements) -> Vec<KeplerElements> {
    (0..n)
        .map(|i| {
            let f = i as f64;
            KeplerElements::new(
                base.semi_major_axis + 13.7 * f,
                (base.eccentricity + 0.013 * f) % 0.9,
                (base.inclination + 0.21 * f) % PI,
                base.raan + 0.5 * f,
                base.arg_perigee + 0.7 * f,
                base.mean_anomaly + 1.1 * f,
            )
            .expect("spread elements stay in the valid domain")
        })
        .collect()
}

#[test]
fn eccentric_orbits_match_scalar_propagation() {
    // e → 0.9: the Kepler solve works hardest here, so any divergence
    // between the node-table and per-call solver paths would surface.
    let base = KeplerElements::new(12_000.0, 0.9, 1.1, 0.3, 2.0, 4.5).unwrap();
    let population: Vec<KeplerElements> = (0..19)
        .map(|i| {
            KeplerElements::new(
                12_000.0 + 20.0 * i as f64,
                0.9 - 0.002 * i as f64,
                base.inclination,
                base.raan + 0.1 * i as f64,
                base.arg_perigee,
                0.33 * i as f64,
            )
            .unwrap()
        })
        .collect();
    for dt in [0.0, 17.0, 900.0, 7_200.0] {
        check_population(&population, dt);
    }
}

#[test]
fn retrograde_orbits_match_scalar_propagation() {
    // Inclination past π/2 up to nearly π: the orientation vectors flip
    // sign patterns relative to prograde orbits.
    let base = KeplerElements::new(7_200.0, 0.02, PI - 1e-3, 5.0, 1.0, 0.0).unwrap();
    let population = spread_population(21, &base);
    for dt in [0.0, 60.0, 3_600.0] {
        check_population(&population, dt);
    }
}

#[test]
fn near_equatorial_orbits_match_scalar_propagation() {
    // Inclination ≈ 0 (and the wrapped spread stays near-planar): RAAN
    // becomes nearly degenerate with the argument of perigee, a classic
    // source of frame-construction bugs.
    let base = KeplerElements::new(42_164.0, 0.0003, 1e-9, 0.0, 4.0, 2.2).unwrap();
    let population: Vec<KeplerElements> = (0..9)
        .map(|i| {
            KeplerElements::new(
                base.semi_major_axis - 3.0 * i as f64,
                base.eccentricity,
                1e-9 + 1e-7 * i as f64,
                0.9 * i as f64,
                base.arg_perigee,
                0.7 * i as f64,
            )
            .unwrap()
        })
        .collect();
    for dt in [0.0, 300.0, 43_200.0] {
        check_population(&population, dt);
    }
}

#[test]
fn remainder_lane_widths_match_scalar_propagation() {
    // Population sizes from empty through small and odd, with the powers
    // of two and their neighbours among them.
    let base = KeplerElements::new(7_000.0, 0.01, 0.9, 0.1, 0.2, 0.3).unwrap();
    for n in [0usize, 1, 5, 7, 8, 9, 16, 17, 37] {
        let population = spread_population(n, &base);
        check_population(&population, 451.0);
    }
}

#[test]
fn batch_propagation_is_bit_identical_to_scalar() {
    // Stronger than the 1e-12 contract: the batch loop runs the scalar
    // position kernel, so the delta-screening layer's exact-equality
    // invariants (delta == cold full screen) stay sound.
    let base = KeplerElements::new(8_000.0, 0.4, 2.3, 1.0, 3.0, 5.0).unwrap();
    let population = spread_population(27, &base);
    let solver = ContourSolver::default();
    let batch = BatchPropagator::new(&population);
    let mut positions = vec![Vec3::ZERO; population.len()];
    batch.positions_into(1_234.5, &mut positions);
    for (i, el) in population.iter().enumerate() {
        let scalar = PropagationConstants::from_elements(el).propagate(1_234.5, &solver);
        assert_eq!(positions[i].x.to_bits(), scalar.position.x.to_bits());
        assert_eq!(positions[i].y.to_bits(), scalar.position.y.to_bits());
        assert_eq!(positions[i].z.to_bits(), scalar.position.z.to_bits());
    }
}

proptest! {
    /// Fuzz the full element domain: any valid orbit, any time offset up
    /// to ~8 hours, at population widths from 1 to 12.
    #[test]
    fn fuzz_batch_matches_scalar(
        a in 6_800.0..45_000.0f64,
        e in 0.0..0.9f64,
        incl in 0.0..PI,
        raan in 0.0..TAU,
        argp in 0.0..TAU,
        m0 in 0.0..TAU,
        dt in 0.0..28_800.0f64,
        n in 1usize..13,
    ) {
        let base = KeplerElements::new(a, e, incl, raan, argp, m0).unwrap();
        let population = spread_population(n, &base);
        let solver = ContourSolver::default();
        let batch = BatchPropagator::new(&population);
        let mut positions = vec![Vec3::ZERO; population.len()];
        batch.positions_into(dt, &mut positions);
        for (i, el) in population.iter().enumerate() {
            let scalar = PropagationConstants::from_elements(el).propagate(dt, &solver);
            for (b, s) in [
                (positions[i].x, scalar.position.x),
                (positions[i].y, scalar.position.y),
                (positions[i].z, scalar.position.z),
            ] {
                let bound = TOL * (1.0 + s.abs());
                prop_assert!(
                    (b - s).abs() <= bound,
                    "sat {i}: batch {b} vs scalar {s} at dt {dt}"
                );
            }
        }
    }
}
