//! Cross-crate integration test: engineered conjunctions with known
//! TCA/PCA must be found by every screening variant, at the right time,
//! buried inside a non-colliding noise population.

use kessler::prelude::*;
use std::f64::consts::TAU;

/// Build a pair of equal-radius circular orbits in different planes whose
/// satellites both cross the mutual node (the +X axis for raan = 0) at
/// `t_conj`: a guaranteed conjunction with PCA ≈ 0 at a known time.
fn engineered_pair(radius_km: f64, t_conj: f64, inc_a: f64, inc_b: f64) -> [KeplerElements; 2] {
    let n = (kessler::orbits::constants::MU_EARTH / radius_km.powi(3)).sqrt();
    // Mean anomaly at epoch such that M(t_conj) = 0 (the node, since
    // argp = 0 puts perigee — and anomaly zero — on the node line).
    let m0 = (-n * t_conj).rem_euclid(TAU);
    [
        KeplerElements::new(radius_km, 0.0, inc_a, 0.0, 0.0, m0).unwrap(),
        KeplerElements::new(radius_km, 0.0, inc_b, 0.0, 0.0, m0).unwrap(),
    ]
}

/// Non-colliding noise: satellites on well-separated shells.
fn noise(count: usize) -> Vec<KeplerElements> {
    (0..count)
        .map(|i| {
            let f = i as f64;
            KeplerElements::new(
                9_000.0 + 25.0 * f,
                0.001,
                (0.1 + 0.07 * f) % 3.1,
                (0.9 * f) % TAU,
                (1.7 * f) % TAU,
                (2.3 * f) % TAU,
            )
            .unwrap()
        })
        .collect()
}

struct Expected {
    pair: (u32, u32),
    tca: f64,
}

fn build_population() -> (Vec<KeplerElements>, Vec<Expected>) {
    let mut population = Vec::new();
    let mut expected = Vec::new();
    // Three engineered conjunctions on distinct shells at distinct times.
    for (k, (radius, t_conj, inc_a, inc_b)) in [
        (7_000.0, 60.0, 0.4, 1.2),
        (7_400.0, 180.0, 0.9, 2.0),
        (7_800.0, 300.0, 0.2, 1.5),
    ]
    .into_iter()
    .enumerate()
    {
        let base = population.len() as u32;
        population.extend(engineered_pair(radius, t_conj, inc_a, inc_b));
        expected.push(Expected {
            pair: (base, base + 1),
            tca: t_conj,
        });
        let _ = k;
    }
    population.extend(noise(60));
    (population, expected)
}

fn assert_finds_engineered(report: &ScreeningReport, expected: &[Expected]) {
    for e in expected {
        let found = report
            .conjunctions
            .iter()
            .find(|c| c.pair() == e.pair && (c.tca - e.tca).abs() < 2.0);
        let c = found.unwrap_or_else(|| {
            panic!(
                "[{}] engineered conjunction {:?} @ t = {} not found; got {:?}",
                report.variant, e.pair, e.tca, report.conjunctions
            )
        });
        assert!(
            c.pca_km < 0.5,
            "[{}] engineered PCA should be ~0, got {} km",
            report.variant,
            c.pca_km
        );
    }
}

#[test]
fn grid_variant_finds_engineered_conjunctions() {
    let (population, expected) = build_population();
    let config = ScreeningConfig::grid_defaults(2.0, 400.0);
    let report = GridScreener::new(config).screen(&population);
    assert_finds_engineered(&report, &expected);
}

#[test]
fn hybrid_variant_finds_engineered_conjunctions() {
    let (population, expected) = build_population();
    let config = ScreeningConfig::hybrid_defaults(2.0, 400.0);
    let report = HybridScreener::new(config).screen(&population);
    assert_finds_engineered(&report, &expected);
}

#[test]
fn legacy_variant_finds_engineered_conjunctions() {
    let (population, expected) = build_population();
    let config = ScreeningConfig::grid_defaults(2.0, 400.0);
    let report = LegacyScreener::new(config).screen(&population);
    assert_finds_engineered(&report, &expected);
}

#[test]
fn gpusim_variants_find_engineered_conjunctions() {
    let (population, expected) = build_population();
    let grid = GpuScreener::grid(ScreeningConfig::grid_defaults(2.0, 400.0)).screen(&population);
    assert_finds_engineered(&grid, &expected);
    let hybrid =
        GpuScreener::hybrid(ScreeningConfig::hybrid_defaults(2.0, 400.0)).screen(&population);
    assert_finds_engineered(&hybrid, &expected);
}

#[test]
fn tca_and_pca_are_accurate_against_dense_sampling() {
    use kessler::orbits::propagator::PropagationConstants;
    use kessler::orbits::ContourSolver;

    let (population, expected) = build_population();
    let config = ScreeningConfig::grid_defaults(2.0, 400.0);
    let report = GridScreener::new(config).screen(&population);
    let solver = ContourSolver::default();

    for e in &expected {
        let c = report
            .conjunctions
            .iter()
            .find(|c| c.pair() == e.pair && (c.tca - e.tca).abs() < 2.0)
            .unwrap();
        // Dense 1 ms sampling around the reported TCA.
        let a = PropagationConstants::from_elements(&population[c.id_lo as usize]);
        let b = PropagationConstants::from_elements(&population[c.id_hi as usize]);
        let mut best = (0.0, f64::INFINITY);
        let mut t = c.tca - 2.0;
        while t <= c.tca + 2.0 {
            let d = a.position(t, &solver).dist(b.position(t, &solver));
            if d < best.1 {
                best = (t, d);
            }
            t += 0.001;
        }
        assert!(
            (c.tca - best.0).abs() < 0.005,
            "TCA {} vs dense {}",
            c.tca,
            best.0
        );
        assert!(
            (c.pca_km - best.1).abs() < 0.005,
            "PCA {} vs dense {}",
            c.pca_km,
            best.1
        );
    }
}
