//! The Cube method (Liou, Kessler, Matney & Stansbery 2003) — the
//! *statistical* conjunction-rate estimator the paper's related work
//! contrasts with deterministic screening (§II): "The Cube-method divides
//! the space into quadratic volumes and uses randomized object positions
//! on their orbits to fill the volumes. … the volumetric approaches have a
//! runtime complexity linear in the number of objects. However, they can
//! not be used to generate deterministic conjunctions."
//!
//! Our implementation reuses the lock-free spatial grid as the cube
//! structure. Each Monte-Carlo sample places every object at a *uniformly
//! random mean anomaly* on its own orbit; objects sharing a cube
//! contribute a kinetic-theory collision rate
//!
//! ```text
//!   rate(i, j) += s_i · s_j · v_rel · σ · dU
//! ```
//!
//! with `s = 1/dU` the per-object spatial density in the cube volume `dU`
//! and `σ` the collision cross-section. The API deliberately returns
//! *rates*, not conjunctions — reproducing the structural limitation the
//! paper calls out.

use crate::config::ScreeningConfig;
use kessler_grid::pairset::{CandidatePair, PairSet};
use kessler_grid::SpatialGrid;
use kessler_math::Vec3;
use kessler_orbits::{BatchPropagator, ContourSolver, KeplerElements};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Cube-method configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CubeConfig {
    /// Cube edge length `dU^(1/3)`, km. Liou recommends ~1 % of the orbit
    /// altitude; 10 km is the conventional LEO choice.
    pub cube_size_km: f64,
    /// Monte-Carlo samples (each re-randomises every object's anomaly).
    pub samples: u32,
    /// Collision cross-section radius, km (σ = π r²).
    pub cross_section_radius_km: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CubeConfig {
    fn default() -> Self {
        CubeConfig {
            cube_size_km: 10.0,
            samples: 200,
            cross_section_radius_km: 2.0,
            seed: 0xC0BE,
        }
    }
}

/// Result of a Cube run.
#[derive(Debug, Clone, Serialize)]
pub struct CubeReport {
    pub config: CubeConfig,
    pub n_satellites: usize,
    /// Total expected collision rate, events per second.
    pub total_rate_per_s: f64,
    /// Per-pair rates (events/s), only pairs that ever shared a cube.
    pub pair_rates: Vec<((u32, u32), f64)>,
}

impl CubeReport {
    /// Expected number of collision-cross-section crossings over `span`
    /// seconds — comparable in order of magnitude to a deterministic
    /// screening count with threshold = cross-section radius.
    pub fn expected_events(&self, span_seconds: f64) -> f64 {
        self.total_rate_per_s * span_seconds
    }
}

/// Deterministic xorshift64* generator (the Cube method's randomisation
/// must be reproducible for tests, and `kessler-core` keeps `rand` out of
/// its dependency set).
struct Lcg(u64);

impl Lcg {
    fn next_uniform(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Run the Cube estimator.
pub fn cube_estimate(population: &[KeplerElements], config: &CubeConfig) -> CubeReport {
    let n = population.len();
    let solver = ContourSolver::default();
    let propagator = BatchPropagator::new(population);
    let cube_volume = config.cube_size_km.powi(3);
    let sigma = std::f64::consts::PI * config.cross_section_radius_km.powi(2);

    let mut rng = Lcg(config.seed | 1);
    let grid = SpatialGrid::new(n, config.cube_size_km);
    let mut rates: HashMap<(u32, u32), f64> = HashMap::new();

    let mut anomalies = vec![0.0f64; n];
    let mut positions = vec![Vec3::ZERO; n];
    for sample in 0..config.samples {
        // Randomise every object's position along its own orbit.
        for a in anomalies.iter_mut() {
            *a = rng.next_uniform() * std::f64::consts::TAU;
        }
        positions.par_iter_mut().enumerate().for_each(|(i, slot)| {
            let mut el = population[i];
            el.mean_anomaly = anomalies[i];
            let pc = kessler_orbits::PropagationConstants::from_elements(&el);
            *slot = pc.position(0.0, &solver);
        });
        if sample > 0 {
            grid.reset();
        }
        grid.insert_all(&positions)
            .expect("grid sized at 2n cannot fill up");

        // Same-cube pairs only (the Cube method has no neighbour search —
        // the cube *is* the coincidence volume).
        let pairs = PairSet::with_capacity((4 * n).max(1024));
        for slot in grid.occupied_slots() {
            let members: Vec<u32> = grid.cell_members(slot).collect();
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    pairs.insert(CandidatePair::new(a, b, 0));
                }
            }
        }
        // Velocity at the randomised anomaly: the constants with the anomaly
        // overridden (cheap relative to the MC loop).
        let velocity_of = |i: u32| {
            let mut c = propagator.constants_of(i as usize);
            c.m0 = anomalies[i as usize];
            c.propagate(0.0, &solver).velocity
        };
        for p in pairs.drain_to_vec() {
            let v_rel = velocity_of(p.id_lo).dist(velocity_of(p.id_hi));
            // s_i = s_j = 1/dU; rate contribution averaged over samples.
            let contribution = v_rel * sigma / cube_volume / config.samples as f64;
            *rates.entry((p.id_lo, p.id_hi)).or_insert(0.0) += contribution;
        }
    }

    let total_rate_per_s = rates.values().sum();
    let mut pair_rates: Vec<_> = rates.into_iter().collect();
    pair_rates.sort_by(|a, b| b.1.total_cmp(&a.1));
    CubeReport {
        config: *config,
        n_satellites: n,
        total_rate_per_s,
        pair_rates,
    }
}

/// Convenience: derive a CubeConfig from a screening configuration
/// (threshold → cross-section radius).
pub fn cube_config_from(config: &ScreeningConfig, samples: u32, seed: u64) -> CubeConfig {
    CubeConfig {
        cube_size_km: 10.0f64.max(config.threshold_km),
        samples,
        cross_section_radius_km: config.threshold_km,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crossing_shell(n: usize) -> Vec<KeplerElements> {
        // n satellites on crossing circular orbits of the same radius:
        // collisions are geometrically possible for every pair.
        (0..n)
            .map(|i| {
                KeplerElements::new(
                    7_000.0,
                    0.0,
                    0.3 + 2.4 * (i as f64 / n as f64),
                    (i as f64 * 2.39) % std::f64::consts::TAU,
                    0.0,
                    (i as f64 * 1.17) % std::f64::consts::TAU,
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn rate_is_zero_for_disjoint_shells() {
        let pop = vec![
            KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
            KeplerElements::new(12_000.0, 0.0, 1.2, 1.0, 0.0, 2.0).unwrap(),
        ];
        let report = cube_estimate(
            &pop,
            &CubeConfig {
                samples: 100,
                ..Default::default()
            },
        );
        assert_eq!(report.total_rate_per_s, 0.0);
        assert!(report.pair_rates.is_empty());
    }

    #[test]
    fn crossing_orbits_have_positive_rate() {
        let pop = crossing_shell(60);
        // 10 km cubes on a 7000 km sphere make same-cube coincidences
        // astronomically rare at n = 60; test with coarse 150 km cubes.
        let report = cube_estimate(
            &pop,
            &CubeConfig {
                cube_size_km: 150.0,
                samples: 500,
                ..Default::default()
            },
        );
        assert!(
            report.total_rate_per_s > 0.0,
            "60 co-radius crossing orbits must collide eventually"
        );
        // Rates are attributed to real pairs.
        for &((a, b), rate) in &report.pair_rates {
            assert!(a < b && (b as usize) < pop.len());
            assert!(rate > 0.0);
        }
    }

    #[test]
    fn rate_is_deterministic_per_seed() {
        let pop = crossing_shell(30);
        let cfg = CubeConfig {
            cube_size_km: 200.0,
            samples: 150,
            ..Default::default()
        };
        let a = cube_estimate(&pop, &cfg);
        let b = cube_estimate(&pop, &cfg);
        assert_eq!(a.total_rate_per_s, b.total_rate_per_s);
        let c = cube_estimate(&pop, &CubeConfig { seed: 999, ..cfg });
        assert_ne!(a.total_rate_per_s, c.total_rate_per_s);
    }

    #[test]
    fn rate_scales_with_cross_section() {
        // σ ∝ r²: doubling the radius quadruples every contribution.
        let pop = crossing_shell(40);
        let base = CubeConfig {
            cube_size_km: 200.0,
            samples: 200,
            ..Default::default()
        };
        let small = cube_estimate(&pop, &base);
        let big = cube_estimate(
            &pop,
            &CubeConfig {
                cross_section_radius_km: 4.0,
                ..base
            },
        );
        assert!(small.total_rate_per_s > 0.0);
        let ratio = big.total_rate_per_s / small.total_rate_per_s;
        assert!((ratio - 4.0).abs() < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn expected_events_scale_linearly_with_span() {
        let pop = crossing_shell(40);
        let report = cube_estimate(
            &pop,
            &CubeConfig {
                cube_size_km: 200.0,
                samples: 200,
                ..Default::default()
            },
        );
        let one_day = report.expected_events(86_400.0);
        let two_days = report.expected_events(2.0 * 86_400.0);
        assert!((two_days - 2.0 * one_day).abs() < 1e-12);
    }

    #[test]
    fn order_of_magnitude_agrees_with_deterministic_screening() {
        // The paper's point, quantified: on a dense shell the Cube rate
        // must predict the same order of magnitude of sub-threshold
        // encounters as the deterministic grid screener finds.
        use crate::screener::cpu::GridScreener;
        use crate::Screener;
        let pop = crossing_shell(80);
        let span = 5_700.0; // ≈ one orbital period
        let threshold = 5.0;

        let deterministic = GridScreener::new(ScreeningConfig::grid_defaults(threshold, span))
            .screen(&pop)
            .conjunction_count() as f64;
        let cube = cube_estimate(
            &pop,
            &CubeConfig {
                cube_size_km: 50.0,
                samples: 2_000,
                cross_section_radius_km: threshold,
                seed: 7,
            },
        );
        let predicted = cube.expected_events(span);
        assert!(
            predicted > deterministic / 20.0 && predicted < deterministic * 20.0 + 20.0,
            "cube predicts {predicted}, deterministic found {deterministic}"
        );
    }
}
