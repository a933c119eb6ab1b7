//! KDE-backed synthetic population generator (Table II of the paper).
//!
//! | Kepler element            | Value range        |
//! |---------------------------|--------------------|
//! | Semi-major axis           | from distribution  |
//! | Eccentricity              | from distribution  |
//! | Inclination               | 0 – π              |
//! | RAAN                      | 0 – 2π             |
//! | Argument of perigee       | 0 – 2π             |
//! | (Mean anomaly)            | 0 – 2π             |
//! | True anomaly              | from mean anomaly  |
//!
//! (a, e) pairs come from a bivariate Gaussian KDE over the anchor catalog;
//! the other elements are uniform. Draws whose perigee would dip below a
//! configurable floor (decayed orbits) or whose eccentricity leaves [0, 1)
//! are rejected and resampled, which truncates the KDE tails to the
//! physical domain.

use crate::catalog;
use kessler_math::kde::{rand_like::UniformSource, Kde2d};
use kessler_orbits::constants::R_EARTH;
use kessler_orbits::KeplerElements;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::f64::consts::{PI, TAU};

/// Adapter: any `rand::Rng` is a `UniformSource` for the KDE sampler.
struct RngSource<'a, R: Rng>(&'a mut R);

impl<R: Rng> UniformSource for RngSource<'_, R> {
    fn next_uniform(&mut self) -> f64 {
        self.0.gen::<f64>()
    }
}

/// Configuration of the generator.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// RNG seed — identical seeds generate identical populations, which is
    /// how the accuracy experiment feeds the same population to all three
    /// screener variants.
    pub seed: u64,
    /// Lowest admissible perigee altitude above the surface, km.
    pub min_perigee_altitude_km: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            seed: 0x5EED_CAFE,
            min_perigee_altitude_km: 180.0,
        }
    }
}

/// The generator itself. Construction builds the KDE once; `generate` can
/// then be called for any population size.
pub struct PopulationGenerator {
    kde: Kde2d,
    config: PopulationConfig,
}

/// Kernel bandwidth in the semi-major-axis direction, km.
///
/// The catalog is strongly multimodal (LEO shells, MEO, GEO), so a global
/// Scott's-rule bandwidth would smear the modes into one blob; a fixed
/// per-cluster bandwidth preserves the Fig. 9 concentration structure.
const BANDWIDTH_SMA_KM: f64 = 40.0;
/// Kernel bandwidth in the eccentricity direction.
const BANDWIDTH_ECC: f64 = 0.0015;

impl PopulationGenerator {
    /// Build from the embedded anchor catalog.
    pub fn new(config: PopulationConfig) -> PopulationGenerator {
        let kde = Kde2d::with_bandwidth(catalog::anchors(), BANDWIDTH_SMA_KM, BANDWIDTH_ECC)
            .expect("embedded catalog is non-degenerate");
        PopulationGenerator { kde, config }
    }

    /// Build from caller-supplied anchors (e.g. parsed from a real TLE
    /// catalog via [`crate::tle`]).
    pub fn from_anchors(
        anchors: Vec<(f64, f64)>,
        config: PopulationConfig,
    ) -> Option<PopulationGenerator> {
        Some(PopulationGenerator {
            kde: Kde2d::from_anchors(anchors)?,
            config,
        })
    }

    /// Density of the underlying KDE (used by the Fig. 9 experiment).
    pub fn density(&self, semi_major_axis: f64, eccentricity: f64) -> f64 {
        self.kde.density(semi_major_axis, eccentricity)
    }

    /// Generate `n` satellites.
    pub fn generate(&self, n: usize) -> Vec<KeplerElements> {
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let mut out = Vec::with_capacity(n);
        let min_perigee = R_EARTH + self.config.min_perigee_altitude_km;
        while out.len() < n {
            let (a, e) = self.kde.sample(&mut RngSource(&mut rng));
            // Reject unphysical KDE tail samples.
            if !(0.0..1.0).contains(&e) || a <= min_perigee {
                continue;
            }
            if a * (1.0 - e) < min_perigee {
                continue;
            }
            let inclination = rng.gen_range(0.0..PI);
            let raan = rng.gen_range(0.0..TAU);
            let arg_perigee = rng.gen_range(0.0..TAU);
            let mean_anomaly = rng.gen_range(0.0..TAU);
            let el = KeplerElements::new(a, e, inclination, raan, arg_perigee, mean_anomaly)
                .expect("generated elements are valid by construction");
            out.push(el);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(n: usize, seed: u64) -> Vec<KeplerElements> {
        PopulationGenerator::new(PopulationConfig {
            seed,
            ..Default::default()
        })
        .generate(n)
    }

    #[test]
    fn generates_requested_count() {
        assert_eq!(gen(0, 1).len(), 0);
        assert_eq!(gen(100, 1).len(), 100);
        assert_eq!(gen(2_000, 1).len(), 2_000);
    }

    #[test]
    fn is_deterministic_per_seed() {
        let a = gen(50, 42);
        let b = gen(50, 42);
        assert_eq!(a, b);
        let c = gen(50, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn table_two_ranges_hold() {
        for el in gen(2_000, 7) {
            assert!(el.semi_major_axis > R_EARTH);
            assert!((0.0..1.0).contains(&el.eccentricity));
            assert!((0.0..PI).contains(&el.inclination));
            assert!((0.0..TAU).contains(&el.raan));
            assert!((0.0..TAU).contains(&el.arg_perigee));
            assert!((0.0..TAU).contains(&el.mean_anomaly));
        }
    }

    #[test]
    fn perigee_floor_is_enforced() {
        let config = PopulationConfig {
            seed: 3,
            min_perigee_altitude_km: 300.0,
        };
        for el in PopulationGenerator::new(config).generate(1_000) {
            assert!(
                el.perigee_radius() >= R_EARTH + 300.0 - 1e-9,
                "perigee altitude {}",
                el.perigee_radius() - R_EARTH
            );
        }
    }

    #[test]
    fn distribution_concentrates_at_the_leo_hotspot() {
        // Fig. 9's headline feature: strong concentration at a ≈ 7000 km,
        // e ≈ 0.0025.
        let pop = gen(5_000, 11);
        let hotspot = pop
            .iter()
            .filter(|el| (6_600.0..7_800.0).contains(&el.semi_major_axis) && el.eccentricity < 0.05)
            .count();
        assert!(
            hotspot as f64 > 0.7 * pop.len() as f64,
            "hotspot fraction {}",
            hotspot as f64 / pop.len() as f64
        );
        // And a visible GEO population.
        let geo = pop
            .iter()
            .filter(|el| (41_000.0..43_500.0).contains(&el.semi_major_axis))
            .count();
        assert!(geo > 50, "geo count {geo}");
    }

    #[test]
    fn angular_elements_look_uniform() {
        // Coarse χ²-style check: each of 8 bins of RAAN should hold roughly
        // n/8 of the population.
        let pop = gen(8_000, 13);
        let mut bins = [0usize; 8];
        for el in &pop {
            bins[((el.raan / TAU) * 8.0) as usize % 8] += 1;
        }
        for (i, &b) in bins.iter().enumerate() {
            assert!((800..1_200).contains(&b), "raan bin {i} holds {b} of 8000");
        }
    }

    #[test]
    fn kde_density_is_queryable() {
        let g = PopulationGenerator::new(PopulationConfig::default());
        let hot = g.density(7_000.0, 0.0025);
        let cold = g.density(20_000.0, 0.3);
        assert!(hot > cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn custom_anchor_generator_works() {
        let anchors = vec![(7_000.0, 0.001), (7_100.0, 0.002), (7_050.0, 0.003)];
        let g = PopulationGenerator::from_anchors(anchors, PopulationConfig::default()).unwrap();
        let pop = g.generate(100);
        assert_eq!(pop.len(), 100);
        for el in pop {
            assert!((6_000.0..8_500.0).contains(&el.semi_major_axis));
        }
    }
}
