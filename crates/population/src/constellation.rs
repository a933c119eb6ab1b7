//! Walker-delta constellation generator.
//!
//! The paper's introduction motivates the screening problem with
//! mega-constellations (Starlink, OneWeb); the examples use this generator
//! to build realistic shells: `total` satellites in `planes` orbital
//! planes at a common altitude and inclination, with the Walker phasing
//! parameter distributing in-plane offsets between planes.

use kessler_orbits::constants::R_EARTH;
use kessler_orbits::KeplerElements;
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;

/// A Walker-delta shell `i : total / planes / phasing`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WalkerShell {
    /// Shell altitude above the mean Earth radius, km.
    pub altitude_km: f64,
    /// Inclination, radians.
    pub inclination: f64,
    /// Total satellite count.
    pub total: usize,
    /// Number of equally-spaced orbital planes (must divide `total`).
    pub planes: usize,
    /// Walker phasing parameter `F` in `0..planes`.
    pub phasing: usize,
}

impl WalkerShell {
    /// Starlink-like shell: 550 km, 53°.
    pub fn starlink_like(total: usize, planes: usize) -> WalkerShell {
        WalkerShell {
            altitude_km: 550.0,
            inclination: 53f64.to_radians(),
            total,
            planes,
            phasing: 1,
        }
    }

    /// Generate the element set.
    ///
    /// # Panics
    /// Panics if `planes` is zero or does not divide `total`.
    pub fn generate(&self) -> Vec<KeplerElements> {
        assert!(self.planes > 0, "a shell needs at least one plane");
        assert!(
            self.total.is_multiple_of(self.planes),
            "planes ({}) must divide total ({})",
            self.planes,
            self.total
        );
        let per_plane = self.total / self.planes;
        let a = R_EARTH + self.altitude_km;
        let mut out = Vec::with_capacity(self.total);
        for plane in 0..self.planes {
            let raan = TAU * plane as f64 / self.planes as f64;
            // Walker phasing: plane p's satellites are offset in anomaly by
            // p·F·2π/total.
            let phase_offset = TAU * (plane * self.phasing) as f64 / self.total as f64;
            for slot in 0..per_plane {
                let mean_anomaly = TAU * slot as f64 / per_plane as f64 + phase_offset;
                out.push(
                    KeplerElements::new(a, 0.0001, self.inclination, raan, 0.0, mean_anomaly)
                        .expect("walker elements are valid"),
                );
            }
        }
        out
    }
}

/// The fixed shell ladder behind [`synthetic_constellation`]:
/// `(altitude km, inclination deg, weight)`. The altitudes span the LEO
/// regimes mega-constellations actually occupy — VLEO imaging orbits up
/// through the 1100–1400 km broadband shells and sparse upper-LEO relay
/// layers — and the inclinations mix mid-latitude, sun-synchronous and
/// near-polar planes so the population spreads across both the altitude
/// bands and the |z| shells of a regime-sharded catalog.
const SYNTHETIC_SHELLS: &[(f64, f64, usize)] = &[
    (350.0, 40.0, 6),
    (450.0, 97.2, 8),
    (550.0, 53.0, 24),
    (620.0, 97.8, 10),
    (780.0, 86.4, 12),
    (900.0, 45.0, 8),
    (1_100.0, 53.2, 14),
    (1_200.0, 87.9, 10),
    (1_400.0, 30.0, 6),
    (1_800.0, 63.4, 4),
    (2_200.0, 52.0, 3),
];

/// Deterministic synthetic mega-constellation: exactly `n` satellites
/// spread over the `SYNTHETIC_SHELLS` ladder in proportion to each
/// shell's weight, Walker-style within a shell (equally-spaced planes,
/// phased in-plane slots), with a small seeded jitter on altitude,
/// eccentricity and the angles so no two satellites are exactly
/// coincident and apsis ranges genuinely straddle band edges.
///
/// Unlike [`WalkerShell::generate`] it accepts any `n` (plane counts are
/// derived, never required to divide `n`). It was the million-satellite
/// ingest of the `exp_scale` experiment; since that binary was deleted
/// (its measurements are the benchmark's `durable_ingest` workload) only
/// this module's tests call it. It stays for ROADMAP item 5's
/// deterministic simulation, which names it as the Walker-shell source of
/// band-edge straddlers.
pub fn synthetic_constellation(n: usize, seed: u64) -> Vec<KeplerElements> {
    let total_weight: usize = SYNTHETIC_SHELLS.iter().map(|(_, _, w)| w).sum();
    // Largest-remainder apportionment: exact integer counts summing to n.
    let mut counts: Vec<usize> = SYNTHETIC_SHELLS
        .iter()
        .map(|(_, _, w)| n * w / total_weight)
        .collect();
    let mut assigned: usize = counts.iter().sum();
    let shells = counts.len();
    let mut k = 0;
    while assigned < n {
        counts[k % shells] += 1;
        assigned += 1;
        k += 1;
    }

    // splitmix64: cheap, seedable, and good enough for jitter.
    let mut rng_state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next_unit = move || {
        rng_state = rng_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    };

    let mut out = Vec::with_capacity(n);
    for (shell, count) in SYNTHETIC_SHELLS.iter().zip(&counts) {
        let &(altitude_km, incl_deg, _) = shell;
        let count = *count;
        if count == 0 {
            continue;
        }
        let planes = (count as f64).sqrt().ceil() as usize;
        let slots = count.div_ceil(planes);
        for j in 0..count {
            let plane = j % planes;
            let slot = j / planes;
            let raan = TAU * plane as f64 / planes as f64 + (next_unit() - 0.5) * 2e-3;
            let mean_anomaly = TAU * (slot as f64 + plane as f64 / planes as f64) / slots as f64
                + (next_unit() - 0.5) * 2e-3;
            let a = R_EARTH + altitude_km + (next_unit() - 0.5) * 4.0;
            let e = 1e-4 + next_unit() * 3e-3;
            out.push(
                KeplerElements::new(
                    a,
                    e,
                    incl_deg.to_radians(),
                    raan,
                    next_unit() * TAU,
                    mean_anomaly,
                )
                .expect("synthetic shell elements are valid"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_total_satellites() {
        let shell = WalkerShell::starlink_like(60, 6);
        assert_eq!(shell.generate().len(), 60);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_indivisible_plane_count() {
        WalkerShell::starlink_like(61, 6).generate();
    }

    #[test]
    fn planes_are_equally_spaced_in_raan() {
        let shell = WalkerShell::starlink_like(40, 8);
        let els = shell.generate();
        let mut raans: Vec<f64> = els.iter().map(|e| e.raan).collect();
        raans.sort_by(f64::total_cmp);
        raans.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        assert_eq!(raans.len(), 8);
        for (k, r) in raans.iter().enumerate() {
            assert!((r - TAU * k as f64 / 8.0).abs() < 1e-9);
        }
    }

    #[test]
    fn in_plane_satellites_are_equally_phased() {
        let shell = WalkerShell::starlink_like(20, 2);
        let els = shell.generate();
        let plane0: Vec<_> = els.iter().filter(|e| e.raan < 1e-9).collect();
        assert_eq!(plane0.len(), 10);
        let mut anomalies: Vec<f64> = plane0.iter().map(|e| e.mean_anomaly).collect();
        anomalies.sort_by(f64::total_cmp);
        for w in anomalies.windows(2) {
            assert!((w[1] - w[0] - TAU / 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn all_satellites_share_the_shell_geometry() {
        let shell = WalkerShell::starlink_like(30, 3);
        for el in shell.generate() {
            assert!((el.semi_major_axis - (R_EARTH + 550.0)).abs() < 1e-9);
            assert!((el.inclination - 53f64.to_radians()).abs() < 1e-12);
        }
    }

    #[test]
    fn synthetic_constellation_is_exact_on_count_for_awkward_sizes() {
        for n in [0, 1, 7, 97, 1_000, 12_345] {
            assert_eq!(synthetic_constellation(n, 42).len(), n, "n = {n}");
        }
    }

    #[test]
    fn synthetic_constellation_elements_are_valid_orbits() {
        for el in synthetic_constellation(5_000, 7) {
            // KeplerElements::new already enforced finiteness, e ∈ [0, 1)
            // and i ∈ [0, π]; on top of that every perigee must clear the
            // atmosphere and stay inside the shell ladder's span.
            let perigee = el.semi_major_axis * (1.0 - el.eccentricity);
            let apogee = el.semi_major_axis * (1.0 + el.eccentricity);
            assert!(perigee > R_EARTH + 250.0, "perigee too low: {perigee}");
            assert!(apogee < R_EARTH + 2_300.0, "apogee too high: {apogee}");
            assert!(el.eccentricity < 0.01, "shells are near-circular");
        }
    }

    #[test]
    fn synthetic_constellation_covers_every_shell() {
        let els = synthetic_constellation(2_000, 11);
        for &(altitude_km, incl_deg, _) in SYNTHETIC_SHELLS {
            let hit = els.iter().any(|el| {
                (el.semi_major_axis - (R_EARTH + altitude_km)).abs() < 10.0
                    && (el.inclination - incl_deg.to_radians()).abs() < 1e-9
            });
            assert!(hit, "shell at {altitude_km} km / {incl_deg}° unpopulated");
        }
        // Plane spread inside the dominant shell: many distinct RAAN
        // clusters, not a single string-of-pearls plane.
        let dominant: Vec<f64> = els
            .iter()
            .filter(|el| (el.semi_major_axis - (R_EARTH + 550.0)).abs() < 10.0)
            .map(|el| el.raan)
            .collect();
        assert!(dominant.len() > 100);
        let mut raans = dominant.clone();
        raans.sort_by(f64::total_cmp);
        raans.dedup_by(|a, b| (*a - *b).abs() < 0.05);
        assert!(raans.len() >= 8, "only {} RAAN planes", raans.len());
    }

    #[test]
    fn synthetic_constellation_is_deterministic_per_seed() {
        let a = synthetic_constellation(500, 1);
        let b = synthetic_constellation(500, 1);
        let c = synthetic_constellation(500, 2);
        assert_eq!(a, b, "same seed must reproduce the same catalog");
        assert_ne!(a, c, "different seeds must jitter differently");
    }
}
