//! Grid screening with SGP4 dynamics — real-catalog screening.
//!
//! The paper's evaluation uses two-body propagation, which is exact for its
//! synthetic elements; real TLE catalogs demand SGP4 (their elements are
//! SGP4 mean elements, and drag/J2 secular motion shifts LEO positions by
//! kilometres within hours). This screener runs the identical grid pipeline
//! — Eq. 1 cells, lock-free insertion, 26-neighbourhood candidate
//! extraction, Brent PCA/TCA refinement with boundary-escape handling —
//! on top of the from-scratch [`kessler_orbits::sgp4`] propagator.
//!
//! Construction skips (and reports) objects SGP4 cannot handle
//! (deep-space period, invalid elements) instead of failing the batch, the
//! behaviour an operational catalog screen needs.

use crate::config::{ScreeningConfig, Variant};
use crate::conjunction::{Conjunction, ScreeningReport};
use crate::planner::MemoryModel;
use crate::refine::refine_pair_with;
use crate::screener::grid_phase::run_grid_phase;
use crate::screener::{distinct_pairs, run_screen, Outcome, Refined, Screener};
use crate::timing::PhaseTimer;
use kessler_math::{Interval, Vec3};
use kessler_orbits::sgp4::{MeanElements, Sgp4, Sgp4Error};
use kessler_orbits::KeplerElements;
use rayon::prelude::*;

/// Grid screener over SGP4-propagated TLE mean elements.
pub struct Sgp4GridScreener {
    config: ScreeningConfig,
    propagators: Vec<Sgp4>,
    /// Indices (into the input slice) of objects SGP4 rejected, with the
    /// reason — deep-space objects, decayed orbits.
    skipped: Vec<(usize, Sgp4Error)>,
}

impl Sgp4GridScreener {
    /// Initialise from TLE mean elements. Unpropagatable objects are
    /// recorded in [`Sgp4GridScreener::skipped`] and excluded from the
    /// screen; their ids never appear in conjunctions.
    pub fn new(config: ScreeningConfig, elements: &[MeanElements]) -> Sgp4GridScreener {
        config.validate().expect("invalid screening configuration");
        let mut propagators = Vec::with_capacity(elements.len());
        let mut skipped = Vec::new();
        for (i, el) in elements.iter().enumerate() {
            match Sgp4::new(el) {
                Ok(p) => propagators.push(p),
                Err(e) => {
                    skipped.push((i, e));
                    // Keep index alignment with a placeholder that is
                    // never propagated (masked below).
                    propagators.push(
                        Sgp4::new(&MeanElements {
                            mean_motion_rev_per_day: 14.0,
                            eccentricity: 0.001,
                            inclination: 0.9,
                            raan: 0.0,
                            arg_perigee: 0.0,
                            mean_anomaly: 0.0,
                            bstar: 0.0,
                        })
                        .expect("placeholder elements are valid"),
                    );
                }
            }
        }
        Sgp4GridScreener {
            config,
            propagators,
            skipped,
        }
    }

    /// Objects that could not be screened, with reasons.
    pub fn skipped(&self) -> &[(usize, Sgp4Error)] {
        &self.skipped
    }

    fn is_masked(&self, id: usize) -> bool {
        self.skipped.iter().any(|&(i, _)| i == id)
    }

    /// Position at `t` seconds past the common epoch (SGP4 works in
    /// minutes). Objects whose drag model decays mid-span are parked far
    /// outside the populated volume so they never pair.
    fn position(&self, id: usize, t_seconds: f64) -> Vec3 {
        const PARKED: Vec3 = Vec3 {
            x: 1.0e7,
            y: 1.0e7,
            z: 1.0e7,
        };
        if self.is_masked(id) {
            return PARKED + Vec3::new(0.0, 0.0, id as f64 * 1.0e5);
        }
        match self.propagators[id].propagate(t_seconds / 60.0) {
            Ok(state) => state.position,
            Err(_) => PARKED + Vec3::new(0.0, 0.0, id as f64 * 1.0e5),
        }
    }

    fn distance_sq(&self, a: usize, b: usize, t_seconds: f64) -> f64 {
        self.position(a, t_seconds)
            .dist_sq(self.position(b, t_seconds))
    }
}

impl Screener for Sgp4GridScreener {
    fn screen(&self, _population: &[KeplerElements]) -> ScreeningReport {
        self.screen_tles()
    }

    fn label(&self) -> &str {
        "grid-sgp4"
    }
}

impl Sgp4GridScreener {
    /// Screen the TLE set this screener was constructed with.
    pub fn screen_tles(&self) -> ScreeningReport {
        let config = &self.config;
        let n = self.propagators.len();
        let planner = MemoryModel::new(Variant::Grid).plan(n, config);
        run_screen(
            self.label(),
            config.threads,
            n,
            config,
            planner,
            |planner, timings| {
                let phase = run_grid_phase(
                    n,
                    |t, out| {
                        out.par_iter_mut()
                            .enumerate()
                            .for_each(|(i, slot)| *slot = self.position(i, t))
                    },
                    config.neighbor_scan,
                    planner,
                    timings,
                    None,
                )?;

                let found: Vec<Conjunction>;
                {
                    let _timer = PhaseTimer::start(&mut timings.refinement);
                    // Interval radius per §IV-C from LEO speeds; SGP4
                    // velocities hover around the same 7–8 km/s.
                    let radius = 2.0 * planner.cell_size_km / kessler_orbits::constants::LEO_SPEED;
                    found = phase
                        .entries
                        .par_iter()
                        .filter_map(|e| {
                            let t = e.step as f64 * planner.seconds_per_sample;
                            refine_pair_with(
                                |tt| self.distance_sq(e.id_lo as usize, e.id_hi as usize, tt),
                                e.id_lo,
                                e.id_hi,
                                Interval::new(t - radius, t + radius),
                                config.threshold_km,
                            )
                        })
                        .collect();
                }
                let candidate_pairs = distinct_pairs(&phase.entries);
                Ok(Outcome {
                    candidate_entries: phase.entries.len(),
                    pair_set_regrows: phase.regrows,
                    refined: Refined::settle(found, candidate_pairs, None, config, true),
                    device_metrics: None,
                })
            },
        )
        .expect("a screen without a token cannot be cancelled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(rev_per_day: f64, e: f64, i: f64, raan: f64, argp: f64, m: f64) -> MeanElements {
        MeanElements {
            mean_motion_rev_per_day: rev_per_day,
            eccentricity: e,
            inclination: i,
            raan,
            arg_perigee: argp,
            mean_anomaly: m,
            bstar: 0.0,
        }
    }

    #[test]
    fn finds_a_co_phased_crossing_conjunction() {
        // Two equal-period circular orbits crossing at the node with
        // matched phases (the SGP4 analogue of the two-body test).
        let els = vec![
            mean(15.2, 0.0001, 0.4, 0.0, 0.0, 0.0),
            mean(15.2, 0.0001, 1.2, 0.0, 0.0, 0.0),
        ];
        let config = ScreeningConfig::grid_defaults(10.0, 600.0);
        let screener = Sgp4GridScreener::new(config, &els);
        assert!(screener.skipped().is_empty());
        let report = screener.screen_tles();
        assert!(
            report.conjunction_count() >= 1,
            "SGP4 pair must meet near the node: {report:?}"
        );
        // With J2 periodics the TCA shifts a bit from the ideal 0, but
        // stays within the first minute.
        assert!(report.conjunctions[0].tca.abs() < 60.0);
    }

    #[test]
    fn deep_space_objects_are_skipped_not_fatal() {
        let els = vec![
            mean(15.2, 0.0001, 0.4, 0.0, 0.0, 0.0),
            mean(1.0027, 0.0002, 0.01, 1.0, 2.0, 3.0), // GEO → skipped
            mean(15.2, 0.0001, 1.2, 0.0, 0.0, 0.0),
        ];
        let config = ScreeningConfig::grid_defaults(10.0, 300.0);
        let screener = Sgp4GridScreener::new(config, &els);
        assert_eq!(screener.skipped().len(), 1);
        assert_eq!(screener.skipped()[0].0, 1);
        let report = screener.screen_tles();
        // The skipped object must never appear in a conjunction.
        for c in &report.conjunctions {
            assert_ne!(c.id_lo, 1);
            assert_ne!(c.id_hi, 1);
        }
    }

    #[test]
    fn agrees_with_two_body_screener_for_undragged_leo() {
        // With bstar = 0 and a short span, SGP4 differs from two-body only
        // by J2 — colliding-pair sets on a crossing geometry must agree.
        use crate::screener::cpu::GridScreener;
        let els_sgp4 = vec![
            mean(15.2, 0.0001, 0.4, 0.0, 0.0, 0.0),
            mean(15.2, 0.0001, 1.2, 0.0, 0.0, 0.0),
        ];
        // Matching two-body elements: a from the period.
        let n_rad_s = 15.2 * std::f64::consts::TAU / 86_400.0;
        let a = (kessler_orbits::constants::MU_EARTH / (n_rad_s * n_rad_s)).cbrt();
        let pop = vec![
            KeplerElements::new(a, 0.0001, 0.4, 0.0, 0.0, 0.0).unwrap(),
            KeplerElements::new(a, 0.0001, 1.2, 0.0, 0.0, 0.0).unwrap(),
        ];
        let config = ScreeningConfig::grid_defaults(10.0, 600.0);
        let sgp4_pairs = Sgp4GridScreener::new(config, &els_sgp4)
            .screen_tles()
            .colliding_pairs();
        let kepler_pairs = GridScreener::new(config).screen(&pop).colliding_pairs();
        assert_eq!(sgp4_pairs, kepler_pairs);
    }

    #[test]
    fn a_dense_catalog_regrows_the_pair_set_instead_of_panicking() {
        // Twelve objects flying in formation with the crossing pair: every
        // step yields dozens of candidate pairs against a pair set capped
        // at 8 slots.
        let mut els = vec![
            mean(15.2, 0.0001, 0.4, 0.0, 0.0, 0.0),
            mean(15.2, 0.0001, 1.2, 0.0, 0.0, 0.0),
        ];
        els.extend((1..=10).map(|i| mean(15.2, 0.0001, 0.4, 0.0, 0.0, 1e-4 * i as f64)));
        let mut config = ScreeningConfig::grid_defaults(10.0, 120.0);
        config.max_pair_capacity = Some(8);
        let report = Sgp4GridScreener::new(config, &els).screen_tles();
        assert!(report.pair_set_regrows > 0, "the cap must actually bite");
        assert!(
            report.conjunctions.iter().any(|c| c.pair() == (0, 1)),
            "the crossing pair's conjunction survives the regrowth: {report:?}"
        );
    }
}
