//! The (smart) sieve screening variant — the *other* parallel screening
//! family the paper's related work surveys (§II, refs \[16\]/\[17\]), included
//! as a comparison point: an apogee/perigee prefilter, then per sampling
//! step a cascade of cheap Cartesian rejection tests over the surviving
//! pairs, then Brent refinement of the candidates.
//!
//! Unlike the grid, the sieve still touches every surviving pair at every
//! step (O(pairs · steps)); its per-test cost is tiny, which is why it was
//! the method of choice on pre-grid hardware — and why the paper's grid
//! wins asymptotically.

use crate::config::{ScreeningConfig, Variant};
use crate::conjunction::{Conjunction, ScreeningReport};
use crate::planner::MemoryModel;
use crate::refine::refine_pair;
use crate::screener::{distinct_pairs, run_screen, Outcome, Refined, Screener};
use crate::timing::PhaseTimer;
use kessler_filters::apsis::apsis_filter;
use kessler_filters::sieve::{critical_distance, sieve_pair, SieveOutcome, SieveStats};
use kessler_grid::CandidatePair;
use kessler_math::Interval;
use kessler_orbits::{BatchPropagator, ContourSolver, KeplerElements};
use rayon::prelude::*;

/// Worst-case relative speed of two LEO objects (head-on), km/s.
const MAX_REL_SPEED: f64 = 2.0 * kessler_orbits::constants::LEO_SPEED;

/// Smart-sieve screener.
pub struct SieveScreener {
    config: ScreeningConfig,
    solver: ContourSolver,
}

impl SieveScreener {
    /// The sieve tolerates larger steps than the grid because its critical
    /// distance absorbs the worst-case relative motion; `config`'s
    /// `seconds_per_sample` is used as-is (callers typically pass 8 s).
    pub fn new(config: ScreeningConfig) -> SieveScreener {
        config.validate().expect("invalid screening configuration");
        SieveScreener {
            config,
            solver: ContourSolver::default(),
        }
    }

    /// A config preset with the conventional 8 s sieve step.
    pub fn default_config(threshold_km: f64, span_seconds: f64) -> ScreeningConfig {
        ScreeningConfig {
            seconds_per_sample: 8.0,
            ..ScreeningConfig::grid_defaults(threshold_km, span_seconds)
        }
    }
}

impl Screener for SieveScreener {
    fn screen(&self, population: &[KeplerElements]) -> ScreeningReport {
        let config = &self.config;
        let solver = &self.solver;
        let planner = MemoryModel::new(Variant::Sieve).plan(population.len(), config);
        run_screen(
            self.label(),
            config.threads,
            population.len(),
            config,
            planner,
            |planner, timings| {
                let propagator = BatchPropagator::new(population);
                let n = population.len() as u32;
                let sps = config.seconds_per_sample;
                let d_crit = critical_distance(config.threshold_km, MAX_REL_SPEED, sps);

                // Apogee/perigee prefilter over all pairs, padded by the
                // critical distance (once, not per step).
                let survivors: Vec<(u32, u32)>;
                {
                    let _timer = PhaseTimer::start(&mut timings.filters);
                    survivors = (0..n)
                        .into_par_iter()
                        .flat_map_iter(|i| {
                            let a = &population[i as usize];
                            ((i + 1)..n).filter_map(move |j| {
                                apsis_filter(a, &population[j as usize], d_crit).then_some((i, j))
                            })
                        })
                        .collect();
                }

                // Per-step sieve cascade.
                let mut candidates: Vec<CandidatePair> = Vec::new();
                let mut stats = SieveStats::default();
                for step in 0..planner.total_steps {
                    let t = step as f64 * sps;
                    let states;
                    {
                        let _timer = PhaseTimer::start(&mut timings.insertion);
                        states = propagator.states(t);
                    }
                    let _timer = PhaseTimer::start(&mut timings.pair_extraction);
                    let (step_candidates, step_stats) = survivors
                        .par_iter()
                        .fold(
                            || (Vec::new(), SieveStats::default()),
                            |(mut acc, mut st), &(i, j)| {
                                let sa = &states[i as usize];
                                let sb = &states[j as usize];
                                let outcome = sieve_pair(
                                    sa.position - sb.position,
                                    sa.velocity - sb.velocity,
                                    d_crit,
                                    config.threshold_km,
                                    sps,
                                );
                                st.record(outcome);
                                if outcome == SieveOutcome::Candidate {
                                    acc.push(CandidatePair::new(i, j, step));
                                }
                                (acc, st)
                            },
                        )
                        .reduce(
                            || (Vec::new(), SieveStats::default()),
                            |(mut a, mut sa), (b, sb)| {
                                a.extend(b);
                                sa.merge(&sb);
                                (a, sa)
                            },
                        );
                    candidates.extend(step_candidates);
                    stats.merge(&step_stats);
                }

                // Brent refinement around each candidate step.
                let found: Vec<Conjunction>;
                {
                    let _timer = PhaseTimer::start(&mut timings.refinement);
                    let columns = propagator.columns();
                    found = candidates
                        .par_iter()
                        .filter_map(|c| {
                            let t = c.step as f64 * sps;
                            refine_pair(
                                &columns.gather(c.id_lo as usize),
                                &columns.gather(c.id_hi as usize),
                                solver,
                                c.id_lo,
                                c.id_hi,
                                Interval::new(t - sps, t + sps),
                                config.threshold_km,
                            )
                        })
                        .collect();
                }
                let candidate_pairs = distinct_pairs(&candidates);
                Ok(Outcome {
                    candidate_entries: candidates.len(),
                    refined: Refined::settle(found, candidate_pairs, None, config, true),
                    device_metrics: None,
                })
            },
        )
        .expect("a screen without a token cannot be cancelled")
    }

    fn label(&self) -> &str {
        "sieve"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crossing_pair_population() -> Vec<KeplerElements> {
        vec![
            KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
            KeplerElements::new(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.0).unwrap(),
        ]
    }

    #[test]
    fn detects_the_head_on_conjunction() {
        let config = SieveScreener::default_config(2.0, 600.0);
        let report = SieveScreener::new(config).screen(&crossing_pair_population());
        assert!(report.conjunction_count() >= 1, "report: {report:?}");
        let c = &report.conjunctions[0];
        assert_eq!(c.pair(), (0, 1));
        assert!(c.tca.abs() < 1.0, "tca = {}", c.tca);
        assert!(c.pca_km < 0.5);
        assert_eq!(report.variant, "sieve");
    }

    #[test]
    fn apsis_prefilter_removes_disjoint_shells() {
        let pop = vec![
            KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
            KeplerElements::new(42_164.0, 0.0, 0.1, 1.0, 0.0, 0.0).unwrap(),
        ];
        let config = SieveScreener::default_config(2.0, 600.0);
        let report = SieveScreener::new(config).screen(&pop);
        assert_eq!(report.conjunction_count(), 0);
        assert_eq!(report.candidate_entries, 0);
    }

    #[test]
    fn matches_grid_screener_on_a_synthetic_population() {
        use crate::screener::cpu::GridScreener;
        use kessler_population::{PopulationConfig, PopulationGenerator};
        let pop = PopulationGenerator::new(PopulationConfig {
            seed: 5150,
            ..Default::default()
        })
        .generate(300);
        let span = 900.0;
        let sieve = SieveScreener::new(SieveScreener::default_config(5.0, span)).screen(&pop);
        let grid = GridScreener::new(ScreeningConfig::grid_defaults(5.0, span)).screen(&pop);
        assert_eq!(
            sieve.colliding_pairs(),
            grid.colliding_pairs(),
            "sieve and grid must agree on colliding pairs"
        );
    }

    #[test]
    fn empty_population_is_fine() {
        let config = SieveScreener::default_config(2.0, 60.0);
        let report = SieveScreener::new(config).screen(&[]);
        assert_eq!(report.conjunction_count(), 0);
    }
}
