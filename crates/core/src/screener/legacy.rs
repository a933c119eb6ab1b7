//! The legacy baseline: deterministic all-on-all filter-chain screening.
//!
//! "Traditional deterministic filter-based conjunction detection algorithms
//! compare each satellite to every other satellite and pass them through a
//! chain of orbital filters" (abstract). The paper's baseline is a
//! single-threaded numba-accelerated Python implementation \[45\]; ours is
//! the closest native equivalent — the same chain, single-threaded by
//! default (a parallel mode exists for ablations, clearly labelled).

use crate::config::{ScreeningConfig, Variant};
use crate::conjunction::{Conjunction, ScreeningReport};
use crate::planner::MemoryModel;
use crate::refine::{refine_pair, sampled_minima_search};
use crate::screener::{run_screen, Outcome, Refined, Screener};
use kessler_filters::{FilterChain, FilterConfig, FilterDecision, FilterStatsSnapshot};
use kessler_math::Interval;
use kessler_orbits::{BatchPropagator, ContourSolver, KeplerElements};
use rayon::prelude::*;
use std::time::Instant;

/// All-on-all filter-chain screener.
pub struct LegacyScreener {
    config: ScreeningConfig,
    filter_config: FilterConfig,
    solver: ContourSolver,
    parallel: bool,
}

impl LegacyScreener {
    /// Single-threaded baseline, mirroring the paper's legacy variant.
    pub fn new(config: ScreeningConfig) -> LegacyScreener {
        config.validate().expect("invalid screening configuration");
        LegacyScreener {
            config,
            filter_config: FilterConfig::new(config.threshold_km),
            solver: ContourSolver::default(),
            parallel: false,
        }
    }

    /// Enable parallelism over the rows of the pair triangle (ablation;
    /// not the paper's baseline).
    pub fn parallel(mut self, yes: bool) -> LegacyScreener {
        self.parallel = yes;
        self
    }

    /// Filter and refine one pair, counting its decision into `stats`.
    fn screen_pair(
        &self,
        chain: &FilterChain,
        population: &[KeplerElements],
        columns: &kessler_orbits::ConstantsView<'_>,
        span: Interval,
        (i, j): (u32, u32),
        stats: &mut FilterStatsSnapshot,
    ) -> Vec<Conjunction> {
        let decision = chain.evaluate(&population[i as usize], &population[j as usize], span);
        stats.record(&decision);
        let a = columns.gather(i as usize);
        let b = columns.gather(j as usize);
        match decision {
            FilterDecision::Windows(windows) => windows
                .iter()
                .filter_map(|w| {
                    refine_pair(
                        &a,
                        &b,
                        &self.solver,
                        i,
                        j,
                        w.padded(1.0),
                        self.config.threshold_km,
                    )
                })
                .collect(),
            FilterDecision::Coplanar => sampled_minima_search(
                &a,
                &b,
                &self.solver,
                i,
                j,
                span,
                self.config.seconds_per_sample,
                self.config.threshold_km,
            ),
            _ => Vec::new(),
        }
    }
}

impl Screener for LegacyScreener {
    fn screen(&self, population: &[KeplerElements]) -> ScreeningReport {
        let config = &self.config;
        let threads = if self.parallel {
            config.threads
        } else {
            Some(1)
        };
        let planner = MemoryModel::new(Variant::Legacy).plan(population.len(), config);
        run_screen(
            self.label(),
            threads,
            population.len(),
            config,
            planner,
            |_planner, timings| {
                let propagator = BatchPropagator::new(population);
                let columns = propagator.columns();
                let chain = FilterChain::new(self.filter_config);
                let span = Interval::new(0.0, config.span_seconds);
                let n = population.len() as u32;

                let filter_start = Instant::now();
                // The pair triangle, streamed row by row (i, then j > i):
                // never materialised, since at n = 64 000 it would be
                // 2·10⁹ pairs. Each chunk of rows folds its own counts and
                // conjunctions, and the chunks merge in pair order — on
                // one thread when the pool has one, as the baseline's has.
                type Acc = (FilterStatsSnapshot, Vec<Conjunction>);
                let (filter_stats, found) = (0..n)
                    .into_par_iter()
                    .flat_map_iter(|i| ((i + 1)..n).map(move |j| (i, j)))
                    .fold(Acc::default, |(mut stats, mut found): Acc, pair| {
                        let c =
                            self.screen_pair(&chain, population, &columns, span, pair, &mut stats);
                        found.extend(c);
                        (stats, found)
                    })
                    .reduce(Acc::default, |(s1, mut f1), (s2, f2)| {
                        f1.extend(f2);
                        (s1 + s2, f1)
                    });
                // The chain and refinement interleave per pair; attribute
                // the whole sweep to `filters` + leave refinement inside it
                // (the legacy profile in the paper is likewise dominated by
                // the chain sweep).
                timings.filters = filter_start.elapsed();

                Ok(Outcome {
                    candidate_entries: 0,
                    // Every pair of the triangle was tested.
                    refined: Refined::settle(
                        found,
                        filter_stats.tested as usize,
                        Some(filter_stats),
                        config,
                        true,
                    ),
                    device_metrics: None,
                })
            },
        )
        .expect("a screen without a token cannot be cancelled")
    }

    fn label(&self) -> &str {
        "legacy"
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
        let config = ScreeningConfig::grid_defaults(2.0, 600.0);
        let report = LegacyScreener::new(config).screen(&crossing_pair_population());
        assert!(report.conjunction_count() >= 1);
        let c = &report.conjunctions[0];
        assert_eq!(c.pair(), (0, 1));
        assert!(c.tca.abs() < 1.0);
        assert_eq!(report.candidate_pairs, 1);
    }

    #[test]
    fn tests_every_pair_exactly_once() {
        let pop: Vec<KeplerElements> = (0..6)
            .map(|i| {
                KeplerElements::new(
                    7_000.0 + 100.0 * i as f64,
                    0.001,
                    0.5 + 0.1 * i as f64,
                    0.3 * i as f64,
                    0.0,
                    1.0 * i as f64,
                )
                .unwrap()
            })
            .collect();
        let config = ScreeningConfig::grid_defaults(2.0, 60.0);
        let report = LegacyScreener::new(config).screen(&pop);
        let stats = report.filter_stats.unwrap();
        assert_eq!(stats.tested, 15); // C(6,2)
        assert_eq!(report.candidate_pairs, 15);
    }

    #[test]
    fn coplanar_trailing_satellites_are_screened_by_sampling() {
        let pop = vec![
            KeplerElements::new(7_000.0, 0.001, 0.9, 1.0, 0.0, 0.0).unwrap(),
            KeplerElements::new(7_000.0, 0.001, 0.9, 1.0, 0.0, 1e-7).unwrap(),
        ];
        // The chord distance of a trailing pair oscillates with the orbital
        // period; a span longer than one revolution contains a local
        // minimum for the sampled coplanar search to find.
        let config = ScreeningConfig::grid_defaults(2.0, 1.2 * pop[0].period());
        let report = LegacyScreener::new(config).screen(&pop);
        assert!(report.conjunction_count() >= 1);
        assert_eq!(report.filter_stats.unwrap().coplanar, 1);
    }

    #[test]
    fn parallel_mode_matches_sequential_results() {
        let pop = crossing_pair_population();
        let config = ScreeningConfig::grid_defaults(2.0, 600.0);
        let seq = LegacyScreener::new(config).screen(&pop);
        let par = LegacyScreener::new(config).parallel(true).screen(&pop);
        assert_eq!(seq.conjunction_count(), par.conjunction_count());
        for (a, b) in seq.conjunctions.iter().zip(&par.conjunctions) {
            assert_eq!(a.pair(), b.pair());
            assert!((a.tca - b.tca).abs() < 1e-6);
        }
    }

    /// A seeded population's report, pinned to the bit in both modes: the
    /// pairs, `tca` and `pca_km` of every conjunction, in order, and the
    /// filter counts. The constant was produced by the screener that
    /// built the full pair list before folding it.
    #[test]
    fn report_is_pinned_to_the_bit_in_both_modes() {
        use kessler_population::{PopulationConfig, PopulationGenerator};
        let population = PopulationGenerator::new(PopulationConfig {
            seed: 41,
            ..PopulationConfig::default()
        })
        .generate(300);
        let config = ScreeningConfig::hybrid_defaults(50.0, 3_600.0);
        let fingerprint = |report: &ScreeningReport| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x100_0000_01b3);
            for c in &report.conjunctions {
                mix(u64::from(c.id_lo) << 32 | u64::from(c.id_hi));
                mix(c.tca.to_bits());
                mix(c.pca_km.to_bits());
            }
            let s = report.filter_stats.expect("legacy reports filter stats");
            for count in [
                s.tested,
                s.excluded_apsis,
                s.excluded_path,
                s.excluded_time,
                s.coplanar,
                s.kept,
            ] {
                mix(count);
            }
            (h, report.conjunctions.len(), report.candidate_pairs)
        };
        for parallel in [false, true] {
            let report = LegacyScreener::new(config)
                .parallel(parallel)
                .screen(&population);
            assert_eq!(
                fingerprint(&report),
                (0x938b_3a0f_1ecb_e3da, 25, 44_850),
                "parallel = {parallel}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_populations() {
        let config = ScreeningConfig::grid_defaults(2.0, 60.0);
        assert_eq!(
            LegacyScreener::new(config).screen(&[]).conjunction_count(),
            0
        );
        let one = vec![KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap()];
        assert_eq!(
            LegacyScreener::new(config).screen(&one).conjunction_count(),
            0
        );
    }
}
