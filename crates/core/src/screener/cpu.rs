//! The CPU screener over either stage: the purely grid-based variant and
//! the hybrid variant (§III, §IV) are the same screen — allocate once, the
//! one step loop ([`Extraction::run`]) extracts candidates — and differ in
//! the [`Stage`] the candidates are handed to. `kessler screen` and the
//! daemon run the same [`CpuScreener::screen_changed`].

use crate::cancel::{CancelToken, Cancelled};
use crate::config::{ScreeningConfig, Variant};
use crate::conjunction::ScreeningReport;
use crate::screener::stage::{Host, Stage};
use crate::screener::{run_screen, Outcome, Screener};
use crate::shard::Extraction;
use kessler_orbits::{BatchPropagator, KeplerElements};

/// Grid extraction on the CPU, refined by `stage`.
#[derive(Clone, Copy)]
pub struct CpuScreener {
    stage: Stage,
}

/// The purely grid-based variant: small cells (Eq. 1), small steps, every
/// candidate straight to Brent refinement.
pub struct GridScreener;

/// The hybrid variant: the grid as a pre-filter with larger cells and
/// steps, the orbital filter chain, Brent refinement inside its windows.
pub struct HybridScreener;

#[allow(clippy::new_ret_no_self)] // a constructor of the one CPU screener, under the variant's name
impl GridScreener {
    /// Panics on an invalid configuration; [`CpuScreener::new`] is the
    /// fallible way in.
    pub fn new(config: ScreeningConfig) -> CpuScreener {
        CpuScreener::valid(Variant::Grid, config)
    }
}

#[allow(clippy::new_ret_no_self)] // as above
impl HybridScreener {
    /// Panics on an invalid configuration; [`CpuScreener::new`] is the
    /// fallible way in.
    pub fn new(config: ScreeningConfig) -> CpuScreener {
        CpuScreener::valid(Variant::Hybrid, config)
    }
}

impl CpuScreener {
    /// Grid or hybrid only — the variants with a post-extraction stage —
    /// under a valid configuration. Fallible, so a bad combination is an
    /// error here, never a panic inside a running job.
    pub fn new(variant: Variant, config: ScreeningConfig) -> Result<CpuScreener, String> {
        Ok(CpuScreener {
            stage: Stage::new(variant, config)?,
        })
    }

    fn valid(variant: Variant, config: ScreeningConfig) -> CpuScreener {
        CpuScreener::new(variant, config).expect("invalid screening configuration")
    }

    /// The same screener over another span (the service screens a window
    /// advance's freshly exposed tail this way).
    pub fn with_span(mut self, span_seconds: f64) -> Result<CpuScreener, String> {
        self.stage = self.stage.with_span(span_seconds)?;
        Ok(self)
    }

    pub fn variant(&self) -> Variant {
        self.stage.variant()
    }

    pub fn config(&self) -> &ScreeningConfig {
        self.stage.config()
    }

    /// The full pipeline as a cancellable job, on the configured thread
    /// pool: [`CpuScreener::screen_changed`] with everyone changed.
    pub fn screen_job(
        &self,
        population: &[KeplerElements],
        cancel: Option<&CancelToken>,
    ) -> Result<ScreeningReport, Cancelled> {
        let everyone: Vec<u32> = (0..population.len() as u32).collect();
        Ok(self.screen_changed(population, &everyone, cancel)?.0)
    }

    /// Screen the pairs with at least one satellite in `changed` — the
    /// ascending, distinct dense indices into `population` whose elements
    /// are new; all of them for a cold screen. The report's conjunctions
    /// are those pairs' alone, and the number is the grid inserts its
    /// extraction made. `cancel`, when given, is checked at phase
    /// boundaries — between grid sampling steps, between filter-evaluation
    /// chunks and between refinement chunks; a job that completes returns
    /// the same report with or without a token.
    pub fn screen_changed(
        &self,
        population: &[KeplerElements],
        changed: &[u32],
        cancel: Option<&CancelToken>,
    ) -> Result<(ScreeningReport, u64), Cancelled> {
        let n = population.len();
        debug_assert!(changed.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(changed.last().is_none_or(|&c| (c as usize) < n));
        let stage = &self.stage;
        let config = stage.config();
        let mut inserts = None;
        let report = run_screen(
            self.label(),
            config.threads,
            n,
            config,
            stage.plan(n),
            |planner, timings| {
                // Step 1 (§III): fixed allocations — satellite data and the
                // precomputed Kepler solver constants.
                let propagator = BatchPropagator::new(population);
                // Step 2: propagation, insertion, pair identification —
                // the changed satellites' pairs.
                let (entries, grid_inserts) = Extraction::new(
                    changed,
                    planner.cell_size_km,
                    config.neighbor_scan,
                )
                .run(&propagator, planner, timings, cancel)?;
                inserts = Some(grid_inserts);
                let candidate_entries = entries.len();
                let host = Host {
                    propagator: &propagator,
                    cancel,
                };
                let refined = stage.refine(&host, population, entries, planner, timings)?;
                Ok(Outcome {
                    candidate_entries,
                    refined,
                    device_metrics: None,
                })
            },
        )?;
        Ok((
            report,
            inserts.expect("a finished screen ran its extraction"),
        ))
    }
}

impl Screener for CpuScreener {
    fn screen(&self, population: &[KeplerElements]) -> ScreeningReport {
        self.screen_job(population, None)
            .expect("uncancellable screen cannot be cancelled")
    }

    fn label(&self) -> &str {
        self.stage.variant().label()
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

    /// `n` generated satellites, then eight crossing pairs, each meeting
    /// at its node inside the first 100 s.
    fn catalog(n: usize) -> Vec<KeplerElements> {
        let mut pop =
            kessler_population::PopulationGenerator::new(kessler_population::PopulationConfig {
                seed: 17,
                ..Default::default()
            })
            .generate(n);
        for k in 0..8 {
            let a = 7_000.0 + 40.0 * k as f64;
            let mean_motion = (kessler_orbits::constants::MU_EARTH / (a * a * a)).sqrt();
            let m0 = (-mean_motion * (20.0 + 10.0 * k as f64)).rem_euclid(std::f64::consts::TAU);
            for inclination in [0.4, 1.2] {
                pop.push(KeplerElements::new(a, 0.0, inclination, k as f64, 0.0, m0).unwrap());
            }
        }
        pop
    }

    fn assert_same_conjunctions(got: &ScreeningReport, want: &ScreeningReport) {
        assert_eq!(got.conjunction_count(), want.conjunction_count());
        for (g, w) in got.conjunctions.iter().zip(&want.conjunctions) {
            assert_eq!(g.pair(), w.pair());
            assert_eq!(g.tca.to_bits(), w.tca.to_bits());
            assert_eq!(g.pca_km.to_bits(), w.pca_km.to_bits());
        }
    }

    #[test]
    fn screening_a_changed_list_finds_exactly_the_cold_conjunctions_touching_it() {
        let pop = catalog(600);
        for screener in [
            GridScreener::new(ScreeningConfig::grid_defaults(10.0, 120.0)),
            HybridScreener::new(ScreeningConfig::hybrid_defaults(10.0, 120.0)),
        ] {
            let cold = screener.screen(&pop);
            // One member of every other cold conjunction, and two
            // satellites that may meet nobody.
            let mut changed: Vec<u32> = cold
                .conjunctions
                .iter()
                .step_by(2)
                .map(|c| c.id_hi)
                .chain([0, 1])
                .collect();
            changed.sort_unstable();
            changed.dedup();
            let (subset, _) = screener.screen_changed(&pop, &changed, None).unwrap();
            assert_eq!(subset.variant, cold.variant);
            let mut want = cold.clone();
            want.conjunctions
                .retain(|c| changed.contains(&c.id_lo) || changed.contains(&c.id_hi));
            assert!(want.conjunction_count() > 0, "{}", cold.variant);
            assert_same_conjunctions(&subset, &want);
        }
    }

    mod grid {
        use super::*;

        #[test]
        fn detects_a_head_on_conjunction() {
            let config = ScreeningConfig::grid_defaults(2.0, 600.0);
            let report = GridScreener::new(config).screen(&crossing_pair_population());
            assert!(report.conjunction_count() >= 1, "report: {report:?}");
            let c = &report.conjunctions[0];
            assert_eq!(c.pair(), (0, 1));
            assert!(c.tca.abs() < 1.0, "tca = {}", c.tca);
            assert!(c.pca_km < 1.0, "pca = {}", c.pca_km);
        }

        #[test]
        fn distant_satellites_produce_nothing() {
            let pop = vec![
                KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
                KeplerElements::new(9_000.0, 0.0, 1.2, 1.0, 0.0, 2.0).unwrap(),
            ];
            let config = ScreeningConfig::grid_defaults(2.0, 600.0);
            let report = GridScreener::new(config).screen(&pop);
            assert_eq!(report.conjunction_count(), 0);
            assert_eq!(report.candidate_entries, 0);
        }

        #[test]
        fn recurring_conjunctions_are_counted_per_encounter() {
            // Same-period crossing orbits meet at the node every revolution:
            // screening 2.2 periods must find ≥ 2 distinct conjunctions (the
            // dedup must NOT collapse different passes).
            let pop = crossing_pair_population();
            let period = pop[0].period();
            let config = ScreeningConfig::grid_defaults(2.0, 2.2 * period);
            let report = GridScreener::new(config).screen(&pop);
            assert!(
                report.conjunction_count() >= 2,
                "found {} conjunctions",
                report.conjunction_count()
            );
            // All for the same colliding pair.
            assert_eq!(report.colliding_pairs().len(), 1);
        }

        #[test]
        fn empty_population_is_fine() {
            let config = ScreeningConfig::grid_defaults(2.0, 60.0);
            let report = GridScreener::new(config).screen(&[]);
            assert_eq!(report.conjunction_count(), 0);
            assert_eq!(report.n_satellites, 0);
        }

        #[test]
        fn single_satellite_is_fine() {
            let config = ScreeningConfig::grid_defaults(2.0, 60.0);
            let pop = vec![KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap()];
            let report = GridScreener::new(config).screen(&pop);
            assert_eq!(report.conjunction_count(), 0);
        }

        #[test]
        fn explicit_thread_count_gives_identical_results() {
            let pop = crossing_pair_population();
            let mut config = ScreeningConfig::grid_defaults(2.0, 600.0);
            let baseline = GridScreener::new(config).screen(&pop);
            config.threads = Some(1);
            let single = GridScreener::new(config).screen(&pop);
            assert_eq!(baseline.conjunction_count(), single.conjunction_count());
            for (a, b) in baseline.conjunctions.iter().zip(&single.conjunctions) {
                assert_eq!(a.pair(), b.pair());
                assert!((a.tca - b.tca).abs() < 1e-6);
                assert!((a.pca_km - b.pca_km).abs() < 1e-9);
            }
        }

        #[test]
        fn timings_are_populated() {
            let config = ScreeningConfig::grid_defaults(2.0, 120.0);
            let report = GridScreener::new(config).screen(&crossing_pair_population());
            assert!(report.timings.total.as_nanos() > 0);
            assert!(report.timings.insertion.as_nanos() > 0);
            assert!(report.timings.total >= report.timings.insertion);
        }

        #[test]
        fn cancellable_screen_matches_plain_screen_when_never_cancelled() {
            let pop = crossing_pair_population();
            let config = ScreeningConfig::grid_defaults(2.0, 600.0);
            let screener = GridScreener::new(config);
            let plain = screener.screen(&pop);
            let token = CancelToken::new();
            let tokened = screener
                .screen_job(&pop, Some(&token))
                .expect("never tripped");
            assert_eq!(plain.conjunction_count(), tokened.conjunction_count());
            assert_eq!(plain.candidate_entries, tokened.candidate_entries);
            for (a, b) in plain.conjunctions.iter().zip(&tokened.conjunctions) {
                assert_eq!(a.pair(), b.pair());
                assert_eq!(a.tca.to_bits(), b.tca.to_bits());
                assert_eq!(a.pca_km.to_bits(), b.pca_km.to_bits());
            }
        }

        #[test]
        fn pre_tripped_token_cancels_before_any_work() {
            let pop = crossing_pair_population();
            let config = ScreeningConfig::grid_defaults(2.0, 600.0);
            let token = CancelToken::new();
            token.cancel();
            let result = GridScreener::new(config).screen_job(&pop, Some(&token));
            assert_eq!(result.unwrap_err(), Cancelled);
        }

        #[test]
        #[should_panic(expected = "invalid screening configuration")]
        fn invalid_config_is_rejected_at_construction() {
            let mut config = ScreeningConfig::grid_defaults(2.0, 600.0);
            config.threshold_km = -1.0;
            GridScreener::new(config);
        }
    }

    mod hybrid {
        use super::*;

        #[test]
        fn detects_the_head_on_conjunction_via_windows() {
            let config = ScreeningConfig::hybrid_defaults(2.0, 600.0);
            let report = HybridScreener::new(config).screen(&crossing_pair_population());
            assert!(report.conjunction_count() >= 1, "report: {report:?}");
            let c = &report.conjunctions[0];
            assert_eq!(c.pair(), (0, 1));
            assert!(c.tca.abs() < 1.0, "tca = {}", c.tca);
            // The filter stats must show the pair went through the chain.
            let stats = report.filter_stats.unwrap();
            assert_eq!(stats.tested, 1);
            assert_eq!(stats.kept, 1);
        }

        #[test]
        fn coplanar_candidates_take_the_sampled_path() {
            // Two coplanar satellites, one trailing the other closely on the
            // same orbit — within the (huge) hybrid cells but never within the
            // threshold.
            let pop = vec![
                KeplerElements::new(7_000.0, 0.001, 0.9, 1.0, 0.0, 0.0).unwrap(),
                KeplerElements::new(7_000.0, 0.001, 0.9, 1.0, 0.0, 0.005).unwrap(),
            ];
            let config = ScreeningConfig::hybrid_defaults(2.0, 600.0);
            let report = HybridScreener::new(config).screen(&pop);
            let stats = report.filter_stats.unwrap();
            assert_eq!(stats.coplanar, 1, "stats: {stats:?}");
            // Separation ≈ 0.005 rad · 7000 km = 35 km > 2 km: no conjunction.
            assert_eq!(report.conjunction_count(), 0);
        }

        #[test]
        fn coplanar_collision_course_is_detected() {
            // Two satellites on the same eccentric orbit with a tiny phase
            // offset stay ~0.7 m apart. Their chord distance oscillates with
            // the orbital period, so a span covering a full revolution contains
            // a genuine local minimum (PCA) — which the coplanar sampled path
            // must find. (Over a short span the distance is monotone and the
            // strict PCA definition correctly yields nothing.)
            let pop = vec![
                KeplerElements::new(7_000.0, 0.001, 0.9, 1.0, 0.0, 0.0).unwrap(),
                KeplerElements::new(7_000.0, 0.001, 0.9, 1.0, 0.0, 1e-7).unwrap(),
            ];
            let period = pop[0].period();
            let config = ScreeningConfig::hybrid_defaults(2.0, 1.2 * period);
            let report = HybridScreener::new(config).screen(&pop);
            assert!(report.conjunction_count() >= 1, "report: {report:?}");
            assert_eq!(report.filter_stats.unwrap().coplanar, 1);
        }

        #[test]
        fn apsis_separated_candidates_are_filtered_out() {
            // A LEO pair in the same *cell volume* cannot exist with a GEO
            // bird, so instead verify the stats path: LEO + slightly higher
            // LEO in crossing planes whose shells are 100+ km apart: the grid
            // (72 km cells) may pair them, the chain must drop them.
            let pop = vec![
                KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
                KeplerElements::new(7_130.0, 0.0, 1.2, 0.0, 0.0, 0.0).unwrap(),
            ];
            let config = ScreeningConfig::hybrid_defaults(2.0, 600.0);
            let report = HybridScreener::new(config).screen(&pop);
            assert_eq!(report.conjunction_count(), 0);
            if let Some(stats) = report.filter_stats {
                if stats.tested > 0 {
                    assert_eq!(stats.kept, 0);
                }
            }
        }

        #[test]
        fn hybrid_uses_larger_cells_than_grid() {
            let config = ScreeningConfig::hybrid_defaults(2.0, 600.0);
            let report = HybridScreener::new(config).screen(&crossing_pair_population());
            assert!(report.planner.cell_size_km > 70.0);
            assert_eq!(report.variant, "hybrid");
        }

        #[test]
        fn empty_population_is_fine() {
            let config = ScreeningConfig::hybrid_defaults(2.0, 60.0);
            let report = HybridScreener::new(config).screen(&[]);
            assert_eq!(report.conjunction_count(), 0);
        }

        #[test]
        #[should_panic(expected = "invalid screening configuration")]
        fn new_panics_on_invalid_config() {
            let mut config = ScreeningConfig::hybrid_defaults(2.0, 600.0);
            config.span_seconds = 0.0;
            HybridScreener::new(config);
        }

        #[test]
        fn cancellable_screen_matches_plain_screen_when_never_cancelled() {
            let pop = crossing_pair_population();
            let config = ScreeningConfig::hybrid_defaults(2.0, 600.0);
            let screener = HybridScreener::new(config);
            let plain = screener.screen(&pop);
            let token = CancelToken::new();
            let tokened = screener
                .screen_job(&pop, Some(&token))
                .expect("never tripped");
            assert_eq!(plain.conjunction_count(), tokened.conjunction_count());
            assert_eq!(plain.candidate_entries, tokened.candidate_entries);
            assert_eq!(plain.filter_stats, tokened.filter_stats);
            for (a, b) in plain.conjunctions.iter().zip(&tokened.conjunctions) {
                assert_eq!(a.pair(), b.pair());
                assert_eq!(a.tca.to_bits(), b.tca.to_bits());
                assert_eq!(a.pca_km.to_bits(), b.pca_km.to_bits());
            }
        }

        #[test]
        fn pre_tripped_token_cancels_before_any_work() {
            let pop = crossing_pair_population();
            let config = ScreeningConfig::hybrid_defaults(2.0, 600.0);
            let token = CancelToken::new();
            token.cancel();
            let result = HybridScreener::new(config).screen_job(&pop, Some(&token));
            assert_eq!(result.unwrap_err(), Cancelled);
        }
    }
}
