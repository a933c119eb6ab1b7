//! The purely grid-based screening variant (§III, §IV).

use crate::cancel::{check_opt, CancelToken, Cancelled};
use crate::config::{ScreeningConfig, Variant};
use crate::conjunction::{dedup_conjunctions, Conjunction, ScreeningReport};
use crate::planner::{MemoryModel, PlannerReport};
use crate::refine::{grid_refine_interval, refine_pair, Refined, REFINE_CHUNK};
use crate::screener::grid_phase::run_grid_phase_cancellable;
use crate::screener::{run_in_pool, Screener};
use crate::timing::{PhaseTimer, PhaseTimings};
use kessler_grid::CandidatePair;
use kessler_orbits::{BatchPropagator, ContourSolver, KeplerElements};
use rayon::prelude::*;
use std::collections::HashSet;
use std::time::Instant;

/// Grid-based conjunction screener.
///
/// Pipeline per §III: allocate once → per step: parallel propagation +
/// insertion + pair extraction → Brent PCA/TCA refinement of every
/// candidate (no orbital filters).
pub struct GridScreener {
    config: ScreeningConfig,
    solver: ContourSolver,
}

impl GridScreener {
    /// Fallible constructor: an invalid configuration is an `Err`, never a
    /// panic. Long-running callers (the service daemon) use this so a bad
    /// config becomes an error response instead of a crash.
    pub fn try_new(config: ScreeningConfig) -> Result<GridScreener, String> {
        config.validate()?;
        Ok(GridScreener {
            config,
            solver: ContourSolver::default(),
        })
    }

    /// Panicking convenience wrapper around [`GridScreener::try_new`] for
    /// bench/CLI paths where an invalid config is a programming error.
    pub fn new(config: ScreeningConfig) -> GridScreener {
        GridScreener::try_new(config).expect("invalid screening configuration")
    }

    pub fn config(&self) -> &ScreeningConfig {
        &self.config
    }

    /// The full grid pipeline as a cancellable job, on the configured
    /// thread pool: `cancel`, when given, is checked at phase boundaries —
    /// between grid sampling steps and between refinement chunks. A job
    /// that completes returns the same report with or without a token.
    pub fn screen_job(
        &self,
        population: &[KeplerElements],
        cancel: Option<&CancelToken>,
    ) -> Result<ScreeningReport, Cancelled> {
        run_in_pool(self.config.threads, || {
            let config = &self.config;
            let wall = Instant::now();
            let mut timings = PhaseTimings::default();
            let planner = MemoryModel::new(Variant::Grid).plan(population.len(), config);

            // Step 1 (§III): fixed allocations — satellite data and the
            // precomputed Kepler solver constants.
            let propagator = BatchPropagator::new(population);

            // Steps 2: propagation, insertion, pair identification.
            let phase =
                run_grid_phase_cancellable(&propagator, config, &planner, &mut timings, cancel)?;
            let candidate_entries = phase.entries.len();

            let refined = refine_grid_entries(
                &propagator,
                &phase.entries,
                &planner,
                config,
                &self.solver,
                &mut timings,
                cancel,
            )?;

            timings.total = wall.elapsed();
            Ok(ScreeningReport {
                variant: Variant::Grid.label().to_string(),
                n_satellites: population.len(),
                config: *config,
                conjunctions: refined.conjunctions,
                candidate_entries,
                candidate_pairs: refined.candidate_pairs,
                pair_set_regrows: phase.regrows,
                timings,
                planner,
                filter_stats: None,
                device_metrics: None,
            })
        })
    }
}

/// The grid variant's post-extraction stage (step 4, §IV-C): one Brent
/// PCA/TCA search per candidate occurrence, all independent, then TCA
/// dedup. The cold screen and the service's delta screen both end in this
/// function, which is what makes a delta's changed pairs refine to the
/// conjunctions a cold screen finds. Must be called from inside the rayon
/// pool the caller wants the parallel phase to run on.
pub fn refine_grid_entries(
    propagator: &BatchPropagator,
    entries: &[CandidatePair],
    planner: &PlannerReport,
    config: &ScreeningConfig,
    solver: &ContourSolver,
    timings: &mut PhaseTimings,
    cancel: Option<&CancelToken>,
) -> Result<Refined, Cancelled> {
    let candidate_pairs = entries
        .iter()
        .map(|e| (e.id_lo, e.id_hi))
        .collect::<HashSet<_>>()
        .len();
    let mut found: Vec<Conjunction> = Vec::new();
    {
        let _timer = PhaseTimer::start(&mut timings.refinement);
        let columns = propagator.columns();
        for chunk in entries.chunks(REFINE_CHUNK) {
            check_opt(cancel)?;
            found.par_extend(chunk.par_iter().filter_map(|entry| {
                // Gather the two satellites' constants out of the SoA
                // columns for the scalar Brent search.
                let a = columns.gather(entry.id_lo as usize);
                let b = columns.gather(entry.id_hi as usize);
                let t = entry.step as f64 * planner.seconds_per_sample;
                let interval = grid_refine_interval(&a, &b, solver, t, planner.cell_size_km);
                refine_pair(
                    &a,
                    &b,
                    solver,
                    entry.id_lo,
                    entry.id_hi,
                    interval,
                    config.threshold_km,
                )
            }));
        }
    }
    Ok(Refined {
        conjunctions: dedup_conjunctions(found, config.tca_dedup_tolerance_s),
        candidate_pairs,
        filter_stats: None,
    })
}

impl Screener for GridScreener {
    fn screen(&self, population: &[KeplerElements]) -> ScreeningReport {
        self.screen_job(population, None)
            .expect("uncancellable screen cannot be cancelled")
    }

    fn label(&self) -> &str {
        "grid"
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
        assert_eq!(result.unwrap_err(), crate::cancel::Cancelled);
    }

    #[test]
    #[should_panic(expected = "invalid screening configuration")]
    fn invalid_config_is_rejected_at_construction() {
        let mut config = ScreeningConfig::grid_defaults(2.0, 600.0);
        config.threshold_km = -1.0;
        GridScreener::new(config);
    }

    #[test]
    fn try_new_rejects_invalid_config_without_panicking() {
        let mut config = ScreeningConfig::grid_defaults(2.0, 600.0);
        config.threshold_km = -1.0;
        assert!(GridScreener::try_new(config).is_err());
    }
}
