//! The hybrid screening variant (§III, §IV-C): grid pre-filter with larger
//! cells and steps, classical orbital filters on the candidates, Brent
//! refinement inside the filter-derived time windows.

use crate::cancel::{check_opt, CancelToken, Cancelled};
use crate::config::{ScreeningConfig, Variant};
use crate::conjunction::{dedup_conjunctions, Conjunction, ScreeningReport};
use crate::planner::{MemoryModel, PlannerReport};
use crate::refine::{grid_refine_interval, refine_pair, Refined, REFINE_CHUNK};
use crate::screener::grid_phase::run_grid_phase_cancellable;
use crate::screener::{run_in_pool, Screener};
use crate::timing::{PhaseTimer, PhaseTimings};
use kessler_filters::{FilterChain, FilterConfig, FilterDecision};
use kessler_math::Interval;
use kessler_orbits::propagator::PropagationConstants;
use kessler_orbits::{BatchPropagator, ContourSolver, KeplerElements};
use rayon::prelude::*;
use std::time::Instant;

/// Hybrid conjunction screener.
pub struct HybridScreener {
    config: ScreeningConfig,
    filter_config: FilterConfig,
    solver: ContourSolver,
}

/// A unique candidate pair with every sampling step the grid saw it at.
pub struct GroupedPair {
    pub id_lo: u32,
    pub id_hi: u32,
    pub steps: Vec<u32>,
}

impl HybridScreener {
    /// Fallible constructor: an invalid configuration is an `Err`, never a
    /// panic. Long-running callers (the service daemon) use this so a bad
    /// config becomes an error response instead of a crash.
    pub fn try_new(config: ScreeningConfig) -> Result<HybridScreener, String> {
        config.validate()?;
        Ok(HybridScreener {
            config,
            filter_config: FilterConfig::new(config.threshold_km),
            solver: ContourSolver::default(),
        })
    }

    /// Panicking convenience wrapper around [`HybridScreener::try_new`]
    /// for bench/CLI paths where an invalid config is a programming error.
    pub fn new(config: ScreeningConfig) -> HybridScreener {
        HybridScreener::try_new(config).expect("invalid screening configuration")
    }

    /// Override the filter configuration (padding, coplanarity tolerance).
    pub fn with_filter_config(mut self, fc: FilterConfig) -> HybridScreener {
        self.filter_config = fc;
        self
    }

    pub fn config(&self) -> &ScreeningConfig {
        &self.config
    }

    /// The full hybrid pipeline as a cancellable job, on the configured
    /// thread pool: `cancel`, when given, is checked at phase boundaries —
    /// between grid sampling steps, between filter-evaluation chunks, and
    /// between refinement chunks. A job that completes returns the same
    /// report with or without a token.
    pub fn screen_job(
        &self,
        population: &[KeplerElements],
        cancel: Option<&CancelToken>,
    ) -> Result<ScreeningReport, Cancelled> {
        run_in_pool(self.config.threads, || {
            let config = &self.config;
            let wall = Instant::now();
            let mut timings = PhaseTimings::default();
            let planner = MemoryModel::new(Variant::Hybrid).plan(population.len(), config);

            let propagator = BatchPropagator::new(population);

            // Grid pre-filter at the (possibly reduced) hybrid step size.
            let phase =
                run_grid_phase_cancellable(&propagator, config, &planner, &mut timings, cancel)?;
            let candidate_entries = phase.entries.len();

            let refined = refine_hybrid_entries(
                &propagator,
                population,
                phase.entries,
                &planner,
                config,
                &self.filter_config,
                &self.solver,
                &mut timings,
                cancel,
            )?;

            timings.total = wall.elapsed();
            Ok(ScreeningReport {
                variant: Variant::Hybrid.label().to_string(),
                n_satellites: population.len(),
                config: *config,
                conjunctions: refined.conjunctions,
                candidate_entries,
                candidate_pairs: refined.candidate_pairs,
                pair_set_regrows: phase.regrows,
                timings,
                planner,
                filter_stats: refined.filter_stats,
                device_metrics: None,
            })
        })
    }
}

/// Collapse (pair, step) entries into unique pairs with their step lists.
pub fn group_pairs(mut entries: Vec<kessler_grid::CandidatePair>) -> Vec<GroupedPair> {
    entries.sort_unstable();
    let mut out: Vec<GroupedPair> = Vec::new();
    for e in entries {
        match out.last_mut() {
            Some(g) if g.id_lo == e.id_lo && g.id_hi == e.id_hi => g.steps.push(e.step),
            _ => out.push(GroupedPair {
                id_lo: e.id_lo,
                id_hi: e.id_hi,
                steps: vec![e.step],
            }),
        }
    }
    out
}

/// Step 4 (§IV-C) for one filtered pair: non-coplanar survivors search the
/// filter windows; coplanar pairs fall back to the grid-style per-step
/// intervals; excluded pairs produce nothing. Shared between the cold
/// hybrid screen and the service's hybrid delta path.
pub fn refine_filtered_pair(
    a: &PropagationConstants,
    b: &PropagationConstants,
    solver: &ContourSolver,
    pair: &GroupedPair,
    decision: &FilterDecision,
    planner: &PlannerReport,
    threshold_km: f64,
) -> Vec<Conjunction> {
    let mut local: Vec<Conjunction> = Vec::new();
    match decision {
        FilterDecision::Windows(windows) => {
            for w in windows {
                // Pad a little so boundary minima are interior;
                // refine_pair clips escapes.
                let padded = w.padded(1.0);
                if let Some(c) =
                    refine_pair(a, b, solver, pair.id_lo, pair.id_hi, padded, threshold_km)
                {
                    local.push(c);
                }
            }
        }
        FilterDecision::Coplanar => {
            for &step in &pair.steps {
                let t = step as f64 * planner.seconds_per_sample;
                let interval = grid_refine_interval(a, b, solver, t, planner.cell_size_km);
                if let Some(c) =
                    refine_pair(a, b, solver, pair.id_lo, pair.id_hi, interval, threshold_km)
                {
                    local.push(c);
                }
            }
        }
        FilterDecision::ExcludedApsis
        | FilterDecision::ExcludedPath
        | FilterDecision::ExcludedTime => {}
    }
    local
}

/// The hybrid variant's post-extraction stage (steps 3 and 4, §III): group
/// the (pair, step) entries into unique pairs, run the orbital filter chain
/// over them, refine the survivors inside the filter-derived windows, dedup
/// and clip to the screened span. The cold screen and the service's delta
/// screen both end in this function, which is what makes a delta's changed
/// pairs refine to the conjunctions a cold screen finds. Must be called
/// from inside the rayon pool the caller wants the parallel phases on.
#[allow(clippy::too_many_arguments)] // the grid stage's inputs plus what the chain reads
pub fn refine_hybrid_entries(
    propagator: &BatchPropagator,
    population: &[KeplerElements],
    entries: Vec<kessler_grid::CandidatePair>,
    planner: &PlannerReport,
    config: &ScreeningConfig,
    filter_config: &FilterConfig,
    solver: &ContourSolver,
    timings: &mut PhaseTimings,
    cancel: Option<&CancelToken>,
) -> Result<Refined, Cancelled> {
    let grouped = group_pairs(entries);

    // Step 3 (§III): orbital filters on the unique pairs. Chunked so a
    // tripped token is observed between chunks.
    let chain = FilterChain::new(*filter_config);
    let span = Interval::new(0.0, config.span_seconds);
    let mut decisions: Vec<FilterDecision> = Vec::with_capacity(grouped.len());
    {
        let _timer = PhaseTimer::start(&mut timings.filters);
        for chunk in grouped.chunks(REFINE_CHUNK) {
            check_opt(cancel)?;
            decisions.par_extend(chunk.par_iter().map(|g| {
                chain.evaluate(
                    &population[g.id_lo as usize],
                    &population[g.id_hi as usize],
                    span,
                )
            }));
        }
    }

    // Step 4: PCA/TCA determination inside the filter-derived windows.
    let mut found: Vec<Conjunction> = Vec::new();
    {
        let _timer = PhaseTimer::start(&mut timings.refinement);
        let columns = propagator.columns();
        for (gchunk, dchunk) in grouped
            .chunks(REFINE_CHUNK)
            .zip(decisions.chunks(REFINE_CHUNK))
        {
            check_opt(cancel)?;
            found.par_extend(gchunk.par_iter().zip(dchunk.par_iter()).flat_map_iter(
                |(g, decision)| {
                    refine_filtered_pair(
                        &columns.gather(g.id_lo as usize),
                        &columns.gather(g.id_hi as usize),
                        solver,
                        g,
                        decision,
                        planner,
                        config.threshold_km,
                    )
                },
            ));
        }
    }
    let mut found = dedup_conjunctions(found, config.tca_dedup_tolerance_s);
    // Conjunctions must lie inside the screened span.
    found.retain(|c| c.tca >= span.start - 1e-9 && c.tca <= span.end + 1e-9);

    Ok(Refined {
        conjunctions: found,
        candidate_pairs: grouped.len(),
        filter_stats: Some(chain.stats.snapshot()),
    })
}

impl Screener for HybridScreener {
    fn screen(&self, population: &[KeplerElements]) -> ScreeningReport {
        self.screen_job(population, None)
            .expect("uncancellable screen cannot be cancelled")
    }

    fn label(&self) -> &str {
        "hybrid"
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
    fn group_pairs_collapses_steps() {
        use kessler_grid::CandidatePair;
        let grouped = group_pairs(vec![
            CandidatePair::new(1, 2, 5),
            CandidatePair::new(1, 2, 3),
            CandidatePair::new(2, 3, 0),
            CandidatePair::new(1, 2, 9),
        ]);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].steps, vec![3, 5, 9]);
        assert_eq!((grouped[1].id_lo, grouped[1].id_hi), (2, 3));
    }

    #[test]
    fn empty_population_is_fine() {
        let config = ScreeningConfig::hybrid_defaults(2.0, 60.0);
        let report = HybridScreener::new(config).screen(&[]);
        assert_eq!(report.conjunction_count(), 0);
    }

    #[test]
    fn try_new_rejects_invalid_config_without_panicking() {
        let mut config = ScreeningConfig::hybrid_defaults(2.0, 600.0);
        config.threshold_km = -1.0;
        assert!(HybridScreener::try_new(config).is_err());
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
