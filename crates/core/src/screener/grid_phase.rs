//! The CPU grid phase: propagate → insert → extract candidate pairs,
//! repeated over all sampling steps (§III step 2).
//!
//! One step loop over the batch propagator, driven by every CPU screen that
//! has a grid; the gpusim screener re-expresses the same phases as kernel
//! launches. One grid is reused across steps via bulk reset (the paper
//! allocates `p` grids and fills them in parallel — on the CPU the
//! within-step rayon parallelism already saturates the cores, so the reuse
//! trades no parallelism for a `p×` memory saving; the planner still
//! reports `p` for the memory model).

use crate::cancel::{check_opt, CancelToken, Cancelled};
use crate::planner::PlannerReport;
use crate::timing::{PhaseTimer, PhaseTimings};
use kessler_grid::grid::NeighborScan;
use kessler_grid::pairset::{CandidatePair, PairSet};
use kessler_grid::SpatialGrid;
use kessler_math::Vec3;
use kessler_orbits::BatchPropagator;

/// Output of the grid phase.
pub(crate) struct GridPhaseOutput {
    /// All deduplicated (pair, step) candidate entries.
    pub entries: Vec<CandidatePair>,
    /// How many times the pair set had to be regrown on overflow (0 when
    /// the Extra-P sizing was sufficient, as it should normally be).
    pub regrows: usize,
}

/// Run the grid phase at the planner's cell size and step over the
/// satellites of `propagator`. `cancel` is checked between sampling steps;
/// a never-tripped token changes nothing.
pub(crate) fn run_grid_phase(
    propagator: &BatchPropagator,
    scan: NeighborScan,
    planner: &PlannerReport,
    timings: &mut PhaseTimings,
    cancel: Option<&CancelToken>,
) -> Result<GridPhaseOutput, Cancelled> {
    let n = propagator.len();
    let grid = SpatialGrid::new(n, planner.cell_size_km);
    let mut pairs = PairSet::with_capacity(planner.pair_capacity);
    let mut positions: Vec<Vec3> = vec![Vec3::ZERO; n];
    let mut regrows = 0usize;

    for step in 0..planner.total_steps {
        check_opt(cancel)?;
        let t = step as f64 * planner.seconds_per_sample;

        // INS: parallel propagation + parallel insertion.
        {
            let _timer = PhaseTimer::start(&mut timings.insertion);
            propagator.positions_into(t, &mut positions);
            if step > 0 {
                grid.reset();
            }
            grid.insert_all(&positions)
                .expect("grid sized at 2n slots cannot fill up");
        }

        // CD (pair extraction): parallel scan of occupied cells.
        {
            let _timer = PhaseTimer::start(&mut timings.pair_extraction);
            let mut overflow_before = pairs.overflow_count();
            grid.collect_candidate_pairs(step, scan, &pairs);
            // The Extra-P estimate is a model, not a guarantee; regrow on
            // overflow instead of silently dropping candidates.
            while pairs.overflow_count() > overflow_before {
                regrows += 1;
                let salvaged = pairs.drain_to_vec();
                pairs = PairSet::with_capacity(pairs.capacity() * 2);
                for p in salvaged {
                    pairs.insert(p);
                }
                overflow_before = pairs.overflow_count();
                grid.collect_candidate_pairs(step, scan, &pairs);
            }
        }
    }

    Ok(GridPhaseOutput {
        entries: pairs.drain_to_vec(),
        regrows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ScreeningConfig, Variant};
    use crate::planner::MemoryModel;
    use kessler_orbits::KeplerElements;

    fn kepler_phase(
        pop: &[KeplerElements],
        config: &ScreeningConfig,
        planner: &PlannerReport,
        timings: &mut PhaseTimings,
    ) -> GridPhaseOutput {
        run_grid_phase(
            &BatchPropagator::new(pop),
            config.neighbor_scan,
            planner,
            timings,
            None,
        )
        .expect("no token, no cancellation")
    }

    fn crossing_population() -> Vec<KeplerElements> {
        vec![
            KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
            KeplerElements::new(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.0).unwrap(),
            // A far-away GEO bird that never pairs with the LEO ones.
            KeplerElements::new(42_164.0, 0.0, 0.1, 1.0, 0.0, 0.0).unwrap(),
        ]
    }

    #[test]
    fn grid_phase_finds_the_crossing_pair_and_not_the_geo_bird() {
        let pop = crossing_population();
        let config = ScreeningConfig::grid_defaults(2.0, 30.0);
        let planner = MemoryModel::new(Variant::Grid).plan(pop.len(), &config);
        let mut timings = PhaseTimings::default();
        let out = kepler_phase(&pop, &config, &planner, &mut timings);
        assert_eq!(out.regrows, 0);
        assert!(
            !out.entries.is_empty(),
            "the co-phased crossing pair must appear"
        );
        for e in &out.entries {
            assert_eq!((e.id_lo, e.id_hi), (0, 1), "only the LEO pair may appear");
        }
        assert!(timings.insertion.as_nanos() > 0);
        assert!(timings.pair_extraction.as_nanos() > 0);
    }

    #[test]
    fn overflow_regrow_preserves_all_candidates() {
        // Force a ridiculous undersized pair set by capping capacity.
        let pop: Vec<KeplerElements> = (0..64)
            .map(|i| {
                // All in one tight shell so nearly everything pairs.
                KeplerElements::new(
                    7_000.0 + 0.001 * i as f64,
                    0.0,
                    0.9,
                    0.0,
                    0.0,
                    i as f64 * 1e-6,
                )
                .unwrap()
            })
            .collect();
        let mut config = ScreeningConfig::grid_defaults(2.0, 2.0);
        config.max_pair_capacity = Some(8);
        let planner = MemoryModel::new(Variant::Grid).plan(pop.len(), &config);
        assert_eq!(planner.pair_capacity, 8);
        let mut timings = PhaseTimings::default();
        let out = kepler_phase(&pop, &config, &planner, &mut timings);
        assert!(out.regrows > 0, "test must actually trigger regrowth");
        // All 64 satellites co-located → all C(64,2) pairs at both steps.
        let expected = 64 * 63 / 2 * planner.total_steps as usize;
        assert_eq!(out.entries.len(), expected);
    }
}
