//! The post-extraction stage: what happens to candidate (pair, step)
//! entries once some extraction backend has produced them (§III steps 3
//! and 4, §IV-C).
//!
//! The paper's two variants share everything up to the candidate list and
//! differ only here — grid: one Brent search per entry; hybrid: group into
//! unique pairs, orbital filter chain, Brent search inside the filter
//! windows. A [`Stage`] is that choice plus its validated configuration,
//! and [`Stage::refine`] is the one function every screen ends in: the CPU
//! screeners, the gpusim screener and the service's full, delta and tail
//! screens. Its two parallel loops are written against an [`Executor`], so
//! the CPU (rayon chunks with a cancellation check between them) and a
//! simulated device (one kernel launch) run the same per-item code.

use crate::cancel::{check_opt, CancelToken, Cancelled};
use crate::config::{ScreeningConfig, Variant};
use crate::conjunction::Conjunction;
use crate::planner::{MemoryModel, PlannerReport};
use crate::refine::{grid_refine_interval, refine_pair};
use crate::screener::{distinct_pairs, Refined};
use crate::timing::{PhaseTimer, PhaseTimings};
use kessler_filters::{FilterChain, FilterConfig, FilterDecision, FilterStatsSnapshot};
use kessler_grid::CandidatePair;
use kessler_math::Interval;
use kessler_orbits::propagator::PropagationConstants;
use kessler_orbits::{BatchPropagator, ConstantsView, ContourSolver, KeplerElements};
use rayon::prelude::*;

/// The host executor hands rayon this many items between cancellation
/// checks: large enough that the per-chunk dispatch is noise, small enough
/// that a CANCEL lands within a few ms of work. Chunk outputs extend in
/// order, so chunking never changes a result.
const REFINE_CHUNK: usize = 8192;

/// Whatever runs a batch of independent work items over the satellites'
/// propagation constants.
pub trait Executor {
    /// The constants, where this executor's items read them.
    fn columns(&self) -> ConstantsView<'_>;

    /// `f(i)` for every `i < n`, the outputs concatenated in index order.
    /// `kernel` names the batch for executors that account per kernel.
    fn flat_map<T, I, F>(&self, kernel: &str, n: usize, f: F) -> Result<Vec<T>, Cancelled>
    where
        T: Send,
        I: IntoIterator<Item = T> + Send,
        F: Fn(usize) -> I + Send + Sync;
}

/// The CPU: constants in host memory, items on the current rayon pool in
/// `REFINE_CHUNK` chunks, `cancel` checked between chunks.
pub struct Host<'a> {
    pub propagator: &'a BatchPropagator,
    pub cancel: Option<&'a CancelToken>,
}

impl Executor for Host<'_> {
    fn columns(&self) -> ConstantsView<'_> {
        self.propagator.columns()
    }

    fn flat_map<T, I, F>(&self, _kernel: &str, n: usize, f: F) -> Result<Vec<T>, Cancelled>
    where
        T: Send,
        I: IntoIterator<Item = T> + Send,
        F: Fn(usize) -> I + Send + Sync,
    {
        let mut out = Vec::new();
        for start in (0..n).step_by(REFINE_CHUNK) {
            check_opt(self.cancel)?;
            let chunk = start..(start + REFINE_CHUNK).min(n);
            out.par_extend(chunk.into_par_iter().flat_map_iter(&f));
        }
        Ok(out)
    }
}

/// A unique candidate pair with every sampling step the grid saw it at.
pub struct GroupedPair {
    pub id_lo: u32,
    pub id_hi: u32,
    pub steps: Vec<u32>,
}

/// Collapse (pair, step) entries into unique pairs with their step lists.
pub fn group_pairs(mut entries: Vec<CandidatePair>) -> Vec<GroupedPair> {
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
/// intervals; excluded pairs produce nothing.
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

/// Which post-extraction rule runs, under which validated configuration.
#[derive(Clone, Copy)]
pub struct Stage {
    variant: Variant,
    config: ScreeningConfig,
    solver: ContourSolver,
}

impl Stage {
    /// Fallible by design: a variant without a grid stage or an invalid
    /// configuration is an `Err` here, so nothing built on a `Stage` can
    /// meet either inside a running job.
    pub fn new(variant: Variant, config: ScreeningConfig) -> Result<Stage, String> {
        if !matches!(variant, Variant::Grid | Variant::Hybrid) {
            return Err(format!(
                "the post-extraction stage is grid or hybrid, not `{}`",
                variant.label()
            ));
        }
        config.validate()?;
        Ok(Stage {
            variant,
            config,
            solver: ContourSolver::default(),
        })
    }

    /// [`Stage::new`] for the constructors that treat an invalid
    /// configuration as a programming error.
    pub(crate) fn valid(variant: Variant, config: ScreeningConfig) -> Stage {
        Stage::new(variant, config).expect("invalid screening configuration")
    }

    /// The same stage over another span (the service screens a window
    /// advance's freshly exposed tail this way).
    pub fn with_span(mut self, span_seconds: f64) -> Result<Stage, String> {
        self.config.span_seconds = span_seconds;
        self.config.validate()?;
        Ok(self)
    }

    pub fn variant(&self) -> Variant {
        self.variant
    }

    pub fn config(&self) -> &ScreeningConfig {
        &self.config
    }

    pub(crate) fn solver(&self) -> &ContourSolver {
        &self.solver
    }

    /// The planner's cell size, step and pair-set sizing for `n`
    /// satellites — what extraction must run at for this stage.
    pub fn plan(&self, n: usize) -> PlannerReport {
        self.plan_within(n, self.config.memory_budget_bytes)
    }

    /// [`Stage::plan`] against another memory budget (a device's).
    pub(crate) fn plan_within(&self, n: usize, memory_budget_bytes: usize) -> PlannerReport {
        let config = ScreeningConfig {
            memory_budget_bytes,
            ..self.config
        };
        MemoryModel::new(self.variant).plan(n, &config)
    }

    /// Turn candidate entries into conjunctions. `planner` must be the plan
    /// extraction ran under; `population` must be what `executor`'s
    /// constants were built from. Runs on the current rayon pool.
    ///
    /// The grid stage keeps the minima its ±2-cell intervals find just
    /// outside `[0, span]`; the hybrid stage clips to the span.
    pub fn refine<E: Executor>(
        &self,
        executor: &E,
        population: &[KeplerElements],
        entries: Vec<CandidatePair>,
        planner: &PlannerReport,
        timings: &mut PhaseTimings,
    ) -> Result<Refined, Cancelled> {
        let columns = executor.columns();
        let solver = &self.solver;
        let threshold_km = self.config.threshold_km;
        let constants =
            |lo: u32, hi: u32| (columns.gather(lo as usize), columns.gather(hi as usize));
        let hybrid = self.variant == Variant::Hybrid;

        let (found, candidate_pairs, filter_stats) = if hybrid {
            // Step 3 (§III): orbital filters on the unique pairs, one
            // decision per pair in pair order.
            let grouped = group_pairs(entries);
            let chain = FilterChain::new(FilterConfig::new(threshold_km));
            let span = Interval::new(0.0, self.config.span_seconds);
            let decisions = {
                let _timer = PhaseTimer::start(&mut timings.filters);
                executor.flat_map("coplanarity_filters", grouped.len(), |i| {
                    let g = &grouped[i];
                    Some(chain.evaluate(
                        &population[g.id_lo as usize],
                        &population[g.id_hi as usize],
                        span,
                    ))
                })?
            };
            let mut filter_stats = FilterStatsSnapshot::default();
            for d in &decisions {
                filter_stats.record(d);
            }
            // Step 4: PCA/TCA determination inside the filter windows.
            let _timer = PhaseTimer::start(&mut timings.refinement);
            let found = executor.flat_map("refine_pca_tca", grouped.len(), |i| {
                let g = &grouped[i];
                let (a, b) = constants(g.id_lo, g.id_hi);
                refine_filtered_pair(&a, &b, solver, g, &decisions[i], planner, threshold_km)
            })?;
            (found, grouped.len(), Some(filter_stats))
        } else {
            // Step 4 (§IV-C): one Brent search per candidate occurrence.
            let candidate_pairs = distinct_pairs(&entries);
            let _timer = PhaseTimer::start(&mut timings.refinement);
            let found = executor.flat_map("refine_pca_tca", entries.len(), |i| {
                let e = &entries[i];
                let (a, b) = constants(e.id_lo, e.id_hi);
                let t = e.step as f64 * planner.seconds_per_sample;
                let interval = grid_refine_interval(&a, &b, solver, t, planner.cell_size_km);
                refine_pair(&a, &b, solver, e.id_lo, e.id_hi, interval, threshold_km)
            })?;
            (found, candidate_pairs, None)
        };
        Ok(Refined::settle(
            found,
            candidate_pairs,
            filter_stats,
            &self.config,
            hybrid,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_pairs_collapses_steps() {
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
    fn only_grid_and_hybrid_with_a_valid_config_make_a_stage() {
        let config = ScreeningConfig::grid_defaults(2.0, 600.0);
        assert!(Stage::new(Variant::Grid, config).is_ok());
        assert!(Stage::new(Variant::Hybrid, config).is_ok());
        assert!(Stage::new(Variant::Legacy, config).is_err());
        let mut bad = config;
        bad.threshold_km = -1.0;
        assert!(Stage::new(Variant::Grid, bad).is_err());
        assert!(Stage::new(Variant::Hybrid, bad).is_err());
        let stage = Stage::new(Variant::Hybrid, config).unwrap();
        assert!(stage.with_span(0.0).is_err());
        assert_eq!(stage.with_span(60.0).unwrap().config().span_seconds, 60.0);
    }

    #[test]
    fn host_executor_keeps_index_order_across_chunks_and_observes_the_token() {
        let propagator = BatchPropagator::new(&[]);
        let host = Host {
            propagator: &propagator,
            cancel: None,
        };
        let n = 2 * REFINE_CHUNK + 17;
        let odd = host
            .flat_map("test", n, |i| (i % 2 == 1).then_some(i))
            .unwrap();
        assert_eq!(odd.len(), n / 2);
        assert!(odd.windows(2).all(|w| w[0] < w[1]));

        let token = CancelToken::new();
        token.cancel();
        let cancelled = Host {
            propagator: &propagator,
            cancel: Some(&token),
        };
        assert_eq!(cancelled.flat_map("test", 1, Some).unwrap_err(), Cancelled);
        assert_eq!(cancelled.flat_map("test", 0, Some), Ok(Vec::new()));
    }
}
