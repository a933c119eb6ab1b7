//! Delta re-screening over grid neighbourhoods.
//!
//! A full grid screen visits every occupied cell. But when only `k` of `n`
//! satellites changed since the last screen, the candidate pairs that can
//! have changed are exactly those involving a changed satellite — and the
//! spatial grid answers "who is near satellite `c` at step `s`?" with one
//! cell lookup plus its 26 neighbours (§III-A). The engine therefore keeps
//! the maintained conjunction set warm — one list sorted by pair then TCA,
//! the order a screen report holds it in — and, per delta, bins only the
//! satellites that can reach a changed one within a block of steps (the
//! space-time cull of `kessler_core::extraction`), extracts candidates
//! only from the changed satellites' neighbourhoods — O(k · occupancy)
//! instead of O(occupied cells · occupancy) — and refines only pairs
//! involving changed satellites. That screen is core's
//! [`CpuScreener::screen_changed`] — the very call a cold screen makes
//! with everyone changed — and a delta adds only the warm-set bookkeeping
//! around it: keep the warm conjunctions of untouched pairs, append what
//! the changed satellites' screen found, sort once.
//!
//! Correctness invariant (checked by `tests/delta_correctness.rs`): a delta
//! screen after `k` element updates produces *exactly* the conjunction set
//! of a cold full re-screen. This holds because (1) adjacency is symmetric
//! — a pair's candidate entries exist iff the two satellites share a cell
//! or neighbouring cells, which only depends on their own positions; (2)
//! pairs with neither satellite changed keep identical entries and
//! therefore identical refined conjunctions; (3) refinement and TCA dedup
//! are deterministic functions of (pair, steps, config).

use crate::catalog::Removal;
use crate::error::ServiceError;
use crate::exec::Screened;
use crate::persist::GlobalState;
use crate::proto::LastScreen;
use kessler_core::cancel::{check_opt, CancelToken, Cancelled};
use kessler_core::conjunction::{Conjunction, ScreeningReport};
use kessler_core::{CpuScreener, ScreeningConfig, Variant};
use kessler_orbits::KeplerElements;
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Variant label grid delta reports carry.
pub const DELTA_VARIANT: &str = "grid-delta";

/// Variant label hybrid delta reports carry.
pub const HYBRID_DELTA_VARIANT: &str = "hybrid-delta";

/// Variant label a delta screen of `variant` reports.
fn delta_label(variant: Variant) -> &'static str {
    match variant {
        Variant::Hybrid => HYBRID_DELTA_VARIANT,
        _ => DELTA_VARIANT,
    }
}

/// Which screen a piece of work ran, and so which screen counter its
/// adoption bumps. For a window advance this is the pre-screen it folded
/// in to bring a stale or cold engine current before sliding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreenRun {
    /// None: the engine was warm and current, only the window slid.
    None,
    /// A full screen ran (SCREEN, or the cold fallback of DELTA/ADVANCE).
    Full,
    /// A delta screen ran (DELTA, or ADVANCE over pending changes).
    Delta,
}

/// Result of a sliding-window advance (see [`advance_window_job`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceOutcome {
    /// Conjunctions whose TCA slid out of the window.
    pub retired: usize,
    /// New conjunctions discovered in the freshly exposed tail.
    pub discovered: usize,
}

/// The one ADVANCE `dt` rule: the window only slides forward, by a finite
/// amount. Request planning answers with this error.
pub fn check_advance_dt(dt: f64) -> Result<(), ServiceError> {
    if dt.is_finite() && dt > 0.0 {
        Ok(())
    } else {
        Err(ServiceError::InvalidRequest(format!(
            "advance dt must be positive and finite, got {dt}"
        )))
    }
}

/// A conjunction-screening engine that stays warm between requests.
///
/// The screens themselves are the free functions [`screen_or_full`] and
/// [`advance_window_job`]: pure, cancellable computations over immutable
/// inputs. The engine's methods run them uncancellably and adopt the
/// result — the capture → run → adopt protocol the execution layer follows
/// with worker threads; a window advance is served only through that
/// layer (`ServiceState`).
pub struct DeltaEngine {
    screener: CpuScreener,
    /// Maintained conjunction set, sorted by pair then TCA. TCAs are
    /// seconds past the *current* element epoch (window-relative). Behind
    /// `Arc` so jobs can hold the warm set while the engine moves on.
    warm: Arc<Vec<Conjunction>>,
    /// Population size of the last adopted screen; `None` while cold.
    screened_n: Option<usize>,
    full_screens: u64,
    delta_screens: u64,
    /// Variant label (full label for full screens and advance tails,
    /// delta label for deltas), timings and filter-chain stats of the last
    /// *adopted* screen; `None` until one has been adopted or restored.
    last_screen: Option<LastScreen>,
}

impl DeltaEngine {
    /// Grid-variant engine.
    pub fn new(config: ScreeningConfig) -> Result<DeltaEngine, ServiceError> {
        CpuScreener::new(Variant::Grid, config)
            .map(DeltaEngine::with_screener)
            .map_err(ServiceError::Config)
    }

    /// Cold engine screening with `screener` (variant and validated
    /// config).
    pub fn with_screener(screener: CpuScreener) -> DeltaEngine {
        DeltaEngine {
            screener,
            warm: Arc::default(),
            screened_n: None,
            full_screens: 0,
            delta_screens: 0,
            last_screen: None,
        }
    }

    /// Rebuild an engine from a recovery point's global state: screen
    /// counters, the maintained conjunction set as it was written, and the
    /// last adopted screen's info so a recovered daemon's STATUS keeps
    /// reporting the pre-crash screen. When the point was written under
    /// another variant the engine comes back cold, counters intact: warm
    /// pairs from another variant's screener are not valid delta inputs,
    /// so the first DELTA after restart falls back to a full screen.
    pub fn restore(
        screener: CpuScreener,
        global: &GlobalState,
    ) -> Result<DeltaEngine, ServiceError> {
        let mut engine = DeltaEngine {
            full_screens: global.full_screens,
            delta_screens: global.delta_screens,
            ..DeltaEngine::with_screener(screener)
        };
        if screener.variant() != global.variant {
            return Ok(engine);
        }
        let conjunctions = &global.conjunctions;
        if !conjunctions.is_sorted_by(|a, b| by_pair_then_tca(a, b).is_le()) {
            return Err(ServiceError::Recovery(
                "conjunctions are not sorted by pair then TCA".to_string(),
            ));
        }
        if global.screened_n.is_none() && !conjunctions.is_empty() {
            return Err(ServiceError::Recovery(format!(
                "cold engine cannot hold {} conjunctions",
                conjunctions.len()
            )));
        }
        if let Some(n) = global.screened_n {
            if let Some(c) = conjunctions.iter().find(|c| c.pair().1 as usize >= n) {
                return Err(ServiceError::Recovery(format!(
                    "conjunction references index {} past population of {n}",
                    c.pair().1
                )));
            }
        }
        engine.warm = Arc::new(conjunctions.clone());
        engine.screened_n = global.screened_n;
        engine.last_screen = global.last_screen.clone();
        Ok(engine)
    }

    pub fn config(&self) -> &ScreeningConfig {
        self.screener.config()
    }

    /// The screening variant this engine runs.
    pub fn variant(&self) -> Variant {
        self.screener.variant()
    }

    /// The screener (variant and config), for capturing jobs
    /// against.
    pub fn screener(&self) -> &CpuScreener {
        &self.screener
    }

    /// `true` once a full screen has populated the maintained set.
    pub fn is_warm(&self) -> bool {
        self.screened_n.is_some()
    }

    /// Population size of the last adopted screen; `None` while cold.
    pub fn screened_n(&self) -> Option<usize> {
        self.screened_n
    }

    pub fn full_screens(&self) -> u64 {
        self.full_screens
    }

    pub fn delta_screens(&self) -> u64 {
        self.delta_screens
    }

    /// Variant label (e.g. `grid`, `hybrid-delta`), timings and filter
    /// stats of the last adopted screen; `None` until one has been adopted
    /// or restored.
    pub fn last_screen(&self) -> Option<&LastScreen> {
        self.last_screen.as_ref()
    }

    /// Number of maintained conjunctions.
    pub fn conjunction_count(&self) -> usize {
        self.warm.len()
    }

    /// The maintained conjunction set, sorted by pair then TCA.
    pub fn conjunctions(&self) -> Vec<Conjunction> {
        self.warm.to_vec()
    }

    /// A shared handle to the maintained set, for jobs that screen against
    /// a snapshot while the engine keeps serving.
    pub(crate) fn warm(&self) -> Arc<Vec<Conjunction>> {
        Arc::clone(&self.warm)
    }

    /// Adopt a completed screen or window advance as the maintained set
    /// over `n` satellites. `conjunctions` must be sorted by pair then TCA.
    /// `ran` picks the screen counter to bump; `last` describes the screen
    /// that produced them (for an advance, the tail screen).
    pub(crate) fn adopt(
        &mut self,
        conjunctions: Vec<Conjunction>,
        n: usize,
        ran: ScreenRun,
        last: LastScreen,
    ) {
        self.warm = Arc::new(conjunctions);
        self.screened_n = Some(n);
        match ran {
            ScreenRun::None => {}
            ScreenRun::Full => self.full_screens += 1,
            ScreenRun::Delta => self.delta_screens += 1,
        }
        self.last_screen = Some(last);
    }

    /// Cold full screen; adopts the result as the maintained set.
    pub fn full_screen(&mut self, population: &[KeplerElements]) -> ScreeningReport {
        self.screen(population, &[], false)
    }

    /// Account for a catalog `swap_remove`: pairs of the removed satellite
    /// are gone, pairs keyed under the mover's old index are stale, and the
    /// caller must mark `removal.removed_index` as changed when a satellite
    /// actually moved into the hole.
    pub fn apply_removal(&mut self, removal: Removal, new_len: usize) {
        drop_removed(Arc::make_mut(&mut self.warm), removal, new_len);
        if self.screened_n.is_some() {
            self.screened_n = Some(new_len);
        }
    }

    /// Re-screen only the neighbourhoods of `changed` satellites and merge
    /// into the maintained set. `population` is the complete current
    /// element slice; `changed` lists every dense index whose elements
    /// differ from the last adopted screen (including newly added
    /// satellites). Falls back to a full screen while cold.
    ///
    /// The returned report's `conjunctions` is the full maintained set —
    /// directly comparable with a cold full re-screen — while
    /// `candidate_entries`/`candidate_pairs` count only the delta work.
    pub fn delta_screen(
        &mut self,
        population: &[KeplerElements],
        changed: &[u32],
    ) -> ScreeningReport {
        self.screen(population, changed, true)
    }

    /// Run [`screen_or_full`] against the warm set when `delta` asks for
    /// it, and adopt the result.
    fn screen(
        &mut self,
        population: &[KeplerElements],
        changed: &[u32],
        delta: bool,
    ) -> ScreeningReport {
        let warm = (delta && self.is_warm()).then(|| self.warm.as_slice());
        let screened = screen_or_full(&self.screener, population, changed, warm, None)
            .expect("uncancellable screen cannot be cancelled");
        let report = *screened.report;
        self.adopt(
            report.conjunctions.clone(),
            report.n_satellites,
            screened.ran,
            LastScreen::from_report(&report),
        );
        report
    }
}

/// The maintained set's order, which is also a screen report's: by pair,
/// then by TCA.
fn by_pair_then_tca(a: &Conjunction, b: &Conjunction) -> Ordering {
    a.pair().cmp(&b.pair()).then(a.tca.total_cmp(&b.tca))
}

/// Apply a catalog `swap_remove` to a maintained set: conjunctions of the
/// removed satellite are gone, those under the mover's old index are
/// stale, and nothing may reference an index at or past the new end. The
/// engine method [`DeltaEngine::apply_removal`] and the execution layer's
/// stale-result replay both route through this, so they invalidate
/// identically. Order is kept.
pub(crate) fn drop_removed(set: &mut Vec<Conjunction>, removal: Removal, new_len: usize) {
    let gone = |i: u32| i == removal.removed_index || Some(i) == removal.moved_from;
    set.retain(|c| !gone(c.id_lo) && !gone(c.id_hi) && (c.id_hi as usize) < new_len);
}

/// The one screen job, for SCREEN, DELTA and an ADVANCE's pre-screen
/// alike: pure, with cancellation checked at its phase boundaries (between
/// grid sampling steps, filter chunks and refinement chunks); the inputs
/// are never mutated, so a cancelled job leaves no trace.
///
/// Without a `warm` set — a SCREEN passes none, and a cold engine has
/// none — it is the screener's own cold screen of `population`, its
/// report as the screener returned it. With one, it is a delta: only the
/// neighbourhoods of `changed` satellites are re-screened and merged into
/// what stayed warm, and the report's `conjunctions` is the full merged
/// set (directly comparable with a cold full re-screen) while
/// `candidate_entries`/`candidate_pairs` count only the delta work and
/// `timings.total` covers the warm-set bookkeeping too. Either way the
/// report's `conjunctions` is sorted by pair then TCA, and is the set an
/// engine adopts.
pub fn screen_or_full(
    screener: &CpuScreener,
    population: &[KeplerElements],
    changed: &[u32],
    warm: Option<&[Conjunction]>,
    cancel: Option<&CancelToken>,
) -> Result<Screened, Cancelled> {
    let n = population.len();
    let Some(warm) = warm else {
        let everyone: Vec<u32> = (0..n as u32).collect();
        let (report, _) = screener.screen_changed(population, &everyone, cancel)?;
        return Ok(Screened {
            report: Box::new(report),
            ran: ScreenRun::Full,
        });
    };
    let wall = Instant::now();
    let mut changed: Vec<u32> = changed
        .iter()
        .copied()
        .filter(|&c| (c as usize) < n)
        .collect();
    changed.sort_unstable();
    changed.dedup();

    // 1. Every warm pair involving a changed satellite is recomputed from
    // scratch; pairs past the population end cannot exist.
    let untouched = |i: u32| changed.binary_search(&i).is_err();
    let mut merged: Vec<Conjunction> = warm
        .iter()
        .filter(|c| (c.id_hi as usize) < n && untouched(c.id_lo) && untouched(c.id_hi))
        .copied()
        .collect();

    // 2. The changed satellites' pairs, screened as a cold screen would.
    let (mut report, _) = screener.screen_changed(population, &changed, cancel)?;

    // 3. Merge them into what stayed warm: no pair comes from both sides,
    // and each side holds a pair's conjunctions in TCA order.
    merged.append(&mut report.conjunctions);
    merged.sort_by(by_pair_then_tca);

    // 4. The report describes the merged set, under the delta label.
    report.variant = delta_label(screener.variant()).to_string();
    report.conjunctions = merged;
    report.timings.total = wall.elapsed();
    Ok(Screened {
        report: Box::new(report),
        ran: ScreenRun::Delta,
    })
}

/// Window advance as a pure job over an owned copy of the maintained set
/// (sorted by pair then TCA): retire conjunctions whose TCA dropped before
/// the new window start, shift the survivors, screen the freshly exposed
/// tail, and merge. Hands back the slid set, in the same order, the
/// retire/discover counts and the tail screen's info. `population` must
/// already be advanced to the new epoch and `dt` must have passed
/// [`check_advance_dt`].
pub fn advance_window_job(
    screener: &CpuScreener,
    population: &[KeplerElements],
    dt: f64,
    mut set: Vec<Conjunction>,
    cancel: Option<&CancelToken>,
) -> Result<(Vec<Conjunction>, AdvanceOutcome, LastScreen), Cancelled> {
    let config = screener.config();
    let span = config.span_seconds;
    let overlap = config.seconds_per_sample;
    check_opt(cancel)?;

    // Retire + shift: TCAs are relative to the element epoch, which just
    // moved forward by dt. Shifting every TCA by the same dt keeps the order.
    let before = set.len();
    set.retain_mut(|c| {
        c.tca -= dt;
        c.tca >= 0.0
    });
    let retired = before - set.len();

    // Screen the newly exposed tail [span − dt − overlap, span]; the
    // one-sample overlap re-covers the seam so a minimum straddling the
    // old window end is not lost. Merging dedups re-found seam minima.
    let tail_offset = (span - dt - overlap).max(0.0);
    let tail_span = span - tail_offset;
    let tail_elements: Vec<KeplerElements> = population
        .iter()
        .map(|el| {
            let mut advanced = *el;
            advanced.mean_anomaly = el.mean_anomaly_at(tail_offset);
            advanced
        })
        .collect();
    let report = screener
        .with_span(tail_span)
        .expect("a positive tail of a validated span is valid")
        .screen_job(&tail_elements, cancel)?;

    // Each tail minimum merges with the first conjunction of its pair
    // within `merge_tol`, looking at the survivors in TCA order and then at
    // what this tail already added, or else is added itself. The tail
    // report is sorted by pair, so a pair's additions sit at the end of
    // `added` while its minima are merged.
    let merge_tol = config.tca_dedup_tolerance_s.max(overlap);
    let mut added: Vec<Conjunction> = Vec::new();
    for c in &report.conjunctions {
        let mut shifted = *c;
        shifted.tca += tail_offset;
        let pair = shifted.pair();
        let survivors =
            set.partition_point(|e| e.pair() < pair)..set.partition_point(|e| e.pair() <= pair);
        let this_pair = added.len() - added.iter().rev().take_while(|a| a.pair() == pair).count();
        match set[survivors]
            .iter_mut()
            .chain(&mut added[this_pair..])
            .find(|e| (e.tca - shifted.tca).abs() <= merge_tol)
        {
            Some(existing) => {
                if shifted.pca_km < existing.pca_km {
                    *existing = shifted;
                }
            }
            None => added.push(shifted),
        }
    }
    let outcome = AdvanceOutcome {
        retired,
        discovered: added.len(),
    };
    set.append(&mut added);
    set.sort_by(by_pair_then_tca);
    Ok((set, outcome, LastScreen::from_report(&report)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::proto::{ElementsSpec, Request};
    use crate::server::ServiceState;
    use kessler_core::{GridScreener, HybridScreener, Screener};
    use kessler_population::{PopulationConfig, PopulationGenerator};

    fn population(n: usize, seed: u64) -> Vec<KeplerElements> {
        PopulationGenerator::new(PopulationConfig {
            seed,
            ..Default::default()
        })
        .generate(n)
    }

    fn perturb(el: &KeplerElements, bump: f64) -> KeplerElements {
        KeplerElements::new(
            el.semi_major_axis + bump,
            el.eccentricity,
            el.inclination,
            el.raan + 0.01,
            el.arg_perigee,
            el.mean_anomaly + 0.2,
        )
        .unwrap()
    }

    /// A daemon state holding `pop` under `screener`, screened once, and
    /// the number of conjunctions that screen found.
    fn screened_state(screener: CpuScreener, pop: &[KeplerElements]) -> (ServiceState, usize) {
        let mut state = ServiceState::with_screener(screener);
        for (id, el) in pop.iter().enumerate() {
            let elements = ElementsSpec::from_elements(el);
            assert!(
                state
                    .handle(&Request::Add {
                        id: id as u64,
                        elements
                    })
                    .ok
            );
        }
        let screen = state
            .handle(&Request::Screen)
            .screen
            .expect("SCREEN answers");
        (state, screen.conjunctions)
    }

    /// ADVANCE through the request path, as the daemon serves it.
    fn advance(state: &mut ServiceState, dt: f64) -> Result<AdvanceOutcome, String> {
        let response = state.handle(&Request::Advance { dt });
        match response.advance {
            Some(ack) => Ok(AdvanceOutcome {
                retired: ack.retired,
                discovered: ack.discovered,
            }),
            None => Err(response.error.unwrap_or_default()),
        }
    }

    #[test]
    fn cold_delta_falls_back_to_full_screen() {
        let pop = population(50, 7);
        let config = ScreeningConfig::grid_defaults(5.0, 60.0);
        let mut engine = DeltaEngine::new(config).unwrap();
        assert!(!engine.is_warm());
        let report = engine.delta_screen(&pop, &[]);
        assert_eq!(report.variant, "grid");
        assert!(engine.is_warm());
        assert_eq!(engine.full_screens(), 1);
        assert_eq!(engine.delta_screens(), 0);
    }

    #[test]
    fn delta_after_updates_matches_cold_screen() {
        let pop = population(400, 42);
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut engine = DeltaEngine::new(config).unwrap();
        engine.full_screen(&pop);

        let mut updated = pop.clone();
        let changed: Vec<u32> = (0..8).map(|j| j * 41).collect();
        for &idx in &changed {
            updated[idx as usize] = perturb(&updated[idx as usize], 1.0);
        }
        let delta = engine.delta_screen(&updated, &changed);
        assert_eq!(delta.variant, DELTA_VARIANT);
        let cold = GridScreener::new(config).screen(&updated);
        assert_eq!(delta.pairs_missing_from(&cold), Vec::<(u32, u32)>::new());
        assert_eq!(cold.pairs_missing_from(&delta), Vec::<(u32, u32)>::new());
        assert_eq!(delta.conjunction_count(), cold.conjunction_count());
        for (d, c) in delta.conjunctions.iter().zip(&cold.conjunctions) {
            assert_eq!(d.pair(), c.pair());
            assert!((d.tca - c.tca).abs() < 1e-9, "tca {} vs {}", d.tca, c.tca);
            assert!((d.pca_km - c.pca_km).abs() < 1e-9);
        }
    }

    #[test]
    fn delta_detects_a_newly_created_conjunction() {
        // Two crossing orbits plus a far bystander; start with the pair
        // separated in phase, then move satellite 1 into a head-on crossing.
        let mut pop = vec![
            KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
            KeplerElements::new(7_000.0, 0.0, 1.2, 0.0, 0.0, 3.0).unwrap(),
            KeplerElements::new(42_164.0, 0.0, 0.1, 1.0, 0.0, 0.0).unwrap(),
        ];
        let config = ScreeningConfig::grid_defaults(2.0, 600.0);
        let mut engine = DeltaEngine::new(config).unwrap();
        let report = engine.full_screen(&pop);
        assert_eq!(report.conjunction_count(), 0);

        pop[1] = KeplerElements::new(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.0).unwrap();
        let report = engine.delta_screen(&pop, &[1]);
        assert!(report.conjunction_count() >= 1);
        assert_eq!(report.conjunctions[0].pair(), (0, 1));
    }

    #[test]
    fn delta_invalidates_a_dissolved_conjunction() {
        let mut pop = vec![
            KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
            KeplerElements::new(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.0).unwrap(),
        ];
        let config = ScreeningConfig::grid_defaults(2.0, 600.0);
        let mut engine = DeltaEngine::new(config).unwrap();
        assert!(engine.full_screen(&pop).conjunction_count() >= 1);

        // Phase satellite 1 away from the crossing.
        pop[1] = KeplerElements::new(7_000.0, 0.0, 1.2, 0.0, 0.0, 3.0).unwrap();
        let report = engine.delta_screen(&pop, &[1]);
        assert_eq!(report.conjunction_count(), 0);
    }

    #[test]
    fn removal_matches_cold_screen_after_delta() {
        let pop = population(300, 9);
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut catalog = Catalog::new();
        for (i, el) in pop.iter().enumerate() {
            catalog.add(i as u64, *el).unwrap();
        }
        let mut engine = DeltaEngine::new(config).unwrap();
        engine.full_screen(catalog.elements());

        // Remove a satellite from the middle: the last one swaps into its
        // slot and must be re-screened under its new index.
        let removal = catalog.remove(17).unwrap();
        engine.apply_removal(removal, catalog.len());
        let mut changed = Vec::new();
        if removal.moved_from.is_some() {
            changed.push(removal.removed_index);
        }
        let delta = engine.delta_screen(catalog.elements(), &changed);
        let cold = GridScreener::new(config).screen(catalog.elements());
        assert_eq!(delta.pairs_missing_from(&cold), Vec::<(u32, u32)>::new());
        assert_eq!(cold.pairs_missing_from(&delta), Vec::<(u32, u32)>::new());
        assert_eq!(delta.conjunction_count(), cold.conjunction_count());
    }

    #[test]
    fn advance_window_retires_and_discovers() {
        // Crossing pair: conjunctions at every half period (t = 0, T/2, T…).
        let pop = vec![
            KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
            KeplerElements::new(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.0).unwrap(),
        ];
        let period = pop[0].period();
        let config = ScreeningConfig::grid_defaults(2.0, 0.3 * period);
        let (mut state, found) = screened_state(GridScreener::new(config), &pop);
        assert!(found >= 1, "t = 0 crossing in window");

        // Advance past the t = 0 encounter but not yet to T/2.
        let dt = 0.4 * period;
        let outcome = advance(&mut state, dt).unwrap();
        assert!(outcome.retired >= 1, "the t = 0 conjunction must retire");
        // Window now covers [0.4 T, 0.7 T]: the T/2 encounter is inside.
        let live = state.engine().conjunctions();
        assert!(
            live.iter()
                .any(|c| { c.pair() == (0, 1) && (c.tca - (0.5 * period - dt)).abs() < 2.0 }),
            "T/2 encounter expected in {live:?}"
        );
        assert!(
            live.iter().all(|c| c.tca >= -1e-9),
            "TCAs are window-relative"
        );

        // A second slide, to [0.9 T, 1.2 T]: T/2 retires, T is discovered.
        let dt2 = 0.5 * period;
        let outcome = advance(&mut state, dt2).unwrap();
        assert!(outcome.retired >= 1, "the T/2 conjunction must retire");
        let live = state.engine().conjunctions();
        assert!(
            live.iter()
                .any(|c| (c.tca - (period - dt - dt2)).abs() < 2.0),
            "T encounter expected in {live:?}"
        );
    }

    #[test]
    fn advancing_a_quiet_window_finds_and_retires_nothing() {
        // Distant orbits: no encounters, ever.
        let pop = vec![
            KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
            KeplerElements::new(9_000.0, 0.0, 1.2, 1.0, 0.0, 2.0).unwrap(),
        ];
        let config = ScreeningConfig::grid_defaults(2.0, 600.0);
        let (mut state, found) = screened_state(GridScreener::new(config), &pop);
        assert_eq!(found, 0);
        let outcome = advance(&mut state, 300.0).unwrap();
        assert_eq!(outcome, AdvanceOutcome::default());
        assert!(state.engine().conjunctions().is_empty());
    }

    #[test]
    fn restore_rebuilds_a_warm_engine_that_deltas_correctly() {
        let pop = population(300, 11);
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut engine = DeltaEngine::new(config).unwrap();
        engine.full_screen(&pop);
        let saved = engine.conjunctions();

        let global = GlobalState {
            epoch: 0,
            changed: Vec::new(),
            window_start: 0.0,
            screened_n: engine.screened_n(),
            full_screens: engine.full_screens(),
            delta_screens: engine.delta_screens(),
            conjunctions: saved.clone(),
            requests_served: 0,
            time: 0.0,
            last_screen: engine.last_screen().cloned(),
            variant: engine.variant(),
        };
        let mut back = DeltaEngine::restore(*engine.screener(), &global).unwrap();
        assert!(back.is_warm());
        assert_eq!(back.conjunctions(), saved);
        assert_eq!(back.full_screens(), 1);
        assert_eq!(back.last_screen().unwrap().variant, "grid");

        // A delta on the restored engine matches a cold screen, i.e. the
        // warm set really carried over.
        let mut updated = pop.clone();
        updated[5] = perturb(&updated[5], 1.0);
        let delta = back.delta_screen(&updated, &[5]);
        let cold = GridScreener::new(config).screen(&updated);
        assert_eq!(delta.pairs_missing_from(&cold), Vec::<(u32, u32)>::new());
        assert_eq!(cold.pairs_missing_from(&delta), Vec::<(u32, u32)>::new());

        // Inconsistent global state is rejected: a cold engine holding
        // conjunctions, a conjunction past the screened population.
        let held = vec![Conjunction {
            id_lo: 4,
            id_hi: 299,
            tca: 60.0,
            pca_km: 1.0,
        }];
        let restore_with = |screened_n| {
            let global = GlobalState {
                screened_n,
                conjunctions: held.clone(),
                ..global.clone()
            };
            DeltaEngine::restore(*engine.screener(), &global)
        };
        assert!(restore_with(Some(300)).is_ok());
        assert!(restore_with(None).is_err());
        assert!(restore_with(Some(299)).is_err());

        // So is a set out of the engine's order, by pair then TCA.
        let later = Conjunction {
            tca: 61.0,
            ..held[0]
        };
        let global = GlobalState {
            screened_n: Some(300),
            conjunctions: vec![later, held[0]],
            ..global.clone()
        };
        assert!(DeltaEngine::restore(*engine.screener(), &global).is_err());
    }

    #[test]
    fn delta_job_with_live_token_matches_the_sync_engine() {
        let pop = population(300, 23);
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut engine = DeltaEngine::new(config).unwrap();
        engine.full_screen(&pop);
        let warm = engine.warm();
        let screener = *engine.screener();

        let mut updated = pop.clone();
        let changed = vec![3u32, 140, 271];
        for &idx in &changed {
            updated[idx as usize] = perturb(&updated[idx as usize], 1.0);
        }
        let token = kessler_core::CancelToken::new();
        let Screened {
            report: job_report, ..
        } = screen_or_full(&screener, &updated, &changed, Some(&warm), Some(&token)).unwrap();
        let sync_report = engine.delta_screen(&updated, &changed);
        assert_eq!(
            job_report.conjunction_count(),
            sync_report.conjunction_count()
        );
        for (a, b) in job_report
            .conjunctions
            .iter()
            .zip(&sync_report.conjunctions)
        {
            assert_eq!(a.pair(), b.pair());
            assert_eq!(a.tca.to_bits(), b.tca.to_bits());
            assert_eq!(a.pca_km.to_bits(), b.pca_km.to_bits());
        }
        assert_eq!(job_report.conjunctions, engine.conjunctions());
    }

    #[test]
    fn single_threaded_delta_is_bit_identical_to_the_global_pool() {
        // `--threads` reaches the delta job through the config; which pool
        // ran the job must not show in the result.
        let pop = population(300, 23);
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut updated = pop.clone();
        let changed = vec![3u32, 140, 271];
        for &idx in &changed {
            updated[idx as usize] = perturb(&updated[idx as usize], 1.0);
        }
        let [global, single] = [None, Some(1)].map(|threads| {
            let mut engine = DeltaEngine::new(ScreeningConfig { threads, ..config }).unwrap();
            engine.full_screen(&pop);
            engine.delta_screen(&updated, &changed)
        });
        assert_eq!(single.variant, DELTA_VARIANT);
        assert_eq!(single.candidate_entries, global.candidate_entries);
        assert_eq!(single.conjunction_count(), global.conjunction_count());
        for (a, b) in single.conjunctions.iter().zip(&global.conjunctions) {
            assert_eq!(a.pair(), b.pair());
            assert_eq!(a.tca.to_bits(), b.tca.to_bits());
            assert_eq!(a.pca_km.to_bits(), b.pca_km.to_bits());
        }
    }

    #[test]
    fn jobs_observe_a_pre_tripped_token_and_leave_inputs_alone() {
        let pop = population(50, 3);
        let config = ScreeningConfig::grid_defaults(5.0, 60.0);
        let mut engine = DeltaEngine::new(config).unwrap();
        engine.full_screen(&pop);
        let warm = engine.warm();
        let before = engine.conjunctions();

        let token = kessler_core::CancelToken::new();
        token.cancel();
        let screener = *engine.screener();
        assert!(screen_or_full(&screener, &pop, &[], None, Some(&token)).is_err());
        assert!(screen_or_full(&screener, &pop, &[0], Some(&warm), Some(&token)).is_err());
        assert!(advance_window_job(&screener, &pop, 10.0, warm.to_vec(), Some(&token)).is_err());
        // The engine's maintained set is untouched by the aborted jobs.
        assert_eq!(engine.conjunctions(), before);
    }

    #[test]
    fn advance_rejects_bad_dt() {
        let config = ScreeningConfig::grid_defaults(2.0, 600.0);
        let mut state = ServiceState::new(config).unwrap();
        for dt in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let err = advance(&mut state, dt).unwrap_err();
            assert!(
                err.contains("advance dt must be positive and finite"),
                "{err}"
            );
        }
    }

    #[test]
    fn pipeline_rejects_unserved_variants() {
        // The screening pipeline every engine and state runs is core's
        // screener, built fallibly: grid or hybrid, valid config.
        let config = ScreeningConfig::grid_defaults(2.0, 600.0);
        assert!(CpuScreener::new(Variant::Grid, config).is_ok());
        assert!(CpuScreener::new(Variant::Hybrid, config).is_ok());
        assert!(CpuScreener::new(Variant::Legacy, config).is_err());
        let mut bad = config;
        bad.threshold_km = -1.0;
        assert!(
            CpuScreener::new(Variant::Hybrid, bad).is_err(),
            "invalid config must be an Err, not a panic"
        );
    }

    #[test]
    fn last_variant_tracks_the_adopted_screen_not_the_counters() {
        // Regression: STATUS used to report `grid-delta` whenever any
        // delta had ever run, even after a later full screen.
        let pop = population(50, 7);
        let config = ScreeningConfig::grid_defaults(5.0, 60.0);
        let mut engine = DeltaEngine::new(config).unwrap();
        let last_variant = |engine: &DeltaEngine| engine.last_screen().map(|l| l.variant.clone());
        assert_eq!(last_variant(&engine), None);
        engine.full_screen(&pop);
        assert_eq!(last_variant(&engine).as_deref(), Some("grid"));
        engine.delta_screen(&pop, &[3]);
        assert_eq!(last_variant(&engine).as_deref(), Some(DELTA_VARIANT));
        engine.full_screen(&pop);
        assert_eq!(
            last_variant(&engine).as_deref(),
            Some("grid"),
            "a full screen after a delta must report the full variant"
        );
    }

    #[test]
    fn hybrid_engine_labels_and_stats() {
        let pop = population(80, 13);
        let config = ScreeningConfig::hybrid_defaults(5.0, 120.0);
        let mut engine = DeltaEngine::with_screener(HybridScreener::new(config));
        assert_eq!(engine.variant(), Variant::Hybrid);
        let report = engine.full_screen(&pop);
        assert_eq!(report.variant, "hybrid");
        let last = engine.last_screen().unwrap();
        assert_eq!(last.variant, "hybrid");
        assert!(last.filter_stats.is_some());
        let report = engine.delta_screen(&pop, &[5]);
        assert_eq!(report.variant, HYBRID_DELTA_VARIANT);
        assert_eq!(engine.last_screen().unwrap().variant, HYBRID_DELTA_VARIANT);
        assert!(report.filter_stats.is_some());
    }

    #[test]
    fn hybrid_delta_after_updates_matches_cold_hybrid_screen() {
        let pop = population(400, 42);
        let config = ScreeningConfig::hybrid_defaults(5.0, 120.0);
        let mut engine = DeltaEngine::with_screener(HybridScreener::new(config));
        engine.full_screen(&pop);

        let mut updated = pop.clone();
        let changed: Vec<u32> = (0..8).map(|j| j * 41).collect();
        for &idx in &changed {
            updated[idx as usize] = perturb(&updated[idx as usize], 1.0);
        }
        let delta = engine.delta_screen(&updated, &changed);
        assert_eq!(delta.variant, HYBRID_DELTA_VARIANT);
        let cold = HybridScreener::new(config).screen(&updated);
        assert_eq!(delta.pairs_missing_from(&cold), Vec::<(u32, u32)>::new());
        assert_eq!(cold.pairs_missing_from(&delta), Vec::<(u32, u32)>::new());
        assert_eq!(delta.conjunction_count(), cold.conjunction_count());
        for (d, c) in delta.conjunctions.iter().zip(&cold.conjunctions) {
            assert_eq!(d.pair(), c.pair());
            assert_eq!(d.tca.to_bits(), c.tca.to_bits());
            assert_eq!(d.pca_km.to_bits(), c.pca_km.to_bits());
        }
    }

    #[test]
    fn hybrid_advance_window_screens_the_tail_with_the_chain() {
        let pop = vec![
            KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
            KeplerElements::new(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.0).unwrap(),
        ];
        let period = pop[0].period();
        let config = ScreeningConfig::hybrid_defaults(2.0, 0.3 * period);
        let (mut state, found) = screened_state(HybridScreener::new(config), &pop);
        assert!(found >= 1, "t = 0 crossing in window");

        let dt = 0.4 * period;
        let outcome = advance(&mut state, dt).unwrap();
        assert!(outcome.retired >= 1, "the t = 0 conjunction must retire");
        // The tail screen ran the filter chain; the engine reports it.
        let last = state.engine().last_screen().unwrap();
        assert_eq!(last.variant, "hybrid");
        assert!(last.filter_stats.is_some());
        let live = state.engine().conjunctions();
        assert!(
            live.iter()
                .any(|c| { c.pair() == (0, 1) && (c.tca - (0.5 * period - dt)).abs() < 2.0 }),
            "T/2 encounter expected in {live:?}"
        );
    }
}
