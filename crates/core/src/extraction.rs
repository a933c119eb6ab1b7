//! The one step loop of every CPU screen.
//!
//! [`Extraction::run`] is the paper's grid phase (§III step 2): one loop
//! that, per sampling step, propagates the live satellites, inserts them
//! into one spatial grid and extracts candidate (pair, step) entries — one
//! grid per sampling step, as the paper builds it (§III-A). The cold
//! screeners run it with everyone changed, and the service's SCREEN, DELTA
//! and ADVANCE tail run the same loop. The grid is reused across steps via
//! bulk reset: the paper allocates `p` grids and fills them in parallel,
//! but on the CPU the within-step rayon parallelism already saturates the
//! cores, so reuse trades no parallelism for a `p×` memory saving (the
//! planner still reports `p` for the memory model).
//!
//! # One live list and two query modes, picked by the changed list
//!
//! Two satellites form a candidate entry at a step iff their cells are
//! within one cell in every axis, i.e. their positions differ by less than
//! `2·cell` per axis and so by less than `2√3·cell` in norm. Every step
//! inserts one `live` list into the grid — a grid entry is a position in
//! that list — and the changed list decides what `live` holds and how the
//! step extracts.
//!
//! - **Everyone changed** (`changed.len() == n`; a cold screen): everyone
//!   is live at every step, and the step scans the grid's occupied cells
//!   (the half neighbourhood under [`NeighborScan::Half`]). The scan
//!   enumerates each adjacent pair once instead of querying 27 cells for
//!   every satellite, which makes it the cheaper of the two (DESIGN §2.7).
//! - **A subset changed** (a DELTA): each changed satellite's 27-cell
//!   neighbourhood is queried, and `live` holds only the satellites that
//!   can reach a changed one (the cull below).
//!
//! Either way the entries carry global indices and [`Extraction::finish`]
//! sorts and deduplicates them, so both modes hand the refinement stage
//! *bit-identical* entries (`tests/delta_correctness.rs` and
//! `tests/sharding_props.rs` enforce this).
//!
//! # The space-time cull of a DELTA
//!
//! A DELTA recomputes `live` at the first step of each block of
//! `B = ⌈T / s_ps⌉` steps, a fixed stretch of simulated time `T`
//! ([`CULL_BLOCK_SECONDS`]) whatever the variant's step size. At a block's
//! first step everyone is propagated, and a satellite `g` is live for the
//! block only if some changed `c` lies within its reach:
//!
//! ```text
//!   |p_g − p_c| < 2√3·g_c + (v_g + v_c)·(B − 1)·s_ps + slack
//! ```
//!
//! where `v` is a satellite's perigee speed `n·a·√((1+e)/(1−e))` (which
//! is `√(μ(1+e)/(a(1−e)))`), the fastest it moves anywhere on its orbit.
//! The rest of the block propagates and bins the live ones only. This is
//! exact: an entry needs the two positions within `2√3·g_c` (the entry
//! rule above), and two satellites' separation changes by at most
//! `(v_g + v_c)·Δt`, so a satellite outside every changed one's reach at
//! the block start has no entry with any of them before the block ends.
//! The slack (1 km) covers the Kepler solve's and the arithmetic's
//! rounding many times over. Changed satellites are within reach of
//! themselves, so they are always live. Everyone changed is the degenerate
//! cull where every satellite survives, so it needs no reach and no loop of
//! its own. The survivors are found by querying a coarse [`SpatialGrid`]
//! that holds the changed positions, with cells as wide as the largest
//! reach.

use crate::cancel::{check_opt, CancelToken, Cancelled};
use crate::planner::PlannerReport;
use crate::timing::{PhaseTimer, PhaseTimings};
use kessler_grid::grid::NeighborScan;
use kessler_grid::pairset::CandidatePair;
use kessler_grid::SpatialGrid;
use kessler_math::Vec3;
use kessler_orbits::BatchPropagator;
use rayon::prelude::*;

/// Simulated time one block of a DELTA's space-time cull covers, seconds:
/// `⌈T / s_ps⌉` steps, so grid and hybrid step sizes cull over the same
/// stretch. Shorter blocks propagate everyone more often; longer ones
/// keep more survivors, because the reach grows with the block.
pub const CULL_BLOCK_SECONDS: f64 = 20.0;

/// Distance added to every reach of the cull (km), far above the
/// rounding of the Kepler solve and of the position arithmetic.
const CULL_SLACK_KM: f64 = 1.0;

/// Candidate extraction over the sampling steps of one screen: which
/// satellites changed, the grid the steps reuse, the candidate entries
/// found so far and the grid inserts made. Every CPU screen — cold, DELTA,
/// ADVANCE tail — is one of these driven by [`Extraction::run`].
pub struct Extraction<'a> {
    changed: &'a [u32],
    cell_size_km: f64,
    scan: NeighborScan,
    /// The grid over the current step's live list (a grid entry is a
    /// position in that list). Kept across steps and `reset()`; replaced
    /// only when the live list outgrows it.
    grid: Option<SpatialGrid>,
    entries: Vec<CandidatePair>,
    /// Grid inserts across all steps so far.
    inserts: u64,
}

impl<'a> Extraction<'a> {
    /// `changed` lists the dense indices to extract for, each at most
    /// once and all inside the position slices [`Extraction::step`] will
    /// be given; listing all of them selects the occupied-cell scan, with
    /// `scan` naming its neighbourhood (point queries always visit all 27
    /// cells).
    pub fn new(changed: &'a [u32], cell_size_km: f64, scan: NeighborScan) -> Extraction<'a> {
        Extraction {
            changed,
            cell_size_km,
            scan,
            grid: None,
            entries: Vec::new(),
            inserts: 0,
        }
    }

    /// The step loop (§III step 2): at every sampling step of `planner`,
    /// propagate — booked as `insertion` — then run [`Extraction::step`]
    /// over the live list. When everyone changed, everyone is live at
    /// every step. When a subset changed, each block's first step
    /// propagates everyone and keeps live only the satellites that can
    /// reach a changed one during the block (the cull of the module docs);
    /// its other steps propagate only them. Entries are the same either
    /// way. `cancel` is checked before each step; a never-tripped token
    /// changes nothing. `planner` must be the plan whose cell size this
    /// extraction was built with.
    pub fn run(
        mut self,
        propagator: &BatchPropagator,
        planner: &PlannerReport,
        timings: &mut PhaseTimings,
        cancel: Option<&CancelToken>,
    ) -> Result<(Vec<CandidatePair>, u64), Cancelled> {
        debug_assert_eq!(self.cell_size_km, planner.cell_size_km);
        let n = propagator.len();
        let sps = planner.seconds_per_sample;
        let everyone = self.changed.len() == n;
        let block = ((CULL_BLOCK_SECONDS / sps).ceil() as u32).max(1);
        // Only the cull reads the perigee speeds and `closing`, the
        // largest `v_g + v_c` of any satellite and any changed one.
        let (speeds, closing) = if everyone {
            (Vec::new(), 0.0)
        } else {
            let speeds = perigee_speeds(propagator);
            let closing = speeds.iter().copied().fold(0.0, f64::max)
                + self
                    .changed
                    .iter()
                    .map(|&c| speeds[c as usize])
                    .fold(0.0, f64::max);
            (speeds, closing)
        };
        // A live satellite's current position; the others keep their
        // block-start one, which nothing reads.
        let mut positions = vec![Vec3::ZERO; n];
        // Everyone, until a DELTA's first block start culls it.
        let mut live: Vec<u32> = (0..n as u32).collect();
        let mut moved = Vec::new();
        for step in 0..planner.total_steps {
            check_opt(cancel)?;
            {
                let _timer = PhaseTimer::start(&mut timings.insertion);
                let dt = step as f64 * sps;
                let starts_block = step % block == 0;
                if starts_block || live.len() == n {
                    propagator.positions_into(dt, &mut positions);
                } else {
                    propagator.positions_of(&live, dt, &mut moved);
                    for (&g, &p) in live.iter().zip(&moved) {
                        positions[g as usize] = p;
                    }
                }
                if starts_block && !everyone {
                    let last = (step + block).min(planner.total_steps) - 1;
                    let span = f64::from(last - step) * sps;
                    live = self.reachable(&positions, &speeds, closing, span);
                    moved.resize(live.len(), Vec3::ZERO);
                }
            }
            self.step(step, &positions, &live, timings);
        }
        Ok(self.finish())
    }

    /// The satellites within reach of a changed one for a block whose
    /// last step is `span` seconds after `positions` (see the module
    /// docs), ascending. `closing` bounds every `v_g + v_c`.
    fn reachable(&self, positions: &[Vec3], speeds: &[f64], closing: f64, span: f64) -> Vec<u32> {
        let changed = self.changed;
        let entry = 2.0 * 3.0_f64.sqrt() * self.cell_size_km + CULL_SLACK_KM;
        // Cells wider than every reach (by the slack again, for the
        // rounding of the cell coordinates), so the 27 cells around a
        // satellite hold every changed one that can reach it.
        let cell = entry + closing * span + CULL_SLACK_KM;
        if changed.is_empty() {
            return Vec::new();
        }
        if !cell.is_finite() {
            return (0..positions.len() as u32).collect();
        }
        let near = SpatialGrid::new(changed.len(), cell);
        changed
            .par_iter()
            .enumerate()
            .try_for_each(|(local, &c)| near.insert(local as u32, positions[c as usize]))
            .expect("a grid sized for the changed list cannot fill up");
        (0..positions.len() as u32)
            .into_par_iter()
            .filter(|&g| {
                let (p, v) = (positions[g as usize], speeds[g as usize]);
                let mut reached = false;
                near.for_each_near(p, |local| {
                    let c = changed[local as usize] as usize;
                    reached |= p.dist(positions[c]) < entry + (v + speeds[c]) * span;
                });
                reached
            })
            .collect()
    }

    /// One sampling step over the satellites `live` lists (a superset of
    /// the changed ones, ascending): insert them into the grid — booked as
    /// `insertion` — then extract, booked as `pair_extraction`: the
    /// occupied-cell scan when everyone changed, else each changed
    /// satellite's 27-cell query. Both run in parallel.
    ///
    /// The emitted `CandidatePair`s carry *global* indices, so everything
    /// downstream of extraction (refinement, dedup, the warm pair map)
    /// never sees the live list. Only the live entries of `positions` are
    /// read.
    pub fn step(
        &mut self,
        step: u32,
        positions: &[Vec3],
        live: &[u32],
        timings: &mut PhaseTimings,
    ) {
        let grid = {
            let _timer = PhaseTimer::start(&mut timings.insertion);
            let grid = match self.grid.take() {
                Some(grid) if grid.capacity() >= live.len() => {
                    grid.reset();
                    grid
                }
                _ => SpatialGrid::new(live.len(), self.cell_size_km),
            };
            live.par_iter()
                .enumerate()
                .try_for_each(|(local, &global)| {
                    grid.insert(local as u32, positions[global as usize])
                })
                .expect("a grid sized for the live list cannot fill up");
            self.inserts += live.len() as u64;
            &*self.grid.insert(grid)
        };
        let _timer = PhaseTimer::start(&mut timings.pair_extraction);
        let parts: Vec<Vec<CandidatePair>> = if self.changed.len() == positions.len() {
            let scan = self.scan;
            grid.occupied_slots()
                .par_iter()
                .fold(Vec::new, |mut found, &cell| {
                    grid.for_each_pair_in_slot(cell, scan, |a, b| {
                        found.push(CandidatePair::new(live[a as usize], live[b as usize], step));
                    });
                    found
                })
                .collect()
        } else {
            self.changed
                .par_iter()
                .fold(Vec::new, |mut found, &c| {
                    grid.for_each_near(positions[c as usize], |local| {
                        let g = live[local as usize];
                        if g != c {
                            found.push(CandidatePair::new(c, g, step));
                        }
                    });
                    found
                })
                .collect()
        };
        for mut part in parts {
            self.entries.append(&mut part);
        }
    }

    /// The entries of every step so far, sorted and each exactly once —
    /// the order the refinement stage wants — and the grid inserts made.
    pub fn finish(mut self) -> (Vec<CandidatePair>, u64) {
        self.entries.sort_unstable();
        self.entries.dedup();
        (self.entries, self.inserts)
    }
}

/// Each satellite's perigee speed `n·a·√((1+e)/(1−e))`, km/s: the most
/// its propagated position moves per second anywhere on its orbit.
fn perigee_speeds(propagator: &BatchPropagator) -> Vec<f64> {
    let cols = propagator.columns();
    (0..cols.len())
        .map(|i| {
            let e = cols.e[i];
            cols.mean_motion[i] * cols.a[i] * ((1.0 + e) / (1.0 - e)).sqrt()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ScreeningConfig, Variant};
    use crate::planner::MemoryModel;
    use kessler_orbits::KeplerElements;

    /// `Extraction::run` over a population's own plan, everyone changed.
    fn run_everyone(
        pop: &[KeplerElements],
        config: &ScreeningConfig,
        timings: &mut PhaseTimings,
    ) -> (PlannerReport, Vec<CandidatePair>) {
        let planner = MemoryModel::new(Variant::Grid).plan(pop.len(), config);
        let everyone: Vec<u32> = (0..pop.len() as u32).collect();
        let (entries, _) = Extraction::new(&everyone, planner.cell_size_km, NeighborScan::Half)
            .run(&BatchPropagator::new(pop), &planner, timings, None)
            .expect("no token, no cancellation");
        (planner, entries)
    }

    #[test]
    fn run_finds_the_crossing_pair_and_not_the_geo_bird() {
        let pop = vec![
            KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
            KeplerElements::new(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.0).unwrap(),
            // A far-away GEO bird that never pairs with the LEO ones.
            KeplerElements::new(42_164.0, 0.0, 0.1, 1.0, 0.0, 0.0).unwrap(),
        ];
        let config = ScreeningConfig::grid_defaults(2.0, 30.0);
        let mut timings = PhaseTimings::default();
        let (_, entries) = run_everyone(&pop, &config, &mut timings);
        assert!(
            !entries.is_empty(),
            "the co-phased crossing pair must appear"
        );
        for e in &entries {
            assert_eq!((e.id_lo, e.id_hi), (0, 1), "only the LEO pair may appear");
        }
        assert!(timings.insertion.as_nanos() > 0);
        assert!(timings.pair_extraction.as_nanos() > 0);
    }

    #[test]
    fn run_emits_every_co_located_pair_at_every_step() {
        // 64 satellites in one tight shell: all in one cell at every step.
        let pop: Vec<KeplerElements> = (0..64)
            .map(|i| {
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
        let config = ScreeningConfig::grid_defaults(2.0, 2.0);
        let (planner, entries) = run_everyone(&pop, &config, &mut PhaseTimings::default());
        // All 64 co-located → all C(64,2) pairs at both steps.
        assert_eq!(planner.total_steps, 2);
        assert_eq!(entries.len(), 64 * 63 / 2 * 2);
    }
}
