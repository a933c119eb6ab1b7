//! The one step loop of every CPU screen, and the orbital-regime shard
//! layout snapshots are chunked by.
//!
//! [`Extraction::run`] is the paper's grid phase (§III step 2): one loop
//! that, per sampling step, propagates the live satellites, inserts them
//! into one spatial grid and extracts candidate (pair, step) entries — one
//! grid per sampling step, as the paper builds it (§III-A). The cold
//! screeners run it with everyone changed, and the service's SCREEN, DELTA
//! and ADVANCE tail run the same loop whatever `--shards` layout the
//! daemon persists with. The grid is reused across steps via bulk reset:
//! the paper allocates `p` grids and fills them in parallel, but on the CPU
//! the within-step rayon parallelism already saturates the cores, so reuse
//! trades no parallelism for a `p×` memory saving (the planner still
//! reports `p` for the memory model).
//!
//! A [`ShardMap`] partitions the catalog into altitude bands × |z| shells
//! by orbital elements ([`ShardMap::assign`]): the persistence layer's
//! snapshot chunk and dirty-tracking key. It decides nothing about what a
//! screen extracts or how.
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

/// Upper bound on `alt_bands × z_shells`: a snapshot writes one chunk
/// file per shard, so this bounds the files of one recovery point.
pub const MAX_SHARDS: u32 = 4096;

/// Simulated time one block of a DELTA's space-time cull covers, seconds:
/// `⌈T / s_ps⌉` steps, so grid and hybrid step sizes cull over the same
/// stretch. Shorter blocks propagate everyone more often; longer ones
/// keep more survivors, because the reach grows with the block.
pub const CULL_BLOCK_SECONDS: f64 = 20.0;

/// Distance added to every reach of the cull (km), far above the
/// rounding of the Kepler solve and of the position arithmetic.
const CULL_SLACK_KM: f64 = 1.0;

/// User-facing snapshot layout: how many altitude bands and |z| shells,
/// over what radial extent. Validated by [`ShardSpec::validate`];
/// [`ShardMap`] derives the uniform band/shell widths from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSpec {
    /// Number of altitude (geocentric radius) bands.
    pub alt_bands: u32,
    /// Number of |z| shells per band.
    pub z_shells: u32,
    /// Radius where band 0 starts (km); radii below clamp into band 0.
    pub r_min_km: f64,
    /// Radius where the last band ends (km); radii above clamp into it.
    /// |z| shells span `[0, r_max_km]` (|z| never exceeds the radius).
    pub r_max_km: f64,
}

impl Default for ShardSpec {
    fn default() -> ShardSpec {
        // 8 × 4 = 32 shards over the LEO belt; outliers clamp to the edge
        // bands, which stays correct (just less balanced).
        ShardSpec {
            alt_bands: 8,
            z_shells: 4,
            r_min_km: 6_500.0,
            r_max_km: 9_000.0,
        }
    }
}

impl ShardSpec {
    /// `alt_bands × z_shells`; meaningful once [`ShardSpec::validate`]
    /// has passed, which bounds it by [`MAX_SHARDS`].
    pub fn shard_count(&self) -> u32 {
        self.alt_bands * self.z_shells
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.alt_bands == 0 || self.z_shells == 0 {
            return Err(format!(
                "shard spec needs at least one band and one shell (got {}×{})",
                self.alt_bands, self.z_shells
            ));
        }
        // In u64: the u32 product of two large counts wraps below the cap.
        let shards = u64::from(self.alt_bands) * u64::from(self.z_shells);
        if shards > u64::from(MAX_SHARDS) {
            return Err(format!(
                "{} bands × {} shells = {shards} shards exceeds the {MAX_SHARDS}-shard cap",
                self.alt_bands, self.z_shells
            ));
        }
        if !self.r_min_km.is_finite() || !self.r_max_km.is_finite() {
            return Err("shard radii must be finite".to_string());
        }
        if self.r_min_km <= 0.0 || self.r_max_km <= self.r_min_km {
            return Err(format!(
                "shard radius range [{}, {}] km must satisfy 0 < r_min < r_max",
                self.r_min_km, self.r_max_km
            ));
        }
        Ok(())
    }
}

/// The partition itself: uniform-width bands over `[r_min, r_max]` and
/// uniform-width shells over `[0, r_max]`, with O(1) lookup.
#[derive(Debug, Clone, Copy)]
pub struct ShardMap {
    spec: ShardSpec,
    band_width_km: f64,
    shell_width_km: f64,
}

impl ShardMap {
    pub fn new(spec: ShardSpec) -> Result<ShardMap, String> {
        spec.validate()?;
        Ok(ShardMap {
            spec,
            band_width_km: (spec.r_max_km - spec.r_min_km) / spec.alt_bands as f64,
            shell_width_km: spec.r_max_km / spec.z_shells as f64,
        })
    }

    /// The 1×1 layout: one band and one shell hold every satellite, so
    /// the radial extent (the default's) decides nothing.
    pub fn single() -> ShardMap {
        ShardMap::new(ShardSpec {
            alt_bands: 1,
            z_shells: 1,
            ..ShardSpec::default()
        })
        .expect("the 1×1 layout over the default radii is valid")
    }

    /// The layout an optional `--shards` choice names — `None` is the 1×1
    /// layout, and this is the one place that is decided.
    pub fn for_layout(shards: Option<ShardSpec>) -> Result<ShardMap, String> {
        shards.map_or_else(|| Ok(ShardMap::single()), ShardMap::new)
    }

    pub fn shard_count(&self) -> u32 {
        self.spec.shard_count()
    }

    /// Altitude band holding radius `r_km`, clamped into range.
    pub fn band_of(&self, r_km: f64) -> u32 {
        let raw = (r_km - self.spec.r_min_km) / self.band_width_km;
        (raw.floor().max(0.0) as u32).min(self.spec.alt_bands - 1)
    }

    /// |z| shell holding height `z_km` (absolute value taken), clamped.
    pub fn shell_of(&self, z_km: f64) -> u32 {
        let raw = z_km.abs() / self.shell_width_km;
        (raw.floor().max(0.0) as u32).min(self.spec.z_shells - 1)
    }

    fn shard_id(&self, band: u32, shell: u32) -> u32 {
        band * self.spec.z_shells + shell
    }

    /// Static shard assignment from orbital elements — the persistence
    /// layer's chunking key and the dirty-shard key. Deliberately
    /// position-independent (a satellite's chunk must not migrate as time
    /// advances unless its elements change): band from the semi-major
    /// axis, shell from the characteristic maximum height `a·|sin i|`.
    pub fn assign(&self, semi_major_axis_km: f64, inclination_rad: f64) -> u32 {
        let band = self.band_of(semi_major_axis_km);
        let shell = self.shell_of(semi_major_axis_km * inclination_rad.sin().abs());
        self.shard_id(band, shell)
    }
}

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

    fn map(bands: u32, shells: u32) -> ShardMap {
        ShardMap::new(ShardSpec {
            alt_bands: bands,
            z_shells: shells,
            r_min_km: 6_500.0,
            r_max_km: 9_000.0,
        })
        .unwrap()
    }

    #[test]
    fn spec_validation_rejects_bad_geometry() {
        assert!(ShardSpec::default().validate().is_ok());
        let zero = ShardSpec {
            alt_bands: 0,
            ..Default::default()
        };
        assert!(zero.validate().is_err());
        let too_many = ShardSpec {
            alt_bands: MAX_SHARDS,
            z_shells: 2,
            ..Default::default()
        };
        assert!(too_many.validate().is_err());
        // Products that wrap a u32 to within the cap (4096) or to 0.
        for (alt_bands, z_shells) in [(4096, 1_048_577), (65_536, 65_536)] {
            let wrapping = ShardSpec {
                alt_bands,
                z_shells,
                ..Default::default()
            };
            let err = wrapping.validate().unwrap_err();
            assert!(err.contains("exceeds the 4096-shard cap"), "{err}");
            assert!(ShardMap::new(wrapping).is_err());
        }
        let inverted = ShardSpec {
            r_min_km: 9_000.0,
            r_max_km: 6_500.0,
            ..Default::default()
        };
        assert!(inverted.validate().is_err());
        let nan = ShardSpec {
            r_max_km: f64::NAN,
            ..Default::default()
        };
        assert!(nan.validate().is_err());
    }

    #[test]
    fn lookup_clamps_out_of_range_values() {
        let m = map(4, 4);
        assert_eq!(m.band_of(1_000.0), 0);
        assert_eq!(m.band_of(6_500.0), 0);
        assert_eq!(m.band_of(8_999.0), 3);
        assert_eq!(m.band_of(50_000.0), 3);
        assert_eq!(m.shell_of(-100.0), 0);
        assert_eq!(m.shell_of(0.0), 0);
        assert_eq!(m.shell_of(50_000.0), 3);
    }

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
