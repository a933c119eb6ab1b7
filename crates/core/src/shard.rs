//! The one step loop of every CPU screen, and the orbital-regime shard
//! layout it runs under.
//!
//! [`Extraction::run`] is the paper's grid phase (§III step 2): one loop
//! that, per sampling step, propagates the live satellites, bins them into
//! the layout's grid(s) and extracts candidate (pair, step) entries. The
//! cold screeners run it on the 1×1 layout ([`ShardMap::single`]) with
//! everyone changed — one grid per sampling step, as the paper builds it
//! (§III-A) — and the service's
//! SCREEN, DELTA and ADVANCE tail run it on the daemon's layout. Each
//! shard's grid is reused across steps via bulk reset: the paper allocates
//! `p` grids and fills them in parallel, but on the CPU the within-step
//! rayon parallelism already saturates the cores, so reuse trades no
//! parallelism for a `p×` memory saving (the planner still reports `p` for
//! the memory model).
//!
//! A [`ShardMap`] partitions the catalog into altitude bands × |z| shells
//! (megaconstellation LEO traffic separates naturally along exactly these
//! axes — shells at distinct altitudes and inclinations). Extraction runs
//! one spatial grid *per shard*, so shards screen in parallel and a future
//! distribution boundary falls on shard edges.
//!
//! # Why |z| shells, not inclination shells
//!
//! Partitioning by instantaneous position must be Lipschitz in position:
//! the boundary-mirroring rule below widens each satellite's membership by
//! a fixed margin `m` in the partition coordinates and needs "within `m`
//! of my position" to imply "within the widened membership box". Radius
//! `r = |p|` and height `|z| = |p·ẑ|` are both 1-Lipschitz in position
//! (`|Δr| ≤ |Δp|`, `|Δz| ≤ |Δp|`), so the margin transfers exactly.
//! Latitude (or instantaneous inclination angle) is *not* — its derivative
//! blows up near the poles — which is why the shells slice |z| in
//! kilometres. A satellite's |z| sweeps `[0, a·sin i]` over an orbit, so
//! |z| shells still separate low- from high-inclination traffic, just with
//! sound geometry.
//!
//! # The boundary-pair rule
//!
//! Two satellites form a candidate entry at a step iff their cells are
//! within one cell in every axis, i.e. their positions differ by less than
//! `2·cell` per axis and so by less than `m = 2·√3·cell` in norm. Per
//! step, each satellite is therefore *inserted* into every shard whose
//! region overlaps its position widened by `m` in `(r, |z|)` (mirroring: a
//! satellite within one neighbourhood-width of a band edge also lives in
//! the adjacent shard's grid). Any neighbour of a satellite `c` is within
//! `m` of `c`'s position, hence a member of `c`'s home shard, and every
//! shard bins on the same global cell lattice — so each satellite's home
//! grid holds all of its neighbours, exactly as one global grid would.
//!
//! # One live list and two query modes, picked by the changed list
//!
//! Every step works on one `live` list: the satellites it propagates and
//! bins. The changed list decides what it holds and how a shard extracts.
//!
//! - **Everyone changed** (`changed.len() == n`; a cold screen): everyone
//!   is live at every step, and each shard scans its occupied cells (the
//!   half neighbourhood under [`NeighborScan::Half`]) and keeps a pair
//!   only where the shard is the home of its lower id. By the rule above that shard holds the pair, so
//!   every pair is emitted once; under 1×1 the home test always passes.
//!   The scan enumerates each adjacent pair once instead of querying 27
//!   cells for every satellite, which makes it the cheaper of the two on
//!   one grid (DESIGN §2.7); a shard also scans the cells of its mirrors,
//!   whose pairs among themselves fail the home test.
//! - **A subset changed** (a DELTA): each changed satellite's 27-cell
//!   neighbourhood is queried in its home shard only, and `live` holds
//!   only the satellites that can reach a changed one (the cull below).
//!
//! Either way the entries carry global indices and [`Extraction::finish`]
//! sorts and deduplicates them, so every layout and both modes hand the
//! refinement stage *bit-identical* entries (`tests/delta_correctness.rs`
//! and `tests/sharding_props.rs` enforce this).
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
//! exact: an entry needs the two positions within `2√3·g_c` (the
//! boundary-pair rule's margin), and two satellites' separation changes
//! by at most `(v_g + v_c)·Δt`, so a satellite outside every changed
//! one's reach at the block start has no entry with any of them before
//! the block ends. The slack (1 km) covers the Kepler solve's and the
//! arithmetic's rounding many times over. Changed satellites are within
//! reach of themselves, so they are always live. Everyone changed is the
//! degenerate cull where every satellite survives, so it needs no reach
//! and no loop of its own. The survivors are found by querying a coarse
//! [`SpatialGrid`] that holds the changed positions, with cells as wide
//! as the largest reach.
//!
//! Membership is recomputed from instantaneous positions every step, so
//! eccentric satellites sweep through every band their apsis range
//! overlaps; the static [`ShardMap::assign`] (used for persistence
//! chunking and dirty tracking) conservatively files a satellite under its
//! semi-major axis band.

use crate::cancel::{check_opt, CancelToken, Cancelled};
use crate::metrics::Histogram;
use crate::planner::PlannerReport;
use crate::timing::{PhaseTimer, PhaseTimings};
use kessler_grid::grid::NeighborScan;
use kessler_grid::pairset::CandidatePair;
use kessler_grid::SpatialGrid;
use kessler_math::Vec3;
use kessler_orbits::BatchPropagator;
use rayon::prelude::*;
use std::time::Instant;

/// Upper bound on `alt_bands × z_shells`: keeps per-step membership
/// bookkeeping (one member list per shard) trivially cheap.
pub const MAX_SHARDS: u32 = 4096;

/// Simulated time one block of a DELTA's space-time cull covers, seconds:
/// `⌈T / s_ps⌉` steps, so grid and hybrid step sizes cull over the same
/// stretch. Shorter blocks propagate everyone more often; longer ones
/// keep more survivors, because the reach grows with the block.
pub const CULL_BLOCK_SECONDS: f64 = 20.0;

/// Distance added to every reach of the cull (km), far above the
/// rounding of the Kepler solve and of the position arithmetic.
const CULL_SLACK_KM: f64 = 1.0;

/// User-facing sharding configuration: how many altitude bands and |z|
/// shells, over what radial extent. Validated by [`ShardSpec::validate`];
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
/// uniform-width shells over `[0, r_max]`, with O(1) range arithmetic for
/// both point lookup and interval overlap.
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

    /// The 1×1 layout: one band and one shell hold every position, so the
    /// radial extent (the default's) decides nothing.
    pub fn single() -> ShardMap {
        ShardMap::new(ShardSpec {
            alt_bands: 1,
            z_shells: 1,
            ..ShardSpec::default()
        })
        .expect("the 1×1 layout over the default radii is valid")
    }

    /// The layout an optional `--shards` choice names — `None` is the 1×1
    /// layout, and this is the one place that is decided, for extraction
    /// and persistence alike.
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

    /// Home shard of an instantaneous position.
    pub fn home_of(&self, position: Vec3) -> u32 {
        self.shard_id(self.band_of(position.norm()), self.shell_of(position.z))
    }

    /// Inclusive band range overlapping the radius interval `[lo, hi]` km.
    pub fn bands_overlapping(&self, r_lo_km: f64, r_hi_km: f64) -> (u32, u32) {
        (self.band_of(r_lo_km), self.band_of(r_hi_km.max(r_lo_km)))
    }

    /// Inclusive shell range overlapping the |z| interval `[lo, hi]` km.
    pub fn shells_overlapping(&self, z_lo_km: f64, z_hi_km: f64) -> (u32, u32) {
        (
            self.shell_of(z_lo_km.max(0.0)),
            self.shell_of(z_hi_km.max(z_lo_km)),
        )
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

/// Per-screen sharding statistics, carried from the extraction loop up
/// through the service's executor so the commit path can merge them into
/// its metrics registry (per-shard step-time [`Histogram`]s merge via the
/// histogram's own `merge`).
#[derive(Debug, Clone, Default)]
pub struct ShardScreenStats {
    /// Per-shard histogram of per-step extraction wall time (µs).
    pub step_us: Vec<Histogram>,
    /// Per-shard candidate entries emitted.
    pub entries: Vec<u64>,
    /// Per-shard peak member count across steps (mirrors included).
    pub peak_members: Vec<u64>,
    /// Entries whose two satellites have different home shards — the
    /// pairs sharding would have lost without boundary mirroring. A subset
    /// query counts such a pair once from each changed side; the
    /// everyone scan emits it once.
    pub boundary_entries: u64,
    /// Grid inserts into a shard that is not the satellite's home, i.e.
    /// boundary mirrors.
    pub mirrored_inserts: u64,
    /// Total per-step grid inserts across all shards and steps. Only a
    /// shard that extracts for someone builds a grid, so a shard's
    /// members count only at the steps it did.
    pub total_inserts: u64,
}

impl ShardScreenStats {
    pub fn new(shard_count: u32) -> ShardScreenStats {
        let n = shard_count as usize;
        ShardScreenStats {
            step_us: vec![Histogram::new(); n],
            entries: vec![0; n],
            peak_members: vec![0; n],
            boundary_entries: 0,
            mirrored_inserts: 0,
            total_inserts: 0,
        }
    }

    pub fn shard_count(&self) -> usize {
        self.step_us.len()
    }
}

/// One shard's buffers for the step being extracted.
#[derive(Default)]
struct ShardSlot {
    /// Global indices binned into this shard's grid: home members and
    /// mirrors, in no particular order.
    members: Vec<u32>,
    /// How many of `members` are mirrors (their home is another shard).
    mirrors: u64,
    /// Changed satellites whose home this shard is: the ones it extracts
    /// for. A shard without any builds no grid.
    queries: Vec<u32>,
    /// The shard's grid over `members` (a grid entry is a position in
    /// that list). Kept across steps and `reset()`; replaced only when the
    /// membership outgrows it.
    grid: Option<SpatialGrid>,
    /// Entries this step found.
    found: Vec<CandidatePair>,
    /// Wall time this shard has cost the current step so far.
    micros: u64,
}

/// Candidate extraction over the sampling steps of one screen: which
/// satellites changed, the per-shard buffers and grids the steps reuse,
/// the candidate entries found so far and the per-shard statistics. Every
/// CPU screen — cold, DELTA, sharded or not, ADVANCE tail — is one of
/// these driven by [`Extraction::run`]; the one-shard layout is the case
/// where nobody needs binning and nothing is mirrored.
pub struct Extraction<'a> {
    map: &'a ShardMap,
    changed: &'a [u32],
    cell_size_km: f64,
    scan: NeighborScan,
    slots: Vec<ShardSlot>,
    /// Home shard per satellite at the current step.
    home: Vec<u32>,
    entries: Vec<CandidatePair>,
    stats: ShardScreenStats,
}

impl<'a> Extraction<'a> {
    /// `changed` lists the dense indices to extract for, each at most
    /// once and all inside the position slices [`Extraction::step`] will
    /// be given; listing all of them selects the occupied-cell scan, with
    /// `scan` naming its neighbourhood (point queries always visit all 27
    /// cells).
    pub fn new(
        map: &'a ShardMap,
        changed: &'a [u32],
        cell_size_km: f64,
        scan: NeighborScan,
    ) -> Extraction<'a> {
        Extraction {
            map,
            changed,
            cell_size_km,
            scan,
            slots: (0..map.shard_count())
                .map(|_| ShardSlot::default())
                .collect(),
            home: Vec::new(),
            entries: Vec::new(),
            stats: ShardScreenStats::new(map.shard_count()),
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
    ) -> Result<(Vec<CandidatePair>, ShardScreenStats), Cancelled> {
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
    /// the changed ones, ascending): recompute their shard membership from
    /// the step's positions (mirroring satellites within `m = 2√3·cell` of
    /// a shard edge into the adjacent shards) and bin them into the grid
    /// of every shard that extracts for someone — booked as `insertion` —
    /// then extract, booked as `pair_extraction`: the occupied-cell scan
    /// when everyone changed, else each changed satellite's 27-cell query
    /// in its home shard. Shards run in parallel, and so does the work
    /// inside each.
    ///
    /// The emitted `CandidatePair`s carry *global* indices, so everything
    /// downstream of extraction (refinement, dedup, the warm pair map) is
    /// untouched by the layout — which is what makes every layout exact.
    /// Only the live entries of `positions` are read.
    pub fn step(
        &mut self,
        step: u32,
        positions: &[Vec3],
        live: &[u32],
        timings: &mut PhaseTimings,
    ) {
        {
            let _timer = PhaseTimer::start(&mut timings.insertion);
            self.bin(positions, live);
            self.slots
                .par_iter_mut()
                .for_each(|slot| slot.build(positions, self.cell_size_km));
        }
        let _timer = PhaseTimer::start(&mut timings.pair_extraction);
        let home = &self.home;
        if self.changed.len() == positions.len() {
            let scan = self.scan;
            self.slots
                .par_iter_mut()
                .enumerate()
                .for_each(|(s, slot)| slot.scan(home, s as u32, scan, step));
        } else {
            self.slots
                .par_iter_mut()
                .for_each(|slot| slot.query(positions, step));
        }

        for (s, slot) in self.slots.iter_mut().enumerate() {
            let members = slot.members.len() as u64;
            self.stats.step_us[s].record(slot.micros);
            self.stats.entries[s] += slot.found.len() as u64;
            self.stats.peak_members[s] = self.stats.peak_members[s].max(members);
            self.stats.boundary_entries += slot
                .found
                .iter()
                .filter(|e| home[e.id_lo as usize] != home[e.id_hi as usize])
                .count() as u64;
            // What `build` inserted: nothing where nobody is queried.
            if !slot.queries.is_empty() {
                self.stats.total_inserts += members;
                self.stats.mirrored_inserts += slot.mirrors;
            }
            self.entries.append(&mut slot.found);
        }
    }

    /// Shard membership and home shards of the satellites `live` lists
    /// at this step's positions.
    fn bin(&mut self, positions: &[Vec3], live: &[u32]) {
        let n = positions.len();
        if let [only] = &mut self.slots[..] {
            // One shard takes everyone live: no radius or |z| to compute.
            if self.home.len() != n {
                only.queries = self.changed.to_vec();
                self.home = vec![0; n];
            }
            only.members.clear();
            only.members.extend_from_slice(live);
            return;
        }
        // Anything within the 27-cell neighbourhood differs by < 2·cell per
        // axis, so by < 2√3·cell in norm — and radius and |z| are
        // 1-Lipschitz in position, so widening membership by `margin` in
        // both partition coordinates covers every possible neighbour.
        let margin = 2.0 * 3.0_f64.sqrt() * self.cell_size_km;
        let map = self.map;
        for slot in &mut self.slots {
            slot.members.clear();
            slot.queries.clear();
            slot.mirrors = 0;
        }
        self.home.resize(n, 0);
        let (home, slots) = (&mut self.home, &mut self.slots);
        let mut place = |i: u32| {
            let p = positions[i as usize];
            let r = p.norm();
            let z = p.z.abs();
            let own = map.shard_id(map.band_of(r), map.shell_of(z));
            home[i as usize] = own;
            let (b_lo, b_hi) = map.bands_overlapping(r - margin, r + margin);
            let (s_lo, s_hi) = map.shells_overlapping(z - margin, z + margin);
            for band in b_lo..=b_hi {
                for shell in s_lo..=s_hi {
                    let shard = map.shard_id(band, shell);
                    let slot = &mut slots[shard as usize];
                    slot.members.push(i);
                    slot.mirrors += u64::from(shard != own);
                }
            }
        };
        live.iter().for_each(|&i| place(i));
        for &c in self.changed {
            self.slots[self.home[c as usize] as usize].queries.push(c);
        }
    }

    /// The entries of every step so far, sorted and each exactly once —
    /// the order the refinement stage wants — and the per-shard statistics.
    pub fn finish(mut self) -> (Vec<CandidatePair>, ShardScreenStats) {
        self.entries.sort_unstable();
        self.entries.dedup();
        (self.entries, self.stats)
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

impl ShardSlot {
    /// Bin this step's members into the grid, if this shard extracts for
    /// anyone. Members are read straight from the global position slice.
    fn build(&mut self, positions: &[Vec3], cell_size_km: f64) {
        let started = Instant::now();
        if !self.queries.is_empty() {
            let grid = match self.grid.take() {
                Some(grid) if grid.capacity() >= self.members.len() => {
                    grid.reset();
                    grid
                }
                _ => SpatialGrid::new(self.members.len(), cell_size_km),
            };
            self.members
                .par_iter()
                .enumerate()
                .try_for_each(|(local, &global)| {
                    grid.insert(local as u32, positions[global as usize])
                })
                .expect("shard grid sized for its member count cannot fill up");
            self.grid = Some(grid);
        }
        self.micros = started.elapsed().as_micros() as u64;
    }

    /// Everyone changed: the pairs of this shard's occupied cells whose
    /// lower id has this shard (`shard`) as home.
    fn scan(&mut self, home: &[u32], shard: u32, scan: NeighborScan, step: u32) {
        let started = Instant::now();
        if let Some(grid) = self.grid.as_ref().filter(|_| !self.queries.is_empty()) {
            let members = &self.members;
            let parts: Vec<Vec<CandidatePair>> = grid
                .occupied_slots()
                .par_iter()
                .fold(Vec::new, |mut found, &cell| {
                    grid.for_each_pair_in_slot(cell, scan, |a, b| {
                        let pair =
                            CandidatePair::new(members[a as usize], members[b as usize], step);
                        if home[pair.id_lo as usize] == shard {
                            found.push(pair);
                        }
                    });
                    found
                })
                .collect();
            self.found = parts.concat();
        }
        self.micros += started.elapsed().as_micros() as u64;
    }

    /// A subset changed: the entries of this shard's queries at `step`.
    fn query(&mut self, positions: &[Vec3], step: u32) {
        let started = Instant::now();
        if let Some(grid) = self.grid.as_ref().filter(|_| !self.queries.is_empty()) {
            let members = &self.members;
            let parts: Vec<Vec<CandidatePair>> = self
                .queries
                .par_iter()
                .fold(Vec::new, |mut found, &c| {
                    grid.for_each_near(positions[c as usize], |local| {
                        let g = members[local as usize];
                        if g != c {
                            found.push(CandidatePair::new(c, g, step));
                        }
                    });
                    found
                })
                .collect();
            self.found = parts.concat();
        }
        self.micros += started.elapsed().as_micros() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ScreeningConfig, Variant};
    use crate::planner::MemoryModel;
    use kessler_orbits::KeplerElements;
    use std::collections::HashSet;

    /// One step of a fresh extraction, its entries as a set.
    fn extract_one_step(
        map: &ShardMap,
        positions: &[Vec3],
        changed: &[u32],
        cell: f64,
        step: u32,
    ) -> (HashSet<CandidatePair>, ShardScreenStats) {
        let everyone: Vec<u32> = (0..positions.len() as u32).collect();
        let mut extraction = Extraction::new(map, changed, cell, NeighborScan::Half);
        extraction.step(step, positions, &everyone, &mut PhaseTimings::default());
        let (entries, stats) = extraction.finish();
        let set: HashSet<CandidatePair> = entries.iter().copied().collect();
        assert_eq!(set.len(), entries.len(), "each entry exactly once");
        (set, stats)
    }

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

    #[test]
    fn overlap_ranges_are_inclusive_and_ordered() {
        let m = map(8, 4);
        // Band width (9000-6500)/8 = 312.5 km.
        let (lo, hi) = m.bands_overlapping(6_700.0, 6_700.0);
        assert_eq!((lo, hi), (0, 0));
        let (lo, hi) = m.bands_overlapping(6_700.0, 7_200.0);
        assert!(lo <= hi && lo == 0 && hi >= 2);
        // Degenerate (hi < lo) inputs still produce an ordered range.
        let (lo, hi) = m.bands_overlapping(7_000.0, 6_000.0);
        assert!(lo <= hi);
    }

    #[test]
    fn home_and_assign_agree_on_equatorial_circular_orbits() {
        let m = map(8, 4);
        // An equatorial circular orbit sits at r = a, z = 0 forever.
        let a = 7_000.0;
        let home = m.home_of(Vec3::new(a, 0.0, 0.0));
        assert_eq!(home, m.assign(a, 0.0));
    }

    #[test]
    fn sharded_step_matches_global_extraction() {
        // Deterministic pseudo-random cloud spanning several bands and
        // shells, with some satellites parked exactly on band edges.
        let cell = 40.0;
        let mut positions = Vec::new();
        let mut rng = 0x5eed_u64;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..400 {
            let r = 6_550.0 + 2_400.0 * next();
            let theta = std::f64::consts::TAU * next();
            let zfrac = 2.0 * next() - 1.0;
            let z = r * 0.9 * zfrac;
            let rho = (r * r - z * z).max(0.0).sqrt();
            positions.push(Vec3::new(rho * theta.cos(), rho * theta.sin(), z));
        }
        // Edge straddlers: within one cell of the 7125 km band edge.
        for k in 0..20 {
            let r = 7_125.0 + (k as f64 - 10.0) * 3.0;
            positions.push(Vec3::new(r, k as f64 * 5.0, k as f64 * 7.0));
        }
        let m = map(8, 4);
        let grid = SpatialGrid::new(positions.len(), cell);
        grid.insert_all(&positions).unwrap();

        // Everyone changed: the sharded scan against one global grid's
        // half scan over its occupied cells.
        let everyone: Vec<u32> = (0..positions.len() as u32).collect();
        let mut expected = HashSet::new();
        for slot in grid.occupied_slots() {
            grid.for_each_pair_in_slot(slot, NeighborScan::Half, |a, b| {
                expected.insert(CandidatePair::new(a, b, 7));
            });
        }
        let (got, stats) = extract_one_step(&m, &positions, &everyone, cell, 7);
        assert_eq!(got, expected);
        assert_eq!(
            stats.total_inserts - stats.mirrored_inserts,
            positions.len() as u64
        );

        // A subset changed: its home-shard queries against the global
        // grid's point queries.
        let changed: Vec<u32> = (0..positions.len() as u32).step_by(3).collect();
        let mut expected = HashSet::new();
        for &c in &changed {
            grid.for_each_near(positions[c as usize], |mbr| {
                if mbr != c {
                    expected.insert(CandidatePair::new(c, mbr, 7));
                }
            });
        }
        let (got, _) = extract_one_step(&m, &positions, &changed, cell, 7);
        assert_eq!(got, expected);
    }

    #[test]
    fn mirroring_counts_boundary_traffic() {
        let m = map(8, 4);
        let cell = 40.0;
        // Two satellites in the same cell but with homes on opposite sides
        // of the 7125 km band edge, and a far one nobody pairs with: the
        // pair must be found exactly once and counted as a boundary entry.
        let positions = vec![
            Vec3::new(7_124.0, 0.0, 0.0),
            Vec3::new(7_126.0, 0.0, 0.0),
            Vec3::new(0.0, 8_500.0, 0.0),
        ];
        assert_ne!(m.home_of(positions[0]), m.home_of(positions[1]));

        // A strict subset changed: point queries from both homes.
        let (got, stats) = extract_one_step(&m, &positions, &[0, 1], cell, 0);
        assert_eq!(got.len(), 1);
        assert!(got.contains(&CandidatePair::new(0, 1, 0)));
        // Both queries saw a cross-shard neighbour.
        assert_eq!(stats.boundary_entries, 2);
        assert!(stats.mirrored_inserts >= 2);

        // Everyone changed: the scan emits the pair once, from the home of
        // its lower id.
        let (got, stats) = extract_one_step(&m, &positions, &[0, 1, 2], cell, 0);
        assert_eq!(got, HashSet::from([CandidatePair::new(0, 1, 0)]));
        assert_eq!(stats.boundary_entries, 1);
        let home = m.home_of(positions[0]) as usize;
        assert_eq!(stats.entries[home], 1);
        assert_eq!(stats.entries.iter().sum::<u64>(), 1);
        assert!(stats.mirrored_inserts >= 2);
    }

    #[test]
    fn inserts_count_only_the_grids_that_were_built() {
        let m = map(8, 4);
        let cell = 40.0;
        // Band edges every 312.5 km from 6 500 km; the margin is 2√3·40 ≈
        // 139 km. Satellite 0 (home band 1) mirrors into band 2, satellite
        // 1 (home band 2) into band 1, and satellite 2 (home band 6) into
        // band 5, which holds nothing but that mirror. All sit in shell 0.
        let positions = vec![
            Vec3::new(7_124.0, 0.0, 0.0),
            Vec3::new(7_126.0, 0.0, 0.0),
            Vec3::new(0.0, 8_500.0, 0.0),
        ];
        let shard = |band| m.shard_id(band, 0) as usize;
        assert_eq!(
            [0, 1, 2].map(|i| m.home_of(positions[i]) as usize),
            [shard(1), shard(2), shard(6)]
        );

        // Everyone changed: bands 1, 2 and 6 extract and insert their two,
        // two and one members; band 5, only a mirror, builds nothing.
        let (_, stats) = extract_one_step(&m, &positions, &[0, 1, 2], cell, 0);
        assert_eq!((stats.total_inserts, stats.mirrored_inserts), (5, 2));
        assert_eq!(stats.peak_members[shard(5)], 1);

        // Only satellite 0 changed: band 1 alone builds, home member 0 and
        // mirror 1.
        let (got, stats) = extract_one_step(&m, &positions, &[0], cell, 0);
        assert_eq!(got, HashSet::from([CandidatePair::new(0, 1, 0)]));
        assert_eq!((stats.total_inserts, stats.mirrored_inserts), (2, 1));

        // Only satellite 2 changed: band 6 inserts it alone.
        let (got, stats) = extract_one_step(&m, &positions, &[2], cell, 0);
        assert!(got.is_empty());
        assert_eq!((stats.total_inserts, stats.mirrored_inserts), (1, 0));
    }

    /// `Extraction::run` over a population's own plan, everyone changed.
    fn run_everyone(
        map: &ShardMap,
        pop: &[KeplerElements],
        config: &ScreeningConfig,
        timings: &mut PhaseTimings,
    ) -> (PlannerReport, Vec<CandidatePair>) {
        let planner = MemoryModel::new(Variant::Grid).plan(pop.len(), config);
        let everyone: Vec<u32> = (0..pop.len() as u32).collect();
        let (entries, _) =
            Extraction::new(map, &everyone, planner.cell_size_km, NeighborScan::Half)
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
        let (_, entries) = run_everyone(&ShardMap::single(), &pop, &config, &mut timings);
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
        for layout in [ShardMap::single(), map(8, 4)] {
            let (planner, entries) =
                run_everyone(&layout, &pop, &config, &mut PhaseTimings::default());
            // All 64 co-located → all C(64,2) pairs at both steps.
            assert_eq!(planner.total_steps, 2);
            assert_eq!(entries.len(), 64 * 63 / 2 * 2);
        }
    }
}
