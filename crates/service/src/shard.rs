//! Catalog sharding by orbital regime.
//!
//! A [`ShardMap`] partitions the catalog into altitude bands × |z| shells
//! (megaconstellation LEO traffic separates naturally along exactly these
//! axes — shells at distinct altitudes and inclinations). Candidate
//! extraction then runs one spatial grid *per shard* instead of one global
//! grid, so shards screen in parallel and a future distribution boundary
//! falls on shard edges.
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
//! Candidate pairs come from 27-cell neighbourhood queries: two satellites
//! form an entry at a step iff their cells are within one cell in every
//! axis, i.e. their positions differ by less than `2·cell` per axis and so
//! by less than `m = 2·√3·cell` in norm. Per step, each satellite is
//! therefore *inserted* into every shard whose region overlaps its
//! position widened by `m` in `(r, |z|)` (mirroring: a satellite within
//! one neighbourhood-width of a band edge also lives in the adjacent
//! shard's grid), while each changed satellite is *queried* only in its
//! home shard. Any neighbour within the 27-cell reach of a changed
//! satellite `c` is within `m` of `c`'s position, hence a member of `c`'s
//! home shard — so the per-shard query returns exactly the global grid's
//! answer, and sharded extraction is *bit-identical* to unsharded
//! (`tests/delta_correctness.rs` enforces this).
//!
//! Membership is recomputed from instantaneous positions every step, so
//! eccentric satellites sweep through every band their apsis range
//! overlaps; the static [`ShardMap::assign`] (used for persistence
//! chunking and dirty tracking) conservatively files a satellite under its
//! semi-major axis band.

use crate::error::ServiceError;
use kessler_core::metrics::Histogram;
use kessler_grid::pairset::CandidatePair;
use kessler_grid::SpatialGrid;
use kessler_math::Vec3;
use rayon::prelude::*;
use std::collections::HashSet;
use std::time::Instant;

/// Upper bound on `alt_bands × z_shells`: keeps per-step membership
/// bookkeeping (one member list per shard) trivially cheap.
pub const MAX_SHARDS: u32 = 4096;

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
    pub fn shard_count(&self) -> u32 {
        self.alt_bands * self.z_shells
    }

    pub fn validate(&self) -> Result<(), ServiceError> {
        let bad = |msg: String| Err(ServiceError::Config(msg));
        if self.alt_bands == 0 || self.z_shells == 0 {
            return bad(format!(
                "shard spec needs at least one band and one shell (got {}×{})",
                self.alt_bands, self.z_shells
            ));
        }
        if self.shard_count() > MAX_SHARDS {
            return bad(format!(
                "{} bands × {} shells = {} shards exceeds the {MAX_SHARDS}-shard cap",
                self.alt_bands,
                self.z_shells,
                self.shard_count()
            ));
        }
        if !self.r_min_km.is_finite() || !self.r_max_km.is_finite() {
            return bad("shard radii must be finite".to_string());
        }
        if self.r_min_km <= 0.0 || self.r_max_km <= self.r_min_km {
            return bad(format!(
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
    pub fn new(spec: ShardSpec) -> Result<ShardMap, ServiceError> {
        spec.validate()?;
        Ok(ShardMap {
            spec,
            band_width_km: (spec.r_max_km - spec.r_min_km) / spec.alt_bands as f64,
            shell_width_km: spec.r_max_km / spec.z_shells as f64,
        })
    }

    pub fn spec(&self) -> ShardSpec {
        self.spec
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
/// through the executor so the commit path can merge them into the
/// metrics registry (per-shard step-time [`Histogram`]s merge via the
/// core histogram's own `merge`).
#[derive(Debug, Clone, Default)]
pub struct ShardScreenStats {
    /// Per-shard histogram of per-step extraction wall time (µs).
    pub step_us: Vec<Histogram>,
    /// Per-shard candidate entries emitted.
    pub entries: Vec<u64>,
    /// Per-shard peak member count across steps (mirrors included).
    pub peak_members: Vec<u64>,
    /// Entries whose neighbour lives in a different home shard than the
    /// queried satellite — the pairs sharding would have lost without
    /// boundary mirroring.
    pub boundary_entries: u64,
    /// Grid inserts beyond one-per-satellite, i.e. boundary mirrors.
    pub mirrored_inserts: u64,
    /// Total per-step grid inserts across all shards and steps.
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

/// Reusable per-step membership buffers, so the step loop allocates the
/// per-shard vectors once instead of `shards × steps` times.
pub struct ShardScratch {
    /// Global indices per shard (home members first is *not* guaranteed).
    members: Vec<Vec<u32>>,
    /// Positions gathered per shard, parallel to `members`.
    positions: Vec<Vec<Vec3>>,
    /// Changed satellites to query, grouped by home shard.
    changed: Vec<Vec<u32>>,
}

impl ShardScratch {
    pub fn new(shard_count: u32) -> ShardScratch {
        let n = shard_count as usize;
        ShardScratch {
            members: vec![Vec::new(); n],
            positions: vec![Vec::new(); n],
            changed: vec![Vec::new(); n],
        }
    }
}

/// One step of sharded candidate extraction: recompute shard membership
/// from the step's positions (mirroring satellites within `m = 2√3·cell`
/// of a shard edge into the adjacent shards), build each shard's grid,
/// query each changed satellite's 27-cell neighbourhood in its home
/// shard, and merge the per-shard entries into `entries`.
///
/// The emitted `CandidatePair`s carry *global* indices, so everything
/// downstream of extraction (refinement, dedup, the warm pair map) is
/// untouched by sharding — which is what makes sharded == unsharded exact.
#[allow(clippy::too_many_arguments)]
pub fn extract_step_sharded(
    map: &ShardMap,
    positions: &[Vec3],
    changed: &[u32],
    cell_size_km: f64,
    step: u32,
    scratch: &mut ShardScratch,
    entries: &mut HashSet<CandidatePair>,
    stats: &mut ShardScreenStats,
) {
    // Anything within the 27-cell neighbourhood differs by < 2·cell per
    // axis, so by < 2√3·cell in norm — and radius and |z| are 1-Lipschitz
    // in position, so widening membership by `margin` in both partition
    // coordinates covers every possible neighbour.
    let margin = 2.0 * 3.0_f64.sqrt() * cell_size_km;
    let shard_count = map.shard_count() as usize;

    for s in 0..shard_count {
        scratch.members[s].clear();
        scratch.positions[s].clear();
        scratch.changed[s].clear();
    }
    for (i, p) in positions.iter().enumerate() {
        let r = p.norm();
        let z = p.z.abs();
        let (b_lo, b_hi) = map.bands_overlapping(r - margin, r + margin);
        let (s_lo, s_hi) = map.shells_overlapping(z - margin, z + margin);
        for band in b_lo..=b_hi {
            for shell in s_lo..=s_hi {
                let s = map.shard_id(band, shell) as usize;
                scratch.members[s].push(i as u32);
                scratch.positions[s].push(*p);
            }
        }
    }
    for &c in changed {
        let home = map.home_of(positions[c as usize]) as usize;
        scratch.changed[home].push(c);
    }

    struct ShardOutcome {
        entries: Vec<CandidatePair>,
        boundary: u64,
        members: u64,
        micros: u64,
    }

    let outcomes: Vec<ShardOutcome> = (0..shard_count)
        .into_par_iter()
        .map(|s| {
            let started = Instant::now();
            let members = &scratch.members[s];
            let local_positions = &scratch.positions[s];
            let queries = &scratch.changed[s];
            let mut out = ShardOutcome {
                entries: Vec::new(),
                boundary: 0,
                members: members.len() as u64,
                micros: 0,
            };
            if !queries.is_empty() && !members.is_empty() {
                let grid = SpatialGrid::new(members.len(), cell_size_km);
                grid.insert_all(local_positions)
                    .expect("shard grid sized at its member count cannot fill up");
                for &c in queries {
                    grid.for_each_near(positions[c as usize], |local| {
                        let g = members[local as usize];
                        if g != c {
                            out.entries.push(CandidatePair::new(c, g, step));
                            if map.home_of(positions[g as usize]) as usize != s {
                                out.boundary += 1;
                            }
                        }
                    });
                }
            }
            out.micros = started.elapsed().as_micros() as u64;
            out
        })
        .collect();

    let mut step_inserts = 0u64;
    for (s, outcome) in outcomes.into_iter().enumerate() {
        stats.step_us[s].record(outcome.micros);
        stats.entries[s] += outcome.entries.len() as u64;
        stats.peak_members[s] = stats.peak_members[s].max(outcome.members);
        stats.boundary_entries += outcome.boundary;
        step_inserts += outcome.members;
        entries.extend(outcome.entries);
    }
    stats.total_inserts += step_inserts;
    stats.mirrored_inserts += step_inserts.saturating_sub(positions.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let changed: Vec<u32> = (0..positions.len() as u32).step_by(3).collect();

        // Global (unsharded) reference extraction.
        let mut expected = HashSet::new();
        let grid = SpatialGrid::new(positions.len(), cell);
        grid.insert_all(&positions).unwrap();
        for &c in &changed {
            grid.for_each_near(positions[c as usize], |mbr| {
                if mbr != c {
                    expected.insert(CandidatePair::new(c, mbr, 7));
                }
            });
        }

        let m = map(8, 4);
        let mut scratch = ShardScratch::new(m.shard_count());
        let mut stats = ShardScreenStats::new(m.shard_count());
        let mut got = HashSet::new();
        extract_step_sharded(
            &m,
            &positions,
            &changed,
            cell,
            7,
            &mut scratch,
            &mut got,
            &mut stats,
        );
        assert_eq!(got, expected);
        assert_eq!(
            stats.total_inserts - stats.mirrored_inserts,
            positions.len() as u64
        );
    }

    #[test]
    fn mirroring_counts_boundary_traffic() {
        let m = map(8, 4);
        let cell = 40.0;
        // Two satellites in the same cell but with homes on opposite sides
        // of the 7125 km band edge: the pair must be found exactly once
        // and counted as a boundary entry.
        let positions = vec![Vec3::new(7_124.0, 0.0, 0.0), Vec3::new(7_126.0, 0.0, 0.0)];
        assert_ne!(m.home_of(positions[0]), m.home_of(positions[1]));
        let changed = vec![0u32, 1];
        let mut scratch = ShardScratch::new(m.shard_count());
        let mut stats = ShardScreenStats::new(m.shard_count());
        let mut got = HashSet::new();
        extract_step_sharded(
            &m,
            &positions,
            &changed,
            cell,
            0,
            &mut scratch,
            &mut got,
            &mut stats,
        );
        assert_eq!(got.len(), 1);
        assert!(got.contains(&CandidatePair::new(0, 1, 0)));
        // Both queries saw a cross-shard neighbour.
        assert_eq!(stats.boundary_entries, 2);
        assert!(stats.mirrored_inserts >= 2);
    }
}
