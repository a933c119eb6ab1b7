//! The spatial grid (§III-A, §IV-A2/3): a fixed-size atomic hash map from
//! cell keys to per-cell singly-linked satellite lists.
//!
//! One grid represents the population at a single sampling step. Insertion
//! is fully parallel: a thread computes the satellite's cell key, claims or
//! finds the cell's hash-map slot with one CAS, and pushes the satellite
//! onto the cell's list with a CAS loop on the list head. The list arena is
//! one `AtomicU32` per satellite, allocated once ("each satellite produces
//! exactly one of these entries, so we can allocate them in advance and
//! just set the pointers to the next entry dynamically", Fig. 6).

use crate::atomic_map::{AtomicMap, MapFull, VALUE_EMPTY};
use crate::cellkey::{cell_key_of, CellKey};
use crate::neighbor::{FULL_NEIGHBORHOOD, HALF_NEIGHBORHOOD};
use crate::pairset::{CandidatePair, PairSet};
use kessler_math::Vec3;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Neighbourhood scan strategy for candidate-pair extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NeighborScan {
    /// Visit each unordered cell pair once via 13 lexicographically
    /// positive offsets (default; half the lookups of the paper's full
    /// scan with identical results thanks to pair-set dedup).
    #[default]
    Half,
    /// The paper's literal 26-neighbour scan; every cross-cell pair is
    /// found twice and deduplicated by the pair set. Kept for the ablation
    /// benchmark.
    Full,
}

/// A spatial grid for one sampling step.
///
/// The grid owns no satellite positions — callers pass the position slice
/// to every operation, keeping the hot data in one flat array
/// (structure-of-arrays) that all sampling steps share.
pub struct SpatialGrid {
    map: AtomicMap,
    /// `next[i]` = next satellite in i's cell list, or `VALUE_EMPTY`.
    next: Box<[AtomicU32]>,
    cell_size: f64,
}

impl SpatialGrid {
    /// Create a grid for `capacity` satellites with the given cell size.
    ///
    /// The hash map gets `2 × capacity` slots — the paper's sizing rule
    /// ("we use twice the number of satellites as slots to mitigate the
    /// number of hash collisions and break up long clusters").
    pub fn new(capacity: usize, cell_size: f64) -> SpatialGrid {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "invalid cell size"
        );
        SpatialGrid {
            map: AtomicMap::with_capacity(2 * capacity.max(1)),
            next: (0..capacity).map(|_| AtomicU32::new(VALUE_EMPTY)).collect(),
            cell_size,
        }
    }

    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Number of satellites the arena can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.next.len()
    }

    /// Approximate resident size in bytes (`a_gh + a_l` of §V-B).
    pub fn memory_bytes(&self) -> usize {
        self.map.memory_bytes() + self.next.len() * std::mem::size_of::<AtomicU32>()
    }

    /// Reset for the next sampling step (parallel).
    pub fn reset(&self) {
        self.map.reset();
        self.next
            .par_iter()
            .for_each(|n| n.store(VALUE_EMPTY, Ordering::Relaxed));
    }

    /// Insert one satellite. Lock-free; safe to call from many threads.
    ///
    /// # Errors
    /// [`MapFull`] if the hash map has no free slot (cannot happen with
    /// the 2× sizing rule, because a population of n satellites occupies
    /// at most n cells).
    pub fn insert(&self, index: u32, position: Vec3) -> Result<(), MapFull> {
        debug_assert!((index as usize) < self.next.len());
        let key = cell_key_of(position, self.cell_size);
        let slot = self.map.insert_or_get(key.0)?.slot();
        // Push-front onto the cell list: next[i] = head; head = i (CAS loop).
        let head = self.map.value_atomic(slot);
        let mut current = head.load(Ordering::Acquire);
        loop {
            self.next[index as usize].store(current, Ordering::Release);
            match head.compare_exchange_weak(current, index, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }

    /// Insert every satellite of `positions` in parallel
    /// (`positions[i]` ↔ satellite id `i`).
    pub fn insert_all(&self, positions: &[Vec3]) -> Result<(), MapFull> {
        assert!(positions.len() <= self.capacity());
        positions
            .par_iter()
            .enumerate()
            .try_for_each(|(i, &p)| self.insert(i as u32, p))
    }

    /// Iterate the satellite indices stored in the cell at map slot `slot`.
    pub fn cell_members(&self, slot: usize) -> CellMembers<'_> {
        CellMembers {
            grid: self,
            cursor: self.map.value_at(slot),
        }
    }

    /// Slot of a cell key, if that cell is occupied.
    #[inline]
    pub fn lookup_cell(&self, key: CellKey) -> Option<usize> {
        self.map.lookup(key.0)
    }

    /// Visit every satellite stored in the cell holding `position` and in
    /// its 26 neighbours — the point query behind "who is near this
    /// satellite at this step?" (§III-A). A satellite inserted at
    /// `position` is itself among those visited.
    pub fn for_each_near(&self, position: Vec3, mut visit: impl FnMut(u32)) {
        let key = cell_key_of(position, self.cell_size);
        let neighbors = FULL_NEIGHBORHOOD
            .iter()
            .filter_map(|&(dx, dy, dz)| key.offset(dx, dy, dz));
        for cell in std::iter::once(key).chain(neighbors) {
            if let Some(slot) = self.lookup_cell(cell) {
                self.cell_members(slot).for_each(&mut visit);
            }
        }
    }

    /// Cell key stored at a map slot.
    #[inline]
    pub fn cell_key_at(&self, slot: usize) -> Option<CellKey> {
        self.map.key_at(slot).map(CellKey)
    }

    /// All occupied map slots (parallel collect).
    pub fn occupied_slots(&self) -> Vec<usize> {
        self.map.occupied_slots()
    }

    /// Number of occupied cells.
    pub fn occupied_cells(&self) -> usize {
        self.map.occupied()
    }

    /// Extract candidate pairs into `pairs` (§IV-A3).
    ///
    /// Every pair of satellites sharing a cell, plus every pair with the
    /// two satellites in adjacent cells, is inserted as
    /// `(id_lo, id_hi, step)`. The occupied slots are scanned in parallel.
    pub fn collect_candidate_pairs(&self, step: u32, scan: NeighborScan, pairs: &PairSet) {
        let slots = self.occupied_slots();
        slots.par_iter().for_each(|&slot| {
            self.collect_pairs_for_slot(slot, step, scan, pairs);
        });
    }

    /// Candidate pairs contributed by one occupied cell, as `(id_lo,
    /// id_hi, step)` entries into `pairs`. Public so kernel-style executors
    /// (the GPU simulator) can parallelise over slots themselves;
    /// [`SpatialGrid::collect_candidate_pairs`] is the rayon driver over
    /// all occupied slots.
    pub fn collect_pairs_for_slot(
        &self,
        slot: usize,
        step: u32,
        scan: NeighborScan,
        pairs: &PairSet,
    ) {
        self.for_each_pair_in_slot(slot, scan, |a, b| {
            pairs.insert(CandidatePair::new(a, b, step));
        });
    }

    /// Visit the candidate pairs one occupied cell contributes: every
    /// unordered pair of its members, then every member against every
    /// member of each neighbouring cell `scan` names. Under
    /// [`NeighborScan::Half`] the occupied cells together visit each
    /// adjacent pair exactly once; under [`NeighborScan::Full`] a
    /// cross-cell pair is visited from both cells.
    pub fn for_each_pair_in_slot(
        &self,
        slot: usize,
        scan: NeighborScan,
        mut visit: impl FnMut(u32, u32),
    ) {
        let Some(key) = self.cell_key_at(slot) else {
            return;
        };

        // Pairs inside the cell itself: every unordered pair of members.
        let members: Vec<u32> = self.cell_members(slot).collect();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                visit(a, b);
            }
        }

        // Pairs against neighbouring cells.
        let offsets: &[(i64, i64, i64)] = match scan {
            NeighborScan::Half => &HALF_NEIGHBORHOOD,
            NeighborScan::Full => &FULL_NEIGHBORHOOD,
        };
        for &(dx, dy, dz) in offsets {
            let Some(nkey) = key.offset(dx, dy, dz) else {
                continue;
            };
            let Some(nslot) = self.lookup_cell(nkey) else {
                continue;
            };
            for &a in &members {
                for b in self.cell_members(nslot) {
                    visit(a, b);
                }
            }
        }
    }
}

/// Iterator over the satellites of one cell (walks the linked list).
pub struct CellMembers<'a> {
    grid: &'a SpatialGrid,
    cursor: u32,
}

impl Iterator for CellMembers<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cursor == VALUE_EMPTY {
            return None;
        }
        let id = self.cursor;
        self.cursor = self.grid.next[id as usize].load(Ordering::Acquire);
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn pairs_of(grid: &SpatialGrid, scan: NeighborScan) -> HashSet<(u32, u32)> {
        let set = PairSet::with_capacity(1 << 14);
        grid.collect_candidate_pairs(0, scan, &set);
        set.drain_to_vec()
            .into_iter()
            .map(|p| (p.id_lo, p.id_hi))
            .collect()
    }

    /// Brute-force reference: all pairs whose cells differ by ≤ 1 per axis.
    fn reference_pairs(positions: &[Vec3], cell: f64) -> HashSet<(u32, u32)> {
        let mut out = HashSet::new();
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                let (ax, ay, az) = crate::cellkey::cell_coords(positions[i], cell);
                let (bx, by, bz) = crate::cellkey::cell_coords(positions[j], cell);
                if (ax - bx).abs() <= 1 && (ay - by).abs() <= 1 && (az - bz).abs() <= 1 {
                    out.insert((i as u32, j as u32));
                }
            }
        }
        out
    }

    #[test]
    fn satellites_in_same_cell_pair_up() {
        let grid = SpatialGrid::new(4, 10.0);
        let positions = [
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(2.0, 2.0, 2.0),
            Vec3::new(500.0, 500.0, 500.0),
        ];
        grid.insert_all(&positions).unwrap();
        assert_eq!(grid.occupied_cells(), 2);
        let pairs = pairs_of(&grid, NeighborScan::Half);
        assert_eq!(pairs, HashSet::from([(0, 1)]));
    }

    #[test]
    fn satellites_in_adjacent_cells_pair_up() {
        let grid = SpatialGrid::new(2, 10.0);
        // Cells (0,0,0) and (1,0,0).
        let positions = [Vec3::new(9.0, 5.0, 5.0), Vec3::new(11.0, 5.0, 5.0)];
        grid.insert_all(&positions).unwrap();
        let pairs = pairs_of(&grid, NeighborScan::Half);
        assert_eq!(pairs, HashSet::from([(0, 1)]));
    }

    #[test]
    fn diagonal_neighbors_pair_up() {
        let grid = SpatialGrid::new(2, 10.0);
        // Cells (0,0,0) and (1,1,1) — corner adjacency.
        let positions = [Vec3::new(9.9, 9.9, 9.9), Vec3::new(10.1, 10.1, 10.1)];
        grid.insert_all(&positions).unwrap();
        let pairs = pairs_of(&grid, NeighborScan::Half);
        assert_eq!(pairs, HashSet::from([(0, 1)]));
    }

    #[test]
    fn distant_satellites_do_not_pair() {
        let grid = SpatialGrid::new(2, 10.0);
        // Cells (0,0,0) and (2,0,0) — not adjacent.
        let positions = [Vec3::new(5.0, 5.0, 5.0), Vec3::new(25.0, 5.0, 5.0)];
        grid.insert_all(&positions).unwrap();
        assert!(pairs_of(&grid, NeighborScan::Half).is_empty());
    }

    #[test]
    fn point_query_visits_own_and_adjacent_cells_only() {
        let grid = SpatialGrid::new(4, 10.0);
        // Cells (0,0,0), (0,0,0), (1,1,1) and (2,0,0).
        let positions = [
            Vec3::new(5.0, 5.0, 5.0),
            Vec3::new(6.0, 6.0, 6.0),
            Vec3::new(10.1, 10.1, 10.1),
            Vec3::new(25.0, 5.0, 5.0),
        ];
        grid.insert_all(&positions).unwrap();
        let mut near = Vec::new();
        grid.for_each_near(positions[0], |id| near.push(id));
        near.sort_unstable();
        assert_eq!(near, vec![0, 1, 2]);
    }

    #[test]
    fn half_and_full_scans_find_identical_pairs() {
        let mut positions = Vec::new();
        // A clumpy deterministic cloud.
        for i in 0..64u32 {
            let f = i as f64;
            positions.push(Vec3::new(
                (f * 7.3) % 50.0,
                (f * 13.7) % 50.0,
                (f * 29.1) % 50.0,
            ));
        }
        let grid = SpatialGrid::new(positions.len(), 10.0);
        grid.insert_all(&positions).unwrap();
        let half = pairs_of(&grid, NeighborScan::Half);
        let full = pairs_of(&grid, NeighborScan::Full);
        assert_eq!(half, full);
        assert!(!half.is_empty());
    }

    #[test]
    fn candidate_pairs_match_brute_force_reference() {
        let mut positions = Vec::new();
        for i in 0..100u32 {
            let f = i as f64;
            positions.push(Vec3::new(
                (f * 17.3) % 80.0 - 40.0,
                (f * 31.7) % 80.0 - 40.0,
                (f * 47.9) % 80.0 - 40.0,
            ));
        }
        let grid = SpatialGrid::new(positions.len(), 12.0);
        grid.insert_all(&positions).unwrap();
        assert_eq!(
            pairs_of(&grid, NeighborScan::Half),
            reference_pairs(&positions, 12.0)
        );
    }

    #[test]
    fn cell_list_contains_every_inserted_member() {
        let grid = SpatialGrid::new(50, 100.0);
        // All 50 satellites into the same cell.
        let positions: Vec<Vec3> = (0..50)
            .map(|i| Vec3::new(i as f64, i as f64, 0.0))
            .collect();
        grid.insert_all(&positions).unwrap();
        assert_eq!(grid.occupied_cells(), 1);
        let slot = grid.occupied_slots()[0];
        let members: HashSet<u32> = grid.cell_members(slot).collect();
        assert_eq!(members, (0..50u32).collect());
    }

    #[test]
    fn reset_allows_reuse_for_next_step() {
        let grid = SpatialGrid::new(3, 10.0);
        grid.insert_all(&[Vec3::new(1.0, 1.0, 1.0), Vec3::new(2.0, 2.0, 2.0)])
            .unwrap();
        assert_eq!(grid.occupied_cells(), 1);
        grid.reset();
        assert_eq!(grid.occupied_cells(), 0);
        // Different step, different positions.
        grid.insert_all(&[
            Vec3::new(100.0, 0.0, 0.0),
            Vec3::new(-100.0, 0.0, 0.0),
            Vec3::new(0.0, 100.0, 0.0),
        ])
        .unwrap();
        assert_eq!(grid.occupied_cells(), 3);
        assert!(pairs_of(&grid, NeighborScan::Half).is_empty());
    }

    #[test]
    fn concurrent_insertion_loses_no_satellite() {
        let n = 2_000u32;
        let grid = SpatialGrid::new(n as usize, 5.0);
        // Highly contended: only ~8 distinct cells.
        let positions: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new((i % 2) as f64 * 5.0, (i % 4 / 2) as f64 * 5.0, 0.0))
            .collect();
        grid.insert_all(&positions).unwrap();
        // Every satellite must appear in exactly one cell list.
        let mut seen = HashSet::new();
        for slot in grid.occupied_slots() {
            for id in grid.cell_members(slot) {
                assert!(seen.insert(id), "satellite {id} appears twice");
            }
        }
        assert_eq!(seen.len(), n as usize);
    }

    #[test]
    fn negative_coordinates_are_handled() {
        let grid = SpatialGrid::new(2, 10.0);
        let positions = [Vec3::new(-9.0, -9.0, -9.0), Vec3::new(-11.0, -9.0, -9.0)];
        grid.insert_all(&positions).unwrap();
        // Cells (-1,-1,-1) and (-2,-1,-1): adjacent.
        assert_eq!(pairs_of(&grid, NeighborScan::Half), HashSet::from([(0, 1)]));
    }

    #[test]
    #[should_panic(expected = "invalid cell size")]
    fn zero_cell_size_is_rejected() {
        SpatialGrid::new(10, 0.0);
    }

    proptest! {
        /// The grid's candidate set must exactly equal the brute-force set
        /// of cell-adjacent pairs for random clouds — the core correctness
        /// property of the whole data structure.
        #[test]
        fn prop_matches_brute_force(
            raw in proptest::collection::vec(
                (-200.0..200.0f64, -200.0..200.0f64, -200.0..200.0f64), 2..60),
            cell in 5.0..50.0f64,
        ) {
            let positions: Vec<Vec3> =
                raw.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
            let grid = SpatialGrid::new(positions.len(), cell);
            grid.insert_all(&positions).unwrap();
            prop_assert_eq!(
                pairs_of(&grid, NeighborScan::Half),
                reference_pairs(&positions, cell)
            );
        }

        /// Any two satellites within one cell size of each other MUST be a
        /// candidate pair (no false negatives — the safety property that
        /// justifies Eq. 1's cell sizing).
        #[test]
        fn prop_close_pairs_are_never_missed(
            x in -1000.0..1000.0f64, y in -1000.0..1000.0f64, z in -1000.0..1000.0f64,
            dx in -1.0..1.0f64, dy in -1.0..1.0f64, dz in -1.0..1.0f64,
            cell in 1.0..100.0f64,
        ) {
            let sep = Vec3::new(dx, dy, dz) * (cell / 3.0f64.sqrt() * 0.999);
            let a = Vec3::new(x, y, z);
            let b = a + sep;
            prop_assume!(a.dist(b) <= cell);
            let grid = SpatialGrid::new(2, cell);
            grid.insert_all(&[a, b]).unwrap();
            let pairs = pairs_of(&grid, NeighborScan::Half);
            prop_assert!(pairs.contains(&(0, 1)), "missed pair at distance {}", a.dist(b));
        }
    }
}
