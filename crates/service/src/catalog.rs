//! Epoch-versioned incremental catalog.
//!
//! The screeners operate on a dense `&[KeplerElements]` slice whose indices
//! double as satellite ids. An operational catalog instead speaks stable
//! external ids (NORAD numbers, mission ids) and changes continuously. This
//! store bridges the two: external ids map to dense indices, removals use
//! `swap_remove` to keep the slice dense, and every mutation bumps a
//! monotonic epoch recorded per satellite — which is what delta screening
//! uses to know how stale its maintained conjunction set is.
//!
//! Time advances are *absolute*, not cumulative: the catalog stores each
//! satellite's epoch-0 elements alongside the propagated ones and
//! re-propagates from epoch 0 on every [`Catalog::advance_all`]. Repeatedly
//! adding `n·dt` to an already-wrapped mean anomaly accumulates one float
//! rounding per step, so a daemon advancing every few seconds for weeks
//! drifts measurably; `M(t) = M₀ + n·t` from the stored base is one rounding
//! total.

use crate::error::ServiceError;
use crate::persist::Row;
use crate::proto::ElementsSpec;
use kessler_orbits::KeplerElements;
use std::collections::HashMap;
use std::sync::Arc;

/// Catalog mutation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogError {
    /// `add` of an external id that is already present.
    DuplicateId(u64),
    /// `update`/`remove` of an external id that is not present.
    UnknownId(u64),
    /// The dense index space is exhausted (the candidate-pair keys pack
    /// satellite ids into 21 bits).
    Full,
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::DuplicateId(id) => write!(f, "satellite id {id} already exists"),
            CatalogError::UnknownId(id) => write!(f, "no satellite with id {id}"),
            CatalogError::Full => write!(f, "catalog is full (21-bit dense index space)"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// What a `remove` did. `swap_remove` moves the last satellite into the
/// vacated dense slot; delta screening must invalidate pairs of both the
/// removed and the moved satellite and re-screen the mover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Removal {
    /// Dense index the removed satellite occupied (now holding the moved
    /// satellite, unless it was the last slot).
    pub removed_index: u32,
    /// Former dense index of the satellite moved into `removed_index`
    /// (`None` when the removed satellite was the last slot).
    pub moved_from: Option<u32>,
}

/// Incremental satellite catalog: stable ids ↔ dense indices, per-satellite
/// generation counters, monotonic epoch.
///
/// The element arrays live behind `Arc` so [`Catalog::snapshot`] is O(1):
/// mutations go through `Arc::make_mut`, which clones only when a snapshot
/// is still holding the previous version (copy-on-write).
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    epoch: u64,
    ids: Vec<u64>,
    elements: Arc<Vec<KeplerElements>>,
    generations: Vec<u64>,
    index_of: HashMap<u64, u32>,
    /// Seconds the catalog has been advanced past its base epoch.
    time: f64,
    /// Epoch-0 elements per satellite; `elements[i]` is always
    /// `base_elements[i]` propagated by `time`.
    base_elements: Arc<Vec<KeplerElements>>,
}

/// An immutable view of the catalog at one epoch, cheap to capture and to
/// clone (two `Arc` bumps). Screening jobs run against a snapshot while
/// the live catalog keeps mutating underneath.
#[derive(Debug, Clone)]
pub struct CatalogSnapshot {
    /// Catalog epoch at capture time.
    pub epoch: u64,
    /// Seconds the catalog had been advanced past its base epoch.
    pub time: f64,
    /// Dense element slice as of `epoch`.
    pub elements: Arc<Vec<KeplerElements>>,
    /// Epoch-0 elements as of `epoch`.
    pub base_elements: Arc<Vec<KeplerElements>>,
}

impl CatalogSnapshot {
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Number of satellites.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Monotonic mutation counter; bumps on every add/update/remove and on
    /// `advance_all`.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The dense element slice the screeners consume. Indices are dense
    /// ids; conjunction records refer to them.
    pub fn elements(&self) -> &[KeplerElements] {
        &self.elements
    }

    /// External ids by dense index.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    pub fn contains(&self, id: u64) -> bool {
        self.index_of.contains_key(&id)
    }

    /// Dense index of an external id.
    pub fn index_of(&self, id: u64) -> Option<u32> {
        self.index_of.get(&id).copied()
    }

    /// External id at a dense index.
    pub fn id_at(&self, index: u32) -> Option<u64> {
        self.ids.get(index as usize).copied()
    }

    pub fn elements_at(&self, index: u32) -> Option<&KeplerElements> {
        self.elements.get(index as usize)
    }

    /// Epoch at which the satellite at `index` last changed.
    pub fn generation_at(&self, index: u32) -> Option<u64> {
        self.generations.get(index as usize).copied()
    }

    /// Seconds the catalog has been advanced past its base epoch.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The catalog as recovery-point rows, in dense-index order.
    pub(crate) fn rows(&self) -> Vec<Row> {
        (0..self.ids.len())
            .map(|i| Row {
                index: i as u32,
                id: self.ids[i],
                elements: ElementsSpec::from_elements(&self.elements[i]),
                base: ElementsSpec::from_elements(&self.base_elements[i]),
                generation: self.generations[i],
            })
            .collect()
    }

    /// Rebuild the catalog a recovery point describes: its `rows`, in
    /// dense-index order (the persistence layer checks that where it reads
    /// them), at `epoch` and `time`. States, once, every rule a recovered
    /// catalog must satisfy before the id → index map is rebuilt.
    pub fn restore(epoch: u64, time: f64, rows: &[Row]) -> Result<Catalog, ServiceError> {
        let invalid = ServiceError::Recovery;
        if !time.is_finite() {
            return Err(invalid(format!("non-finite catalog time {time}")));
        }
        if rows.len() as u64 > kessler_grid::pairset::MAX_ID as u64 {
            return Err(invalid(format!(
                "catalog of {} satellites exceeds the {}-slot dense index space",
                rows.len(),
                kessler_grid::pairset::MAX_ID
            )));
        }
        let mut catalog = Catalog {
            epoch,
            time,
            ..Catalog::default()
        };
        let mut elements = Vec::with_capacity(rows.len());
        let mut base_elements = Vec::with_capacity(rows.len());
        for (index, row) in rows.iter().enumerate() {
            let id = row.id;
            let validated = |spec: ElementsSpec| {
                spec.into_elements()
                    .map_err(|e| invalid(format!("satellite {id}: {e}")))
            };
            if catalog.index_of.insert(id, index as u32).is_some() {
                return Err(invalid(format!("duplicate satellite id {id}")));
            }
            if row.generation > epoch {
                return Err(invalid(format!(
                    "satellite {id} has generation {} past epoch {epoch}",
                    row.generation
                )));
            }
            catalog.ids.push(id);
            catalog.generations.push(row.generation);
            elements.push(validated(row.elements)?);
            base_elements.push(validated(row.base)?);
        }
        catalog.elements = Arc::new(elements);
        catalog.base_elements = Arc::new(base_elements);
        Ok(catalog)
    }

    /// Capture an immutable view of the current state. O(1): two `Arc`
    /// clones. Later mutations copy-on-write and leave the snapshot
    /// untouched.
    pub fn snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            epoch: self.epoch,
            time: self.time,
            elements: Arc::clone(&self.elements),
            base_elements: Arc::clone(&self.base_elements),
        }
    }

    /// Whether `add(id, …)` would succeed: the id must be new and the
    /// dense index space must have room. The one statement of the ADD
    /// rules — request planning consults it, [`Catalog::add`] enforces it.
    pub fn check_add(&self, id: u64) -> Result<(), CatalogError> {
        if self.index_of.contains_key(&id) {
            return Err(CatalogError::DuplicateId(id));
        }
        if self.ids.len() as u32 >= kessler_grid::pairset::MAX_ID {
            return Err(CatalogError::Full);
        }
        Ok(())
    }

    /// Dense index of a satellite that must exist — the one statement of
    /// the UPDATE/REMOVE rule, consulted by request planning and enforced
    /// by [`Catalog::update`] and [`Catalog::remove`].
    pub fn check_present(&self, id: u64) -> Result<u32, CatalogError> {
        self.index_of(id).ok_or(CatalogError::UnknownId(id))
    }

    /// Insert a new satellite; returns its dense index.
    pub fn add(&mut self, id: u64, elements: KeplerElements) -> Result<u32, CatalogError> {
        self.check_add(id)?;
        let index = self.ids.len() as u32;
        let base = self.rebase(&elements);
        self.epoch += 1;
        self.ids.push(id);
        Arc::make_mut(&mut self.elements).push(elements);
        Arc::make_mut(&mut self.base_elements).push(base);
        self.generations.push(self.epoch);
        self.index_of.insert(id, index);
        Ok(index)
    }

    /// Replace the elements of an existing satellite; returns its dense
    /// index.
    pub fn update(&mut self, id: u64, elements: KeplerElements) -> Result<u32, CatalogError> {
        let index = self.check_present(id)?;
        let base = self.rebase(&elements);
        self.epoch += 1;
        Arc::make_mut(&mut self.elements)[index as usize] = elements;
        Arc::make_mut(&mut self.base_elements)[index as usize] = base;
        self.generations[index as usize] = self.epoch;
        Ok(index)
    }

    /// Remove a satellite with `swap_remove` semantics.
    pub fn remove(&mut self, id: u64) -> Result<Removal, CatalogError> {
        let index = self.check_present(id)?;
        let last = (self.ids.len() - 1) as u32;
        self.epoch += 1;
        self.index_of.remove(&id);
        self.ids.swap_remove(index as usize);
        Arc::make_mut(&mut self.elements).swap_remove(index as usize);
        Arc::make_mut(&mut self.base_elements).swap_remove(index as usize);
        self.generations.swap_remove(index as usize);
        if index != last {
            let moved_id = self.ids[index as usize];
            self.index_of.insert(moved_id, index);
            self.generations[index as usize] = self.epoch;
            Ok(Removal {
                removed_index: index,
                moved_from: Some(last),
            })
        } else {
            Ok(Removal {
                removed_index: index,
                moved_from: None,
            })
        }
    }

    /// Shift every satellite's epoch forward by `dt` seconds: mean anomaly
    /// advances by `n·dt` (exact under two-body propagation), all other
    /// elements are unchanged. This is a uniform re-epoching, so
    /// per-satellite generations stay put.
    ///
    /// Propagation is absolute — `M(t) = M₀ + n·t` from the stored epoch-0
    /// elements — so N small advances land within float rounding of one
    /// big advance instead of accumulating a wrap/rounding error per call.
    pub fn advance_all(&mut self, dt: f64) {
        self.epoch += 1;
        self.time += dt;
        let time = self.time;
        let elements = Arc::make_mut(&mut self.elements);
        for (el, base) in elements.iter_mut().zip(self.base_elements.iter()) {
            el.mean_anomaly = base.mean_anomaly_at(time);
        }
    }

    /// De-propagate elements received *now* (at `self.time`) back to the
    /// catalog's base epoch, so later advances re-propagate them exactly.
    fn rebase(&self, elements: &KeplerElements) -> KeplerElements {
        let mut base = *elements;
        base.mean_anomaly = elements.mean_anomaly_at(-self.time);
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kessler_math::angles::wrap_tau;

    fn el(a: f64) -> KeplerElements {
        KeplerElements::new(a, 0.001, 0.5, 1.0, 0.3, 0.2).unwrap()
    }

    /// Shortest angular distance between two wrapped angles.
    fn angle_diff(a: f64, b: f64) -> f64 {
        let d = (a - b).abs() % std::f64::consts::TAU;
        d.min(std::f64::consts::TAU - d)
    }

    #[test]
    fn add_update_lookup_roundtrip() {
        let mut cat = Catalog::new();
        assert!(cat.is_empty());
        let i0 = cat.add(100, el(7_000.0)).unwrap();
        let i1 = cat.add(200, el(7_100.0)).unwrap();
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.index_of(200), Some(1));
        assert_eq!(cat.id_at(1), Some(200));
        assert_eq!(cat.elements()[0].semi_major_axis, 7_000.0);

        let g_before = cat.generation_at(0).unwrap();
        cat.update(100, el(7_050.0)).unwrap();
        assert_eq!(cat.elements()[0].semi_major_axis, 7_050.0);
        assert!(cat.generation_at(0).unwrap() > g_before);
    }

    #[test]
    fn duplicate_and_unknown_ids_error() {
        let mut cat = Catalog::new();
        cat.add(1, el(7_000.0)).unwrap();
        assert_eq!(cat.add(1, el(7_000.0)), Err(CatalogError::DuplicateId(1)));
        assert_eq!(cat.update(2, el(7_000.0)), Err(CatalogError::UnknownId(2)));
        assert_eq!(cat.remove(2), Err(CatalogError::UnknownId(2)));
    }

    #[test]
    fn remove_swaps_last_into_hole() {
        let mut cat = Catalog::new();
        for (i, id) in [10u64, 20, 30, 40].iter().enumerate() {
            cat.add(*id, el(7_000.0 + i as f64)).unwrap();
        }
        let removal = cat.remove(20).unwrap();
        assert_eq!(removal.removed_index, 1);
        assert_eq!(removal.moved_from, Some(3));
        assert_eq!(cat.len(), 3);
        // 40 moved into slot 1.
        assert_eq!(cat.id_at(1), Some(40));
        assert_eq!(cat.index_of(40), Some(1));
        assert_eq!(cat.elements()[1].semi_major_axis, 7_003.0);
        assert!(!cat.contains(20));

        // Removing the last slot moves nothing.
        let removal = cat.remove(30).unwrap();
        assert_eq!(removal.removed_index, 2);
        assert_eq!(removal.moved_from, None);
        assert_eq!(cat.len(), 2);
    }

    #[test]
    fn epoch_is_monotonic() {
        let mut cat = Catalog::new();
        let mut last = cat.epoch();
        cat.add(1, el(7_000.0)).unwrap();
        assert!(cat.epoch() > last);
        last = cat.epoch();
        cat.update(1, el(7_001.0)).unwrap();
        assert!(cat.epoch() > last);
        last = cat.epoch();
        cat.remove(1).unwrap();
        assert!(cat.epoch() > last);
    }

    #[test]
    fn restore_rebuilds_the_index_and_validates() {
        let mut cat = Catalog::new();
        cat.add(10, el(7_000.0)).unwrap();
        cat.add(20, el(7_100.0)).unwrap();
        cat.update(10, el(7_050.0)).unwrap();
        cat.advance_all(500.0);

        let rows = cat.rows();
        let mut back = Catalog::restore(cat.epoch(), cat.time(), &rows).unwrap();
        assert_eq!(back.epoch(), cat.epoch());
        assert_eq!(back.index_of(20), Some(1));
        assert_eq!(back.elements()[0].semi_major_axis, 7_050.0);
        assert_eq!(back.generation_at(0), cat.generation_at(0));
        // The epoch-0 base carried over: further advances agree exactly.
        cat.advance_all(250.0);
        back.advance_all(250.0);
        assert_eq!(back.elements(), cat.elements());

        // Duplicate ids, generations past the epoch, elements that do not
        // validate and non-finite time are all rejected.
        let epoch = cat.epoch();
        let broken = |edit: fn(&mut Vec<Row>)| {
            let mut rows = rows.clone();
            edit(&mut rows);
            Catalog::restore(epoch, 500.0, &rows)
        };
        assert!(broken(|_| ()).is_ok());
        assert!(broken(|rows| rows[1].id = 10).is_err());
        assert!(broken(|rows| rows[0].generation = 99).is_err());
        assert!(broken(|rows| rows[0].elements.e = 1.5).is_err());
        assert!(broken(|rows| rows[1].base.a = -1.0).is_err());
        assert!(Catalog::restore(epoch, f64::NAN, &rows).is_err());
    }

    #[test]
    fn advance_all_shifts_mean_anomaly_only() {
        let mut cat = Catalog::new();
        cat.add(1, el(7_000.0)).unwrap();
        let before = cat.elements()[0];
        let dt = 100.0;
        cat.advance_all(dt);
        let after = cat.elements()[0];
        assert_eq!(after.semi_major_axis, before.semi_major_axis);
        assert_eq!(after.raan, before.raan);
        let expected = wrap_tau(before.mean_anomaly + before.mean_motion() * dt);
        assert!((after.mean_anomaly - expected).abs() < 1e-12);
    }

    #[test]
    fn repeated_small_advances_match_one_big_advance() {
        // The regression this guards: cumulative in-place propagation
        // accumulates one rounding error per step, which a daemon calling
        // ADVANCE every few seconds turns into real drift.
        let mut stepped = Catalog::new();
        for (i, id) in (0..8u64).enumerate() {
            let a = 6_900.0 + 137.0 * i as f64;
            let e = KeplerElements::new(a, 0.002, 0.3 + 0.1 * i as f64, 1.0, 0.4, 0.1 * i as f64)
                .unwrap();
            stepped.add(id, e).unwrap();
        }
        let mut jumped = stepped.clone();

        let dt = 0.25;
        let steps = 1_000u32;
        for _ in 0..steps {
            stepped.advance_all(dt);
        }
        jumped.advance_all(dt * steps as f64);

        assert!((stepped.time() - jumped.time()).abs() < 1e-9);
        for (s, j) in stepped.elements().iter().zip(jumped.elements()) {
            let d = angle_diff(s.mean_anomaly, j.mean_anomaly);
            assert!(d <= 1e-9, "drift {d} rad after {steps} steps");
        }
    }

    #[test]
    fn snapshots_are_immune_to_later_mutations() {
        let mut cat = Catalog::new();
        cat.add(1, el(7_000.0)).unwrap();
        cat.add(2, el(7_100.0)).unwrap();
        let snap = cat.snapshot();
        assert_eq!(snap.epoch, cat.epoch());
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());

        // Every mutation class: the snapshot must keep the captured view.
        cat.update(1, el(7_500.0)).unwrap();
        cat.add(3, el(7_200.0)).unwrap();
        cat.remove(2).unwrap();
        cat.advance_all(300.0);

        assert_eq!(snap.len(), 2);
        assert_eq!(snap.elements[0].semi_major_axis, 7_000.0);
        assert_eq!(snap.elements[1].semi_major_axis, 7_100.0);
        assert_eq!(snap.time, 0.0);
        assert!(snap.epoch < cat.epoch());
        // And the live catalog really did change.
        assert_eq!(cat.elements()[0].semi_major_axis, 7_500.0);
        assert_eq!(cat.time(), 300.0);
    }

    #[test]
    fn snapshot_capture_shares_storage_until_a_mutation() {
        let mut cat = Catalog::new();
        cat.add(1, el(7_000.0)).unwrap();
        let snap = cat.snapshot();
        assert_eq!(snap.elements.as_ptr(), cat.elements().as_ptr());
        cat.update(1, el(7_001.0)).unwrap();
        assert_ne!(snap.elements.as_ptr(), cat.elements().as_ptr());
        assert_eq!(snap.elements[0].semi_major_axis, 7_000.0);
    }

    #[test]
    fn mutations_mid_flight_rebase_onto_catalog_time() {
        let mut cat = Catalog::new();
        cat.add(1, el(7_000.0)).unwrap();
        cat.advance_all(100.0);

        // Elements delivered at t=100 describe the satellite *now*; after
        // another advance they must be propagated from t=100, not t=0.
        let fresh = el(7_300.0);
        cat.update(1, fresh).unwrap();
        assert!((cat.elements()[0].mean_anomaly - fresh.mean_anomaly).abs() < 1e-12);
        cat.advance_all(50.0);
        let expected = fresh.mean_anomaly_at(50.0);
        assert!(angle_diff(cat.elements()[0].mean_anomaly, expected) < 1e-9);
    }
}
