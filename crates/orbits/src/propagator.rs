//! Two-body propagation with per-satellite precomputed constants.
//!
//! The paper splits the reference contour-solver implementation into
//! independent per-(satellite, time) work items and compensates for the
//! lost shared partial computations "by precalculating the reusable parts
//! independently once and then storing them in the global graphics memory"
//! (§IV-B). [`PropagationConstants`] is exactly that per-satellite record —
//! the "Kepler solver data" `a_k` of the memory model in §V-B — and
//! [`BatchPropagator`] is the data-parallel propagation step that consumes
//! it: one logical thread per (satellite, time) tuple (§V-E). Every path —
//! batch, subset, refinement, the legacy baseline and the GPU execution
//! simulator — evaluates a position through the one formula,
//! [`PropagationConstants::position`].

use crate::elements::KeplerElements;
use crate::kepler::{ContourSolver, KeplerSolver};
use crate::state::CartesianState;
use kessler_math::angles::wrap_tau;
use kessler_math::{Mat3, Vec3};
use rayon::prelude::*;

/// Satellites per parallel work item of [`BatchPropagator`]'s loop.
const CHUNK: usize = 1024;

/// Precomputed, time-independent propagation data for one satellite.
///
/// Eleven `f64` values (88 bytes) per satellite; computed once at screening
/// start, reused at every sample step. [`BatchPropagator`] holds one record
/// per satellite, and the GPU execution simulator uploads the same records.
#[derive(Debug, Clone, Copy)]
pub struct PropagationConstants {
    /// Semi-major axis (km).
    pub a: f64,
    /// Eccentricity.
    pub e: f64,
    /// Mean anomaly at epoch (rad).
    pub m0: f64,
    /// Mean motion (rad/s).
    pub n: f64,
    /// `√(1−e²)`, reused in position and velocity evaluation.
    pub sqrt_one_minus_e2: f64,
    /// First two columns of the perifocal → ECI rotation (the third is
    /// never needed: perifocal vectors have z = 0).
    pub p_axis: Vec3,
    pub q_axis: Vec3,
}

impl PropagationConstants {
    /// Precompute from validated elements.
    pub fn from_elements(el: &KeplerElements) -> PropagationConstants {
        let rot = perifocal_to_eci(el.raan, el.inclination, el.arg_perigee);
        PropagationConstants {
            a: el.semi_major_axis,
            e: el.eccentricity,
            m0: el.mean_anomaly,
            n: el.mean_motion(),
            sqrt_one_minus_e2: (1.0 - el.eccentricity * el.eccentricity).sqrt(),
            p_axis: rot.col(0),
            q_axis: rot.col(1),
        }
    }

    /// Mean anomaly at `dt` seconds past epoch.
    #[inline]
    pub fn mean_anomaly_at(&self, dt: f64) -> f64 {
        wrap_tau(self.m0 + self.n * dt)
    }

    /// Propagate to `dt` seconds past epoch using `solver`.
    #[inline]
    pub fn propagate(&self, dt: f64, solver: &ContourSolver) -> CartesianState {
        let m = self.mean_anomaly_at(dt);
        let ecc_anom = solver.ecc_anomaly(m, self.e);
        self.state_at_ecc_anomaly(ecc_anom)
    }

    /// Position only — the hot path of grid insertion.
    #[inline]
    pub fn position(&self, dt: f64, solver: &ContourSolver) -> Vec3 {
        let m = self.mean_anomaly_at(dt);
        let ecc_anom = solver.ecc_anomaly(m, self.e);
        let (s, c) = ecc_anom.sin_cos();
        let (xp, yp) = self.perifocal_position(s, c);
        self.p_axis * xp + self.q_axis * yp
    }

    /// Perifocal position `(a·(cos E − e), a·√(1−e²)·sin E)` from
    /// `sin E` and `cos E`.
    #[inline]
    fn perifocal_position(&self, s: f64, c: f64) -> (f64, f64) {
        (self.a * (c - self.e), self.a * self.sqrt_one_minus_e2 * s)
    }

    /// Cartesian state from a solved eccentric anomaly.
    #[inline]
    pub fn state_at_ecc_anomaly(&self, ecc_anom: f64) -> CartesianState {
        let (s, c) = ecc_anom.sin_cos();
        let (xp, yp) = self.perifocal_position(s, c);
        // Perifocal velocity: ẋ = −(n a² / r)·sin E, ẏ = (n a² / r)·√(1−e²)·cos E.
        let r = self.a * (1.0 - self.e * c);
        let k = self.n * self.a * self.a / r;
        let vxp = -k * s;
        let vyp = k * self.sqrt_one_minus_e2 * c;
        CartesianState {
            position: self.p_axis * xp + self.q_axis * yp,
            velocity: self.p_axis * vxp + self.q_axis * vyp,
        }
    }
}

/// Rotation from the perifocal (PQW) frame into the geocentric equatorial
/// frame: `R = R_z(Ω) · R_x(i) · R_z(ω)`.
pub fn perifocal_to_eci(raan: f64, inclination: f64, arg_perigee: f64) -> Mat3 {
    Mat3::rot_z(raan) * Mat3::rot_x(inclination) * Mat3::rot_z(arg_perigee)
}

/// Borrowed view over the per-satellite records: what the propagation
/// kernels, the refinement stage and the legacy baseline read, whether the
/// records sit in host memory or in a simulated device buffer.
#[derive(Debug, Clone, Copy)]
pub struct ConstantsView<'a> {
    records: &'a [PropagationConstants],
}

impl<'a> ConstantsView<'a> {
    pub fn new(records: &'a [PropagationConstants]) -> ConstantsView<'a> {
        ConstantsView { records }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Satellite `i`'s constants, for the scalar refinement paths.
    #[inline]
    pub fn gather(&self, i: usize) -> PropagationConstants {
        self.records[i]
    }

    /// Position of satellite `i` at `dt` — the per-thread kernel body of
    /// every propagation path.
    #[inline]
    pub fn position(&self, i: usize, dt: f64, solver: &ContourSolver) -> Vec3 {
        self.records[i].position(dt, solver)
    }
}

/// Data-parallel propagation of a whole population, one logical thread per
/// (satellite, time) tuple — the paper's preferred data-parallelism shape
/// (§V-E). This is the CPU realisation; the GPU execution simulator runs
/// the same kernel body through its launch API.
pub struct BatchPropagator {
    records: Vec<PropagationConstants>,
    solver: ContourSolver,
}

impl BatchPropagator {
    /// Precompute constants for every satellite (the `a_k` allocation).
    pub fn new(elements: &[KeplerElements]) -> BatchPropagator {
        BatchPropagator {
            records: elements
                .iter()
                .map(PropagationConstants::from_elements)
                .collect(),
            solver: ContourSolver::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The per-satellite records the kernels read.
    pub fn columns(&self) -> ConstantsView<'_> {
        ConstantsView::new(&self.records)
    }

    /// Approximate resident size of the precomputed data in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.records.as_slice())
    }

    /// Positions of all satellites at `dt`, written into `out` (parallel).
    pub fn positions_into(&self, dt: f64, out: &mut [Vec3]) {
        assert_eq!(out.len(), self.len());
        self.write_positions(|k| k, dt, out);
    }

    /// Positions of the satellites `indices` names at `dt`, in that order,
    /// written into `out` (parallel): `out[k]` is bit-identical to what
    /// [`BatchPropagator::positions_into`] writes for `indices[k]`. A
    /// subset costs its own length, not the population's.
    pub fn positions_of(&self, indices: &[u32], dt: f64, out: &mut [Vec3]) {
        assert_eq!(out.len(), indices.len());
        self.write_positions(|k| indices[k] as usize, dt, out);
    }

    /// The one propagation loop: `out[k]` is the position at `dt` of
    /// satellite `satellite(k)`, in parallel chunks of [`CHUNK`] slots.
    fn write_positions(
        &self,
        satellite: impl Fn(usize) -> usize + Sync,
        dt: f64,
        out: &mut [Vec3],
    ) {
        let cols = self.columns();
        out.par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(chunk, slots)| {
                let base = chunk * CHUNK;
                for (k, slot) in slots.iter_mut().enumerate() {
                    *slot = cols.position(satellite(base + k), dt, &self.solver);
                }
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::{MU_EARTH, R_EARTH};
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    fn elements(a: f64, e: f64, i: f64, raan: f64, argp: f64, m0: f64) -> KeplerElements {
        KeplerElements::new(a, e, i, raan, argp, m0).unwrap()
    }

    #[test]
    fn equatorial_circular_orbit_traces_a_circle() {
        let el = elements(7_000.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        let pc = PropagationConstants::from_elements(&el);
        let solver = ContourSolver::default();
        let quarter = el.period() / 4.0;

        let p0 = pc.position(0.0, &solver);
        assert!(p0.dist(Vec3::new(7_000.0, 0.0, 0.0)) < 1e-6);

        let p1 = pc.position(quarter, &solver);
        assert!(p1.dist(Vec3::new(0.0, 7_000.0, 0.0)) < 1e-3, "p1 = {p1:?}");

        let p2 = pc.position(2.0 * quarter, &solver);
        assert!(p2.dist(Vec3::new(-7_000.0, 0.0, 0.0)) < 1e-3);
    }

    #[test]
    fn polar_orbit_reaches_poles() {
        let el = elements(7_000.0, 0.0, FRAC_PI_2, 0.0, 0.0, 0.0);
        let pc = PropagationConstants::from_elements(&el);
        let solver = ContourSolver::default();
        let quarter = el.period() / 4.0;
        let p = pc.position(quarter, &solver);
        // Starting on the +X axis, after a quarter period an i=90° orbit
        // (Ω=0) is over the +Z pole.
        assert!(p.dist(Vec3::new(0.0, 0.0, 7_000.0)) < 1e-3, "p = {p:?}");
    }

    #[test]
    fn eccentric_orbit_hits_perigee_and_apogee() {
        let el = elements(10_000.0, 0.3, 0.4, 1.1, 0.7, 0.0);
        let pc = PropagationConstants::from_elements(&el);
        let solver = ContourSolver::default();
        // M₀ = 0 → at epoch the satellite is at perigee.
        let r0 = pc.position(0.0, &solver).norm();
        assert!((r0 - el.perigee_radius()).abs() < 1e-6, "r0 = {r0}");
        // Half a period later it is at apogee.
        let r_half = pc.position(el.period() / 2.0, &solver).norm();
        assert!((r_half - el.apogee_radius()).abs() < 1e-6, "r = {r_half}");
    }

    #[test]
    fn velocity_matches_finite_difference() {
        let el = elements(8_000.0, 0.2, 1.0, 0.5, 2.5, 1.2);
        let pc = PropagationConstants::from_elements(&el);
        let solver = ContourSolver::default();
        let t = 500.0;
        let h = 1e-3;
        let s = pc.propagate(t, &solver);
        let p_plus = pc.position(t + h, &solver);
        let p_minus = pc.position(t - h, &solver);
        let fd = (p_plus - p_minus) / (2.0 * h);
        assert!(
            s.velocity.dist(fd) < 1e-6 * s.velocity.norm().max(1.0),
            "v = {:?}, fd = {:?}",
            s.velocity,
            fd
        );
    }

    #[test]
    fn energy_and_angular_momentum_are_conserved() {
        let el = elements(12_000.0, 0.45, 0.8, 2.0, 4.0, 0.3);
        let pc = PropagationConstants::from_elements(&el);
        let solver = ContourSolver::default();
        let expected_energy = -MU_EARTH / (2.0 * el.semi_major_axis);
        let h0 = pc.propagate(0.0, &solver).angular_momentum();
        for k in 0..20 {
            let t = k as f64 * el.period() / 7.0;
            let s = pc.propagate(t, &solver);
            assert!(
                (s.specific_energy(MU_EARTH) - expected_energy).abs()
                    < 1e-8 * expected_energy.abs(),
                "energy drift at t = {t}"
            );
            assert!(
                s.angular_momentum().dist(h0) < 1e-7 * h0.norm(),
                "h drift at t = {t}"
            );
        }
    }

    #[test]
    fn propagation_is_periodic() {
        let el = elements(7_500.0, 0.1, 1.3, 0.2, 5.0, 2.2);
        let pc = PropagationConstants::from_elements(&el);
        let solver = ContourSolver::default();
        let p0 = pc.position(123.0, &solver);
        let p1 = pc.position(123.0 + el.period(), &solver);
        assert!(p0.dist(p1) < 1e-5, "Δ = {}", p0.dist(p1));
    }

    #[test]
    fn batch_matches_scalar_propagation() {
        // 37 satellites: a population that is not a multiple of anything.
        let els: Vec<KeplerElements> = (0..37)
            .map(|i| {
                elements(
                    6_800.0 + 50.0 * i as f64,
                    0.001 * i as f64,
                    0.1 * i as f64 % PI,
                    0.3 * i as f64 % TAU,
                    0.7 * i as f64 % TAU,
                    0.9 * i as f64 % TAU,
                )
            })
            .collect();
        let batch = BatchPropagator::new(&els);
        let solver = ContourSolver::default();
        let t = 777.0;
        // The batch loop runs the scalar kernel, so batch output is
        // bit-identical to the per-satellite path — the property the
        // service's delta-vs-cold equality guarantee rests on.
        let mut positions = vec![Vec3::ZERO; els.len()];
        batch.positions_into(t, &mut positions);
        for (i, el) in els.iter().enumerate() {
            let pc = PropagationConstants::from_elements(el);
            let scalar_p = pc.position(t, &solver);
            assert_eq!(positions[i].x.to_bits(), scalar_p.x.to_bits(), "sat {i}");
            assert_eq!(positions[i].y.to_bits(), scalar_p.y.to_bits(), "sat {i}");
            assert_eq!(positions[i].z.to_bits(), scalar_p.z.to_bits(), "sat {i}");
        }
    }

    #[test]
    fn positions_of_equals_positions_into_to_the_bit() {
        // 2 · CHUNK + 37 satellites: two full chunks and a remainder, n
        // not a multiple of CHUNK.
        let n = 2 * CHUNK + 37;
        let els: Vec<KeplerElements> = (0..n)
            .map(|i| {
                let i = i as f64;
                elements(
                    6_700.0 + 13.0 * i % 30_000.0,
                    0.0007 * i % 0.75,
                    0.31 * i % PI,
                    0.53 * i % TAU,
                    0.71 * i % TAU,
                    0.97 * i % TAU,
                )
            })
            .collect();
        let batch = BatchPropagator::new(&els);
        let n = n as u32;
        let everyone: Vec<u32> = (0..n).collect();
        let unsorted: Vec<u32> = (0..n).map(|i| (i * 977 + 5) % n).collect();
        let lists: [Vec<u32>; 6] = [
            Vec::new(),
            vec![n - 1],
            vec![3, 3, 0, 3, n - 1, 0],
            unsorted.clone(),
            // Longer than the population: every index twice.
            [everyone.clone(), unsorted].concat(),
            // One full chunk and a remainder of the tail.
            (n - CHUNK as u32 - 37..n).collect(),
        ];
        for dt in [0.0, 777.25, -3_600.5] {
            let mut all = vec![Vec3::ZERO; everyone.len()];
            batch.positions_into(dt, &mut all);
            for list in &lists {
                let mut out = vec![Vec3::ZERO; list.len()];
                batch.positions_of(list, dt, &mut out);
                for (&i, got) in list.iter().zip(&out) {
                    let want = all[i as usize];
                    assert_eq!(got.x.to_bits(), want.x.to_bits(), "sat {i} at {dt}");
                    assert_eq!(got.y.to_bits(), want.y.to_bits(), "sat {i} at {dt}");
                    assert_eq!(got.z.to_bits(), want.z.to_bits(), "sat {i} at {dt}");
                }
            }
        }
    }

    #[test]
    fn gathered_records_equal_from_elements_to_the_bit() {
        let els: Vec<KeplerElements> = (0..5)
            .map(|i| elements(7_000.0 + i as f64, 0.01 * i as f64, 0.5, 1.0, 2.0, 3.0))
            .collect();
        let batch = BatchPropagator::new(&els);
        for (i, el) in els.iter().enumerate() {
            let direct = PropagationConstants::from_elements(el);
            let gathered = batch.columns().gather(i);
            assert_eq!(direct.a.to_bits(), gathered.a.to_bits());
            assert_eq!(direct.e.to_bits(), gathered.e.to_bits());
            assert_eq!(direct.m0.to_bits(), gathered.m0.to_bits());
            assert_eq!(direct.n.to_bits(), gathered.n.to_bits());
            assert_eq!(
                direct.sqrt_one_minus_e2.to_bits(),
                gathered.sqrt_one_minus_e2.to_bits()
            );
            assert_eq!(direct.p_axis.x.to_bits(), gathered.p_axis.x.to_bits());
            assert_eq!(direct.q_axis.z.to_bits(), gathered.q_axis.z.to_bits());
        }
    }

    #[test]
    fn memory_accounting_is_linear() {
        let els: Vec<KeplerElements> = (0..10)
            .map(|_| elements(7e3, 0.0, 0.0, 0.0, 0.0, 0.0))
            .collect();
        let batch = BatchPropagator::new(&els);
        assert_eq!(batch.len(), 10);
        assert_eq!(
            batch.memory_bytes(),
            10 * std::mem::size_of::<PropagationConstants>()
        );
        assert_eq!(batch.memory_bytes(), 880);
    }

    proptest! {
        /// Orbit radius must always lie between perigee and apogee, and the
        /// position must stay above Earth's surface for sane populations.
        #[test]
        fn radius_stays_within_apsides(
            a in 6_800.0..42_000.0f64,
            e in 0.0..0.7f64,
            i in 0.0..PI,
            raan in 0.0..TAU,
            argp in 0.0..TAU,
            m0 in 0.0..TAU,
            t in 0.0..86_400.0f64,
        ) {
            prop_assume!(a * (1.0 - e) > R_EARTH + 100.0);
            let el = elements(a, e, i, raan, argp, m0);
            let pc = PropagationConstants::from_elements(&el);
            let r = pc.position(t, &ContourSolver::default()).norm();
            prop_assert!(r >= el.perigee_radius() - 1e-6);
            prop_assert!(r <= el.apogee_radius() + 1e-6);
        }

        /// Vis-viva: v² = μ(2/r − 1/a) at every propagated state.
        #[test]
        fn vis_viva_holds(
            a in 6_800.0..42_000.0f64,
            e in 0.0..0.7f64,
            m0 in 0.0..TAU,
            t in 0.0..20_000.0f64,
        ) {
            let el = elements(a, e, 0.6, 1.0, 2.0, m0);
            let pc = PropagationConstants::from_elements(&el);
            let s = pc.propagate(t, &ContourSolver::default());
            let r = s.position.norm();
            let expect = MU_EARTH * (2.0 / r - 1.0 / a);
            prop_assert!((s.velocity.norm_sq() - expect).abs() < 1e-7 * expect.abs());
        }
    }
}
