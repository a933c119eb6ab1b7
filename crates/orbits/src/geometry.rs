//! Orbit-plane geometry used by the classical filter chain.
//!
//! The orbit-path and time filters (§II) reason about *pairs of orbital
//! planes*: their relative inclination, the mutual node line where they
//! intersect, and each orbit's position along that line. An [`OrbitFrame`]
//! holds what those questions need of one orbit — its perifocal rotation,
//! semi-latus rectum and eccentricity — so a pair derives it once and then
//! evaluates positions at the cost of one `sin_cos` each.

use crate::elements::KeplerElements;
use crate::propagator::perifocal_to_eci;
use kessler_math::angles::wrap_tau;
use kessler_math::{Mat3, Vec3};

/// One orbit's shape and orientation, built once from its elements.
#[derive(Debug, Clone, Copy)]
pub struct OrbitFrame {
    rot: Mat3,
    p: f64,
    e: f64,
}

impl OrbitFrame {
    pub fn new(el: &KeplerElements) -> OrbitFrame {
        OrbitFrame {
            rot: perifocal_to_eci(el.raan, el.inclination, el.arg_perigee),
            p: el.semi_latus_rectum(),
            e: el.eccentricity,
        }
    }

    /// Unit normal of the orbital plane (direction of the angular momentum):
    /// the Z axis of the perifocal frame expressed in ECI.
    #[inline]
    pub fn normal(&self) -> Vec3 {
        self.rot.col(2)
    }

    /// Position on the orbit (ECI, km) at true anomaly `f`.
    #[inline]
    pub fn position(&self, f: f64) -> Vec3 {
        let (s, c) = f.sin_cos();
        let r = self.p / (1.0 + self.e * c);
        self.rot.col(0) * (r * c) + self.rot.col(1) * (r * s)
    }

    /// True anomaly at which the orbit crosses the (plane-projected)
    /// direction `dir`, in `[0, 2π)`.
    ///
    /// `dir` need not lie exactly in the orbital plane; it is projected onto
    /// it. The anomaly of the *opposite* crossing is the returned value + π.
    #[inline]
    pub fn true_anomaly_of(&self, dir: Vec3) -> f64 {
        // Into the perifocal frame (rotation transpose = inverse).
        let local = self.rot.transpose() * dir;
        wrap_tau(local.y.atan2(local.x))
    }
}

/// Angle between two orbital planes in `[0, π/2]`.
///
/// Planes (not oriented orbits) are identified with their normal up to
/// sign, so the relative inclination folds angles beyond 90°.
pub fn relative_inclination(a: &OrbitFrame, b: &OrbitFrame) -> f64 {
    let ang = a.normal().angle_to(b.normal());
    ang.min(std::f64::consts::PI - ang)
}

/// Mutual node line of two non-coplanar orbits: the unit vector along the
/// intersection of the two orbital planes. Returns `None` when the planes
/// are (numerically) coplanar and no unique node line exists.
pub fn mutual_node(a: &OrbitFrame, b: &OrbitFrame) -> Option<Vec3> {
    a.normal().cross(b.normal()).normalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    fn el(a: f64, e: f64, i: f64, raan: f64, argp: f64) -> OrbitFrame {
        OrbitFrame::new(&KeplerElements::new(a, e, i, raan, argp, 0.0).unwrap())
    }

    #[test]
    fn equatorial_orbit_normal_is_z() {
        let n = el(7e3, 0.0, 0.0, 0.0, 0.0).normal();
        assert!(n.dist(Vec3::Z) < 1e-12);
    }

    #[test]
    fn polar_orbit_normal_is_horizontal() {
        let n = el(7e3, 0.0, FRAC_PI_2, 0.0, 0.0).normal();
        assert!(n.z.abs() < 1e-12);
        // For Ω = 0 the ascending node is +X, so the normal is −Y… check it
        // is perpendicular to both +X and +Z.
        assert!(n.dot(Vec3::X).abs() < 1e-12);
    }

    #[test]
    fn relative_inclination_of_identical_planes_is_zero() {
        let a = el(7e3, 0.01, 0.7, 1.0, 2.0);
        let b = el(9e3, 0.2, 0.7, 1.0, 5.0); // same plane, different shape
        assert!(relative_inclination(&a, &b) < 1e-12);
    }

    #[test]
    fn relative_inclination_folds_retrograde_planes() {
        // i = 0 vs i = π is the same *plane* traversed the other way.
        let a = el(7e3, 0.0, 0.0, 0.0, 0.0);
        let b = el(7e3, 0.0, PI, 0.0, 0.0);
        assert!(relative_inclination(&a, &b) < 1e-12);
    }

    #[test]
    fn perpendicular_planes_have_right_angle() {
        let a = el(7e3, 0.0, 0.0, 0.0, 0.0);
        let b = el(7e3, 0.0, FRAC_PI_2, 0.0, 0.0);
        assert!((relative_inclination(&a, &b) - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn mutual_node_of_coplanar_orbits_is_none() {
        let a = el(7e3, 0.0, 0.3, 1.0, 0.0);
        let b = el(8e3, 0.1, 0.3, 1.0, 2.0);
        assert!(mutual_node(&a, &b).is_none());
    }

    #[test]
    fn mutual_node_lies_in_both_planes() {
        let a = el(7e3, 0.05, 0.9, 0.3, 1.0);
        let b = el(7.5e3, 0.1, 1.4, 2.0, 0.5);
        let node = mutual_node(&a, &b).unwrap();
        assert!(node.dot(a.normal()).abs() < 1e-12);
        assert!(node.dot(b.normal()).abs() < 1e-12);
    }

    #[test]
    fn anomaly_of_perigee_direction_is_zero() {
        let o = el(9e3, 0.4, 0.8, 1.2, 2.1);
        let perigee_dir = o.position(0.0).normalized().unwrap();
        let f = o.true_anomaly_of(perigee_dir);
        assert!(f.min(TAU - f) < 1e-9, "f = {f}");
    }

    #[test]
    fn position_at_true_anomaly_matches_propagated_state() {
        use crate::kepler::{ContourSolver, KeplerSolver};
        use crate::propagator::PropagationConstants;
        let o = KeplerElements::new(8_200.0, 0.25, 1.1, 0.4, 3.0, 2.0).unwrap();
        let pc = PropagationConstants::from_elements(&o);
        let solver = ContourSolver::default();
        let t = 1_234.0;
        // Propagate, then recompute from the resulting true anomaly.
        let m = o.mean_anomaly_at(t);
        let ecc_anom = solver.ecc_anomaly(m, o.eccentricity);
        let f = crate::anomaly::ecc_to_true(ecc_anom, o.eccentricity);
        let via_geometry = OrbitFrame::new(&o).position(f);
        let via_propagation = pc.position(t, &solver);
        assert!(via_geometry.dist(via_propagation) < 1e-6);
    }

    proptest! {
        #[test]
        fn orbit_normal_is_unit_and_tilted_by_inclination(
            i in 0.0..PI, raan in 0.0..TAU, argp in 0.0..TAU
        ) {
            let n = el(7e3, 0.1, i, raan, argp).normal();
            prop_assert!((n.norm() - 1.0).abs() < 1e-12);
            // The angle between the normal and +Z is the inclination.
            prop_assert!((n.angle_to(Vec3::Z) - i).abs() < 1e-9);
        }

        #[test]
        fn relative_inclination_is_symmetric_and_bounded(
            i1 in 0.0..PI, i2 in 0.0..PI, r1 in 0.0..TAU, r2 in 0.0..TAU
        ) {
            let a = el(7e3, 0.0, i1, r1, 0.0);
            let b = el(8e3, 0.1, i2, r2, 1.0);
            let ab = relative_inclination(&a, &b);
            let ba = relative_inclination(&b, &a);
            prop_assert!((ab - ba).abs() < 1e-12);
            prop_assert!((0.0..=FRAC_PI_2 + 1e-12).contains(&ab));
        }

        #[test]
        fn node_anomalies_are_antipodal(
            i1 in 0.1..3.0f64, r1 in 0.0..TAU, argp in 0.0..TAU
        ) {
            let a = el(7e3, 0.2, i1.min(PI - 1e-3), r1, argp);
            let b = el(8e3, 0.1, (i1 + 0.7).min(PI - 1e-3), wrap_tau(r1 + 1.0), 0.3);
            if let Some(node) = mutual_node(&a, &b) {
                let f_plus = a.true_anomaly_of(node);
                let f_minus = a.true_anomaly_of(-node);
                prop_assert!(
                    kessler_math::angles::separation(f_plus + PI, f_minus) < 1e-9
                );
            }
        }
    }
}
