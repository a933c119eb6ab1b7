//! Coplanarity check.
//!
//! The node-based filters (orbit path, time filter) need a well-defined
//! mutual node line, which degenerates as the two orbital planes align.
//! The hybrid variant therefore classifies each surviving pair as coplanar
//! or non-coplanar first — the paper times this step separately (9 % of
//! hybrid GPU runtime, §V-C.1) — and routes coplanar pairs to the
//! grid-style sampled search instead.

use kessler_orbits::geometry::{relative_inclination, OrbitFrame};

/// Default angular tolerance below which two planes are treated as
/// coplanar (radians). With relative inclination i_R, the out-of-plane
/// separation scales as `r·sin(i_R)`; below ~0.5° the node geometry is too
/// ill-conditioned for window construction at LEO radii.
pub const DEFAULT_COPLANAR_TOLERANCE: f64 = 0.01;

/// `true` if the two orbital planes are within `tolerance` radians of each
/// other (including the retrograde-aligned case).
#[inline]
pub fn are_coplanar(a: &OrbitFrame, b: &OrbitFrame, tolerance: f64) -> bool {
    relative_inclination(a, b) < tolerance
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    use kessler_orbits::KeplerElements;

    fn el(i: f64, raan: f64) -> OrbitFrame {
        OrbitFrame::new(&KeplerElements::new(7_000.0, 0.01, i, raan, 0.5, 0.0).unwrap())
    }

    #[test]
    fn same_plane_is_coplanar() {
        assert!(are_coplanar(
            &el(0.9, 1.0),
            &el(0.9, 1.0),
            DEFAULT_COPLANAR_TOLERANCE
        ));
    }

    #[test]
    fn slightly_tilted_planes_are_coplanar_within_tolerance() {
        assert!(are_coplanar(
            &el(0.900, 1.0),
            &el(0.905, 1.0),
            DEFAULT_COPLANAR_TOLERANCE
        ));
    }

    #[test]
    fn perpendicular_planes_are_not_coplanar() {
        assert!(!are_coplanar(
            &el(0.0, 0.0),
            &el(FRAC_PI_2, 0.0),
            DEFAULT_COPLANAR_TOLERANCE
        ));
    }

    #[test]
    fn retrograde_same_plane_is_coplanar() {
        // i = 0 and i = π describe the same plane with opposite traversal.
        assert!(are_coplanar(
            &el(0.0, 0.0),
            &el(PI, 0.0),
            DEFAULT_COPLANAR_TOLERANCE
        ));
    }

    #[test]
    fn equal_inclination_different_node_is_not_coplanar() {
        // Two 53°-inclined planes with nodes 90° apart (Starlink-style
        // shells) intersect at a large relative inclination.
        let a = el(0.925, 0.0);
        let b = el(0.925, FRAC_PI_2);
        assert!(!are_coplanar(&a, &b, DEFAULT_COPLANAR_TOLERANCE));
    }

    proptest! {
        #[test]
        fn coplanarity_is_symmetric(
            i1 in 0.0..PI, i2 in 0.0..PI,
            r1 in 0.0..TAU, r2 in 0.0..TAU,
            tol in 0.001..0.2f64,
        ) {
            let a = el(i1, r1);
            let b = el(i2, r2);
            prop_assert_eq!(are_coplanar(&a, &b, tol), are_coplanar(&b, &a, tol));
        }

        #[test]
        fn coplanar_pairs_have_no_mutual_node_or_tiny_angle(
            i in 0.0..PI, raan in 0.0..TAU,
        ) {
            let a = el(i, raan);
            // Perturb the plane by less than the tolerance.
            let b = el((i + 0.001).min(PI), raan);
            prop_assert!(are_coplanar(&a, &b, DEFAULT_COPLANAR_TOLERANCE));
        }
    }
}
