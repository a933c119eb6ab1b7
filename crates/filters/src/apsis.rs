//! Apogee/perigee filter (Hoots, Crawford & Roehrich 1984, filter 1).
//!
//! "The apogee/perigee filter takes the farthest (apogee) and nearest point
//! (perigee) of an orbit and compares the range between with the respective
//! range of all other objects, excluding those as potential collision pairs
//! that do not overlap" (§II). Two satellites can only come within `d` of
//! each other if their radial shells `[perigee, apogee]`, padded by `d`,
//! intersect.

use kessler_orbits::KeplerElements;

/// Returns `true` if the pair **can** produce a conjunction within
/// `threshold` km (i.e. the filter keeps the pair), `false` if it is
/// excluded.
#[inline]
pub fn apsis_filter(a: &KeplerElements, b: &KeplerElements, threshold: f64) -> bool {
    let gap = shell_gap(a, b);
    gap <= threshold
}

/// Radial gap between the two orbits' shells in km (0 if they overlap).
///
/// The gap is a *lower bound* on the distance between any two points of
/// the orbits, which is what makes the exclusion sound.
#[inline]
pub fn shell_gap(a: &KeplerElements, b: &KeplerElements) -> f64 {
    let lo = a.perigee_radius().max(b.perigee_radius());
    let hi = a.apogee_radius().min(b.apogee_radius());
    (lo - hi).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kessler_math::Vec3;
    use kessler_orbits::geometry::OrbitFrame;
    use proptest::prelude::*;
    use std::f64::consts::TAU;

    fn el(a: f64, e: f64) -> KeplerElements {
        KeplerElements::new(a, e, 0.5, 1.0, 2.0, 0.0).unwrap()
    }

    #[test]
    fn disjoint_shells_are_excluded() {
        // LEO at ~7000 km vs GEO at ~42164 km: shells are tens of
        // thousands of km apart.
        let leo = el(7_000.0, 0.001);
        let geo = el(42_164.0, 0.0);
        assert!(!apsis_filter(&leo, &geo, 2.0));
        assert!(shell_gap(&leo, &geo) > 30_000.0);
    }

    #[test]
    fn overlapping_shells_are_kept() {
        let a = el(7_000.0, 0.01);
        let b = el(7_050.0, 0.01); // shells overlap through eccentricity
        assert!(shell_gap(&a, &b) < 2.0 || apsis_filter(&a, &b, 100.0));
        // Identical orbits always overlap.
        assert!(apsis_filter(&a, &a, 0.0));
    }

    #[test]
    fn threshold_padding_is_respected() {
        // Circular orbits 10 km apart radially: excluded at d = 2 km,
        // kept at d = 20 km.
        let a = el(7_000.0, 0.0);
        let b = el(7_010.0, 0.0);
        assert!(!apsis_filter(&a, &b, 2.0));
        assert!(apsis_filter(&a, &b, 20.0));
        assert!((shell_gap(&a, &b) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn eccentric_orbit_can_bridge_shells() {
        // A Molniya-like orbit spans LEO to beyond GEO and overlaps both.
        let molniya = el(26_600.0, 0.74);
        let leo = el(7_000.0, 0.0);
        let geo = el(42_164.0, 0.0);
        assert!(apsis_filter(&molniya, &leo, 2.0));
        assert!(apsis_filter(&molniya, &geo, 2.0));
    }

    proptest! {
        /// Soundness: if the filter excludes a pair at threshold d, then no
        /// two points on the two orbits are within d of each other. We test
        /// the contrapositive by sampling points on both orbits.
        #[test]
        fn excluded_pairs_really_cannot_meet(
            a1 in 6_700.0..40_000.0f64, e1 in 0.0..0.5f64,
            a2 in 6_700.0..40_000.0f64, e2 in 0.0..0.5f64,
            i1 in 0.0..3.0f64, i2 in 0.0..3.0f64,
            d in 0.1..100.0f64,
        ) {
            let o1 = KeplerElements::new(a1, e1, i1, 0.3, 1.0, 0.0).unwrap();
            let o2 = KeplerElements::new(a2, e2, i2, 2.0, 0.5, 0.0).unwrap();
            if !apsis_filter(&o1, &o2, d) {
                let (f1, f2) = (OrbitFrame::new(&o1), OrbitFrame::new(&o2));
                let mut min_dist = f64::INFINITY;
                for k in 0..24 {
                    let p1: Vec3 = f1.position(k as f64 * TAU / 24.0);
                    for l in 0..24 {
                        let p2 = f2.position(l as f64 * TAU / 24.0);
                        min_dist = min_dist.min(p1.dist(p2));
                    }
                }
                prop_assert!(min_dist > d, "excluded pair has points {} km apart", min_dist);
            }
        }

        #[test]
        fn shell_gap_is_symmetric(
            a1 in 6_700.0..40_000.0f64, e1 in 0.0..0.9f64,
            a2 in 6_700.0..40_000.0f64, e2 in 0.0..0.9f64,
        ) {
            let o1 = el(a1, e1);
            let o2 = el(a2, e2);
            prop_assert_eq!(shell_gap(&o1, &o2), shell_gap(&o2, &o1));
        }
    }
}
