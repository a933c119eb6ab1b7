//! Time filter (Hoots, Crawford & Roehrich 1984, filter 3; §II).
//!
//! "By calculating the true anomaly window around the intersection line of
//! the two orbits, it is possible to apply a time filter that takes the
//! actual position of the two objects into account. It excludes all object
//! pairs that are not in these windows simultaneously."
//!
//! Geometry: satellite 1's distance from satellite 2's orbital *plane* is
//! `|r₁·sin(i_R)·sin(u₁)|`, where `i_R` is the relative inclination and
//! `u₁` the in-plane angle measured from the mutual node. The satellite can
//! only be within `d` of anything in plane 2 while
//! `|sin(u₁)| ≤ d / (r₁·sin i_R)`. That bounds a true-anomaly window around
//! each node crossing, which maps monotonically to a *time* window modulo
//! the orbital period. A conjunction requires both satellites inside their
//! windows **at the same node simultaneously**; the intersections of the
//! unrolled window sets are the Brent search intervals of the hybrid
//! variant.

use kessler_math::interval::{intersect_sets, merge_intervals, Interval};
use kessler_orbits::anomaly::true_to_mean;
use kessler_orbits::geometry::{mutual_node, relative_inclination, OrbitFrame};
use kessler_orbits::KeplerElements;

/// A pair of per-node time-window sets for one satellite.
#[derive(Debug, Clone)]
pub struct NodeWindows {
    /// Windows (seconds past epoch) around the +node crossing.
    pub plus: Vec<Interval>,
    /// Windows around the −node crossing.
    pub minus: Vec<Interval>,
}

/// Compute the true-anomaly half-width of the node window.
///
/// The bound `d/(r·sin i_R)` is largest where the radius is smallest, so
/// the radius is taken at *perigee*: the window can only be wider than
/// necessary, never narrower. Returns `None` when the bound reaches 1,
/// meaning the whole orbit stays within `d` of the plane and no exclusion
/// is possible.
pub fn anomaly_half_width(
    el: &KeplerElements,
    rel_inclination: f64,
    threshold: f64,
) -> Option<f64> {
    let sin_ir = rel_inclination.sin();
    if sin_ir <= 0.0 {
        return None;
    }
    let ratio = threshold / (el.perigee_radius() * sin_ir);
    if ratio >= 1.0 {
        return None;
    }
    Some(ratio.asin())
}

/// Time (seconds past epoch, in `[0, T)`) at which the satellite passes
/// true anomaly `f`.
pub fn time_of_true_anomaly(el: &KeplerElements, f: f64) -> f64 {
    let m = true_to_mean(f, el.eccentricity);
    let dm = kessler_math::angles::wrap_tau(m - el.mean_anomaly);
    dm / el.mean_motion()
}

/// Node-crossing time windows for one satellite that crosses the mutual
/// node at true anomaly `f_plus` (and the opposite node at `f_plus + π`),
/// unrolled over `span` (seconds past epoch).
///
/// `half_width` is the true-anomaly half-width from [`anomaly_half_width`];
/// `None` (no exclusion possible) yields a single window covering the whole
/// span for both nodes.
pub fn node_windows(
    el: &KeplerElements,
    f_plus: f64,
    half_width: Option<f64>,
    span: Interval,
) -> NodeWindows {
    let Some(hw) = half_width else {
        return NodeWindows {
            plus: vec![span],
            minus: vec![span],
        };
    };
    let period = el.period();
    let window_for = |f_node: f64| -> Vec<Interval> {
        // Map the anomaly window edges to times. t(f) is monotone in f, so
        // the window [f−hw, f+hw] maps to [t(f−hw), t(f+hw)] modulo T.
        let t_lo = time_of_true_anomaly(el, f_node - hw);
        let t_hi = time_of_true_anomaly(el, f_node + hw);
        // The window may straddle the period boundary (t_hi < t_lo after
        // wrapping); represent it as [t_lo, t_hi + T] in that case.
        let base = if t_hi >= t_lo {
            Interval::new(t_lo, t_hi)
        } else {
            Interval::new(t_lo, t_hi + period)
        };
        merge_intervals(base.unroll_periodic(period, &span), 1e-9)
    };
    NodeWindows {
        plus: window_for(f_plus),
        minus: window_for(f_plus + std::f64::consts::PI),
    }
}

/// Full time filter for a non-coplanar pair, each satellite given with
/// its [`OrbitFrame`].
///
/// Returns the time intervals (within `span`, seconds past the common
/// epoch) during which both satellites are simultaneously inside their
/// windows at the same node — the candidate close-approach intervals.
/// An empty result means the pair is excluded.
///
/// Returns `None` if the pair is coplanar (no mutual node); the caller
/// must use the sampled search instead.
pub fn time_filter(
    a: &KeplerElements,
    fa: &OrbitFrame,
    b: &KeplerElements,
    fb: &OrbitFrame,
    threshold: f64,
    span: Interval,
) -> Option<Vec<Interval>> {
    let node = mutual_node(fa, fb)?;
    let rel_inc = relative_inclination(fa, fb);
    let hw_a = anomaly_half_width(a, rel_inc, threshold);
    let hw_b = anomaly_half_width(b, rel_inc, threshold);
    let wa = node_windows(a, fa.true_anomaly_of(node), hw_a, span);
    let wb = node_windows(b, fb.true_anomaly_of(node), hw_b, span);

    // Same-node coincidences only: (+,+) and (−,−). A satellite at the
    // +node and the other at the −node are on opposite sides of Earth.
    let mut out = intersect_sets(&wa.plus, &wb.plus);
    out.extend(intersect_sets(&wa.minus, &wb.minus));
    Some(merge_intervals(out, 1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kessler_orbits::propagator::PropagationConstants;
    use kessler_orbits::{ContourSolver, KeplerSolver};
    use proptest::prelude::*;
    use std::f64::consts::TAU;

    fn el(a: f64, e: f64, i: f64, raan: f64, argp: f64, m0: f64) -> KeplerElements {
        KeplerElements::new(a, e, i, raan, argp, m0).unwrap()
    }

    fn pair_windows(
        a: &KeplerElements,
        b: &KeplerElements,
        threshold: f64,
        span: Interval,
    ) -> Option<Vec<Interval>> {
        let (fa, fb) = (OrbitFrame::new(a), OrbitFrame::new(b));
        time_filter(a, &fa, b, &fb, threshold, span)
    }

    #[test]
    fn half_width_shrinks_with_larger_radius_and_angle() {
        let leo = el(7_000.0, 0.0, 0.9, 0.0, 0.0, 0.0);
        let hw_small = anomaly_half_width(&leo, 0.5, 2.0).unwrap();
        let hw_large_threshold = anomaly_half_width(&leo, 0.5, 50.0).unwrap();
        let hw_large_angle = anomaly_half_width(&leo, 1.5, 2.0).unwrap();
        assert!(hw_large_threshold > hw_small);
        assert!(hw_large_angle < hw_small);
    }

    #[test]
    fn half_width_is_none_for_tiny_relative_inclination() {
        let leo = el(7_000.0, 0.0, 0.9, 0.0, 0.0, 0.0);
        // sin(i_R)·r < d → whole orbit within threshold of the plane.
        assert!(anomaly_half_width(&leo, 1e-7, 2.0).is_none());
        assert!(anomaly_half_width(&leo, 0.0, 2.0).is_none());
    }

    #[test]
    fn time_of_true_anomaly_is_consistent_with_propagation() {
        let o = el(7_200.0, 0.1, 1.1, 0.4, 2.2, 1.0);
        let solver = ContourSolver::default();
        for f in [0.0, 1.0, 2.5, 4.0, 6.0] {
            let t = time_of_true_anomaly(&o, f);
            // Propagate to t and recover the true anomaly.
            let m = o.mean_anomaly_at(t);
            let ecc = solver.ecc_anomaly(m, o.eccentricity);
            let f_back = kessler_orbits::anomaly::ecc_to_true(ecc, o.eccentricity);
            assert!(
                kessler_math::angles::separation(f_back, f) < 1e-6,
                "f = {f}, f_back = {f_back}"
            );
        }
    }

    #[test]
    fn windows_cover_actual_node_crossings() {
        // Two crossing circular orbits; propagate satellite 1 and verify
        // that whenever it is near the node line, the time lies inside a
        // +node or −node window.
        let a = el(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0);
        let b = el(7_000.0, 0.0, 1.2, 1.0, 0.0, 2.0);
        let (fa, fb) = (OrbitFrame::new(&a), OrbitFrame::new(&b));
        let node = mutual_node(&fa, &fb).unwrap();
        let rel = relative_inclination(&fa, &fb);
        let span = Interval::new(0.0, 3.0 * a.period());
        let hw = anomaly_half_width(&a, rel, 50.0);
        let w = node_windows(&a, fa.true_anomaly_of(node), hw, span);

        let pc = PropagationConstants::from_elements(&a);
        let solver = ContourSolver::default();
        let mut checked = 0;
        for k in 0..3000 {
            let t = span.end * k as f64 / 3000.0;
            let p = pc.position(t, &solver);
            // Out-of-plane distance from plane b.
            let oop = p.dot(fb.normal()).abs();
            if oop < 45.0 {
                // Near plane b → must be inside one of the windows.
                let inside = w.plus.iter().chain(&w.minus).any(|iv| iv.contains(t));
                assert!(inside, "t = {t}, oop = {oop} not inside any window");
                checked += 1;
            }
        }
        assert!(checked > 10, "test never exercised the windows");
    }

    #[test]
    fn phased_satellites_on_crossing_orbits_are_excluded() {
        // Same crossing geometry, but satellite phases arranged so they
        // never reach the node at the same time: windows must not overlap
        // (with a small threshold and short span).
        let a = el(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0);
        // Same period; phase offset of half a period.
        let b = el(7_000.0, 0.0, 1.2, 1.0, 0.0, std::f64::consts::PI);
        let span = Interval::new(0.0, 2.0 * a.period());
        let windows = pair_windows(&a, &b, 2.0, span).unwrap();
        // At the node, one satellite arrives half a period after the
        // other; with a 2 km threshold the windows are seconds wide.
        assert!(
            windows.is_empty(),
            "expected exclusion, got windows {windows:?}"
        );
    }

    #[test]
    fn cosynchronised_satellites_are_kept() {
        // Both satellites reach the +node at t ≈ 0 (M₀ chosen so the node
        // anomaly is hit at epoch).
        let a = el(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0);
        let b = el(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.0);
        // Both have their ascending node at RAAN 0 → mutual node along X,
        // and both start at perigee = node for argp = 0, M₀ = 0.
        let span = Interval::new(0.0, 2.0 * a.period());
        let windows = pair_windows(&a, &b, 2.0, span).unwrap();
        assert!(!windows.is_empty(), "co-phased pair must survive");
        // The earliest window must include t = 0 (both at the node).
        assert!(windows[0].start < 5.0, "first window {:?}", windows[0]);
    }

    #[test]
    fn coplanar_pair_returns_none() {
        let a = el(7_000.0, 0.01, 0.5, 1.0, 0.0, 0.0);
        let b = el(7_400.0, 0.02, 0.5, 1.0, 2.0, 1.0);
        assert!(pair_windows(&a, &b, 2.0, Interval::new(0.0, 6_000.0)).is_none());
    }

    proptest! {
        /// Safety property: whenever the *propagated* satellites actually
        /// come within the threshold, the time filter's windows must
        /// contain that instant. (No false exclusions — the property that
        /// makes the hybrid variant's accuracy match the paper's.)
        #[test]
        fn windows_never_exclude_a_real_conjunction(
            raan2 in 0.0..TAU, m2 in 0.0..TAU, i2 in 0.3..2.8f64,
        ) {
            let a = el(7_000.0, 0.0, 0.9, 0.0, 0.0, 0.0);
            let b = el(7_003.0, 0.0, i2, raan2, 0.0, m2);
            prop_assume!(relative_inclination(&OrbitFrame::new(&a), &OrbitFrame::new(&b)) > 0.05);
            let threshold = 20.0;
            let span = Interval::new(0.0, 2.0 * a.period());
            let windows = pair_windows(&a, &b, threshold, span).unwrap();

            let pa = PropagationConstants::from_elements(&a);
            let pb = PropagationConstants::from_elements(&b);
            let solver = ContourSolver::default();
            for k in 0..2000 {
                let t = span.end * k as f64 / 2000.0;
                let d = pa.position(t, &solver).dist(pb.position(t, &solver));
                if d < threshold * 0.95 {
                    prop_assert!(
                        windows.iter().any(|iv| iv.padded(1.0).contains(t)),
                        "distance {} at t = {} outside all windows", d, t
                    );
                }
            }
        }
    }
}
