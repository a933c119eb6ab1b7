//! Brent's method for one-dimensional bounded minimisation.
//!
//! The paper computes each candidate pair's PCA/TCA by minimising the
//! inter-satellite distance over a time interval with Boost's
//! `brent_find_minima` (§IV-C). This module is a from-scratch
//! reimplementation of the same algorithm: golden-section search combined
//! with successive parabolic interpolation, guaranteed to converge on a
//! unimodal function and never worse than golden section on a multimodal
//! one.

/// Result of a bounded minimisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrentResult {
    /// Abscissa of the located minimum.
    pub xmin: f64,
    /// Function value at `xmin`.
    pub fmin: f64,
    /// Number of function evaluations spent.
    pub evaluations: u32,
}

/// Golden ratio constant `(3 − √5)/2` used for golden-section steps.
const CGOLD: f64 = 0.381_966_011_250_105_1;

/// Minimise `f` on the closed interval `[a, b]` with Brent's method.
///
/// * `rel_tol` — relative tolerance on the abscissa; values below
///   `√ε ≈ 1.5e-8` cannot be honoured in `f64` and are clamped.
/// * `max_iter` — hard iteration cap (each iteration costs one evaluation).
///
/// Returns the best point found. If `a > b` the bounds are swapped, so the
/// caller can pass an interval in either orientation.
///
/// # Panics
/// Panics if either bound is non-finite.
pub fn brent_minimize<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    rel_tol: f64,
    max_iter: u32,
) -> BrentResult {
    assert!(
        a.is_finite() && b.is_finite(),
        "brent_minimize: non-finite bounds"
    );
    let (mut lo, mut hi) = if a <= b { (a, b) } else { (b, a) };
    // Clamp the tolerance to what f64 can resolve.
    let tol = rel_tol.max(f64::EPSILON.sqrt());

    let mut x = lo + CGOLD * (hi - lo); // current best
    let mut w = x; // second best
    let mut v = x; // previous second best
    let mut fx = f(x);
    let mut fw = fx;
    let mut fv = fx;
    let mut evaluations = 1u32;

    let mut d: f64 = 0.0; // last step
    let mut e: f64 = 0.0; // step before last

    for _ in 0..max_iter {
        let mid = 0.5 * (lo + hi);
        let tol1 = tol * x.abs() + 1e-12;
        let tol2 = 2.0 * tol1;
        if (x - mid).abs() <= tol2 - 0.5 * (hi - lo) {
            break;
        }

        let mut use_golden = true;
        if e.abs() > tol1 {
            // Try a parabolic fit through (v, fv), (w, fw), (x, fx).
            let r = (x - w) * (fx - fv);
            let mut q = (x - v) * (fx - fw);
            let mut p = (x - v) * q - (x - w) * r;
            q = 2.0 * (q - r);
            if q > 0.0 {
                p = -p;
            }
            q = q.abs();
            let e_prev = e;
            e = d;
            // Accept the parabolic step only if it falls inside the bounds
            // and represents a shrinking step size.
            if p.abs() < (0.5 * q * e_prev).abs() && p > q * (lo - x) && p < q * (hi - x) {
                d = p / q;
                let u = x + d;
                if u - lo < tol2 || hi - u < tol2 {
                    d = if mid > x { tol1 } else { -tol1 };
                }
                use_golden = false;
            }
        }
        if use_golden {
            e = if x < mid { hi - x } else { lo - x };
            d = CGOLD * e;
        }

        let u = if d.abs() >= tol1 {
            x + d
        } else if d > 0.0 {
            x + tol1
        } else {
            x - tol1
        };
        let fu = f(u);
        evaluations += 1;

        if fu <= fx {
            if u >= x {
                lo = x;
            } else {
                hi = x;
            }
            v = w;
            fv = fw;
            w = x;
            fw = fx;
            x = u;
            fx = fu;
        } else {
            if u < x {
                lo = u;
            } else {
                hi = u;
            }
            if fu <= fw || w == x {
                v = w;
                fv = fw;
                w = u;
                fw = fu;
            } else if fu <= fv || v == x || v == w {
                v = u;
                fv = fu;
            }
        }
    }

    BrentResult {
        xmin: x,
        fmin: fx,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn finds_minimum_of_parabola() {
        let r = brent_minimize(|x| (x - 2.5) * (x - 2.5) + 1.0, 0.0, 10.0, 1e-10, 100);
        assert!((r.xmin - 2.5).abs() < 1e-7, "xmin = {}", r.xmin);
        assert!((r.fmin - 1.0).abs() < 1e-12);
    }

    #[test]
    fn handles_swapped_bounds() {
        let r = brent_minimize(|x| (x + 1.0).powi(2), 5.0, -5.0, 1e-10, 100);
        assert!((r.xmin + 1.0).abs() < 1e-7);
    }

    #[test]
    fn finds_minimum_of_nontrivial_smooth_function() {
        // f(x) = sin x + x²/10 has a single minimum near x ≈ -1.3063269…
        let r = brent_minimize(|x| x.sin() + x * x / 10.0, -3.0, 3.0, 1e-12, 200);
        let expected = -1.306_440_097_557_849;
        assert!(
            (r.xmin - expected).abs() < 1e-6,
            "xmin = {}, expected ≈ {expected}",
            r.xmin
        );
    }

    #[test]
    fn minimum_at_boundary_is_reported_near_boundary() {
        // Monotonically increasing on [1, 4]: minimum sits at the left edge.
        let r = brent_minimize(|x| x, 1.0, 4.0, 1e-10, 100);
        assert!(r.xmin - 1.0 < 1e-5, "xmin = {}", r.xmin);
    }

    #[test]
    fn respects_iteration_budget() {
        let r = brent_minimize(|x| (x - 0.123).powi(2), -1e9, 1e9, 1e-15, 5);
        // Budget of 5 iterations → at most 6 evaluations (initial + 5 steps).
        assert!(r.evaluations <= 6);
    }

    #[test]
    fn distance_squared_between_two_lines_matches_analytic_tca() {
        // Two satellites moving on straight lines (a good local model of a
        // conjunction): p1(t) = (t, 0, 0), p2(t) = (0, t - 3, 0) shifted so
        // that closest approach is at a known time.
        // d²(t) = t² + (t-3)² has its minimum at t = 1.5.
        let r = brent_minimize(|t| t * t + (t - 3.0) * (t - 3.0), 0.0, 3.0, 1e-12, 100);
        assert!((r.xmin - 1.5).abs() < 1e-8);
        assert!((r.fmin - 4.5).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_bounds() {
        brent_minimize(|x| x, f64::NAN, 1.0, 1e-8, 10);
    }

    /// The case proptest once shrank `fmin_not_worse_than_start_point` to.
    #[test]
    fn fmin_not_worse_than_start_point_regression() {
        let (a, b) = (-4.632502167601093, 9.288500194632102);
        let f = |x: f64| (x * 1.3).cos() + 0.01 * x * x;
        let r = brent_minimize(f, a, b, 1e-10, 200);
        assert!(r.fmin <= f(a + CGOLD * (b - a)) + 1e-12);
    }

    proptest! {
        /// On a random parabola with the vertex inside the interval, Brent
        /// must locate the vertex to high accuracy.
        #[test]
        fn locates_parabola_vertex(center in -100.0..100.0f64,
                                   scale in 0.01..100.0f64,
                                   half_width in 1.0..50.0f64) {
            let lo = center - half_width;
            let hi = center + half_width;
            let r = brent_minimize(|x| scale * (x - center) * (x - center),
                                   lo, hi, 1e-12, 200);
            prop_assert!((r.xmin - center).abs() < 1e-5 * half_width.max(1.0),
                         "xmin {} vs center {}", r.xmin, center);
        }

        /// Brent starts from the golden-section point and only ever accepts
        /// improvements, so the reported minimum can never be worse than the
        /// function value at its own starting abscissa — even on multimodal
        /// functions where only a local minimum is guaranteed.
        #[test]
        fn fmin_not_worse_than_start_point(a in -50.0..0.0f64, b in 0.1..50.0f64) {
            let f = |x: f64| (x * 1.3).cos() + 0.01 * x * x;
            let r = brent_minimize(f, a, b, 1e-10, 200);
            let start = a + CGOLD * (b - a);
            prop_assert!(r.fmin <= f(start) + 1e-12);
        }
    }
}
