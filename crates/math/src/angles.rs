//! Angle wrapping and conversion helpers.
//!
//! Orbital-element arithmetic constantly normalises anomalies and nodes into
//! canonical ranges; getting the branch cuts right in one audited place
//! avoids subtle off-by-2π bugs in the filters.

use std::f64::consts::{PI, TAU};

/// Wrap an angle into `[0, 2π)`.
#[inline]
pub fn wrap_tau(angle: f64) -> f64 {
    let r = angle.rem_euclid(TAU);
    // rem_euclid can return TAU itself when `angle` is a tiny negative
    // number whose remainder rounds up; fold that back to 0.
    if r >= TAU {
        0.0
    } else {
        r
    }
}

/// Wrap an angle into `(−π, π]`.
#[inline]
pub fn wrap_pi(angle: f64) -> f64 {
    let r = wrap_tau(angle);
    if r > PI {
        r - TAU
    } else {
        r
    }
}

/// Smallest absolute angular separation between two angles, in `[0, π]`.
#[inline]
pub fn separation(a: f64, b: f64) -> f64 {
    wrap_pi(a - b).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wrap_tau_basic_cases() {
        assert_eq!(wrap_tau(0.0), 0.0);
        assert!((wrap_tau(TAU + 1.0) - 1.0).abs() < 1e-15);
        assert!((wrap_tau(-0.5) - (TAU - 0.5)).abs() < 1e-15);
        assert_eq!(wrap_tau(TAU), 0.0);
    }

    #[test]
    fn wrap_pi_basic_cases() {
        assert_eq!(wrap_pi(0.0), 0.0);
        assert!((wrap_pi(PI + 0.1) - (-PI + 0.1)).abs() < 1e-12);
        assert!((wrap_pi(-PI - 0.1) - (PI - 0.1)).abs() < 1e-12);
        assert_eq!(wrap_pi(PI), PI);
    }

    #[test]
    fn wrap_tau_handles_tiny_negative() {
        let r = wrap_tau(-1e-300);
        assert!((0.0..TAU).contains(&r), "r = {r}");
    }

    #[test]
    fn separation_across_wraparound() {
        assert!((separation(0.1, TAU - 0.1) - 0.2).abs() < 1e-12);
        assert!((separation(PI - 0.05, -PI + 0.05) - 0.1).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn wrap_tau_is_in_range(a in -1e9..1e9f64) {
            let r = wrap_tau(a);
            prop_assert!((0.0..TAU).contains(&r), "r = {}", r);
        }

        #[test]
        fn wrap_pi_is_in_range(a in -1e9..1e9f64) {
            let r = wrap_pi(a);
            prop_assert!(r > -PI - 1e-12 && r <= PI + 1e-12);
        }

        #[test]
        fn wrap_preserves_angle_mod_tau(a in -1e6..1e6f64) {
            // sin/cos are invariant under wrapping. Tolerance accounts for
            // the catastrophic cancellation inherent in large reductions.
            prop_assert!((wrap_tau(a).sin() - a.sin()).abs() < 1e-6);
            prop_assert!((wrap_tau(a).cos() - a.cos()).abs() < 1e-6);
        }

        #[test]
        fn separation_is_symmetric_and_bounded(a in -100.0..100.0f64, b in -100.0..100.0f64) {
            prop_assert!((separation(a, b) - separation(b, a)).abs() < 1e-12);
            prop_assert!(separation(a, b) <= PI + 1e-12);
        }
    }
}
