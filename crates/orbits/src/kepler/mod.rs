//! Kepler's equation `M = E − e·sin E`, solved one way.
//!
//! The paper's propagation step is dominated by this transcendental solve —
//! one per (satellite, time) tuple, millions per screening run. It is
//! solved by [`ContourSolver`], the contour-integration method of Philcox,
//! Goodman & Slepian 2021 ("Kepler's Goat Herd"), which the paper ports to
//! the GPU (§IV-B): non-iterative and branch-free in its core loop, which
//! is exactly why it maps well onto wide data-parallel hardware. The batch
//! propagator, every scalar position and our GPU execution simulator's
//! kernels all solve through it.
//!
//! The tests hold it to the residual `|E − e·sin E − M|` and to the
//! closed-form inverse `M(E)`.

mod contour;

pub use contour::ContourSolver;

/// A solver for Kepler's equation. [`ContourSolver`] is the one
/// implementation; the trait remains because the benchmark harness
/// imports it to call `ecc_anomaly`.
///
/// Implementations must accept any finite mean anomaly (it is wrapped into
/// `[0, 2π)`) and eccentricities in `[0, 1)`, and return the eccentric
/// anomaly in `[0, 2π)`.
pub trait KeplerSolver: Send + Sync {
    /// Solve `M = E − e·sin E` for `E`.
    fn ecc_anomaly(&self, mean_anomaly: f64, eccentricity: f64) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::ecc_to_mean;
    use proptest::prelude::*;
    use std::f64::consts::{PI, TAU};

    #[test]
    fn all_solvers_handle_fixed_points() {
        let s = ContourSolver::default();
        for e in [0.0, 0.2, 0.7, 0.95] {
            assert!(s.ecc_anomaly(0.0, e).abs() < 1e-12, "M=0 e={e}");
            assert!((s.ecc_anomaly(PI, e) - PI).abs() < 1e-12, "M=π e={e}");
        }
    }

    #[test]
    fn all_solvers_are_exact_for_circular_orbits() {
        let s = ContourSolver::default();
        for m in [0.1, 1.0, 3.0, 5.0] {
            assert!(
                (s.ecc_anomaly(m, 0.0) - m).abs() < 1e-14,
                "failed for circular orbit"
            );
        }
    }

    #[test]
    fn all_solvers_invert_keplers_equation_on_a_grid() {
        let s = ContourSolver::default();
        for i in 1..200 {
            let ecc_anom = i as f64 * TAU / 200.0;
            for e in [0.001, 0.01, 0.1, 0.3, 0.6, 0.9, 0.97] {
                let m = ecc_to_mean(ecc_anom, e);
                let back = s.ecc_anomaly(m, e);
                assert!(
                    kessler_math::angles::separation(back, ecc_anom) < 1e-9,
                    "E = {ecc_anom}, e = {e}, back = {back}"
                );
            }
        }
    }

    #[test]
    fn solvers_wrap_out_of_range_mean_anomaly() {
        let s = ContourSolver::default();
        let a = s.ecc_anomaly(1.0, 0.3);
        let b = s.ecc_anomaly(1.0 + TAU, 0.3);
        let c = s.ecc_anomaly(1.0 - TAU, 0.3);
        assert!((a - b).abs() < 1e-9);
        assert!((a - c).abs() < 1e-9);
    }

    proptest! {
        /// Fundamental inversion property, fuzzed across the full domain:
        /// solving M(E) must return E.
        #[test]
        fn fuzz_inversion(ecc_anom in 0.0..TAU, e in 0.0..0.98f64) {
            let m = ecc_to_mean(ecc_anom, e);
            let back = ContourSolver::default().ecc_anomaly(m, e);
            prop_assert!(
                kessler_math::angles::separation(back, ecc_anom) < 1e-8,
                "E = {}, e = {}, back = {}", ecc_anom, e, back
            );
        }

        /// The residual of the returned anomaly must be at solver tolerance.
        #[test]
        fn fuzz_residual(m in 0.0..TAU, e in 0.0..0.98f64) {
            let ecc_anom = ContourSolver::default().ecc_anomaly(m, e);
            let resid = crate::anomaly::kepler_residual(ecc_anom, e, m).abs();
            // Residual may be up to 2π off because of wrapping;
            // normalise first.
            let resid = resid.min((resid - TAU).abs());
            prop_assert!(resid < 1e-8, "M={}, e={}, resid={}", m, e, resid);
        }
    }
}
