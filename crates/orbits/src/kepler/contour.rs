//! Contour-integration solver for Kepler's equation
//! ("Kepler's Goat Herd", Philcox, Goodman & Slepian 2021).
//!
//! The paper's propagator is "a modified version of the high-performance
//! Contour Kepler solver" (§IV-B). The method exploits that the unique root
//! `E*` of Kepler's function `f(E) = E − e·sin E − M` inside a closed
//! contour `C` can be written as a ratio of contour integrals:
//!
//! ```text
//!   E* − c = ∮_C (E − c)/f(E) dE  /  ∮_C 1/f(E) dE
//! ```
//!
//! (both integrals pick up the simple pole of `1/f` at `E*` with residue
//! `1/f'(E*)`, which cancels in the ratio). Parameterising `C` as the
//! circle `E(θ) = c + r·e^{iθ}` around the centre of the bracketing
//! interval and discretising with the N-point trapezoid rule — which
//! converges *geometrically* for periodic integrands — gives
//!
//! ```text
//!   E* ≈ c + r · Σ_j e^{2iθ_j}/f(E(θ_j))  /  Σ_j e^{iθ_j}/f(E(θ_j))
//! ```
//!
//! The sum is a fixed-length, branch-free loop: no convergence test, no
//! data-dependent iteration count. That property is why the paper selected
//! it for GPU execution — every CUDA thread runs the identical instruction
//! sequence. Our [`crate::propagator::BatchPropagator`] and the GPU
//! execution simulator use it the same way.

use super::KeplerSolver;
use kessler_math::angles::wrap_tau;
use kessler_math::Complex;
use std::f64::consts::{PI, TAU};

/// Trapezoid points on the contour. Philcox et al. report double precision
/// with N = 10 for e ≤ 0.5 and N = 16 covering high eccentricities.
const POINTS: usize = 16;

/// One trapezoid node: `(e^{iθ_j}, e^{2iθ_j})`.
type Node = (Complex, Complex);

/// The contour solver. Its trapezoid nodes are computed once, when it is
/// built, instead of on every solve (2 × 16 libm sin/cos calls each) — the
/// paper's "precalculating the reusable parts independently once" (§IV-B).
/// Every propagation path, batch and scalar, solves through one of these.
#[derive(Debug, Clone, Copy)]
pub struct ContourSolver {
    nodes: [Node; POINTS],
}

impl Default for ContourSolver {
    fn default() -> Self {
        ContourSolver {
            nodes: std::array::from_fn(|j| node_at(j, POINTS)),
        }
    }
}

fn node_at(j: usize, n: usize) -> Node {
    let theta = TAU * j as f64 / n as f64;
    let eit = Complex::cis(theta);
    (eit, eit * eit)
}

/// Reduce a solve to the half-period `M ∈ [0, π]` using the symmetry
/// `E(2π − M) = 2π − E(M)`, and handle the trivial fixed points exactly.
///
/// Returns `Ok(ecc_anomaly)` if the anomaly was a fixed point, otherwise
/// `Err((m_reduced, mirrored))`, where `mirrored` indicates the result must
/// be reflected back via `2π − E`.
#[inline]
fn reduce_to_half_period(mean_anomaly: f64, e: f64) -> Result<f64, (f64, bool)> {
    let m = wrap_tau(mean_anomaly);
    if e == 0.0 {
        return Ok(m);
    }
    if m == 0.0 {
        return Ok(0.0);
    }
    if (m - PI).abs() < f64::EPSILON {
        return Ok(PI);
    }
    if m > PI {
        Err((TAU - m, true))
    } else {
        Err((m, false))
    }
}

/// Undo the reflection of [`reduce_to_half_period`].
#[inline]
fn unreduce(ecc_anomaly: f64, mirrored: bool) -> f64 {
    if mirrored {
        TAU - ecc_anomaly
    } else {
        ecc_anomaly
    }
}

/// Evaluate the discretised contour ratio for mean anomaly `m ∈ (0, π)`
/// over the trapezoid `nodes`.
#[inline]
fn contour_estimate(m: f64, e: f64, nodes: &[Node]) -> f64 {
    // Root bracket on the reduced half period: E ∈ [M, M + e], and the
    // root never exceeds π for M ≤ π because f(π) = π − M ≥ 0.
    let lo = m;
    let hi = (m + e).min(PI);
    let c = 0.5 * (lo + hi);
    // Slightly inflate the radius so the contour cannot pass through a
    // root sitting exactly on the bracket edge.
    let r = 0.5 * (hi - lo) * (1.0 + 1e-9) + 1e-12;

    let mut num = Complex::ZERO;
    let mut den = Complex::ZERO;
    for &(eit, eit2) in nodes {
        let ecc_anom = Complex::real(c) + eit * r;
        // f(E) = E − e·sin(E) − M evaluated on the contour.
        let f = ecc_anom - ecc_anom.sin() * e - Complex::real(m);
        let inv = Complex::ONE / f;
        den = den + eit * inv;
        num = num + eit2 * inv;
    }
    // For real-coefficient f and a contour symmetric about the real
    // axis, the imaginary parts cancel; take the real part of the ratio.
    c + r * (num / den).re
}

/// A short Danby-style polishing loop after the contour evaluation. One
/// plain Newton step is enough for e ≲ 0.9, but near-parabolic orbits close
/// to perigee (e → 1, M → 0) leave the contour estimate a few 1e-8 off and
/// f' ≈ 1 − e there, so quadratic convergence needs 2–3 steps.
#[inline]
fn polish(mut ecc_anom: f64, m: f64, e: f64) -> f64 {
    for _ in 0..3 {
        let (s, c) = ecc_anom.sin_cos();
        let f = ecc_anom - e * s - m;
        if f.abs() < 1e-14 {
            break;
        }
        let f1 = 1.0 - e * c;
        let d1 = -f / f1;
        let d2 = -f / (f1 + 0.5 * d1 * e * s);
        ecc_anom += d2;
    }
    ecc_anom
}

impl KeplerSolver for ContourSolver {
    fn ecc_anomaly(&self, mean_anomaly: f64, e: f64) -> f64 {
        let (m, mirrored) = match reduce_to_half_period(mean_anomaly, e) {
            Ok(done) => return done,
            Err(pair) => pair,
        };
        let estimate = contour_estimate(m, e, &self.nodes);
        // Clamp any last-ulp excursions back into the physical bracket.
        unreduce(polish(estimate, m, e).clamp(0.0, PI), mirrored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::ecc_to_mean;
    use crate::propagator::PropagationConstants;
    use crate::KeplerElements;

    /// The contour estimate on `points` nodes, unpolished: the discretised
    /// integral alone.
    fn unpolished(mean_anomaly: f64, e: f64, points: usize) -> f64 {
        let nodes: Vec<Node> = (0..points).map(|j| node_at(j, points)).collect();
        match reduce_to_half_period(mean_anomaly, e) {
            Ok(done) => done,
            Err((m, mirrored)) => unreduce(contour_estimate(m, e, &nodes).clamp(0.0, PI), mirrored),
        }
    }

    #[test]
    fn matches_inverse_to_machine_precision() {
        let s = ContourSolver::default();
        for k in 1..100 {
            let ecc_anom_true = k as f64 * TAU / 100.0;
            for e in [0.0012, 0.05, 0.2, 0.5, 0.8, 0.95] {
                let m = ecc_to_mean(ecc_anom_true, e);
                let got = s.ecc_anomaly(m, e);
                assert!(
                    kessler_math::angles::separation(got, ecc_anom_true) < 1e-10,
                    "E={ecc_anom_true}, e={e}, got={got}"
                );
            }
        }
    }

    #[test]
    fn converges_to_tight_residual() {
        let s = ContourSolver::default();
        for e in [0.1, 0.5, 0.9, 0.99] {
            for k in 1..20 {
                let m = k as f64 * TAU / 20.0;
                let ecc_anom = s.ecc_anomaly(m, e);
                let resid = crate::anomaly::kepler_residual(ecc_anom, e, m).abs();
                let resid = resid.min((resid - TAU).abs());
                assert!(resid < 1e-12, "M={m}, e={e}, resid={resid}");
            }
        }
    }

    #[test]
    fn extreme_eccentricity_near_perigee() {
        // High e, small M: f' ≈ 1 − e, where the polish has the most to do.
        let s = ContourSolver::default();
        for m in [1e-6, 1e-4, 1e-2] {
            let ecc_anom = s.ecc_anomaly(m, 0.99);
            let back = ecc_to_mean(ecc_anom, 0.99);
            assert!((back - m).abs() < 1e-10, "M = {m}, back = {back}");
        }
    }

    #[test]
    fn survives_high_eccentricity_near_perigee() {
        let s = ContourSolver::default();
        for m in [1e-8, 1e-5, 1e-3, 0.05] {
            for e in [0.9, 0.97, 0.995] {
                let ecc_anom = s.ecc_anomaly(m, e);
                let back = ecc_to_mean(ecc_anom, e);
                assert!((back - m).abs() < 1e-9, "M={m}, e={e}, back={back}");
            }
        }
    }

    #[test]
    fn extreme_eccentricity_near_perigee_stays_monotone() {
        // A log sweep of M through [1e-6, 1e-2] at e = 0.99: every solve
        // round-trips, and E grows with M through the corner where f' ≈ 1 − e.
        let s = ContourSolver::default();
        let e = 0.99;
        let mut prev = 0.0;
        for k in 0..=400 {
            let m = 1e-6 * 10f64.powf(k as f64 / 100.0);
            let ecc_anom = s.ecc_anomaly(m, e);
            let back = ecc_to_mean(ecc_anom, e);
            assert!((back - m).abs() < 1e-10, "M = {m}, back = {back}");
            assert!(ecc_anom > prev, "M = {m}: E = {ecc_anom} after {prev}");
            prev = ecc_anom;
        }
    }

    #[test]
    fn inverts_keplers_equation_over_a_dense_grid() {
        // Ten times the grid of `all_solvers_invert_keplers_equation_on_a_grid`.
        let s = ContourSolver::default();
        for k in 1..2000 {
            let ecc_anom_true = k as f64 * TAU / 2000.0;
            for e in [0.001, 0.01, 0.1, 0.3, 0.6, 0.9, 0.97] {
                let m = ecc_to_mean(ecc_anom_true, e);
                let got = s.ecc_anomaly(m, e);
                assert!(
                    kessler_math::angles::separation(got, ecc_anom_true) < 1e-9,
                    "E = {ecc_anom_true}, e = {e}, got = {got}"
                );
            }
        }
    }

    #[test]
    fn handles_fixed_points_and_wrapping() {
        let s = ContourSolver::default();
        assert!(s.ecc_anomaly(0.0, 0.7).abs() < 1e-12);
        assert!((s.ecc_anomaly(PI, 0.7) - PI).abs() < 1e-12);
        let a = s.ecc_anomaly(1.0, 0.3);
        let b = s.ecc_anomaly(1.0 + TAU, 0.3);
        assert!((a - b).abs() < 1e-9);
        // The fixed points are also reached through wrapping: M = kπ
        // lands on E = 0 for even k and on E = π for odd k.
        for k in [-3, -2, -1, 2, 3, 4] {
            let want = if k % 2 == 0 { 0.0 } else { PI };
            let got = s.ecc_anomaly(k as f64 * PI, 0.7);
            assert!(
                kessler_math::angles::separation(got, want) < 1e-9,
                "M = {k}π: got {got}"
            );
        }
    }

    #[test]
    fn unpolished_contour_is_already_accurate_at_moderate_e() {
        for k in 1..50 {
            let ecc_anom_true = k as f64 * TAU / 50.0;
            let e = 0.3;
            let m = ecc_to_mean(ecc_anom_true, e);
            let got = unpolished(m, e, 16);
            assert!(
                kessler_math::angles::separation(got, ecc_anom_true) < 1e-8,
                "E={ecc_anom_true}, got={got}"
            );
        }
    }

    #[test]
    fn more_points_means_more_accuracy() {
        // Geometric convergence of the trapezoid rule: error with N=32 must
        // not exceed error with N=6 anywhere on a sweep (unpolished).
        let e = 0.7;
        let mut worst_coarse = 0.0f64;
        let mut worst_fine = 0.0f64;
        for k in 1..60 {
            let ecc_anom_true = k as f64 * TAU / 60.0;
            let m = ecc_to_mean(ecc_anom_true, e);
            worst_coarse = worst_coarse.max(kessler_math::angles::separation(
                unpolished(m, e, 6),
                ecc_anom_true,
            ));
            worst_fine = worst_fine.max(kessler_math::angles::separation(
                unpolished(m, e, 32),
                ecc_anom_true,
            ));
        }
        assert!(
            worst_fine <= worst_coarse,
            "fine {worst_fine} vs coarse {worst_coarse}"
        );
        assert!(worst_fine < 1e-9, "fine contour should be near-exact");
    }

    /// Every solve and every scalar propagation over seeded inputs, hashed.
    /// The constant is what this body computed on the parent of the
    /// one-solver change, where each solve rebuilt its nodes, so a
    /// different hash means a result moved by a bit. Batch propagation is
    /// held to the scalar path by `batch_matches_scalar_propagation`.
    #[test]
    fn contour_solve_is_pinned_to_the_bit() {
        struct SplitMix64(u64);
        impl SplitMix64 {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
            fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
                lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
            }
        }
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut mix = |x: u64| hash = (hash ^ x).wrapping_mul(0x0000_0100_0000_01B3);

        let solver = ContourSolver::default();
        let mut rng = SplitMix64(0x00C0_4708);
        for _ in 0..4_096 {
            let m = rng.uniform(-2.0 * TAU, 2.0 * TAU);
            let e = rng.uniform(0.0, 0.97);
            mix(solver.ecc_anomaly(m, e).to_bits());
        }
        // The fixed points and the circular orbit take the early returns.
        for e in [0.0, 0.3, 0.9] {
            mix(solver.ecc_anomaly(0.0, e).to_bits());
            mix(solver.ecc_anomaly(PI, e).to_bits());
        }
        for m in [-1.0, 0.5, 2.0, 5.5, 9.0] {
            mix(solver.ecc_anomaly(m, 0.0).to_bits());
        }

        for _ in 0..512 {
            let a = rng.uniform(6_700.0, 42_000.0);
            let e = rng.uniform(0.0, 0.9 * (1.0 - 6_600.0 / a).max(0.0));
            let el = KeplerElements::new(
                a,
                e,
                rng.uniform(0.0, PI),
                rng.uniform(0.0, TAU),
                rng.uniform(0.0, TAU),
                rng.uniform(0.0, TAU),
            )
            .unwrap();
            let pc = PropagationConstants::from_elements(&el);
            for t in [0.0, 1.0, 777.25, 86_400.0] {
                let p = pc.position(t, &solver);
                let s = pc.propagate(t, &solver);
                for v in [p, s.position, s.velocity] {
                    mix(v.x.to_bits());
                    mix(v.y.to_bits());
                    mix(v.z.to_bits());
                }
            }
        }
        assert_eq!(hash, 0xb74e_c76b_33b0_274d, "{hash:#018x}");
    }

    #[test]
    fn branch_free_core_has_fixed_cost() {
        // The contour core performs exactly `POINTS` complex evaluations
        // regardless of (M, e) — verify indirectly by checking the solver
        // gives identical results when called repeatedly (pure function).
        let s = ContourSolver::default();
        let a = s.ecc_anomaly(2.345, 0.67);
        let b = s.ecc_anomaly(2.345, 0.67);
        assert_eq!(a, b);
    }
}
