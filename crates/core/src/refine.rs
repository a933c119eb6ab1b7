//! PCA/TCA refinement (§IV-C).
//!
//! Each candidate pair carries a time interval that should bracket a local
//! distance minimum. We minimise the squared inter-satellite distance with
//! Brent's method; a minimum that lands on the interval boundary is probed
//! slightly beyond it — if the distance keeps decreasing outside, the true
//! minimum belongs to the neighbouring interval and the occurrence is
//! discarded ("the minimum will be found when considering the neighboring
//! interval").

use crate::conjunction::Conjunction;
use kessler_math::brent::brent_minimize;
use kessler_math::Interval;
use kessler_orbits::propagator::PropagationConstants;
use kessler_orbits::ContourSolver;

/// Relative tolerance of the Brent search on the time axis.
const BRENT_TOL: f64 = 1e-10;
/// Brent iteration budget per pair.
const BRENT_ITER: u32 = 80;
/// A minimum within this fraction of the interval length of a boundary is
/// treated as "at the boundary".
const EDGE_FRACTION: f64 = 1e-3;
/// How far beyond the boundary the escape probe looks, as a fraction of
/// the interval length.
const PROBE_FRACTION: f64 = 0.05;

/// Squared distance between two propagated satellites at time `t`.
#[inline]
pub fn distance_sq_at(
    a: &PropagationConstants,
    b: &PropagationConstants,
    solver: &ContourSolver,
    t: f64,
) -> f64 {
    a.position(t, solver).dist_sq(b.position(t, solver))
}

/// Refine one candidate occurrence on `interval`.
///
/// Returns the conjunction if a local minimum interior to the interval
/// undercuts `threshold_km`; `None` if the pair never comes below the
/// threshold in this interval or the minimum escapes through a boundary.
pub fn refine_pair(
    a: &PropagationConstants,
    b: &PropagationConstants,
    solver: &ContourSolver,
    id_lo: u32,
    id_hi: u32,
    interval: Interval,
    threshold_km: f64,
) -> Option<Conjunction> {
    if interval.is_empty() {
        return None;
    }
    let d2 = |t| distance_sq_at(a, b, solver, t);
    let result = brent_minimize(&d2, interval.start, interval.end, BRENT_TOL, BRENT_ITER);

    let length = interval.length().max(1e-9);
    let edge_eps = EDGE_FRACTION * length;
    let probe = PROBE_FRACTION * length;

    // Boundary-escape check (§IV-C): if the minimum sits at an edge and the
    // function still decreases beyond it, the local minimum lies outside.
    if result.xmin - interval.start <= edge_eps {
        if d2(interval.start - probe) < result.fmin {
            return None;
        }
    } else if interval.end - result.xmin <= edge_eps && d2(interval.end + probe) < result.fmin {
        return None;
    }

    let pca_km = result.fmin.max(0.0).sqrt();
    if pca_km <= threshold_km {
        Some(Conjunction {
            id_lo,
            id_hi,
            tca: result.xmin,
            pca_km,
        })
    } else {
        None
    }
}

/// The grid variant's refinement interval (§IV-C): centred on the sample
/// time, with radius "the time it takes the slower of both satellites to
/// cross two cells", computed from the velocity at the sample.
pub fn grid_refine_interval(
    a: &PropagationConstants,
    b: &PropagationConstants,
    solver: &ContourSolver,
    sample_time: f64,
    cell_size_km: f64,
) -> Interval {
    let va = a.propagate(sample_time, solver).velocity.norm();
    let vb = b.propagate(sample_time, solver).velocity.norm();
    let v_slow = va.min(vb).max(1e-6);
    let radius = 2.0 * cell_size_km / v_slow;
    Interval::new(sample_time - radius, sample_time + radius)
}

/// Sampled local-minima search, used where no grid steps and no filter
/// windows exist (the legacy variant's coplanar pairs): sample the distance
/// at `coarse_step` over `span`, bracket every local minimum, refine each
/// with Brent.
#[allow(clippy::too_many_arguments)] // mirrors refine_pair's signature plus the sampling step
pub fn sampled_minima_search(
    a: &PropagationConstants,
    b: &PropagationConstants,
    solver: &ContourSolver,
    id_lo: u32,
    id_hi: u32,
    span: Interval,
    coarse_step: f64,
    threshold_km: f64,
) -> Vec<Conjunction> {
    let mut out = Vec::new();
    if span.is_empty() || coarse_step <= 0.0 {
        return out;
    }
    let steps = ((span.length() / coarse_step).ceil() as usize).max(2);
    let d2: Vec<f64> = (0..=steps)
        .map(|k| distance_sq_at(a, b, solver, span.start + k as f64 * coarse_step))
        .collect();
    let t_of = |k: usize| span.start + k as f64 * coarse_step;
    for k in 0..=steps {
        let is_min = match k {
            0 => d2[0] <= d2[1],
            _ if k == steps => d2[steps] <= d2[steps - 1],
            _ => d2[k] <= d2[k - 1] && d2[k] <= d2[k + 1],
        };
        if !is_min {
            continue;
        }
        let lo = if k == 0 { span.start } else { t_of(k - 1) };
        let hi = if k == steps { span.end } else { t_of(k + 1) };
        let bracket = Interval::new(lo.max(span.start), hi.min(span.end));
        if let Some(c) = refine_pair(a, b, solver, id_lo, id_hi, bracket, threshold_km) {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kessler_orbits::KeplerElements;

    fn pc(a: f64, e: f64, i: f64, raan: f64, argp: f64, m0: f64) -> PropagationConstants {
        PropagationConstants::from_elements(&KeplerElements::new(a, e, i, raan, argp, m0).unwrap())
    }

    /// Two circular orbits of equal radius crossing at RAAN 0 with both
    /// satellites passing the node at t = 0: conjunction at t ≈ 0, PCA ≈ 0.
    fn crossing_pair() -> (PropagationConstants, PropagationConstants) {
        (
            pc(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0),
            pc(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.0),
        )
    }

    #[test]
    fn finds_head_on_conjunction() {
        let (a, b) = crossing_pair();
        let solver = ContourSolver::default();
        let c = refine_pair(&a, &b, &solver, 0, 1, Interval::new(-30.0, 30.0), 2.0)
            .expect("conjunction must be found");
        assert!(c.tca.abs() < 0.5, "tca = {}", c.tca);
        assert!(c.pca_km < 0.5, "pca = {}", c.pca_km);
        assert_eq!((c.id_lo, c.id_hi), (0, 1));
    }

    #[test]
    fn rejects_pair_above_threshold() {
        // Equal-radius rings but phased so the satellites pass the node
        // 200 s apart: minimum distance is large.
        let a = pc(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0);
        let b = pc(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.3); // ~279 s of anomaly offset
        let solver = ContourSolver::default();
        assert!(refine_pair(&a, &b, &solver, 0, 1, Interval::new(-30.0, 30.0), 2.0).is_none());
    }

    #[test]
    fn minimum_escaping_through_the_edge_is_discarded() {
        // The true minimum is at t = 0; an interval ending just before it
        // must discard the occurrence (the neighbouring interval owns it).
        let (a, b) = crossing_pair();
        let solver = ContourSolver::default();
        let result = refine_pair(&a, &b, &solver, 0, 1, Interval::new(-50.0, -5.0), 5_000.0);
        assert!(
            result.is_none(),
            "edge minimum must be discarded, got {result:?}"
        );
    }

    #[test]
    fn neighboring_interval_finds_the_escaped_minimum() {
        let (a, b) = crossing_pair();
        let solver = ContourSolver::default();
        // The interval that actually contains t = 0.
        let c = refine_pair(&a, &b, &solver, 0, 1, Interval::new(-5.0, 40.0), 2.0);
        assert!(c.is_some());
    }

    #[test]
    fn empty_interval_is_rejected() {
        let (a, b) = crossing_pair();
        let solver = ContourSolver::default();
        assert!(refine_pair(&a, &b, &solver, 0, 1, Interval::new(10.0, -10.0), 2.0).is_none());
    }

    #[test]
    fn grid_interval_radius_matches_two_cell_crossings() {
        let (a, b) = crossing_pair();
        let solver = ContourSolver::default();
        let iv = grid_refine_interval(&a, &b, &solver, 100.0, 9.8);
        // Circular LEO speed ≈ 7.546 km/s → radius ≈ 2·9.8/7.546 ≈ 2.6 s.
        let radius = iv.length() / 2.0;
        assert!(
            (radius - 2.0 * 9.8 / 7.546).abs() < 0.05,
            "radius = {radius}"
        );
        assert!((iv.center() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_search_finds_every_periodic_encounter() {
        // Crossing equal-period orbits meet twice per period (once per
        // node); over two periods the sampled search must find ≥ 2
        // sub-threshold conjunctions at the co-phased node.
        let (a, b) = crossing_pair();
        let solver = ContourSolver::default();
        let el = KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap();
        let span = Interval::new(0.0, 2.2 * el.period());
        let found = sampled_minima_search(&a, &b, &solver, 0, 1, span, 1.0, 2.0);
        assert!(found.len() >= 2, "found {} conjunctions", found.len());
        for c in &found {
            assert!(c.pca_km <= 2.0);
            assert!(span.contains(c.tca));
        }
    }

    #[test]
    fn sampled_search_handles_degenerate_inputs() {
        let (a, b) = crossing_pair();
        let solver = ContourSolver::default();
        assert!(
            sampled_minima_search(&a, &b, &solver, 0, 1, Interval::new(5.0, 1.0), 1.0, 2.0)
                .is_empty()
        );
        assert!(
            sampled_minima_search(&a, &b, &solver, 0, 1, Interval::new(0.0, 10.0), 0.0, 2.0)
                .is_empty()
        );
    }

    #[test]
    fn refinement_matches_dense_sampling() {
        // Ground truth by brute force: sample the distance at 1 ms over the
        // bracketing interval and compare.
        let a = pc(7_000.0, 0.001, 0.4, 0.1, 0.3, 0.01);
        let b = pc(7_002.0, 0.0015, 1.1, 0.1, 0.2, 6.27);
        let solver = ContourSolver::default();
        let iv = Interval::new(-60.0, 60.0);
        if let Some(c) = refine_pair(&a, &b, &solver, 0, 1, iv, 10_000.0) {
            let mut best = (0.0f64, f64::INFINITY);
            let mut t = iv.start;
            while t <= iv.end {
                let d = distance_sq_at(&a, &b, &solver, t).sqrt();
                if d < best.1 {
                    best = (t, d);
                }
                t += 0.001;
            }
            assert!(
                (c.tca - best.0).abs() < 0.01,
                "tca {} vs sampled {}",
                c.tca,
                best.0
            );
            assert!(
                (c.pca_km - best.1).abs() < 0.01,
                "pca {} vs sampled {}",
                c.pca_km,
                best.1
            );
        }
    }
}
