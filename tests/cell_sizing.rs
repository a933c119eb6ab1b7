//! Validation of the paper's cell-size rule (Eq. 1, Fig. 4).
//!
//! "It occurs when two satellites are at the edge of their cell, but the
//! two cells are not neighbors … In the next sampling step the actual
//! undercut of the threshold that would occur is skipped. To circumvent
//! this, the cell size `g_c` is based on the screening threshold `d`, the
//! typical speed of a satellite in LEO (7.8 km/s), and the seconds between
//! the samples."
//!
//! These tests build the adversarial geometry and show (a) the Eq. 1 cell
//! size never misses it, and (b) a deliberately undersized cell *does*
//! miss it — i.e. the rule is not merely sufficient but necessary.

use kessler::grid::grid::NeighborScan;
use kessler::prelude::*;
use std::f64::consts::TAU;

/// Head-on conjunction at a known time: two equal-radius circular orbits
/// crossing at their mutual node with matched phases.
fn head_on_pair(radius: f64, t_conj: f64) -> Vec<KeplerElements> {
    let n = (kessler::orbits::constants::MU_EARTH / radius.powi(3)).sqrt();
    let m0 = (-n * t_conj).rem_euclid(TAU);
    vec![
        KeplerElements::new(radius, 0.0, 0.3, 0.0, 0.0, m0).unwrap(),
        KeplerElements::new(radius, 0.0, 2.2, 0.0, 0.0, m0).unwrap(),
    ]
}

/// Grid screening with an explicit cell-size override (bypassing Eq. 1) —
/// built from the raw substrate so the experiment controls every knob.
fn conjunction_found_with_cell_size(
    pop: &[KeplerElements],
    threshold: f64,
    sps: f64,
    span: f64,
    cell_size: f64,
) -> bool {
    use kessler::grid::{PairSet, SpatialGrid};
    use kessler::orbits::BatchPropagator;

    let propagator = BatchPropagator::new(pop);
    let grid = SpatialGrid::new(pop.len(), cell_size);
    let pairs = PairSet::with_capacity(1 << 12);
    let steps = (span / sps).ceil() as u32;
    let mut positions = vec![kessler::math::Vec3::ZERO; pop.len()];
    for step in 0..steps {
        let t = step as f64 * sps;
        if step > 0 {
            grid.reset();
        }
        propagator.positions_into(t, &mut positions);
        grid.insert_all(&positions).unwrap();
        grid.collect_candidate_pairs(step, NeighborScan::Half, &pairs);
    }
    // Refine every candidate exactly as the screener does.
    let solver = kessler::orbits::ContourSolver::default();
    let columns = propagator.columns();
    pairs.drain_to_vec().into_iter().any(|e| {
        let t = e.step as f64 * sps;
        let lo = columns.gather(e.id_lo as usize);
        let hi = columns.gather(e.id_hi as usize);
        let interval = kessler::core::refine::grid_refine_interval(&lo, &hi, &solver, t, cell_size);
        kessler::core::refine::refine_pair(&lo, &hi, &solver, e.id_lo, e.id_hi, interval, threshold)
            .is_some()
    })
}

#[test]
fn equation_one_cell_size_never_misses_the_worst_case() {
    let threshold = 2.0;
    // Sweep the conjunction time across sampling phases so it lands at
    // every possible offset between samples, including dead-centre between
    // two steps (the Fig. 4 geometry). Relative speed at the node here is
    // near the 2×7.8 km/s worst case.
    for sps in [1.0, 4.0, 9.0] {
        let cell = threshold + kessler::orbits::constants::LEO_SPEED * sps; // Eq. 1
        for phase in 0..10 {
            let t_conj = 60.0 + sps * phase as f64 / 10.0;
            let pop = head_on_pair(7_000.0, t_conj);
            assert!(
                conjunction_found_with_cell_size(&pop, threshold, sps, 120.0, cell),
                "missed conjunction at t = {t_conj} with s_ps = {sps} (Eq. 1 cell = {cell})"
            );
        }
    }
}

#[test]
fn undersized_cells_do_miss_conjunctions() {
    // With cells sized for the threshold only (ignoring the motion term of
    // Eq. 1) and a coarse 9 s sampling, the head-on pair jumps whole
    // neighbourhoods between samples and at least one sampling phase loses
    // the conjunction.
    let threshold = 2.0;
    let sps = 9.0;
    let undersized = threshold; // what Eq. 1 exists to prevent
    let mut missed_any = false;
    for phase in 0..10 {
        let t_conj = 60.0 + sps * phase as f64 / 10.0;
        let pop = head_on_pair(7_000.0, t_conj);
        if !conjunction_found_with_cell_size(&pop, threshold, sps, 120.0, undersized) {
            missed_any = true;
            break;
        }
    }
    assert!(
        missed_any,
        "undersized cells unexpectedly caught every phase — the Fig. 4 hazard \
         should manifest (if this fails, the adversarial geometry needs tuning)"
    );
}

#[test]
fn grid_screener_uses_equation_one_sizing() {
    // End-to-end: the public GridScreener must catch the worst-case pair
    // at every sampling phase, because its cell size comes from Eq. 1.
    for phase in 0..5 {
        let t_conj = 60.0 + phase as f64 / 5.0;
        let pop = head_on_pair(7_000.0, t_conj);
        let report = GridScreener::new(ScreeningConfig::grid_defaults(2.0, 120.0)).screen(&pop);
        assert!(
            report.conjunction_count() >= 1,
            "GridScreener missed the worst case at t = {t_conj}"
        );
        assert!((report.conjunctions[0].tca - t_conj).abs() < 0.5);
    }
}
