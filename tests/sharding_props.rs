//! Property-based tests of the shard layout and of candidate extraction:
//! snapshot-chunk assignment is total and deterministic over arbitrary
//! layouts, and one step's extraction equals a brute-force O(n²)
//! reference in both query modes, each pair exactly once. A DELTA's
//! space-time cull (`Extraction::run` with a strict subset changed) finds
//! exactly the entries of the per-step path that propagates and bins
//! everyone.

use kessler::core::extraction::CULL_BLOCK_SECONDS;
use kessler::core::{Extraction, MemoryModel, PhaseTimings, PlannerReport};
use kessler::grid::grid::NeighborScan;
use kessler::grid::CandidatePair;
use kessler::math::Vec3;
use kessler::orbits::BatchPropagator;
use kessler::prelude::{KeplerElements, ScreeningConfig, Variant};
use kessler::service::{ShardMap, ShardSpec};
use proptest::prelude::*;
use std::f64::consts::{PI, TAU};

/// One step of a fresh extraction: its entries, sorted and each exactly
/// once, and the grid inserts.
fn extract_step(
    positions: &[Vec3],
    changed: &[u32],
    cell: f64,
    step: u32,
) -> (Vec<CandidatePair>, u64) {
    let everyone: Vec<u32> = (0..positions.len() as u32).collect();
    let mut extraction = Extraction::new(changed, cell, NeighborScan::Half);
    extraction.step(step, positions, &everyone, &mut PhaseTimings::default());
    extraction.finish()
}

/// The definition the grid implements, by brute force: every pair whose
/// cells `floor(p / cell)` differ by at most one on every axis, sorted.
fn brute_force_entries(positions: &[Vec3], cell: f64, step: u32) -> Vec<CandidatePair> {
    let cell_of = |p: Vec3| [p.x, p.y, p.z].map(|c| (c / cell).floor() as i64);
    let mut out = Vec::new();
    for i in 0..positions.len() {
        for j in i + 1..positions.len() {
            let (a, b) = (cell_of(positions[i]), cell_of(positions[j]));
            if (0..3).all(|k| (a[k] - b[k]).abs() <= 1) {
                out.push(CandidatePair::new(i as u32, j as u32, step));
            }
        }
    }
    out
}

/// The per-step path a culled run must agree with: every satellite
/// propagated and binned at every step, then [`Extraction::step`].
fn extract_every_step(
    propagator: &BatchPropagator,
    planner: &PlannerReport,
    changed: &[u32],
) -> (Vec<CandidatePair>, u64) {
    let mut extraction = Extraction::new(changed, planner.cell_size_km, NeighborScan::Half);
    let mut positions = vec![Vec3::ZERO; propagator.len()];
    let everyone: Vec<u32> = (0..propagator.len() as u32).collect();
    for step in 0..planner.total_steps {
        propagator.positions_into(step as f64 * planner.seconds_per_sample, &mut positions);
        extraction.step(step, &positions, &everyone, &mut PhaseTimings::default());
    }
    extraction.finish()
}

/// `Extraction::run`, which culls when `changed` is a strict subset.
fn extract_culled(
    propagator: &BatchPropagator,
    planner: &PlannerReport,
    changed: &[u32],
) -> (Vec<CandidatePair>, u64) {
    Extraction::new(changed, planner.cell_size_km, NeighborScan::Half)
        .run(propagator, planner, &mut PhaseTimings::default(), None)
        .expect("no token, no cancellation")
}

/// Perigee radius shared by every orbit of the cull tests (km).
const PERIGEE_KM: f64 = 6_720.0;

/// An orbit through `(PERIGEE_KM, 0, 0)` at `t_node` seconds, crossing the
/// x axis at inclination `incl` (π − incl flies the other way round):
/// circular, or the fast eccentric a = 24 000 km, e = 0.72 one at its
/// perigee there, at √(μ·1.72/6 720) ≈ 10.1 km/s (Eq. 1 assumes 7.8).
fn through_the_node(eccentric: bool, incl: f64, raan: f64, t_node: f64) -> KeplerElements {
    let (a, e) = if eccentric {
        (PERIGEE_KM / (1.0 - 0.72), 0.72)
    } else {
        (PERIGEE_KM, 0.0)
    };
    let mean_motion = (kessler::orbits::constants::MU_EARTH / (a * a * a)).sqrt();
    KeplerElements::new(
        a,
        e,
        incl,
        raan,
        0.0,
        (-mean_motion * t_node).rem_euclid(TAU),
    )
    .unwrap()
}

/// The plans the cull tests run at: 1 s grid steps (blocks of 20) and the
/// hybrid's 9 s (blocks of 3, the last one a single step).
fn cull_plans(n: usize) -> [PlannerReport; 2] {
    [
        MemoryModel::new(Variant::Grid).plan(n, &ScreeningConfig::grid_defaults(5.0, 60.0)),
        MemoryModel::new(Variant::Hybrid).plan(n, &ScreeningConfig::hybrid_defaults(5.0, 90.0)),
    ]
}

/// An arbitrary valid shard layout: 1–12 altitude bands, 1–6 |z| shells.
fn arb_spec() -> impl Strategy<Value = ShardSpec> {
    (1u32..12, 1u32..6).prop_map(|(alt_bands, z_shells)| ShardSpec {
        alt_bands,
        z_shells,
    })
}

fn arb_position() -> impl Strategy<Value = Vec3> {
    (5_000.0..18_000.0f64, 0.0..PI, -1.0..1.0f64).prop_map(|(r, theta, zfrac)| {
        let z = r * zfrac;
        let rho = (r * r - z * z).max(0.0).sqrt();
        Vec3::new(rho * theta.cos(), rho * theta.sin(), z)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Assignment is total (every valid orbit gets a shard inside the
    /// partition) and deterministic (a freshly built map with the same
    /// spec agrees).
    #[test]
    fn assignment_is_total_and_deterministic(
        spec in arb_spec(),
        a in 5_000.0..18_000.0f64,
        incl in 0.0..PI,
    ) {
        let map = ShardMap::new(spec).unwrap();
        let shard = map.assign(a, incl);
        prop_assert!(shard < map.shard_count());
        let again = ShardMap::new(spec).unwrap().assign(a, incl);
        prop_assert_eq!(shard, again);
    }

    /// Candidate extraction of everyone (the occupied-cell scan) is
    /// exactly the brute-force reference, each satellite inserted once.
    #[test]
    fn extraction_of_everyone_equals_the_brute_force_reference(
        positions in proptest::collection::vec(arb_position(), 2..40),
        cell in 20.0..200.0f64,
    ) {
        let changed: Vec<u32> = (0..positions.len() as u32).collect();
        let (got, inserts) = extract_step(&positions, &changed, cell, 3);
        prop_assert_eq!(&got, &brute_force_entries(&positions, cell, 3));
        prop_assert_eq!(inserts, positions.len() as u64);
    }

    /// The subset twin: point queries for a random strict subset of
    /// changed satellites find exactly the reference pairs that touch a
    /// changed satellite.
    #[test]
    fn subset_extraction_equals_the_reference_around_the_changed(
        positions in proptest::collection::vec(arb_position(), 2..40),
        cell in 20.0..200.0f64,
        mask in any::<u64>(),
    ) {
        let mut changed: Vec<u32> =
            (0..positions.len() as u32).filter(|i| mask >> i & 1 == 1).collect();
        if changed.len() == positions.len() {
            changed.pop();
        }
        let touches = |e: &CandidatePair| {
            changed.binary_search(&e.id_lo).is_ok() || changed.binary_search(&e.id_hi).is_ok()
        };
        let mut expected = brute_force_entries(&positions, cell, 5);
        expected.retain(touches);

        let (got, _) = extract_step(&positions, &changed, cell, 5);
        prop_assert_eq!(got, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The cull is exact: over crossing swarms of circular and fast
    /// eccentric orbits that all pass the same point at random times, with
    /// k ∈ {1, 3, n/2, n − 1} changed, at grid and hybrid step sizes, `run`
    /// finds exactly the entries of the per-step path.
    #[test]
    fn culled_run_equals_the_per_step_path(
        seed in any::<u64>(),
        n in 8usize..48,
    ) {
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        let population: Vec<KeplerElements> = (0..n)
            .map(|_| {
                let incl = if next() < 0.5 { 0.4 } else { PI - 0.4 } + 0.05 * next();
                through_the_node(next() < 0.5, incl, 0.02 * next(), 90.0 * next())
            })
            .collect();
        let propagator = BatchPropagator::new(&population);
        for k in [1, 3, n / 2, n - 1] {
            let mut changed: Vec<u32> = (0..n as u32).collect();
            for i in 0..n {
                changed.swap(i, i + (next() * (n - i) as f64) as usize);
            }
            changed.truncate(k);
            changed.sort_unstable();
            for planner in cull_plans(n) {
                let (want, _) = extract_every_step(&propagator, &planner, &changed);
                let (got, _) = extract_culled(&propagator, &planner, &changed);
                prop_assert_eq!(
                    got,
                    want,
                    "k = {}, s_ps = {}",
                    k,
                    planner.seconds_per_sample
                );
            }
        }
    }
}

/// Head-on pairs of the fast eccentric orbit, one pair meeting at its
/// shared perigee at each step of the span: every offset from a block
/// start is covered, so some pair meets at the last step of a block (the
/// reach's tightest case) and some just after a block start where they
/// were beyond the reach. Only one side of each pair changed, so a reach
/// too short for the closing speed loses that pair's entries.
#[test]
fn head_on_pairs_meeting_at_every_step_survive_the_cull() {
    for planner in cull_plans(2) {
        let steps = planner.total_steps;
        let t = |s: u32| f64::from(s) * planner.seconds_per_sample;
        // Each pair meets in its own direction, 2π/steps apart: at least
        // 350 km between meeting points, farther than any entry.
        let population: Vec<KeplerElements> = (0..steps)
            .flat_map(|s| {
                let raan = TAU * f64::from(s) / f64::from(steps);
                [
                    through_the_node(true, 0.0, raan, t(s)),
                    through_the_node(true, PI, raan, t(s)),
                ]
            })
            .collect();
        let propagator = BatchPropagator::new(&population);
        let changed: Vec<u32> = (0..steps).map(|s| 2 * s).collect();
        let block = (CULL_BLOCK_SECONDS / planner.seconds_per_sample).ceil() as u32;
        let (want, every) = extract_every_step(&propagator, &planner, &changed);
        let (got, culled) = extract_culled(&propagator, &planner, &changed);
        assert_eq!(got, want, "s_ps = {}", planner.seconds_per_sample);
        // Every pair is found at its meeting step.
        for s in 0..steps {
            assert!(
                want.contains(&CandidatePair::new(2 * s, 2 * s + 1, s)),
                "pair {s} at its meeting step"
            );
        }
        // The cull dropped work: a pair meeting beyond the end of a
        // block is not binned in it.
        assert!(block < steps);
        assert!(culled < every);
    }
}
