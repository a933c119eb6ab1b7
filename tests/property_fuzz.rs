//! Property-based cross-variant fuzzing: on small random populations the
//! grid variant must agree with the brute-force legacy baseline, and the
//! library must uphold its report invariants on arbitrary (valid) inputs.

use kessler::orbits::constants::MU_EARTH;
use kessler::prelude::*;
use proptest::prelude::*;
use std::f64::consts::{PI, TAU};

/// A random but physically valid LEO-ish element set.
fn arb_elements() -> impl Strategy<Value = KeplerElements> {
    (
        6_800.0..9_000.0f64, // semi-major axis
        0.0..0.02f64,        // eccentricity (near-circular, keeps perigee up)
        0.0..PI,             // inclination
        0.0..TAU,            // raan
        0.0..TAU,            // argp
        0.0..TAU,            // mean anomaly
    )
        .prop_map(|(a, e, i, raan, argp, m)| {
            KeplerElements::new(a, e, i, raan, argp, m).expect("valid by construction")
        })
}

fn arb_population(max: usize) -> impl Strategy<Value = Vec<KeplerElements>> {
    proptest::collection::vec(arb_elements(), 2..max)
}

/// How far outside `[0, span]` a grid-stage TCA can lie (the span-edge rule,
/// DESIGN §2.1). Every refinement interval is centred on a sample time in
/// `[0, span)` and reaches `2 · cell / v_slow` either way
/// (`refine::grid_refine_interval`), `v_slow` being the slower satellite's
/// speed at the sample; no satellite of `pop` is ever slower than the
/// slowest apogee passage (vis-viva at the apogee radius).
fn span_edge_reach(pop: &[KeplerElements], report: &ScreeningReport) -> f64 {
    let v_slow = pop
        .iter()
        .map(|el| (MU_EARTH * (2.0 / el.apogee_radius() - 1.0 / el.semi_major_axis)).sqrt())
        .fold(f64::INFINITY, f64::min);
    2.0 * report.planner.cell_size_km / v_slow
}

/// The bound `report_invariants` used to assert, `tca ∈ [−1e-9, span + 1e-9]`,
/// is not one the grid stage keeps: a crossing 0.5 s outside the span is
/// reported. The derived reach is.
#[test]
fn a_grid_report_may_leave_the_span_by_the_refinement_reach_only() {
    let span = 600.0;
    let radius = 7_000.0f64;
    let mean_motion = (MU_EARTH / radius.powi(3)).sqrt();
    for t_conj in [-0.5, span + 0.5] {
        // Two crossing circular orbits, both at the common node at t_conj.
        let m0 = (-mean_motion * t_conj).rem_euclid(TAU);
        let pop = vec![
            KeplerElements::new(radius, 0.0, 0.4, 0.0, 0.0, m0).unwrap(),
            KeplerElements::new(radius, 0.0, 1.2, 0.0, 0.0, m0).unwrap(),
        ];
        let report = GridScreener::new(ScreeningConfig::grid_defaults(2.0, span)).screen(&pop);
        assert_eq!(report.conjunction_count(), 1, "crossing at {t_conj}");
        let tca = report.conjunctions[0].tca;
        assert!(
            !(-1e-9..=span + 1e-9).contains(&tca),
            "tca {tca} is inside the span"
        );
        let reach = span_edge_reach(&pop, &report);
        assert!(reach < 10.0, "reach {reach} s bounds nothing");
        assert!(
            (-reach..=span + reach).contains(&tca),
            "tca {tca} beyond reach {reach}"
        );
    }
}

proptest! {
    // Each case runs three screeners; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The central correctness property of the paper: the spatial-grid
    /// shortcut must find the same colliding pairs as brute force.
    #[test]
    fn grid_matches_legacy_on_random_populations(pop in arb_population(24)) {
        let config = ScreeningConfig::grid_defaults(25.0, 400.0);
        let grid = GridScreener::new(config).screen(&pop);
        let legacy = LegacyScreener::new(config).screen(&pop);
        prop_assert_eq!(
            grid.colliding_pairs(),
            legacy.colliding_pairs(),
            "population: {:?}",
            pop
        );
    }

    /// The gpusim port is bit-identical to the CPU grid screener.
    #[test]
    fn gpusim_is_identical_to_cpu(pop in arb_population(16)) {
        let config = ScreeningConfig::grid_defaults(25.0, 300.0);
        let cpu = GridScreener::new(config).screen(&pop);
        let gpu = GpuScreener::grid(config).screen(&pop);
        prop_assert_eq!(cpu.conjunction_count(), gpu.conjunction_count());
        for (a, b) in cpu.conjunctions.iter().zip(&gpu.conjunctions) {
            prop_assert_eq!(a.pair(), b.pair());
            prop_assert!((a.tca - b.tca).abs() < 1e-9);
        }
    }

    /// Report invariants hold on arbitrary populations: conjunctions are
    /// sorted/deduplicated, within threshold and within the refinement
    /// reach of the span, ids in range.
    #[test]
    fn report_invariants(pop in arb_population(20)) {
        let span = 350.0;
        let threshold = 30.0;
        let config = ScreeningConfig::grid_defaults(threshold, span);
        let report = GridScreener::new(config).screen(&pop);
        let n = pop.len() as u32;
        let reach = span_edge_reach(&pop, &report);
        for c in &report.conjunctions {
            prop_assert!(c.id_lo < c.id_hi, "ids must be ordered");
            prop_assert!(c.id_hi < n, "ids must be in range");
            prop_assert!(c.pca_km <= threshold + 1e-9);
            prop_assert!(c.pca_km >= 0.0);
            prop_assert!(c.tca >= -reach && c.tca <= span + reach);
        }
        // Sorted by pair, then TCA; no duplicate minima inside the dedup
        // tolerance.
        for w in report.conjunctions.windows(2) {
            let key = |c: &Conjunction| (c.id_lo, c.id_hi);
            prop_assert!(key(&w[0]) <= key(&w[1]));
            if key(&w[0]) == key(&w[1]) {
                prop_assert!(w[1].tca - w[0].tca > config.tca_dedup_tolerance_s);
            }
        }
    }
}
