//! Cross-variant agreement on realistic synthetic populations — the
//! integration-level version of the paper's accuracy experiment (§V-D):
//! all variants screen the *same* KDE population and must report
//! near-identical colliding-pair sets, with the gpusim ports matching
//! their CPU counterparts exactly.

use kessler::prelude::*;
use std::collections::HashSet;

fn population(n: usize, seed: u64) -> Vec<KeplerElements> {
    PopulationGenerator::new(PopulationConfig {
        seed,
        ..Default::default()
    })
    .generate(n)
}

/// Jaccard-style agreement of two pair sets.
fn agreement(a: &HashSet<(u32, u32)>, b: &HashSet<(u32, u32)>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count() as f64;
    let union = a.union(b).count() as f64;
    inter / union
}

#[test]
fn grid_and_legacy_find_nearly_the_same_pairs() {
    // 400 satellites over 20 minutes: enough for a handful of encounters.
    let pop = population(400, 1234);
    let config = ScreeningConfig::grid_defaults(2.0, 1_200.0);
    let grid = GridScreener::new(config).screen(&pop);
    let legacy = LegacyScreener::new(config).screen(&pop);
    let ga = grid.colliding_pairs();
    let la = legacy.colliding_pairs();
    let agr = agreement(&ga, &la);
    assert!(
        agr >= 0.85,
        "grid vs legacy agreement {agr}: grid {ga:?} vs legacy {la:?}"
    );
}

#[test]
fn hybrid_and_legacy_find_nearly_the_same_pairs() {
    let pop = population(400, 1234);
    let hybrid = HybridScreener::new(ScreeningConfig::hybrid_defaults(2.0, 1_200.0)).screen(&pop);
    let legacy = LegacyScreener::new(ScreeningConfig::grid_defaults(2.0, 1_200.0)).screen(&pop);
    let ha = hybrid.colliding_pairs();
    let la = legacy.colliding_pairs();
    let agr = agreement(&ha, &la);
    assert!(
        agr >= 0.85,
        "hybrid vs legacy agreement {agr}: hybrid {ha:?} vs legacy {la:?}"
    );
}

/// Same conjunctions to the bit, same candidate counts, same chain
/// counters: what "the same stage behind another extraction backend" means.
fn assert_same_screen(a: &ScreeningReport, b: &ScreeningReport) {
    let what = format!("{} vs {}", a.variant, b.variant);
    assert_eq!(a.conjunction_count(), b.conjunction_count(), "{what}");
    for (x, y) in a.conjunctions.iter().zip(&b.conjunctions) {
        assert_eq!(x.pair(), y.pair(), "{what}");
        assert_eq!(x.tca.to_bits(), y.tca.to_bits(), "{what}");
        assert_eq!(x.pca_km.to_bits(), y.pca_km.to_bits(), "{what}");
    }
    assert_eq!(a.candidate_entries, b.candidate_entries, "{what}");
    assert_eq!(a.candidate_pairs, b.candidate_pairs, "{what}");
    assert_eq!(a.filter_stats, b.filter_stats, "{what}");
}

#[test]
fn gpusim_grid_matches_cpu_grid_exactly() {
    let pop = population(300, 77);
    let config = ScreeningConfig::grid_defaults(2.0, 900.0);
    let cpu = GridScreener::new(config).screen(&pop);
    let gpu = GpuScreener::grid(config).screen(&pop);
    assert_eq!(cpu.colliding_pairs(), gpu.colliding_pairs());
    assert_eq!(cpu.conjunction_count(), gpu.conjunction_count());
    for (a, b) in cpu.conjunctions.iter().zip(&gpu.conjunctions) {
        assert_eq!(a.pair(), b.pair());
        assert!((a.tca - b.tca).abs() < 1e-6);
    }
}

#[test]
fn gpusim_hybrid_matches_cpu_hybrid_exactly() {
    let pop = population(300, 77);
    let config = ScreeningConfig::hybrid_defaults(2.0, 900.0);
    let cpu = HybridScreener::new(config).screen(&pop);
    let gpu = GpuScreener::hybrid(config).screen(&pop);
    assert_eq!(cpu.colliding_pairs(), gpu.colliding_pairs());
    assert_eq!(cpu.conjunction_count(), gpu.conjunction_count());
}

/// Backend × stage: every extraction backend hands the same entries to the
/// same stage, so the reports agree to the bit — on the CPU or on one
/// simulated device.
#[test]
fn every_backend_reports_the_same_screen_for_either_stage() {
    let mut conjunctions = 0;
    for seed in [77, 2023] {
        let pop = population(300, seed);

        let config = ScreeningConfig::grid_defaults(10.0, 900.0);
        let cpu = GridScreener::new(config).screen(&pop);
        assert_same_screen(&cpu, &GpuScreener::grid(config).screen(&pop));
        assert!(cpu.filter_stats.is_none());
        conjunctions += cpu.conjunction_count();

        let config = ScreeningConfig::hybrid_defaults(10.0, 900.0);
        let cpu = HybridScreener::new(config).screen(&pop);
        assert_same_screen(&cpu, &GpuScreener::hybrid(config).screen(&pop));
        assert!(cpu.filter_stats.is_some_and(|stats| stats.tested > 0));
        conjunctions += cpu.conjunction_count();
    }
    assert!(conjunctions > 0, "the comparison must compare something");
}

/// The span-edge rule (DESIGN §2.1/§2.2), on every backend: the grid stage
/// keeps the minima its ±2-cell refinement intervals find just outside
/// `[0, span]`, the hybrid stage clips to the span.
#[test]
fn minima_just_outside_the_span_are_kept_by_the_grid_stage_on_every_backend() {
    use std::f64::consts::TAU;
    let span = 600.0;
    let radius = 7_000.0f64;
    let mean_motion = (kessler::orbits::constants::MU_EARTH / radius.powi(3)).sqrt();
    for t_conj in [-0.5, span + 0.5] {
        // Two crossing circular orbits, both at the common node at t_conj.
        let m0 = (-mean_motion * t_conj).rem_euclid(TAU);
        let pop = vec![
            KeplerElements::new(radius, 0.0, 0.4, 0.0, 0.0, m0).unwrap(),
            KeplerElements::new(radius, 0.0, 1.2, 0.0, 0.0, m0).unwrap(),
        ];

        let config = ScreeningConfig::grid_defaults(2.0, span);
        let cpu = GridScreener::new(config).screen(&pop);
        assert_eq!(cpu.conjunction_count(), 1, "grid at {t_conj}");
        assert!((cpu.conjunctions[0].tca - t_conj).abs() < 1e-3);
        assert_same_screen(&cpu, &GpuScreener::grid(config).screen(&pop));

        let config = ScreeningConfig::hybrid_defaults(2.0, span);
        let cpu = HybridScreener::new(config).screen(&pop);
        assert_eq!(cpu.conjunction_count(), 0, "hybrid at {t_conj}");
        assert_same_screen(&cpu, &GpuScreener::hybrid(config).screen(&pop));
    }
}

#[test]
fn results_are_reproducible_across_runs() {
    let pop = population(250, 9);
    let config = ScreeningConfig::grid_defaults(2.0, 600.0);
    let a = GridScreener::new(config).screen(&pop);
    let b = GridScreener::new(config).screen(&pop);
    assert_eq!(a.conjunction_count(), b.conjunction_count());
    for (x, y) in a.conjunctions.iter().zip(&b.conjunctions) {
        assert_eq!(x.pair(), y.pair());
        assert_eq!(x.tca, y.tca, "parallel execution must not perturb results");
        assert_eq!(x.pca_km, y.pca_km);
    }
}

#[test]
fn every_reported_conjunction_is_physically_real() {
    use kessler::orbits::propagator::PropagationConstants;
    use kessler::orbits::ContourSolver;
    // No false positives: every reported conjunction must verify against
    // direct propagation.
    let pop = population(400, 31);
    let config = ScreeningConfig::grid_defaults(2.0, 1_200.0);
    let report = GridScreener::new(config).screen(&pop);
    let solver = ContourSolver::default();
    for c in &report.conjunctions {
        let a = PropagationConstants::from_elements(&pop[c.id_lo as usize]);
        let b = PropagationConstants::from_elements(&pop[c.id_hi as usize]);
        let d = a.position(c.tca, &solver).dist(b.position(c.tca, &solver));
        assert!(
            (d - c.pca_km).abs() < 1e-6,
            "reported PCA {} disagrees with propagated distance {}",
            c.pca_km,
            d
        );
        assert!(c.pca_km <= 2.0, "conjunction above threshold: {}", c.pca_km);
        // Verify it is a local minimum: distance grows on both sides.
        let before = a
            .position(c.tca - 0.5, &solver)
            .dist(b.position(c.tca - 0.5, &solver));
        let after = a
            .position(c.tca + 0.5, &solver)
            .dist(b.position(c.tca + 0.5, &solver));
        assert!(before >= c.pca_km - 1e-9 && after >= c.pca_km - 1e-9);
    }
}

#[test]
fn screening_report_serialises_to_json() {
    let pop = population(50, 5);
    let config = ScreeningConfig::grid_defaults(2.0, 300.0);
    let report = GridScreener::new(config).screen(&pop);
    let json = serde_json::to_string(&report).expect("report must serialise");
    assert!(json.contains("\"variant\":\"grid\""));
    assert!(json.contains("conjunctions"));
}
