//! E-ACC — §V-D: accuracy comparison across variants on an identical
//! population: conjunction counts, colliding-pair counts, and the
//! missed/extra pair sets relative to the legacy baseline.
//!
//! Paper reference at 64 000 satellites: legacy 17 184 conjunctions,
//! grid 17 264, hybrid 17 242; the hybrid finds all legacy pairs (+30
//! more), the grid misses 5 (all within 50 m of the threshold) and finds
//! 35 more.

use kessler_bench::runner::run_once;
use kessler_bench::{experiment_population, maybe_write_json, Args};
use serde::Serialize;
use std::collections::HashSet;

#[derive(Serialize)]
struct AccuracyReport {
    n: usize,
    span_s: f64,
    legacy_conjunctions: usize,
    grid_conjunctions: usize,
    hybrid_conjunctions: usize,
    legacy_pairs: usize,
    grid_pairs: usize,
    hybrid_pairs: usize,
    grid_missed: Vec<(u32, u32)>,
    grid_extra: Vec<(u32, u32)>,
    hybrid_missed: Vec<(u32, u32)>,
    hybrid_extra: Vec<(u32, u32)>,
    gpusim_matches_cpu: bool,
}

fn sorted(v: HashSet<(u32, u32)>) -> Vec<(u32, u32)> {
    let mut v: Vec<_> = v.into_iter().collect();
    v.sort_unstable();
    v
}

fn main() {
    let args = Args::from_env("exp_accuracy", &["--n", "--span", "--threshold", "--json"]);
    let n = args.usize_of("--n", 2_000);
    let span = args.f64_of("--span", 600.0);
    let threshold = args.f64_of("--threshold", 2.0);
    let population = experiment_population(n);

    println!("§V-D analogue — accuracy on an identical {n}-satellite population ({span} s)\n");

    let (_, legacy) = run_once("legacy", &population, threshold, span, None);
    let (_, grid) = run_once("grid", &population, threshold, span, None);
    let (_, hybrid) = run_once("hybrid", &population, threshold, span, None);
    let (_, grid_gpu) = run_once("grid-gpusim", &population, threshold, span, None);
    let (_, hybrid_gpu) = run_once("hybrid-gpusim", &population, threshold, span, None);

    println!(
        "{:<10} {:>14} {:>16}",
        "variant", "conjunctions", "colliding pairs"
    );
    for r in [&legacy, &grid, &hybrid] {
        println!(
            "{:<10} {:>14} {:>16}",
            r.variant,
            r.conjunction_count(),
            r.colliding_pairs().len()
        );
    }

    let lp = legacy.colliding_pairs();
    let gp = grid.colliding_pairs();
    let hp = hybrid.colliding_pairs();

    let grid_missed = sorted(lp.difference(&gp).copied().collect());
    let grid_extra = sorted(gp.difference(&lp).copied().collect());
    let hybrid_missed = sorted(lp.difference(&hp).copied().collect());
    let hybrid_extra = sorted(hp.difference(&lp).copied().collect());

    println!(
        "\nvs legacy: grid misses {} pairs, finds {} extra",
        grid_missed.len(),
        grid_extra.len()
    );
    println!(
        "           hybrid misses {} pairs, finds {} extra",
        hybrid_missed.len(),
        hybrid_extra.len()
    );
    if !grid_missed.is_empty() {
        println!("  grid missed: {grid_missed:?}");
    }
    if !hybrid_missed.is_empty() {
        println!("  hybrid missed: {hybrid_missed:?}");
    }

    // "the CPU and GPU implementations producing the same number" — here
    // the same conjunctions: both backends end in the same stage.
    let gpusim_matches_cpu = grid.conjunctions == grid_gpu.conjunctions
        && hybrid.conjunctions == hybrid_gpu.conjunctions;
    println!(
        "\nCPU vs gpusim consistency: grid {} = {}, hybrid {} = {} → {}",
        grid.conjunction_count(),
        grid_gpu.conjunction_count(),
        hybrid.conjunction_count(),
        hybrid_gpu.conjunction_count(),
        if gpusim_matches_cpu {
            "match"
        } else {
            "MISMATCH"
        }
    );

    println!("\npaper reference @64k: legacy 17 184 / grid 17 264 / hybrid 17 242 conjunctions;");
    println!("hybrid misses 0 pairs (+30 extra), grid misses 5 (+35 extra), misses all");
    println!("within 50 m of the 2 km threshold.");

    let report = AccuracyReport {
        n,
        span_s: span,
        legacy_conjunctions: legacy.conjunction_count(),
        grid_conjunctions: grid.conjunction_count(),
        hybrid_conjunctions: hybrid.conjunction_count(),
        legacy_pairs: lp.len(),
        grid_pairs: gp.len(),
        hybrid_pairs: hp.len(),
        grid_missed,
        grid_extra,
        hybrid_missed,
        hybrid_extra,
        gpusim_matches_cpu,
    };
    maybe_write_json(&args, &report);
}
