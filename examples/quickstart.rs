//! Quickstart: generate a synthetic population and screen it with all
//! three variants, printing the paper-style summary.
//!
//! ```text
//! cargo run --release --example quickstart [-- <n_satellites> <span_seconds>]
//! ```

use kessler::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|a| a.parse().expect("n_satellites must be an integer"))
        .unwrap_or(500);
    let span: f64 = args
        .next()
        .map(|a| a.parse().expect("span_seconds must be a number"))
        .unwrap_or(600.0);
    let threshold_km = 2.0;

    println!("kessler quickstart — {n} satellites, {span} s span, {threshold_km} km threshold");
    println!("generating population from the catalog KDE model…");
    let population = PopulationGenerator::new(PopulationConfig::default()).generate(n);

    let grid_cfg = ScreeningConfig::grid_defaults(threshold_km, span);
    let hybrid_cfg = ScreeningConfig::hybrid_defaults(threshold_km, span);
    let screeners: Vec<Box<dyn Screener>> = vec![
        Box::new(GridScreener::new(grid_cfg)),
        Box::new(HybridScreener::new(hybrid_cfg)),
        Box::new(LegacyScreener::new(grid_cfg)),
    ];

    println!(
        "\n{:<10} {:>12} {:>14} {:>14} {:>10}",
        "variant", "time [ms]", "cand. pairs", "conjunctions", "pairs"
    );
    for s in &screeners {
        let report = s.screen(&population);
        println!(
            "{:<10} {:>12.1} {:>14} {:>14} {:>10}",
            report.variant,
            report.timings.total.as_secs_f64() * 1e3,
            report.candidate_pairs,
            report.conjunction_count(),
            report.colliding_pairs().len(),
        );
    }

    println!("\ndone — see `cargo run -p kessler-bench --bin exp_fig10` for the paper's sweeps");
}
