//! Variant runner: maps variant labels to screeners and collects rows.

use kessler_core::{default_config_for, screener_for, ScreeningReport};
use kessler_orbits::KeplerElements;
use serde::Serialize;

/// All variant labels in the paper's Fig. 10 ordering.
pub const ALL_VARIANTS: [&str; 5] = ["legacy", "grid", "hybrid", "grid-gpusim", "hybrid-gpusim"];

/// One measurement row (a point of a Fig. 10 series).
#[derive(Debug, Clone, Serialize)]
pub struct RunRow {
    pub variant: String,
    pub n: usize,
    pub seconds: f64,
    pub conjunctions: usize,
    pub colliding_pairs: usize,
    pub candidate_pairs: usize,
}

impl RunRow {
    pub fn from_report(report: &ScreeningReport) -> RunRow {
        RunRow {
            variant: report.variant.clone(),
            n: report.n_satellites,
            seconds: report.timings.total.as_secs_f64(),
            conjunctions: report.conjunction_count(),
            colliding_pairs: report.colliding_pairs().len(),
            candidate_pairs: report.candidate_pairs,
        }
    }
}

/// Run one variant on a population and return (row, full report).
pub fn run_once(
    label: &str,
    population: &[KeplerElements],
    threshold_km: f64,
    span_seconds: f64,
    threads: Option<usize>,
) -> (RunRow, ScreeningReport) {
    let mut config =
        default_config_for(label, threshold_km, span_seconds).unwrap_or_else(|e| panic!("{e}"));
    config.threads = threads;
    let report = screener_for(label, config)
        .unwrap_or_else(|e| panic!("{e}"))
        .screen(population);
    (RunRow::from_report(&report), report)
}

/// Print rows as an aligned table.
pub fn print_rows(rows: &[RunRow]) {
    println!(
        "{:<15} {:>9} {:>12} {:>13} {:>14} {:>15}",
        "variant", "n", "time [s]", "conjunctions", "pairs", "candidates"
    );
    for r in rows {
        println!(
            "{:<15} {:>9} {:>12.3} {:>13} {:>14} {:>15}",
            r.variant, r.n, r.seconds, r.conjunctions, r.colliding_pairs, r.candidate_pairs
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment_population;

    #[test]
    fn every_variant_label_builds_and_runs() {
        let pop = experiment_population(40);
        for label in ALL_VARIANTS {
            let (row, report) = run_once(label, &pop, 2.0, 30.0, Some(1));
            assert_eq!(row.n, 40);
            assert_eq!(report.n_satellites, 40);
            assert!(row.seconds > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "unknown variant")]
    fn unknown_label_panics() {
        run_once("warp-drive", &[], 2.0, 60.0, None);
    }
}
