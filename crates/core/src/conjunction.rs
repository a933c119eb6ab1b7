//! Conjunction records and screening reports.
//!
//! The paper's accuracy discussion (§V-D) distinguishes *conjunctions*
//! (every local distance minimum below the threshold — a pair can have
//! several across the span) from *colliding pairs* (distinct satellite
//! pairs with at least one conjunction). Both views live here, together
//! with the TCA-based deduplication that collapses the same physical
//! minimum found from two overlapping step intervals.

use crate::config::ScreeningConfig;
use crate::planner::PlannerReport;
use crate::timing::PhaseTimings;
use kessler_filters::chain::FilterStatsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// One detected conjunction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Conjunction {
    /// Smaller satellite id.
    pub id_lo: u32,
    /// Larger satellite id.
    pub id_hi: u32,
    /// Time of closest approach, seconds past the element epoch.
    pub tca: f64,
    /// Point of closest approach: the minimum distance, km.
    pub pca_km: f64,
}

impl Conjunction {
    pub fn pair(&self) -> (u32, u32) {
        (self.id_lo, self.id_hi)
    }
}

/// Sort + dedup a conjunction list: entries of the same pair whose TCAs lie
/// within `tca_tol` seconds are one physical conjunction (the one with the
/// smaller PCA is kept).
pub fn dedup_conjunctions(mut found: Vec<Conjunction>, tca_tol: f64) -> Vec<Conjunction> {
    found.sort_by(|a, b| {
        (a.id_lo, a.id_hi)
            .cmp(&(b.id_lo, b.id_hi))
            .then(a.tca.total_cmp(&b.tca))
    });
    let mut out: Vec<Conjunction> = Vec::with_capacity(found.len());
    for c in found {
        match out.last_mut() {
            Some(last) if last.pair() == c.pair() && (c.tca - last.tca).abs() <= tca_tol => {
                // Same physical minimum; keep the deeper refinement.
                if c.pca_km < last.pca_km {
                    *last = c;
                }
            }
            _ => out.push(c),
        }
    }
    out
}

/// Complete result of one screening run.
#[derive(Debug, Clone, Serialize)]
pub struct ScreeningReport {
    /// Variant label ("grid", "hybrid", "legacy", "grid-gpusim", …).
    pub variant: String,
    /// Population size.
    pub n_satellites: usize,
    /// Configuration as the run was given it. The step the run sampled
    /// at, after the planner's adjustment, is `planner.seconds_per_sample`.
    pub config: ScreeningConfig,
    /// Deduplicated conjunctions, sorted by pair then TCA.
    pub conjunctions: Vec<Conjunction>,
    /// Total candidate (pair, step) entries produced by the grid phase
    /// (0 for the legacy variant, which has no grid).
    pub candidate_entries: usize,
    /// Distinct candidate pairs examined.
    pub candidate_pairs: usize,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// Planner output for this run.
    pub planner: PlannerReport,
    /// Filter-chain statistics (hybrid/legacy only).
    pub filter_stats: Option<FilterStatsSnapshot>,
    /// GPU-simulator metrics (gpusim variants only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub device_metrics: Option<kessler_gpusim::DeviceMetrics>,
}

impl ScreeningReport {
    /// Number of conjunctions (the paper's per-variant headline count).
    pub fn conjunction_count(&self) -> usize {
        self.conjunctions.len()
    }

    /// The distinct colliding pairs (§V-D's second metric).
    pub fn colliding_pairs(&self) -> HashSet<(u32, u32)> {
        self.conjunctions.iter().map(Conjunction::pair).collect()
    }

    /// Pairs found by `self` but not by `other` (accuracy comparison).
    pub fn pairs_missing_from(&self, other: &ScreeningReport) -> Vec<(u32, u32)> {
        let mine = self.colliding_pairs();
        let theirs = other.colliding_pairs();
        let mut missing: Vec<_> = mine.difference(&theirs).copied().collect();
        missing.sort_unstable();
        missing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(lo: u32, hi: u32, tca: f64, pca: f64) -> Conjunction {
        Conjunction {
            id_lo: lo,
            id_hi: hi,
            tca,
            pca_km: pca,
        }
    }

    #[test]
    fn dedup_merges_close_tcas_keeping_best_pca() {
        let deduped = dedup_conjunctions(
            vec![
                c(1, 2, 100.00, 1.5),
                c(1, 2, 100.02, 1.2), // same minimum, deeper
                c(1, 2, 500.0, 0.9),  // second conjunction of the pair
            ],
            0.05,
        );
        assert_eq!(deduped.len(), 2);
        assert!((deduped[0].pca_km - 1.2).abs() < 1e-12);
        assert!((deduped[1].tca - 500.0).abs() < 1e-12);
    }

    #[test]
    fn dedup_keeps_different_pairs_apart() {
        let deduped = dedup_conjunctions(
            vec![
                c(1, 2, 100.0, 1.0),
                c(1, 3, 100.0, 1.0),
                c(2, 3, 100.0, 1.0),
            ],
            0.05,
        );
        assert_eq!(deduped.len(), 3);
    }

    #[test]
    fn dedup_chain_of_close_tcas_collapses() {
        // 100.00, 100.04, 100.08 — each within tol of its neighbour.
        let deduped = dedup_conjunctions(
            vec![
                c(1, 2, 100.0, 1.0),
                c(1, 2, 100.04, 0.8),
                c(1, 2, 100.08, 0.9),
            ],
            0.05,
        );
        assert_eq!(deduped.len(), 1);
        assert!((deduped[0].pca_km - 0.8).abs() < 1e-12);
    }

    #[test]
    fn dedup_of_empty_input() {
        assert!(dedup_conjunctions(vec![], 0.05).is_empty());
    }

    #[test]
    fn dedup_output_is_sorted() {
        let deduped = dedup_conjunctions(
            vec![c(3, 4, 5.0, 1.0), c(1, 2, 9.0, 1.0), c(1, 2, 2.0, 1.0)],
            0.05,
        );
        assert_eq!(
            deduped.iter().map(Conjunction::pair).collect::<Vec<_>>(),
            vec![(1, 2), (1, 2), (3, 4)]
        );
        assert!(deduped[0].tca < deduped[1].tca);
    }
}
