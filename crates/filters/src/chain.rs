//! The composed filter chain.
//!
//! The legacy baseline pushes **all** n(n−1)/2 pairs through this chain;
//! the hybrid variant pushes only the grid's candidate pairs (§III). Both
//! receive the same decision: excluded at some stage, coplanar (search by
//! sampling), or a set of time windows to search with Brent.

use crate::apsis::apsis_filter;
use crate::coplanar::{are_coplanar, DEFAULT_COPLANAR_TOLERANCE};
use crate::path::orbit_path_filter;
use crate::timefilter::time_filter;
use kessler_math::interval::Interval;
use kessler_orbits::geometry::OrbitFrame;
use kessler_orbits::KeplerElements;
use serde::{Deserialize, Serialize};
use std::ops::Add;

/// Extra padding added to the threshold inside the geometric filters to
/// absorb the node-approximation error of the orbit-path filter, km.
const PADDING_KM: f64 = 15.0;

/// Filter chain configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FilterConfig {
    /// Screening threshold `d` in km (the paper evaluates with 2 km).
    pub threshold_km: f64,
}

impl FilterConfig {
    pub fn new(threshold_km: f64) -> FilterConfig {
        FilterConfig { threshold_km }
    }

    /// Effective distance used by the exclusion filters.
    #[inline]
    pub fn padded_threshold(&self) -> f64 {
        self.threshold_km + PADDING_KM
    }
}

/// Decision of the chain for one pair.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterDecision {
    /// Excluded by the apogee/perigee filter.
    ExcludedApsis,
    /// Excluded by the orbit-path filter.
    ExcludedPath,
    /// Excluded by the time filter (no simultaneous windows in the span).
    ExcludedTime,
    /// The planes are coplanar; node-based filters don't apply and the
    /// pair must be searched by time sampling.
    Coplanar,
    /// Kept, with the time windows (seconds past epoch) to search.
    Windows(Vec<Interval>),
}

/// Per-stage counts of a batch of decisions: how many pairs each stage
/// excluded, how many went to the coplanar search and how many were kept
/// with windows. Counted off the decisions, so the chain itself is pure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterStatsSnapshot {
    pub tested: u64,
    pub excluded_apsis: u64,
    pub excluded_path: u64,
    pub excluded_time: u64,
    pub coplanar: u64,
    pub kept: u64,
}

impl FilterStatsSnapshot {
    /// Count one decision.
    pub fn record(&mut self, decision: &FilterDecision) {
        self.tested += 1;
        match decision {
            FilterDecision::ExcludedApsis => self.excluded_apsis += 1,
            FilterDecision::ExcludedPath => self.excluded_path += 1,
            FilterDecision::ExcludedTime => self.excluded_time += 1,
            FilterDecision::Coplanar => self.coplanar += 1,
            FilterDecision::Windows(_) => self.kept += 1,
        }
    }
}

/// Counts of two disjoint batches (parallel folds, running totals).
impl Add for FilterStatsSnapshot {
    type Output = FilterStatsSnapshot;

    fn add(self, rhs: FilterStatsSnapshot) -> FilterStatsSnapshot {
        FilterStatsSnapshot {
            tested: self.tested + rhs.tested,
            excluded_apsis: self.excluded_apsis + rhs.excluded_apsis,
            excluded_path: self.excluded_path + rhs.excluded_path,
            excluded_time: self.excluded_time + rhs.excluded_time,
            coplanar: self.coplanar + rhs.coplanar,
            kept: self.kept + rhs.kept,
        }
    }
}

/// The classical filter chain.
pub struct FilterChain {
    pub config: FilterConfig,
}

impl FilterChain {
    pub fn new(config: FilterConfig) -> FilterChain {
        FilterChain { config }
    }

    /// Run the chain on one pair over the screening `span`
    /// (seconds past the common epoch).
    pub fn evaluate(
        &self,
        a: &KeplerElements,
        b: &KeplerElements,
        span: Interval,
    ) -> FilterDecision {
        let padded = self.config.padded_threshold();

        // Stage 1: apogee/perigee.
        if !apsis_filter(a, b, padded) {
            return FilterDecision::ExcludedApsis;
        }

        // The node-based stages share each orbit's geometry.
        let (fa, fb) = (OrbitFrame::new(a), OrbitFrame::new(b));

        // Stage 2: coplanarity split. Coplanar pairs bypass the node-based
        // filters (§IV-C: "For the coplanar ones, the procedure is the same
        // as for the grid-based variant").
        if are_coplanar(&fa, &fb, DEFAULT_COPLANAR_TOLERANCE) {
            return FilterDecision::Coplanar;
        }

        // Stage 3: orbit-path filter.
        if !orbit_path_filter(&fa, &fb, padded) {
            return FilterDecision::ExcludedPath;
        }

        // Stage 4: time filter. Use the *padded* threshold so the windows
        // are conservative Brent brackets.
        match time_filter(a, &fa, b, &fb, padded, span) {
            Some(windows) if windows.is_empty() => FilterDecision::ExcludedTime,
            Some(windows) => FilterDecision::Windows(windows),
            // Borderline coplanarity slipped past the tolerance check.
            None => FilterDecision::Coplanar,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn el(a: f64, e: f64, i: f64, raan: f64, argp: f64, m0: f64) -> KeplerElements {
        KeplerElements::new(a, e, i, raan, argp, m0).unwrap()
    }

    fn chain() -> FilterChain {
        FilterChain::new(FilterConfig::new(2.0))
    }

    fn counts<'a>(decisions: impl IntoIterator<Item = &'a FilterDecision>) -> FilterStatsSnapshot {
        let mut stats = FilterStatsSnapshot::default();
        for d in decisions {
            stats.record(d);
        }
        stats
    }

    /// One pair for each decision (apsis, path, coplanar, time, windows)
    /// and a span of two LEO periods.
    fn mixed_pairs() -> (Vec<(KeplerElements, KeplerElements)>, Interval) {
        let leo = el(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0);
        let pairs = vec![
            (leo, el(42_164.0, 0.0, 0.1, 0.0, 0.0, 0.0)),
            (
                el(7_000.0, 0.0, 0.2, 0.0, 0.0, 0.0),
                el(7_300.0, 0.045, 1.2, 0.0, PI / 2.0, 0.0),
            ),
            (leo, el(7_005.0, 0.002, 0.4, 0.0, 2.0, 1.0)),
            (leo, el(7_000.0, 0.0, 1.2, 1.0, 0.0, PI)),
            (leo, el(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.0)),
        ];
        (pairs, Interval::new(0.0, 2.0 * leo.period()))
    }

    #[test]
    fn leo_vs_geo_is_excluded_by_apsis() {
        let c = chain();
        let span = Interval::new(0.0, 6_000.0);
        let d = c.evaluate(
            &el(7_000.0, 0.001, 0.9, 0.0, 0.0, 0.0),
            &el(42_164.0, 0.0, 0.1, 0.0, 0.0, 0.0),
            span,
        );
        assert_eq!(d, FilterDecision::ExcludedApsis);
        let s = counts([&d]);
        assert_eq!(s.tested, 1);
        assert_eq!(s.excluded_apsis, 1);
    }

    #[test]
    fn radially_separated_crossing_orbits_are_excluded_by_path() {
        let c = chain();
        let span = Interval::new(0.0, 6_000.0);
        // Two circular orbits cannot reach the path stage with a gap above
        // the padded threshold (17 km): the apsis filter already excludes
        // them. An eccentric orbit can — its shell overlaps the ring while
        // its curve stays far from it near the nodes.
        let a = el(7_000.0, 0.0, 0.2, 0.0, 0.0, 0.0);
        // Orbit with perigee 6970, apogee 7630 (shells overlap), but node
        // geometry placing the crossing radius away from 7000:
        // argp chosen so the node radius is near apogee.
        let b = el(7_300.0, 0.045, 1.2, 0.0, PI / 2.0, 0.0);
        let d = c.evaluate(&a, &b, span);
        // Node line for raan1=raan2=0 planes is the X axis; orbit b crosses
        // it at f = ±π/2 from perigee → r = p ≈ 7285 km, ~285 km from orbit
        // a's 7000 km ring. The path filter must exclude.
        assert_eq!(d, FilterDecision::ExcludedPath);
    }

    #[test]
    fn coplanar_pairs_are_classified_coplanar() {
        let c = chain();
        let span = Interval::new(0.0, 6_000.0);
        let d = c.evaluate(
            &el(7_000.0, 0.001, 0.9, 1.0, 0.0, 0.0),
            &el(7_005.0, 0.002, 0.9, 1.0, 2.0, 1.0),
            span,
        );
        assert_eq!(d, FilterDecision::Coplanar);
    }

    #[test]
    fn anti_phased_pair_is_excluded_by_time_filter() {
        let c = chain();
        let a = el(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0);
        let b = el(7_000.0, 0.0, 1.2, 1.0, 0.0, PI);
        let span = Interval::new(0.0, 2.0 * a.period());
        let d = c.evaluate(&a, &b, span);
        assert_eq!(d, FilterDecision::ExcludedTime);
    }

    #[test]
    fn co_phased_crossing_pair_yields_windows() {
        let c = chain();
        let a = el(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0);
        let b = el(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.0);
        let span = Interval::new(0.0, 2.0 * a.period());
        let d = c.evaluate(&a, &b, span);
        match &d {
            FilterDecision::Windows(w) => {
                assert!(!w.is_empty());
                for iv in w {
                    assert!(iv.start >= span.start - 1e-9 && iv.end <= span.end + 1e-9);
                }
            }
            other => panic!("expected windows, got {other:?}"),
        }
        assert_eq!(counts([&d]).kept, 1);
    }

    #[test]
    fn stats_accumulate_and_sum() {
        let c = chain();
        let (pairs, span) = mixed_pairs();
        let decisions: Vec<FilterDecision> =
            pairs.iter().map(|(a, b)| c.evaluate(a, b, span)).collect();
        let one_each = FilterStatsSnapshot {
            tested: 5,
            excluded_apsis: 1,
            excluded_path: 1,
            excluded_time: 1,
            coplanar: 1,
            kept: 1,
        };
        assert_eq!(counts(&decisions), one_each);
        assert_eq!(counts(&decisions[..2]) + counts(&decisions[2..]), one_each);
        assert_eq!(one_each + FilterStatsSnapshot::default(), one_each);
    }

    #[test]
    fn chain_is_thread_safe() {
        // Four threads share one chain: each sees the serial decisions, and
        // their counts sum to the serial counts of the same 100 batches.
        let c = chain();
        let (pairs, span) = mixed_pairs();
        let batch = || -> Vec<FilterDecision> {
            pairs.iter().map(|(a, b)| c.evaluate(a, b, span)).collect()
        };
        let serial = batch();
        let serial_counts = counts(std::iter::repeat_n(&serial, 100).flatten());
        let summed = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut stats = FilterStatsSnapshot::default();
                        for _ in 0..25 {
                            let decisions = batch();
                            assert_eq!(decisions, serial);
                            stats = stats + counts(&decisions);
                        }
                        stats
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .fold(FilterStatsSnapshot::default(), |sum, s| sum + s)
        });
        assert_eq!(summed, serial_counts);
    }
}
