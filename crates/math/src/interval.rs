//! Closed intervals on the real line, used as *time windows*.
//!
//! The classical time filter (§II, Hoots filter 3) produces per-satellite
//! true-anomaly windows that are converted to time windows modulo the
//! orbital period; two objects can only produce a conjunction while their
//! windows overlap. This module provides the interval algebra that the
//! filter composes: intersection, periodic unrolling, and union of window
//! sets.

use serde::{Deserialize, Serialize};

/// A closed interval `[start, end]`. Empty iff `start > end`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    pub start: f64,
    pub end: f64,
}

impl Interval {
    /// Create an interval; no ordering requirement is imposed so callers can
    /// represent "empty" naturally as `start > end`.
    #[inline]
    pub const fn new(start: f64, end: f64) -> Interval {
        Interval { start, end }
    }

    /// Length, or 0 for empty intervals.
    #[inline]
    pub fn length(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start > self.end
    }

    /// Whether `x` lies inside (closed bounds).
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        self.start <= x && x <= self.end
    }

    /// Intersection, empty if disjoint.
    #[inline]
    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval::new(self.start.max(other.start), self.end.min(other.end))
    }

    /// Grow symmetrically by `pad` on each side.
    #[inline]
    pub fn padded(&self, pad: f64) -> Interval {
        Interval::new(self.start - pad, self.end + pad)
    }

    /// Midpoint (meaningless for empty intervals).
    #[inline]
    pub fn center(&self) -> f64 {
        0.5 * (self.start + self.end)
    }

    /// Unroll a window defined modulo `period` across `span`, producing every
    /// concrete occurrence intersecting `span`.
    ///
    /// `self` is interpreted relative to phase 0 of the cycle and may
    /// straddle the cycle boundary (e.g. `[-0.1·P, 0.1·P]`).
    pub fn unroll_periodic(&self, period: f64, span: &Interval) -> Vec<Interval> {
        assert!(period > 0.0, "period must be positive");
        let mut out = Vec::new();
        if self.is_empty() || span.is_empty() {
            return out;
        }
        // First repetition index k such that self.end + k*period >= span.start.
        let k0 = ((span.start - self.end) / period).floor() as i64;
        let k1 = ((span.end - self.start) / period).ceil() as i64;
        for k in k0..=k1 {
            let shifted =
                Interval::new(self.start + k as f64 * period, self.end + k as f64 * period);
            let clipped = shifted.intersect(span);
            if !clipped.is_empty() {
                out.push(clipped);
            }
        }
        out
    }
}

/// Merge an unsorted collection of intervals into a minimal sorted disjoint
/// set. Empty inputs are dropped. Adjacent intervals whose gap is at most
/// `join_tol` are merged (the time filter uses this to fuse windows split by
/// floating-point jitter).
pub fn merge_intervals(mut intervals: Vec<Interval>, join_tol: f64) -> Vec<Interval> {
    intervals.retain(|iv| !iv.is_empty());
    intervals.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut out: Vec<Interval> = Vec::with_capacity(intervals.len());
    for iv in intervals {
        match out.last_mut() {
            Some(last) if iv.start <= last.end + join_tol => {
                last.end = last.end.max(iv.end);
            }
            _ => out.push(iv),
        }
    }
    out
}

/// Pairwise intersection of two sorted disjoint window sets.
///
/// Linear two-pointer sweep; both inputs must be sorted by `start` (as
/// produced by [`merge_intervals`]).
pub fn intersect_sets(a: &[Interval], b: &[Interval]) -> Vec<Interval> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let iv = a[i].intersect(&b[j]);
        if !iv.is_empty() {
            out.push(iv);
        }
        if a[i].end < b[j].end {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_interval_properties() {
        let e = Interval::new(2.0, 1.0);
        assert!(e.is_empty());
        assert_eq!(e.length(), 0.0);
        assert!(!e.contains(1.5));
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(2.0, 3.0);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn intersect_touching_endpoints() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(1.0, 2.0);
        let i = a.intersect(&b);
        assert!(!i.is_empty());
        assert_eq!((i.start, i.end), (1.0, 1.0));
    }

    #[test]
    fn unroll_periodic_covers_span() {
        // Window [0, 1] each 10-second cycle, unrolled over [0, 35].
        let w = Interval::new(0.0, 1.0);
        let occurrences = w.unroll_periodic(10.0, &Interval::new(0.0, 35.0));
        assert_eq!(occurrences.len(), 4);
        assert_eq!(occurrences[0], Interval::new(0.0, 1.0));
        assert_eq!(occurrences[3], Interval::new(30.0, 31.0));
    }

    #[test]
    fn unroll_periodic_straddling_cycle_boundary() {
        // Window straddling phase 0: [-1, 1] mod 10 over [0, 20].
        let w = Interval::new(-1.0, 1.0);
        let occ = w.unroll_periodic(10.0, &Interval::new(0.0, 20.0));
        // Occurrences: [0,1] (k=0 clipped), [9,11], [19,20] (clipped).
        assert_eq!(occ.len(), 3);
        assert_eq!(occ[0], Interval::new(0.0, 1.0));
        assert_eq!(occ[1], Interval::new(9.0, 11.0));
        assert_eq!(occ[2], Interval::new(19.0, 20.0));
    }

    #[test]
    fn merge_overlapping_intervals() {
        let merged = merge_intervals(
            vec![
                Interval::new(5.0, 6.0),
                Interval::new(0.0, 2.0),
                Interval::new(1.5, 3.0),
                Interval::new(10.0, 9.0), // empty, dropped
            ],
            0.0,
        );
        assert_eq!(
            merged,
            vec![Interval::new(0.0, 3.0), Interval::new(5.0, 6.0)]
        );
    }

    #[test]
    fn merge_with_join_tolerance() {
        let merged = merge_intervals(vec![Interval::new(0.0, 1.0), Interval::new(1.05, 2.0)], 0.1);
        assert_eq!(merged, vec![Interval::new(0.0, 2.0)]);
    }

    #[test]
    fn intersect_sets_two_pointer() {
        let a = vec![Interval::new(0.0, 5.0), Interval::new(10.0, 15.0)];
        let b = vec![Interval::new(3.0, 11.0), Interval::new(14.0, 20.0)];
        let i = intersect_sets(&a, &b);
        assert_eq!(
            i,
            vec![
                Interval::new(3.0, 5.0),
                Interval::new(10.0, 11.0),
                Interval::new(14.0, 15.0)
            ]
        );
    }

    proptest! {
        #[test]
        fn intersection_is_subset(a0 in -100.0..100.0f64, a1 in -100.0..100.0f64,
                                  b0 in -100.0..100.0f64, b1 in -100.0..100.0f64) {
            let a = Interval::new(a0.min(a1), a0.max(a1));
            let b = Interval::new(b0.min(b1), b0.max(b1));
            let i = a.intersect(&b);
            if !i.is_empty() {
                prop_assert!(i.start >= a.start && i.end <= a.end);
                prop_assert!(i.start >= b.start && i.end <= b.end);
            }
        }

        #[test]
        fn merged_intervals_are_sorted_and_disjoint(
            raw in proptest::collection::vec((-100.0..100.0f64, 0.0..10.0f64), 0..40)
        ) {
            let ivs: Vec<Interval> = raw.iter()
                .map(|&(s, len)| Interval::new(s, s + len))
                .collect();
            let total_input: f64 = ivs.iter().map(Interval::length).sum();
            let merged = merge_intervals(ivs, 0.0);
            for w in merged.windows(2) {
                prop_assert!(w[0].end < w[1].start);
            }
            let total_merged: f64 = merged.iter().map(Interval::length).sum();
            // Merging can only reduce total measure (overlaps collapse).
            prop_assert!(total_merged <= total_input + 1e-9);
        }

        #[test]
        fn unrolled_occurrences_stay_in_span(start in -5.0..5.0f64, len in 0.0..3.0f64,
                                             period in 1.0..50.0f64,
                                             span_len in 0.0..200.0f64) {
            let w = Interval::new(start, start + len);
            let span = Interval::new(0.0, span_len);
            for occ in w.unroll_periodic(period, &span) {
                prop_assert!(occ.start >= span.start - 1e-9);
                prop_assert!(occ.end <= span.end + 1e-9);
                prop_assert!(!occ.is_empty());
            }
        }
    }
}
