//! Rolling metrics primitives: a dependency-free log-bucketed histogram
//! and per-phase series built on it.
//!
//! The §V-C.1 evaluation reports per-phase time *breakdowns*; a long-
//! running service additionally needs per-phase time *distributions* —
//! screening cost varies with catalog churn, and a mean hides the tail.
//! [`Histogram`] is an HdrHistogram-style sketch: power-of-two ranges
//! split into linear sub-buckets, so relative error is bounded (≤ 1/32
//! per bucket) while memory stays a few KiB regardless of count.
//! [`PhaseSeries`] aggregates repeated [`PhaseTimings`] into one
//! histogram per screening phase.

use crate::timing::PhaseTimings;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Linear sub-buckets per power-of-two range (as a bit count): 2⁵ = 32
/// sub-buckets, bounding the relative quantile error at ~3 %.
const SUB_BUCKET_BITS: u32 = 5;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// Bucket index of a value. Region 0 covers `[0, 32)` with width-1
/// buckets; region `k ≥ 1` covers `[32·2^(k−1), 32·2^k)` with 32 linear
/// sub-buckets of width `2^(k−1)`.
fn index_of(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let region = (msb - SUB_BUCKET_BITS + 1) as u64;
    let sub = (value >> (region - 1)) - SUB_BUCKETS;
    (region * SUB_BUCKETS + sub) as usize
}

/// Largest value mapping to bucket `index` (inclusive).
fn upper_bound_of(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let region = index >> SUB_BUCKET_BITS;
    let sub = index & (SUB_BUCKETS - 1);
    // The bucket's lowest value with every bit below its sub-bucket bits
    // set. ("Next bucket's lowest − 1" leaves `u64` for the top bucket, whose
    // bound is `u64::MAX`.)
    ((SUB_BUCKETS + sub) << (region - 1)) | ((1u64 << (region - 1)) - 1)
}

/// A log-bucketed histogram of non-negative integer samples.
///
/// Values are unit-agnostic `u64`s — the service records phase times in
/// microseconds, snapshot sizes in bytes, queue depths in jobs. Exact
/// `count`, `sum`, `min` and `max` are tracked alongside the buckets, so
/// quantiles are always clamped to the observed range.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts, grown on demand (index space is ≤ 1920 for u64).
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let index = index_of(value);
        if index >= self.counts.len() {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value as u128;
    }

    /// Record a duration in **microseconds** (saturating).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Fold another histogram in: equivalent to having recorded the union
    /// of both sample streams.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`), approximated as the
    /// upper bound of the bucket holding the target rank and clamped to
    /// the exact observed `[min, max]`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return upper_bound_of(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Serializable digest, with every value axis multiplied by `scale`
    /// (e.g. `1e-3` to report microsecond samples as milliseconds).
    pub fn summary(&self, scale: f64) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min() as f64 * scale,
            max: self.max() as f64 * scale,
            mean: self.mean() * scale,
            p50: self.p50() as f64 * scale,
            p90: self.p90() as f64 * scale,
            p99: self.p99() as f64 * scale,
        }
    }
}

/// Point-in-time digest of a [`Histogram`]: count plus scaled quantiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    pub count: u64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

/// One [`Histogram`] per screening phase, fed from [`PhaseTimings`].
/// Samples are microseconds; summaries report milliseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseSeries {
    pub insertion: Histogram,
    pub pair_extraction: Histogram,
    pub filters: Histogram,
    pub refinement: Histogram,
    pub total: Histogram,
}

impl PhaseSeries {
    pub fn new() -> PhaseSeries {
        PhaseSeries::default()
    }

    /// Record one screen's phase breakdown.
    pub fn record(&mut self, timings: &PhaseTimings) {
        self.insertion.record_duration(timings.insertion);
        self.pair_extraction
            .record_duration(timings.pair_extraction);
        self.filters.record_duration(timings.filters);
        self.refinement.record_duration(timings.refinement);
        self.total.record_duration(timings.total);
    }

    /// Screens recorded so far.
    pub fn count(&self) -> u64 {
        self.total.count()
    }

    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    pub fn merge(&mut self, other: &PhaseSeries) {
        self.insertion.merge(&other.insertion);
        self.pair_extraction.merge(&other.pair_extraction);
        self.filters.merge(&other.filters);
        self.refinement.merge(&other.refinement);
        self.total.merge(&other.total);
    }

    /// Per-phase digests in **milliseconds**.
    pub fn summaries(&self) -> PhaseSummaries {
        const US_TO_MS: f64 = 1e-3;
        PhaseSummaries {
            screens: self.count(),
            insertion: self.insertion.summary(US_TO_MS),
            pair_extraction: self.pair_extraction.summary(US_TO_MS),
            filters: self.filters.summary(US_TO_MS),
            refinement: self.refinement.summary(US_TO_MS),
            total: self.total.summary(US_TO_MS),
        }
    }
}

/// Per-phase quantile digests (milliseconds) across repeated screens —
/// what `results_*.json` trajectories and the service METRICS verb carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseSummaries {
    /// Screens aggregated into these digests.
    pub screens: u64,
    pub insertion: HistogramSummary,
    pub pair_extraction: HistogramSummary,
    pub filters: HistogramSummary,
    pub refinement: HistogramSummary,
    pub total: HistogramSummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_monotonic_and_bounded() {
        let mut last = 0usize;
        for v in 0..4096u64 {
            let i = index_of(v);
            assert!(i >= last, "index regressed at {v}");
            assert!(v <= upper_bound_of(i), "{v} above its bucket bound");
            last = i;
        }
        // Every bucket's upper bound maps back into the same bucket.
        for i in 0..=index_of(u64::MAX) {
            assert_eq!(index_of(upper_bound_of(i)), i, "bucket {i}");
        }
        assert!(index_of(u64::MAX) < 1920);
    }

    /// The top bucket ends at `u64::MAX` — what `record_duration` saturates
    /// to — and its bound must be computed without leaving `u64`.
    #[test]
    fn the_largest_sample_is_its_own_quantile() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.0), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.summary(1.0).max, u64::MAX as f64);
    }

    #[test]
    fn exact_below_32_and_within_3pct_above() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 31] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.p50(), 1);

        let mut h = Histogram::new();
        h.record(1_000_000);
        let q = h.p50();
        assert!(
            (q as f64 - 1e6).abs() / 1e6 <= 1.0 / 32.0,
            "p50 {q} more than 3% off"
        );
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary(1.0), HistogramSummary::default());
    }

    #[test]
    fn durations_record_as_microseconds() {
        let mut h = Histogram::new();
        h.record_duration(Duration::from_millis(3));
        assert_eq!(h.min(), 3_000);
        let s = h.summary(1e-3);
        assert_eq!(s.count, 1);
        assert!((s.min - 3.0).abs() < 1e-9, "ms scaling: {s:?}");
    }

    #[test]
    fn phase_series_counts_and_reports_ms() {
        let mut series = PhaseSeries::new();
        for ms in [10u64, 20, 30] {
            series.record(&PhaseTimings {
                insertion: Duration::from_millis(ms),
                pair_extraction: Duration::from_millis(2 * ms),
                filters: Duration::ZERO,
                refinement: Duration::from_millis(ms / 2),
                total: Duration::from_millis(4 * ms),
            });
        }
        assert_eq!(series.count(), 3);
        let s = series.summaries();
        assert_eq!(s.screens, 3);
        assert!(s.insertion.min >= 10.0 && s.insertion.max <= 31.0);
        assert!(s.total.p99 >= s.total.p50);
        assert_eq!(s.filters.max, 0.0);
    }

    fn recorded(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    /// splitmix64 (Steele, Lea & Flood): the whole generator state is one
    /// `u64`, so a failing case replays from the seed its message prints.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// `min..max` values spread over all 64 magnitudes (a uniform
        /// `u64` would almost never land in the exact low buckets).
        fn values(&mut self, min: u64, max: u64) -> Vec<u64> {
            let len = min + self.next() % (max - min);
            (0..len)
                .map(|_| {
                    let shift = self.next() % 64;
                    self.next() >> shift
                })
                .collect()
        }
    }

    const CASES: u64 = 256;

    /// Count conservation: the histogram never loses or invents samples,
    /// and bucket totals match the exact counter.
    #[test]
    fn seeded_count_conservation() {
        for seed in 0..CASES {
            let values = SplitMix64(seed).values(0, 200);
            let h = recorded(&values);
            assert_eq!(h.count(), values.len() as u64, "seed {seed}");
            assert_eq!(
                h.counts.iter().sum::<u64>(),
                values.len() as u64,
                "seed {seed}"
            );
        }
    }

    /// Quantiles are bounded by the observed extremes for every q.
    #[test]
    fn seeded_quantile_bounded_by_min_max() {
        for seed in 0..CASES {
            let mut rng = SplitMix64(seed);
            let values = rng.values(1, 200);
            let q = (rng.next() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
            let h = recorded(&values);
            let lo = *values.iter().min().unwrap();
            let hi = *values.iter().max().unwrap();
            let quant = h.quantile(q);
            assert!(
                quant >= lo && quant <= hi,
                "seed {seed}: {lo} ≤ {quant} ≤ {hi} violated at q = {q}"
            );
            // The extremes: the top is exact (its bucket's upper bound
            // clamps to the maximum), the bottom is the upper bound of the
            // minimum's bucket, clamped the same way.
            let bottom = h.quantile(0.0);
            assert!(
                lo <= bottom && bottom <= upper_bound_of(index_of(lo)),
                "seed {seed}: q0 {bottom} outside the bucket of {lo}"
            );
            assert_eq!(h.quantile(1.0), hi, "seed {seed}");
        }
    }

    /// Merging is exactly equivalent to recording the union stream.
    #[test]
    fn seeded_merge_equals_union() {
        for seed in 0..CASES {
            let mut rng = SplitMix64(seed);
            let (a, b) = (rng.values(0, 100), rng.values(0, 100));
            let mut merged = recorded(&a);
            merged.merge(&recorded(&b));
            let union: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
            // Bucket-level equality implies identical quantiles for all q.
            let mut expected = recorded(&union);
            // Normalise trailing-zero bucket tails before comparing.
            while merged.counts.last() == Some(&0) {
                merged.counts.pop();
            }
            while expected.counts.last() == Some(&0) {
                expected.counts.pop();
            }
            assert_eq!(merged, expected, "seed {seed}");
        }
    }
}
