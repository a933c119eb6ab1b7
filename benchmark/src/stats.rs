//! Order statistics over timing samples.

/// The `q`-quantile of `sorted` by linear interpolation between closest
/// ranks. `sorted` must be ascending and non-empty.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// A bag of samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// 0 for an empty bag, so a layer that did no work reads as zero.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        quantile_sorted(&sorted, q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The samples in the order taken, for the run's log.
    pub fn listing(&self) -> String {
        let shown: Vec<String> = self.values.iter().map(|v| format!("{v:.4}")).collect();
        shown.join(" ")
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        Samples {
            values: iter.into_iter().collect(),
        }
    }
}

/// Distance between the quartiles as a share of the median: the spread the
/// benchmark's bounds are derived from. Quartiles are taken the way
/// Python's `statistics.quantiles(values, n=4)` takes them (exclusive
/// method), because the driver that accepts the benchmark uses that.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: usize| -> f64 {
        // Position k·(n+1)/4 in 1-based ranks, clamped to the data.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    let median = quantile_sorted(&sorted, 0.5);
    if median == 0.0 {
        return 0.0;
    }
    (at(3) - at(1)) / median.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s: Samples = [4.0, 1.0, 3.0, 2.0].into_iter().collect();
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(Samples::new().median(), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 40, 10.5], n=4) == [10.25, 11.0, 26.0]
        let v = [10.0, 12.0, 11.0, 40.0, 10.5];
        assert!((quartile_spread(&v) - (26.0 - 10.25) / 11.0).abs() < 1e-12);
    }
}
