//! Device metrics: kernel launches, thread counts, transfer volumes and
//! per-kernel wall time, kept in the one [`DeviceMetrics`] shape the device
//! accumulates and reports.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Duration;

/// A device's counters: accumulated in place behind the device mutex, and
/// handed out as a clone by [`crate::Device::metrics`], which fills in
/// `allocated_bytes` from the live allocation count.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DeviceMetrics {
    pub kernel_launches: u64,
    pub threads_executed: u64,
    pub bytes_h2d: u64,
    pub bytes_d2h: u64,
    pub allocated_bytes: u64,
    pub kernel_time: BTreeMap<String, Duration>,
}

impl DeviceMetrics {
    /// Total kernel wall time across all kernels.
    pub fn total_kernel_time(&self) -> Duration {
        self.kernel_time.values().sum()
    }

    /// Fraction of total kernel time spent in kernels whose name contains
    /// `tag` (used by the §V-C.1 breakdown).
    pub fn time_fraction(&self, tag: &str) -> f64 {
        let total = self.total_kernel_time().as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        let tagged: f64 = self
            .kernel_time
            .iter()
            .filter(|(name, _)| name.contains(tag))
            .map(|(_, d)| d.as_secs_f64())
            .sum();
        tagged / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_fraction_partitions() {
        let mut snap = DeviceMetrics::default();
        snap.kernel_time
            .insert("insert".into(), Duration::from_millis(30));
        snap.kernel_time
            .insert("detect".into(), Duration::from_millis(70));
        assert!((snap.time_fraction("insert") - 0.3).abs() < 1e-9);
        assert!((snap.time_fraction("detect") - 0.7).abs() < 1e-9);
        assert_eq!(snap.time_fraction("absent"), 0.0);
        assert_eq!(snap.total_kernel_time(), Duration::from_millis(100));
    }

    #[test]
    fn empty_metrics_are_zero() {
        let snap = DeviceMetrics {
            allocated_bytes: 42,
            ..DeviceMetrics::default()
        };
        assert_eq!(snap.kernel_launches, 0);
        assert_eq!(snap.allocated_bytes, 42);
        assert_eq!(snap.time_fraction("x"), 0.0);
    }
}
