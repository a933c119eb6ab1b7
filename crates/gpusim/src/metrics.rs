//! Device metrics: kernel launches, thread counts, upload volume and
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
    pub allocated_bytes: u64,
    pub kernel_time: BTreeMap<String, Duration>,
}

impl DeviceMetrics {
    /// Total kernel wall time across all kernels.
    pub fn total_kernel_time(&self) -> Duration {
        self.kernel_time.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_kernel_time_sums_every_kernel() {
        let mut snap = DeviceMetrics::default();
        snap.kernel_time
            .insert("insert".into(), Duration::from_millis(30));
        snap.kernel_time
            .insert("detect".into(), Duration::from_millis(70));
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
        assert_eq!(snap.total_kernel_time(), Duration::ZERO);
    }
}
