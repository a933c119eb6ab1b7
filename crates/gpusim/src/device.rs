//! Simulated device with explicit memory management and transfers.

use crate::metrics::DeviceMetrics;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Errors from device operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// The allocation would exceed the device-memory budget.
    OutOfDeviceMemory { requested: usize, free: usize },
    /// Host and device slices disagree in length.
    LengthMismatch { host: usize, device: usize },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfDeviceMemory { requested, free } => write!(
                f,
                "out of device memory: requested {requested} B with {free} B free"
            ),
            DeviceError::LengthMismatch { host, device } => {
                write!(f, "transfer length mismatch: host {host}, device {device}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// Inner device state shared by buffers.
pub(crate) struct DeviceInner {
    pub(crate) memory_budget: usize,
    pub(crate) allocated: AtomicUsize,
    metrics: Mutex<DeviceMetrics>,
}

impl DeviceInner {
    /// The counters. Every update leaves them valid at each step, so a lock
    /// a panicking thread held is still good: poison is not an error here.
    pub(crate) fn metrics(&self) -> MutexGuard<'_, DeviceMetrics> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A simulated GPU.
#[derive(Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
}

impl Device {
    /// A device with the paper's 24 GB of memory (RTX 3090).
    pub fn rtx3090_like() -> Device {
        Device::with_memory(24 * 1024 * 1024 * 1024)
    }

    /// A device with an explicit memory budget in bytes.
    pub fn with_memory(bytes: usize) -> Device {
        Device {
            inner: Arc::new(DeviceInner {
                memory_budget: bytes,
                allocated: AtomicUsize::new(0),
                metrics: Mutex::default(),
            }),
        }
    }

    /// Total memory budget in bytes.
    pub fn memory_budget(&self) -> usize {
        self.inner.memory_budget
    }

    /// Currently allocated bytes.
    pub fn allocated(&self) -> usize {
        self.inner.allocated.load(Ordering::Acquire)
    }

    /// Free bytes.
    pub fn free_memory(&self) -> usize {
        self.memory_budget().saturating_sub(self.allocated())
    }

    /// Snapshot the accumulated metrics.
    pub fn metrics(&self) -> DeviceMetrics {
        DeviceMetrics {
            allocated_bytes: self.allocated() as u64,
            ..self.inner.metrics().clone()
        }
    }

    /// Reset the metrics counters (not the allocations).
    pub fn reset_metrics(&self) {
        *self.inner.metrics() = DeviceMetrics::default();
    }

    pub(crate) fn try_reserve(&self, bytes: usize) -> Result<(), DeviceError> {
        let mut current = self.inner.allocated.load(Ordering::Acquire);
        loop {
            let next = current.saturating_add(bytes);
            if next > self.inner.memory_budget {
                return Err(DeviceError::OutOfDeviceMemory {
                    requested: bytes,
                    free: self.inner.memory_budget - current,
                });
            }
            match self.inner.allocated.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }

    pub(crate) fn release(&self, bytes: usize) {
        self.inner.allocated.fetch_sub(bytes, Ordering::AcqRel);
    }
}

/// A typed buffer living in simulated device memory.
///
/// Contents are host RAM, of course, but every byte is charged against the
/// owning device's budget, and data crosses the host/device boundary only
/// through the explicit, metered transfer methods — forcing callers into
/// the same structure a real CUDA port has.
pub struct DeviceBuffer<T> {
    device: Device,
    data: Vec<T>,
    bytes: usize,
}

impl<T: Copy + Default + Send + Sync> DeviceBuffer<T> {
    /// Allocate a zero-initialised (default-initialised) buffer of `len`.
    pub fn alloc(device: &Device, len: usize) -> Result<DeviceBuffer<T>, DeviceError> {
        let bytes = len * std::mem::size_of::<T>();
        device.try_reserve(bytes)?;
        Ok(DeviceBuffer {
            device: device.clone(),
            data: vec![T::default(); len],
            bytes,
        })
    }
}

impl<T: Copy + Send + Sync> DeviceBuffer<T> {
    /// Allocate and fill from a host slice (metered as one H→D transfer).
    /// Unlike [`DeviceBuffer::alloc`] this needs no `Default`.
    pub fn from_host(device: &Device, host: &[T]) -> Result<DeviceBuffer<T>, DeviceError> {
        let bytes = std::mem::size_of_val(host);
        device.try_reserve(bytes)?;
        device.inner.metrics().bytes_h2d += bytes as u64;
        Ok(DeviceBuffer {
            device: device.clone(),
            data: host.to_vec(),
            bytes,
        })
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn size_bytes(&self) -> usize {
        self.bytes
    }

    /// H→D transfer.
    pub fn copy_from_host(&mut self, host: &[T]) -> Result<(), DeviceError> {
        if host.len() != self.data.len() {
            return Err(DeviceError::LengthMismatch {
                host: host.len(),
                device: self.data.len(),
            });
        }
        self.data.copy_from_slice(host);
        self.device.inner.metrics().bytes_h2d += self.bytes as u64;
        Ok(())
    }

    /// D→H transfer.
    pub fn copy_to_host(&self, host: &mut [T]) -> Result<(), DeviceError> {
        if host.len() != self.data.len() {
            return Err(DeviceError::LengthMismatch {
                host: host.len(),
                device: self.data.len(),
            });
        }
        host.copy_from_slice(&self.data);
        self.device.inner.metrics().bytes_d2h += self.bytes as u64;
        Ok(())
    }

    /// Device-side view for kernels (no transfer metering — kernels read
    /// device memory directly, as on hardware).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

impl<T> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.device.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_charges_the_budget() {
        let dev = Device::with_memory(1024);
        let buf = DeviceBuffer::<u64>::alloc(&dev, 64).unwrap();
        assert_eq!(buf.size_bytes(), 512);
        assert_eq!(dev.allocated(), 512);
        assert_eq!(dev.free_memory(), 512);
        drop(buf);
        assert_eq!(dev.allocated(), 0);
    }

    #[test]
    fn over_allocation_fails_cleanly() {
        let dev = Device::with_memory(100);
        let err = match DeviceBuffer::<u64>::alloc(&dev, 100) {
            Ok(_) => panic!("allocation beyond the budget must fail"),
            Err(e) => e,
        };
        assert!(matches!(err, DeviceError::OutOfDeviceMemory { .. }));
        // Failed allocation must not leak budget.
        assert_eq!(dev.allocated(), 0);
    }

    #[test]
    fn transfers_are_metered() {
        let dev = Device::with_memory(1 << 20);
        let host: Vec<u32> = (0..256).collect();
        let buf = DeviceBuffer::from_host(&dev, &host).unwrap();
        let mut back = vec![0u32; 256];
        buf.copy_to_host(&mut back).unwrap();
        assert_eq!(back, host);
        let m = dev.metrics();
        assert_eq!(m.bytes_h2d, 1024);
        assert_eq!(m.bytes_d2h, 1024);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let dev = Device::with_memory(1 << 20);
        let mut buf = DeviceBuffer::<u8>::alloc(&dev, 10).unwrap();
        assert!(matches!(
            buf.copy_from_host(&[0u8; 5]),
            Err(DeviceError::LengthMismatch {
                host: 5,
                device: 10
            })
        ));
        let mut too_big = vec![0u8; 20];
        assert!(buf.copy_to_host(&mut too_big).is_err());
    }

    #[test]
    fn concurrent_allocations_respect_the_budget() {
        let dev = Device::with_memory(8 * 100);
        let successes: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    let dev = dev.clone();
                    scope.spawn(move || {
                        // Each tries to grab 100 u8s; at most 8 can succeed
                        // simultaneously. Hold until all threads attempted.
                        DeviceBuffer::<u8>::alloc(&dev, 100).is_ok() as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // All allocations are dropped by now.
        assert_eq!(dev.allocated(), 0);
        assert!(successes >= 8, "at least the budget's worth must succeed");
    }

    #[test]
    fn rtx3090_preset_has_24_gib() {
        assert_eq!(
            Device::rtx3090_like().memory_budget(),
            24 * 1024 * 1024 * 1024
        );
    }
}
