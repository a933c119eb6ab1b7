//! Kernel launches: grid/block/thread indexing executed on a rayon pool.

use crate::device::Device;
use rayon::prelude::*;
use std::time::Instant;

/// Launch geometry, CUDA-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Total logical threads (the launch covers `ceil(n/block)·block`
    /// threads; indices ≥ `threads` are masked out, as CUDA kernels do
    /// with an early-return bounds check).
    pub threads: usize,
    /// Threads per block. The paper sizes its conjunction-detection kernel
    /// around 512-thread blocks (§V-B).
    pub block_size: usize,
}

impl LaunchConfig {
    /// One thread per element with the paper's 512-thread blocks.
    pub fn for_elements(n: usize) -> LaunchConfig {
        LaunchConfig {
            threads: n,
            block_size: 512,
        }
    }

    /// Number of blocks in the launch grid.
    pub fn blocks(&self) -> usize {
        self.threads.div_ceil(self.block_size.max(1))
    }
}

/// Identity of one logical thread inside a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadId {
    pub block_idx: usize,
    pub thread_idx: usize,
    /// `block_idx · block_size + thread_idx`.
    pub global: usize,
}

impl Device {
    /// Launch a kernel: `body` runs once per logical thread, blocks are
    /// scheduled in parallel (rayon), threads within a block run
    /// sequentially in index order — mirroring the "one thread per tuple,
    /// no intra-block dependencies" structure of the paper's kernels.
    ///
    /// The kernel name keys the per-kernel time accounting used by the
    /// relative-time-consumption experiment.
    pub fn launch<F>(&self, name: &str, config: LaunchConfig, body: F)
    where
        F: Fn(ThreadId) + Send + Sync,
    {
        let start = Instant::now();
        let block_size = config.block_size.max(1);
        (0..config.blocks()).into_par_iter().for_each(|block_idx| {
            let base = block_idx * block_size;
            let end = (base + block_size).min(config.threads);
            for global in base..end {
                body(ThreadId {
                    block_idx,
                    thread_idx: global - base,
                    global,
                });
            }
        });
        let elapsed = start.elapsed();
        let mut metrics = self.inner.metrics();
        metrics.kernel_launches += 1;
        metrics.threads_executed += config.threads as u64;
        let entry = metrics.kernel_time.entry(name.to_string()).or_default();
        *entry += elapsed;
    }

    /// Launch a kernel where each logical thread produces one output value
    /// (`out[global] = body(tid)`), the CUDA "map" idiom. Results are
    /// returned in thread order.
    pub fn launch_map<T, F>(&self, name: &str, config: LaunchConfig, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(ThreadId) -> T + Send + Sync,
    {
        let start = Instant::now();
        let block_size = config.block_size.max(1);
        let mut out: Vec<Option<T>> = (0..config.threads).map(|_| None).collect();
        out.par_chunks_mut(block_size)
            .enumerate()
            .for_each(|(block_idx, chunk)| {
                let base = block_idx * block_size;
                for (thread_idx, slot) in chunk.iter_mut().enumerate() {
                    *slot = Some(body(ThreadId {
                        block_idx,
                        thread_idx,
                        global: base + thread_idx,
                    }));
                }
            });
        let result: Vec<T> = out
            .into_iter()
            .map(|v| v.expect("every launched thread writes its slot"))
            .collect();

        let elapsed = start.elapsed();
        let mut metrics = self.inner.metrics();
        metrics.kernel_launches += 1;
        metrics.threads_executed += config.threads as u64;
        let entry = metrics.kernel_time.entry(name.to_string()).or_default();
        *entry += elapsed;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn launch_config_geometry() {
        let c = LaunchConfig {
            threads: 1000,
            block_size: 512,
        };
        assert_eq!(c.blocks(), 2);
        assert_eq!(LaunchConfig::for_elements(512).blocks(), 1);
        assert_eq!(LaunchConfig::for_elements(513).blocks(), 2);
        assert_eq!(
            LaunchConfig {
                threads: 0,
                block_size: 512
            }
            .blocks(),
            0
        );
    }

    #[test]
    fn every_thread_runs_exactly_once() {
        let dev = Device::with_memory(1 << 20);
        let n = 10_000;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        dev.launch("count", LaunchConfig::for_elements(n), |tid| {
            counters[tid.global].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "thread {i}");
        }
    }

    #[test]
    fn thread_ids_are_consistent() {
        let dev = Device::with_memory(1 << 20);
        let bad = AtomicUsize::new(0);
        let cfg = LaunchConfig {
            threads: 1_537,
            block_size: 256,
        };
        dev.launch("ids", cfg, |tid| {
            if tid.global != tid.block_idx * 256 + tid.thread_idx || tid.thread_idx >= 256 {
                bad.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(bad.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn kernel_metrics_accumulate() {
        let dev = Device::with_memory(1 << 20);
        dev.launch("a", LaunchConfig::for_elements(100), |_| {});
        dev.launch("a", LaunchConfig::for_elements(100), |_| {});
        dev.launch("b", LaunchConfig::for_elements(50), |_| {});
        let m = dev.metrics();
        assert_eq!(m.kernel_launches, 3);
        assert_eq!(m.threads_executed, 250);
        assert!(m.kernel_time.contains_key("a"));
        assert!(m.kernel_time.contains_key("b"));
    }

    #[test]
    fn kernel_can_reduce_via_atomics() {
        // The idiom every screener kernel uses: concurrent writes go
        // through atomics, never plain shared state.
        let dev = Device::with_memory(1 << 20);
        let sum = AtomicU64::new(0);
        let n = 4_096;
        dev.launch("reduce", LaunchConfig::for_elements(n), |tid| {
            sum.fetch_add(tid.global as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn launch_map_preserves_thread_order() {
        let dev = Device::with_memory(1 << 20);
        let out = dev.launch_map(
            "map",
            LaunchConfig {
                threads: 1_000,
                block_size: 64,
            },
            |tid| tid.global * 3,
        );
        assert_eq!(out.len(), 1_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
        assert_eq!(dev.metrics().kernel_launches, 1);
    }

    #[test]
    fn launch_map_with_zero_threads_returns_empty() {
        let dev = Device::with_memory(1 << 20);
        let out: Vec<u32> = dev.launch_map("empty", LaunchConfig::for_elements(0), |_| 7);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_thread_launch_is_a_noop() {
        let dev = Device::with_memory(1 << 20);
        dev.launch("noop", LaunchConfig::for_elements(0), |_| {
            panic!("no thread should run");
        });
        assert_eq!(dev.metrics().kernel_launches, 1);
        assert_eq!(dev.metrics().threads_executed, 0);
    }
}
