//! GPU execution-model simulator.
//!
//! The paper's fastest variants run on an RTX 3090 with CUDA. No GPU is
//! available in this reproduction environment, so — per the substitution
//! policy in DESIGN.md §3 — this crate simulates the *programming model*
//! the paper's kernels rely on, faithfully enough that the screeners'
//! GPU paths exercise the same code structure:
//!
//! * **Explicit device memory** ([`device::Device`],
//!   [`device::DeviceBuffer`]): allocations are charged against a
//!   configurable device-memory budget (24 GB for the paper's card), and
//!   host→device uploads are explicit calls with byte accounting —
//!   the paper reports ~3 % of GPU runtime spent in allocation + transfer,
//!   and the planner (§V-B) exists precisely because device memory bounds
//!   the number of grids processed in parallel.
//! * **Kernel launches** ([`kernel`]): a launch has a grid of blocks of
//!   threads (the paper tunes its conjunction-detection kernel around
//!   512-thread blocks); the body is a pure function of the global thread
//!   index, executed block-by-block on a rayon pool. Data-dependent
//!   branching inside a "warp" is legal (as in CUDA) but the model
//!   encourages the branch-free bulk structure the paper's contour Kepler
//!   solver was chosen for.
//! * **Metrics** ([`metrics`]): kernel launch counts, logical threads
//!   executed, upload volume and per-kernel wall time, consumed by the
//!   relative-time-consumption experiment (§V-C.1).
//!
//! What is deliberately *not* modelled: SIMT timing, memory coalescing,
//! bank conflicts, occupancy. Absolute GPU performance is out of scope on
//! CPU-only hardware; the experiments report the simulator's results as
//! "gpusim" series, never as GPU timings.

pub mod device;
pub mod kernel;
pub mod metrics;

pub use device::{Device, DeviceBuffer, DeviceError};
pub use kernel::LaunchConfig;
pub use metrics::DeviceMetrics;
