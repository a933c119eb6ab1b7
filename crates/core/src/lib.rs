//! Conjunction screening with lock-free spatial grids — the core library of
//! the `kessler` workspace, reproducing the system of
//! *"Satellite Collision Detection using Spatial Data Structures"*
//! (Hellwig, Czappa, Michel, Bertrand, Wolf — IPDPS 2023).
//!
//! # Quick start
//!
//! ```
//! use kessler_core::{GridScreener, ScreeningConfig, Screener};
//! use kessler_orbits::KeplerElements;
//!
//! // Two satellites on crossing circular orbits that meet near t = 0.
//! let population = vec![
//!     KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
//!     KeplerElements::new(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.0).unwrap(),
//! ];
//! let config = ScreeningConfig::grid_defaults(2.0, 600.0);
//! let report = GridScreener::new(config).screen(&population);
//! assert!(report.conjunction_count() >= 1);
//! ```
//!
//! # Variants
//!
//! A screen is an extraction backend (who produces the candidate entries)
//! times a post-extraction [`Stage`] (what becomes of them); see
//! [`screener`]. The CPU backend is one screener, [`CpuScreener`], over
//! one step loop, [`Extraction::run`] ([`extraction`]), on one grid per
//! step: the cold screeners and the `kessler-service` daemon's SCREEN,
//! DELTA and ADVANCE are all [`CpuScreener::screen_changed`] calls.
//!
//! * [`GridScreener`] — the paper's purely grid-based variant: small cells
//!   (Eq. 1), small time steps; every grid candidate goes straight to Brent
//!   PCA/TCA refinement.
//! * [`HybridScreener`] — the grid as a pre-filter with larger steps and
//!   cells, followed by the classical orbital filter chain whose time
//!   windows drive the refinement. Both are constructors of the one
//!   [`CpuScreener`].
//! * [`GpuScreener`] — either stage with the extraction expressed as
//!   kernels on the [`kessler_gpusim`] execution simulator (CUDA
//!   substitution; see DESIGN.md §3) on one simulated device.
//! * [`LegacyScreener`] — the all-on-all filter-chain baseline
//!   (quadratic pair enumeration).
//!
//! Every variant propagates two-body orbits through the one contour
//! Kepler solver, as the paper's evaluation does.

pub mod cancel;
pub mod config;
pub mod conjunction;
pub mod extraction;
pub mod io;
pub mod metrics;
pub mod planner;
pub mod refine;
pub mod screener;
pub mod timing;

pub use cancel::{CancelToken, Cancelled};
pub use config::{ScreeningConfig, Variant};
pub use conjunction::{Conjunction, ScreeningReport};
pub use extraction::Extraction;
pub use kessler_filters::chain::FilterStatsSnapshot;
pub use kessler_filters::{FilterChain, FilterConfig, FilterDecision};
pub use metrics::{Histogram, HistogramSummary, PhaseSeries, PhaseSummaries};
pub use planner::{MemoryModel, PlannerReport};
pub use screener::cpu::{CpuScreener, GridScreener, HybridScreener};
pub use screener::gpu::GpuScreener;
pub use screener::legacy::LegacyScreener;
pub use screener::stage::{group_pairs, refine_filtered_pair, Executor, GroupedPair, Host, Stage};
pub use screener::{default_config_for, run_in_pool, screener_for, Refined, Screener};
pub use timing::PhaseTimings;
