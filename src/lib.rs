//! # kessler — parallel satellite conjunction screening
//!
//! A from-scratch Rust reproduction of *"Satellite Collision Detection
//! using Spatial Data Structures"* (Hellwig, Czappa, Michel, Bertrand,
//! Wolf — IPDPS 2023): conjunction screening for satellite populations up
//! to the million-object scale using lock-free spatial grids instead of
//! the classical O(n²) all-on-all filter chains.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`core`] | the screeners (grid / hybrid / legacy / gpusim), planner, reports |
//! | [`orbits`] | Kepler elements, the contour Kepler solver, two-body propagation, SGP4 for TLE conversion |
//! | [`grid`] | lock-free atomic hash maps, spatial grid, candidate-pair sets |
//! | [`filters`] | apogee/perigee, coplanarity, orbit-path and time filters |
//! | [`population`] | synthetic populations, constellations, debris clouds, TLE |
//! | [`gpusim`] | the GPU execution-model simulator |
//! | [`math`] | Brent optimisation, intervals, KDE, power-law fits |
//! | [`service`] | long-running screening daemon: incremental catalog, delta re-screening, TCP server |
//!
//! ## Example
//!
//! ```
//! use kessler::prelude::*;
//!
//! // A small synthetic population drawn from the paper's catalog model…
//! let population = PopulationGenerator::new(PopulationConfig::default()).generate(200);
//!
//! // …screened for 2 km conjunctions over ten minutes with the grid variant.
//! let config = ScreeningConfig::grid_defaults(2.0, 600.0);
//! let report = GridScreener::new(config).screen(&population);
//! println!("{} conjunctions", report.conjunction_count());
//! ```

pub use kessler_core as core;
pub use kessler_filters as filters;
pub use kessler_gpusim as gpusim;
pub use kessler_grid as grid;
pub use kessler_math as math;
pub use kessler_orbits as orbits;
pub use kessler_population as population;
pub use kessler_service as service;

/// The most common imports in one place.
pub mod prelude {
    pub use kessler_core::{
        Conjunction, GpuScreener, GridScreener, HybridScreener, LegacyScreener, MemoryModel,
        Screener, ScreeningConfig, ScreeningReport, Variant,
    };
    pub use kessler_orbits::{CartesianState, KeplerElements};
    pub use kessler_population::constellation::WalkerShell;
    pub use kessler_population::fragmentation::Fragmentation;
    pub use kessler_population::{PopulationConfig, PopulationGenerator};
    pub use kessler_service::{Catalog, DeltaEngine};
}
