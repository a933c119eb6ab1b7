//! Astrodynamics substrate for the `kessler` conjunction-screening workspace.
//!
//! The paper's screeners need exactly one physical capability: given a
//! satellite's Kepler elements at epoch, compute its Cartesian position and
//! velocity at arbitrary later times, cheaply and for millions of
//! (satellite, time) tuples in parallel. This crate provides that, plus the
//! orbit-geometry primitives the classical filter chain is built from:
//!
//! * [`elements::KeplerElements`] — the six classical elements (Table II of
//!   the paper), validation, and derived quantities (period, apsides).
//! * [`anomaly`] — mean ↔ eccentric ↔ true anomaly conversions.
//! * [`kepler`] — the one Kepler-equation solver, the contour-integration
//!   method ("Kepler's Goat Herd", Philcox et al. 2021) that the paper's
//!   GPU propagator uses, with its trapezoid nodes computed once.
//! * [`propagator`] — two-body propagation from one precomputed record per
//!   satellite (the paper's "Kepler solver data" `a_k`) through one
//!   position kernel, which batched parallel propagation via rayon also
//!   runs.
//! * [`geometry`] — orbit normals, relative inclination, mutual nodes and
//!   per-anomaly radii, used by the apogee/perigee, coplanarity, orbit-path
//!   and time filters.
//! * [`sgp4`] — SGP4 mean elements to a state, which is how
//!   `population::tle` turns real TLEs into osculating two-body elements.

pub mod anomaly;
pub mod constants;
pub mod elements;
pub mod geometry;
pub mod kepler;
pub mod propagator;
pub mod sgp4;
pub mod state;

pub use elements::KeplerElements;
pub use kepler::{ContourSolver, KeplerSolver};
pub use propagator::{BatchPropagator, ConstantsView, PropagationConstants};
pub use state::CartesianState;
