//! Numerics substrate for the `kessler` conjunction-screening workspace.
//!
//! This crate contains every piece of general-purpose mathematics the paper
//! relies on but that we implement from scratch rather than pulling in
//! external numeric dependencies:
//!
//! * [`Vec3`] / [`Mat3`] — small fixed-size linear algebra used for orbital
//!   state vectors and frame rotations.
//! * [`Complex`] — minimal complex arithmetic for the contour Kepler solver.
//! * [`brent`] — Brent's bounded minimiser (the paper uses Boost's
//!   `brent_find_minima`; this is a faithful reimplementation).
//! * [`interval`] — closed time intervals with intersection/union, used by
//!   the classical time filter.
//! * [`angles`] — angle wrapping helpers.
//! * [`stats`] — log–log power-law fits (our stand-in for the Extra-P
//!   model fitting of §V-B).
//! * [`kde`] — a two-dimensional Gaussian kernel density estimator used to
//!   generate the synthetic satellite population of §V-A.

pub mod angles;
pub mod brent;
pub mod complex;
pub mod interval;
pub mod kde;
pub mod mat3;
pub mod stats;
pub mod vec3;

pub use brent::{brent_minimize, BrentResult};
pub use complex::Complex;
pub use interval::Interval;
pub use mat3::Mat3;
pub use vec3::Vec3;
