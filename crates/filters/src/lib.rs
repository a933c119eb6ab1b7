//! Classical orbital filter chain (the "topological methods" of §II).
//!
//! Deterministic conjunction screening traditionally pushes every candidate
//! pair through a sequence of cheap geometric exclusion tests before paying
//! for a numerical close-approach search. This crate implements the chain
//! the paper builds its *legacy* baseline from and reuses inside the
//! *hybrid* variant:
//!
//! 1. [`apsis`] — the apogee/perigee filter (Hoots filter 1): orbits whose
//!    radial shells don't overlap (within the screening threshold) can
//!    never meet.
//! 2. [`coplanar`] — the coplanarity check the hybrid variant times
//!    separately in §V-C.1; coplanar pairs bypass the node-based filters.
//! 3. [`path`] — the orbit-path filter (Hoots filter 2): the minimum
//!    distance between the two *orbits* near their mutual node line.
//! 4. [`timefilter`] — the time filter (Hoots filter 3): true-anomaly
//!    windows around the node crossings converted into time windows; a
//!    pair survives only while both satellites are inside windows at the
//!    same node simultaneously. The surviving windows are exactly the
//!    Brent search intervals the hybrid variant uses ("the orbital filters
//!    determine the interval to search in for non-coplanar pairs", §IV-C).
//! 5. [`chain`] — the composed [`chain::FilterChain`]; per-stage counts
//!    are read off its decisions ([`chain::FilterStatsSnapshot::record`]).

pub mod apsis;
pub mod chain;
pub mod coplanar;
pub mod path;
pub mod timefilter;

pub use chain::{FilterChain, FilterConfig, FilterDecision, FilterStatsSnapshot};
