//! Lock-free spatial-grid substrate for the `kessler` workspace.
//!
//! This crate is the data-structure heart of the paper (§III-A, §IV-A):
//!
//! * [`murmur`] — MurmurHash3, the hash the paper uses to map grid-cell
//!   keys to hash-map slots.
//! * [`cellkey`] — packing of signed 3-D cell coordinates into a single
//!   `u64` key (with `u64::MAX` reserved as the empty-slot sentinel).
//! * [`atomic_map`] — a fixed-size, open-addressing hash map with CAS
//!   insertion and linear probing; every slot is an (`AtomicU64` key,
//!   `AtomicU32` value) pair and the whole structure is wait-free for
//!   readers and lock-free for writers.
//! * [`grid`] — the spatial grid itself: per-cell singly-linked lists of
//!   satellites threaded through a pre-allocated arena (one entry per
//!   satellite, exactly as in Fig. 6 of the paper), parallel insertion and
//!   parallel candidate-pair extraction over 26-cell neighbourhoods.
//! * [`pairset`] — the "conjunction hash map": an atomic set of packed
//!   `(id_lo, id_hi, step)` keys that deduplicates candidate pairs found
//!   from the perspective of both satellites.
//! * [`neighbor`] — the 26-cell neighbourhood offsets and the 13-offset
//!   half neighbourhood used to visit each unordered cell pair once.

pub mod atomic_map;
pub mod cellkey;
pub mod grid;
pub mod murmur;
pub mod neighbor;
pub mod pairset;

pub use atomic_map::AtomicMap;
pub use cellkey::CellKey;
pub use grid::SpatialGrid;
pub use pairset::{CandidatePair, PairSet};
