//! # kessler-service
//!
//! A long-running conjunction-screening daemon on top of the batch
//! screeners in `kessler-core`. Where the core crates answer "screen these
//! n satellites over `[0, span]` once", this crate answers the operational
//! question: keep a *changing* catalog screened *continuously*.
//!
//! Layers, bottom to top:
//!
//! - [`catalog`] — epoch-versioned incremental store: stable external ids
//!   mapped to the dense indices the screeners consume, `swap_remove`
//!   removals, per-satellite generation counters.
//! - [`delta`] — the [`DeltaEngine`]: maintains a warm conjunction set and,
//!   when k of n satellites change, re-screens only pairs involving changed
//!   satellites via grid neighbourhood queries — provably equal to a cold
//!   full re-screen, at a fraction of the cost when k ≪ n. Serves both the
//!   grid and the hybrid variant: under hybrid, delta candidates run
//!   through the orbital filter chain before refinement, exactly as a cold
//!   hybrid screen would — by construction, because a delta *is* the cold
//!   screen's call, `kessler_core::CpuScreener::screen_changed`, over the
//!   changed list, with the warm-set bookkeeping around it. The screens
//!   are pure, cancellable job functions the execution layer shares with
//!   the synchronous path; the core `CpuScreener` (variant + config) is
//!   the one options value every engine and state
//!   constructor takes, and the ADVANCE job slides the screening horizon
//!   forward, retiring expired conjunctions, carrying live ones, screening
//!   only the freshly exposed tail.
//!
//!   Every screen — SCREEN, DELTA, ADVANCE tail — runs core's one step
//!   loop, `kessler_core::Extraction::run`, on one grid per sampling
//!   step, as `kessler screen` does, whatever the `--shards` layout.
//! - [`exec`] — the execution layer: screening work captured as
//!   [`exec::ScreenJob`]s against immutable catalog snapshots
//!   ([`ServiceState::begin`]), run by a pool of worker threads,
//!   cancellable via `CANCEL`, and committed back latest-epoch-wins by
//!   [`ServiceState::commit`] — the one way a screen reaches the
//!   maintained set, for the workers and for [`ServiceState::handle`]
//!   alike.
//! - [`proto`] / [`server`] — a JSON-lines-over-TCP protocol
//!   (ADD/UPDATE/REMOVE/SCREEN/DELTA/ADVANCE/CANCEL/STATUS/SUBSCRIBE/
//!   SHUTDOWN) and an evented front end: one poll(2)-driven I/O thread
//!   owns every socket (pipelined requests, bounded write buffers with
//!   slow-consumer shedding) and hands screening work to the worker
//!   pool, whose threads restart their loop after a panic. `SUBSCRIBE`
//!   turns a connection into a push stream of conjunction deltas
//!   (`new`/`updated`/`retired`) emitted as screens commit. Std
//!   networking only; `nc` is a valid client. The
//!   library's one client is [`Client`]: one socket read through the
//!   server's own line framer, one connect-with-deadline
//!   ([`Client::connect_within`]), and one retry rule ([`Retry`], paced by
//!   the [`Backoff`] the degraded-mode probe also uses) — what
//!   `kessler submit` drives, and what any other front end can.
//! - [`wal`] / [`persist`] — crash safety: a checksummed write-ahead log
//!   of acknowledged mutations plus periodic atomic snapshots, so a
//!   restarted daemon recovers the exact catalog, window, and warm
//!   conjunction set it had when it died. The `--shards` layout,
//!   [`ShardMap`] (altitude band × |z| shell), is the persister's alone:
//!   it chunks snapshots by [`ShardMap::assign`] and decides itself which
//!   chunks a checkpoint rewrites. [`ServiceState`] owns the
//!   persister and the degraded flag, and [`ServiceState::handle`] is the
//!   one inline path: plan → log → apply → checkpoint-if-due, with a
//!   screen's log step inside its commit. Only
//!   planning can refuse, and applying a logged mutation cannot fail;
//!   recovery replays the WAL tail through the same `handle` before the
//!   persister is attached. When the disk fails mid-flight the state
//!   rejects the request (`not_applied`) and drops into degraded
//!   (read-only) mode, and a background probe retries the emergency
//!   snapshot under that same [`Backoff`] until normal service returns.
//! - [`metrics`] — rolling observability: per-phase screening histograms
//!   (full vs delta), WAL-fsync and snapshot-write latency distributions,
//!   request/error counters, queue high-water mark — served by the
//!   `METRICS` verb, with a digest in STATUS.
//! - [`error`] / [`fault`] — typed startup/persistence errors and the
//!   deterministic fault-injection hooks the crash-safety and disk-chaos
//!   tests use: screening panics, worker kills, torn WAL tails, and
//!   injectable storage faults (append/fsync/snapshot failures, transient
//!   or sticky).

pub mod catalog;
pub mod delta;
pub mod error;
pub mod exec;
pub mod fault;
pub mod metrics;
pub mod persist;
pub mod proto;
pub mod server;
mod sync;
pub mod wal;

pub use catalog::{Catalog, CatalogError, CatalogSnapshot, Removal};
pub use delta::{AdvanceOutcome, DeltaEngine, PairMap, DELTA_VARIANT, HYBRID_DELTA_VARIANT};
pub use error::{PersistError, ServiceError};
pub use exec::{CancelRegistry, ScreenJob, ScreenKind, ScreenOutput, Screened};
pub use fault::FaultPlan;
pub use metrics::{MetricsRegistry, MetricsSnapshot, RequestCounter};
pub use persist::{PersistOptions, ShardMap, ShardSpec, Snapshot};
pub use proto::{
    ElementsSpec, Envelope, EventKind, PushEvent, Request, Response, SubscriptionAck,
    PUSH_CONJUNCTION,
};
pub use server::{
    request, Backoff, Client, RecoverySummary, Retry, Server, ServerHandle, ServerOptions,
    ServiceState, MAX_LINE_BYTES, MAX_QUEUE_DEPTH, MAX_WORKERS,
};

/// Shared by the crate's unit tests.
#[cfg(test)]
mod testkit {
    /// splitmix64 (Steele, Lea & Flood): the whole generator state is one
    /// `u64`, so a failing sequence replays from the seed its assertion
    /// message prints.
    pub(crate) struct SplitMix64(pub(crate) u64);

    impl SplitMix64 {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Uniform in `[0, 1)`.
        pub(crate) fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}
