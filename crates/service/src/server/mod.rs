//! JSON-lines-over-TCP conjunction-screening daemon.
//!
//! Architecture, three layers:
//!
//! - **State** ([`ServiceState`]): catalog + warm delta engine, plus the
//!   durability layer (the WAL/snapshot persister and the degraded flag),
//!   behind a mutex that a panicking holder does not poison
//!   (`crate::sync`). Cheap mutations and STATUS execute inline under the
//!   lock through [`ServiceState::handle`]. Screening is a
//!   capture → run → commit sequence: the request
//!   is *captured* as a [`ScreenJob`] against an immutable
//!   [`crate::catalog::CatalogSnapshot`] (O(1), copy-on-write), *run*
//!   lock-free, and *committed* back under the lock, latest-epoch-wins —
//!   a result captured before an already-adopted newer one answers its
//!   client (flagged `stale`) but does not clobber the maintained set.
//! - **Execution**: a pool of screening worker threads (see
//!   [`ServerOptions::workers`]) drains a *bounded* `mpsc::sync_channel`
//!   whose receiver the workers share, so concurrent clients cannot
//!   stampede the rayon pool — and when the
//!   queue is full, clients get an explicit "server busy" error instead of
//!   unbounded buffering. Every queued job carries a
//!   [`kessler_core::CancelToken`] registered in a [`CancelRegistry`];
//!   `CANCEL <req_id>` trips it from any connection, aborting a queued job
//!   outright or an in-flight one at its next phase boundary.
//! - **Protocol**: a single poll(2)-driven I/O thread owns every
//!   connection — nonblocking accept, per-connection read/write buffers
//!   with the line cap and resync semantics, pipelined requests whose
//!   responses (tagged with the echoed `req_id`) may complete out of
//!   order for worker-pool verbs, and bounded write buffers that shed
//!   push events (and ultimately slow consumers) at a high-water mark.
//!   `SUBSCRIBE` registers a per-connection asset filter; every adopted
//!   screen commit diffs the maintained set and pushes
//!   `new`/`updated`/`retired` conjunction events to matching
//!   subscribers (tagged `ephemeral` while degraded).
//!
//! The implementation is split across focused submodules:
//! [`conn`](self) holds the wire layer (line framing, the poll event
//! loop, the client helpers), `poll` the raw poll(2) binding, `subs` the
//! subscription hub and pair-diff fan-out, `handlers` the daemon hub, the
//! screening path and the worker pool, and `degraded` the persistence
//! probe. This file owns the state machine — durability and the screens'
//! METRICS records included — and the server lifecycle. Lock order:
//! state → subs → io → metrics.
//!
//! Crash safety: every mutation goes plan → log → apply → checkpoint. A
//! catalog mutation takes those steps inline in [`ServiceState::handle`].
//! A SCREEN, DELTA or ADVANCE — inline in `handle` and on the workers
//! alike — is [`ServiceState::begin`] (plan, capture) →
//! [`crate::exec::run_screen_job`] (lock-free) → [`ServiceState::commit`]
//! (decide adopt/stale/raced, log an adoption, apply it, checkpoint,
//! record the screen in METRICS and hand back the [`Publication`] a
//! worker pushes to subscribers).
//! Planning is read-only and refuses up front; with
//! [`ServerOptions::persist`] set, a planned mutation or an adopted screen
//! is then appended to a write-ahead log (in commit order; stale and
//! ephemeral screen results are not logged); applying a logged mutation
//! cannot fail. The full state is snapshotted every `snapshot_every`
//! mutations (see [`crate::persist`]). Restart recovery loads the newest
//! valid snapshot and replays the WAL tail through
//! [`ServiceState::handle`] before the persister is attached — the live
//! path with empty log and checkpoint steps, whose screens METRICS shows
//! like live ones — which the delta correctness invariant makes
//! deterministic: a recovered daemon answers STATUS/DELTA exactly as an
//! uninterrupted one would.
//!
//! Storage-fault resilience: a failed WAL append rejects that mutation
//! (`not_applied` on the wire — memory and log never diverge) and flips
//! the daemon into **degraded (read-only) mode**: further mutations are
//! rejected with [`ServiceError::Degraded`], while STATUS/METRICS and
//! even SCREEN/DELTA keep answering (screen results are served flagged
//! `ephemeral`, not adopted). A background probe, which reads the flag on
//! a 250 ms tick, re-checks the state directory with jittered exponential
//! backoff and, once the disk
//! returns, writes an emergency snapshot covering the full in-memory
//! state before switching back to normal mode — nothing acknowledged is
//! ever lost to the outage. STATUS reports the `mode`; METRICS counts
//! failures, transitions, and recoveries.
//!
//! Panic isolation: screening runs inside `catch_unwind`, so a panic
//! mid-screen becomes an ERROR response instead of a dead worker; a panic
//! that escapes it anyway unwinds the worker's loop, which its thread
//! counts and restarts in place.
//!
//! Everything is std networking and `std::sync` — no async runtime, no
//! protocol framework.

mod conn;
mod degraded;
mod handlers;
mod poll;
mod subs;

pub use conn::{request, Backoff, Client, Retry};

use crate::catalog::{Catalog, CatalogError, Removal};
use crate::delta::{check_advance_dt, drop_removed, DeltaEngine, ScreenRun};
use crate::error::{PersistError, ServiceError};
use crate::exec::{run_screen_job, CancelRegistry, ScreenJob, ScreenKind, ScreenOutput, Screened};
use crate::fault::FaultPlan;
use crate::metrics::MetricsRegistry;
use crate::persist::{
    GlobalState, PersistOptions, Persister, Recovery, ShardMap, ShardSpec, Snapshot,
};
use crate::proto::{
    AdvanceAck, CatalogAck, ElementsSpec, LastScreen, Request, Response, ScreenSummary, StatusInfo,
};
use crate::sync::Mutex;
use degraded::spawn_persist_probe;
use handlers::{spawn_metrics_reporter, spawn_worker, IoHub, Job, Shared};
use kessler_core::{Conjunction, CpuScreener, ScreeningConfig, Variant};
use kessler_orbits::KeplerElements;
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use subs::SubHub;

/// Hard cap on one request/response line, server- and client-side. A JSON
/// request is a few hundred bytes; anything near this is garbage or abuse.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Tunables for [`Server::bind_with`]. `Default` matches production use:
/// no persistence, bounded queue, generous-but-finite socket timeouts.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Enable the WAL + snapshot durability layer.
    pub persist: Option<PersistOptions>,
    /// Screening requests queued before clients get "server busy"; at
    /// most [`MAX_QUEUE_DEPTH`].
    pub queue_depth: usize,
    /// Screening worker threads; `0` picks `min(4, cores / 2)` (≥ 1); at
    /// most [`MAX_WORKERS`].
    pub workers: usize,
    /// Per-connection idle timeout (`None` = wait forever): connections
    /// with no inbound bytes, no job in flight, and no subscription for
    /// this long are reaped.
    pub read_timeout: Option<Duration>,
    /// Per-connection write-buffer high-water mark in bytes: push events
    /// are shed above it, and a consumer whose buffered responses exceed
    /// it by two max-size lines is disconnected.
    pub write_highwater: usize,
    /// Fault-injection hooks; inert outside the crash-safety tests.
    pub faults: Arc<FaultPlan>,
    /// Log a one-line metrics digest to stderr this often (`None` = off).
    pub metrics_every: Option<Duration>,
    /// Screening variant the daemon serves with (grid or hybrid).
    pub variant: Variant,
    /// Chunk snapshots by orbital regime (altitude band × |z| shell), so a
    /// checkpoint rewrites only the chunks whose satellites changed.
    /// `None` defers to the persist options' `shards`; both `None` is the
    /// 1×1 layout, one chunk, and both set must name the same layout.
    /// Screens run on one grid whatever the layout.
    pub shards: Option<ShardSpec>,
    /// First persistence re-probe delay after entering degraded mode;
    /// doubles (with jitter) up to [`ServerOptions::probe_max`].
    pub probe_initial: Duration,
    /// Backoff ceiling for the degraded-mode persistence probe.
    pub probe_max: Duration,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            persist: None,
            queue_depth: 32,
            workers: 0,
            read_timeout: Some(Duration::from_secs(120)),
            write_highwater: MAX_LINE_BYTES,
            faults: FaultPlan::inert(),
            metrics_every: None,
            variant: Variant::Grid,
            shards: None,
            probe_initial: Duration::from_millis(100),
            probe_max: Duration::from_secs(5),
        }
    }
}

/// Largest [`ServerOptions::queue_depth`]: the queue's slots are
/// allocated when the server binds.
pub const MAX_QUEUE_DEPTH: usize = 1 << 16;

/// Largest [`ServerOptions::workers`]: each worker is one thread.
pub const MAX_WORKERS: usize = 64;

/// Refuse a queue or a worker pool above its limit, before anything is
/// opened, bound or spawned.
fn check_pool(options: &ServerOptions) -> Result<(), ServiceError> {
    if options.queue_depth > MAX_QUEUE_DEPTH {
        return Err(ServiceError::Config(format!(
            "queue depth {} is above the limit of {MAX_QUEUE_DEPTH}",
            options.queue_depth
        )));
    }
    if options.workers > MAX_WORKERS {
        return Err(ServiceError::Config(format!(
            "{} screening workers is above the limit of {MAX_WORKERS}",
            options.workers
        )));
    }
    Ok(())
}

/// The snapshot layout in effect: whichever of [`ServerOptions::shards`]
/// and the persist options' `shards` is set. Both set and different is a
/// configuration error, refused before any state directory is opened.
fn snapshot_layout(options: &ServerOptions) -> Result<Option<ShardSpec>, ServiceError> {
    let persisted = options.persist.as_ref().and_then(|p| p.shards);
    match (options.shards, persisted) {
        (Some(server), Some(persist)) if server != persist => Err(ServiceError::Config(format!(
            "server shard layout {}×{} differs from the persist options' {}×{}",
            server.alt_bands, server.z_shells, persist.alt_bands, persist.z_shells
        ))),
        (server, persist) => Ok(server.or(persist)),
    }
}

/// `0` means auto: half the cores, clamped to `[1, 4]` — screening is
/// already rayon-parallel inside one job, so a few concurrent jobs saturate
/// a machine long before one-per-core would.
fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    (cores / 2).clamp(1, 4)
}

/// What startup recovery found in the state directory.
#[derive(Debug, Clone, Default)]
pub struct RecoverySummary {
    /// WAL seq of the snapshot the state was restored from.
    pub snapshot_seq: Option<u64>,
    /// WAL records replayed on top of the snapshot.
    pub replayed: usize,
    /// The WAL ended in a torn record (dropped; expected after a crash).
    pub torn_tail: bool,
    /// Snapshot files skipped as corrupt.
    pub corrupt_snapshots: usize,
}

/// The daemon's mutable heart: catalog + warm delta engine + change set.
/// The screening window starts at the catalog's time.
pub struct ServiceState {
    catalog: Catalog,
    engine: DeltaEngine,
    /// Dense indices changed since the last adopted screen.
    changed: BTreeSet<u32>,
    /// Catalog epoch the currently adopted maintained set was captured at.
    /// A completed job below this is stale; one at or above it wins.
    warm_epoch: u64,
    /// Removals since `warm_epoch` as `(epoch_after, removal, new_len)`,
    /// replayed onto job results captured before them at commit time.
    /// Pruned whenever `warm_epoch` advances.
    removals: Vec<(u64, Removal, usize)>,
    requests: u64,
    started: Instant,
    /// `true` when this state came out of snapshot/WAL recovery.
    recovered: bool,
    /// The WAL + snapshot layer; `None` for an ephemeral state, whose log
    /// step has nothing to append to.
    persister: Option<Persister>,
    /// Why the state is degraded (read-only), if it is: set by a failed
    /// WAL append, cleared by the emergency checkpoint.
    degraded: Option<String>,
    /// Where the durability steps and the commits record, and what STATUS
    /// digests; the daemon shares its registry here, a bare state keeps a
    /// private one. Lock order: after the state lock this state lives
    /// under.
    metrics: Arc<Mutex<MetricsRegistry>>,
}

/// A request that passed `ServiceState::plan`: validated against the
/// state it was planned on, so `ServiceState::apply` — under the same
/// lock hold — cannot fail.
pub(crate) enum Effect {
    Add {
        id: u64,
        elements: KeplerElements,
    },
    Update {
        id: u64,
        elements: KeplerElements,
    },
    Remove {
        id: u64,
    },
    /// SCREEN, DELTA or ADVANCE, run inline from capture to commit.
    Screen(ScreenKind),
    Status,
    Shutdown,
}

/// What [`ServiceState::commit`] did with a finished screening job: the
/// answer, and what subscribers are to be shown, if anything.
pub struct Committed {
    pub response: Response,
    pub publication: Option<Publication>,
}

/// A conjunction set for the subscription push, sorted by pair then TCA:
/// the maintained set an adoption produced, or the conjunctions of a
/// screen served `ephemeral` — computed, but not adopted because its
/// record could not be logged — while the job's epoch is still current.
/// Either way its dense indices match the catalog as it stands under the
/// lock that committed it, so it is published under that same lock hold.
pub struct Publication {
    pub conjunctions: Arc<Vec<Conjunction>>,
    /// Catalog epoch the conjunctions describe.
    pub epoch: u64,
    pub ephemeral: bool,
}

const PLANNED: &str = "effect was planned against this state under the same lock";
const UNCANCELLABLE: &str = "uncancellable screen cannot be cancelled";
const DURABLE: &str = "only a durable state checkpoints";

impl ServiceState {
    /// Fresh state serving the grid variant.
    pub fn new(config: ScreeningConfig) -> Result<ServiceState, ServiceError> {
        let screener = CpuScreener::new(Variant::Grid, config).map_err(ServiceError::Config)?;
        Ok(ServiceState::with_screener(screener))
    }

    /// Fresh state screening with `screener` (variant and config).
    pub fn with_screener(screener: CpuScreener) -> ServiceState {
        ServiceState {
            catalog: Catalog::new(),
            engine: DeltaEngine::with_screener(screener),
            changed: BTreeSet::new(),
            warm_epoch: 0,
            removals: Vec::new(),
            requests: 0,
            started: Instant::now(),
            recovered: false,
            persister: None,
            degraded: None,
            metrics: Arc::default(),
        }
    }

    /// The one snapshot protocol, for startup, the `snapshot_every`
    /// cadence and degraded-mode recovery alike: capture the state at the
    /// persister's last seq, hand it to the persister — which works out
    /// for itself which chunks changed — and record the write in METRICS.
    /// Only called with a persister attached.
    pub(crate) fn checkpoint(&mut self) -> Result<(), PersistError> {
        let started = Instant::now();
        let seq = self.persister.as_ref().expect(DURABLE).last_seq();
        let snapshot = self.snapshot(seq);
        let persister = self.persister.as_mut().expect(DURABLE);
        let written = persister.write_snapshot(snapshot)?;
        self.metrics
            .lock()
            .record_snapshot(started.elapsed(), &written);
        Ok(())
    }

    /// The log step, WAL-before-apply: append a planned mutation *before*
    /// it touches the state. `None` when the caller may apply (the record
    /// is durable, or the state is ephemeral); `Some(rejection)` when it
    /// must not — the state is already degraded, or this append just
    /// failed, which degrades it. Nothing was applied yet, so `not_applied`
    /// in the rejection is a hard guarantee and the client may retry
    /// safely.
    pub(crate) fn log(&mut self, request: &Request) -> Option<Response> {
        // Only a failed append degrades a state, so a degraded state has a
        // persister.
        if let Some(rejection) = self.degraded_rejection() {
            return Some(rejection);
        }
        let persister = self.persister.as_mut()?;
        let append_started = Instant::now();
        match persister.append(request) {
            Ok(()) => {
                let elapsed = append_started.elapsed();
                self.metrics.lock().wal_fsync.record_duration(elapsed);
                None
            }
            Err(err) => {
                let reason = format!("wal append failed: {err}");
                {
                    let served = &mut self.metrics.lock().served;
                    served.wal_append_failures += 1;
                    served.degraded_entries += 1;
                }
                eprintln!(
                    "kessler-service: entering degraded (read-only) mode, mutations rejected: {reason}"
                );
                let rejection = Response::rejected(format!("not applied: {reason}"));
                self.degraded = Some(reason);
                Some(rejection)
            }
        }
    }

    /// The checkpoint step: after a logged mutation was applied, write a
    /// snapshot once `snapshot_every` of them accumulated. A failed write
    /// rejects nothing — the WAL still covers every mutation — and is
    /// retried on the next one.
    pub(crate) fn checkpoint_if_due(&mut self) {
        if !self
            .persister
            .as_ref()
            .is_some_and(Persister::should_snapshot)
        {
            return;
        }
        if let Err(err) = self.checkpoint() {
            let wal_bytes = self.persister.as_ref().map_or(0, Persister::wal_size);
            self.metrics.lock().served.snapshot_failures += 1;
            eprintln!(
                "kessler-service: snapshot failed (wal still intact at {wal_bytes} \
                 bytes, compaction starved; retrying on the next mutation): {err}"
            );
        }
    }

    /// End degraded mode: prove the disk accepts writes again, then make
    /// every in-memory mutation durable at once with an emergency
    /// checkpoint. It covers the full state at the persister's last seq —
    /// nothing was applied while degraded, so that is exactly what the WAL
    /// describes. A no-op when not degraded.
    pub(crate) fn end_degraded(&mut self) -> Result<(), PersistError> {
        let Some(persister) = self.persister.as_ref().filter(|_| self.degraded.is_some()) else {
            return Ok(());
        };
        persister.probe()?;
        self.checkpoint()?;
        self.metrics.lock().served.degraded_recoveries += 1;
        self.degraded = None;
        eprintln!("kessler-service: persistence recovered; back to normal mode");
        Ok(())
    }

    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// The rejection every mutation gets while degraded.
    pub(crate) fn degraded_rejection(&self) -> Option<Response> {
        let reason = self.degraded.clone()?;
        Some(Response::rejected(
            ServiceError::Degraded { reason }.to_string(),
        ))
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn engine(&self) -> &DeltaEngine {
        &self.engine
    }

    /// Capture the complete state as a snapshot covering WAL records up to
    /// `wal_seq`.
    pub fn snapshot(&self, wal_seq: u64) -> Snapshot {
        Snapshot {
            wal_seq,
            rows: self.catalog.rows(),
            global: GlobalState {
                epoch: self.catalog.epoch(),
                changed: self.changed.iter().copied().collect(),
                // The window starts at the catalog time; the key stays.
                window_start: self.catalog.time(),
                screened_n: self.engine.screened_n(),
                full_screens: self.engine.full_screens(),
                delta_screens: self.engine.delta_screens(),
                conjunctions: self.engine.conjunctions(),
                requests_served: self.requests,
                time: self.catalog.time(),
                last_screen: self.engine.last_screen().cloned(),
                variant: self.engine.variant(),
            },
        }
    }

    /// Rebuild the state a [`ServiceState::snapshot`] captured, serving
    /// with `screener`: the catalog from the rows, the engine from the
    /// global state (warm when the variants match, see
    /// [`DeltaEngine::restore`]). A window start other than the catalog
    /// time is refused: no build writes one, so the point is corrupt.
    pub fn restore(
        screener: CpuScreener,
        snapshot: &Snapshot,
    ) -> Result<ServiceState, ServiceError> {
        let global = &snapshot.global;
        if global.window_start.to_bits() != global.time.to_bits() {
            return Err(ServiceError::Recovery(format!(
                "window start {} is not the catalog time {}",
                global.window_start, global.time
            )));
        }
        let catalog = Catalog::restore(global.epoch, global.time, &snapshot.rows)?;
        let engine = DeltaEngine::restore(screener, global)?;
        Ok(ServiceState {
            changed: global
                .changed
                .iter()
                .copied()
                .filter(|&i| (i as usize) < catalog.len())
                .collect(),
            // The snapshotted maintained set is current as of the
            // snapshotted epoch, with `changed` carrying the rest.
            warm_epoch: catalog.epoch(),
            catalog,
            engine,
            requests: global.requests_served,
            recovered: true,
            ..ServiceState::with_screener(screener)
        })
    }

    /// Validate `request` against the current state without touching it.
    /// `Ok` means `ServiceState::apply` of the returned effect will
    /// succeed, so a WAL record written in between describes a mutation
    /// that really happens; `Err` is the refusal the client is answered
    /// with, and the state is untouched.
    pub(crate) fn plan(&self, request: &Request) -> Result<Effect, ServiceError> {
        let refused = |e: CatalogError| ServiceError::InvalidRequest(e.to_string());
        // METRICS, cancellation and subscriptions are answered by the
        // daemon (`Shared`) and the connection layer: none of them may cost
        // the state lock. Reaching one here means a caller bypassed the
        // connection layer.
        let elsewhere = |layer: &str| {
            ServiceError::InvalidRequest(format!(
                "{} is served by the {layer} layer",
                request.kind()
            ))
        };
        match request {
            Request::Add { id, elements } => {
                let elements = elements.into_elements()?;
                self.catalog.check_add(*id).map_err(refused)?;
                Ok(Effect::Add { id: *id, elements })
            }
            Request::Update { id, elements } => {
                let elements = elements.into_elements()?;
                self.catalog.check_present(*id).map_err(refused)?;
                Ok(Effect::Update { id: *id, elements })
            }
            Request::Remove { id } => {
                self.catalog.check_present(*id).map_err(refused)?;
                Ok(Effect::Remove { id: *id })
            }
            Request::Screen => Ok(Effect::Screen(ScreenKind::Full)),
            Request::Delta => Ok(Effect::Screen(ScreenKind::Delta)),
            Request::Advance { dt } => {
                check_advance_dt(*dt)?;
                // Catalog time and the window must stay finite: an infinite
                // time turns every mean anomaly into NaN, and a non-finite
                // window encodes as a `null` nobody can read back.
                let time = self.catalog.time() + dt;
                let end = time + self.engine.config().span_seconds;
                if !(time.is_finite() && end.is_finite()) {
                    return Err(ServiceError::InvalidRequest(format!(
                        "advance dt {dt} would carry catalog time or the window end past the \
                         finite range"
                    )));
                }
                Ok(Effect::Screen(ScreenKind::Advance { dt: *dt }))
            }
            Request::Status => Ok(Effect::Status),
            Request::Shutdown => Ok(Effect::Shutdown),
            Request::Metrics | Request::Cancel { .. } => Err(elsewhere("daemon")),
            Request::Subscribe { .. } | Request::Unsubscribe { .. } => Err(elsewhere("connection")),
        }
    }

    /// Carry out a planned effect. Infallible: everything that can refuse
    /// a request was checked by `ServiceState::plan` against this state.
    /// A screening effect runs capture → run → [`ServiceState::commit`],
    /// inline.
    pub(crate) fn apply(&mut self, effect: Effect) -> Response {
        self.requests += 1;
        match effect {
            Effect::Add { id, elements } => {
                let index = self.catalog.add(id, elements).expect(PLANNED);
                self.changed.insert(index);
                Response::with_catalog(self.catalog_ack(id, index))
            }
            Effect::Update { id, elements } => {
                let index = self.catalog.update(id, elements).expect(PLANNED);
                self.changed.insert(index);
                Response::with_catalog(self.catalog_ack(id, index))
            }
            Effect::Remove { id } => {
                let removal = self.catalog.remove(id).expect(PLANNED);
                let new_len = self.catalog.len();
                self.engine.apply_removal(removal, new_len);
                self.removals.push((self.catalog.epoch(), removal, new_len));
                // The old last index no longer exists; if a satellite
                // moved into the hole it now needs re-screening.
                if let Some(last) = removal.moved_from {
                    self.changed.remove(&last);
                    self.changed.insert(removal.removed_index);
                } else {
                    self.changed.remove(&removal.removed_index);
                }
                self.changed.retain(|&i| (i as usize) < new_len);
                Response::with_catalog(self.catalog_ack(id, removal.removed_index))
            }
            Effect::Screen(kind) => {
                // The lock is held from capture to commit, so the commit
                // adopts unless the state is degraded.
                let job = self.capture(kind);
                self.run_and_commit(&job)
            }
            Effect::Status => Response::with_status(self.status()),
            Effect::Shutdown => Response::ack(),
        }
    }

    /// Answer a request `ServiceState::plan` refused.
    pub(crate) fn refuse(&mut self, refusal: &ServiceError) -> Response {
        self.requests += 1;
        Response::error(refusal.to_string())
    }

    /// Execute one request against the state. A SCREEN, DELTA or ADVANCE
    /// runs [`ServiceState::begin`] → [`run_screen_job`] →
    /// [`ServiceState::commit`], the sequence the worker pool runs with the
    /// lock released around the middle step. Every other request goes
    /// plan → log → apply → checkpoint-if-due: only planning can refuse; a
    /// planned mutation is then logged (a failed append answers
    /// `not_applied` and changes nothing), applied — which cannot fail —
    /// and folded into a snapshot when one is due. With no persister
    /// attached the log and checkpoint steps are empty, which is how
    /// recovery replays the WAL tail through this same path.
    pub fn handle(&mut self, request: &Request) -> Response {
        if matches!(
            request,
            Request::Screen | Request::Delta | Request::Advance { .. }
        ) {
            return match self.begin(request) {
                Ok(job) => self.run_and_commit(&job),
                Err(refusal) => *refusal,
            };
        }
        let effect = match self.plan(request) {
            Ok(effect) => effect,
            Err(refusal) => return self.refuse(&refusal),
        };
        let mutation = request.is_mutation();
        if mutation {
            if let Some(rejection) = self.log(request) {
                return rejection;
            }
        }
        let response = self.apply(effect);
        if mutation {
            self.checkpoint_if_due();
        }
        response
    }

    fn run_and_commit(&mut self, job: &ScreenJob) -> Response {
        let output = run_screen_job(job, None).expect(UNCANCELLABLE);
        self.commit(job, output).response
    }

    /// Come back from a state directory `Persister::open` just read:
    /// restore its snapshot, replay the WAL tail through
    /// [`ServiceState::handle`], then attach the persister. Replay runs
    /// *before* the attach, so its log step is empty and it appends
    /// nothing: replay is the live path without the disk, not a second
    /// path.
    pub(crate) fn recover(
        screener: CpuScreener,
        persister: Persister,
        recovery: &Recovery,
    ) -> Result<ServiceState, ServiceError> {
        let mut state = match &recovery.snapshot {
            Some(snapshot) => ServiceState::restore(screener, snapshot)?,
            None => ServiceState::with_screener(screener),
        };
        for request in &recovery.tail {
            let response = state.handle(request);
            if !response.ok {
                return Err(ServiceError::Recovery(format!(
                    "replaying wal record {request:?}: {}",
                    response.error.unwrap_or_default()
                )));
            }
        }
        state.recovered |= !recovery.tail.is_empty();
        state.persister = Some(persister);
        Ok(state)
    }

    /// Capture a screening job at the current epoch. Cheap: the snapshot
    /// shares storage with the catalog until the next mutation.
    fn capture(&self, kind: ScreenKind) -> ScreenJob {
        ScreenJob {
            kind,
            snapshot: self.catalog.snapshot(),
            changed: self.changed.iter().copied().collect(),
            warm: self.engine.is_warm().then(|| self.engine.warm()),
            screener: *self.engine.screener(),
        }
    }

    /// Start a SCREEN, DELTA or ADVANCE, in one lock hold: plan it, refuse
    /// an ADVANCE while degraded — it only means anything if it mutates the
    /// catalog, so there is no ephemeral fallback and no worker is burnt on
    /// it — and capture the job, counting the request. The job is then run
    /// lock-free ([`run_screen_job`]) and handed to
    /// [`ServiceState::commit`]. The refusal is boxed: a [`Response`]
    /// runs to kilobytes.
    pub fn begin(&mut self, request: &Request) -> Result<ScreenJob, Box<Response>> {
        let kind = match self.plan(request) {
            Ok(Effect::Screen(kind)) => kind,
            Ok(_) => {
                let refusal = ServiceError::InvalidRequest(format!(
                    "{} is not a screening request",
                    request.kind()
                ));
                return Err(Box::new(self.refuse(&refusal)));
            }
            Err(refusal) => return Err(Box::new(self.refuse(&refusal))),
        };
        if matches!(kind, ScreenKind::Advance { .. }) {
            if let Some(rejection) = self.degraded_rejection() {
                return Err(Box::new(rejection));
            }
        }
        self.requests += 1;
        Ok(self.capture(kind))
    }

    /// Merge a finished job back into the live state — the only way a
    /// screen reaches the maintained set. Screens are latest-epoch-wins: a
    /// result captured before the adopted set answers `stale`. An advance
    /// mutates the catalog, so it is refused if any mutation landed since
    /// capture. Anything else is an adoption, logged first: a screen whose
    /// record cannot be logged is served `ephemeral` and not adopted, so
    /// the served result never diverges from the replayable history, and
    /// such an advance is refused. Only an adoption is logged, so WAL order
    /// is commit order.
    ///
    /// An adopted screen has the removals that landed after its capture
    /// replayed onto it, becomes the maintained set, and leaves only
    /// satellites mutated *after* capture pending. An adopted advance
    /// re-propagates the catalog and slides the window. Either is then
    /// folded into a snapshot when one is due.
    ///
    /// This is also the one outcome point: it records in METRICS every
    /// answered screen (adopted, stale or ephemeral) with its filter
    /// stats, and an adopted advance's tail screen, and hands back
    /// the [`Publication`] subscribers are to see.
    pub fn commit(&mut self, job: &ScreenJob, output: ScreenOutput) -> Committed {
        let epoch = job.epoch();
        let answer = |response| Committed {
            response,
            publication: None,
        };
        let committed = match output {
            ScreenOutput::Screen(Screened { mut report, ran }) => {
                let mut summary = ScreenSummary::from_report(&report);
                summary.epoch = epoch;
                // The screen ran whatever the commit decides, so every
                // outcome is recorded.
                {
                    let mut metrics = self.metrics.lock();
                    metrics.record_screen(ran == ScreenRun::Delta, &summary.timings);
                    if let Some(stats) = &summary.filter_stats {
                        metrics.record_filter_chain(stats);
                    }
                }
                if epoch < self.warm_epoch {
                    summary.stale = true;
                    return answer(Response::with_screen(summary));
                }
                let mut conjunctions = std::mem::take(&mut report.conjunctions);
                if self.log(&job.kind.request()).is_some() {
                    summary.ephemeral = true;
                    return Committed {
                        response: Response::with_screen(summary),
                        publication: (self.catalog.epoch() == epoch).then(|| Publication {
                            conjunctions: Arc::new(conjunctions),
                            epoch,
                            ephemeral: true,
                        }),
                    };
                }
                for &(removed_at, removal, new_len) in &self.removals {
                    if removed_at > epoch {
                        drop_removed(&mut conjunctions, removal, new_len);
                    }
                }
                self.engine.adopt(
                    conjunctions,
                    self.catalog.len(),
                    ran,
                    LastScreen::from_report(&report),
                );
                self.warm_epoch = epoch;
                self.removals
                    .retain(|&(removed_at, _, _)| removed_at > epoch);
                // Indices mutated after capture (adds, updates, swap_remove
                // movers) were not covered by this screen and stay pending.
                self.changed
                    .retain(|&i| self.catalog.generation_at(i).is_some_and(|g| g > epoch));
                self.adopted(Response::with_screen(summary), epoch)
            }
            ScreenOutput::Advance {
                conjunctions,
                outcome,
                tail,
                dt,
                fold,
            } => {
                if self.catalog.epoch() != epoch {
                    return answer(Response::error(format!(
                        "advance raced concurrent mutations (catalog at epoch {}, captured at \
                         {epoch}); retry",
                        self.catalog.epoch()
                    )));
                }
                if let Some(rejection) = self.log(&job.kind.request()) {
                    return answer(rejection);
                }
                {
                    let mut metrics = self.metrics.lock();
                    metrics.advance.record(&tail.timings);
                    if let Some(stats) = &tail.filter_stats {
                        metrics.record_filter_chain(stats);
                    }
                }
                // Identical propagation to the job's: absolute, from the
                // stored epoch-0 base elements.
                self.catalog.advance_all(dt);
                self.engine
                    .adopt(conjunctions, self.catalog.len(), fold, tail);
                self.changed.clear();
                self.warm_epoch = self.catalog.epoch();
                self.removals.clear();
                let response = Response::with_advance(AdvanceAck {
                    retired: outcome.retired,
                    discovered: outcome.discovered,
                    window: self.window(),
                });
                self.adopted(response, self.warm_epoch)
            }
        };
        self.checkpoint_if_due();
        committed
    }

    /// An adoption's answer with the new maintained set to publish.
    fn adopted(&self, response: Response, epoch: u64) -> Committed {
        Committed {
            response,
            publication: Some(Publication {
                conjunctions: self.engine.warm(),
                epoch,
                ephemeral: false,
            }),
        }
    }

    fn catalog_ack(&self, id: u64, index: u32) -> CatalogAck {
        CatalogAck {
            id,
            index,
            n_satellites: self.catalog.len(),
            epoch: self.catalog.epoch(),
        }
    }

    fn window(&self) -> (f64, f64) {
        let start = self.catalog.time();
        (start, start + self.engine.config().span_seconds)
    }

    pub fn status(&self) -> StatusInfo {
        StatusInfo {
            n_satellites: self.catalog.len(),
            variant: self.engine.variant().label().to_string(),
            epoch: self.catalog.epoch(),
            pending_changes: self.changed.len(),
            live_conjunctions: self.engine.conjunction_count(),
            full_screens: self.engine.full_screens(),
            delta_screens: self.engine.delta_screens(),
            requests_served: self.requests,
            uptime_ms: self.started.elapsed().as_secs_f64() * 1e3,
            window: self.window(),
            // The engine's record of what it last adopted, not the
            // counters — `delta_screens > 0` says a delta happened at some
            // point, not that the last screen was one.
            last_screen: self.engine.last_screen().cloned(),
            recovered: self.recovered,
            mode: if self.is_degraded() {
                "degraded"
            } else {
                "normal"
            }
            .to_string(),
            metrics: Some(self.metrics.lock().one_line()),
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    reporter: Option<JoinHandle<()>>,
    probe: Option<JoinHandle<()>>,
    recovery: Option<RecoverySummary>,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:7878"`, or port 0 for ephemeral)
    /// with default options (no persistence).
    pub fn bind(addr: &str, config: ScreeningConfig) -> Result<Server, ServiceError> {
        Server::bind_with(addr, config, ServerOptions::default())
    }

    /// Bind with explicit options. With [`ServerOptions::persist`] set,
    /// recovers state from the directory before accepting connections:
    /// newest valid snapshot, then WAL tail replayed through the normal
    /// request path, then a fresh snapshot folding the replay in.
    pub fn bind_with(
        addr: &str,
        config: ScreeningConfig,
        options: ServerOptions,
    ) -> Result<Server, ServiceError> {
        check_pool(&options)?;
        let screener = CpuScreener::new(options.variant, config).map_err(ServiceError::Config)?;
        // A bad layout is refused with or without a state directory.
        let shards = snapshot_layout(&options)?;
        ShardMap::for_layout(shards).map_err(ServiceError::Config)?;
        let mut recovery_summary = None;
        let state = match &options.persist {
            Some(persist_options) => {
                let mut persist_options = persist_options.clone();
                persist_options.shards = shards;
                let (persister, recovery) =
                    Persister::open(&persist_options, Arc::clone(&options.faults))?;
                let mut state = ServiceState::recover(screener, persister, &recovery)?;
                if !recovery.tail.is_empty() {
                    // Fold the replay into a fresh snapshot so the next
                    // restart starts from here; METRICS counts it like any
                    // other checkpoint.
                    state.checkpoint()?;
                }
                recovery_summary = Some(RecoverySummary {
                    snapshot_seq: recovery.snapshot.as_ref().map(|s| s.wal_seq),
                    replayed: recovery.tail.len(),
                    torn_tail: recovery.torn_tail.is_some(),
                    corrupt_snapshots: recovery.corrupt_snapshots,
                });
                state
            }
            None => ServiceState::with_screener(screener),
        };

        let listener = TcpListener::bind(addr).map_err(|e| ServiceError::Bind {
            addr: addr.to_string(),
            source: e,
        })?;
        let local = listener.local_addr().map_err(|e| ServiceError::Bind {
            addr: addr.to_string(),
            source: e,
        })?;
        let worker_count = resolve_workers(options.workers);
        let (jobs_tx, jobs_rx) = sync_channel::<Job>(options.queue_depth.max(1));
        // One receiver, taken in turn by whichever worker is idle.
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        // The wake pipe: workers and publishers write a byte to nudge the
        // event loop's poll; the loop drains the read end.
        let (wake_tx, wake_rx) = UnixStream::pair().map_err(|e| ServiceError::Spawn {
            what: "event-loop wake pipe",
            source: e,
        })?;
        wake_tx
            .set_nonblocking(true)
            .map_err(|e| ServiceError::Spawn {
                what: "event-loop wake pipe",
                source: e,
            })?;
        let subs = SubHub::new();
        if state.engine.is_warm() {
            // Prime the published baseline from the recovered warm set so
            // a restarted daemon's first screen doesn't replay every
            // pre-existing pair to subscribers as `new`.
            subs.prime(&state.engine.warm(), state.catalog.ids());
        }
        let shared = Arc::new(Shared {
            // The daemon's registry is the state's, shared.
            metrics: Arc::clone(&state.metrics),
            state: Mutex::new(state),
            registry: CancelRegistry::new(),
            subs,
            io: IoHub::new(wake_tx),
            shutdown: AtomicBool::new(false),
            jobs: jobs_tx,
            queued: AtomicUsize::new(0),
            addr: local,
            faults: options.faults,
            read_timeout: options.read_timeout,
            write_highwater: options.write_highwater.max(1),
        });
        let workers = (0..worker_count)
            .map(|index| spawn_worker(Arc::clone(&shared), Arc::clone(&jobs_rx), index))
            .collect::<Result<Vec<_>, _>>()?;
        let reporter = options
            .metrics_every
            .and_then(|every| spawn_metrics_reporter(Arc::clone(&shared), every));
        // Ephemeral daemons cannot lose persistence, so they get no probe.
        let probe = if options.persist.is_some() {
            Some(spawn_persist_probe(
                Arc::clone(&shared),
                options.probe_initial,
                options.probe_max,
            )?)
        } else {
            None
        };
        Ok(Server {
            listener,
            wake_rx,
            shared,
            reporter,
            probe,
            workers,
            recovery: recovery_summary,
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// What startup recovery found (`None` without persistence).
    pub fn recovery(&self) -> Option<&RecoverySummary> {
        self.recovery.as_ref()
    }

    /// Screening worker threads this server runs.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Current catalog size (used by the CLI to skip preloading over a
    /// recovered catalog).
    pub fn catalog_len(&self) -> usize {
        self.shared.state.lock().catalog.len()
    }

    /// Seed the catalog before serving, using dense indices as external
    /// ids. Goes through the normal request path so the WAL covers it, and
    /// each ADD is counted in METRICS like one that came over the wire.
    pub fn preload(&self, population: &[KeplerElements]) -> Result<usize, ServiceError> {
        for (i, el) in population.iter().enumerate() {
            let request = Request::Add {
                id: i as u64,
                elements: ElementsSpec::from_elements(el),
            };
            let response = self.shared.state.lock().handle(&request);
            self.shared
                .metrics
                .lock()
                .count_request(request.kind(), response.ok);
            if !response.ok {
                return Err(ServiceError::Recovery(format!(
                    "preload of satellite {i} failed: {}",
                    response.error.unwrap_or_default()
                )));
            }
        }
        Ok(population.len())
    }

    /// Serve connections on the evented I/O loop until a SHUTDOWN request
    /// arrives and in-flight work drains. Blocks. On the way out: trips
    /// every live job's token, stops each worker, and joins the
    /// workers and the metrics reporter — no stray threads.
    pub fn run(mut self) {
        conn::event_loop(&self.listener, &self.wake_rx, &self.shared);
        self.shared.registry.cancel_all();
        for _ in &self.workers {
            let _ = self.shared.jobs.send(Job::Stop);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(reporter) = self.reporter.take() {
            let _ = reporter.join();
        }
        if let Some(probe) = self.probe.take() {
            let _ = probe.join();
        }
    }

    /// Run on a background thread; returns a handle for tests and the CLI.
    pub fn spawn(self) -> Result<ServerHandle, ServiceError> {
        let addr = self.local_addr();
        let join = thread::Builder::new()
            .name("kessler-serve".into())
            .spawn(move || self.run())
            .map_err(|e| ServiceError::Spawn {
                what: "server accept loop",
                source: e,
            })?;
        Ok(ServerHandle { addr, join })
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    join: JoinHandle<()>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop and wait for it to exit.
    pub fn shutdown(self) {
        let _ = request(self.addr, &Request::Shutdown);
        let _ = self.join.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{DELTA_VARIANT, HYBRID_DELTA_VARIANT};
    use crate::persist::Row;
    use crate::testkit::SplitMix64;
    use kessler_core::{GridScreener, HybridScreener};
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn spec(a: f64, incl: f64, m: f64) -> ElementsSpec {
        ElementsSpec {
            a,
            e: 0.001,
            incl,
            raan: 0.2,
            argp: 0.1,
            mean_anomaly: m,
        }
    }

    #[test]
    fn state_handles_catalog_lifecycle() {
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut state = ServiceState::new(config).unwrap();

        let r = state.handle(&Request::Add {
            id: 7,
            elements: spec(7_000.0, 0.5, 0.0),
        });
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.catalog.unwrap().index, 0);

        let r = state.handle(&Request::Add {
            id: 7,
            elements: spec(7_000.0, 0.5, 0.0),
        });
        assert!(!r.ok, "duplicate add must fail");

        let r = state.handle(&Request::Update {
            id: 7,
            elements: spec(7_050.0, 0.6, 0.3),
        });
        assert!(r.ok);

        let r = state.handle(&Request::Status);
        let status = r.status.unwrap();
        assert_eq!(status.n_satellites, 1);
        assert_eq!(status.pending_changes, 1);
        assert_eq!(status.requests_served, 4);

        let r = state.handle(&Request::Remove { id: 7 });
        assert!(r.ok);
        let r = state.handle(&Request::Remove { id: 7 });
        assert!(!r.ok, "double remove must fail");
    }

    const MAX_SATS: u64 = 64;

    /// One generated request over external ids `0..MAX_SATS`, so the
    /// catalog never exceeds 64 satellites and duplicate ADDs and unknown
    /// UPDATE/REMOVE ids come up by themselves; one in ten element sets is
    /// invalid and one in three ADVANCEs carries a bad `dt`.
    fn generated_request(rng: &mut SplitMix64) -> Request {
        let id = rng.below(MAX_SATS);
        let elements = if rng.below(10) == 0 {
            ElementsSpec {
                a: -5.0,
                e: 0.0,
                incl: 0.0,
                raan: 0.0,
                argp: 0.0,
                mean_anomaly: 0.0,
            }
        } else {
            ElementsSpec {
                a: 6_950.0 + 120.0 * rng.unit(),
                e: 0.002 * rng.unit(),
                incl: 0.3 + 1.2 * rng.unit(),
                raan: std::f64::consts::TAU * rng.unit(),
                argp: std::f64::consts::TAU * rng.unit(),
                mean_anomaly: std::f64::consts::TAU * rng.unit(),
            }
        };
        match rng.below(100) {
            0..=34 => Request::Add { id, elements },
            35..=64 => Request::Update { id, elements },
            65..=79 => Request::Remove { id },
            80..=85 => Request::Advance {
                dt: match rng.below(6) {
                    0 => -1.0,
                    1 => {
                        if rng.below(2) == 0 {
                            0.0
                        } else {
                            f64::NAN
                        }
                    }
                    2 if rng.below(2) == 0 => f64::INFINITY,
                    _ => 1.0 + 40.0 * rng.unit(),
                },
            },
            86..=88 => Request::Screen,
            _ => Request::Delta,
        }
    }

    /// The reference the state is held against: which ids exist, and the
    /// request rules written out once more in the plainest possible form.
    #[derive(Default)]
    struct Model {
        sats: BTreeMap<u64, ElementsSpec>,
    }

    impl Model {
        fn accepts(&self, request: &Request) -> bool {
            match request {
                Request::Add { id, elements } => {
                    elements.into_elements().is_ok() && !self.sats.contains_key(id)
                }
                Request::Update { id, elements } => {
                    elements.into_elements().is_ok() && self.sats.contains_key(id)
                }
                Request::Remove { id } => self.sats.contains_key(id),
                Request::Advance { dt } => dt.is_finite() && *dt > 0.0,
                Request::Screen | Request::Delta | Request::Status | Request::Shutdown => true,
                _ => false,
            }
        }

        fn apply(&mut self, request: &Request) {
            match request {
                Request::Add { id, elements } | Request::Update { id, elements } => {
                    self.sats.insert(*id, *elements);
                }
                Request::Remove { id } => {
                    self.sats.remove(id);
                }
                _ => {}
            }
        }

        /// The live catalog must hold exactly the model's satellites
        /// (ADVANCE moves mean anomalies, so only `a`/`incl` are compared).
        fn assert_matches(&self, state: &ServiceState, context: &str) {
            let catalog = state.catalog();
            assert_eq!(catalog.len(), self.sats.len(), "{context}");
            assert!(catalog.len() as u64 <= MAX_SATS, "{context}");
            for (id, spec) in &self.sats {
                let index = catalog
                    .index_of(*id)
                    .unwrap_or_else(|| panic!("{context}: {id}"));
                let el = catalog.elements()[index as usize];
                assert_eq!(el.semi_major_axis, spec.a, "{context}");
                assert_eq!(el.inclination, spec.incl, "{context}");
            }
        }
    }

    fn json<T: serde::Serialize>(value: &T) -> String {
        serde_json::to_string(value).expect("serialize")
    }

    #[test]
    fn generated_sequences_plan_exactly_what_they_apply() {
        // WAL-before-apply leans on this: the daemon logs a mutation after
        // `plan` accepted it and before `apply` runs, so `plan` must
        // refuse everything that would not stick (else the log holds a
        // record of something that never happened) and `apply` must carry
        // out everything `plan` accepted. 2 400 generated requests, each
        // verdict held against the model and each refusal against the
        // state's own serialized form.
        for seed in [0x5eed_0001_u64, 0x5eed_0002, 0x5eed_0003] {
            let mut rng = SplitMix64(seed);
            let config = ScreeningConfig::grid_defaults(5.0, 120.0);
            let mut state = ServiceState::new(config).unwrap();
            let mut model = Model::default();
            let mut refused = 0;
            for step in 0..800 {
                let request = generated_request(&mut rng);
                let context = format!("seed {seed:#x} step {step}: {request:?}");
                let before = state.snapshot(0);
                match state.plan(&request) {
                    Ok(effect) => {
                        assert!(model.accepts(&request), "planned a bad request; {context}");
                        let response = state.apply(effect);
                        assert!(response.ok, "{:?}; {context}", response.error);
                        model.apply(&request);
                    }
                    Err(refusal) => {
                        assert!(
                            !model.accepts(&request),
                            "refused a good request; {context}"
                        );
                        let response = state.refuse(&refusal);
                        assert!(!response.ok && !response.not_applied, "{context}");
                        assert_eq!(response.error, Some(refusal.to_string()), "{context}");
                        // Nothing but the request counter may have moved.
                        let mut after = state.snapshot(0);
                        let served = before.global.requests_served;
                        assert_eq!(after.global.requests_served, served + 1);
                        after.global.requests_served = served;
                        assert_eq!(after.rows, before.rows, "{context}");
                        assert_eq!(json(&after.global), json(&before.global), "{context}");
                        refused += 1;
                    }
                }
                model.assert_matches(&state, &context);
            }
            assert!(
                refused > 100,
                "seed {seed:#x}: only {refused} refusals generated"
            );
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kessler-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The maintained set and the full and delta screen counters: what
    /// adopting a screen changes.
    fn maintained(state: &ServiceState) -> (Vec<kessler_core::Conjunction>, u64, u64) {
        let engine = state.engine();
        (
            engine.conjunctions(),
            engine.full_screens(),
            engine.delta_screens(),
        )
    }

    #[test]
    fn a_failed_wal_append_is_not_applied_and_recovery_equals_the_uninterrupted_model() {
        // The same generated traffic through the daemon's plan → log →
        // apply path, with one WAL-append fault armed at a random step.
        // Every request the daemon does not answer `not_applied` also goes
        // to a bare `ServiceState` that never saw a disk; after a restart
        // from the state directory the two must hold the same state.
        let seed = 0x5eed_00fa_u64;
        let mut rng = SplitMix64(seed);
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let dir = temp_dir("fault");
        let faults = Arc::new(FaultPlan::default());
        let options = |faults: Arc<FaultPlan>| ServerOptions {
            persist: Some(PersistOptions {
                snapshot_every: 37,
                ..PersistOptions::new(&dir)
            }),
            faults,
            probe_initial: Duration::from_millis(1),
            probe_max: Duration::from_millis(5),
            ..ServerOptions::default()
        };
        let server = Server::bind_with("127.0.0.1:0", config, options(Arc::clone(&faults)))
            .expect("bind persistent server");
        let shared = Arc::clone(&server.shared);
        let handle = server.spawn().expect("spawn server");
        let last_seq = || shared.state.lock().persister.as_ref().unwrap().last_seq();

        let screened = || maintained(&shared.state.lock());
        let mut uninterrupted = ServiceState::new(config).unwrap();
        let steps = 600;
        let fault_step = 100 + rng.below(200);
        let mut not_applied = 0;
        for step in 0..steps {
            if step == fault_step {
                faults.arm_wal_append_eio();
            }
            // A sprinkling of the verbs that are answered without the WAL.
            let request = match rng.below(25) {
                0 => Request::Status,
                1 => Request::Metrics,
                2 => Request::Subscribe {
                    assets: vec![],
                    all: true,
                },
                3 => Request::Unsubscribe { sub_id: None },
                _ => generated_request(&mut rng),
            };
            let context = format!("seed {seed:#x} step {step}: {request:?}");
            let seq_before = last_seq();
            let screened_before = screened();
            let response = match request {
                // The event loop answers METRICS; the state never sees it.
                Request::Metrics => super::request(handle.addr(), &request).expect("METRICS"),
                _ => shared.state.lock().handle(&request),
            };
            let logged = last_seq() - seq_before;
            if response.screen.as_ref().is_some_and(|s| s.ephemeral) {
                // A screen served while degraded: answered, but neither
                // adopted nor logged, so the model never sees it.
                assert!(response.ok, "{context}");
                assert_eq!(logged, 0, "{context}");
                assert_eq!(screened(), screened_before, "{context}");
                continue;
            }
            if response.not_applied {
                // Only a planned mutation reaches the log gate, and a
                // rejected one leaves neither a record nor a trace.
                assert!(!response.ok && request.is_mutation(), "{context}");
                assert!(uninterrupted.plan(&request).is_ok(), "{context}");
                assert_eq!(logged, 0, "{context}");
                not_applied += 1;
                continue;
            }
            if matches!(request, Request::Metrics) {
                assert!(response.ok && logged == 0, "{context}");
                continue;
            }
            let expected = uninterrupted.handle(&request);
            assert_eq!(response.ok, expected.ok, "{context}");
            assert_eq!(response.error, expected.error, "{context}");
            // Logged iff it is a mutation that was applied.
            assert_eq!(
                logged,
                u64::from(response.ok && request.is_mutation()),
                "{context}"
            );
        }
        assert!(
            not_applied >= 1,
            "seed {seed:#x}: the armed fault never fired"
        );
        let live = shared.state.lock().snapshot(0);
        drop(shared);
        handle.shutdown();

        let server = Server::bind_with("127.0.0.1:0", config, options(FaultPlan::inert()))
            .expect("recover from the state directory");
        let recovered = server.shared.state.lock().snapshot(0);
        server.spawn().expect("spawn server").shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        let expected = uninterrupted.snapshot(0);
        for (what, got) in [("live", &live), ("recovered", &recovered)] {
            let context = format!("seed {seed:#x}: {what} daemon vs uninterrupted model");
            let key = |row: &Row| (row.index, row.id, row.generation);
            assert_eq!(
                got.rows.iter().map(key).collect::<Vec<_>>(),
                expected.rows.iter().map(key).collect::<Vec<_>>(),
                "{context}"
            );
            let (rows, expected_rows) = (&got.rows, &expected.rows);
            let (got, expected) = (&got.global, &expected.global);
            assert_eq!(got.epoch, expected.epoch, "{context}");
            assert_eq!(got.changed, expected.changed, "{context}");
            assert_eq!(got.screened_n, expected.screened_n, "{context}");
            assert_eq!(got.full_screens, expected.full_screens, "{context}");
            assert_eq!(got.delta_screens, expected.delta_screens, "{context}");
            assert_eq!(got.window_start, expected.window_start, "{context}");
            assert_eq!(got.time, expected.time, "{context}");
            // Elements and conjunctions cross a decimal round-trip on the
            // recovered side, so they are held to 1e-9 instead of to bits.
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + b.abs());
            for (a, b) in rows.iter().zip(expected_rows) {
                let (a, b) = (a.elements, b.elements);
                assert!(close(a.a, b.a) && close(a.incl, b.incl), "{context}");
                assert!(close(a.mean_anomaly, b.mean_anomaly), "{context}");
            }
            assert_eq!(
                got.conjunctions.len(),
                expected.conjunctions.len(),
                "{context}"
            );
            for (a, b) in got.conjunctions.iter().zip(&expected.conjunctions) {
                assert_eq!(a.pair(), b.pair(), "{context}");
                assert!((a.tca - b.tca).abs() < 1e-6, "{context}");
                assert!((a.pca_km - b.pca_km).abs() < 1e-6, "{context}");
            }
        }
    }

    #[test]
    fn handle_alone_keeps_acks_durable_and_rejections_absent() {
        // The durability contract on `ServiceState::handle` with a
        // persister attached: no server, no thread, no sleep.
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let dir = temp_dir("handle");
        let faults = Arc::new(FaultPlan::default());
        let restart = |faults: Arc<FaultPlan>| {
            let (persister, recovery) =
                Persister::open(&PersistOptions::new(&dir), faults).expect("open state dir");
            let screener = CpuScreener::new(Variant::Grid, config).unwrap();
            ServiceState::recover(screener, persister, &recovery).expect("recover")
        };
        let wal_records = || {
            crate::wal::read_wal(&dir.join(crate::persist::WAL_FILE))
                .unwrap()
                .records
                .len()
        };
        let add = |id: u64| Request::Add {
            id,
            elements: spec(7_000.0 + 3.0 * id as f64, 0.5, 0.4 * id as f64),
        };

        let mut state = restart(Arc::clone(&faults));
        for id in 0..4 {
            assert!(state.handle(&add(id)).ok, "add {id}");
        }
        assert_eq!(wal_records(), 4);

        // A failed append answers `not_applied`, leaves no trace in memory
        // or on disk, and degrades the state.
        faults.arm_wal_append_eio();
        let r = state.handle(&add(4));
        assert!(!r.ok && r.not_applied, "{r:?}");
        assert_eq!(state.catalog().index_of(4), None);
        assert_eq!(wal_records(), 4);
        assert_eq!(state.status().mode, "degraded");
        let r = state.handle(&add(5));
        assert!(r.not_applied, "{r:?}");
        assert!(r.error.unwrap().contains("degraded (read-only)"));
        assert!(state.handle(&Request::Status).ok, "reads are still served");

        // The emergency checkpoint fails while the disk does, and returns
        // the state to normal once it is back.
        faults.set_wal_broken(true);
        assert!(state.end_degraded().is_err());
        assert_eq!(state.status().mode, "degraded");
        faults.set_wal_broken(false);
        state.end_degraded().expect("emergency checkpoint");
        assert_eq!(state.status().mode, "normal");
        assert!(state.handle(&add(5)).ok);

        let records = wal_records();
        let seq = state.persister.as_ref().unwrap().last_seq();
        let live = state.catalog().ids().to_vec();
        drop(state);
        let state = restart(FaultPlan::inert());
        assert_eq!(state.catalog().ids(), live);
        assert_eq!(state.catalog().index_of(4), None);
        assert!((0..4)
            .chain([5])
            .all(|id| state.catalog().index_of(id).is_some()));
        // Replay went through `handle` before the persister was attached,
        // so it appended nothing.
        assert_eq!(wal_records(), records, "replay appended to the wal");
        assert_eq!(state.persister.as_ref().unwrap().last_seq(), seq);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handle_alone_serves_degraded_screens_ephemeral_and_adopts_after_recovery() {
        // Degraded screening on `ServiceState::handle` with a persister
        // attached: no server, no thread, no sleep.
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let dir = temp_dir("degraded-screens");
        let faults = Arc::new(FaultPlan::default());
        let (persister, recovery) =
            Persister::open(&PersistOptions::new(&dir), Arc::clone(&faults)).expect("open");
        let screener = CpuScreener::new(Variant::Grid, config).unwrap();
        let mut state = ServiceState::recover(screener, persister, &recovery).expect("recover");
        let wal = || {
            crate::wal::read_wal(&dir.join(crate::persist::WAL_FILE))
                .unwrap()
                .records
        };
        for id in 0..12u64 {
            let elements = spec(
                7_000.0 + id as f64 * 3.0,
                0.4 + (id % 5) as f64 * 0.3,
                id as f64 * 0.37,
            );
            assert!(state.handle(&Request::Add { id, elements }).ok);
        }
        assert!(state.handle(&Request::Screen).ok);
        let update = Request::Update {
            id: 3,
            elements: spec(7_009.5, 1.6, 2.0),
        };
        assert!(state.handle(&update).ok);
        let before = maintained(&state);
        let records = wal().len();

        // The SCREEN's commit hits the failed append, the DELTA the
        // degraded state: both are answered from the computation, flagged
        // `ephemeral`, and leave the maintained set, the counters and the
        // log as they were.
        faults.arm_wal_append_eio();
        for request in [Request::Screen, Request::Delta] {
            let r = state.handle(&request);
            assert!(r.ok, "{request:?}: {:?}", r.error);
            let summary = r.screen.expect("screen summary");
            assert!(summary.ephemeral && !summary.stale, "{request:?}");
            assert_eq!(summary.n_satellites, 12);
            assert_eq!(maintained(&state), before, "{request:?} was adopted");
            assert_eq!(wal().len(), records, "{request:?} was logged");
        }
        assert_eq!(state.status().mode, "degraded");
        assert_eq!(state.status().pending_changes, 1);

        // ADVANCE must mutate the catalog to mean anything: refused.
        let (time, window) = (state.catalog().time(), state.status().window);
        let r = state.handle(&Request::Advance { dt: 30.0 });
        assert!(!r.ok && r.not_applied, "{r:?}");
        assert!(r.error.unwrap().contains("degraded (read-only)"));
        assert_eq!(state.catalog().time(), time);
        assert_eq!(state.status().window, window);
        assert_eq!(wal().len(), records);

        // Back to normal, a SCREEN is adopted and logged once.
        state.end_degraded().expect("emergency checkpoint");
        let records = wal().len();
        let r = state.handle(&Request::Screen);
        assert!(r.ok && !r.screen.unwrap().ephemeral);
        assert_eq!(state.engine().full_screens(), before.1 + 1);
        assert_eq!(state.status().pending_changes, 0);
        let log = wal();
        assert_eq!(log.len(), records + 1);
        assert_eq!(log.last().map(|(_, r)| r), Some(&Request::Screen));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_screens_and_clears_pending() {
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut state = ServiceState::new(config).unwrap();
        for i in 0..12u64 {
            let r = state.handle(&Request::Add {
                id: i,
                elements: spec(
                    7_000.0 + i as f64 * 3.0,
                    0.4 + (i % 5) as f64 * 0.3,
                    i as f64 * 0.37,
                ),
            });
            assert!(r.ok);
        }
        let r = state.handle(&Request::Screen);
        let screen = r.screen.unwrap();
        assert_eq!(screen.n_satellites, 12);
        assert_eq!(screen.variant, "grid");
        assert!(!screen.stale);
        assert_eq!(screen.epoch, state.catalog().epoch());

        let r = state.handle(&Request::Status);
        assert_eq!(r.status.unwrap().pending_changes, 0);

        // A delta after one update agrees with the maintained set size.
        state.handle(&Request::Update {
            id: 3,
            elements: spec(7_009.5, 1.6, 2.0),
        });
        let r = state.handle(&Request::Delta);
        let delta = r.screen.unwrap();
        assert_eq!(delta.variant, crate::delta::DELTA_VARIANT);
        let r = state.handle(&Request::Status);
        let status = r.status.unwrap();
        assert_eq!(status.pending_changes, 0);
        assert_eq!(status.full_screens, 1);
        assert_eq!(status.delta_screens, 1);
        assert!(status.last_screen.is_some());
    }

    #[test]
    fn a_bare_state_records_its_screens_and_publishes_its_adoptions() {
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut state = ServiceState::new(config).unwrap();
        for i in 0..12u64 {
            state.handle(&Request::Add {
                id: i,
                elements: spec(
                    7_000.0 + i as f64 * 3.0,
                    0.4 + (i % 5) as f64 * 0.3,
                    i as f64 * 0.37,
                ),
            });
        }
        // A worker's sequence: the adoption hands back the new maintained
        // set; the stale commit of an older capture hands back nothing.
        let old_job = state.begin(&Request::Screen).unwrap();
        let old_output = run_screen_job(&old_job, None).unwrap();
        state.handle(&Request::Update {
            id: 3,
            elements: spec(7_009.5, 1.6, 2.0),
        });
        let job = state.begin(&Request::Screen).unwrap();
        let output = run_screen_job(&job, None).unwrap();
        let committed = state.commit(&job, output);
        let publication = committed.publication.expect("an adoption publishes");
        assert!(!publication.ephemeral);
        assert_eq!(publication.epoch, job.epoch());
        assert_eq!(*publication.conjunctions, state.engine().conjunctions());
        let stale = state.commit(&old_job, old_output);
        assert!(stale.response.screen.unwrap().stale);
        assert!(stale.publication.is_none());

        assert!(state.handle(&Request::Delta).ok);
        assert!(state.handle(&Request::Advance { dt: 30.0 }).ok);
        let snapshot = state.metrics.lock().snapshot();
        let screens = |series: Option<kessler_core::PhaseSummaries>| series.map(|s| s.screens);
        assert_eq!(screens(snapshot.full_screens), Some(2), "adopted + stale");
        assert_eq!(screens(snapshot.delta_screens), Some(1));
        assert_eq!(screens(snapshot.advance_tails), Some(1));
        let status = state.handle(&Request::Status).status.unwrap();
        let digest = status.metrics.expect("STATUS carries the digest");
        assert!(digest.contains("full p50/p99"), "{digest}");
        assert!(digest.contains("delta p50/p99"), "{digest}");
    }

    #[test]
    fn state_refuses_metrics_and_cancel_requests() {
        // METRICS and CANCEL are answered by the daemon layer without the
        // state lock; the state itself treating them as errors keeps them
        // out of the WAL (only ok mutations are appended).
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut state = ServiceState::new(config).unwrap();
        let r = state.handle(&Request::Metrics);
        assert!(!r.ok);
        assert!(!Request::Metrics.is_mutation());
        let r = state.handle(&Request::Cancel {
            id: "job-1".to_string(),
        });
        assert!(!r.ok);
    }

    #[test]
    fn repeated_advances_do_not_drift_from_one_big_advance() {
        // Daemon-level version of the catalog drift regression: N small
        // ADVANCEs and one big ADVANCE must leave identical catalogs.
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut stepped = ServiceState::new(config).unwrap();
        let mut jumped = ServiceState::new(config).unwrap();
        for i in 0..6u64 {
            let s = spec(7_000.0 + i as f64 * 5.0, 0.4 + i as f64 * 0.2, i as f64);
            assert!(stepped.handle(&Request::Add { id: i, elements: s }).ok);
            assert!(jumped.handle(&Request::Add { id: i, elements: s }).ok);
        }
        let dt = 0.5;
        let steps = 1_000u32;
        for _ in 0..steps {
            assert!(stepped.handle(&Request::Advance { dt }).ok);
        }
        assert!(
            jumped
                .handle(&Request::Advance {
                    dt: dt * steps as f64
                })
                .ok
        );
        for (s, j) in stepped
            .catalog()
            .elements()
            .iter()
            .zip(jumped.catalog().elements())
        {
            let d = (s.mean_anomaly - j.mean_anomaly).abs() % std::f64::consts::TAU;
            let d = d.min(std::f64::consts::TAU - d);
            assert!(d <= 1e-9, "mean anomaly drifted {d} rad");
        }
        assert_eq!(
            stepped.status().window,
            jumped.status().window,
            "window bookkeeping must agree too"
        );
    }

    #[test]
    fn state_rejects_invalid_elements() {
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut state = ServiceState::new(config).unwrap();
        let r = state.handle(&Request::Add {
            id: 1,
            elements: ElementsSpec {
                a: -5.0,
                e: 0.0,
                incl: 0.0,
                raan: 0.0,
                argp: 0.0,
                mean_anomaly: 0.0,
            },
        });
        assert!(!r.ok);
        assert!(r.error.is_some());
    }

    #[test]
    fn state_advances_window() {
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut state = ServiceState::new(config).unwrap();
        for i in 0..6u64 {
            state.handle(&Request::Add {
                id: i,
                elements: spec(7_000.0 + i as f64 * 5.0, 0.4 + i as f64 * 0.2, i as f64),
            });
        }
        let r = state.handle(&Request::Advance { dt: 60.0 });
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.advance.unwrap().window, (60.0, 180.0));
        let r = state.handle(&Request::Advance { dt: -1.0 });
        assert!(!r.ok, "negative dt must fail");
    }

    #[test]
    fn state_snapshot_roundtrips() {
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut state = ServiceState::new(config).unwrap();
        for i in 0..10u64 {
            state.handle(&Request::Add {
                id: i * 10,
                elements: spec(
                    7_000.0 + i as f64 * 3.0,
                    0.4 + (i % 5) as f64 * 0.3,
                    i as f64 * 0.37,
                ),
            });
        }
        state.handle(&Request::Screen);
        state.handle(&Request::Update {
            id: 30,
            elements: spec(7_009.5, 1.6, 2.0),
        });
        state.handle(&Request::Advance { dt: 30.0 });
        state.handle(&Request::Update {
            id: 50,
            elements: spec(7_020.0, 0.8, 1.0),
        });

        let snapshot = state.snapshot(17);
        assert_eq!(snapshot.wal_seq, 17);
        let screener = CpuScreener::new(snapshot.global.variant, config).unwrap();
        let restored = ServiceState::restore(screener, &snapshot).unwrap();

        let a = state.status();
        let b = restored.status();
        assert_eq!(b.n_satellites, a.n_satellites);
        assert_eq!(b.epoch, a.epoch);
        assert_eq!(b.pending_changes, a.pending_changes);
        assert_eq!(b.live_conjunctions, a.live_conjunctions);
        assert_eq!(b.full_screens, a.full_screens);
        assert_eq!(b.delta_screens, a.delta_screens);
        assert_eq!(b.window, a.window);
        assert_eq!(
            restored.engine().conjunctions(),
            state.engine().conjunctions()
        );
        assert_eq!(restored.catalog().ids(), state.catalog().ids());

        // The request counter survives the round-trip instead of resetting,
        // recovery is flagged, and the catalog's absolute time (and thus
        // future ADVANCE propagation) is preserved.
        assert_eq!(b.requests_served, a.requests_served);
        assert!(a.requests_served > 0);
        assert!(!a.recovered);
        assert!(b.recovered);
        assert_eq!(restored.catalog().time(), state.catalog().time());
        assert_eq!(
            b.last_screen.as_ref().map(|l| l.variant.clone()),
            a.last_screen.as_ref().map(|l| l.variant.clone())
        );

        // A corrupted snapshot is rejected, not silently accepted.
        let mut bad = snapshot.clone();
        bad.rows[1].id = bad.rows[0].id;
        assert!(ServiceState::restore(screener, &bad).is_err());
    }

    /// The maintained set's bits, for equality to the bit.
    fn set_bits(state: &ServiceState) -> Vec<(u32, u32, u64, u64)> {
        let engine = state.engine();
        let set = engine.conjunctions();
        set.iter()
            .map(|c| (c.id_lo, c.id_hi, c.tca.to_bits(), c.pca_km.to_bits()))
            .collect()
    }

    #[test]
    fn a_twin_restored_before_every_step_holds_the_same_set_to_the_bit() {
        // Two Walker shells (550 km/53° and 540 km/53.2°, 72 planes × 22).
        // At d = 10 km and span 120 s the grid reports the first shell's
        // satellites 5 and 1479 at two TCAs 0.18 s apart, and satellite
        // 1561 of each shell meets the other's at two TCAs 0.08 s apart
        // under the grid and 0.63 s apart under the hybrid. A handful of
        // those satellites is the whole catalog.
        let shell = |altitude_km: f64, inclination_deg: f64| {
            kessler_population::WalkerShell {
                altitude_km,
                inclination: inclination_deg.to_radians(),
                total: 72 * 22,
                planes: 72,
                phasing: 1,
            }
            .generate()
        };
        let (a, b) = (shell(550.0, 53.0), shell(540.0, 53.2));
        let catalog = [
            a[5], a[1479], a[1561], a[16], a[1490], b[1561], b[5], b[1479],
        ];
        for (screener, seed) in [
            (
                GridScreener::new(ScreeningConfig::grid_defaults(10.0, 120.0)),
                1,
            ),
            (
                HybridScreener::new(ScreeningConfig::hybrid_defaults(10.0, 120.0)),
                2,
            ),
        ] {
            let variant = screener.variant();
            let mut state = ServiceState::with_screener(screener);
            for (id, el) in catalog.iter().enumerate() {
                let elements = ElementsSpec::from_elements(el);
                assert!(
                    state
                        .handle(&Request::Add {
                            id: id as u64,
                            elements
                        })
                        .ok
                );
            }
            assert!(state.handle(&Request::Screen).ok);
            let set = state.engine().conjunctions();
            assert!(
                set.windows(2)
                    .any(|w| w[0].pair() == w[1].pair() && w[1].tca - w[0].tca <= 2.0),
                "{variant:?}: no pair holds two TCAs within 2 s in {set:?}"
            );

            let s_ps = state.engine().config().seconds_per_sample;
            let mut rng = SplitMix64(seed);
            for step in 0..24 {
                let mut twin = ServiceState::restore(screener, &state.snapshot(0)).unwrap();
                let requests = if step % 2 == 0 {
                    vec![Request::Advance {
                        dt: s_ps * (0.05 + 1.95 * rng.unit()),
                    }]
                } else {
                    let index = rng.below(catalog.len() as u64) as usize;
                    let mut el = state.catalog().elements()[index];
                    el.mean_anomaly += 1e-4 * (rng.unit() - 0.5);
                    let elements = ElementsSpec::from_elements(&el);
                    let id = state.catalog().ids()[index];
                    vec![Request::Update { id, elements }, Request::Delta]
                };
                for request in &requests {
                    assert!(state.handle(request).ok, "{variant:?} step {step}");
                    assert!(twin.handle(request).ok, "{variant:?} step {step}");
                }
                assert_eq!(
                    set_bits(&twin),
                    set_bits(&state),
                    "{variant:?} step {step}: {requests:?}"
                );
            }
        }
    }

    #[test]
    fn restore_refuses_a_window_start_off_the_catalog_clock() {
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut state = ServiceState::new(config).unwrap();
        for i in 0..6u64 {
            state.handle(&Request::Add {
                id: i,
                elements: spec(7_000.0 + i as f64 * 5.0, 0.4 + i as f64 * 0.2, i as f64),
            });
        }
        assert!(state.handle(&Request::Advance { dt: 12.5 }).ok);
        let snapshot = state.snapshot(0);
        assert_eq!(
            snapshot.global.window_start.to_bits(),
            snapshot.global.time.to_bits()
        );
        let screener = *state.engine().screener();
        let restored = ServiceState::restore(screener, &snapshot).unwrap();
        assert_eq!(restored.status().window, state.status().window);

        for window_start in [12.5 + 1e-12, 0.0, -12.5, f64::NAN] {
            let mut bad = snapshot.clone();
            bad.global.window_start = window_start;
            let err = match ServiceState::restore(screener, &bad) {
                Ok(_) => panic!("window start {window_start} was accepted"),
                Err(err) => err,
            };
            assert!(matches!(err, ServiceError::Recovery(_)), "{err}");
        }
    }

    #[test]
    fn stale_screen_results_answer_but_do_not_clobber_newer_adoptions() {
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut state = ServiceState::new(config).unwrap();
        for i in 0..12u64 {
            state.handle(&Request::Add {
                id: i,
                elements: spec(
                    7_000.0 + i as f64 * 3.0,
                    0.4 + (i % 5) as f64 * 0.3,
                    i as f64 * 0.37,
                ),
            });
        }
        // Capture a job, then let the catalog move on and adopt a newer
        // screen before the old job commits.
        let old_job = state.begin(&Request::Screen).unwrap();
        let old_output = run_screen_job(&old_job, None).unwrap();
        state.handle(&Request::Update {
            id: 3,
            elements: spec(7_009.5, 1.6, 2.0),
        });
        assert!(state.handle(&Request::Screen).ok);
        let adopted = state.engine().conjunctions();
        let adopted_epoch = state.catalog().epoch();

        let r = state.commit(&old_job, old_output).response;
        let summary = r.screen.unwrap();
        assert!(summary.stale, "older-epoch result must be flagged stale");
        assert_eq!(summary.epoch, old_job.epoch());
        assert_eq!(
            state.engine().conjunctions(),
            adopted,
            "stale commit must not touch the maintained set"
        );
        assert_eq!(state.catalog().epoch(), adopted_epoch);
    }

    #[test]
    fn commits_replay_removals_that_landed_after_capture() {
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut state = ServiceState::new(config).unwrap();
        // Near-identical orbits so the screen finds plenty of pairs.
        for i in 0..10u64 {
            state.handle(&Request::Add {
                id: i,
                elements: spec(7_000.0 + i as f64 * 0.5, 0.9, i as f64 * 0.01),
            });
        }
        let job = state.begin(&Request::Screen).unwrap();
        let output = run_screen_job(&job, None).unwrap();
        assert!(state.handle(&Request::Remove { id: 4 }).ok);
        let new_len = state.catalog().len() as u32;

        let r = state.commit(&job, output).response;
        assert!(r.ok && !r.screen.unwrap().stale);
        for c in state.engine().conjunctions() {
            assert!(
                c.id_lo < new_len && c.id_hi < new_len,
                "conjunction ({}, {}) references a removed index",
                c.id_lo,
                c.id_hi
            );
        }
    }

    #[test]
    fn an_adopted_advance_leaves_the_elements_its_job_screened() {
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut state = ServiceState::new(config).unwrap();
        for i in 0..6u64 {
            state.handle(&Request::Add {
                id: i,
                elements: spec(7_000.0 + i as f64 * 5.0, 0.4 + i as f64 * 0.2, i as f64),
            });
        }
        assert!(state.handle(&Request::Advance { dt: 12.5 }).ok);
        // Elements delivered mid-flight are rebased onto catalog time.
        state.handle(&Request::Update {
            id: 3,
            elements: spec(7_021.0, 0.9, 2.0),
        });
        let dt = 30.0;
        let job = state.begin(&Request::Advance { dt }).unwrap();
        let snapshot = &job.snapshot;
        let screened = crate::catalog::elements_at(
            &snapshot.elements,
            &snapshot.base_elements,
            snapshot.time + dt,
        );
        let output = run_screen_job(&job, None).unwrap();
        assert!(state.commit(&job, output).response.ok);
        let bits = |elements: &[KeplerElements]| {
            elements
                .iter()
                .map(|e| {
                    [
                        e.semi_major_axis,
                        e.eccentricity,
                        e.inclination,
                        e.raan,
                        e.arg_perigee,
                        e.mean_anomaly,
                    ]
                    .map(f64::to_bits)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(state.catalog().elements()), bits(&screened));
    }

    #[test]
    fn advance_commits_refuse_to_race_mutations() {
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut state = ServiceState::new(config).unwrap();
        for i in 0..6u64 {
            state.handle(&Request::Add {
                id: i,
                elements: spec(7_000.0 + i as f64 * 5.0, 0.4 + i as f64 * 0.2, i as f64),
            });
        }
        let job = state.begin(&Request::Advance { dt: 30.0 }).unwrap();
        let output = run_screen_job(&job, None).unwrap();
        state.handle(&Request::Update {
            id: 2,
            elements: spec(7_011.0, 0.7, 1.0),
        });
        let time_before = state.catalog().time();
        let window_before = state.status().window;

        let r = state.commit(&job, output).response;
        assert!(!r.ok);
        assert!(
            r.error.unwrap().contains("advance raced"),
            "error names the race"
        );
        assert_eq!(
            state.catalog().time(),
            time_before,
            "catalog must not advance"
        );
        assert_eq!(state.status().window, window_before);
    }

    #[test]
    fn last_screen_variant_tracks_the_adopted_screen_not_the_counters() {
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut state = ServiceState::new(config).unwrap();
        for i in 0..12u64 {
            state.handle(&Request::Add {
                id: i,
                elements: spec(
                    7_000.0 + i as f64 * 3.0,
                    0.4 + (i % 5) as f64 * 0.3,
                    i as f64 * 0.37,
                ),
            });
        }
        assert!(state.handle(&Request::Screen).ok);
        assert_eq!(state.status().last_screen.unwrap().variant, "grid");
        state.handle(&Request::Update {
            id: 3,
            elements: spec(7_009.5, 1.6, 2.0),
        });
        assert!(state.handle(&Request::Delta).ok);
        assert_eq!(state.status().last_screen.unwrap().variant, DELTA_VARIANT);
        // Regression: with delta_screens > 0 the old code kept reporting
        // `grid-delta` even after a later full screen.
        assert!(state.handle(&Request::Screen).ok);
        assert_eq!(state.status().last_screen.unwrap().variant, "grid");
        assert_eq!(state.status().variant, "grid");
    }

    #[test]
    fn hybrid_state_serves_screens_with_filter_stats() {
        let config = ScreeningConfig::hybrid_defaults(5.0, 120.0);
        let mut state = ServiceState::with_screener(HybridScreener::new(config));
        for i in 0..12u64 {
            state.handle(&Request::Add {
                id: i,
                elements: spec(
                    7_000.0 + i as f64 * 3.0,
                    0.4 + (i % 5) as f64 * 0.3,
                    i as f64 * 0.37,
                ),
            });
        }
        let r = state.handle(&Request::Screen);
        let screen = r.screen.unwrap();
        assert_eq!(screen.variant, "hybrid");
        assert!(
            screen.filter_stats.is_some(),
            "hybrid screens report filter-chain stats"
        );
        state.handle(&Request::Update {
            id: 3,
            elements: spec(7_009.5, 1.6, 2.0),
        });
        let r = state.handle(&Request::Delta);
        let delta = r.screen.unwrap();
        assert_eq!(delta.variant, HYBRID_DELTA_VARIANT);
        assert!(delta.filter_stats.is_some());
        let status = state.status();
        assert_eq!(status.variant, "hybrid");
        assert_eq!(status.last_screen.unwrap().variant, HYBRID_DELTA_VARIANT);
    }

    #[test]
    fn restore_under_a_different_variant_comes_back_cold() {
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let mut state = ServiceState::new(config).unwrap();
        for i in 0..12u64 {
            state.handle(&Request::Add {
                id: i,
                elements: spec(
                    7_000.0 + i as f64 * 3.0,
                    0.4 + (i % 5) as f64 * 0.3,
                    i as f64 * 0.37,
                ),
            });
        }
        assert!(state.handle(&Request::Screen).ok);
        let snapshot = state.snapshot(3);
        assert_eq!(snapshot.global.variant, Variant::Grid);

        let hybrid_config = ScreeningConfig::hybrid_defaults(5.0, 120.0);
        let hybrid = HybridScreener::new(hybrid_config);
        let mut restored = ServiceState::restore(hybrid, &snapshot).unwrap();
        assert!(
            !restored.engine().is_warm(),
            "a foreign-variant warm set must be dropped on restore"
        );
        assert_eq!(restored.engine().full_screens(), 1, "counters survive");
        assert_eq!(restored.catalog().ids(), state.catalog().ids());
        assert_eq!(restored.status().variant, "hybrid");
        // A DELTA on the cold engine falls back to a full hybrid screen.
        let r = restored.handle(&Request::Delta);
        assert_eq!(r.screen.unwrap().variant, "hybrid");

        // Same variant restores warm, exactly as before.
        let grid = GridScreener::new(config);
        let warm = ServiceState::restore(grid, &snapshot).unwrap();
        assert!(warm.engine().is_warm());
        assert_eq!(warm.engine().conjunctions(), state.engine().conjunctions());
    }

    #[test]
    fn an_oversized_queue_or_pool_is_refused_as_configuration() {
        let with = |queue_depth, workers| ServerOptions {
            queue_depth,
            workers,
            ..ServerOptions::default()
        };
        assert!(check_pool(&with(MAX_QUEUE_DEPTH, MAX_WORKERS)).is_ok());
        for options in [
            with(MAX_QUEUE_DEPTH + 1, 0),
            with(usize::MAX, 0),
            with(1, MAX_WORKERS + 1),
            with(1, usize::MAX),
        ] {
            let err = check_pool(&options).expect_err("above the limit");
            assert!(matches!(err, ServiceError::Config(_)), "{err}");
            assert!(err.to_string().contains("above the limit"), "{err}");
        }
    }

    #[test]
    fn worker_auto_sizing_stays_in_bounds() {
        assert_eq!(resolve_workers(3), 3);
        let auto = resolve_workers(0);
        assert!((1..=4).contains(&auto), "auto workers {auto} out of [1, 4]");
    }
}
