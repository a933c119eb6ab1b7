//! Snapshot + WAL durability layer.
//!
//! State directory layout — one layout, whatever the shard count:
//!
//! ```text
//! <state-dir>/
//!   wal.log                              append-only mutation log (see `wal`)
//!   manifest-00000000000000000042.json   manifest: global state + chunk refs
//!   shard-00000000000000000042-0003.json chunk rewritten at seq 42
//!   shard-00000000000000000030-0001.json older chunk still referenced
//! ```
//!
//! A recovery point is described once, as a [`Snapshot`]: the catalog as
//! [`Row`]s (one per satellite, in dense-index order) plus the
//! [`GlobalState`] (pending-change set, window, warm conjunction set,
//! screen counters) as of a WAL sequence number. On disk the global state
//! is the body of a *manifest* and the rows are split over one *chunk* file
//! per shard, by the static assignment of [`PersistOptions::shards`]. A
//! daemon started without `--shards` runs the 1×1 layout: one chunk,
//! `shard-<seq>-0000.json`. Every file is one checksummed frame line,
//! written to a `.tmp` name, fsynced, atomically renamed into place and
//! never modified afterwards.
//!
//! # The shard layout
//!
//! A [`ShardMap`] partitions the catalog into altitude bands × |z| shells
//! by orbital elements ([`ShardMap::assign`]) over a fixed radial extent,
//! [`SHARD_R_MIN_KM`]..[`SHARD_R_MAX_KM`]; a [`ShardSpec`] names only the
//! band and shell counts. It is a storage layout and nothing else: every
//! screen runs on one grid whatever it is, and every layout reads what
//! every other layout wrote.
//!
//! # Incremental checkpoints
//!
//! A write rewrites only the chunks whose rows changed since this
//! persister's last successful write, and the manifest's `chunk_seqs[s]`
//! names the sequence number of the chunk file holding shard `s`, so
//! recovery reads the manifest plus `shard_count` chunk files directly —
//! no chain walk. The persister decides which chunks changed by itself,
//! from the rows it is handed and three things it kept from its last
//! write: the snapshot's catalog epoch `E`, each shard's row count, and
//! the `chunk_seqs`. Shard `s` is rewritten when this persister has not
//! written yet (the first write after [`Persister::open`] is full), a full
//! set is due (after `FULL_MANIFEST_EVERY` incremental writes), an ADVANCE
//! was appended since the last write, `s`'s row count changed, or some row
//! in `s` has `generation > E`. That is exact:
//!
//! - every row change but ADVANCE's bumps the row's generation past the
//!   epoch it happened after — ADD and UPDATE the row's own, REMOVE the
//!   swap-removed mover's, whose dense index changed;
//! - a row that leaves `s` while no new-generation row enters lowers
//!   `s`'s count;
//! - ADVANCE recomputes every row's elements and bumps no generation, so
//!   the log tells the persister instead. The catalog's `time` could not:
//!   at a time of 1e18 s a 1 s ADVANCE leaves its bits where they were
//!   and still moves the elements of a satellite added at that time.
//!
//! A failed write changes none of what was kept. Chunks are written
//! before the manifest, so a crash mid-write leaves the previous
//! manifest's set fully intact. A full chunk set is forced periodically so
//! retention can reclaim old chunks.
//!
//! Recovery loads the *newest materializable* manifest — one with a
//! missing or corrupt chunk is skipped whole — then replays WAL records
//! with `seq > point.wal_seq`. To keep fallback sound, retention keeps
//! every manifest at or after the `KEEP_SNAPSHOTS`-th-newest *full* one
//! (all chunks written at its own seq), deletes the rest, and WAL
//! compaction retains every record newer than the oldest kept point.
//!
//! Builds before the one-layout writer left a flat daemon's state as a
//! single `snapshot-<seq>.json` frame (v1). This build does not read it,
//! and [`Persister::open`] *refuses* a directory where such a file exists
//! and no manifest materializes: its WAL was compacted against that file,
//! so starting from "no snapshot" would replay the tail onto an empty
//! catalog. The last build that reads v1 also writes manifests; run it on
//! the directory until it has checkpointed. A v1 file left beside
//! manifests is never parsed — retention deletes it, by name, once it is
//! older than the oldest kept manifest.

use crate::error::PersistError;
use crate::fault::FaultPlan;
use crate::proto::{ElementsSpec, LastScreen, Request};
use crate::wal::{self, WalWriter};
use kessler_core::{Conjunction, Variant};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Schema version of the manifest format.
pub const MANIFEST_VERSION: u32 = 2;

/// WAL file name inside the state directory.
pub const WAL_FILE: &str = "wal.log";

/// Name prefix of the single-file snapshots this build no longer reads.
const V1_PREFIX: &str = "snapshot-";

/// *Full* recovery points retained on disk: two, so a corrupt newest
/// snapshot has a fallback. Incrementals in between ride along.
const KEEP_SNAPSHOTS: usize = 2;

/// Force a full chunk set after this many incremental manifests, so the
/// chain of still-referenced old chunks stays short and retention can
/// reclaim disk.
const FULL_MANIFEST_EVERY: u64 = 8;

/// Upper bound on `alt_bands × z_shells`: a snapshot writes one chunk
/// file per shard, so this bounds the files of one recovery point.
pub const MAX_SHARDS: u32 = 4096;

/// Radius where band 0 starts (km); radii below clamp into band 0.
pub const SHARD_R_MIN_KM: f64 = 6_500.0;

/// Radius where the last band ends (km); radii above clamp into it. The
/// |z| shells span `[0, SHARD_R_MAX_KM]` (|z| never exceeds the radius).
pub const SHARD_R_MAX_KM: f64 = 9_000.0;

/// User-facing snapshot layout: how many altitude bands and |z| shells
/// over the fixed extent [`SHARD_R_MIN_KM`]..[`SHARD_R_MAX_KM`].
/// Validated by [`ShardSpec::validate`]; [`ShardMap`] derives the uniform
/// band/shell widths from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Number of altitude (geocentric radius) bands.
    pub alt_bands: u32,
    /// Number of |z| shells per band.
    pub z_shells: u32,
}

impl Default for ShardSpec {
    fn default() -> ShardSpec {
        // 8 × 4 = 32 shards over the LEO belt; outliers clamp to the edge
        // bands, which stays correct (just less balanced).
        ShardSpec {
            alt_bands: 8,
            z_shells: 4,
        }
    }
}

impl ShardSpec {
    /// `alt_bands × z_shells`; meaningful once [`ShardSpec::validate`]
    /// has passed, which bounds it by [`MAX_SHARDS`].
    pub fn shard_count(&self) -> u32 {
        self.alt_bands * self.z_shells
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.alt_bands == 0 || self.z_shells == 0 {
            return Err(format!(
                "shard spec needs at least one band and one shell (got {}×{})",
                self.alt_bands, self.z_shells
            ));
        }
        // In u64: the u32 product of two large counts wraps below the cap.
        let shards = u64::from(self.alt_bands) * u64::from(self.z_shells);
        if shards > u64::from(MAX_SHARDS) {
            return Err(format!(
                "{} bands × {} shells = {shards} shards exceeds the {MAX_SHARDS}-shard cap",
                self.alt_bands, self.z_shells
            ));
        }
        Ok(())
    }
}

/// The partition itself: uniform-width bands over
/// `[SHARD_R_MIN_KM, SHARD_R_MAX_KM]` and uniform-width shells over
/// `[0, SHARD_R_MAX_KM]`, with O(1) lookup.
#[derive(Debug, Clone, Copy)]
pub struct ShardMap {
    spec: ShardSpec,
    band_width_km: f64,
    shell_width_km: f64,
}

impl ShardMap {
    pub fn new(spec: ShardSpec) -> Result<ShardMap, String> {
        spec.validate()?;
        Ok(ShardMap {
            spec,
            band_width_km: (SHARD_R_MAX_KM - SHARD_R_MIN_KM) / spec.alt_bands as f64,
            shell_width_km: SHARD_R_MAX_KM / spec.z_shells as f64,
        })
    }

    /// The 1×1 layout: one band and one shell hold every satellite.
    pub fn single() -> ShardMap {
        ShardMap::new(ShardSpec {
            alt_bands: 1,
            z_shells: 1,
        })
        .expect("the 1×1 layout is valid")
    }

    /// The layout an optional `--shards` choice names — `None` is the 1×1
    /// layout, and this is the one place that is decided.
    pub fn for_layout(shards: Option<ShardSpec>) -> Result<ShardMap, String> {
        shards.map_or_else(|| Ok(ShardMap::single()), ShardMap::new)
    }

    pub fn shard_count(&self) -> u32 {
        self.spec.shard_count()
    }

    /// Altitude band holding radius `r_km`, clamped into range.
    pub fn band_of(&self, r_km: f64) -> u32 {
        let raw = (r_km - SHARD_R_MIN_KM) / self.band_width_km;
        (raw.floor().max(0.0) as u32).min(self.spec.alt_bands - 1)
    }

    /// |z| shell holding height `z_km` (absolute value taken), clamped.
    pub fn shell_of(&self, z_km: f64) -> u32 {
        let raw = z_km.abs() / self.shell_width_km;
        (raw.floor().max(0.0) as u32).min(self.spec.z_shells - 1)
    }

    fn shard_id(&self, band: u32, shell: u32) -> u32 {
        band * self.spec.z_shells + shell
    }

    /// Static shard assignment from orbital elements — the snapshot chunk
    /// key. Deliberately position-independent (a satellite's chunk must
    /// not migrate as time advances unless its elements change): band
    /// from the semi-major axis, shell from the characteristic maximum
    /// height `a·|sin i|`.
    pub fn assign(&self, semi_major_axis_km: f64, inclination_rad: f64) -> u32 {
        let band = self.band_of(semi_major_axis_km);
        let shell = self.shell_of(semi_major_axis_km * inclination_rad.sin().abs());
        self.shard_id(band, shell)
    }
}

/// Where and how often to persist.
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// State directory (created if missing).
    pub dir: PathBuf,
    /// Mutations between snapshots (and WAL compactions).
    pub snapshot_every: u64,
    /// Shard layout snapshots are chunked by; `None` is the 1×1 layout
    /// (one chunk). This is all a layout does: screens run on one grid
    /// whatever it is. Names a layout, not a format: every layout writes
    /// manifest + chunks and reads whatever any layout wrote. A server
    /// sets it from [`crate::ServerOptions::shards`].
    pub shards: Option<ShardSpec>,
}

impl PersistOptions {
    pub fn new(dir: impl Into<PathBuf>) -> PersistOptions {
        PersistOptions {
            dir: dir.into(),
            snapshot_every: 256,
            shards: None,
        }
    }
}

/// One satellite of a recovery point: what a chunk file holds per member,
/// what `ServiceState::snapshot` captures and what `Catalog::restore`
/// rebuilds from. Carries the dense index so the union of chunks
/// reassembles the catalog's order exactly, and both current and epoch-0
/// elements, because propagation is not invertible from the current
/// elements alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Dense index (position in the screeners' element slice).
    pub index: u32,
    /// External id.
    pub id: u64,
    /// Current elements (wire representation: km / rad).
    pub elements: ElementsSpec,
    /// Epoch-0 elements, which ADVANCE re-propagates from.
    pub base: ElementsSpec,
    /// Catalog epoch at which the satellite last changed.
    pub generation: u64,
}

/// Everything in a recovery point that is not per satellite — the body of
/// a manifest after its chunk references, under these keys in this order.
/// Small next to the rows; the warm conjunction set rides here and is
/// rewritten every time (it has no shard locality).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalState {
    /// Catalog epoch.
    pub epoch: u64,
    /// Dense indices changed since the last screen.
    pub changed: Vec<u32>,
    /// Absolute start of the screening window, s.
    pub window_start: f64,
    /// Population size of the engine's last adopted screen.
    pub screened_n: Option<usize>,
    pub full_screens: u64,
    pub delta_screens: u64,
    /// The warm conjunction set (window-relative TCAs).
    pub conjunctions: Vec<Conjunction>,
    /// Requests served when the snapshot was written, so a recovered
    /// daemon's STATUS does not restart the counter at the replayed tail.
    pub requests_served: u64,
    /// Seconds the catalog has been advanced past its base epoch.
    pub time: f64,
    /// Variant and timings of the most recent screen, if any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub last_screen: Option<LastScreen>,
    /// Screening variant the daemon served with when the snapshot was
    /// taken.
    pub variant: Variant,
}

/// Complete daemon state at one WAL sequence number. Never serialized
/// whole: on disk it is a manifest plus the chunks it references.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// WAL records up to and including this sequence number are folded in.
    pub wal_seq: u64,
    /// The catalog, one row per satellite, `rows[i].index == i`.
    pub rows: Vec<Row>,
    pub global: GlobalState,
}

/// What [`Persister::open`] recovered from the state directory.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Newest manifest that materialized, if any.
    pub snapshot: Option<Snapshot>,
    /// WAL records newer than the snapshot, in order.
    pub tail: Vec<Request>,
    /// `Some(detail)` when the WAL ended in a damaged record (tolerated).
    pub torn_tail: Option<String>,
    /// Manifests that failed to materialize (unreadable themselves, or
    /// with a missing/corrupt chunk) and were skipped.
    pub corrupt_snapshots: usize,
}

/// What one [`Persister::write_snapshot`] put on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Written {
    /// Bytes written by this call: the manifest plus the rewritten chunks.
    pub(crate) bytes: u64,
    /// Chunk files rewritten: the shards whose rows changed, or every
    /// shard of the layout when the write was full.
    pub(crate) chunks: u32,
}

/// What a successful [`Persister::write_snapshot`] keeps for the next
/// write to be incremental against (see the module docs).
#[derive(Debug, Clone)]
struct LastWrite {
    /// Catalog epoch of the snapshot written: a row whose generation is
    /// past it changed since.
    epoch: u64,
    /// Rows each shard held.
    counts: Vec<usize>,
    /// The manifest's chunk refs.
    chunk_seqs: Vec<u64>,
}

/// The manifest file: the references that stitch chunk files into one
/// consistent catalog, then the global state spliced in beside them.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    wal_seq: u64,
    shard_count: u32,
    /// `chunk_seqs[s]` = wal_seq of the chunk file holding shard `s`.
    chunk_seqs: Vec<u64>,
    /// Total satellites across all chunks (cross-checked on load).
    n_satellites: usize,
    #[serde(flatten)]
    global: GlobalState,
}

impl Manifest {
    fn is_full(&self) -> bool {
        self.chunk_seqs.iter().all(|&s| s == self.wal_seq)
    }
}

/// One shard's complete membership at one sequence number.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShardChunk {
    shard: u32,
    entries: Vec<Row>,
}

/// Owns the state directory: appends WAL records, writes snapshots,
/// rotates and compacts.
#[derive(Debug)]
pub struct Persister {
    dir: PathBuf,
    wal: WalWriter,
    /// Last assigned WAL sequence number.
    seq: u64,
    snapshot_every: u64,
    since_snapshot: u64,
    /// Shard layout snapshots are chunked by.
    shards: ShardMap,
    /// What the last successful snapshot write left on disk; `None` until
    /// this persister has written, so its first write is full.
    last_write: Option<LastWrite>,
    /// Set when an ADVANCE is appended — it changes rows without bumping
    /// their generations — and cleared by the next successful snapshot.
    advanced: bool,
    /// Incremental manifests written since the last full chunk set; at
    /// [`FULL_MANIFEST_EVERY`] the next write is forced full.
    incrementals_since_full: u64,
    faults: Arc<FaultPlan>,
    /// Set when a failed append could not be rolled back off disk (the
    /// truncate after a failed fsync also failed): the WAL tail may hold
    /// a record for a mutation the caller was told failed. Cleared by the
    /// next successful snapshot, whose compaction rewrites the WAL from
    /// committed records only.
    dirty: bool,
}

impl Persister {
    /// Open (or initialise) a state directory and recover its contents.
    pub fn open(
        options: &PersistOptions,
        faults: Arc<FaultPlan>,
    ) -> Result<(Persister, Recovery), PersistError> {
        let dir = options.dir.clone();
        std::fs::create_dir_all(&dir)
            .map_err(|e| PersistError::io(format!("create state dir {}", dir.display()), e))?;
        let shards = ShardMap::for_layout(options.shards).map_err(|e| {
            PersistError::corrupt("persist options", format!("invalid shard spec: {e}"))
        })?;

        // Every point is *readable*, whatever layout we write under: a
        // daemon whose sharding was switched on, off or relaid must still
        // recover what the previous configuration persisted.
        let points = list_manifests(&dir)?;
        let mut recovery = Recovery::default();
        for (seq, path) in points.iter().rev() {
            match load_manifest(path).and_then(|manifest| materialize_manifest(&dir, manifest)) {
                Ok(snapshot) => {
                    debug_assert_eq!(snapshot.wal_seq, *seq);
                    recovery.snapshot = Some(snapshot);
                    break;
                }
                Err(err) => {
                    eprintln!("kessler-service: skipping corrupt snapshot: {err}");
                    recovery.corrupt_snapshots += 1;
                }
            }
        }
        if recovery.snapshot.is_none() {
            refuse_v1_only(&dir)?;
        }

        let wal_path = dir.join(WAL_FILE);
        let replay = wal::read_wal(&wal_path)?;
        let base_seq = recovery.snapshot.as_ref().map_or(0, |s| s.wal_seq);
        let mut last_seq = base_seq;
        for (seq, request) in replay.records {
            last_seq = last_seq.max(seq);
            if seq > base_seq {
                recovery.tail.push(request);
            }
        }
        recovery.torn_tail = replay.torn;

        let mut persister = Persister {
            dir,
            wal: WalWriter::open_append_with(&wal_path, Arc::clone(&faults))?,
            seq: last_seq,
            snapshot_every: options.snapshot_every.max(1),
            since_snapshot: recovery.tail.len() as u64,
            shards,
            last_write: None,
            advanced: false,
            incrementals_since_full: 0,
            faults,
            dirty: false,
        };
        if recovery.torn_tail.is_some() {
            // Drop the damaged tail bytes now: appending after a partial
            // record would glue new frames onto the torn line and lose
            // them too.
            let keep_after = points.first().map_or(0, |(seq, _)| *seq);
            persister.compact_wal(keep_after)?;
        }
        Ok((persister, recovery))
    }

    /// Last assigned WAL sequence number.
    pub fn last_seq(&self) -> u64 {
        self.seq
    }

    /// Durably append one mutation. The sequence number is committed only
    /// on success: a failed append leaves `last_seq()` unchanged and rolls
    /// any partially written bytes back off the log, so the caller can
    /// treat `Err` as "nothing happened" and reject the request.
    pub fn append(&mut self, request: &Request) -> Result<(), PersistError> {
        if let Some(err) = self.faults.take_wal_append_error() {
            return Err(PersistError::io("append wal record", err));
        }
        let seq = self.seq + 1;
        let pre_len = self.wal.len()?;
        let written = if self.faults.take_torn_wal() {
            self.wal.append_torn(seq, request)
        } else {
            self.wal.append(seq, request)
        };
        match written {
            Ok(()) => {
                self.seq = seq;
                self.since_snapshot += 1;
                self.advanced |= matches!(request, Request::Advance { .. });
                Ok(())
            }
            Err(err) => {
                // A failed fsync may still have landed the record's bytes;
                // chop them off so an unacknowledged mutation cannot
                // replay after a crash. If even the truncate fails, flag
                // the log dirty — the next successful snapshot's
                // compaction rewrites it from committed records only.
                if self.wal.truncate_to(pre_len).is_err() {
                    self.dirty = true;
                }
                Err(err)
            }
        }
    }

    /// `true` while a failed append's bytes may still be on disk.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Current WAL size in bytes (0 if unreadable); used when warning
    /// that failed snapshots are starving compaction.
    pub fn wal_size(&self) -> u64 {
        self.wal.len().unwrap_or(0)
    }

    /// Cheap liveness check of the state directory: create, sync, and
    /// remove a probe file. Used by the degraded-mode recovery loop to
    /// decide whether the disk is worth an emergency snapshot attempt.
    pub fn probe(&self) -> Result<(), PersistError> {
        if self.faults.wal_is_broken() {
            return Err(PersistError::io(
                "probe state dir",
                std::io::Error::from_raw_os_error(5),
            ));
        }
        let path = self.dir.join(".probe.tmp");
        let context = || format!("probe {}", path.display());
        let mut file = File::create(&path).map_err(|e| PersistError::io(context(), e))?;
        file.write_all(b"probe")
            .map_err(|e| PersistError::io(context(), e))?;
        file.sync_all()
            .map_err(|e| PersistError::io(context(), e))?;
        drop(file);
        std::fs::remove_file(&path).map_err(|e| PersistError::io(context(), e))
    }

    /// `true` once enough mutations accumulated to warrant a snapshot.
    pub fn should_snapshot(&self) -> bool {
        self.since_snapshot >= self.snapshot_every
    }

    /// Write a snapshot atomically, apply retention, compact the WAL:
    /// rewrite the chunks of the shards whose rows changed since this
    /// persister's last successful write (the rule of the module docs),
    /// then a manifest referencing the rest from their previous chunks.
    /// Chunks land before the manifest, so a crash anywhere leaves the
    /// previous manifest's set fully intact; orphaned new chunks are
    /// reclaimed by the next retention pass. A failed write leaves what
    /// the next write is incremental against as it was.
    pub(crate) fn write_snapshot(&mut self, snapshot: Snapshot) -> Result<Written, PersistError> {
        let Snapshot {
            wal_seq: seq,
            rows,
            global,
        } = snapshot;
        let shard_count = self.shards.shard_count();

        // Chunk the rows by static assignment on the stored elements
        // (position-independent, stable under ADVANCE rebasing).
        let n_satellites = rows.len();
        let mut members: Vec<Vec<Row>> = vec![Vec::new(); shard_count as usize];
        for row in rows {
            let shard = self.shards.assign(row.elements.a, row.elements.incl) as usize;
            members[shard].push(row);
        }

        // Per shard, the seq of the chunk it keeps, if it is unchanged
        // since the last write. A first write, an overdue full set or an
        // ADVANCE since keeps none.
        let prev = self
            .last_write
            .as_ref()
            .filter(|_| !self.advanced && self.incrementals_since_full < FULL_MANIFEST_EVERY);
        let kept: Vec<Option<u64>> = members
            .iter()
            .enumerate()
            .map(|(shard, rows)| {
                let prev = prev?;
                let unchanged = prev.counts[shard] == rows.len()
                    && rows.iter().all(|row| row.generation <= prev.epoch);
                unchanged.then_some(prev.chunk_seqs[shard])
            })
            .collect();

        let mut written = Written {
            bytes: 0,
            chunks: 0,
        };
        let counts: Vec<usize> = members.iter().map(Vec::len).collect();
        let mut chunk_seqs = Vec::with_capacity(shard_count as usize);
        for (shard, entries) in (0..shard_count).zip(members) {
            if let Some(kept_seq) = kept[shard as usize] {
                chunk_seqs.push(kept_seq);
                continue;
            }
            let body = serde_json::to_string(&ShardChunk { shard, entries }).map_err(|e| {
                PersistError::corrupt("shard chunk", format!("unserializable: {e}"))
            })?;
            written.bytes +=
                self.write_frame_file(seq, &body, &chunk_path(&self.dir, seq, shard))?;
            written.chunks += 1;
            chunk_seqs.push(seq);
        }

        let epoch = global.epoch;
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            wal_seq: seq,
            shard_count,
            chunk_seqs,
            n_satellites,
            global,
        };
        let body = serde_json::to_string(&manifest)
            .map_err(|e| PersistError::corrupt("manifest", format!("unserializable: {e}")))?;
        written.bytes += self.write_frame_file(seq, &body, &manifest_path(&self.dir, seq))?;

        // Keep every WAL record the *oldest kept* recovery point does not
        // cover, so falling back past a corrupt newest point still
        // replays to the present.
        let keep_after = self.apply_retention();
        self.compact_wal(keep_after)?;
        self.since_snapshot = 0;
        // Compaction rewrote the WAL from committed records only, so any
        // residue of a failed append is gone.
        self.dirty = false;
        self.incrementals_since_full = if manifest.is_full() {
            0
        } else {
            self.incrementals_since_full + 1
        };
        self.advanced = false;
        self.last_write = Some(LastWrite {
            epoch,
            counts,
            chunk_seqs: manifest.chunk_seqs,
        });
        Ok(written)
    }

    /// Write one frame-encoded body durably: tmp file, fsync, atomic
    /// rename, directory sync. Fault-injection hooks fire per file, so
    /// the chaos tests exercise multi-file writes too.
    fn write_frame_file(&self, seq: u64, body: &str, path: &Path) -> Result<u64, PersistError> {
        let mut line = wal::encode_frame(seq, body);
        line.push('\n');
        let tmp_path = path.with_extension("json.tmp");
        if let Some(err) = self.faults.take_snapshot_write_error() {
            return Err(PersistError::io(
                format!("write {}", tmp_path.display()),
                err,
            ));
        }
        {
            let mut file = File::create(&tmp_path)
                .map_err(|e| PersistError::io(format!("create {}", tmp_path.display()), e))?;
            file.write_all(line.as_bytes())
                .map_err(|e| PersistError::io(format!("write {}", tmp_path.display()), e))?;
            file.sync_all()
                .map_err(|e| PersistError::io(format!("sync {}", tmp_path.display()), e))?;
        }
        if let Some(err) = self.faults.take_snapshot_rename_error() {
            // Leave the tmp file behind, as a real failed rename would;
            // recovery ignores `.tmp` files so it is harmless debris.
            return Err(PersistError::io(
                format!("rename {} into place", tmp_path.display()),
                err,
            ));
        }
        std::fs::rename(&tmp_path, path).map_err(|e| {
            PersistError::io(format!("rename {} into place", tmp_path.display()), e)
        })?;
        sync_dir(&self.dir);
        Ok(line.len() as u64)
    }

    /// Delete recovery points older than the `KEEP_SNAPSHOTS`-th-newest
    /// *full* point, plus any chunk file no kept manifest references.
    /// Stateless by design — it re-lists the directory, so it also mops
    /// up debris from crashed writes. Best-effort: a file that refuses to
    /// die costs disk, not correctness. Returns the oldest kept seq (the
    /// WAL compaction floor).
    fn apply_retention(&self) -> u64 {
        let Ok(points) = list_manifests(&self.dir) else {
            return 0;
        };
        // An unreadable manifest is nothing (and will age out below).
        let manifests: Vec<(u64, Manifest)> = points
            .iter()
            .filter_map(|(seq, path)| Some((*seq, load_manifest(path).ok()?)))
            .collect();
        let full_seqs: Vec<u64> = manifests
            .iter()
            .filter(|(_, m)| m.is_full())
            .map(|(seq, _)| *seq)
            .collect();
        if full_seqs.len() < KEEP_SNAPSHOTS {
            return points.first().map_or(0, |(seq, _)| *seq);
        }
        let cutoff = full_seqs[full_seqs.len() - KEEP_SNAPSHOTS];

        // v1 files an upgraded directory still holds go the same way, by
        // name: nothing here reads one.
        let leftovers = scan(&self.dir, V1_PREFIX, seq_key).unwrap_or_default();
        for (seq, path) in points.iter().chain(&leftovers) {
            if *seq < cutoff {
                let _ = std::fs::remove_file(path);
            }
        }
        // Chunks referenced by no kept manifest — superseded, orphaned by
        // a crash, or belonging to a deleted manifest — go too.
        let referenced: BTreeSet<(u64, u32)> = manifests
            .iter()
            .filter(|(seq, _)| *seq >= cutoff)
            .flat_map(|(_, m)| m.chunk_seqs.iter().copied().zip(0u32..))
            .collect();
        if let Ok(chunks) = scan(&self.dir, "shard-", chunk_key) {
            for (key, path) in chunks {
                if !referenced.contains(&key) {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        cutoff
    }

    /// Rewrite the WAL keeping only valid records with `seq > keep_after`,
    /// via tmp-file + atomic rename, then reopen the append handle.
    fn compact_wal(&mut self, keep_after: u64) -> Result<(), PersistError> {
        let wal_path = self.dir.join(WAL_FILE);
        let replay = wal::read_wal(&wal_path)?;
        let tmp_path = self.dir.join("wal.log.tmp");
        {
            let mut file = File::create(&tmp_path)
                .map_err(|e| PersistError::io(format!("create {}", tmp_path.display()), e))?;
            for (seq, request) in &replay.records {
                // Drop records outside (keep_after, last committed seq]:
                // below are covered by the oldest kept snapshot, above are
                // residue of a failed append that was never acknowledged.
                if *seq <= keep_after || *seq > self.seq {
                    continue;
                }
                let body = serde_json::to_string(request).map_err(|e| {
                    PersistError::corrupt("wal record", format!("unserializable: {e}"))
                })?;
                let mut line = wal::encode_frame(*seq, &body);
                line.push('\n');
                file.write_all(line.as_bytes())
                    .map_err(|e| PersistError::io(format!("write {}", tmp_path.display()), e))?;
            }
            file.sync_all()
                .map_err(|e| PersistError::io(format!("sync {}", tmp_path.display()), e))?;
        }
        std::fs::rename(&tmp_path, &wal_path)
            .map_err(|e| PersistError::io("rename compacted wal into place".to_string(), e))?;
        sync_dir(&self.dir);
        self.wal = WalWriter::open_append_with(&wal_path, Arc::clone(&self.faults))?;
        Ok(())
    }
}

fn sync_dir(dir: &Path) {
    // Directory fsync is best-effort (not all platforms support it).
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// The one walk over the state directory: every file named
/// `<prefix><key>.json` whose key `parse` accepts, in no particular order.
/// Anything else — the WAL, `.tmp` debris, foreign files — is not ours to
/// list.
fn scan<K>(
    dir: &Path,
    prefix: &str,
    parse: impl Fn(&str) -> Option<K>,
) -> Result<Vec<(K, PathBuf)>, PersistError> {
    let failed = |e| PersistError::io(format!("list state dir {}", dir.display()), e);
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(failed)? {
        let entry = entry.map_err(failed)?;
        let name = entry.file_name();
        let key = name
            .to_str()
            .and_then(|n| n.strip_prefix(prefix)?.strip_suffix(".json"))
            .and_then(&parse);
        if let Some(key) = key {
            found.push((key, entry.path()));
        }
    }
    Ok(found)
}

/// The seq a manifest's (or v1 file's) name carries — their [`scan`] key.
fn seq_key(stem: &str) -> Option<u64> {
    stem.parse().ok()
}

/// All manifests in the directory, ascending by seq.
fn list_manifests(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut found = scan(dir, "manifest-", seq_key)?;
    found.sort_by_key(|(seq, _)| *seq);
    Ok(found)
}

/// Fail when the directory holds a v1 single-file snapshot: called when no
/// manifest materialized, where carrying on would start from an empty
/// catalog under a WAL that was compacted against that file.
fn refuse_v1_only(dir: &Path) -> Result<(), PersistError> {
    let Some((_, path)) = scan(dir, V1_PREFIX, seq_key)?.into_iter().max() else {
        return Ok(());
    };
    Err(PersistError::io(
        format!("recover from {}", path.display()),
        std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "a v1 single-file snapshot, and no manifest in the directory materializes; \
             this build reads manifests only. Run the last build that reads v1 (PR 19) on \
             this directory until it has checkpointed - it writes a manifest - then restart",
        ),
    ))
}

/// The `(seq, shard)` a chunk file's name carries between `shard-` and
/// `.json` — the [`scan`] key of the chunk files.
fn chunk_key(stem: &str) -> Option<(u64, u32)> {
    let (seq, shard) = stem.split_once('-')?;
    Some((seq.parse().ok()?, shard.parse().ok()?))
}

/// Read the checksummed frame line a snapshot/manifest/chunk file holds.
fn read_frame_body(path: &Path) -> Result<String, PersistError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| PersistError::io(format!("read {}", path.display()), e))?;
    let line = text
        .lines()
        .find(|l| !l.is_empty())
        .ok_or_else(|| PersistError::corrupt(path.display().to_string(), "empty file"))?;
    let (_, body) = wal::decode_frame(line)
        .map_err(|e| PersistError::corrupt(path.display().to_string(), e.to_string()))?;
    Ok(body)
}

fn load_manifest(path: &Path) -> Result<Manifest, PersistError> {
    let body = read_frame_body(path)?;
    let manifest: Manifest = serde_json::from_str(&body)
        .map_err(|e| PersistError::corrupt(path.display().to_string(), e.to_string()))?;
    let corrupt = |detail: String| PersistError::corrupt(path.display().to_string(), detail);
    if manifest.version != MANIFEST_VERSION {
        return Err(corrupt(format!(
            "manifest version {} (this build reads {MANIFEST_VERSION})",
            manifest.version
        )));
    }
    if manifest.chunk_seqs.len() != manifest.shard_count as usize {
        return Err(corrupt(format!(
            "{} chunk refs for {} shards",
            manifest.chunk_seqs.len(),
            manifest.shard_count
        )));
    }
    if manifest.chunk_seqs.iter().any(|&s| s > manifest.wal_seq) {
        return Err(corrupt("chunk ref newer than the manifest".to_string()));
    }
    Ok(manifest)
}

fn load_chunk(path: &Path) -> Result<ShardChunk, PersistError> {
    let body = read_frame_body(path)?;
    serde_json::from_str(&body)
        .map_err(|e| PersistError::corrupt(path.display().to_string(), e.to_string()))
}

fn manifest_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("manifest-{seq:020}.json"))
}

fn chunk_path(dir: &Path, seq: u64, shard: u32) -> PathBuf {
    dir.join(format!("shard-{seq:020}-{shard:04}.json"))
}

/// Read every chunk a manifest references and put their rows back in
/// dense-index order; any missing or corrupt chunk fails the whole point.
fn materialize_manifest(dir: &Path, manifest: Manifest) -> Result<Snapshot, PersistError> {
    let corrupt = |detail: String| PersistError::corrupt("manifest", detail);
    let mut rows: Vec<Row> = Vec::new();
    for (shard, &chunk_seq) in manifest.chunk_seqs.iter().enumerate() {
        let path = chunk_path(dir, chunk_seq, shard as u32);
        let chunk = load_chunk(&path)?;
        if chunk.shard != shard as u32 {
            return Err(corrupt(format!(
                "chunk {} claims shard {}, expected {shard}",
                path.display(),
                chunk.shard
            )));
        }
        rows.extend(chunk.entries);
    }
    if rows.len() != manifest.n_satellites {
        return Err(corrupt(format!(
            "chunk union holds {} satellites, manifest says {}",
            rows.len(),
            manifest.n_satellites
        )));
    }
    rows.sort_by_key(|row| row.index);
    if let Some((i, row)) = rows
        .iter()
        .enumerate()
        .find(|(i, row)| row.index as usize != *i)
    {
        return Err(corrupt(format!(
            "chunk union does not cover dense indices: slot {i} holds index {}",
            row.index
        )));
    }
    Ok(Snapshot {
        wal_seq: manifest.wal_seq,
        rows,
        global: manifest.global,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Response;
    use crate::server::ServiceState;
    use crate::testkit::SplitMix64;
    use kessler_core::{GridScreener, ScreeningConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir =
            std::env::temp_dir().join(format!("kessler-persist-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(id: u64) -> ElementsSpec {
        spec_a(7_000.0 + id as f64)
    }

    fn spec_a(a: f64) -> ElementsSpec {
        ElementsSpec {
            a,
            e: 0.001,
            incl: 0.9,
            raan: 1.0,
            argp: 0.3,
            mean_anomaly: 0.2,
        }
    }

    fn add(id: u64) -> Request {
        Request::Add {
            id,
            elements: spec(id),
        }
    }

    /// Satellites `0..alts.len()` at the given semi-major axes, nothing
    /// screened yet.
    fn snapshot_of(wal_seq: u64, alts: &[f64]) -> Snapshot {
        let n = alts.len() as u64;
        let row = |(index, &a): (u32, &f64)| Row {
            index,
            id: index as u64,
            elements: spec_a(a),
            base: spec_a(a),
            generation: index as u64 + 1,
        };
        Snapshot {
            wal_seq,
            rows: (0..).zip(alts).map(row).collect(),
            global: GlobalState {
                epoch: n,
                changed: (0..n as u32).collect(),
                window_start: 0.0,
                screened_n: None,
                full_screens: 0,
                delta_screens: 0,
                conjunctions: Vec::new(),
                requests_served: n,
                time: 0.0,
                last_screen: None,
                variant: Variant::Grid,
            },
        }
    }

    /// The catalog the first `n` [`add`] records build.
    fn snapshot_at(wal_seq: u64, n: u64) -> Snapshot {
        let alts: Vec<f64> = (0..n).map(|id| spec(id).a).collect();
        snapshot_of(wal_seq, &alts)
    }

    /// `snapshot` at catalog epoch `epoch` (past every generation it
    /// holds), with the satellites `touched` changed at that epoch: the
    /// rows a persister reads what changed from.
    fn touching(mut snapshot: Snapshot, epoch: u64, touched: &[u32]) -> Snapshot {
        snapshot.global.epoch = epoch;
        for &index in touched {
            snapshot.rows[index as usize].generation = epoch;
        }
        snapshot
    }

    /// No `--shards`: the 1×1 layout.
    fn options(dir: &Path) -> PersistOptions {
        PersistOptions {
            snapshot_every: 1_000_000, // tests snapshot explicitly
            ..PersistOptions::new(dir)
        }
    }

    /// Two altitude bands (edge at 7750 km), one |z| shell: shard 0 holds
    /// everything below the edge, shard 1 everything above.
    fn sharded_options(dir: &Path) -> PersistOptions {
        PersistOptions {
            shards: Some(ShardSpec {
                alt_bands: 2,
                z_shells: 1,
            }),
            ..options(dir)
        }
    }

    /// What builds before the one-layout writer left behind: a file named
    /// `snapshot-<seq>.json`. Nothing reads one any more, so its content
    /// is beside the point.
    fn leave_v1(dir: &Path, seq: u64) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(format!("snapshot-{seq:020}.json"));
        std::fs::write(&path, "whatever a v1 daemon wrote\n").unwrap();
        path
    }

    /// Write `body` as the frame file `path`, checksummed like a real one.
    fn forge_frame_file(path: &Path, seq: u64, body: &str) {
        let mut line = wal::encode_frame(seq, body);
        line.push('\n');
        std::fs::write(path, line).unwrap();
    }

    fn ids(snapshot: &Snapshot) -> Vec<u64> {
        snapshot.rows.iter().map(|row| row.id).collect()
    }

    /// Seqs of the manifests on disk, ascending.
    fn point_seqs(dir: &Path) -> Vec<u64> {
        let points = list_manifests(dir).unwrap();
        points.iter().map(|(seq, _)| *seq).collect()
    }

    /// `(seq, shard)` of the chunk files on disk, ascending.
    fn chunk_keys(dir: &Path) -> Vec<(u64, u32)> {
        let chunks = scan(dir, "shard-", chunk_key).unwrap();
        let mut keys: Vec<_> = chunks.into_iter().map(|(key, _)| key).collect();
        keys.sort();
        keys
    }

    #[test]
    fn spec_validation_rejects_bad_geometry() {
        assert!(ShardSpec::default().validate().is_ok());
        let zero = ShardSpec {
            alt_bands: 0,
            ..Default::default()
        };
        assert!(zero.validate().is_err());
        let too_many = ShardSpec {
            alt_bands: MAX_SHARDS,
            z_shells: 2,
        };
        assert!(too_many.validate().is_err());
        // Products that wrap a u32 to within the cap (4096) or to 0.
        for (alt_bands, z_shells) in [(4096, 1_048_577), (65_536, 65_536)] {
            let wrapping = ShardSpec {
                alt_bands,
                z_shells,
            };
            let err = wrapping.validate().unwrap_err();
            assert!(err.contains("exceeds the 4096-shard cap"), "{err}");
            assert!(ShardMap::new(wrapping).is_err());
        }
    }

    #[test]
    fn lookup_clamps_out_of_range_values() {
        let m = ShardMap::new(ShardSpec {
            alt_bands: 4,
            z_shells: 4,
        })
        .unwrap();
        assert_eq!(m.band_of(1_000.0), 0);
        assert_eq!(m.band_of(6_500.0), 0);
        assert_eq!(m.band_of(8_999.0), 3);
        assert_eq!(m.band_of(50_000.0), 3);
        assert_eq!(m.shell_of(-100.0), 0);
        assert_eq!(m.shell_of(0.0), 0);
        assert_eq!(m.shell_of(50_000.0), 3);
    }

    #[test]
    fn fresh_dir_recovers_nothing_and_replays_appends() {
        let dir = temp_dir("fresh");
        let (mut persister, recovery) =
            Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        assert!(recovery.snapshot.is_none());
        assert!(recovery.tail.is_empty());

        for id in 0..5 {
            persister.append(&add(id)).unwrap();
        }
        assert_eq!(persister.last_seq(), 5);
        drop(persister);

        let (persister, recovery) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        assert!(recovery.snapshot.is_none());
        assert_eq!(recovery.tail.len(), 5);
        assert_eq!(recovery.tail[3], add(3));
        assert_eq!(persister.last_seq(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_covers_wal_and_rotation_keeps_two() {
        let dir = temp_dir("rotate");
        let (mut persister, _) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        for round in 0..4u64 {
            for j in 0..3u64 {
                persister.append(&add(round * 3 + j)).unwrap();
            }
            let snapshot = snapshot_at(persister.last_seq(), (round + 1) * 3);
            persister.write_snapshot(snapshot).unwrap();
        }
        assert_eq!(point_seqs(&dir), vec![9, 12], "rotation keeps two");
        assert_eq!(chunk_keys(&dir), vec![(9, 0), (12, 0)]);

        let (_, recovery) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        let snapshot = recovery.snapshot.expect("newest snapshot");
        assert_eq!(snapshot.wal_seq, 12);
        assert_eq!(snapshot.rows.len(), 12);
        assert!(recovery.tail.is_empty(), "snapshot covers the whole wal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_with_full_tail() {
        let dir = temp_dir("fallback");
        let (mut persister, _) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        // Snapshot at seq 2, then at seq 4; then two more appends.
        persister.append(&add(0)).unwrap();
        persister.append(&add(1)).unwrap();
        persister.write_snapshot(snapshot_at(2, 2)).unwrap();
        persister.append(&add(2)).unwrap();
        persister.append(&add(3)).unwrap();
        persister.write_snapshot(snapshot_at(4, 4)).unwrap();
        persister.append(&add(4)).unwrap();
        drop(persister);

        // Vandalise the newest manifest.
        std::fs::write(manifest_path(&dir, 4), "XXXX not a manifest XXXX").unwrap();

        let (_, recovery) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        assert_eq!(recovery.corrupt_snapshots, 1);
        let snapshot = recovery.snapshot.expect("fallback snapshot");
        assert_eq!(snapshot.wal_seq, 2);
        // Records 3, 4, 5 must still be in the WAL (fallback-safe
        // compaction), so state reaches the present.
        assert_eq!(recovery.tail, vec![add(2), add(3), add(4)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_wal_repaired() {
        let dir = temp_dir("torn");
        let faults = Arc::new(FaultPlan::default());
        let (mut persister, _) = Persister::open(&options(&dir), Arc::clone(&faults)).unwrap();
        persister.append(&add(0)).unwrap();
        persister.append(&add(1)).unwrap();
        faults.arm_torn_wal();
        persister.append(&add(2)).unwrap(); // torn on disk
        drop(persister);

        let (mut persister, recovery) =
            Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        assert_eq!(recovery.tail, vec![add(0), add(1)]);
        assert!(recovery.torn_tail.is_some());

        // The repaired WAL accepts and replays new appends.
        persister.append(&add(3)).unwrap();
        drop(persister);
        let (_, recovery) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        assert!(recovery.torn_tail.is_none());
        assert_eq!(recovery.tail, vec![add(0), add(1), add(3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_with_absurd_millis_is_corrupt_not_a_crash() {
        let dir = temp_dir("hugems");
        let (mut persister, _) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        persister.append(&add(0)).unwrap();
        persister.append(&add(1)).unwrap();
        persister.write_snapshot(snapshot_at(2, 2)).unwrap();
        persister.append(&add(2)).unwrap();
        drop(persister);

        // Forge a newer manifest (reusing the seq-2 chunk) whose last-screen
        // total is 1e300 ms: finite, non-negative, checksummed — but past
        // what Duration can hold. Recovery must reject the body (not panic
        // in serde) and fall back to the snapshot at seq 2.
        let mut forged = load_manifest(&manifest_path(&dir, 2)).unwrap();
        forged.wal_seq = 3;
        forged.global.last_screen = Some(LastScreen {
            variant: "grid".to_string(),
            timings: Default::default(),
            filter_stats: None,
        });
        let body = serde_json::to_string(&forged)
            .unwrap()
            .replace("\"total\":0.0", "\"total\":1e300");
        assert!(body.contains("1e300"), "forgery target moved: {body}");
        forge_frame_file(&manifest_path(&dir, 3), 3, &body);

        let (_, recovery) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        assert_eq!(recovery.corrupt_snapshots, 1);
        let snapshot = recovery.snapshot.expect("fallback snapshot");
        assert_eq!(snapshot.wal_seq, 2);
        assert_eq!(recovery.tail, vec![add(2)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_variant_roundtrips_and_rejects_garbage() {
        let dir = temp_dir("variant");
        let (mut persister, _) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        persister.append(&add(0)).unwrap();
        let mut snapshot = snapshot_at(1, 1);
        snapshot.global.variant = Variant::Hybrid;
        persister.write_snapshot(snapshot).unwrap();
        let (_, recovery) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        assert_eq!(recovery.snapshot.unwrap().global.variant, Variant::Hybrid);

        // An unknown variant tag is a deserialization error — recovery
        // treats the manifest as corrupt and falls back, it does not guess.
        let body = read_frame_body(&manifest_path(&dir, 1)).unwrap();
        let forged = body.replace("\"Hybrid\"", "\"Bogus\"");
        assert!(forged.contains("Bogus"), "forgery target moved: {forged}");
        forge_frame_file(&manifest_path(&dir, 1), 1, &forged);
        assert!(load_manifest(&manifest_path(&dir, 1)).is_err());
        let (_, recovery) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        assert_eq!(recovery.corrupt_snapshots, 1);
        assert!(recovery.snapshot.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_directory_whose_only_points_are_v1_snapshots_is_refused() {
        // With a WAL tail (compacted against the v1 file: replaying it onto
        // an empty catalog would serve a state that never existed) and
        // without one alike.
        for tail in [0, 2] {
            let dir = temp_dir("v1only");
            let (mut persister, _) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
            for id in 0..tail {
                persister.append(&add(id)).unwrap();
            }
            drop(persister);
            leave_v1(&dir, 3);
            let newest = leave_v1(&dir, 5);

            let refusal = Persister::open(&options(&dir), FaultPlan::inert())
                .expect_err("a v1-only directory must not open")
                .to_string();
            assert!(refusal.contains(newest.to_str().unwrap()), "{refusal}");
            assert!(refusal.contains("PR 19"), "no remedy named: {refusal}");
            assert!(!refusal.contains("corrupt"), "{refusal}");

            // Manifests that do not materialize are no way round it…
            std::fs::write(manifest_path(&dir, 6), "XXXX not a manifest XXXX").unwrap();
            Persister::open(&sharded_options(&dir), FaultPlan::inert())
                .expect_err("still no manifest that materializes");
            // …and nothing was touched: no WAL repair, no deletion.
            assert!(newest.exists() && manifest_path(&dir, 6).exists());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn failed_append_commits_nothing_and_the_next_one_succeeds() {
        let dir = temp_dir("appendfail");
        let faults = Arc::new(FaultPlan::default());
        let (mut persister, _) = Persister::open(&options(&dir), Arc::clone(&faults)).unwrap();
        persister.append(&add(0)).unwrap();
        assert_eq!(persister.last_seq(), 1);

        faults.arm_wal_append_eio();
        let err = persister.append(&add(1)).expect_err("injected EIO");
        assert!(err.to_string().contains("append wal record"), "{err}");
        assert_eq!(persister.last_seq(), 1, "seq must not advance on failure");
        assert!(!persister.is_dirty());

        // The retry gets the same sequence number the failure burned.
        persister.append(&add(1)).unwrap();
        assert_eq!(persister.last_seq(), 2);
        drop(persister);
        let (_, recovery) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        assert!(recovery.torn_tail.is_none());
        assert_eq!(recovery.tail, vec![add(0), add(1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_fsync_rolls_the_record_bytes_back_off_disk() {
        let dir = temp_dir("fsyncroll");
        let faults = Arc::new(FaultPlan::default());
        let (mut persister, _) = Persister::open(&options(&dir), Arc::clone(&faults)).unwrap();
        persister.append(&add(0)).unwrap();
        let clean_len = persister.wal_size();

        faults.arm_wal_fsync_fail();
        persister
            .append(&add(1))
            .expect_err("injected fsync failure");
        assert_eq!(persister.last_seq(), 1);
        assert_eq!(
            persister.wal_size(),
            clean_len,
            "failed record's bytes must be truncated away"
        );
        drop(persister);
        let (_, recovery) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        assert_eq!(
            recovery.tail,
            vec![add(0)],
            "phantom record must not replay"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_faults_fail_cleanly_and_the_retry_lands() {
        let dir = temp_dir("snapfault");
        let faults = Arc::new(FaultPlan::default());
        let (mut persister, _) = Persister::open(&options(&dir), Arc::clone(&faults)).unwrap();
        persister.append(&add(0)).unwrap();

        faults.arm_snapshot_write_fail();
        persister
            .write_snapshot(snapshot_at(1, 1))
            .expect_err("injected tmp-write failure");
        faults.arm_snapshot_rename_fail();
        persister
            .write_snapshot(snapshot_at(1, 1))
            .expect_err("injected rename failure");
        assert!(
            point_seqs(&dir).is_empty(),
            "no snapshot may appear from a failed write"
        );

        // Un-faulted retry succeeds, and recovery reads it.
        persister.write_snapshot(snapshot_at(1, 1)).unwrap();
        let (_, recovery) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        assert_eq!(recovery.snapshot.expect("snapshot").wal_seq, 1);
        assert!(recovery.tail.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_detects_a_broken_disk_and_leaves_no_debris() {
        let dir = temp_dir("probe");
        let faults = Arc::new(FaultPlan::default());
        let (persister, _) = Persister::open(&options(&dir), Arc::clone(&faults)).unwrap();
        persister.probe().expect("healthy dir probes clean");
        assert!(!dir.join(".probe.tmp").exists());

        faults.set_wal_broken(true);
        persister.probe().expect_err("broken disk must fail probe");
        faults.set_wal_broken(false);
        persister.probe().expect("probe recovers with the disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_write_is_incremental_and_recovers_exactly() {
        let dir = temp_dir("sharded");
        let (mut persister, _) =
            Persister::open(&sharded_options(&dir), FaultPlan::inert()).unwrap();
        // Three satellites in shard 0, one in shard 1. First write has no
        // predecessor, so it must produce a full chunk set.
        let alts = [7_000.0, 7_100.0, 7_200.0, 8_000.0];
        for id in 0..4 {
            persister.append(&add(id)).unwrap();
        }
        let full = persister.write_snapshot(snapshot_of(4, &alts)).unwrap();
        assert_eq!(point_seqs(&dir), vec![4]);
        assert_eq!(chunk_keys(&dir), vec![(4, 0), (4, 1)]);

        // One more satellite lands in shard 1; the incremental write must
        // rewrite only that shard's chunk (plus the manifest).
        let alts = [7_000.0, 7_100.0, 7_200.0, 8_000.0, 8_200.0];
        persister.append(&add(4)).unwrap();
        let incremental = persister.write_snapshot(snapshot_of(5, &alts)).unwrap();
        assert_eq!(
            chunk_keys(&dir),
            vec![(4, 0), (4, 1), (5, 1)],
            "clean shard 0 must reuse its seq-4 chunk"
        );
        assert!(
            incremental.bytes < full.bytes,
            "incremental ({incremental:?}) should undercut full ({full:?})"
        );

        let (_, recovery) = Persister::open(&sharded_options(&dir), FaultPlan::inert()).unwrap();
        let snapshot = recovery.snapshot.expect("manifest recovers");
        assert_eq!(snapshot.wal_seq, 5);
        assert_eq!(
            snapshot.rows,
            snapshot_of(5, &alts).rows,
            "dense order must survive chunking by shard"
        );
        assert!(recovery.tail.is_empty(), "manifest covers the whole wal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn written_counts_the_chunks_whose_rows_changed() {
        let dir = temp_dir("written");
        let (mut persister, _) =
            Persister::open(&sharded_options(&dir), FaultPlan::inert()).unwrap();
        // Satellite 0 in shard 0, satellites 1 and 2 in shard 1.
        let (two, three) = ([7_000.0, 8_000.0], [7_000.0, 8_000.0, 8_100.0]);
        let mut seq = 0;
        let mut write = |persister: &mut Persister, alts: &[f64], touched: &[u32]| {
            seq += 1;
            persister.append(&add(seq)).unwrap();
            // An epoch past every generation `snapshot_of` hands out.
            let snapshot = touching(snapshot_of(seq, alts), seq + 3, touched);
            persister.write_snapshot(snapshot).unwrap().chunks
        };

        // No write before it: one satellite changed, both chunks are
        // rewritten.
        assert_eq!(write(&mut persister, &two, &[1]), 2);
        // Incremental writes rewrite exactly the chunks whose rows changed
        // — none, for a point whose records were all screen commits.
        for _ in 0..FULL_MANIFEST_EVERY / 2 {
            assert_eq!(write(&mut persister, &two, &[1]), 1);
            assert_eq!(write(&mut persister, &two, &[]), 0);
        }
        // The full set forced after FULL_MANIFEST_EVERY incrementals.
        assert_eq!(write(&mut persister, &two, &[]), 2);
        assert_eq!(write(&mut persister, &two, &[0]), 1);
        // A satellite joins shard 1, then leaves it with no new generation
        // behind: its count alone marks the chunk.
        assert_eq!(write(&mut persister, &three, &[2]), 1);
        assert_eq!(write(&mut persister, &two, &[]), 1);
        drop(persister);

        // Reopened (here: relaid to 1×1), a persister has nothing to be
        // incremental against.
        let (mut persister, _) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        assert_eq!(write(&mut persister, &two, &[]), 1);
        let newest = *point_seqs(&dir).last().unwrap();
        let manifest = load_manifest(&manifest_path(&dir, newest)).unwrap();
        assert_eq!(manifest.shard_count, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_chunk_falls_back_to_the_previous_point() {
        let dir = temp_dir("chunkfall");
        let (mut persister, _) =
            Persister::open(&sharded_options(&dir), FaultPlan::inert()).unwrap();
        persister.append(&add(0)).unwrap();
        persister.append(&add(1)).unwrap();
        persister
            .write_snapshot(snapshot_of(2, &[7_000.0, 8_000.0]))
            .unwrap();
        persister.append(&add(2)).unwrap();
        persister.append(&add(3)).unwrap();
        persister
            .write_snapshot(snapshot_of(4, &[7_000.0, 8_000.0, 8_100.0, 8_200.0]))
            .unwrap();
        drop(persister);

        // Vandalise the chunk the newest manifest just wrote. The whole
        // manifest must be skipped — a half-applied manifest would serve a
        // catalog that never existed.
        std::fs::write(chunk_path(&dir, 4, 1), "XXXX not a chunk XXXX").unwrap();

        let (_, recovery) = Persister::open(&sharded_options(&dir), FaultPlan::inert()).unwrap();
        assert_eq!(recovery.corrupt_snapshots, 1);
        let snapshot = recovery.snapshot.expect("fallback to the seq-2 manifest");
        assert_eq!(snapshot.wal_seq, 2);
        assert_eq!(ids(&snapshot), vec![0, 1]);
        assert_eq!(
            recovery.tail,
            vec![add(2), add(3)],
            "records past the fallback must still replay"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_row_union_that_skips_or_repeats_a_dense_index_is_corrupt() {
        let alts = [7_000.0, 7_100.0, 8_000.0];
        let mut skips = snapshot_of(4, &alts).rows;
        skips[2].index = 3;
        let mut repeats = snapshot_of(4, &alts).rows;
        repeats[2].index = 1;
        for (rows, what) in [(skips, "skips"), (repeats, "repeats")] {
            let dir = temp_dir("dense");
            let (mut persister, _) =
                Persister::open(&sharded_options(&dir), FaultPlan::inert()).unwrap();
            persister.append(&add(0)).unwrap();
            persister.append(&add(1)).unwrap();
            persister
                .write_snapshot(snapshot_of(2, &alts[..2]))
                .unwrap();
            persister.append(&add(2)).unwrap();
            persister.append(&add(3)).unwrap();
            // Every frame of the newer point checksums, every chunk holds
            // the shard it claims and the count matches the manifest: only
            // the union of the rows is wrong.
            let broken = Snapshot {
                rows,
                ..snapshot_of(4, &alts)
            };
            persister.write_snapshot(broken).unwrap();
            drop(persister);

            let (_, recovery) =
                Persister::open(&sharded_options(&dir), FaultPlan::inert()).unwrap();
            assert_eq!(recovery.corrupt_snapshots, 1, "{what}");
            let snapshot = recovery.snapshot.expect("fallback to the seq-2 manifest");
            assert_eq!(
                (snapshot.wal_seq, ids(&snapshot)),
                (2, vec![0, 1]),
                "{what}"
            );
            assert_eq!(recovery.tail, vec![add(2), add(3)], "{what}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn format_changes_read_across_the_sharding_switch() {
        let dir = temp_dir("xformat");
        // A directory a flat daemon left: one-chunk manifests at seq 1 and
        // 2 — and, from the build before it, a v1 file it had not aged out.
        let (mut persister, _) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        let v1 = leave_v1(&dir, 0);
        for seq in 1..=2 {
            persister.append(&add(seq - 1)).unwrap();
            persister.write_snapshot(snapshot_at(seq, seq)).unwrap();
        }
        assert!(!v1.exists(), "a v1 file below the cutoff is swept by name");
        drop(persister);

        // A sharded reopen recovers it, and supersedes it with a full
        // manifest (a reopened persister has written nothing yet).
        let (mut persister, recovery) =
            Persister::open(&sharded_options(&dir), FaultPlan::inert()).unwrap();
        assert_eq!(recovery.snapshot.expect("1×1 readable").wal_seq, 2);
        assert_eq!(persister.last_seq(), 2);
        persister.append(&add(2)).unwrap();
        let alts = [7_000.0, 7_001.0, 8_000.0];
        let written = persister.write_snapshot(snapshot_of(3, &alts)).unwrap();
        assert_eq!(
            written.chunks, 2,
            "the first write of a persister must be full"
        );
        // The newest two full points are 1×1@2 and 2×1@3, so 1×1@1 ages
        // out with its chunk…
        assert_eq!(point_seqs(&dir), vec![2, 3]);
        assert_eq!(chunk_keys(&dir), vec![(2, 0), (3, 0), (3, 1)]);
        drop(persister);

        // …and the flat fallback still works from a mixed directory.
        std::fs::write(chunk_path(&dir, 3, 0), "XXXX not a chunk XXXX").unwrap();
        let (mut persister, recovery) =
            Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        assert_eq!(recovery.corrupt_snapshots, 1);
        assert_eq!(recovery.snapshot.expect("1×1 fallback").wal_seq, 2);
        assert_eq!(recovery.tail, vec![add(2)]);

        // An unsharded reopen relays to one chunk and reads it back.
        persister.write_snapshot(snapshot_of(3, &alts)).unwrap();
        persister.append(&add(3)).unwrap();
        let alts = [7_000.0, 7_001.0, 8_000.0, 8_001.0];
        persister.write_snapshot(snapshot_of(4, &alts)).unwrap();
        assert_eq!(point_seqs(&dir), vec![3, 4]);
        assert_eq!(chunk_keys(&dir), vec![(3, 0), (4, 0)]);
        drop(persister);
        let (_, recovery) = Persister::open(&sharded_options(&dir), FaultPlan::inert()).unwrap();
        let snapshot = recovery.snapshot.expect("1×1 manifest readable under 2×1");
        assert_eq!((snapshot.wal_seq, snapshot.rows.len()), (4, 4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_two_full_points_and_reclaims_chunks() {
        let dir = temp_dir("chunkgc");
        let (mut persister, _) =
            Persister::open(&sharded_options(&dir), FaultPlan::inert()).unwrap();
        // Both satellites change between writes, so every shard is
        // rewritten, each write is a full recovery point and retention
        // trims to the newest two.
        for round in 0..4u64 {
            persister.append(&add(round)).unwrap();
            let snapshot = snapshot_of(round + 1, &[7_000.0, 8_000.0]);
            persister
                .write_snapshot(touching(snapshot, round + 3, &[0, 1]))
                .unwrap();
        }
        assert_eq!(
            point_seqs(&dir),
            vec![3, 4],
            "two newest full manifests survive"
        );
        assert_eq!(
            chunk_keys(&dir),
            vec![(3, 0), (3, 1), (4, 0), (4, 1)],
            "chunks of dropped manifests are reclaimed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_snapshot_reports_its_size_on_disk() {
        let dir = temp_dir("size");
        let (mut persister, _) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        persister.append(&add(0)).unwrap();
        let written = persister.write_snapshot(snapshot_at(1, 1)).unwrap();
        let on_disk = |path: PathBuf| std::fs::metadata(path).unwrap().len();
        assert_eq!(
            written.bytes,
            on_disk(manifest_path(&dir, 1)) + on_disk(chunk_path(&dir, 1, 0))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Field-for-field equality of two snapshots, floats by bit pattern.
    /// (`last_screen` timings are `Duration`s that cross the wire as
    /// fractional milliseconds, so they are held to a microsecond.)
    fn assert_same_snapshot(got: &Snapshot, want: &Snapshot, context: &str) {
        let spec_bits =
            |s: &ElementsSpec| [s.a, s.e, s.incl, s.raan, s.argp, s.mean_anomaly].map(f64::to_bits);
        let row_bits = |rows: &[Row]| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|r| {
                    let mut bits = vec![r.index as u64, r.id, r.generation];
                    bits.extend(spec_bits(&r.elements));
                    bits.extend(spec_bits(&r.base));
                    bits
                })
                .collect()
        };
        let pair_bits = |found: &[Conjunction]| -> Vec<(u32, u32, u64, u64)> {
            found
                .iter()
                .map(|c| (c.id_lo, c.id_hi, c.tca.to_bits(), c.pca_km.to_bits()))
                .collect()
        };
        assert_eq!(got.wal_seq, want.wal_seq, "{context}");
        assert_eq!(row_bits(&got.rows), row_bits(&want.rows), "{context}");
        let (got, want) = (&got.global, &want.global);
        assert_eq!(got.epoch, want.epoch, "{context}");
        assert_eq!(got.changed, want.changed, "{context}");
        assert_eq!(
            got.window_start.to_bits(),
            want.window_start.to_bits(),
            "{context}"
        );
        assert_eq!(got.screened_n, want.screened_n, "{context}");
        assert_eq!(got.full_screens, want.full_screens, "{context}");
        assert_eq!(got.delta_screens, want.delta_screens, "{context}");
        assert_eq!(
            pair_bits(&got.conjunctions),
            pair_bits(&want.conjunctions),
            "{context}"
        );
        assert_eq!(got.requests_served, want.requests_served, "{context}");
        assert_eq!(got.time.to_bits(), want.time.to_bits(), "{context}");
        assert_eq!(got.variant, want.variant, "{context}");
        assert_eq!(
            got.last_screen.is_some(),
            want.last_screen.is_some(),
            "{context}"
        );
        if let (Some(got), Some(want)) = (&got.last_screen, &want.last_screen) {
            assert_eq!(got.variant, want.variant, "{context}");
            assert_eq!(got.filter_stats, want.filter_stats, "{context}");
            let (got, want) = (got.timings, want.timings);
            for (got, want) in [
                (got.insertion, want.insertion),
                (got.pair_extraction, want.pair_extraction),
                (got.filters, want.filters),
                (got.refinement, want.refinement),
                (got.total, want.total),
            ] {
                assert!(got.abs_diff(want).as_micros() < 1, "{context}");
            }
        }
    }

    /// One daemon lifetime of the layout matrix, without the daemon: a
    /// durable `ServiceState` under the layout, driven through
    /// `ServiceState::handle` with checkpoints at a random cadence.
    /// `expected` is the in-memory snapshot at the last checkpoint, `tail`
    /// the records logged since, `seq` the WAL seq of the last record.
    struct Lifetime {
        dir: PathBuf,
        state: ServiceState,
        seq: u64,
        expected: Option<Snapshot>,
        tail: Vec<Request>,
    }

    impl Lifetime {
        /// Open `dir` under `layout`, hold what recovery found against
        /// what the previous lifetime left (`expected`, `tail`), and come
        /// up the way `Server::bind_with` does: `ServiceState::recover`.
        fn open(
            dir: &Path,
            layout: Option<ShardSpec>,
            expected: Option<Snapshot>,
            tail: Vec<Request>,
            context: &str,
        ) -> Lifetime {
            let persist = PersistOptions {
                shards: layout,
                ..options(dir)
            };
            let (persister, recovery) = Persister::open(&persist, FaultPlan::inert()).unwrap();
            assert_eq!(recovery.corrupt_snapshots, 0, "{context}");
            assert!(recovery.torn_tail.is_none(), "{context}");
            assert_eq!(recovery.snapshot.is_some(), expected.is_some(), "{context}");
            if let (Some(got), Some(want)) = (&recovery.snapshot, &expected) {
                assert_same_snapshot(got, want, context);
            }
            assert_eq!(recovery.tail, tail, "{context}");

            let config = ScreeningConfig::grid_defaults(5.0, 120.0);
            let screener = GridScreener::new(config);
            let seq = persister.last_seq();
            let state = ServiceState::recover(screener, persister, &recovery)
                .unwrap_or_else(|err| panic!("{context}: {err}"));
            Lifetime {
                dir: dir.to_path_buf(),
                state,
                seq,
                expected,
                tail,
            }
        }

        /// ADD / UPDATE (a fresh `a` and inclination, so most cross a band
        /// or shell of the 2×1 and 8×4 layouts) / REMOVE / ADVANCE (which
        /// moves every satellite's stored elements) / SCREEN and DELTA
        /// (which change no row and change the manifest's warm set) / an
        /// ADD of a new id and the REMOVE of it (which leave every row as
        /// it was) / an ADD of a known id, which is refused.
        fn generated_requests(&self, rng: &mut SplitMix64) -> Vec<Request> {
            let ids = self.state.catalog().ids();
            let elements = ElementsSpec {
                a: 6_600.0 + 2_300.0 * rng.unit(),
                e: 0.002 * rng.unit(),
                incl: 0.1 + 1.4 * rng.unit(),
                raan: std::f64::consts::TAU * rng.unit(),
                argp: std::f64::consts::TAU * rng.unit(),
                mean_anomaly: std::f64::consts::TAU * rng.unit(),
            };
            let known = |rng: &mut SplitMix64| ids[rng.below(ids.len() as u64) as usize];
            let fresh = ids.iter().max().map_or(0, |max| max + 1);
            let request = match rng.below(14) {
                _ if ids.is_empty() => Request::Add { id: 0, elements },
                0..=3 => Request::Add {
                    id: fresh,
                    elements,
                },
                4..=6 => Request::Update {
                    id: known(rng),
                    elements,
                },
                7 => Request::Remove { id: known(rng) },
                8 => Request::Advance {
                    dt: 1.0 + 20.0 * rng.unit(),
                },
                9 => Request::Screen,
                10 | 11 => Request::Delta,
                12 => {
                    return vec![
                        Request::Add {
                            id: fresh,
                            elements,
                        },
                        Request::Remove { id: fresh },
                    ]
                }
                _ => Request::Add {
                    id: known(rng),
                    elements,
                },
            };
            vec![request]
        }

        /// A refused request is answered and leaves no record; every
        /// other one here is a mutation, logged and applied.
        fn submit(&mut self, request: Request, context: &str) -> Response {
            let response = self.state.handle(&request);
            assert!(!response.not_applied, "{context}: {request:?}");
            if response.ok {
                self.seq += 1;
                self.tail.push(request);
            }
            response
        }

        /// Submit `steps` generated request groups, checkpointing at
        /// random; after every checkpoint the newest manifest on disk must
        /// materialize into the live state's snapshot, bit for bit.
        fn run(&mut self, rng: &mut SplitMix64, steps: usize, context: &str) {
            for step in 0..steps {
                let context = format!("{context} step {step}");
                for request in self.generated_requests(rng) {
                    self.submit(request, &context);
                }
                if rng.below(4) == 0 {
                    self.state.checkpoint().unwrap();
                    let expected = self.state.snapshot(self.seq);
                    let (seq, path) = list_manifests(&self.dir).unwrap().pop().unwrap();
                    assert_eq!(seq, self.seq, "{context}");
                    let written = load_manifest(&path)
                        .and_then(|manifest| materialize_manifest(&self.dir, manifest))
                        .unwrap_or_else(|err| panic!("{context}: {err}"));
                    assert_same_snapshot(&written, &expected, &context);
                    self.expected = Some(expected);
                    self.tail.clear();
                }
            }
        }

        /// Die, leaving what a crash mid-checkpoint leaves: half-written
        /// `.tmp` files and a chunk no manifest references.
        fn crash(self, dir: &Path) -> (Option<Snapshot>, Vec<Request>) {
            let next = self.seq + 1;
            drop(self.state);
            let debris = |name: String| std::fs::write(dir.join(name), "{\"seq\":").unwrap();
            debris(format!("manifest-{next:020}.json.tmp"));
            debris(format!("shard-{next:020}-0000.json.tmp"));
            debris(format!("shard-{next:020}-0000.json"));
            (self.expected, self.tail)
        }
    }

    #[test]
    fn every_layout_recovers_what_every_layout_wrote() {
        let spec = |alt_bands, z_shells| {
            Some(ShardSpec {
                alt_bands,
                z_shells,
            })
        };
        let layouts = [None, spec(1, 1), spec(2, 1), spec(8, 4)];
        for seed in 1..=3u64 {
            for (w, written_under) in layouts.iter().enumerate() {
                for (r, reopened_under) in layouts.iter().enumerate() {
                    let context = format!("seed {seed}, layout {w} reopened under layout {r}");
                    let mut rng = SplitMix64(seed);
                    let dir = temp_dir("matrix");

                    let mut first = Lifetime::open(&dir, *written_under, None, vec![], &context);
                    // Two satellites that cross within the window, so the
                    // manifests carry a non-empty warm set.
                    for (id, incl, mean_anomaly) in [(0, 0.5, 6.1185), (1, 1.3, 6.1187)] {
                        let elements = ElementsSpec {
                            incl,
                            raan: 0.3,
                            argp: 0.1,
                            mean_anomaly,
                            ..spec_a(7_000.0)
                        };
                        assert!(first.submit(Request::Add { id, elements }, &context).ok);
                    }
                    assert!(first.submit(Request::Screen, &context).ok);
                    assert_eq!(first.state.engine().conjunction_count(), 1, "{context}");
                    first.run(&mut rng, 24, &context);
                    let (expected, tail) = first.crash(&dir);

                    // The relaid daemon recovers the other layout's
                    // points, then writes its own on top of them.
                    let mut second =
                        Lifetime::open(&dir, *reopened_under, expected, tail, &context);
                    second.run(&mut rng, 24, &context);
                    let (expected, tail) = second.crash(&dir);

                    Lifetime::open(&dir, *reopened_under, expected, tail, &context);
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }

    #[test]
    fn an_advance_that_leaves_the_time_bits_as_they_were_still_rewrites_the_rows() {
        let dir = temp_dir("advance-bits");
        let (persister, recovery) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        let screener = GridScreener::new(ScreeningConfig::grid_defaults(5.0, 120.0));
        let mut state = ServiceState::recover(screener, persister, &recovery).unwrap();
        assert!(state.handle(&Request::Advance { dt: 1e18 }).ok);
        assert!(state.handle(&add(0)).ok);
        state.checkpoint().unwrap();
        let (time, added) = (state.catalog().time(), state.snapshot(2));

        // At 1e18 s a 1 s step is below half an ulp: catalog time keeps its
        // bits, yet the satellite's elements are recomputed from its base.
        assert!(state.handle(&Request::Advance { dt: 1.0 }).ok);
        assert_eq!(state.catalog().time().to_bits(), time.to_bits());
        let advanced = state.snapshot(3);
        let bits = |row: &Row| row.elements.mean_anomaly.to_bits();
        assert_ne!(bits(&advanced.rows[0]), bits(&added.rows[0]));
        assert_eq!(advanced.rows[0].generation, added.rows[0].generation);
        state.checkpoint().unwrap();
        drop(state);

        let (_, recovery) = Persister::open(&options(&dir), FaultPlan::inert()).unwrap();
        let recovered = recovery.snapshot.expect("the second checkpoint recovers");
        assert_same_snapshot(&recovered, &advanced, "after ADVANCE 1 at 1e18 s");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
