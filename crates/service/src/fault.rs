//! Deterministic fault injection for the crash-safety test harness.
//!
//! A [`FaultPlan`] is a set of one-shot counters the daemon consults at
//! well-defined points: just before screening work (panic injection), at
//! the top of the worker loop (worker kill), and inside the WAL writer
//! and snapshot paths (torn appends, I/O failures). Production code never
//! arms a plan — the default is inert and every check is a single
//! relaxed-ish atomic load — but the fault-injection suites
//! (`tests/faults.rs`, `tests/disk_faults.rs`) arm them to prove the
//! daemon degrades gracefully instead of crashing or corrupting state.
//!
//! Two fault shapes exist: *one-shot* counters (`arm_*`) fire exactly
//! once per arm — a transient glitch — and *sticky* flags (`set_*`)
//! fail every operation until cleared — a full disk or a dead device.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// `EIO` — generic device-level I/O failure.
const EIO: i32 = 5;
/// `ENOSPC` — disk full. Raw OS code so the error formats exactly as a
/// real full disk would ("No space left on device (os error 28)").
const ENOSPC: i32 = 28;

/// One-shot fault counters and sticky outage flags shared between a test
/// and a running server.
///
/// Each `arm_*` call schedules exactly one future fault; arming twice
/// schedules two. All methods are thread-safe.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Panic *inside* the worker's `catch_unwind` guard while screening:
    /// the request must get an ERROR response and the worker must survive.
    panic_screen: AtomicU32,
    /// Panic *outside* the guard: the worker loop unwinds and its
    /// thread must restart it.
    kill_worker: AtomicU32,
    /// Tear the next WAL append: write only a prefix of the record (as a
    /// crash mid-`write` would) while still reporting success.
    torn_wal: AtomicU32,
    /// Fail the next WAL append with EIO *before* any bytes are written.
    wal_append_eio: AtomicU32,
    /// Fail the next WAL append with ENOSPC before any bytes are written.
    wal_append_enospc: AtomicU32,
    /// Let the next WAL append's bytes land but fail the fsync — the
    /// nastiest storage fault: a complete record on disk for a mutation
    /// the caller will be told failed.
    wal_fsync_fail: AtomicU32,
    /// Fail the next snapshot's tmp-file write.
    snapshot_write_fail: AtomicU32,
    /// Fail the next snapshot's rename-into-place (tmp file left behind,
    /// as a real rename failure would).
    snapshot_rename_fail: AtomicU32,
    /// Sticky: every WAL append fails until cleared (permanent outage).
    wal_broken: AtomicBool,
    /// Sticky: every snapshot write fails until cleared.
    snapshot_broken: AtomicBool,
}

fn take(counter: &AtomicU32) -> bool {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
        .is_ok()
}

impl FaultPlan {
    /// An inert plan (what [`crate::server::ServerOptions::default`] uses).
    pub fn inert() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::default())
    }

    /// Panic inside the screening guard on the next heavy request.
    pub fn arm_panic_screen(&self) {
        self.panic_screen.fetch_add(1, Ordering::SeqCst);
    }

    /// Kill the worker thread on the next heavy request.
    pub fn arm_kill_worker(&self) {
        self.kill_worker.fetch_add(1, Ordering::SeqCst);
    }

    /// Tear the next WAL append mid-record.
    pub fn arm_torn_wal(&self) {
        self.torn_wal.fetch_add(1, Ordering::SeqCst);
    }

    /// Fail the next WAL append with EIO (nothing written).
    pub fn arm_wal_append_eio(&self) {
        self.wal_append_eio.fetch_add(1, Ordering::SeqCst);
    }

    /// Fail the next WAL append with ENOSPC (nothing written).
    pub fn arm_wal_append_enospc(&self) {
        self.wal_append_enospc.fetch_add(1, Ordering::SeqCst);
    }

    /// Write the next WAL record's bytes but fail its fsync.
    pub fn arm_wal_fsync_fail(&self) {
        self.wal_fsync_fail.fetch_add(1, Ordering::SeqCst);
    }

    /// Fail the next snapshot's tmp-file write.
    pub fn arm_snapshot_write_fail(&self) {
        self.snapshot_write_fail.fetch_add(1, Ordering::SeqCst);
    }

    /// Fail the next snapshot's rename-into-place.
    pub fn arm_snapshot_rename_fail(&self) {
        self.snapshot_rename_fail.fetch_add(1, Ordering::SeqCst);
    }

    /// Permanent WAL outage: every append fails until `set_wal_broken(false)`.
    pub fn set_wal_broken(&self, broken: bool) {
        self.wal_broken.store(broken, Ordering::SeqCst);
    }

    /// Permanent snapshot outage: every snapshot write fails until cleared.
    pub fn set_snapshot_broken(&self, broken: bool) {
        self.snapshot_broken.store(broken, Ordering::SeqCst);
    }

    pub(crate) fn take_panic_screen(&self) -> bool {
        take(&self.panic_screen)
    }

    pub(crate) fn take_kill_worker(&self) -> bool {
        take(&self.kill_worker)
    }

    pub(crate) fn take_torn_wal(&self) -> bool {
        take(&self.torn_wal)
    }

    /// The injected failure for the next WAL append, if one is armed.
    /// Checked before any bytes are written, so these faults are clean
    /// rejections; the fsync fault (checked inside the writer) is the one
    /// that leaves residue behind.
    pub(crate) fn take_wal_append_error(&self) -> Option<io::Error> {
        if self.wal_broken.load(Ordering::SeqCst) {
            return Some(io::Error::from_raw_os_error(EIO));
        }
        if take(&self.wal_append_eio) {
            return Some(io::Error::from_raw_os_error(EIO));
        }
        if take(&self.wal_append_enospc) {
            return Some(io::Error::from_raw_os_error(ENOSPC));
        }
        None
    }

    pub(crate) fn take_wal_fsync_error(&self) -> Option<io::Error> {
        take(&self.wal_fsync_fail).then(|| io::Error::from_raw_os_error(EIO))
    }

    pub(crate) fn take_snapshot_write_error(&self) -> Option<io::Error> {
        if self.snapshot_broken.load(Ordering::SeqCst) {
            return Some(io::Error::from_raw_os_error(ENOSPC));
        }
        take(&self.snapshot_write_fail).then(|| io::Error::from_raw_os_error(ENOSPC))
    }

    pub(crate) fn take_snapshot_rename_error(&self) -> Option<io::Error> {
        take(&self.snapshot_rename_fail).then(|| io::Error::from_raw_os_error(EIO))
    }

    /// `true` while the sticky WAL outage is set (the persistence probe
    /// consults this so a probe cannot succeed against a broken disk).
    pub(crate) fn wal_is_broken(&self) -> bool {
        self.wal_broken.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_exactly_once_per_arm() {
        let plan = FaultPlan::default();
        assert!(!plan.take_panic_screen());
        plan.arm_panic_screen();
        assert!(plan.take_panic_screen());
        assert!(!plan.take_panic_screen());

        plan.arm_torn_wal();
        plan.arm_torn_wal();
        assert!(plan.take_torn_wal());
        assert!(plan.take_torn_wal());
        assert!(!plan.take_torn_wal());

        assert!(!plan.take_kill_worker());
        plan.arm_kill_worker();
        assert!(plan.take_kill_worker());
    }

    #[test]
    fn storage_faults_fire_once_and_carry_the_right_errno() {
        let plan = FaultPlan::default();
        assert!(plan.take_wal_append_error().is_none());

        plan.arm_wal_append_eio();
        let err = plan.take_wal_append_error().expect("armed EIO");
        assert_eq!(err.raw_os_error(), Some(EIO));
        assert!(plan.take_wal_append_error().is_none());

        plan.arm_wal_append_enospc();
        let err = plan.take_wal_append_error().expect("armed ENOSPC");
        assert_eq!(err.raw_os_error(), Some(ENOSPC));

        plan.arm_wal_fsync_fail();
        assert!(plan.take_wal_fsync_error().is_some());
        assert!(plan.take_wal_fsync_error().is_none());

        plan.arm_snapshot_write_fail();
        assert!(plan.take_snapshot_write_error().is_some());
        assert!(plan.take_snapshot_write_error().is_none());
        plan.arm_snapshot_rename_fail();
        assert!(plan.take_snapshot_rename_error().is_some());
    }

    #[test]
    fn sticky_outages_fail_every_time_until_cleared() {
        let plan = FaultPlan::default();
        plan.set_wal_broken(true);
        assert!(plan.wal_is_broken());
        assert!(plan.take_wal_append_error().is_some());
        assert!(
            plan.take_wal_append_error().is_some(),
            "sticky, not one-shot"
        );
        plan.set_wal_broken(false);
        assert!(!plan.wal_is_broken());
        assert!(plan.take_wal_append_error().is_none());

        plan.set_snapshot_broken(true);
        assert!(plan.take_snapshot_write_error().is_some());
        assert!(plan.take_snapshot_write_error().is_some());
        plan.set_snapshot_broken(false);
        assert!(plan.take_snapshot_write_error().is_none());
    }
}
