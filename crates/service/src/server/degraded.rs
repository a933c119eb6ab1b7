//! Degraded (read-only) mode: the health flag, the persistence probe
//! (paced by the client's [`Backoff`]), and the emergency-snapshot
//! recovery attempt that brings the daemon back to normal service.

use super::conn::Backoff;
use super::handlers::Shared;
use crate::error::{PersistError, ServiceError};
use crate::sync::{unpoisoned, Mutex};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Degraded-mode flag plus the condvar that wakes the persistence probe.
/// Lock order: after `state` and `persist`, before `subs`, `io.queue`,
/// and `metrics`. Holders
/// never acquire another lock while holding `inner` (enter/exit drop it
/// before touching metrics), so it cannot participate in a cycle.
pub(crate) struct Health {
    pub(crate) inner: Mutex<HealthInner>,
    /// Signalled on entry into degraded mode; the probe thread waits here.
    pub(crate) probe_wake: Condvar,
}

#[derive(Default)]
pub(crate) struct HealthInner {
    pub(crate) degraded: bool,
    /// The persistence failure that triggered degradation (for rejections
    /// and logs).
    pub(crate) reason: String,
}

/// Sleep in ~50 ms steps, bailing out early at shutdown so the probe
/// never pins the process open through a long backoff interval.
pub(crate) fn sleep_with_shutdown(shared: &Shared, total: Duration) {
    let step = Duration::from_millis(50).min(total);
    let mut slept = Duration::ZERO;
    while slept < total {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        thread::sleep(step);
        slept += step;
    }
}

/// One recovery attempt: prove the disk accepts writes again, then make
/// every in-memory mutation durable at once with an emergency snapshot.
/// The snapshot covers the full current state at the persister's last
/// seq (nothing was applied while degraded, so it holds exactly what the
/// WAL describes). Lock order: state before persist, matching every other
/// path.
pub(crate) fn attempt_recovery(shared: &Shared) -> Result<(), PersistError> {
    let Some(persist) = &shared.persist else {
        return Ok(());
    };
    let mut state = shared.state.lock();
    let mut persister = persist.lock();
    persister.probe()?;
    let started = Instant::now();
    let written = state.checkpoint(&mut persister)?;
    drop(persister);
    drop(state);
    shared
        .metrics
        .lock()
        .record_snapshot(started.elapsed(), &written);
    Ok(())
}

/// The persistence probe: parked on a condvar while the daemon is
/// healthy, and once degraded, re-tries the disk under jittered
/// exponential backoff until an emergency snapshot lands — at which point
/// the daemon leaves degraded mode and the probe parks again.
pub(crate) fn persist_probe_loop(shared: &Shared, initial: Duration, max: Duration) {
    let seed = shared as *const Shared as usize as u64;
    loop {
        {
            let mut health = shared.health.inner.lock();
            while !health.degraded {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let parked = shared
                    .health
                    .probe_wake
                    .wait_timeout(health, Duration::from_millis(250));
                health = unpoisoned(parked).0;
            }
        }
        let mut backoff = Backoff::new(initial, max, seed);
        let mut delay = backoff.next_delay();
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            sleep_with_shutdown(shared, delay);
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match attempt_recovery(shared) {
                Ok(()) => {
                    shared.exit_degraded();
                    break;
                }
                Err(err) => {
                    shared.metrics.lock().note_probe_failure();
                    delay = backoff.next_delay();
                    eprintln!(
                        "kessler-service: persistence probe failed (retrying in {delay:?}): {err}"
                    );
                }
            }
        }
    }
}

pub(crate) fn spawn_persist_probe(
    shared: Arc<Shared>,
    initial: Duration,
    max: Duration,
) -> Result<JoinHandle<()>, ServiceError> {
    thread::Builder::new()
        .name("kessler-persist-probe".into())
        .spawn(move || persist_probe_loop(&shared, initial, max))
        .map_err(|e| ServiceError::Spawn {
            what: "persistence probe",
            source: e,
        })
}
