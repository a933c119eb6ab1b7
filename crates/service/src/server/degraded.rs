//! The persistence probe of degraded (read-only) mode: it watches the
//! state's degraded flag and, once set, retries the state's emergency
//! checkpoint under the client's [`Backoff`] until normal service returns.
//! The flag and the checkpoint live in [`super::ServiceState`], under the
//! state lock; the probe takes only that lock (and metrics after it).

use super::conn::Backoff;
use super::handlers::Shared;
use crate::error::ServiceError;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How often a healthy daemon's probe looks at the degraded flag.
const TICK: Duration = Duration::from_millis(250);

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

/// The persistence probe: reads the degraded flag every [`TICK`] while
/// the daemon is healthy, and once degraded, retries the emergency
/// checkpoint under jittered exponential backoff until one lands — at
/// which point the state is back in normal mode and the probe goes back
/// to ticking.
pub(crate) fn persist_probe_loop(shared: &Shared, initial: Duration, max: Duration) {
    let seed = shared as *const Shared as usize as u64;
    loop {
        while !shared.state.lock().is_degraded() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            sleep_with_shutdown(shared, TICK);
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
            // A temporary: the state lock is released before the failure
            // is counted and logged.
            let attempt = shared.state.lock().end_degraded();
            match attempt {
                Ok(()) => break,
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
