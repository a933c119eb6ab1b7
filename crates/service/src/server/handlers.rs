//! The daemon's request-handling core: the [`Shared`] hub the I/O event
//! loop, workers, and probes all hang off; the screening path, which
//! enqueues a job [`ServiceState::begin`] captured, has a worker run it
//! and hand it to [`ServiceState::commit`], and publishes to subscribers
//! what the commit hands back; the [`IoHub`] queue that carries worker
//! completions and subscription pushes back to the event loop; and the
//! worker pool, whose threads restart their loop in place after a panic.
//! `commit` itself records the screen in METRICS, and an inline request
//! is just [`ServiceState::handle`] under the state lock, so neither needs
//! anything from here.
//!
//! Nothing here counts an inline answer: the event loop does, as it
//! queues the answer for its connection. A worker's answer is counted by
//! the owed-response guard `Reply` as it is handed to the io queue.

use super::degraded::sleep_with_shutdown;
use super::subs::SubHub;
use super::ServiceState;
use crate::error::ServiceError;
use crate::exec::{run_screen_job, CancelRegistry, ScreenJob};
use crate::fault::FaultPlan;
use crate::metrics::MetricsRegistry;
use crate::proto::{Request, Response};
use crate::sync::Mutex;
use kessler_core::CancelToken;
use std::io::Write;
use std::net::SocketAddr;
use std::os::unix::net::UnixStream;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A screening request captured for the worker pool: the immutable job,
/// the connection owed the response, and the cancellation bookkeeping.
pub(crate) struct ScreenTask {
    /// The request's command word, for counting its answer.
    pub(crate) verb: &'static str,
    pub(crate) job: ScreenJob,
    /// Event-loop connection id the response is owed to.
    pub(crate) conn: u64,
    pub(crate) req_id: Option<String>,
    pub(crate) token: CancelToken,
    pub(crate) seq: u64,
}

/// Work the event loop hands to the screening workers.
pub(crate) enum Job {
    Screen(Box<ScreenTask>),
    Stop,
}

/// Messages other threads hand to the I/O event loop.
pub(crate) enum IoMsg {
    /// A serialized response owed to connection `conn`; always delivered
    /// unless the consumer is hopelessly behind (then it's disconnected).
    Respond { conn: u64, line: String },
    /// A serialized push event for `conn`; shed past the write-buffer
    /// high-water mark rather than buffered without bound.
    Push { conn: u64, line: String },
}

/// The queue into the event loop plus the pipe that wakes its poll.
/// Lock order (state → subs → io → metrics): after `subs`, before
/// `metrics`.
pub(crate) struct IoHub {
    queue: Mutex<Vec<IoMsg>>,
    wake: UnixStream,
}

impl IoHub {
    pub(crate) fn new(wake: UnixStream) -> IoHub {
        IoHub {
            queue: Mutex::new(Vec::new()),
            wake,
        }
    }

    /// Serialize and enqueue a worker's response for `conn`.
    pub(crate) fn respond(&self, conn: u64, response: &Response) {
        let line = serde_json::to_string(response).unwrap_or_else(|_| {
            r#"{"ok":false,"error":"response serialization failed"}"#.to_string()
        });
        self.queue.lock().push(IoMsg::Respond { conn, line });
        self.wake();
    }

    /// Enqueue a batch of push events (no-op when empty).
    pub(crate) fn push_events(&self, msgs: Vec<IoMsg>) {
        if msgs.is_empty() {
            return;
        }
        self.queue.lock().extend(msgs);
        self.wake();
    }

    /// Take everything queued — the event loop's side.
    pub(crate) fn drain(&self) -> Vec<IoMsg> {
        std::mem::take(&mut *self.queue.lock())
    }

    /// Nudge the poll loop. A full (would-block) pipe is fine: a wake is
    /// already pending, which is all a wake byte means.
    fn wake(&self) {
        let _ = (&self.wake).write(&[1]);
    }
}

/// Lock order: `state` → `subs` → `io` → `metrics`. The persister and
/// degraded mode live inside the state, so the state lock covers them.
pub(crate) struct Shared {
    pub(crate) state: Mutex<ServiceState>,
    /// Rolling observability counters/histograms, shared with the state's
    /// durability steps. Lock order: always last (after `state`, `subs`,
    /// and the io queue) — the METRICS fast path takes only this.
    pub(crate) metrics: Arc<Mutex<MetricsRegistry>>,
    /// Live screening jobs' cancel tokens, keyed by req_id for CANCEL.
    pub(crate) registry: CancelRegistry,
    /// Subscription registry + published-pair baseline for push fan-out.
    pub(crate) subs: SubHub,
    /// Worker completions and pushes bound for the event loop.
    pub(crate) io: IoHub,
    pub(crate) shutdown: AtomicBool,
    pub(crate) jobs: SyncSender<Job>,
    /// Screening tasks sent and not yet received by a worker — the depth
    /// behind METRICS' `queue_highwater`.
    pub(crate) queued: AtomicUsize,
    pub(crate) addr: SocketAddr,
    pub(crate) faults: Arc<FaultPlan>,
    pub(crate) read_timeout: Option<Duration>,
    /// Per-connection write-buffer high-water mark (bytes): pushes are
    /// shed above it, and responses disconnect the consumer at the mark
    /// plus two max-size lines.
    pub(crate) write_highwater: usize,
}

/// Outcome of handing a screening verb to the worker pool.
pub(crate) enum Enqueued {
    /// Queued: the response reaches the connection later through the io
    /// queue, tagged with the task's `req_id`.
    Queued,
    /// Settled immediately (validation error, degraded, busy, shutdown);
    /// counted by the caller, like any inline answer.
    /// Boxed: a [`Response`] is two orders of magnitude bigger than the
    /// empty `Queued` arm this enum usually is.
    Done(Box<Response>),
}

impl Enqueued {
    fn done(response: Response) -> Enqueued {
        Enqueued::Done(Box::new(response))
    }
}

/// Register, begin, and enqueue one screening request without blocking:
/// the worker answers through the io queue. The job is captured *at
/// enqueue time* ([`ServiceState::begin`]), so it screens the catalog as
/// the client saw it, whatever lands in between. The `req_id` is
/// registered first, so a duplicate is answered before anything is
/// planned.
pub(crate) fn enqueue_screen(
    shared: &Shared,
    request: Request,
    req_id: Option<String>,
    conn: u64,
) -> Enqueued {
    let (seq, token) = match shared.registry.register(req_id.as_deref()) {
        Ok(registered) => registered,
        Err(err) => return Enqueued::done(Response::error(err.to_string())),
    };
    let capture_started = Instant::now();
    let begun = shared.state.lock().begin(&request);
    let job = match begun {
        Ok(job) => job,
        Err(refusal) => {
            shared.registry.unregister(seq);
            return Enqueued::Done(refusal);
        }
    };
    shared
        .metrics
        .lock()
        .snapshot_build
        .record_duration(capture_started.elapsed());
    let task = ScreenTask {
        verb: request.kind(),
        job,
        conn,
        req_id,
        token,
        seq,
    };
    // Counted before the send, so the worker's decrement cannot come first
    // and the depth a successful enqueue reports includes itself.
    let depth = shared.queued.fetch_add(1, Ordering::Relaxed) + 1;
    match shared.jobs.try_send(Job::Screen(Box::new(task))) {
        Ok(()) => {
            let served = &mut shared.metrics.lock().served;
            served.queue_highwater = served.queue_highwater.max(depth);
            Enqueued::Queued
        }
        Err(refused) => {
            shared.queued.fetch_sub(1, Ordering::Relaxed);
            shared.registry.unregister(seq);
            Enqueued::done(Response::rejected(match refused {
                TrySendError::Full(_) => "server busy: screening queue is full, retry later",
                TrySendError::Disconnected(_) => "server is shutting down",
            }))
        }
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Owed-response guard: exactly one response reaches the client's
/// connection per dequeued task, even if the worker thread dies mid-job
/// (fault injection, un-caught panic) — the drop handler then answers
/// with a "worker unavailable" error. Every worker answer is counted
/// here, once, as it leaves.
struct Reply<'a> {
    shared: &'a Shared,
    verb: &'static str,
    conn: u64,
    req_id: Option<String>,
    sent: bool,
}

impl Reply<'_> {
    /// Count the answer, then queue it for its connection: counted first,
    /// so a client that reads it and then asks for METRICS finds it there.
    fn send(&mut self, mut response: Response) {
        self.shared
            .metrics
            .lock()
            .count_request(self.verb, response.ok);
        response.req_id = self.req_id.take();
        self.shared.io.respond(self.conn, &response);
        self.sent = true;
    }
}

impl Drop for Reply<'_> {
    fn drop(&mut self) {
        if !self.sent {
            self.send(Response::error("screening worker unavailable, retry"));
        }
    }
}

/// One screening worker: drains jobs, runs each against its captured
/// snapshot (lock-free), commits the result under the state lock,
/// publishes what the commit hands back to subscribers, answers, and
/// isolates panics inside `catch_unwind` so a panicking screen answers
/// that one request with an ERROR instead of killing the thread.
pub(crate) fn worker_loop(shared: &Shared, jobs: &Mutex<Receiver<Job>>, worker: &str) {
    // The receiver's lock is a temporary of this closure, so it is released
    // before the job runs: workers queue for the next job, not behind one.
    let next_job = || jobs.lock().recv();
    while let Ok(job) = next_job() {
        match job {
            Job::Screen(task) => {
                shared.queued.fetch_sub(1, Ordering::Relaxed);
                let ScreenTask {
                    verb,
                    job,
                    conn,
                    req_id,
                    token,
                    seq,
                } = *task;
                let mut reply = Reply {
                    shared,
                    verb,
                    conn,
                    req_id,
                    sent: false,
                };
                if shared.faults.take_kill_worker() {
                    // Outside the guard: the loop unwinds and its thread
                    // restarts it. Unregister first so the req_id is not
                    // blocked forever; `reply` unwinds into the
                    // "unavailable" answer.
                    shared.registry.unregister(seq);
                    panic!("fault injection: kill worker");
                }
                if token.is_cancelled() {
                    // Cancelled while still queued: never ran.
                    shared.registry.unregister(seq);
                    shared.metrics.lock().served.jobs_cancelled += 1;
                    reply.send(Response::error("cancelled while queued"));
                    continue;
                }
                let started = Instant::now();
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    if shared.faults.take_panic_screen() {
                        panic!("fault injection: screening panic");
                    }
                    run_screen_job(&job, Some(&token))
                }));
                let response = match outcome {
                    Ok(Ok(output)) => {
                        let state = &mut *shared.state.lock();
                        let committed = state.commit(&job, output);
                        if let Some(publication) = &committed.publication {
                            // Under the lock that committed it, so the
                            // dense → external id translation matches the
                            // set (subs and io sit before metrics in the
                            // lock order).
                            let msgs = shared.subs.publish(
                                &publication.conjunctions,
                                state.catalog().ids(),
                                publication.epoch,
                                publication.ephemeral,
                            );
                            shared.io.push_events(msgs);
                        }
                        committed.response
                    }
                    Ok(Err(_cancelled)) => {
                        shared.metrics.lock().served.jobs_cancelled += 1;
                        Response::error("cancelled mid-screen at a phase boundary")
                    }
                    Err(payload) => {
                        Response::error(format!("screening panicked: {}", panic_message(&*payload)))
                    }
                };
                shared
                    .metrics
                    .lock()
                    .worker_jobs
                    .entry(worker.to_string())
                    .or_default()
                    .record_duration(started.elapsed());
                shared.registry.unregister(seq);
                reply.send(response);
            }
            Job::Stop => break,
        }
    }
}

/// Spawn worker `index` on its own thread. A panic that escapes the
/// job's own guard (the kill-worker fault, a panic in commit) has already
/// answered its client through `Reply`'s drop; the thread counts a
/// respawn and re-enters the loop in place. It returns on `Job::Stop`,
/// and on a panic during shutdown.
pub(crate) fn spawn_worker(
    shared: Arc<Shared>,
    jobs: Arc<Mutex<Receiver<Job>>>,
    index: usize,
) -> Result<JoinHandle<()>, ServiceError> {
    let worker = format!("worker-{index}");
    thread::Builder::new()
        .name(format!("kessler-screen-{index}"))
        .spawn(move || loop {
            let ran =
                panic::catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, &jobs, &worker)));
            if ran.is_ok() || shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            shared.metrics.lock().served.worker_respawns += 1;
            eprintln!("kessler-service: screening worker panicked; restarting it");
        })
        .map_err(|e| ServiceError::Spawn {
            what: "screening worker",
            source: e,
        })
}

/// Periodically log the one-line metrics digest to stderr. Sleeps through
/// `sleep_with_shutdown`, so the thread notices shutdown within one of
/// its steps instead of lingering a full interval; failure to spawn just
/// disables the log. The handle is joined at shutdown so the daemon exits
/// with no stray threads.
pub(crate) fn spawn_metrics_reporter(
    shared: Arc<Shared>,
    every: Duration,
) -> Option<JoinHandle<()>> {
    let spawned = thread::Builder::new()
        .name("kessler-metrics".into())
        .spawn(move || loop {
            sleep_with_shutdown(&shared, every);
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            eprintln!(
                "kessler-service metrics: {}",
                shared.metrics.lock().one_line()
            );
        });
    match spawned {
        Ok(handle) => Some(handle),
        Err(err) => {
            eprintln!("kessler-service: could not spawn metrics reporter: {err}");
            None
        }
    }
}
