//! The daemon's request-handling core: the [`Shared`] hub the I/O event
//! loop, workers, and probes all hang off; the inline request path around
//! [`ServiceState::handle`]; the screening enqueue/commit path; the
//! [`IoHub`] queue that carries worker completions and subscription
//! pushes back to the event loop; and the supervised worker pool.

use super::subs::SubHub;
use super::{CommitDecision, Effect, ServiceState};
use crate::delta::ScreenRun;
use crate::error::ServiceError;
use crate::exec::{run_screen_job, CancelRegistry, ScreenJob, ScreenKind, ScreenOutput, Screened};
use crate::fault::FaultPlan;
use crate::metrics::MetricsRegistry;
use crate::proto::{Request, Response, ScreenSummary};
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
    pub(crate) request: Request,
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
    pub(crate) max_line_bytes: usize,
    /// Per-connection write-buffer high-water mark (bytes): pushes are
    /// shed above it, and responses disconnect the consumer at the mark
    /// plus two max-size lines.
    pub(crate) write_highwater: usize,
}

/// Push + metrics tail shared by the inline path and the worker commit
/// path. `adopted` (computed here) says whether the request changed the
/// state the WAL describes: it was planned, logged and applied. A refused
/// or `not_applied` request, and a stale or ephemeral screen result, did
/// not — they were never logged (WAL order must match commit order) and
/// owe no push.
pub(crate) fn finish_record(
    shared: &Shared,
    request: &Request,
    state: &mut ServiceState,
    mut response: Response,
) -> Response {
    let adopted = response.ok
        && request.is_mutation()
        && !response
            .screen
            .as_ref()
            .is_some_and(|s| s.stale || s.ephemeral);
    if adopted && (response.screen.is_some() || response.advance.is_some()) {
        // An adopted commit changed the maintained pair set: fan delta
        // events out to subscribers now, while the state lock still
        // guarantees the dense→external id translation matches the set.
        // (subs and the io queue sit before metrics in the lock order.)
        let epoch = response
            .screen
            .as_ref()
            .map(|s| s.epoch)
            .unwrap_or_else(|| state.catalog().epoch());
        let pairs = state.engine.warm_pairs();
        let msgs = shared
            .subs
            .publish(&pairs, state.catalog().ids(), epoch, false);
        shared.io.push_events(msgs);
    }
    let mut metrics = shared.metrics.lock();
    metrics.count_request(request.kind(), response.ok);
    if response.ok {
        if let Some(screen) = &response.screen {
            metrics.record_screen(&screen.variant, &screen.timings);
            if let Some(stats) = &screen.filter_stats {
                metrics.record_filter_chain(stats);
            }
        }
        if response.advance.is_some() {
            // ADVANCE's reply has no timings; the tail screen it ran left
            // them (and, under hybrid, its filter stats) on the engine.
            if let Some(tail) = state.engine.last_screen() {
                metrics.record_advance_tail(&tail.timings);
                if let Some(stats) = &tail.filter_stats {
                    metrics.record_filter_chain(stats);
                }
            }
        }
    }
    if let Some(status) = &mut response.status {
        status.metrics = Some(metrics.one_line());
    }
    response
}

/// Execute a non-screening request inline, under the state lock, through
/// [`ServiceState::handle`] (plan → log → apply → checkpoint-if-due), then
/// the shared push + metrics tail. METRICS short-circuits without ever
/// touching the state lock.
pub(crate) fn handle_and_persist(shared: &Shared, request: &Request) -> Response {
    if matches!(request, Request::Metrics) {
        // Served entirely at this layer: never touches the state lock,
        // never enters the WAL. The subscriber gauge is read before the
        // metrics lock (subs sits earlier in the lock order).
        let subscribers = shared.subs.active();
        let mut metrics = shared.metrics.lock();
        metrics.count_request(request.kind(), true);
        let mut snapshot = metrics.snapshot();
        snapshot.subscribers = subscribers;
        return Response::with_metrics(snapshot);
    }
    let state = &mut *shared.state.lock();
    let response = state.handle(request);
    finish_record(shared, request, state, response)
}

/// Outcome of handing a screening verb to the worker pool.
pub(crate) enum Enqueued {
    /// Queued: the response reaches the connection later through the io
    /// queue, tagged with the task's `req_id`.
    Queued,
    /// Settled immediately (validation error, degraded, busy, shutdown).
    /// Boxed: a [`Response`] is two orders of magnitude bigger than the
    /// empty `Queued` arm this enum usually is.
    Done(Box<Response>),
}

impl Enqueued {
    fn done(response: Response) -> Enqueued {
        Enqueued::Done(Box::new(response))
    }
}

/// Register, capture, and enqueue one screening request without blocking:
/// the worker answers through the io queue. The snapshot is captured *at
/// enqueue time*, so the job screens the catalog as the client saw it,
/// whatever lands in between.
pub(crate) fn enqueue_screen(
    shared: &Shared,
    request: Request,
    req_id: Option<String>,
    conn: u64,
) -> Enqueued {
    // Every answer given here instead of by a worker is counted here.
    let verb = request.kind();
    let refuse = |response: Response| {
        shared.metrics.lock().count_request(verb, false);
        Enqueued::done(response)
    };
    let state = shared.state.lock();
    let kind = match state.plan(&request) {
        // ADVANCE only means anything if it mutates the catalog, so there
        // is no ephemeral fallback — reject before burning a worker on a
        // propagation that could never commit.
        Ok(Effect::Screen(kind @ ScreenKind::Advance { .. })) => match state.degraded_rejection() {
            Some(rejection) => return refuse(rejection),
            None => kind,
        },
        Ok(Effect::Screen(kind)) => kind,
        Ok(_) => unreachable!("only screening verbs are enqueued"),
        Err(refusal) => return refuse(Response::error(refusal.to_string())),
    };
    drop(state);
    let (seq, token) = match shared.registry.register(req_id.as_deref()) {
        Ok(registered) => registered,
        Err(err) => return refuse(Response::error(err.to_string())),
    };
    let capture_started = Instant::now();
    let job = shared.state.lock().capture_screen_job(kind);
    shared
        .metrics
        .lock()
        .record_snapshot_build(capture_started.elapsed());
    let task = ScreenTask {
        request,
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
            shared.metrics.lock().note_queue_depth(depth);
            Enqueued::Queued
        }
        Err(refused) => {
            shared.queued.fetch_sub(1, Ordering::Relaxed);
            shared.registry.unregister(seq);
            refuse(Response::rejected(match refused {
                TrySendError::Full(_) => "server busy: screening queue is full, retry later",
                TrySendError::Disconnected(_) => "server is shutting down",
            }))
        }
    }
}

/// Commit one finished screening job with the same plan → log → apply →
/// checkpoint steps as [`ServiceState::handle`], through the state's own
/// log gate and checkpoint: the adoption decision is made once, under the
/// state lock, logged only if it is `Adopt`, and then carried out as
/// decided — so a logged record always corresponds to a real commit.
/// When the record cannot be logged, full/delta screens are still
/// answered from the completed computation — marked `ephemeral` and *not*
/// adopted, so the served result never diverges from the replayable
/// history — while ADVANCE (which must mutate the catalog to mean
/// anything) is rejected outright.
pub(crate) fn commit_with_wal(
    shared: &Shared,
    request: &Request,
    state: &mut ServiceState,
    job: &ScreenJob,
    output: ScreenOutput,
) -> Response {
    let decision = state.decide_commit(job);
    if decision == CommitDecision::Adopt {
        if let Some(rejection) = state.log(request) {
            return match output {
                ScreenOutput::Screen(Screened { report, pairs, .. }) => {
                    let mut summary = ScreenSummary::from_report(&report);
                    summary.epoch = job.epoch();
                    summary.ephemeral = true;
                    // Ephemeral results are served but never adopted; push
                    // them to subscribers too, tagged, as long as the
                    // dense→external translation is still exact (degraded
                    // mode rejects mutations, so the epoch normally holds).
                    if state.catalog().epoch() == job.epoch() {
                        let msgs =
                            shared
                                .subs
                                .publish(&pairs, state.catalog().ids(), job.epoch(), true);
                        shared.io.push_events(msgs);
                    }
                    finish_record(shared, request, state, Response::with_screen(summary))
                }
                ScreenOutput::Advance { .. } => {
                    shared.metrics.lock().count_request(request.kind(), false);
                    rejection
                }
            };
        }
    }
    // Sharded screens carry per-shard extraction stats; fold them into the
    // registry before the commit consumes the output. Recorded even for
    // stale results — the extraction work happened either way.
    if let ScreenOutput::Screen(Screened {
        shards: Some(stats),
        ran,
        ..
    }) = &output
    {
        shared
            .metrics
            .lock()
            .record_shard_screen(*ran == ScreenRun::Delta, stats);
    }
    let response = state.apply_commit(job, output, decision);
    if decision == CommitDecision::Adopt {
        state.checkpoint_if_due();
    }
    finish_record(shared, request, state, response)
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
/// with the same "worker unavailable" error the old blocking reply
/// channel produced when its sender was dropped, and counts it.
struct Reply<'a> {
    shared: &'a Shared,
    verb: &'static str,
    conn: u64,
    req_id: Option<String>,
    sent: bool,
}

impl Reply<'_> {
    fn send(mut self, mut response: Response) {
        response.req_id = self.req_id.take();
        self.shared.io.respond(self.conn, &response);
        self.sent = true;
    }
}

impl Drop for Reply<'_> {
    fn drop(&mut self) {
        if !self.sent {
            self.shared.metrics.lock().count_request(self.verb, false);
            let mut response = Response::error("screening worker unavailable, retry");
            response.req_id = self.req_id.take();
            self.shared.io.respond(self.conn, &response);
        }
    }
}

/// One screening worker: drains jobs, runs each against its captured
/// snapshot (lock-free), commits the result under the state lock, and
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
                    request,
                    job,
                    conn,
                    req_id,
                    token,
                    seq,
                } = *task;
                let reply = Reply {
                    shared,
                    verb: request.kind(),
                    conn,
                    req_id,
                    sent: false,
                };
                if shared.faults.take_kill_worker() {
                    // Outside the guard: the thread dies and the supervisor
                    // must respawn it. Unregister first so the req_id is
                    // not blocked forever; `reply` unwinds into the
                    // "unavailable" answer.
                    shared.registry.unregister(seq);
                    panic!("fault injection: kill worker");
                }
                if token.is_cancelled() {
                    // Cancelled while still queued: never ran.
                    shared.registry.unregister(seq);
                    let mut metrics = shared.metrics.lock();
                    metrics.note_cancelled();
                    metrics.count_request(request.kind(), false);
                    drop(metrics);
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
                        commit_with_wal(shared, &request, state, &job, output)
                    }
                    Ok(Err(_cancelled)) => {
                        let mut metrics = shared.metrics.lock();
                        metrics.note_cancelled();
                        metrics.count_request(request.kind(), false);
                        Response::error("cancelled mid-screen at a phase boundary")
                    }
                    Err(payload) => {
                        shared.metrics.lock().count_request(request.kind(), false);
                        Response::error(format!("screening panicked: {}", panic_message(&*payload)))
                    }
                };
                shared
                    .metrics
                    .lock()
                    .record_worker_job(worker, started.elapsed());
                shared.registry.unregister(seq);
                reply.send(response);
            }
            Job::Stop => break,
        }
    }
}

/// Spawn worker `index` under a supervisor that respawns it if it ever
/// dies from an un-caught panic (graceful `Job::Stop` exits both).
pub(crate) fn spawn_supervised_worker(
    shared: Arc<Shared>,
    jobs: Arc<Mutex<Receiver<Job>>>,
    index: usize,
) -> Result<JoinHandle<()>, ServiceError> {
    thread::Builder::new()
        .name(format!("kessler-screen-supervisor-{index}"))
        .spawn(move || loop {
            let worker_shared = Arc::clone(&shared);
            let worker_jobs = Arc::clone(&jobs);
            let worker = match thread::Builder::new()
                .name(format!("kessler-screen-{index}"))
                .spawn(move || {
                    worker_loop(&worker_shared, &worker_jobs, &format!("worker-{index}"))
                }) {
                Ok(handle) => handle,
                Err(err) => {
                    eprintln!("kessler-service: could not respawn screening worker: {err}");
                    return;
                }
            };
            match worker.join() {
                Ok(()) => return,
                Err(_) if shared.shutdown.load(Ordering::SeqCst) => return,
                Err(_) => {
                    shared.metrics.lock().note_respawn();
                    eprintln!("kessler-service: screening worker died; respawning");
                }
            }
        })
        .map_err(|e| ServiceError::Spawn {
            what: "screening supervisor",
            source: e,
        })
}

/// Periodically log the one-line metrics digest to stderr. Sleeps in
/// short steps so the thread notices shutdown within ~250 ms instead of
/// lingering a full interval; failure to spawn just disables the log. The
/// handle is joined at shutdown so the daemon exits with no stray threads.
pub(crate) fn spawn_metrics_reporter(
    shared: Arc<Shared>,
    every: Duration,
) -> Option<JoinHandle<()>> {
    let spawned = thread::Builder::new()
        .name("kessler-metrics".into())
        .spawn(move || {
            let step = Duration::from_millis(250).min(every);
            let mut elapsed = Duration::ZERO;
            loop {
                thread::sleep(step);
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                elapsed += step;
                if elapsed >= every {
                    elapsed = Duration::ZERO;
                    eprintln!(
                        "kessler-service metrics: {}",
                        shared.metrics.lock().one_line()
                    );
                }
            }
        });
    match spawned {
        Ok(handle) => Some(handle),
        Err(err) => {
            eprintln!("kessler-service: could not spawn metrics reporter: {err}");
            None
        }
    }
}
