//! The worker pool: persistent threads that spin briefly for the next job
//! before parking.
//!
//! A screen makes thousands of short parallel calls (propagate, reset,
//! insert and query at every sampling step), each a few milliseconds or
//! less. Spawning threads per call, or parking workers the moment a call
//! ends, puts a thread start or a futex wake-up on an idle CPU in front of
//! every one of them; the spin window keeps workers hot across the
//! back-to-back calls of one screen and lets them sleep between requests.

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker polls for a new job before it parks.
const SPIN_BEFORE_PARK: Duration = Duration::from_micros(200);

/// One parallel call: `chunks` pieces of work, claimed by index.
struct Job {
    /// The caller's closure with its lifetime erased. Dereferenced only
    /// between a successful claim (`next` returned an index below `chunks`)
    /// and the matching increment of `done`; `Registry::run` does not
    /// return before `done == chunks`, so the closure outlives every call.
    body: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `body` points at a `Sync` closure, so calling it from several
// threads is sound, and the pointer is only dereferenced while the owning
// `run` call keeps the closure alive (see the field comment). Every other
// field is `Send + Sync` by itself.
unsafe impl Send for Job {}
// SAFETY: as above.
unsafe impl Sync for Job {}

impl Job {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.chunks
    }

    /// Claims and runs chunks until none are left to claim.
    fn work(&self) {
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.chunks {
                return;
            }
            // SAFETY: the claim succeeded, so the caller is still blocked
            // in `run` waiting for this chunk's `done` increment below.
            let body = unsafe { &*self.body };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(index))) {
                self.panic
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
            }
            // Release: publishes this chunk's writes to the caller's
            // Acquire load in `run`.
            self.done.fetch_add(1, Ordering::Release);
        }
    }
}

pub(crate) struct Registry {
    /// Workers plus the calling thread.
    threads: usize,
    /// Jobs that may still have unclaimed chunks.
    jobs: Mutex<Vec<Arc<Job>>>,
    /// Length of `jobs`, readable without the lock. SeqCst pairs with
    /// `sleepers` so a worker going to sleep and a caller publishing a job
    /// cannot miss each other (each writes its own counter, then reads the
    /// other's).
    published: AtomicUsize,
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    terminate: AtomicBool,
}

impl Registry {
    fn new(threads: usize) -> Registry {
        Registry {
            threads: threads.max(1),
            jobs: Mutex::new(Vec::new()),
            published: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
            terminate: AtomicBool::new(false),
        }
    }

    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    fn claimable_job(&self) -> Option<Arc<Job>> {
        if self.published.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        // Newest first: a nested call's job finishes before the outer one
        // can, so helping it unblocks the most.
        jobs.iter().rev().find(|j| j.has_unclaimed()).cloned()
    }

    /// Runs `body(0..chunks)` across the pool; returns when every chunk has
    /// finished. Re-raises the first panic a chunk raised.
    pub(crate) fn run(&self, chunks: usize, body: &(dyn Fn(usize) + Sync)) {
        if chunks <= 1 || self.threads == 1 {
            (0..chunks).for_each(body);
            return;
        }
        // SAFETY (lifetime erasure): see `Job::body`. This function waits
        // for `done == chunks` on every path before returning.
        let body: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
        };
        let job = Arc::new(Job {
            body,
            chunks,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&job));
        self.published.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders this notify after the sleeper's wait.
            let _guard = self
                .sleep_lock
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.wake.notify_all();
        }

        job.work();

        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|j| !Arc::ptr_eq(j, &job));
        self.published.fetch_sub(1, Ordering::SeqCst);

        // Chunks claimed by other threads are being executed right now;
        // nothing is left to help with, so wait for them.
        let mut spins = 0u32;
        while job.done.load(Ordering::Acquire) < chunks {
            spins += 1;
            if spins.is_multiple_of(128) {
                // The other thread may have lost its CPU to this one.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let payload = job
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    fn worker_loop(self: &Arc<Registry>) {
        CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(self)));
        'outer: loop {
            if let Some(job) = self.claimable_job() {
                job.work();
                continue;
            }
            let idle_since = Instant::now();
            let mut polls = 0u32;
            loop {
                if self.terminate.load(Ordering::Acquire) {
                    return;
                }
                if self.published.load(Ordering::SeqCst) > 0 {
                    if let Some(job) = self.claimable_job() {
                        job.work();
                        continue 'outer;
                    }
                }
                polls += 1;
                if polls.is_multiple_of(32) && idle_since.elapsed() >= SPIN_BEFORE_PARK {
                    break;
                }
                std::hint::spin_loop();
            }
            let mut guard = self
                .sleep_lock
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            while self.published.load(Ordering::SeqCst) == 0
                && !self.terminate.load(Ordering::Acquire)
            {
                guard = self
                    .wake
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn spawn_workers(self: &Arc<Registry>, name: &str) -> std::io::Result<Vec<JoinHandle<()>>> {
        (1..self.threads)
            .map(|i| {
                let registry = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || registry.worker_loop())
            })
            .collect()
    }

    fn shut_down(&self, workers: Vec<JoinHandle<()>>) {
        self.terminate.store(true, Ordering::Release);
        {
            let _guard = self
                .sleep_lock
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.wake.notify_all();
        }
        for worker in workers {
            // A worker only panics if the pool itself is broken; chunk
            // panics are caught and handed to the caller.
            let _ = worker.join();
        }
    }
}

thread_local! {
    /// The pool parallel calls on this thread go to: set for a pool's own
    /// workers and inside `ThreadPool::install`; otherwise the global pool.
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

fn global_registry() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let registry = Arc::new(Registry::new(threads));
        // The global pool lives as long as the process; its workers are
        // never joined. If the OS refuses a thread the pool simply has
        // fewer helpers: callers always make progress on their own.
        let _ = registry.spawn_workers("rayon-global");
        registry
    })
}

pub(crate) fn current_registry() -> Arc<Registry> {
    CURRENT
        .with(|c| c.borrow().clone())
        .unwrap_or_else(|| Arc::clone(global_registry()))
}

/// Number of threads parallel calls made from this thread are spread over.
pub fn current_num_threads() -> usize {
    current_registry().threads()
}

#[derive(Debug)]
pub struct ThreadPoolBuildError(std::io::Error);

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "could not spawn pool threads: {}", self.0)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// `0` means one thread per available CPU, as in rayon.
    pub fn num_threads(mut self, num_threads: usize) -> ThreadPoolBuilder {
        self.num_threads = num_threads;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let registry = Arc::new(Registry::new(threads));
        match registry.spawn_workers("rayon-pool") {
            Ok(workers) => Ok(ThreadPool { registry, workers }),
            Err(e) => {
                // `collect` stopped at the first failure and dropped the
                // handles of the workers already running; tell them to exit.
                registry.shut_down(Vec::new());
                Err(ThreadPoolBuildError(e))
            }
        }
    }
}

/// A pool of `num_threads` threads: `num_threads - 1` workers plus whichever
/// thread calls [`ThreadPool::install`].
pub struct ThreadPool {
    registry: Arc<Registry>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Runs `op` on the calling thread with this pool as the target of
    /// every parallel call it makes.
    pub fn install<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        struct Restore(Option<Arc<Registry>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let previous = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&self.registry)));
        let _restore = Restore(previous);
        op()
    }

    pub fn current_num_threads(&self) -> usize {
        self.registry.threads()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.shut_down(std::mem::take(&mut self.workers));
    }
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.registry.threads())
            .finish()
    }
}
