//! The execution layer: snapshot-isolated screening jobs.
//!
//! Screening requests are *captured* into a [`ScreenJob`] under the state
//! lock by `ServiceState::begin` — an immutable [`CatalogSnapshot`] plus
//! the warm conjunction set and change list as of that epoch — then *run*
//! lock-free via [`run_screen_job`], and finally *committed* back under
//! the lock by `ServiceState::commit`, latest-epoch-wins. A worker thread
//! and `ServiceState::handle` call the same three functions; `handle`
//! only keeps the lock across the run, which is what makes a pool of
//! concurrent workers observationally equivalent to one serialized worker
//! at matching epochs. Adopted
//! commits are also the publication point for `SUBSCRIBE` push streams:
//! the daemon layer diffs the maintained set against its last published
//! baseline right where a screen or advance lands, so subscribers see
//! exactly the committed transitions, in commit order.
//!
//! The maintained set travels as one list sorted by pair then TCA — a
//! screen report's own order — from the captured warm set through a
//! finished screen (whose report *is* the set it commits) or advance to
//! the commit and the push.
//!
//! Cancellation rides along as a [`CancelToken`] checked at phase
//! boundaries inside the job functions; the [`CancelRegistry`] maps live
//! client-supplied request ids to tokens so a `CANCEL <id>` from any
//! connection can trip a job that another connection enqueued.

use crate::catalog::{elements_at, CatalogSnapshot};
use crate::delta::{advance_window_job, screen_or_full, AdvanceOutcome, ScreenRun};
use crate::error::ServiceError;
use crate::proto::{LastScreen, Request};
use crate::sync::Mutex;
use kessler_core::cancel::{CancelToken, Cancelled};
use kessler_core::conjunction::{Conjunction, ScreeningReport};
use kessler_core::CpuScreener;
use std::collections::HashMap;
use std::sync::Arc;

/// What kind of screening work a job carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScreenKind {
    /// Cold full screen of the whole snapshot.
    Full,
    /// Delta re-screen of the changed satellites (cold fallback: full).
    Delta,
    /// Slide the window forward by `dt` seconds.
    Advance { dt: f64 },
}

impl ScreenKind {
    /// The request this kind of job serves — what its adoption logs.
    pub(crate) fn request(self) -> Request {
        match self {
            ScreenKind::Full => Request::Screen,
            ScreenKind::Delta => Request::Delta,
            ScreenKind::Advance { dt } => Request::Advance { dt },
        }
    }
}

/// A screening job captured at one catalog epoch. Everything a worker
/// needs, immutable; running it never touches live state.
pub struct ScreenJob {
    pub kind: ScreenKind,
    /// Catalog state as of the capture epoch.
    pub snapshot: CatalogSnapshot,
    /// Dense indices changed since the last adopted screen, as captured.
    pub changed: Vec<u32>,
    /// Warm maintained set at capture, sorted by pair then TCA; `None`
    /// while the engine was cold.
    pub warm: Option<Arc<Vec<Conjunction>>>,
    /// The engine's screener (variant and validated config).
    pub screener: CpuScreener,
}

impl ScreenJob {
    /// The catalog epoch this job's snapshot was captured at.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch
    }
}

/// A completed full or delta screen: the report to answer with, whose
/// `conjunctions` (sorted by pair then TCA) is the set to adopt.
pub struct Screened {
    /// Boxed to keep [`ScreenOutput`] small enough to pass by value
    /// through the worker channel.
    pub report: Box<ScreeningReport>,
    /// Which screen ran: [`ScreenRun::Delta`], or [`ScreenRun::Full`]
    /// for SCREEN and for a DELTA on a cold engine.
    pub ran: ScreenRun,
}

/// What a completed job hands back for commit.
pub enum ScreenOutput {
    Screen(Screened),
    /// A window advance: the slid set (sorted by pair then TCA),
    /// retire/discover counts, the tail screen's info, and which
    /// pre-screen was folded in.
    Advance {
        conjunctions: Vec<Conjunction>,
        outcome: AdvanceOutcome,
        tail: LastScreen,
        dt: f64,
        fold: ScreenRun,
    },
}

/// Run a captured job to completion (or to the next phase boundary after
/// `cancel` trips). Pure: reads only the job, mutates nothing shared.
pub fn run_screen_job(
    job: &ScreenJob,
    cancel: Option<&CancelToken>,
) -> Result<ScreenOutput, Cancelled> {
    // A delta against the captured warm set, or a full screen without one.
    let warm = job.warm.as_deref().map(Vec::as_slice);
    let screen = |warm: Option<&[Conjunction]>| {
        screen_or_full(
            &job.screener,
            &job.snapshot.elements,
            &job.changed,
            warm,
            cancel,
        )
    };
    let dt = match job.kind {
        ScreenKind::Full => return Ok(ScreenOutput::Screen(screen(None)?)),
        ScreenKind::Delta => return Ok(ScreenOutput::Screen(screen(warm)?)),
        ScreenKind::Advance { dt } => dt,
    };
    // Bring the maintained set current at the captured epoch before
    // sliding: nothing to do when warm with no pending changes, otherwise
    // the screen a DELTA would run.
    let (set, fold) = match warm {
        Some(warm) if job.changed.is_empty() => (warm.to_vec(), ScreenRun::None),
        _ => {
            let Screened { report, ran } = screen(warm)?;
            (report.conjunctions, ran)
        }
    };

    let snapshot = &job.snapshot;
    let advanced = elements_at(
        &snapshot.elements,
        &snapshot.base_elements,
        snapshot.time + dt,
    );
    let (conjunctions, outcome, tail) =
        advance_window_job(&job.screener, &advanced, dt, set, cancel)?;
    Ok(ScreenOutput::Advance {
        conjunctions,
        outcome,
        tail,
        dt,
        fold,
    })
}

struct CancelEntry {
    req_id: Option<String>,
    token: CancelToken,
}

#[derive(Default)]
struct RegistryInner {
    next_seq: u64,
    live: HashMap<u64, CancelEntry>,
    by_req_id: HashMap<String, u64>,
}

/// Tracks every queued or running screening job's cancellation token,
/// keyed by an internal sequence number and, when the client supplied one,
/// by request id — so `CANCEL <id>` from any connection reaches the job.
#[derive(Default)]
pub struct CancelRegistry {
    inner: Mutex<RegistryInner>,
}

impl CancelRegistry {
    pub fn new() -> CancelRegistry {
        CancelRegistry::default()
    }

    /// Register a job about to be enqueued; returns its sequence number
    /// and a fresh token. A `req_id` that is still live is rejected —
    /// ids must be unique among queued/running jobs so CANCEL is
    /// unambiguous.
    pub fn register(&self, req_id: Option<&str>) -> Result<(u64, CancelToken), ServiceError> {
        let mut inner = self.inner.lock();
        if let Some(id) = req_id {
            if inner.by_req_id.contains_key(id) {
                return Err(ServiceError::DuplicateRequest {
                    req_id: id.to_string(),
                });
            }
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let token = CancelToken::new();
        inner.live.insert(
            seq,
            CancelEntry {
                req_id: req_id.map(str::to_string),
                token: token.clone(),
            },
        );
        if let Some(id) = req_id {
            inner.by_req_id.insert(id.to_string(), seq);
        }
        Ok((seq, token))
    }

    /// Drop a finished (or never-enqueued) job's entry, freeing its
    /// req_id for reuse.
    pub fn unregister(&self, seq: u64) {
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.live.remove(&seq) {
            if let Some(id) = entry.req_id {
                inner.by_req_id.remove(&id);
            }
        }
    }

    /// Trip the token of the live job with this request id. `false` if no
    /// such job is queued or running.
    pub fn cancel(&self, req_id: &str) -> bool {
        let inner = self.inner.lock();
        match inner.by_req_id.get(req_id) {
            Some(seq) => {
                inner.live[seq].token.cancel();
                true
            }
            None => false,
        }
    }

    /// Trip every live token (server shutdown).
    pub fn cancel_all(&self) {
        let inner = self.inner.lock();
        for entry in inner.live.values() {
            entry.token.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::delta::DeltaEngine;
    use crate::proto::ElementsSpec;
    use crate::server::ServiceState;
    use kessler_core::ScreeningConfig;
    use kessler_population::{PopulationConfig, PopulationGenerator};

    fn warm_setup(n: usize, seed: u64) -> (Catalog, DeltaEngine, ScreeningConfig) {
        let pop = PopulationGenerator::new(PopulationConfig {
            seed,
            ..Default::default()
        })
        .generate(n);
        let mut catalog = Catalog::new();
        for (i, el) in pop.iter().enumerate() {
            catalog.add(i as u64, *el).unwrap();
        }
        let config = ScreeningConfig::grid_defaults(5.0, 120.0);
        let engine = DeltaEngine::new(config).unwrap();
        (catalog, engine, config)
    }

    fn capture(kind: ScreenKind, catalog: &Catalog, engine: &DeltaEngine) -> ScreenJob {
        ScreenJob {
            kind,
            snapshot: catalog.snapshot(),
            changed: Vec::new(),
            warm: engine.is_warm().then(|| engine.warm()),
            screener: *engine.screener(),
        }
    }

    #[test]
    fn full_job_matches_the_sync_engine() {
        let (catalog, mut engine, _) = warm_setup(120, 5);
        let job = capture(ScreenKind::Full, &catalog, &engine);
        let ScreenOutput::Screen(Screened { report, .. }) = run_screen_job(&job, None).unwrap()
        else {
            panic!("full job must yield a screen output");
        };
        let sync = engine.full_screen(catalog.elements());
        assert_eq!(report.conjunction_count(), sync.conjunction_count());
        assert_eq!(report.conjunctions, engine.conjunctions());
    }

    #[test]
    fn advance_job_matches_the_sync_path_and_reports_its_fold() {
        let (catalog, mut engine, config) = warm_setup(120, 6);
        engine.full_screen(catalog.elements());
        let dt = 30.0;
        let job = capture(ScreenKind::Advance { dt }, &catalog, &engine);
        let ScreenOutput::Advance {
            conjunctions,
            outcome,
            fold,
            ..
        } = run_screen_job(&job, None).unwrap()
        else {
            panic!("advance job must yield an advance output");
        };
        assert_eq!(fold, ScreenRun::None);

        // The synchronous path: the same catalog in a daemon state,
        // screened, then advanced through the request path.
        let mut state = ServiceState::new(config).unwrap();
        for (id, el) in catalog.elements().iter().enumerate() {
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
        let sync = state.handle(&Request::Advance { dt }).advance.unwrap();
        assert_eq!(
            outcome,
            AdvanceOutcome {
                retired: sync.retired,
                discovered: sync.discovered,
            }
        );
        assert_eq!(conjunctions, state.engine().conjunctions());
    }

    #[test]
    fn cold_advance_job_folds_a_full_screen() {
        let (catalog, engine, _) = warm_setup(60, 7);
        let job = capture(ScreenKind::Advance { dt: 10.0 }, &catalog, &engine);
        let ScreenOutput::Advance { fold, .. } = run_screen_job(&job, None).unwrap() else {
            panic!("advance job must yield an advance output");
        };
        assert_eq!(fold, ScreenRun::Full);
    }

    #[test]
    fn tripped_token_cancels_a_job() {
        let (catalog, engine, _) = warm_setup(60, 8);
        let job = capture(ScreenKind::Full, &catalog, &engine);
        let token = CancelToken::new();
        token.cancel();
        assert!(run_screen_job(&job, Some(&token)).is_err());
    }

    #[test]
    fn registry_registers_cancels_and_unregisters() {
        let registry = CancelRegistry::new();
        let (seq, token) = registry.register(Some("job-1")).unwrap();
        assert_eq!(registry.inner.lock().live.len(), 1);
        assert!(!token.is_cancelled());
        assert!(registry.cancel("job-1"));
        assert!(token.is_cancelled());
        assert!(!registry.cancel("no-such-job"));
        registry.unregister(seq);
        assert_eq!(registry.inner.lock().live.len(), 0);
        // The id is free again once the job is gone.
        registry.register(Some("job-1")).unwrap();
    }

    #[test]
    fn duplicate_live_req_ids_are_rejected() {
        let registry = CancelRegistry::new();
        registry.register(Some("dup")).unwrap();
        let err = registry.register(Some("dup")).unwrap_err();
        assert!(
            matches!(&err, ServiceError::DuplicateRequest { req_id } if req_id == "dup"),
            "{err}"
        );
        assert!(err.to_string().contains("duplicate req_id"), "{err}");
        // Anonymous jobs never collide.
        registry.register(None).unwrap();
        registry.register(None).unwrap();
    }

    #[test]
    fn cancel_all_trips_every_live_token() {
        let registry = CancelRegistry::new();
        let (_, t1) = registry.register(Some("a")).unwrap();
        let (_, t2) = registry.register(None).unwrap();
        registry.cancel_all();
        assert!(t1.is_cancelled() && t2.is_cancelled());
    }
}
