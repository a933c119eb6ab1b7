//! The screening variants.
//!
//! A screen is *extraction backend × post-extraction stage*, and each half
//! is written once: the CPU step loop
//! ([`crate::extraction::Extraction::run`], which the service's screens
//! reach through the same [`cpu::CpuScreener`]) or the gpusim kernels
//! ([`gpu`]) extract candidate entries, a [`stage::Stage`] turns them into
//! conjunctions, and `run_screen` assembles the report.
//! [`cpu::CpuScreener`] and [`gpu::GpuScreener`] are the two backends over
//! either stage; [`legacy`] brings its own refinement but shares the
//! report assembly.
//!
//! All variants implement [`Screener`] and produce the same
//! [`crate::ScreeningReport`], which is what makes the paper's accuracy
//! comparison (§V-D) a one-liner in the experiment harness.

pub mod cpu;
pub mod gpu;
pub mod legacy;
pub mod stage;

use crate::cancel::Cancelled;
use crate::config::ScreeningConfig;
use crate::conjunction::{dedup_conjunctions, Conjunction, ScreeningReport};
use crate::planner::PlannerReport;
use crate::timing::PhaseTimings;
use kessler_filters::chain::FilterStatsSnapshot;
use kessler_gpusim::DeviceMetrics;
use kessler_grid::CandidatePair;
use kessler_orbits::KeplerElements;
use std::collections::HashSet;
use std::time::Instant;

/// A conjunction-screening algorithm.
pub trait Screener {
    /// Screen `population` over the configured span. Satellite ids are the
    /// indices into the slice.
    fn screen(&self, population: &[KeplerElements]) -> ScreeningReport;

    /// Variant label used in reports and benchmark output.
    fn label(&self) -> &str;
}

/// The paper-default configuration of the variant `label` for a threshold
/// (km) and a span (s). Callers apply their overrides (`--sps`, `threads`)
/// before handing it to [`screener_for`].
pub fn default_config_for(
    label: &str,
    threshold_km: f64,
    span_seconds: f64,
) -> Result<ScreeningConfig, String> {
    match label {
        "grid" | "grid-gpusim" | "legacy" | "legacy-parallel" => {
            Ok(ScreeningConfig::grid_defaults(threshold_km, span_seconds))
        }
        "hybrid" | "hybrid-gpusim" => {
            Ok(ScreeningConfig::hybrid_defaults(threshold_km, span_seconds))
        }
        other => Err(format!("unknown variant `{other}`")),
    }
}

/// The screener of the variant `label` over `config`.
pub fn screener_for(label: &str, config: ScreeningConfig) -> Result<Box<dyn Screener>, String> {
    Ok(match label {
        "grid" => Box::new(cpu::GridScreener::new(config)),
        "hybrid" => Box::new(cpu::HybridScreener::new(config)),
        "legacy" => Box::new(legacy::LegacyScreener::new(config)),
        "legacy-parallel" => Box::new(legacy::LegacyScreener::new(config).parallel(true)),
        "grid-gpusim" => Box::new(gpu::GpuScreener::grid(config)),
        "hybrid-gpusim" => Box::new(gpu::GpuScreener::hybrid(config)),
        other => return Err(format!("unknown variant `{other}`")),
    })
}

/// Run `f` on a dedicated rayon pool of `threads` workers when requested,
/// or on the global pool otherwise. This is how the thread-scaling
/// experiment (§V-C.2) sweeps worker counts.
///
/// Pool construction can fail (thread-spawn limits, exhausted resources).
/// A long-running service must not crash on that, so the failure degrades
/// to the global pool — the screen still runs, just not on the requested
/// worker count.
pub fn run_in_pool<R: Send>(threads: Option<usize>, f: impl FnOnce() -> R + Send) -> R {
    match threads {
        Some(t) => match rayon::ThreadPoolBuilder::new().num_threads(t).build() {
            Ok(pool) => pool.install(f),
            Err(err) => {
                eprintln!(
                    "kessler: could not build a {t}-thread rayon pool ({err}); \
                     falling back to the global pool"
                );
                f()
            }
        },
        None => f(),
    }
}

/// Distinct satellite pairs among candidate entries.
pub(crate) fn distinct_pairs(entries: &[CandidatePair]) -> usize {
    entries
        .iter()
        .map(|e| (e.id_lo, e.id_hi))
        .collect::<HashSet<_>>()
        .len()
}

/// What a screen's refinement made of its candidates.
pub struct Refined {
    /// Deduplicated conjunctions, sorted by pair then TCA.
    pub conjunctions: Vec<Conjunction>,
    /// Distinct satellite pairs among the candidates.
    pub candidate_pairs: usize,
    /// Filter-chain counters, when the variant runs the chain.
    pub filter_stats: Option<FilterStatsSnapshot>,
}

impl Refined {
    /// The one place refined minima become a screen's conjunctions: TCA
    /// dedup, then — `clip_to_span` — only those inside `[0, span]`. Every
    /// variant clips except the grid stage, whose ±2-cell intervals reach
    /// past both ends of the span and whose minima there are kept (the
    /// service's window advance relies on the seam being covered).
    pub(crate) fn settle(
        found: Vec<Conjunction>,
        candidate_pairs: usize,
        filter_stats: Option<FilterStatsSnapshot>,
        config: &ScreeningConfig,
        clip_to_span: bool,
    ) -> Refined {
        let mut conjunctions = dedup_conjunctions(found, config.tca_dedup_tolerance_s);
        if clip_to_span {
            conjunctions.retain(|c| c.tca >= -1e-9 && c.tca <= config.span_seconds + 1e-9);
        }
        Refined {
            conjunctions,
            candidate_pairs,
            filter_stats,
        }
    }
}

/// What a screen's body hands to [`run_screen`] for the report.
pub(crate) struct Outcome {
    pub candidate_entries: usize,
    pub refined: Refined,
    pub device_metrics: Option<DeviceMetrics>,
}

/// Report assembly, once for every variant: run `body` on the requested
/// pool under the wall clock and wrap what it found in the report.
pub(crate) fn run_screen(
    label: &str,
    threads: Option<usize>,
    n_satellites: usize,
    config: &ScreeningConfig,
    planner: PlannerReport,
    body: impl FnOnce(&PlannerReport, &mut PhaseTimings) -> Result<Outcome, Cancelled> + Send,
) -> Result<ScreeningReport, Cancelled> {
    run_in_pool(threads, || {
        let wall = Instant::now();
        let mut timings = PhaseTimings::default();
        let outcome = body(&planner, &mut timings)?;
        timings.total = wall.elapsed();
        Ok(ScreeningReport {
            variant: label.to_string(),
            n_satellites,
            config: *config,
            conjunctions: outcome.refined.conjunctions,
            candidate_entries: outcome.candidate_entries,
            candidate_pairs: outcome.refined.candidate_pairs,
            timings,
            planner,
            filter_stats: outcome.refined.filter_stats,
            device_metrics: outcome.device_metrics,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_in_pool_respects_thread_count() {
        let inside = run_in_pool(Some(2), rayon::current_num_threads);
        assert_eq!(inside, 2);
    }

    #[test]
    fn run_in_pool_none_uses_global_pool() {
        let global = rayon::current_num_threads();
        let inside = run_in_pool(None, rayon::current_num_threads);
        assert_eq!(inside, global);
    }

    /// The labels `kessler screen --variant` accepts (the CLI's usage text
    /// is held to this list by a test of its own) and the experiment
    /// harness's ablation label.
    const LABELS: [&str; 6] = [
        "grid",
        "hybrid",
        "legacy",
        "legacy-parallel",
        "grid-gpusim",
        "hybrid-gpusim",
    ];

    #[test]
    fn every_label_constructs_and_screens_under_its_own_name() {
        // Two crossing circular orbits phased to meet 30 s into the span.
        let mean_motion = (kessler_orbits::constants::MU_EARTH / 7_000.0f64.powi(3)).sqrt();
        let m0 = (-mean_motion * 30.0).rem_euclid(std::f64::consts::TAU);
        let pop = vec![
            KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, m0).unwrap(),
            KeplerElements::new(7_000.0, 0.0, 1.2, 0.0, 0.0, m0).unwrap(),
        ];
        for label in LABELS {
            let config = default_config_for(label, 2.0, 60.0).unwrap();
            let screener = screener_for(label, config).unwrap();
            // `legacy-parallel` is the legacy screener in its ablation mode.
            let name = label.strip_suffix("-parallel").unwrap_or(label);
            assert_eq!(screener.label(), name);
            let report = screener.screen(&pop);
            assert_eq!(report.variant, name);
            assert_eq!(report.conjunction_count(), 1, "{label}");
        }
        assert!(default_config_for("warp-drive", 2.0, 60.0).is_err());
        let config = ScreeningConfig::grid_defaults(2.0, 60.0);
        assert!(screener_for("warp-drive", config).is_err());
    }

    #[test]
    fn labels_get_the_defaults_the_cli_and_harness_factories_gave_them() {
        let sps = |label: &str| {
            default_config_for(label, 2.0, 600.0)
                .unwrap()
                .seconds_per_sample
        };
        assert_eq!(sps("grid"), 1.0);
        assert_eq!(sps("grid-gpusim"), 1.0);
        assert_eq!(sps("legacy"), 1.0);
        assert_eq!(sps("legacy-parallel"), 1.0);
        assert_eq!(sps("hybrid"), 9.0);
        assert_eq!(sps("hybrid-gpusim"), 9.0);
        for label in LABELS {
            let config = default_config_for(label, 2.5, 600.0).unwrap();
            assert_eq!((config.threshold_km, config.span_seconds), (2.5, 600.0));
            assert_eq!(config.threads, None);
        }
    }
}
