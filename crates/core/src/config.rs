//! Screening configuration.

use kessler_grid::grid::NeighborScan;
use kessler_orbits::constants::LEO_SPEED;
use serde::{Deserialize, Serialize};

/// Which screening variant a configuration targets (affects defaults and
/// report labelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    Grid,
    Hybrid,
    Legacy,
}

impl Variant {
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Grid => "grid",
            Variant::Hybrid => "hybrid",
            Variant::Legacy => "legacy",
        }
    }
}

impl std::str::FromStr for Variant {
    type Err = String;

    /// Parse the lowercase labels CLI flags use.
    fn from_str(s: &str) -> Result<Variant, String> {
        match s {
            "grid" => Ok(Variant::Grid),
            "hybrid" => Ok(Variant::Hybrid),
            "legacy" => Ok(Variant::Legacy),
            other => Err(format!(
                "unknown variant `{other}` (expected grid, hybrid or legacy)"
            )),
        }
    }
}

/// Full configuration of a screening run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScreeningConfig {
    /// Screening threshold `d` in km. The paper's evaluation uses 2 km.
    pub threshold_km: f64,
    /// Seconds between samples `s_ps`. Grid default 1 s (small cells,
    /// dense sampling); hybrid default 9 s (the value the paper's
    /// auto-adjustment starts from).
    pub seconds_per_sample: f64,
    /// Screening span `t` in seconds past the common element epoch.
    pub span_seconds: f64,
    /// Neighbourhood scan strategy (half = each cell pair once).
    #[serde(skip)]
    pub neighbor_scan: NeighborScan,
    /// Worker threads; `None` uses the global rayon pool.
    pub threads: Option<usize>,
    /// Memory budget for the planner, bytes. CPU runs use host memory;
    /// gpusim runs use the device budget.
    pub memory_budget_bytes: usize,
    /// Two refined TCAs of the same pair closer than this are the same
    /// physical conjunction (dedup across overlapping step intervals), s.
    pub tca_dedup_tolerance_s: f64,
}

impl ScreeningConfig {
    /// Paper defaults for the grid-based variant.
    pub fn grid_defaults(threshold_km: f64, span_seconds: f64) -> ScreeningConfig {
        ScreeningConfig {
            threshold_km,
            seconds_per_sample: 1.0,
            span_seconds,
            neighbor_scan: NeighborScan::Half,
            threads: None,
            memory_budget_bytes: 8 * 1024 * 1024 * 1024,
            tca_dedup_tolerance_s: 0.05,
        }
    }

    /// Paper defaults for the hybrid variant (`s_ps = 9 s` before the
    /// planner's automatic reduction).
    pub fn hybrid_defaults(threshold_km: f64, span_seconds: f64) -> ScreeningConfig {
        ScreeningConfig {
            seconds_per_sample: 9.0,
            ..ScreeningConfig::grid_defaults(threshold_km, span_seconds)
        }
    }

    /// Cell size `g_c = d + 7.8 · s_ps` (Eq. 1).
    #[inline]
    pub fn cell_size_km(&self) -> f64 {
        self.threshold_km + LEO_SPEED * self.seconds_per_sample
    }

    /// Total number of sampling steps `o = t / s_ps` (§V-B), at least 1.
    #[inline]
    pub fn total_steps(&self) -> u32 {
        ((self.span_seconds / self.seconds_per_sample).ceil() as u32).max(1)
    }

    /// Sample time of step `k`.
    #[inline]
    pub fn step_time(&self, step: u32) -> f64 {
        step as f64 * self.seconds_per_sample
    }

    /// Validate the physical parameters: threshold, step and span must be
    /// positive and finite (an infinite one makes the cell size of Eq. 1
    /// infinite, which no grid can be built with).
    pub fn validate(&self) -> Result<(), String> {
        let positive = |x: f64| x > 0.0 && x.is_finite();
        if !positive(self.threshold_km) {
            return Err("threshold must be positive and finite".into());
        }
        if !positive(self.seconds_per_sample) {
            return Err("seconds per sample must be positive and finite".into());
        }
        if !positive(self.span_seconds) {
            return Err("span must be positive and finite".into());
        }
        if self.total_steps() >= kessler_grid::pairset::MAX_STEP {
            return Err(format!(
                "span/step ratio produces {} steps, exceeding the {}-step pair-key limit",
                self.total_steps(),
                kessler_grid::pairset::MAX_STEP
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_size_follows_equation_one() {
        // d = 2 km, s_ps = 1 s → 9.8 km; s_ps = 9 s → 72.2 km.
        let grid = ScreeningConfig::grid_defaults(2.0, 3600.0);
        assert!((grid.cell_size_km() - 9.8).abs() < 1e-12);
        let hybrid = ScreeningConfig::hybrid_defaults(2.0, 3600.0);
        assert!((hybrid.cell_size_km() - 72.2).abs() < 1e-12);
    }

    #[test]
    fn step_accounting() {
        let c = ScreeningConfig::grid_defaults(2.0, 100.0);
        assert_eq!(c.total_steps(), 100);
        assert_eq!(c.step_time(0), 0.0);
        assert_eq!(c.step_time(10), 10.0);
        let h = ScreeningConfig::hybrid_defaults(2.0, 100.0);
        assert_eq!(h.total_steps(), 12); // ceil(100/9)
    }

    #[test]
    fn tiny_span_still_has_one_step() {
        let c = ScreeningConfig::grid_defaults(2.0, 0.5);
        assert_eq!(c.total_steps(), 1);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let ok = ScreeningConfig::grid_defaults(2.0, 3600.0);
        assert!(ok.validate().is_ok());
        let mut bad = ok;
        bad.threshold_km = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.seconds_per_sample = -1.0;
        assert!(bad.validate().is_err());
        for x in [f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = ok;
            bad.threshold_km = x;
            assert!(bad.validate().is_err(), "threshold {x}");
            let mut bad = ok;
            bad.seconds_per_sample = x;
            assert!(bad.validate().is_err(), "seconds per sample {x}");
            let mut bad = ok;
            bad.span_seconds = x;
            assert!(bad.validate().is_err(), "span {x}");
        }
        let mut bad = ok;
        bad.seconds_per_sample = 1e-4;
        bad.span_seconds = 1e6;
        assert!(
            bad.validate().is_err(),
            "step-count overflow must be caught"
        );
    }

    #[test]
    fn variant_labels() {
        assert_eq!(Variant::Grid.label(), "grid");
        assert_eq!(Variant::Hybrid.label(), "hybrid");
        assert_eq!(Variant::Legacy.label(), "legacy");
    }

    #[test]
    fn variant_parses_its_own_labels() {
        for v in [Variant::Grid, Variant::Hybrid, Variant::Legacy] {
            assert_eq!(v.label().parse::<Variant>(), Ok(v));
        }
        assert!("cube".parse::<Variant>().is_err());
        assert!("sieve".parse::<Variant>().is_err(), "the sieve is retired");
        assert!("Grid".parse::<Variant>().is_err(), "labels are lowercase");
    }
}
