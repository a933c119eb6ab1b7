//! Memory / parallelism planner (§V-B "Parameterization").
//!
//! Fixed-size hash maps need a prior size estimate, and the number of
//! sampling steps that can be processed in parallel is bounded by memory.
//! This module reproduces the paper's accounting:
//!
//! ```text
//!   p   = (m − a_s − a_k − a_ch) / (a_gh + a_l)      grids in parallel
//!   o   = t / s_ps                                    total samples
//!   r_c = ⌈o / p⌉                                     computation rounds
//! ```
//!
//! and the Extra-P models for the conjunction hash map:
//!
//! ```text
//!   grid:   c' = 2.32·10⁻⁹ · n² · s^(4/3) · t · d^(7/4)     (Eq. 3)
//!   hybrid: c' = 2.14·10⁻⁹ · n² · s^(5/3) · t · d           (Eq. 4)
//!   c = max(c', 10 000) · 2 · 2
//! ```
//!
//! For the hybrid variant, `s_ps` is automatically reduced until the
//! parallelisation factor reaches ≈ 512 (one CUDA block of the paper's
//! conjunction-detection kernel) or memory admits no further improvement.

use crate::config::{ScreeningConfig, Variant};
use serde::{Deserialize, Serialize};

/// Per-slot byte cost of the conjunction hash map (paper: 16 B).
pub const CONJUNCTION_SLOT_BYTES: usize = 16;
/// Grid hash-map slot: 8 B key + 4 B list head.
pub const GRID_SLOT_BYTES: usize = 12;
/// Linked-list arena entry: one u32 next pointer.
pub const LIST_ENTRY_BYTES: usize = 4;
/// Satellite record (six f64 elements).
pub const SATELLITE_BYTES: usize = 48;
/// Precomputed propagation constants per satellite: one
/// `PropagationConstants` record.
pub const KEPLER_DATA_BYTES: usize = 88;
/// Floor of the conjunction-map element estimate.
pub const MIN_CONJUNCTION_ESTIMATE: f64 = 10_000.0;
/// Target parallelisation factor of the hybrid auto-adjustment.
pub const TARGET_PARALLEL_FACTOR: usize = 512;

/// The memory model, parameterised by variant.
#[derive(Debug, Clone, Copy)]
pub struct MemoryModel {
    pub variant: Variant,
}

/// Planner output.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PlannerReport {
    /// Variant the plan was produced for.
    pub variant: Variant,
    /// Population size.
    pub n: usize,
    /// Possibly-adjusted seconds per sample.
    pub seconds_per_sample: f64,
    /// Whether the hybrid auto-adjustment changed `s_ps`.
    pub sps_adjusted: bool,
    /// Cell size from Eq. 1 at the adjusted `s_ps`, km.
    pub cell_size_km: f64,
    /// Extra-P element estimate `c'`.
    pub estimated_conjunctions: f64,
    /// Conjunction-map slot count `c` after the paper's double-doubling.
    pub pair_capacity: usize,
    /// Fixed allocations in bytes.
    pub bytes_satellites: usize,
    pub bytes_kepler: usize,
    pub bytes_conjunction_map: usize,
    /// Per-grid allocation in bytes.
    pub bytes_per_grid: usize,
    /// Grids processable in parallel (`p`), ≥ 1.
    pub parallel_factor: usize,
    /// Total sampling steps (`o`).
    pub total_steps: u32,
    /// Computation rounds (`r_c`).
    pub rounds: u32,
}

impl MemoryModel {
    pub fn new(variant: Variant) -> MemoryModel {
        MemoryModel { variant }
    }

    /// Extra-P conjunction estimate `c'` for `n` satellites at the given
    /// parameters (Eq. 3 / Eq. 4).
    pub fn estimated_conjunctions(
        &self,
        n: usize,
        seconds_per_sample: f64,
        span_seconds: f64,
        threshold_km: f64,
    ) -> f64 {
        let n = n as f64;
        match self.variant {
            Variant::Grid => {
                2.32e-9
                    * n
                    * n
                    * seconds_per_sample.powf(4.0 / 3.0)
                    * span_seconds
                    * threshold_km.powf(7.0 / 4.0)
            }
            Variant::Hybrid | Variant::Legacy => {
                2.14e-9 * n * n * seconds_per_sample.powf(5.0 / 3.0) * span_seconds * threshold_km
            }
        }
    }

    /// Conjunction-map slot count: `max(c', 10 000) · 2 · 2`.
    pub fn pair_capacity(&self, estimated: f64) -> usize {
        (estimated.max(MIN_CONJUNCTION_ESTIMATE) * 4.0) as usize
    }

    /// Produce the full plan, applying the hybrid `s_ps` auto-reduction.
    pub fn plan(&self, n: usize, config: &ScreeningConfig) -> PlannerReport {
        let mut sps = config.seconds_per_sample;
        let mut report = self.plan_at(n, config, sps);

        if matches!(self.variant, Variant::Hybrid) {
            // "We automatically reduce the seconds per sample … until a
            // parallelization factor p ≈ 512 is obtained."
            while report.parallel_factor < TARGET_PARALLEL_FACTOR && sps > 1.0 {
                sps = (sps - 1.0).max(1.0);
                report = self.plan_at(n, config, sps);
                report.sps_adjusted = true;
            }
        }
        report
    }

    fn plan_at(&self, n: usize, config: &ScreeningConfig, sps: f64) -> PlannerReport {
        let estimated =
            self.estimated_conjunctions(n, sps, config.span_seconds, config.threshold_km);
        let pair_capacity = self.pair_capacity(estimated);

        let bytes_satellites = n * SATELLITE_BYTES;
        let bytes_kepler = n * KEPLER_DATA_BYTES;
        let bytes_conjunction_map = pair_capacity * CONJUNCTION_SLOT_BYTES;
        // Grid hash set sized at twice the satellite count.
        let bytes_per_grid = 2 * n * GRID_SLOT_BYTES + n * LIST_ENTRY_BYTES;

        let fixed = bytes_satellites + bytes_kepler + bytes_conjunction_map;
        let free = config.memory_budget_bytes.saturating_sub(fixed);
        let parallel_factor = free.checked_div(bytes_per_grid).unwrap_or(1).max(1);

        let adjusted = ScreeningConfig {
            seconds_per_sample: sps,
            ..*config
        };
        let total_steps = adjusted.total_steps();
        let rounds = total_steps
            .div_ceil(parallel_factor.min(u32::MAX as usize) as u32)
            .max(1);

        PlannerReport {
            variant: self.variant,
            n,
            seconds_per_sample: sps,
            sps_adjusted: false,
            cell_size_km: adjusted.cell_size_km(),
            estimated_conjunctions: estimated,
            pair_capacity,
            bytes_satellites,
            bytes_kepler,
            bytes_conjunction_map,
            bytes_per_grid,
            parallel_factor,
            total_steps,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_cfg() -> ScreeningConfig {
        ScreeningConfig::grid_defaults(2.0, 3_600.0)
    }

    #[test]
    fn equation_three_matches_hand_computation() {
        let m = MemoryModel::new(Variant::Grid);
        // n = 64 000, s = 1, t = 3600, d = 2.
        let c = m.estimated_conjunctions(64_000, 1.0, 3_600.0, 2.0);
        let expect = 2.32e-9 * 64_000.0f64.powi(2) * 3_600.0 * 2.0f64.powf(1.75);
        assert!((c - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn equation_four_matches_hand_computation() {
        let m = MemoryModel::new(Variant::Hybrid);
        let c = m.estimated_conjunctions(64_000, 9.0, 3_600.0, 2.0);
        let expect = 2.14e-9 * 64_000.0f64.powi(2) * 9.0f64.powf(5.0 / 3.0) * 3_600.0 * 2.0;
        assert!((c - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn capacity_floor_and_double_doubling() {
        let m = MemoryModel::new(Variant::Grid);
        // Tiny estimate → floor at 10 000, ×4.
        assert_eq!(m.pair_capacity(5.0), 40_000);
        // Above the floor: c'·4.
        assert_eq!(m.pair_capacity(100_000.0), 400_000);
    }

    #[test]
    fn kepler_data_is_one_propagation_record() {
        assert_eq!(
            KEPLER_DATA_BYTES,
            std::mem::size_of::<kessler_orbits::PropagationConstants>()
        );
    }

    #[test]
    fn plan_accounts_fixed_and_per_grid_memory() {
        let m = MemoryModel::new(Variant::Grid);
        let p = m.plan(10_000, &grid_cfg());
        assert_eq!(p.bytes_satellites, 10_000 * SATELLITE_BYTES);
        assert_eq!(p.bytes_kepler, 10_000 * KEPLER_DATA_BYTES);
        assert_eq!(
            p.bytes_per_grid,
            2 * 10_000 * GRID_SLOT_BYTES + 10_000 * LIST_ENTRY_BYTES
        );
        assert!(p.parallel_factor >= 1);
        assert_eq!(p.total_steps, 3_600);
        assert_eq!(
            p.rounds,
            p.total_steps.div_ceil(p.parallel_factor as u32).max(1)
        );
    }

    #[test]
    fn small_budget_forces_many_rounds() {
        let m = MemoryModel::new(Variant::Grid);
        let mut cfg = grid_cfg();
        // Budget barely above the fixed allocations: p collapses to 1.
        let fixed = 10_000 * (SATELLITE_BYTES + KEPLER_DATA_BYTES) + 40_000 * 16;
        cfg.memory_budget_bytes = fixed + 3 * 10_000 * GRID_SLOT_BYTES;
        let p = m.plan(10_000, &cfg);
        assert!(p.parallel_factor <= 2);
        assert!(p.rounds >= p.total_steps / 2);
    }

    #[test]
    fn hybrid_auto_reduces_sps_under_memory_pressure() {
        let m = MemoryModel::new(Variant::Hybrid);
        let mut cfg = ScreeningConfig::hybrid_defaults(2.0, 3_600.0);
        // Large population + small budget → Eq. 4 map dominates and p < 512
        // until s_ps drops (the paper's 512 000-satellite situation).
        let n = 512_000;
        cfg.memory_budget_bytes = 6 * 1024 * 1024 * 1024;
        let p = m.plan(n, &cfg);
        assert!(p.sps_adjusted, "expected automatic s_ps reduction");
        assert!(p.seconds_per_sample < 9.0);
        // Reducing s shrinks the estimate (s^(5/3) factor).
        let est_at_9 = m.estimated_conjunctions(n, 9.0, 3_600.0, 2.0);
        assert!(p.estimated_conjunctions < est_at_9);
    }

    #[test]
    fn hybrid_with_ample_memory_keeps_sps() {
        let m = MemoryModel::new(Variant::Hybrid);
        let cfg = ScreeningConfig::hybrid_defaults(2.0, 3_600.0);
        let p = m.plan(2_000, &cfg);
        assert!(!p.sps_adjusted);
        assert_eq!(p.seconds_per_sample, 9.0);
        assert!(p.parallel_factor >= TARGET_PARALLEL_FACTOR);
    }

    #[test]
    fn grid_variant_never_adjusts_sps() {
        let m = MemoryModel::new(Variant::Grid);
        let mut cfg = grid_cfg();
        cfg.memory_budget_bytes = 64 * 1024 * 1024;
        let p = m.plan(100_000, &cfg);
        assert!(!p.sps_adjusted);
        assert_eq!(p.seconds_per_sample, 1.0);
    }

    #[test]
    fn estimates_scale_quadratically_in_population() {
        let m = MemoryModel::new(Variant::Grid);
        let c1 = m.estimated_conjunctions(1_000, 1.0, 3_600.0, 2.0);
        let c2 = m.estimated_conjunctions(2_000, 1.0, 3_600.0, 2.0);
        assert!((c2 / c1 - 4.0).abs() < 1e-9);
    }
}
