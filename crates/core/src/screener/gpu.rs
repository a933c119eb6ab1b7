//! The gpusim screener: either stage on the GPU execution simulator.
//!
//! The same phases as the CPU screener, expressed as kernels on
//! [`kessler_gpusim::Device`] — the CUDA substitution of DESIGN.md §3:
//!
//! * `propagate_insert` — one thread per satellite: solve Kepler's
//!   equation from the precomputed constants (resident in device memory as
//!   the paper's `a_k` allocation), insert into the lock-free grid.
//! * `conjunction_detect` — one thread per occupied cell: neighbour scan,
//!   CAS insertion into the conjunction pair set.
//! * `coplanarity_filters` (hybrid stage only) — one thread per unique
//!   pair: the classical filter chain.
//! * `refine_pca_tca` — one thread per candidate occurrence (grid stage)
//!   or unique pair (hybrid stage): Brent search.
//!
//! The first two are this file's extraction backend; the last two are the
//! shared [`Stage::refine`] run through a device [`Executor`]. The grid
//! hash set and the conjunction map are charged against the device-memory
//! budget, so a device that is too small fails loudly the way an actual
//! CUDA allocation would.

use crate::cancel::Cancelled;
use crate::config::{ScreeningConfig, Variant};
use crate::conjunction::ScreeningReport;
use crate::planner::PlannerReport;
use crate::screener::stage::{Executor, Stage};
use crate::screener::{run_screen, Outcome, Screener};
use crate::timing::{PhaseTimer, PhaseTimings};
use kessler_gpusim::{Device, DeviceBuffer, LaunchConfig};
use kessler_grid::grid::NeighborScan;
use kessler_grid::pairset::{CandidatePair, PairSet};
use kessler_grid::SpatialGrid;
use kessler_orbits::{ConstantsView, ContourSolver, KeplerElements, PropagationConstants};

/// A device with the satellite constants resident: one
/// [`PropagationConstants`] record per satellite (the `a_k` upload).
struct Resident<'a> {
    device: &'a Device,
    constants: DeviceBuffer<PropagationConstants>,
}

impl Executor for Resident<'_> {
    fn columns(&self) -> ConstantsView<'_> {
        ConstantsView::new(self.constants.as_slice())
    }

    /// One kernel launch, one thread per item.
    fn flat_map<T, I, F>(&self, kernel: &str, n: usize, f: F) -> Result<Vec<T>, Cancelled>
    where
        T: Send,
        I: IntoIterator<Item = T> + Send,
        F: Fn(usize) -> I + Send + Sync,
    {
        let per_thread = self
            .device
            .launch_map(kernel, LaunchConfig::for_elements(n), |tid| f(tid.global));
        Ok(per_thread.into_iter().flatten().collect())
    }
}

/// Device-side grid phase: the candidate entries of every sampling step.
fn device_grid_phase(
    on: &Resident<'_>,
    planner: &PlannerReport,
    scan: NeighborScan,
    solver: &ContourSolver,
    timings: &mut PhaseTimings,
) -> Vec<CandidatePair> {
    let (device, n) = (on.device, on.constants.len());
    // Device allocations for the grid structures (charged to the budget;
    // the actual data structures live host-side, shadowed byte-for-byte).
    let grid = SpatialGrid::new(n, planner.cell_size_km);
    let _grid_shadow = DeviceBuffer::<u8>::alloc(device, grid.memory_bytes())
        .expect("device memory exhausted by the grid hash set");
    let pairs = PairSet::with_capacity(planner.pair_capacity);
    let _pairs_shadow = DeviceBuffer::<u8>::alloc(device, pairs.memory_bytes())
        .expect("device memory exhausted by the conjunction map");

    for step in 0..planner.total_steps {
        let t = step as f64 * planner.seconds_per_sample;
        {
            let _timer = PhaseTimer::start(&mut timings.insertion);
            if step > 0 {
                grid.reset();
            }
            // Each thread reads its satellite's record of the constants.
            let cols = on.columns();
            device.launch("propagate_insert", LaunchConfig::for_elements(n), |tid| {
                let pos = cols.position(tid.global, t, solver);
                grid.insert(tid.global as u32, pos)
                    .expect("grid sized at 2n slots cannot fill up");
            });
        }
        {
            let _timer = PhaseTimer::start(&mut timings.pair_extraction);
            let slots = grid.occupied_slots();
            device.launch(
                "conjunction_detect",
                LaunchConfig::for_elements(slots.len()),
                |tid| {
                    grid.collect_pairs_for_slot(slots[tid.global], step, scan, &pairs);
                },
            );
            assert_eq!(
                pairs.overflow_count(),
                0,
                "conjunction map overflow on device: the Extra-P estimate was too small"
            );
        }
    }
    pairs.drain_to_vec()
}

/// Grid extraction and refinement by `stage` on one simulated device.
pub struct GpuScreener {
    stage: Stage,
    device: Device,
}

impl GpuScreener {
    /// The grid variant on one RTX-3090-sized device. Panics on an invalid
    /// configuration.
    pub fn grid(config: ScreeningConfig) -> GpuScreener {
        GpuScreener::new(Stage::valid(Variant::Grid, config))
    }

    /// The hybrid variant on one RTX-3090-sized device. Panics on an
    /// invalid configuration.
    pub fn hybrid(config: ScreeningConfig) -> GpuScreener {
        GpuScreener::new(Stage::valid(Variant::Hybrid, config))
    }

    fn new(stage: Stage) -> GpuScreener {
        GpuScreener {
            stage,
            device: Device::rtx3090_like(),
        }
    }
}

impl Screener for GpuScreener {
    fn screen(&self, population: &[KeplerElements]) -> ScreeningReport {
        let stage = &self.stage;
        let config = stage.config();
        let n = population.len();
        let device = &self.device;
        let planner = stage.plan_within(n, device.memory_budget());
        run_screen(
            self.label(),
            config.threads,
            n,
            config,
            planner,
            |planner, timings| {
                // H→D: the satellite constants become resident on the device.
                device.reset_metrics();
                let records: Vec<PropagationConstants> = population
                    .iter()
                    .map(PropagationConstants::from_elements)
                    .collect();
                let constants = DeviceBuffer::from_host(device, &records)
                    .expect("device memory exhausted by satellite data");
                let on = Resident { device, constants };
                let entries =
                    device_grid_phase(&on, planner, config.neighbor_scan, stage.solver(), timings);
                let candidate_entries = entries.len();
                let refined = stage.refine(&on, population, entries, planner, timings)?;
                Ok(Outcome {
                    candidate_entries,
                    refined,
                    device_metrics: Some(device.metrics()),
                })
            },
        )
        .expect("a gpusim screen takes no cancel token")
    }

    fn label(&self) -> &str {
        match self.stage.variant() {
            Variant::Hybrid => "hybrid-gpusim",
            _ => "grid-gpusim",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crossing_pair_population() -> Vec<KeplerElements> {
        vec![
            KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
            KeplerElements::new(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.0).unwrap(),
        ]
    }

    #[test]
    fn gpu_grid_matches_cpu_grid() {
        use crate::screener::cpu::GridScreener;
        let pop = crossing_pair_population();
        let config = ScreeningConfig::grid_defaults(2.0, 600.0);
        let cpu = GridScreener::new(config).screen(&pop);
        let gpu = GpuScreener::grid(config).screen(&pop);
        assert_eq!(cpu.conjunction_count(), gpu.conjunction_count());
        for (a, b) in cpu.conjunctions.iter().zip(&gpu.conjunctions) {
            assert_eq!(a.pair(), b.pair());
            assert!((a.tca - b.tca).abs() < 1e-6);
            assert!((a.pca_km - b.pca_km).abs() < 1e-9);
        }
    }

    #[test]
    fn gpu_hybrid_matches_cpu_hybrid() {
        use crate::screener::cpu::HybridScreener;
        let pop = crossing_pair_population();
        let config = ScreeningConfig::hybrid_defaults(2.0, 600.0);
        let cpu = HybridScreener::new(config).screen(&pop);
        let gpu = GpuScreener::hybrid(config).screen(&pop);
        assert_eq!(cpu.conjunction_count(), gpu.conjunction_count());
    }

    #[test]
    fn device_metrics_are_reported() {
        let config = ScreeningConfig::grid_defaults(2.0, 60.0);
        let report = GpuScreener::grid(config).screen(&crossing_pair_population());
        let m = report.device_metrics.expect("gpusim must report metrics");
        assert!(m.kernel_launches > 0);
        assert!(m.bytes_h2d > 0, "constants upload must be metered");
        assert!(m.kernel_time.contains_key("propagate_insert"));
        assert!(m.kernel_time.contains_key("conjunction_detect"));
        assert!(m.kernel_time.contains_key("refine_pca_tca"));
    }

    #[test]
    fn too_small_device_fails_loudly() {
        let config = ScreeningConfig::grid_defaults(2.0, 60.0);
        let screener = GpuScreener {
            device: Device::with_memory(64),
            ..GpuScreener::grid(config)
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            screener.screen(&crossing_pair_population())
        }));
        assert!(result.is_err(), "allocation on a 64-byte device must fail");
    }
}
