//! Multi-device screening — the paper's §VI future work: "we have noted
//! that memory usage is the current limiting factor — using multiple GPUs
//! would solve this problem to some degree."
//!
//! Splits the sampling steps across several simulated devices, shows the
//! per-device memory pressure dropping, and verifies the merged result
//! matches a single-device run.
//!
//! ```text
//! cargo run --release --example multi_gpu [-- <n> <devices>]
//! ```

use kessler::gpusim::Device;
use kessler::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map(|a| a.parse().unwrap()).unwrap_or(2_000);
    let device_count: usize = args.next().map(|a| a.parse().unwrap()).unwrap_or(2);

    let population = PopulationGenerator::new(PopulationConfig::default()).generate(n);
    let config = ScreeningConfig::grid_defaults(10.0, 600.0);

    // Single-device baseline.
    let single_device = Device::rtx3090_like();
    let single = GpuScreener::grid(config)
        .on_devices(vec![single_device.clone()])
        .screen(&population);
    println!(
        "1 device : {} conjunctions in {:.2} s ({} kernel launches, {:.1} MiB H→D)",
        single.conjunction_count(),
        single.timings.total.as_secs_f64(),
        single.device_metrics.as_ref().unwrap().kernel_launches,
        single.device_metrics.as_ref().unwrap().bytes_h2d as f64 / 1048576.0
    );

    // Multi-device run.
    let devices: Vec<Device> = (0..device_count).map(|_| Device::rtx3090_like()).collect();
    let multi = GpuScreener::grid(config)
        .on_devices(devices)
        .screen(&population);
    println!(
        "{} devices: {} conjunctions in {:.2} s (variant {})",
        device_count,
        multi.conjunction_count(),
        multi.timings.total.as_secs_f64(),
        multi.variant
    );

    assert_eq!(
        single.colliding_pairs(),
        multi.colliding_pairs(),
        "multi-device screening must find the identical colliding pairs"
    );
    println!("\n✓ colliding-pair sets identical across device counts");
    println!(
        "per-device step share: ~{} of {} steps — the conjunction map and grid",
        multi.planner.total_steps as usize / device_count,
        multi.planner.total_steps
    );
    println!("allocations are per-device, which is exactly the memory relief §VI expects.");
}
