//! E-THR — §V-C.2: speedup of the grid and hybrid CPU variants over
//! worker-thread count. The paper reports maxima of 19× (grid) and 14×
//! (hybrid) at 32 threads on the Ryzen system.
//!
//! Note for single-core hosts: the sweep still runs, but every point
//! measures ≈ 1× — EXPERIMENTS.md records this hardware gate.

use kessler_bench::runner::run_once;
use kessler_bench::{experiment_population, maybe_write_json, Args};
use serde::Serialize;

#[derive(Serialize)]
struct ThreadRow {
    variant: String,
    threads: usize,
    seconds: f64,
    speedup: f64,
    efficiency: f64,
}

fn main() {
    let args = Args::from_env(
        "exp_threads",
        &["--n", "--span", "--threshold", "--max-threads", "--json"],
    );
    let n = args.usize_of("--n", 4_000);
    let span = args.f64_of("--span", 300.0);
    let threshold = args.f64_of("--threshold", 2.0);
    let max_threads = args.usize_of(
        "--max-threads",
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1),
    );
    let population = experiment_population(n);

    let mut counts = vec![1usize];
    let mut t = 2;
    while t <= max_threads {
        counts.push(t);
        t *= 2;
    }
    if *counts.last().unwrap() != max_threads {
        counts.push(max_threads);
    }

    println!(
        "§V-C.2 analogue — thread scaling ({n} satellites, {span} s span, host has {} logical CPUs)\n",
        std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1)
    );
    println!(
        "{:<10} {:>8} {:>12} {:>10} {:>12}",
        "variant", "threads", "time [s]", "speedup", "efficiency"
    );

    let mut rows = Vec::new();
    for label in ["grid", "hybrid"] {
        let mut base = None;
        for &threads in &counts {
            let (row, _) = run_once(label, &population, threshold, span, Some(threads));
            let base_s = *base.get_or_insert(row.seconds);
            let speedup = base_s / row.seconds;
            let efficiency = speedup / threads as f64;
            println!(
                "{:<10} {:>8} {:>12.3} {:>10.2} {:>11.1}%",
                label,
                threads,
                row.seconds,
                speedup,
                efficiency * 100.0
            );
            rows.push(ThreadRow {
                variant: label.to_string(),
                threads,
                seconds: row.seconds,
                speedup,
                efficiency,
            });
        }
        println!();
    }

    println!("paper reference (32 threads, Ryzen 5950X): grid 19× (59 % efficiency),");
    println!("hybrid 14× (44 % efficiency) — the grid variant scales better because");
    println!("its runtime is dominated by the embarrassingly parallel CD phase.");
    maybe_write_json(&args, &rows);
}
