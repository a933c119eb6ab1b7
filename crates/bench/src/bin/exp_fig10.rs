//! E-F10 — Fig. 10a/b/c: runtime of every variant over population size.
//!
//! Defaults are laptop-scale (the Fig. 10a regime); pass the paper's sizes
//! explicitly to reproduce 10b/10c:
//!
//! ```text
//! cargo run --release -p kessler-bench --bin exp_fig10                     # 10a-scale
//! cargo run --release -p kessler-bench --bin exp_fig10 -- \
//!     --sizes 16000,32000,64000 --span 600                                 # 10b-scale
//! cargo run --release -p kessler-bench --bin exp_fig10 -- \
//!     --sizes 128000,256000 --no-legacy                                    # 10c-scale
//! ```

use kessler_bench::runner::{print_rows, run_once, RunRow};
use kessler_bench::{experiment_population, maybe_write_json, Args};

fn main() {
    let args = Args::from_env(
        "exp_fig10",
        &[
            "--sizes",
            "--span",
            "--threshold",
            "--repeats",
            "--no-legacy",
            "--no-gpusim",
            "--json",
        ],
    );
    let sizes = args.usize_list_of("--sizes", &[1_000, 2_000, 4_000]);
    let span = args.f64_of("--span", 300.0);
    let threshold = args.f64_of("--threshold", 2.0);
    let repeats = args.usize_of("--repeats", 1);
    let no_legacy = args.flag("--no-legacy");
    let no_gpusim = args.flag("--no-gpusim");

    let mut variants = vec!["grid", "hybrid"];
    if !no_legacy {
        variants.insert(0, "legacy");
    }
    if !no_gpusim {
        variants.push("grid-gpusim");
        variants.push("hybrid-gpusim");
    }

    println!(
        "Fig. 10 analogue — runtime vs population size (d = {threshold} km, span = {span} s, {repeats} repeat(s))\n"
    );

    let mut rows: Vec<RunRow> = Vec::new();
    for &n in &sizes {
        let population = experiment_population(n);
        for label in &variants {
            let mut best: Option<RunRow> = None;
            for _ in 0..repeats {
                let (row, _) = run_once(label, &population, threshold, span, None);
                best = Some(match best {
                    Some(b) if b.seconds <= row.seconds => b,
                    _ => row,
                });
            }
            let row = best.unwrap();
            println!(
                "n = {:>7}  {:<15} {:>10.3} s  ({} conjunctions)",
                n, row.variant, row.seconds, row.conjunctions
            );
            rows.push(row);
        }
        // Per-size speedup summary relative to the legacy run (if present).
        if let Some(legacy) = rows
            .iter()
            .filter(|r| r.n == n && r.variant == "legacy")
            .map(|r| r.seconds)
            .next()
        {
            for r in rows.iter().filter(|r| r.n == n && r.variant != "legacy") {
                println!(
                    "           {:<15} {:>9.1}× vs legacy",
                    r.variant,
                    legacy / r.seconds
                );
            }
        }
        println!();
    }

    println!("full series:");
    print_rows(&rows);
    println!("\npaper shape to compare against: legacy grows super-linearly (O(n²) pairs);");
    println!("grid/hybrid grow near-linearly until refinement dominates; hybrid beats grid");
    println!("when memory admits the larger cells; the crossover vs legacy sits at a few");
    println!("thousand objects (≈4000 in the paper's Fig. 10a).");
    maybe_write_json(&args, &rows);
}
