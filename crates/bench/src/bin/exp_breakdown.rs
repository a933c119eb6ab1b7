//! E-RTC — §V-C.1: relative time consumption per phase and variant.
//!
//! Paper reference values: hybrid GPU 68 % CD / 21 % INS / 9 % coplanarity;
//! hybrid CPU 87 % CD / 9 % INS / 3 % coplanarity; grid GPU 72 % CD /
//! 26 % INS; grid CPU 92 % CD / 7 % INS.
//!
//! With `--repeat R > 1` every variant is run R times and the JSON rows
//! additionally carry per-phase quantile digests (p50/p90/p99 over the
//! repeats), aggregated with the same [`PhaseSeries`] histograms the
//! service metrics use.

use kessler_bench::runner::run_once;
use kessler_bench::{experiment_population, maybe_write_json, Args};
use kessler_core::{PhaseSeries, PhaseSummaries};
use serde::Serialize;

#[derive(Serialize)]
struct BreakdownRow {
    variant: String,
    ins_pct: f64,
    cd_pct: f64,
    filters_pct: f64,
    total_s: f64,
    /// Per-phase quantiles over the repeats; present when `--repeat > 1`.
    #[serde(skip_serializing_if = "Option::is_none")]
    phases: Option<PhaseSummaries>,
}

fn main() {
    let args = Args::from_env(
        "exp_breakdown",
        &["--n", "--span", "--threshold", "--repeat", "--json"],
    );
    let n = args.usize_of("--n", 4_000);
    let span = args.f64_of("--span", 300.0);
    let threshold = args.f64_of("--threshold", 2.0);
    let repeat = args.usize_of("--repeat", 1).max(1);
    let population = experiment_population(n);

    println!(
        "§V-C.1 analogue — relative time consumption ({n} satellites, {span} s span, \
         {repeat} repeat(s))\n"
    );
    println!(
        "{:<15} {:>8} {:>8} {:>12} {:>10}",
        "variant", "INS %", "CD %", "filters %", "total [s]"
    );

    let mut rows = Vec::new();
    for label in ["grid", "hybrid", "grid-gpusim", "hybrid-gpusim"] {
        let mut series = PhaseSeries::default();
        let mut last = None;
        for _ in 0..repeat {
            let (_, report) = run_once(label, &population, threshold, span, None);
            series.record(&report.timings);
            last = Some(report);
        }
        let report = last.expect("at least one repeat");
        // Percentages come from the last repeat; the quantile digests
        // below aggregate all of them.
        let (ins, cd, fil) = report.timings.breakdown();
        println!(
            "{:<15} {:>8.1} {:>8.1} {:>12.1} {:>10.3}",
            report.variant,
            ins * 100.0,
            cd * 100.0,
            fil * 100.0,
            report.timings.total.as_secs_f64()
        );
        if repeat > 1 {
            let digests = series.summaries();
            for (phase, digest) in [
                ("insertion", &digests.insertion),
                ("pair extraction", &digests.pair_extraction),
                ("refinement", &digests.refinement),
                ("total", &digests.total),
            ] {
                println!(
                    "    {:<18} p50 {:>9.3} ms   p90 {:>9.3} ms   p99 {:>9.3} ms",
                    phase, digest.p50, digest.p90, digest.p99
                );
            }
        }
        rows.push(BreakdownRow {
            variant: report.variant.clone(),
            ins_pct: ins * 100.0,
            cd_pct: cd * 100.0,
            filters_pct: fil * 100.0,
            total_s: report.timings.total.as_secs_f64(),
            phases: (repeat > 1).then(|| series.summaries()),
        });
        // Kernel-level breakdown for the gpusim variants.
        if let Some(m) = &report.device_metrics {
            let total = m.total_kernel_time().as_secs_f64().max(1e-12);
            for (kernel, time) in &m.kernel_time {
                println!(
                    "    kernel {:<22} {:>6.1} % of kernel time",
                    kernel,
                    time.as_secs_f64() / total * 100.0
                );
            }
        }
    }

    println!("\npaper reference: grid CPU 92/7/0, hybrid CPU 87/9/3,");
    println!("                 grid GPU 72/26/0, hybrid GPU 68/21/9  (CD/INS/coplanar %)");
    maybe_write_json(&args, &rows);
}
