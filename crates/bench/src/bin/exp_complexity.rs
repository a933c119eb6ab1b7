//! E-CPLX — §III-B complexity analysis, measured.
//!
//! The paper argues three regimes for the number of PCA/TCA checks:
//! * **best case** — all satellites far apart: zero pair checks, linear
//!   total work (insertion only);
//! * **worst case** — everything in one spot: quadratic (shown here with a
//!   single dense shell);
//! * **average case** — the hollow-sphere argument: pairs only arise
//!   *within* a shell; satellites in different hollow spheres never pair.
//!
//! This binary constructs each regime and measures candidate-entry counts
//! and runtime versus population size.

use kessler_bench::{maybe_write_json, Args};
use kessler_core::{GridScreener, Screener, ScreeningConfig};
use kessler_orbits::KeplerElements;
use serde::Serialize;
use std::f64::consts::TAU;

/// Best case: each satellite on its own well-separated shell.
fn separated(n: usize) -> Vec<KeplerElements> {
    (0..n)
        .map(|i| {
            KeplerElements::new(
                7_000.0 + 40.0 * i as f64, // 40 km shell spacing ≫ cell size
                0.0,
                0.9,
                (i as f64 * 2.39) % TAU,
                0.0,
                (i as f64 * 1.17) % TAU,
            )
            .unwrap()
        })
        .collect()
}

/// Dense single shell: every pair shares the shell (the §III-B quadratic
/// regime).
fn single_shell(n: usize) -> Vec<KeplerElements> {
    (0..n)
        .map(|i| {
            KeplerElements::new(
                7_000.0,
                0.0,
                0.2 + 2.7 * (i as f64 / n as f64),
                (i as f64 * 2.39) % TAU,
                0.0,
                (i as f64 * 1.17) % TAU,
            )
            .unwrap()
        })
        .collect()
}

/// Two disjoint hollow spheres with `n/2` satellites each.
fn two_shells(n: usize) -> Vec<KeplerElements> {
    let mut pop = single_shell(n / 2);
    pop.extend(single_shell(n - n / 2).into_iter().map(|mut el| {
        el.semi_major_axis = 8_500.0; // 1 500 km higher: disjoint shell
        el
    }));
    pop
}

#[derive(Serialize)]
struct Row {
    regime: &'static str,
    n: usize,
    candidate_entries: usize,
    seconds: f64,
}

fn main() {
    let args = Args::from_env("exp_complexity", &["--sizes", "--span", "--json"]);
    let sizes = args.usize_list_of("--sizes", &[250, 500, 1_000, 2_000]);
    let span = args.f64_of("--span", 120.0);

    println!("§III-B complexity regimes (grid variant, d = 2 km, span = {span} s)\n");
    println!(
        "{:<12} {:>7} {:>18} {:>12} {:>22}",
        "regime", "n", "candidate entries", "time [s]", "entries growth vs n/2"
    );

    let mut rows: Vec<Row> = Vec::new();
    type Maker = fn(usize) -> Vec<KeplerElements>;
    let regimes: [(&'static str, Maker); 3] = [
        ("separated", separated),
        ("one-shell", single_shell),
        ("two-shells", two_shells),
    ];
    for (regime, make) in regimes {
        let mut prev: Option<(usize, usize)> = None;
        for &n in &sizes {
            let pop = make(n);
            let report = GridScreener::new(ScreeningConfig::grid_defaults(2.0, span)).screen(&pop);
            let growth = match prev {
                Some((pn, pe)) if pe > 0 => {
                    format!(
                        "×{:.2} for ×{:.1} n",
                        report.candidate_entries as f64 / pe as f64,
                        n as f64 / pn as f64
                    )
                }
                _ => "—".to_string(),
            };
            println!(
                "{:<12} {:>7} {:>18} {:>12.3} {:>22}",
                regime,
                n,
                report.candidate_entries,
                report.timings.total.as_secs_f64(),
                growth
            );
            prev = Some((n, report.candidate_entries));
            rows.push(Row {
                regime,
                n,
                candidate_entries: report.candidate_entries,
                seconds: report.timings.total.as_secs_f64(),
            });
        }
        println!();
    }

    // Hollow-sphere check: inter-shell pairs must be zero.
    let n = *sizes.last().unwrap();
    let pop = two_shells(n);
    let report = GridScreener::new(ScreeningConfig::grid_defaults(2.0, span)).screen(&pop);
    let lower = n / 2;
    let cross_shell = report
        .conjunctions
        .iter()
        .filter(|c| (c.id_lo as usize) < lower && (c.id_hi as usize) >= lower)
        .count();
    println!("hollow-sphere argument: {cross_shell} cross-shell conjunctions (paper predicts 0)");

    println!("\npaper claims (§III-B): separated → zero checks (linear total work);");
    println!("one shell → quadratic within the shell; disjoint shells don't interact.");
    maybe_write_json(&args, &rows);
}
