//! E-T2 — Table II: value ranges of the generated Kepler elements.
//! Regenerates the table by measuring the actual min/max of every element
//! over a large draw and checking them against the specified ranges.

use kessler_bench::{experiment_population, maybe_write_json, Args};
use serde::Serialize;
use std::f64::consts::{PI, TAU};

#[derive(Serialize)]
struct RangeRow {
    element: String,
    specified: String,
    observed_min: f64,
    observed_max: f64,
    in_range: bool,
}

fn main() {
    let args = Args::from_env("exp_table2", &["--n", "--json"]);
    let n = args.usize_of("--n", 50_000);
    let pop = experiment_population(n);

    let minmax = |f: &dyn Fn(&kessler_orbits::KeplerElements) -> f64| -> (f64, f64) {
        pop.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), el| {
                let v = f(el);
                (lo.min(v), hi.max(v))
            })
    };

    let (a_lo, a_hi) = minmax(&|e| e.semi_major_axis);
    let (e_lo, e_hi) = minmax(&|e| e.eccentricity);
    let (i_lo, i_hi) = minmax(&|e| e.inclination);
    let (r_lo, r_hi) = minmax(&|e| e.raan);
    let (w_lo, w_hi) = minmax(&|e| e.arg_perigee);
    let (m_lo, m_hi) = minmax(&|e| e.mean_anomaly);

    let rows = vec![
        RangeRow {
            element: "Semi-major axis [km]".into(),
            specified: "from distribution".into(),
            observed_min: a_lo,
            observed_max: a_hi,
            in_range: a_lo > 6_378.0,
        },
        RangeRow {
            element: "Eccentricity".into(),
            specified: "from distribution".into(),
            observed_min: e_lo,
            observed_max: e_hi,
            in_range: (0.0..1.0).contains(&e_lo) && e_hi < 1.0,
        },
        RangeRow {
            element: "Inclination [rad]".into(),
            specified: "0 – π".into(),
            observed_min: i_lo,
            observed_max: i_hi,
            in_range: i_lo >= 0.0 && i_hi <= PI,
        },
        RangeRow {
            element: "RAAN [rad]".into(),
            specified: "0 – 2π".into(),
            observed_min: r_lo,
            observed_max: r_hi,
            in_range: r_lo >= 0.0 && r_hi < TAU,
        },
        RangeRow {
            element: "Argument of perigee [rad]".into(),
            specified: "0 – 2π".into(),
            observed_min: w_lo,
            observed_max: w_hi,
            in_range: w_lo >= 0.0 && w_hi < TAU,
        },
        RangeRow {
            element: "Mean anomaly [rad]".into(),
            specified: "0 – 2π".into(),
            observed_min: m_lo,
            observed_max: m_hi,
            in_range: m_lo >= 0.0 && m_hi < TAU,
        },
    ];

    println!("Table II analogue — element ranges over {n} generated satellites\n");
    println!(
        "{:<28} {:<18} {:>14} {:>14} {:>8}",
        "Kepler element", "specified", "observed min", "observed max", "ok"
    );
    let mut all_ok = true;
    for r in &rows {
        all_ok &= r.in_range;
        println!(
            "{:<28} {:<18} {:>14.6} {:>14.6} {:>8}",
            r.element,
            r.specified,
            r.observed_min,
            r.observed_max,
            if r.in_range { "✓" } else { "✗" }
        );
    }
    println!(
        "\n(true anomaly is derived from the mean anomaly at propagation time, as in the paper)"
    );
    println!("all ranges {}", if all_ok { "hold" } else { "VIOLATED" });
    maybe_write_json(&args, &rows);
    assert!(all_ok, "Table II ranges violated");
}
