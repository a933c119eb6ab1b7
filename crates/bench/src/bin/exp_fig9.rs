//! E-F9 — Fig. 9: the bivariate distribution of semi-major axis and
//! eccentricity of the generated population. Prints a 2-D density table
//! (rows: eccentricity bins, columns: semi-major-axis bins) as an ASCII
//! heat map plus the headline concentration statistics the paper calls out
//! (hotspot at a ≈ 7000 km, e ≈ 0.0025).

use kessler_bench::{experiment_population, maybe_write_json, Args};
use serde::Serialize;

#[derive(Serialize)]
struct Fig9Report {
    n: usize,
    sma_edges: Vec<f64>,
    ecc_edges: Vec<f64>,
    counts: Vec<Vec<u64>>,
    hotspot_fraction: f64,
    mode_sma_km: f64,
    mode_ecc: f64,
}

fn main() {
    let args = Args::from_env("exp_fig9", &["--n", "--json"]);
    let n = args.usize_of("--n", 20_000);
    let population = experiment_population(n);

    // Focus region of Fig. 9: LEO semi-major axes and small eccentricities.
    let sma_lo = 6_600.0;
    let sma_hi = 8_200.0;
    let ecc_hi = 0.02;
    let (cols, rows) = (16usize, 10usize);
    let mut counts = vec![vec![0u64; cols]; rows];
    let mut outside = 0u64;

    for el in &population {
        let (a, e) = (el.semi_major_axis, el.eccentricity);
        if a < sma_lo || a >= sma_hi || e >= ecc_hi {
            outside += 1;
            continue;
        }
        let col = ((a - sma_lo) / (sma_hi - sma_lo) * cols as f64) as usize;
        let row = (e / ecc_hi * rows as f64) as usize;
        counts[row.min(rows - 1)][col.min(cols - 1)] += 1;
    }

    // Mode of the 2-D histogram.
    let (mut mode_row, mut mode_col, mut mode_count) = (0, 0, 0u64);
    for (r, row) in counts.iter().enumerate() {
        for (c, &v) in row.iter().enumerate() {
            if v > mode_count {
                mode_count = v;
                mode_row = r;
                mode_col = c;
            }
        }
    }
    let mode_sma = sma_lo + (mode_col as f64 + 0.5) / cols as f64 * (sma_hi - sma_lo);
    let mode_ecc = (mode_row as f64 + 0.5) / rows as f64 * ecc_hi;
    let inside: u64 = counts.iter().flatten().sum();
    let hotspot_fraction = inside as f64 / n as f64;

    println!("Fig. 9 analogue — bivariate (semi-major axis, eccentricity) density");
    println!("population: {n} draws from the catalog KDE; showing the LEO focus window");
    println!("rows: eccentricity 0‥{ecc_hi}; cols: a {sma_lo}‥{sma_hi} km\n");

    let shades = [' ', '.', ':', '+', '*', '#', '@'];
    let max = counts.iter().flatten().copied().max().unwrap_or(1).max(1);
    for (r, row) in counts.iter().enumerate().rev() {
        let e_label = (r as f64 + 0.5) / rows as f64 * ecc_hi;
        let line: String = row
            .iter()
            .map(|&v| {
                let idx = (v as f64 / max as f64 * (shades.len() - 1) as f64).round() as usize;
                shades[idx]
            })
            .collect();
        println!("e={e_label:<8.4} |{line}|");
    }
    let col_label: String = (0..cols)
        .map(|c| if c % 4 == 0 { '|' } else { ' ' })
        .collect();
    println!("{:>11}{}", "", col_label);
    println!("{:>11}a = {:.0} … {:.0} km", "", sma_lo, sma_hi);

    println!();
    println!("mode of the density: a ≈ {mode_sma:.0} km, e ≈ {mode_ecc:.4}");
    println!("paper (Fig. 9):      a ≈ 7000 km,   e ≈ 0.0025");
    println!(
        "fraction of the population inside the LEO focus window: {:.1} % ({} outside)",
        hotspot_fraction * 100.0,
        outside
    );

    let report = Fig9Report {
        n,
        sma_edges: (0..=cols)
            .map(|c| sma_lo + c as f64 / cols as f64 * (sma_hi - sma_lo))
            .collect(),
        ecc_edges: (0..=rows)
            .map(|r| r as f64 / rows as f64 * ecc_hi)
            .collect(),
        counts,
        hotspot_fraction,
        mode_sma_km: mode_sma,
        mode_ecc,
    };
    maybe_write_json(&args, &report);
}
