//! Fragmentation-event screening: a Yunhai-1-02-style breakup (§I of the
//! paper) throws a debris cloud into a shell occupied by a constellation;
//! the screener finds which operational satellites are at risk in the
//! hours after the event.
//!
//! ```text
//! cargo run --release --example fragmentation_event [-- <fragments>]
//! ```
//!
//! The cost grows with the square of the cloud: right after the breakup
//! the fragments fly together, so every pair of them shares grid cells at
//! every step and the grid stage runs one Brent search per (pair, step).
//! On a 2-vCPU host, 20 fragments take 4–5 s; 200 take two minutes or
//! more and find 20 019 conjunctions, one of them against an asset; the
//! default of 2 000 did not finish in two minutes. `scripts/ci.sh` runs it
//! with 20.

use kessler::orbits::propagator::PropagationConstants;
use kessler::orbits::ContourSolver;
use kessler::prelude::*;

fn main() {
    let fragments: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().unwrap())
        .unwrap_or(2_000);

    // The victim: a satellite in a 780 km orbit (Iridium-like altitude).
    let parent = KeplerElements::new(7_158.0, 0.0008, 86.4f64.to_radians(), 0.6, 1.0, 2.5).unwrap();
    let parent_state =
        PropagationConstants::from_elements(&parent).propagate(0.0, &ContourSolver::default());

    // The breakup cloud.
    let cloud = Fragmentation {
        fragments,
        delta_v_sigma: 0.08,
        seed: 0x0B17,
    }
    .generate_from_state(parent_state)
    .expect("fragment generation must not fall short");

    // The assets: a Walker constellation in a nearby shell.
    let constellation = WalkerShell {
        altitude_km: 780.0,
        inclination: 86.4f64.to_radians(),
        total: 66,
        planes: 6,
        phasing: 2,
    }
    .generate();

    let mut population = constellation.clone();
    population.extend(cloud);
    let n_assets = constellation.len();

    println!(
        "fragmentation event: {} debris fragments vs {} constellation satellites",
        population.len() - n_assets,
        n_assets
    );

    // Screen the six hours after the event with a generous 5 km threshold
    // (debris state uncertainty right after a breakup is large).
    let config = ScreeningConfig::grid_defaults(5.0, 6.0 * 3_600.0);
    let report = GridScreener::new(config).screen(&population);

    // Asset-vs-debris encounters only.
    let mut at_risk: Vec<(u32, usize, f64)> = Vec::new(); // (asset, encounters, min pca)
    for asset in 0..n_assets as u32 {
        let encounters: Vec<_> = report
            .conjunctions
            .iter()
            .filter(|c| {
                (c.id_lo == asset && c.id_hi >= n_assets as u32)
                    || (c.id_hi == asset && c.id_lo >= n_assets as u32)
            })
            .collect();
        if !encounters.is_empty() {
            let min_pca = encounters
                .iter()
                .map(|c| c.pca_km)
                .fold(f64::INFINITY, f64::min);
            at_risk.push((asset, encounters.len(), min_pca));
        }
    }
    at_risk.sort_by(|a, b| a.2.total_cmp(&b.2));

    println!(
        "screening took {:.2} s; {} total conjunctions, {} against assets",
        report.timings.total.as_secs_f64(),
        report.conjunction_count(),
        at_risk.iter().map(|(_, e, _)| e).sum::<usize>()
    );
    println!("\nassets with debris encounters (closest first):");
    println!("{:<8} {:>12} {:>14}", "asset", "encounters", "min PCA [km]");
    for (asset, encounters, min_pca) in at_risk.iter().take(15) {
        println!("{asset:<8} {encounters:>12} {min_pca:>14.3}");
    }
    if at_risk.is_empty() {
        println!("(no asset encounters in this window — rerun with more fragments)");
    }
}
