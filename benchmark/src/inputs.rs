//! Everything a workload is fed, derived from `--seed` alone: the same seed
//! gives the same population, the same manoeuvre bursts, the same request
//! lines. The program under test sees only these inputs, never the seed.

use kessler_orbits::KeplerElements;
use kessler_population::{PopulationConfig, PopulationGenerator};
use kessler_service::ElementsSpec;

/// Problem sizes. `full` is what the numbers in `results/` are for;
/// `smoke` runs the same code paths and gates in a few seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Satellites in the cold screens.
    pub cold_n: usize,
    /// Screening span of the cold screens, s.
    pub cold_span_s: f64,
    /// Satellites in the `serve_delta` catalog.
    pub serve_n: usize,
    pub serve_span_s: f64,
    /// `durable_ingest` (a): ADDs pipelined 64 deep.
    pub durable_pipelined: usize,
    /// `durable_ingest` (b): closed-loop ADDs on a raw socket.
    pub durable_closed: usize,
    /// `durable_ingest` (c): ADDs through `kessler_service::Client`, at
    /// most; the window decides how many are sent.
    pub client_sends: usize,
    pub durable_span_s: f64,
    /// `durable_ingest` (e): recoveries timed, each on a fresh copy, at
    /// most; the window decides how many are run.
    pub recoveries: usize,
    /// Changed satellites per burst.
    pub burst: usize,
    /// Satellites in the O(n²) reference screen.
    pub reference_n: usize,
    /// Times the set-up is run (the median is reported).
    pub setup_repeats: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            cold_n: 32_000,
            cold_span_s: 150.0,
            serve_n: 16_000,
            serve_span_s: 120.0,
            // The issue asks for 18 000 here. On this host's disk that
            // ingest alone takes 11 to 24 s and the run 30 to 48 s, which
            // the driver's time cap does not leave room for (README).
            durable_pipelined: 8_000,
            durable_closed: 1_900,
            client_sends: 100,
            durable_span_s: 150.0,
            recoveries: 7,
            burst: 32,
            reference_n: 1_000,
            setup_repeats: 3,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            cold_n: 2_000,
            cold_span_s: 150.0,
            serve_n: 2_000,
            serve_span_s: 120.0,
            durable_pipelined: 1_500,
            durable_closed: 300,
            client_sends: 4,
            durable_span_s: 150.0,
            recoveries: 2,
            burst: 32,
            reference_n: 300,
            setup_repeats: 1,
        }
    }
}

/// The paper's §V-A population: (a, e) drawn from a kernel density estimate
/// over the catalog anchors, angles uniform.
pub fn population(seed: u64, n: usize) -> Vec<KeplerElements> {
    PopulationGenerator::new(PopulationConfig {
        seed,
        ..PopulationConfig::default()
    })
    .generate(n)
}

/// SplitMix64: the harness's own generator for everything that is not the
/// population, so the workload inputs do not depend on which `rand` the
/// workspace was built against.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// A station-keeping burst in the manner of Reiland & Rosengren: `k`
/// distinct satellites each get a small along-track correction — the
/// semi-major axis moves by up to ±0.4 km and the phase by up to ±1 mrad.
/// Small on purpose: the operational case is k ≪ n changes that leave the
/// population's density, and so the screen's cost, as it was.
pub fn manoeuvre_burst(
    rng: &mut SplitMix64,
    catalog: &mut [KeplerElements],
    k: usize,
) -> Vec<(u64, ElementsSpec)> {
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    while chosen.len() < k.min(catalog.len()) {
        let i = rng.below(catalog.len());
        if !chosen.contains(&i) {
            chosen.push(i);
        }
    }
    chosen
        .into_iter()
        .map(|i| {
            let old = catalog[i];
            let da = (rng.unit() - 0.5) * 0.8;
            let dm = (rng.unit() - 0.5) * 2e-3;
            let moved = KeplerElements::new(
                old.semi_major_axis + da,
                old.eccentricity,
                old.inclination,
                old.raan,
                old.arg_perigee,
                (old.mean_anomaly + dm).rem_euclid(std::f64::consts::TAU),
            )
            // A sub-kilometre change to valid LEO elements stays valid; if
            // the generator ever hands out a boundary case, keep the old
            // elements rather than send a request that must fail.
            .unwrap_or(old);
            catalog[i] = moved;
            (i as u64, ElementsSpec::from_elements(&moved))
        })
        .collect()
}

/// FNV-1a over the colliding pairs and the conjunction count: the
/// fingerprint that must repeat exactly at a fixed seed.
pub fn fingerprint(conjunctions: usize, mut pairs: Vec<(u32, u32)>) -> u64 {
    pairs.sort_unstable();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(conjunctions as u64);
    for (lo, hi) in pairs {
        eat(u64::from(lo) << 32 | u64::from(hi));
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = population(7, 200);
        let b = population(7, 200);
        let c = population(8, 200);
        assert_eq!(a, b);
        assert_ne!(a, c);

        let burst = |seed| {
            let mut catalog = population(7, 200);
            manoeuvre_burst(&mut SplitMix64::new(seed), &mut catalog, 32)
        };
        let x = burst(1);
        assert_eq!(x, burst(1));
        assert_ne!(x, burst(2));
        let mut ids: Vec<u64> = x.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 32, "a burst changes distinct satellites");
    }

    #[test]
    fn fingerprint_ignores_order_and_sees_every_pair() {
        let a = fingerprint(3, vec![(1, 2), (3, 4)]);
        assert_eq!(a, fingerprint(3, vec![(3, 4), (1, 2)]));
        assert_ne!(a, fingerprint(3, vec![(1, 2), (3, 5)]));
        assert_ne!(a, fingerprint(4, vec![(1, 2), (3, 4)]));
    }
}
