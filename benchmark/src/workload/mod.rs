//! The four workloads and what every one of them hands back.

pub mod cold;
pub mod durable_ingest;
pub mod serve_delta;
pub mod session;

use crate::inputs::Sizes;
use crate::spec;
use kessler_core::Variant;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// How one workload run is parameterised.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Length of the measured window, s. Repeat counts scale with it;
    /// problem sizes never do.
    pub seconds: f64,
    /// Record spans and take the per-layer measurements.
    pub trace: bool,
    pub sizes: Sizes,
    /// Where state directories and trace files go (inside the checkout).
    pub out_dir: PathBuf,
}

/// Result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub workload: &'static str,
    /// The contract's end-to-end metrics (untraced runs only).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics this run measured; the rest read as 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Sample counts behind the medians.
    pub samples: BTreeMap<&'static str, usize>,
    /// Operations attempted: requests sent, screens run, identities checked.
    pub attempted: u64,
    /// Operations failed: a request answered `ok:false`, an I/O error, a
    /// missed reference pair, a failed identity check.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Conjunctions of the workload's final screen and their fingerprint.
    pub conjunctions: usize,
    pub fingerprint: u64,
}

impl Options {
    /// How often the daemon workloads run their set-up. A traced run
    /// reports no set-up time, so it sets up once.
    pub fn setup_repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            self.sizes.setup_repeats.max(1)
        }
    }
}

impl Outcome {
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            ..Outcome::default()
        }
    }

    /// Counts one operation; `ok == false` makes it a failed one.
    pub fn op(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // Keep the first few reasons; a broken daemon fails thousands.
            if self.failures.len() < 20 {
                self.failures.push(describe());
            }
        }
    }

    /// Counts `n` operations that all succeeded.
    pub fn ops_ok(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.layers.insert(name, value);
    }

    pub fn layers_from(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in values {
            self.layer(name, value);
        }
    }
}

pub fn run(workload: &str, options: &Options) -> Result<Outcome, String> {
    match workload {
        spec::COLD_GRID => Ok(cold::run(Variant::Grid, options)),
        spec::COLD_HYBRID => Ok(cold::run(Variant::Hybrid, options)),
        spec::SERVE_DELTA => serve_delta::run(options).map_err(|e| format!("serve_delta: {e}")),
        spec::DURABLE_INGEST => {
            durable_ingest::run(options).map_err(|e| format!("durable_ingest: {e}"))
        }
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            spec::WORKLOADS.map(|w| w.name).join(", ")
        )),
    }
}
