//! Results on disk: the `BENCH_<pr>.json` point of the trajectory, the
//! spread of repeated runs, and the table that compares two points.

use crate::spec::{self, Better};
use crate::stats::{quartile_spread, Samples};
use crate::workload::Outcome;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Host {
    pub cpu_model: String,
    pub nproc: usize,
    pub memory_kib: u64,
    pub kernel: String,
}

impl Host {
    pub fn detect() -> Host {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let field = |text: &str, key: &str| -> String {
            text.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
                .unwrap_or_default()
        };
        Host {
            cpu_model: field(&read("/proc/cpuinfo"), "model name"),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            memory_kib: field(&read("/proc/meminfo"), "MemTotal")
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0),
            kernel: read("/proc/sys/kernel/osrelease").trim().to_string(),
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub name: String,
    pub e2e: BTreeMap<String, f64>,
    pub layers: BTreeMap<String, f64>,
    pub samples: BTreeMap<String, usize>,
    pub attempted: u64,
    pub failed: u64,
    pub conjunctions: usize,
    pub fingerprint: String,
}

impl WorkloadResult {
    /// Folds the untraced run (end-to-end metrics, operation metrics) and
    /// the traced run (per-layer metrics) of one workload together. Where
    /// both measured a layer metric, the untraced value wins.
    pub fn from_outcomes(untraced: &Outcome, traced: Option<&Outcome>) -> WorkloadResult {
        let mut layers: BTreeMap<String, f64> = BTreeMap::new();
        let mut samples: BTreeMap<String, usize> = BTreeMap::new();
        for outcome in traced.into_iter().chain([untraced]) {
            layers.extend(outcome.layers.iter().map(|(k, v)| (k.to_string(), *v)));
            samples.extend(outcome.samples.iter().map(|(k, v)| (k.to_string(), *v)));
        }
        WorkloadResult {
            name: untraced.workload.to_string(),
            e2e: untraced
                .e2e
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            layers,
            samples,
            attempted: untraced.attempted + traced.map_or(0, |t| t.attempted),
            failed: untraced.failed + traced.map_or(0, |t| t.failed),
            conjunctions: untraced.conjunctions,
            fingerprint: format!("{:#018x}", untraced.fingerprint),
        }
    }
}

/// Spread of one metric over repeated runs of one binary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Spread {
    pub runs: usize,
    pub median: f64,
    /// Distance between the quartiles as a share of the median.
    pub iqr_over_median: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bench {
    pub bench: u32,
    pub host: Host,
    pub rev: String,
    pub seed: u64,
    pub deps: String,
    pub smoke: bool,
    pub seconds: f64,
    pub loc_by_crate: BTreeMap<String, usize>,
    pub workloads: Vec<WorkloadResult>,
    pub residuals: BTreeMap<String, f64>,
    /// workload → metric → spread, from `kessler-benchmark spread`.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub spreads: BTreeMap<String, BTreeMap<String, Spread>>,
}

impl Bench {
    pub fn load(path: &Path) -> Result<Bench, String> {
        let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_reader(std::io::BufReader::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut text = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Lines of Rust under each crate's `src/`, and under the benchmark itself.
pub fn loc_by_crate(benchmark_dir: &Path) -> BTreeMap<String, usize> {
    fn rust_lines(dir: &Path) -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|entry| {
                let path = entry.path();
                if path.is_dir() {
                    rust_lines(&path)
                } else if path.extension().is_some_and(|e| e == "rs") {
                    std::fs::read_to_string(&path).map_or(0, |t| t.lines().count())
                } else {
                    0
                }
            })
            .sum()
    }
    let mut loc = BTreeMap::new();
    if let Ok(crates) = std::fs::read_dir(benchmark_dir.join("../crates")) {
        for entry in crates.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            loc.insert(name, rust_lines(&entry.path().join("src")));
        }
    }
    loc.insert("benchmark".into(), rust_lines(&benchmark_dir.join("src")));
    loc.insert(
        "benchmark/offline".into(),
        rust_lines(&benchmark_dir.join("offline")),
    );
    loc
}

pub fn git_rev(benchmark_dir: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(benchmark_dir)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn spread_of(values: &[f64]) -> Spread {
    Spread {
        runs: values.len(),
        median: values.iter().copied().collect::<Samples>().median(),
        iqr_over_median: quartile_spread(values),
    }
}

/// Bound and direction of a metric the comparison judges, if it has one.
fn judged(name: &str) -> Option<(f64, Better)> {
    if let Some(m) = spec::END_TO_END.iter().find(|m| m.name == name) {
        return Some((m.bound, m.better));
    }
    let (_, bound) = spec::OPERATION_BOUNDS.iter().find(|(n, _)| *n == name)?;
    let layer = spec::PER_LAYER.iter().find(|m| m.name == name)?;
    Some((*bound, layer.better))
}

/// The per-workload, per-metric table of `compare A.json B.json`.
///
/// A metric with a bound gets a verdict: `regressed` when B is worse than A
/// by more than the bound; `unresolved` when the spread recorded for it in
/// either file is wider than the bound, so a single pair of runs cannot
/// tell; `improved` when B is better by more than bound and spread;
/// otherwise `within bound`. Layer metrics carry no bound and no verdict.
pub fn compare(a: &Bench, b: &Bench) -> (String, usize) {
    let mut out = String::new();
    let mut regressions = 0;
    out += &format!(
        "A: bench {} rev {} seed {} ({})\nB: bench {} rev {} seed {} ({})\n",
        a.bench, a.rev, a.seed, a.deps, b.bench, b.rev, b.seed, b.deps
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            out += &format!("\n== {}: missing in B\n", wa.name);
            continue;
        };
        out += &format!(
            "\n== {}  (failed ops A {} / B {}; fingerprint {})\n",
            wa.name,
            wa.failed,
            wb.failed,
            if wa.fingerprint == wb.fingerprint {
                "equal"
            } else {
                "DIFFERS"
            }
        );
        out += &format!(
            "{:<46} {:>14} {:>14} {:>9} {:>7}  {}\n",
            "metric", "A", "B", "change", "bound", "verdict"
        );
        let rows = wa
            .e2e
            .iter()
            .chain(wa.layers.iter())
            .filter_map(|(name, va)| {
                let vb = wb.e2e.get(name).or_else(|| wb.layers.get(name))?;
                Some((name, *va, *vb))
            });
        for (name, va, vb) in rows {
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            let change = if va != 0.0 {
                (vb - va) / va.abs()
            } else {
                f64::INFINITY
            };
            let (bound_text, verdict) = match judged(name) {
                None => (String::new(), String::new()),
                Some((bound, better)) => {
                    let (worse_by, direction) = match better {
                        Better::Lower => (change, "lower is better"),
                        Better::Higher => (-change, "higher is better"),
                    };
                    let spread = [a, b]
                        .iter()
                        .filter_map(|bench| bench.spreads.get(&wa.name)?.get(name))
                        .map(|s| s.iqr_over_median)
                        .fold(0.0, f64::max);
                    let verdict = if worse_by > bound {
                        regressions += 1;
                        "regressed"
                    } else if spread > bound {
                        "unresolved"
                    } else if -worse_by > bound.max(spread) {
                        "improved"
                    } else {
                        "within bound"
                    };
                    (
                        format!("{:.0}%", bound * 100.0),
                        format!("{verdict} ({direction})"),
                    )
                }
            };
            out += &format!(
                "{:<46} {:>14.6} {:>14.6} {:>+8.1}% {:>7}  {}\n",
                name,
                va,
                vb,
                change * 100.0,
                bound_text,
                verdict
            );
        }
    }
    (out, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(request_ms: f64, ingest: f64, spread: Option<f64>) -> Bench {
        let mut e2e = BTreeMap::new();
        e2e.insert("request_ms".to_string(), request_ms);
        let mut layers = BTreeMap::new();
        layers.insert("ingest_per_s".to_string(), ingest);
        layers.insert("grid.insert.ns_per_entry".to_string(), 40.0);
        let mut spreads = BTreeMap::new();
        if let Some(s) = spread {
            let mut per_metric = BTreeMap::new();
            per_metric.insert(
                "request_ms".to_string(),
                Spread {
                    runs: 10,
                    median: request_ms,
                    iqr_over_median: s,
                },
            );
            spreads.insert("w".to_string(), per_metric);
        }
        Bench {
            bench: 11,
            host: Host {
                cpu_model: "x".into(),
                nproc: 2,
                memory_kib: 1,
                kernel: "k".into(),
            },
            rev: "r".into(),
            seed: 1,
            deps: "offline-stand-ins".into(),
            smoke: false,
            seconds: 12.0,
            loc_by_crate: BTreeMap::new(),
            workloads: vec![WorkloadResult {
                name: "w".into(),
                e2e,
                layers,
                samples: BTreeMap::new(),
                attempted: 1,
                failed: 0,
                conjunctions: 3,
                fingerprint: "0x1".into(),
            }],
            residuals: BTreeMap::new(),
            spreads,
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        // request_ms: lower is better, bound 25 %. ingest_per_s: higher is
        // better, bound 10 %.
        let (table, regressions) =
            compare(&bench(100.0, 1000.0, None), &bench(130.0, 1200.0, None));
        assert_eq!(regressions, 1, "{table}");
        assert!(table
            .lines()
            .any(|l| l.starts_with("request_ms") && l.contains("regressed")));
        assert!(table
            .lines()
            .any(|l| l.starts_with("ingest_per_s") && l.contains("improved")));
        assert!(table
            .lines()
            .any(|l| l.starts_with("grid.insert.ns_per_entry") && !l.contains("bound")));

        let (table, regressions) = compare(&bench(100.0, 1000.0, None), &bench(104.0, 850.0, None));
        assert_eq!(regressions, 1, "{table}");
        assert!(table
            .lines()
            .any(|l| l.starts_with("request_ms") && l.contains("within bound")));
        assert!(table
            .lines()
            .any(|l| l.starts_with("ingest_per_s") && l.contains("regressed")));

        let (table, _) = compare(&bench(100.0, 1000.0, Some(0.3)), &bench(85.0, 1000.0, None));
        assert!(table
            .lines()
            .any(|l| l.starts_with("request_ms") && l.contains("unresolved")));
    }

    #[test]
    fn bench_files_round_trip() {
        let b = bench(1.5, 2.0, Some(0.01));
        let text = serde_json::to_string_pretty(&b).unwrap();
        let back: Bench = serde_json::from_str(&text).unwrap();
        assert_eq!(back.workloads[0].e2e["request_ms"], 1.5);
        assert_eq!(back.spreads["w"]["request_ms"].runs, 10);
    }
}
