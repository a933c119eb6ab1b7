//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation section has a
//! regenerating binary (see DESIGN.md §4):
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `exp_sysinfo` | Table I (benchmark system) + §V-C.3 TDP notes |
//! | `exp_fig9` | Fig. 9 (bivariate (a, e) distribution) |
//! | `exp_table2` | Table II (element value ranges) |
//! | `exp_fig10` | Fig. 10a/b/c (runtime vs population size) |
//! | `exp_breakdown` | §V-C.1 (relative time consumption) |
//! | `exp_threads` | §V-C.2 (thread speedup) |
//! | `exp_accuracy` | §V-D (conjunction counts & pair differences) |
//! | `exp_model` | Eq. 3/4 (Extra-P conjunction-count model re-fit) |

pub mod runner;
pub mod sysinfo;

use kessler_orbits::KeplerElements;
use kessler_population::{PopulationConfig, PopulationGenerator};

/// The fixed seed all experiments share, so every variant sees the same
/// population (the requirement behind the §V-D accuracy comparison).
pub const EXPERIMENT_SEED: u64 = 0x2021_0408;

/// Generate the standard experiment population.
pub fn experiment_population(n: usize) -> Vec<KeplerElements> {
    PopulationGenerator::new(PopulationConfig {
        seed: EXPERIMENT_SEED,
        ..Default::default()
    })
    .generate(n)
}

/// Parse `--flag value`-style arguments (tiny, dependency-free).
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// The process arguments of the binary `name`, which reads the flags
    /// `accepted` (`--json` among them). Any other flag is reported and
    /// the process exits 1, so no run prints parameters nobody asked for.
    pub fn from_env(name: &str, accepted: &[&str]) -> Args {
        let args = Args {
            raw: std::env::args().skip(1).collect(),
        };
        if let Err(msg) = args.check(name, accepted) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
        args
    }

    /// Refuse the first `--flag` that `accepted` does not name.
    fn check(&self, name: &str, accepted: &[&str]) -> Result<(), String> {
        match self
            .raw
            .iter()
            .find(|a| a.starts_with("--") && !accepted.contains(&a.as_str()))
        {
            Some(flag) => Err(format!("unknown flag {flag} for {name}")),
            None => Ok(()),
        }
    }

    pub fn value_of(&self, flag: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    pub fn flag(&self, flag: &str) -> bool {
        self.raw.iter().any(|a| a == flag)
    }

    pub fn usize_of(&self, flag: &str, default: usize) -> usize {
        self.value_of(flag)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("bad value for {flag}")))
            .unwrap_or(default)
    }

    pub fn f64_of(&self, flag: &str, default: f64) -> f64 {
        self.value_of(flag)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("bad value for {flag}")))
            .unwrap_or(default)
    }

    pub fn usize_list_of(&self, flag: &str, default: &[usize]) -> Vec<usize> {
        self.value_of(flag)
            .map(|v| {
                v.split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| panic!("bad list for {flag}"))
                    })
                    .collect()
            })
            .unwrap_or_else(|| default.to_vec())
    }
}

/// Write a JSON report next to stdout output when `--json <path>` is given.
pub fn maybe_write_json<T: serde::Serialize>(args: &Args, value: &T) {
    if let Some(path) = args.value_of("--json") {
        let json = serde_json::to_string_pretty(value).expect("report serialises");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("(wrote JSON report to {path})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_population_is_deterministic() {
        assert_eq!(experiment_population(100), experiment_population(100));
    }

    #[test]
    fn args_parse_values_and_flags() {
        let args = Args {
            raw: vec![
                "--sizes".into(),
                "100,200".into(),
                "--span".into(),
                "60.5".into(),
                "--no-legacy".into(),
            ],
        };
        assert_eq!(args.usize_list_of("--sizes", &[1]), vec![100, 200]);
        assert_eq!(args.f64_of("--span", 0.0), 60.5);
        assert!(args.flag("--no-legacy"));
        assert!(!args.flag("--missing"));
        assert_eq!(args.usize_of("--absent", 7), 7);
    }

    #[test]
    fn flags_a_binary_does_not_read_are_refused() {
        let args = Args {
            raw: vec!["--sizes".into(), "100".into(), "--with-sieve".into()],
        };
        assert!(args
            .check("exp_fig10", &["--sizes", "--with-sieve", "--json"])
            .is_ok());
        assert_eq!(
            args.check("exp_fig10", &["--sizes", "--json"]),
            Err("unknown flag --with-sieve for exp_fig10".to_string())
        );
        let typo = Args {
            raw: vec!["--threads".into(), "4".into()],
        };
        assert_eq!(
            typo.check("exp_threads", &["--n", "--max-threads", "--json"]),
            Err("unknown flag --threads for exp_threads".to_string())
        );
    }
}
