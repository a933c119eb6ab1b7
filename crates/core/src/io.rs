//! Persistence for screening inputs and outputs.
//!
//! Operational screening pipelines exchange conjunction lists and element
//! sets as flat files; this module provides the plumbing: conjunction CSV
//! (the shape of an operator's screening summary), JSON round-trips for
//! populations and full reports, and element-set CSV for spreadsheet
//! interchange.

use crate::conjunction::{Conjunction, ScreeningReport};
use crate::metrics::{PhaseSeries, PhaseSummaries};
use crate::timing::PhaseTimings;
use kessler_orbits::KeplerElements;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// I/O + parse errors.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    Json(serde_json::Error),
    Csv { line: usize, message: String },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Json(e) => write!(f, "json error: {e}"),
            IoError::Csv { line, message } => write!(f, "csv error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> IoError {
        IoError::Io(e)
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> IoError {
        IoError::Json(e)
    }
}

/// Write conjunctions as CSV (`id_lo,id_hi,tca_s,pca_km`).
pub fn write_conjunctions_csv<W: Write>(
    out: W,
    conjunctions: &[Conjunction],
) -> Result<(), IoError> {
    let mut w = BufWriter::new(out);
    writeln!(w, "id_lo,id_hi,tca_s,pca_km")?;
    for c in conjunctions {
        writeln!(w, "{},{},{:.6},{:.6}", c.id_lo, c.id_hi, c.tca, c.pca_km)?;
    }
    w.flush()?;
    Ok(())
}

/// Read conjunctions from the CSV written by [`write_conjunctions_csv`].
pub fn read_conjunctions_csv<R: Read>(input: R) -> Result<Vec<Conjunction>, IoError> {
    let reader = BufReader::new(input);
    let mut out = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if idx == 0 || line.trim().is_empty() {
            continue; // header / blank
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            return Err(IoError::Csv {
                line: idx + 1,
                message: format!("expected 4 fields, got {}", fields.len()),
            });
        }
        let parse = |s: &str, what: &str| -> Result<f64, IoError> {
            s.trim().parse().map_err(|_| IoError::Csv {
                line: idx + 1,
                message: format!("bad {what}: `{s}`"),
            })
        };
        out.push(Conjunction {
            id_lo: parse(fields[0], "id_lo")? as u32,
            id_hi: parse(fields[1], "id_hi")? as u32,
            tca: parse(fields[2], "tca")?,
            pca_km: parse(fields[3], "pca")?,
        });
    }
    Ok(out)
}

/// Save a population (element set) as JSON.
pub fn save_population<P: AsRef<Path>>(
    path: P,
    population: &[KeplerElements],
) -> Result<(), IoError> {
    let file = std::fs::File::create(path)?;
    serde_json::to_writer(BufWriter::new(file), population)?;
    Ok(())
}

/// Load a population saved by [`save_population`].
pub fn load_population<P: AsRef<Path>>(path: P) -> Result<Vec<KeplerElements>, IoError> {
    let file = std::fs::File::open(path)?;
    Ok(serde_json::from_reader(BufReader::new(file))?)
}

/// Save a full screening report as pretty JSON.
pub fn save_report<P: AsRef<Path>>(path: P, report: &ScreeningReport) -> Result<(), IoError> {
    let file = std::fs::File::create(path)?;
    serde_json::to_writer_pretty(BufWriter::new(file), report)?;
    Ok(())
}

/// Aggregate repeated screens into per-phase quantile digests
/// (milliseconds) — the distribution companion to a single
/// [`PhaseTimings`] breakdown.
pub fn phase_summaries(timings: &[PhaseTimings]) -> PhaseSummaries {
    let mut series = PhaseSeries::new();
    for t in timings {
        series.record(t);
    }
    series.summaries()
}

/// Save per-phase quantile digests as pretty JSON, so `results_*.json`
/// trajectories carry p50/p90/p99 across repeats, not just means.
pub fn save_phase_summaries<P: AsRef<Path>>(
    path: P,
    summaries: &PhaseSummaries,
) -> Result<(), IoError> {
    let file = std::fs::File::create(path)?;
    serde_json::to_writer_pretty(BufWriter::new(file), summaries)?;
    Ok(())
}

/// Write an element set as CSV
/// (`a_km,e,i_rad,raan_rad,argp_rad,mean_anomaly_rad`).
pub fn write_population_csv<W: Write>(
    out: W,
    population: &[KeplerElements],
) -> Result<(), IoError> {
    let mut w = BufWriter::new(out);
    writeln!(w, "a_km,e,i_rad,raan_rad,argp_rad,mean_anomaly_rad")?;
    for el in population {
        writeln!(
            w,
            "{:.6},{:.9},{:.9},{:.9},{:.9},{:.9}",
            el.semi_major_axis,
            el.eccentricity,
            el.inclination,
            el.raan,
            el.arg_perigee,
            el.mean_anomaly
        )?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScreeningConfig;
    use crate::screener::cpu::GridScreener;
    use crate::Screener;

    fn sample_conjunctions() -> Vec<Conjunction> {
        vec![
            Conjunction {
                id_lo: 1,
                id_hi: 2,
                tca: 123.456,
                pca_km: 0.789,
            },
            Conjunction {
                id_lo: 3,
                id_hi: 40,
                tca: 9_876.5,
                pca_km: 1.999,
            },
        ]
    }

    #[test]
    fn conjunction_csv_round_trip() {
        let mut buf = Vec::new();
        write_conjunctions_csv(&mut buf, &sample_conjunctions()).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("id_lo,id_hi,tca_s,pca_km\n"));
        let back = read_conjunctions_csv(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].pair(), (1, 2));
        assert!((back[0].tca - 123.456).abs() < 1e-6);
        assert!((back[1].pca_km - 1.999).abs() < 1e-6);
    }

    #[test]
    fn malformed_csv_is_reported_with_line_numbers() {
        let bad = "id_lo,id_hi,tca_s,pca_km\n1,2,3\n";
        let err = read_conjunctions_csv(bad.as_bytes()).unwrap_err();
        match err {
            IoError::Csv { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
        let bad2 = "id_lo,id_hi,tca_s,pca_km\n1,2,xyz,4\n";
        assert!(matches!(
            read_conjunctions_csv(bad2.as_bytes()).unwrap_err(),
            IoError::Csv { line: 2, .. }
        ));
    }

    #[test]
    fn population_json_round_trip() {
        let pop = vec![
            KeplerElements::new(7_000.0, 0.001, 0.9, 1.0, 2.0, 3.0).unwrap(),
            KeplerElements::new(42_164.0, 0.0002, 0.01, 4.0, 5.0, 6.0).unwrap(),
        ];
        let path = std::env::temp_dir().join("kessler_test_pop.json");
        save_population(&path, &pop).unwrap();
        let back = load_population(&path).unwrap();
        assert_eq!(back, pop);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn population_csv_has_one_row_per_satellite() {
        let pop = vec![KeplerElements::new(7_000.0, 0.001, 0.9, 1.0, 2.0, 3.0).unwrap()];
        let mut buf = Vec::new();
        write_population_csv(&mut buf, &pop).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().starts_with("7000.000000,"));
    }

    #[test]
    fn phase_summaries_aggregate_and_round_trip() {
        use std::time::Duration;
        let runs: Vec<PhaseTimings> = (1..=5u64)
            .map(|i| PhaseTimings {
                insertion: Duration::from_millis(i),
                pair_extraction: Duration::from_millis(2 * i),
                filters: Duration::ZERO,
                refinement: Duration::from_millis(i),
                total: Duration::from_millis(4 * i),
            })
            .collect();
        let s = phase_summaries(&runs);
        assert_eq!(s.screens, 5);
        assert!(s.total.p50 >= s.total.min && s.total.p99 <= s.total.max + 1e-9);
        let path = std::env::temp_dir().join("kessler_test_phases.json");
        save_phase_summaries(&path, &s).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back: PhaseSummaries = serde_json::from_str(&text).unwrap();
        assert_eq!(back.screens, 5);
        assert!((back.total.p99 - s.total.p99).abs() < 1e-9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn full_report_saves_as_json() {
        let pop = vec![
            KeplerElements::new(7_000.0, 0.0, 0.4, 0.0, 0.0, 0.0).unwrap(),
            KeplerElements::new(7_000.0, 0.0, 1.2, 0.0, 0.0, 0.0).unwrap(),
        ];
        let report = GridScreener::new(ScreeningConfig::grid_defaults(2.0, 120.0)).screen(&pop);
        let path = std::env::temp_dir().join("kessler_test_report.json");
        save_report(&path, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"variant\": \"grid\""));
        std::fs::remove_file(&path).ok();
    }
}
