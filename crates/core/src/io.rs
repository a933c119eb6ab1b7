//! Persistence for screening inputs and outputs: the file formats behind
//! `kessler generate --out` / `screen --pop` (population JSON), `screen
//! --json` (the full report) and `screen --csv` (conjunction CSV, the
//! shape of an operator's screening summary), plus element-set CSV for
//! spreadsheet interchange.

use crate::conjunction::{Conjunction, ScreeningReport};
use kessler_orbits::KeplerElements;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

/// I/O + parse errors.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    Json(serde_json::Error),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Json(e) => write!(f, "json error: {e}"),
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
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "id_lo,id_hi,tca_s,pca_km\n\
             1,2,123.456000,0.789000\n\
             3,40,9876.500000,1.999000\n"
        );
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
