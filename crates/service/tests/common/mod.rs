//! The golden state directories under `tests/fixtures/`, written by
//! earlier commits' binaries. Recovery writes into the directory it opens,
//! so a test never serves a fixture in place: it serves a copy.

use kessler_service::proto::StatusInfo;
use kessler_service::Response;
use std::path::{Path, PathBuf};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Copy the fixture directory `name` into the (fresh) directory `dir`.
pub fn copy_fixture(name: &str, dir: &Path) {
    std::fs::create_dir_all(dir).expect("create state dir");
    for entry in std::fs::read_dir(fixtures().join(name)).expect("fixture dir") {
        let entry = entry.expect("fixture entry");
        std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy fixture file");
    }
}

/// The last STATUS the daemon that wrote fixture `name` answered.
pub fn fixture_status(name: &str) -> StatusInfo {
    let status = std::fs::read_to_string(fixtures().join(format!("{name}.status.json")))
        .expect("fixture status");
    serde_json::from_str::<Response>(&status)
        .expect("parse fixture status")
        .status
        .expect("status payload")
}
