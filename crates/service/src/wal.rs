//! Append-only write-ahead log of catalog/engine mutations.
//!
//! Every state-mutating request the daemon acknowledges (ADD / UPDATE /
//! REMOVE / SCREEN / DELTA / ADVANCE) is first appended here as one
//! JSON line, flushed and fsynced, so a crash after the acknowledgement
//! cannot lose it. Each line is a self-validating frame:
//!
//! ```text
//! {"seq":12,"len":34,"sum":9837134134,"body":"{\"cmd\":\"ADD\",...}"}
//! ```
//!
//! `seq` is a strictly increasing record number, `len` the byte length of
//! `body`, and `sum` a MurmurHash3 checksum of the body bytes. Replay
//! ([`read_wal`]) accepts the longest valid prefix: the first frame that
//! fails length/checksum/JSON validation — or breaks the sequence order —
//! ends the replay, which is exactly the torn-tail semantics an
//! append-only log needs (a crash mid-`write` damages only the tail).

use crate::error::PersistError;
use crate::fault::FaultPlan;
use crate::proto::Request;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Checksum seed: any fixed value works, it only has to match on replay.
const CHECKSUM_SEED: u32 = 0x5eed_cafe;

/// MurmurHash3-based content checksum used by WAL frames and snapshots.
pub fn checksum(bytes: &[u8]) -> u64 {
    kessler_grid::murmur::murmur3_x64_128(bytes, CHECKSUM_SEED).0
}

/// One framed line: a checksummed, length-tagged payload.
#[derive(Debug, Serialize, Deserialize)]
struct Frame {
    seq: u64,
    len: usize,
    sum: u64,
    body: String,
}

/// Encode `body` into one frame line (no trailing newline).
pub fn encode_frame(seq: u64, body: &str) -> String {
    let frame = Frame {
        seq,
        len: body.len(),
        sum: checksum(body.as_bytes()),
        body: body.to_string(),
    };
    serde_json::to_string(&frame).expect("frame of valid strings always serializes")
}

/// Decode one frame line, validating length and checksum.
pub fn decode_frame(line: &str) -> Result<(u64, String), PersistError> {
    let frame: Frame = serde_json::from_str(line)
        .map_err(|e| PersistError::corrupt("wal frame", format!("unparseable frame: {e}")))?;
    if frame.body.len() != frame.len {
        return Err(PersistError::corrupt(
            "wal frame",
            format!(
                "length mismatch: frame says {} bytes, body has {}",
                frame.len,
                frame.body.len()
            ),
        ));
    }
    let sum = checksum(frame.body.as_bytes());
    if sum != frame.sum {
        return Err(PersistError::corrupt(
            "wal frame",
            format!(
                "checksum mismatch: frame says {:#x}, body hashes to {sum:#x}",
                frame.sum
            ),
        ));
    }
    Ok((frame.seq, frame.body))
}

/// What [`read_wal`] recovered.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Valid records in order: `(seq, request)`.
    pub records: Vec<(u64, Request)>,
    /// `Some(detail)` when replay stopped before the end of the file
    /// (torn tail, corrupt record, or sequence regression).
    pub torn: Option<String>,
}

/// Read a WAL file, tolerating a damaged tail. A missing file is an
/// empty log; any I/O error other than NotFound is surfaced.
///
/// Lines are streamed through a [`BufReader`] rather than slurped into
/// one string — replay memory stays one record, not the whole log, no
/// matter how long the daemon ran since the last compaction.
pub fn read_wal(path: &Path) -> Result<WalReplay, PersistError> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(WalReplay::default()),
        Err(err) => return Err(PersistError::io(format!("open {}", path.display()), err)),
    };
    let mut replay = WalReplay::default();
    let mut last_seq = 0u64;
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = match line {
            Ok(line) => line,
            // A read error mid-file is indistinguishable from tail damage
            // for replay purposes, but it is an I/O failure, not a torn
            // write — surface it rather than silently truncating history.
            Err(err) => return Err(PersistError::io(format!("read {}", path.display()), err)),
        };
        if line.is_empty() {
            continue;
        }
        let line = line.as_str();
        let (seq, body) = match decode_frame(line) {
            Ok(decoded) => decoded,
            Err(detail) => {
                replay.torn = Some(format!("record {}: {detail}", lineno + 1));
                break;
            }
        };
        if seq <= last_seq {
            replay.torn = Some(format!(
                "record {}: sequence went backwards ({seq} after {last_seq})",
                lineno + 1
            ));
            break;
        }
        let request: Request = match serde_json::from_str(&body) {
            Ok(request) => request,
            Err(err) => {
                replay.torn = Some(format!("record {}: bad request body: {err}", lineno + 1));
                break;
            }
        };
        last_seq = seq;
        replay.records.push((seq, request));
    }
    Ok(replay)
}

/// Append handle on a WAL file. Every append is flushed and fsynced
/// before it returns, so an acknowledged record survives a crash.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    faults: Arc<FaultPlan>,
}

impl WalWriter {
    /// Open (creating if missing) the log at `path` for appending, with a
    /// fault plan the writer consults on every fsync (an inert plan costs
    /// one atomic load).
    pub fn open_append_with(
        path: &Path,
        faults: Arc<FaultPlan>,
    ) -> Result<WalWriter, PersistError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| PersistError::io(format!("open {} for append", path.display()), e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            faults,
        })
    }

    /// Current byte length of the log, so a caller can capture a rollback
    /// point before an append.
    pub fn len(&self) -> Result<u64, PersistError> {
        self.file
            .metadata()
            .map(|m| m.len())
            .map_err(|e| PersistError::io(format!("stat {}", self.path.display()), e))
    }

    /// True when the log holds no bytes.
    pub fn is_empty(&self) -> Result<bool, PersistError> {
        Ok(self.len()? == 0)
    }

    /// Truncate the log back to `len` bytes and sync, undoing the bytes
    /// of a failed append so no residue of an unacknowledged record
    /// survives a crash.
    pub fn truncate_to(&mut self, len: u64) -> Result<(), PersistError> {
        let context = || format!("truncate {}", self.path.display());
        self.file
            .set_len(len)
            .map_err(|e| PersistError::io(context(), e))?;
        self.file
            .sync_data()
            .map_err(|e| PersistError::io(context(), e))
    }

    /// Append one record durably.
    pub fn append(&mut self, seq: u64, request: &Request) -> Result<(), PersistError> {
        let body = serde_json::to_string(request)
            .map_err(|e| PersistError::corrupt("wal record", format!("unserializable: {e}")))?;
        let mut line = encode_frame(seq, &body);
        line.push('\n');
        self.write_bytes(line.as_bytes())
    }

    /// Fault injection: append only the first half of the record's bytes
    /// (no newline), as a crash mid-`write` would leave the file, while
    /// still reporting success to the caller.
    pub fn append_torn(&mut self, seq: u64, request: &Request) -> Result<(), PersistError> {
        let body = serde_json::to_string(request)
            .map_err(|e| PersistError::corrupt("wal record", format!("unserializable: {e}")))?;
        let line = encode_frame(seq, &body);
        let half = line.len() / 2;
        self.write_bytes(&line.as_bytes()[..half])
    }

    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let context = || format!("append to {}", self.path.display());
        self.file
            .write_all(bytes)
            .map_err(|e| PersistError::io(context(), e))?;
        self.file
            .flush()
            .map_err(|e| PersistError::io(context(), e))?;
        if let Some(err) = self.faults.take_wal_fsync_error() {
            // The record's bytes already landed; failing here models the
            // kernel refusing to make them durable.
            return Err(PersistError::io(context(), err));
        }
        self.file
            .sync_data()
            .map_err(|e| PersistError::io(context(), e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ElementsSpec;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_wal(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!("kessler-wal-{tag}-{}-{n}.log", std::process::id()))
    }

    fn spec() -> ElementsSpec {
        ElementsSpec {
            a: 7_000.0,
            e: 0.001,
            incl: 0.9,
            raan: 1.0,
            argp: 0.3,
            mean_anomaly: 0.2,
        }
    }

    #[test]
    fn frames_roundtrip_and_reject_corruption() {
        let body = r#"{"cmd":"SCREEN"}"#;
        let line = encode_frame(7, body);
        let (seq, back) = decode_frame(&line).expect("valid frame");
        assert_eq!(seq, 7);
        assert_eq!(back, body);

        // Flip one payload byte: the checksum must catch it.
        let tampered = line.replace("SCREEN", "SCREEM");
        assert!(decode_frame(&tampered).is_err());
        // Truncate: unparseable.
        assert!(decode_frame(&line[..line.len() / 2]).is_err());
    }

    #[test]
    fn wal_roundtrips_records_in_order() {
        let path = temp_wal("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut writer = WalWriter::open_append_with(&path, FaultPlan::inert()).unwrap();
        let records = [
            Request::Add {
                id: 1,
                elements: spec(),
            },
            Request::Screen,
            Request::Advance { dt: 60.0 },
        ];
        for (i, r) in records.iter().enumerate() {
            writer.append(i as u64 + 1, r).unwrap();
        }
        let replay = read_wal(&path).unwrap();
        assert!(replay.torn.is_none(), "{:?}", replay.torn);
        assert_eq!(replay.records.len(), 3);
        for (i, (seq, r)) in replay.records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(r, &records[i]);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let path = temp_wal("torn");
        let _ = std::fs::remove_file(&path);
        let mut writer = WalWriter::open_append_with(&path, FaultPlan::inert()).unwrap();
        writer
            .append(
                1,
                &Request::Add {
                    id: 1,
                    elements: spec(),
                },
            )
            .unwrap();
        writer.append(2, &Request::Screen).unwrap();
        writer.append_torn(3, &Request::Remove { id: 1 }).unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(replay.torn.is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_mid_file_stops_replay_there() {
        let path = temp_wal("midcorrupt");
        let _ = std::fs::remove_file(&path);
        let mut writer = WalWriter::open_append_with(&path, FaultPlan::inert()).unwrap();
        for seq in 1..=4u64 {
            writer.append(seq, &Request::Screen).unwrap();
        }
        drop(writer);
        // Damage record 2 in place.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[1] = lines[1].replace("SCREEN", "SCREAM");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.records.len(), 1, "only the prefix before the damage");
        assert!(replay.torn.is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_to_rolls_back_a_partial_append() {
        let path = temp_wal("rollback");
        let _ = std::fs::remove_file(&path);
        let mut writer = WalWriter::open_append_with(&path, FaultPlan::inert()).unwrap();
        writer.append(1, &Request::Screen).unwrap();
        let pre_len = writer.len().unwrap();
        writer.append_torn(2, &Request::Screen).unwrap();
        assert!(writer.len().unwrap() > pre_len);
        writer.truncate_to(pre_len).unwrap();
        assert_eq!(writer.len().unwrap(), pre_len);

        // The log is clean again: the next append lands on a valid tail.
        writer.append(2, &Request::Delta).unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(replay.torn.is_none(), "{:?}", replay.torn);
        assert_eq!(replay.records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_fsync_failure_surfaces_as_an_io_error() {
        let path = temp_wal("fsyncfault");
        let _ = std::fs::remove_file(&path);
        let faults = FaultPlan::inert();
        faults.arm_wal_fsync_fail();
        let mut writer = WalWriter::open_append_with(&path, Arc::clone(&faults)).unwrap();
        let err = writer.append(1, &Request::Screen).expect_err("fsync fault");
        assert!(err.to_string().contains("append to"), "{err}");
        // One-shot: the next append succeeds.
        writer.append(1, &Request::Screen).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let path = temp_wal("missing");
        let _ = std::fs::remove_file(&path);
        let replay = read_wal(&path).unwrap();
        assert!(replay.records.is_empty());
        assert!(replay.torn.is_none());
    }
}
