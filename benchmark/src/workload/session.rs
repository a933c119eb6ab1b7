//! What the two daemon workloads share: booting a server in this process,
//! request lines, the second connection that watches while the first one
//! writes, set equality of two screen summaries, state-directory chores.

use crate::stats::Samples;
use crate::wire::{Conn, Line};
use kessler_core::ScreeningConfig;
use kessler_orbits::KeplerElements;
use kessler_service::proto::ScreenSummary;
use kessler_service::{ElementsSpec, Request, Server, ServerHandle, ServerOptions};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A server running on a thread of this process. Dropping it shuts the
/// server down and joins its threads, on error paths too.
pub struct Daemon {
    addr: SocketAddr,
    handle: Option<ServerHandle>,
}

impl Daemon {
    pub fn boot(config: ScreeningConfig, options: ServerOptions) -> Result<Daemon, String> {
        let server =
            Server::bind_with("127.0.0.1:0", config, options).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
        Ok(Daemon {
            addr,
            handle: Some(handle),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn shutdown(mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// `ADD` lines for `population`, ids counting up from `first_id`.
pub fn add_lines(population: &[KeplerElements], first_id: u64) -> Vec<String> {
    population
        .iter()
        .enumerate()
        .map(|(i, el)| {
            Conn::encode(
                &Request::Add {
                    id: first_id + i as u64,
                    elements: ElementsSpec::from_elements(el),
                },
                None,
            )
        })
        .collect()
}

pub fn update_line(id: u64, elements: ElementsSpec) -> String {
    Conn::encode(&Request::Update { id, elements }, None)
}

/// Whether two summaries describe the same conjunction set: same counts,
/// same worst pairs in the same order, same geometry to well below the
/// refinement tolerance.
pub fn same_set(a: &ScreenSummary, b: &ScreenSummary) -> bool {
    a.conjunctions == b.conjunctions
        && a.colliding_pairs == b.colliding_pairs
        && a.top.len() == b.top.len()
        && a.top.iter().zip(&b.top).all(|(x, y)| {
            x.pair() == y.pair()
                && (x.tca - y.tca).abs() <= 1e-6
                && (x.pca_km - y.pca_km).abs() <= 1e-6
        })
}

/// The phase timings a DELTA response reports, as child spans of the wait
/// for that response.
pub fn delta_stages(summary: &ScreenSummary) -> [(&'static str, Duration); 4] {
    let t = &summary.timings;
    [
        ("service.delta.phase.insertion", t.insertion),
        ("service.delta.phase.pair_extraction", t.pair_extraction),
        ("service.delta.phase.filters", t.filters),
        ("service.delta.phase.refinement", t.refinement),
    ]
}

pub fn describe(summary: &ScreenSummary) -> String {
    format!(
        "{} conjunctions over {} pairs, worst {:?}",
        summary.conjunctions,
        summary.colliding_pairs,
        summary.top.first().map(|c| (c.pair(), c.pca_km))
    )
}

/// What connection B saw.
#[derive(Debug, Default)]
pub struct WatchLog {
    pub probes: u64,
    pub failed_probes: u64,
    pub status_rtt_us: Samples,
    /// Probes sent while a screening verb was in flight on connection A.
    pub status_during_screen_us: Samples,
    /// `(epoch, arrival)` of every pushed event.
    pub events: Vec<(u64, Instant)>,
}

/// Connection B: holds `SUBSCRIBE all` and sends a STATUS probe every
/// 5 ms, so reads and pushes run beside connection A's writes.
pub struct Watcher {
    stop: Arc<AtomicBool>,
    join: JoinHandle<io::Result<WatchLog>>,
}

const PROBE_EVERY: Duration = Duration::from_millis(5);

impl Watcher {
    /// `screening` is raised by connection A while SCREEN / DELTA / ADVANCE
    /// is in flight.
    pub fn start(addr: SocketAddr, screening: Arc<AtomicBool>) -> io::Result<Watcher> {
        let mut conn = Conn::connect(addr)?;
        let ack = conn.call(&Request::Subscribe {
            assets: Vec::new(),
            all: true,
        })?;
        if !ack.ok {
            return Err(io::Error::other(format!(
                "SUBSCRIBE refused: {}",
                ack.error.unwrap_or_default()
            )));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let status = Conn::encode(&Request::Status, None);
        let join = std::thread::Builder::new()
            .name("bench-watcher".into())
            .spawn(move || {
                let mut log = WatchLog::default();
                // Relaxed: both flags are advisory; nothing is published
                // through them.
                while !stop_flag.load(Ordering::Relaxed) {
                    let during_screen = screening.load(Ordering::Relaxed);
                    let sent = Instant::now();
                    conn.write_raw(status.as_bytes())?;
                    loop {
                        match conn.read_line()? {
                            Line::Push(event) => log.events.push((event.epoch, Instant::now())),
                            Line::Response(response) => {
                                let rtt = sent.elapsed().as_secs_f64() * 1e6;
                                log.probes += 1;
                                if !response.ok {
                                    log.failed_probes += 1;
                                }
                                log.status_rtt_us.push(rtt);
                                if during_screen {
                                    log.status_during_screen_us.push(rtt);
                                }
                                break;
                            }
                        }
                    }
                    // Until the next probe is due, keep taking pushes off
                    // the socket so their arrival times are real.
                    while let Some(left) = PROBE_EVERY.checked_sub(sent.elapsed()) {
                        if let Some(Line::Push(event)) = conn.read_line_within(left)? {
                            log.events.push((event.epoch, Instant::now()));
                        }
                    }
                }
                Ok(log)
            })?;
        Ok(Watcher { stop, join })
    }

    pub fn finish(self) -> io::Result<WatchLog> {
        self.stop.store(true, Ordering::Relaxed);
        self.join
            .join()
            .map_err(|_| io::Error::other("watcher thread panicked"))?
    }
}

/// Total size and number of the regular files directly in `dir`.
pub fn dir_usage(dir: &Path) -> io::Result<(u64, usize)> {
    let mut bytes = 0;
    let mut files = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            bytes += meta.len();
            files += 1;
        }
    }
    Ok((bytes, files))
}

/// Removes `dir` if present and creates it empty.
pub fn fresh_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::create_dir_all(dir)
}

/// A crash image of state directory `from` in a fresh `to` (the daemon
/// keeps no subdirectories). Snapshot, chunk and manifest files are written
/// under a temporary name and renamed into place, never touched again, so
/// the image hard-links them; `mutable` names the one file that is written
/// in place (the WAL), which is copied. Linking instead of copying keeps a
/// run from pushing hundreds of megabytes through a disk whose latency the
/// workload is trying to measure.
pub fn crash_image(from: &Path, to: &Path, mutable: &str) -> io::Result<()> {
    fresh_dir(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if !entry.metadata()?.is_file() {
            continue;
        }
        let target = to.join(entry.file_name());
        if entry.file_name() == mutable || std::fs::hard_link(entry.path(), &target).is_err() {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}
