//! Rolling service metrics: per-phase screening histograms, durability
//! latencies, request/error counters, queue pressure.
//!
//! The daemon previously surfaced only the *last* screen's
//! [`PhaseTimings`] via STATUS; this registry keeps the full distribution
//! (p50/p90/p99 over every screen since startup) per phase, tracked
//! separately for full and delta screens — the operational counterpart of
//! the paper's §V-C.1 per-phase breakdowns. It also times every WAL fsync
//! and snapshot write, counts requests and errors per command, and records
//! screening-queue pressure and worker respawns. A [`MetricsSnapshot`] is
//! served verbatim by the `METRICS` protocol verb.

use crate::persist::Written;
use kessler_core::metrics::{Histogram, HistogramSummary, PhaseSeries, PhaseSummaries};
use kessler_core::timing::PhaseTimings;
use kessler_core::FilterStatsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Microseconds (histogram unit) to milliseconds (wire unit).
const US_TO_MS: f64 = 1e-3;

/// Ok/error counts for one request kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestCounter {
    pub ok: u64,
    pub errors: u64,
}

/// In-memory rolling metrics; lives behind the server's metrics mutex.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Phase distributions over cold full screens (SCREEN and cold DELTA).
    full: PhaseSeries,
    /// Phase distributions over warm delta screens.
    delta: PhaseSeries,
    /// Tail-screen distributions from ADVANCE window slides.
    advance: PhaseSeries,
    /// WAL append (write + flush + fsync) latency, µs.
    wal_fsync: Histogram,
    /// Snapshot write + rotate + WAL-compaction duration, µs.
    snapshot_write: Histogram,
    /// Snapshot sizes on disk, bytes.
    snapshot_bytes: Histogram,
    /// Snapshot-capture (catalog snapshot + warm-set handle) duration, µs.
    snapshot_build: Histogram,
    /// Per-worker screening-job wall times, µs, keyed by worker name.
    worker_jobs: BTreeMap<String, Histogram>,
    /// Per-command ok/error counts.
    requests: BTreeMap<String, RequestCounter>,
    /// Deepest the screening queue has been.
    queue_highwater: usize,
    /// Times the supervisor respawned a dead screening worker.
    worker_respawns: u64,
    /// Jobs cancelled via CANCEL (queued or mid-screen).
    jobs_cancelled: u64,
    /// WAL appends that failed (each one rejects a mutation).
    wal_append_failures: u64,
    /// Snapshot writes that failed (retried on the next mutation).
    snapshot_failures: u64,
    /// Transitions into degraded (read-only) mode.
    degraded_entries: u64,
    /// Recoveries back to normal mode (emergency snapshot succeeded).
    degraded_recoveries: u64,
    /// Persistence probes that failed while degraded.
    probe_failures: u64,
    /// Running totals over every hybrid screen's filter-chain counters;
    /// `None` until the first hybrid screen.
    filter_chain: Option<FilterStatsSnapshot>,
    /// Per-shard extraction-step latencies over sharded full screens, µs,
    /// keyed by shard id. Only shards that held satellites appear.
    shard_full: BTreeMap<u32, Histogram>,
    /// Same, over sharded delta screens.
    shard_delta: BTreeMap<u32, Histogram>,
    /// Chunks rewritten by each successful snapshot write under a
    /// multi-shard layout — how incremental the snapshots actually are.
    dirty_shards: Histogram,
    /// Candidate entries whose neighbour lives in another shard (pairs
    /// that only exist because of boundary mirroring).
    boundary_entries: u64,
    /// Grid inserts beyond one-per-satellite: boundary mirrors copied
    /// into neighbouring shards' grids.
    mirrored_inserts: u64,
    /// Conjunction push events queued to subscriber connections.
    events_pushed: u64,
    /// Push events shed because a subscriber's write buffer sat at the
    /// high-water mark (or the connection vanished mid-publish).
    events_dropped: u64,
    /// Connections dropped for letting responses pile past the hard cap.
    slow_consumer_disconnects: u64,
    /// Per-connection write-buffer high-water marks, bytes, recorded as
    /// each connection closes.
    write_buffer_peak: Histogram,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Record one screen's phase breakdown under its report variant
    /// (`"grid-delta"`/`"hybrid-delta"` → delta series, anything else →
    /// full series).
    pub fn record_screen(&mut self, variant: &str, timings: &PhaseTimings) {
        if variant == crate::delta::DELTA_VARIANT || variant == crate::delta::HYBRID_DELTA_VARIANT {
            self.delta.record(timings);
        } else {
            self.full.record(timings);
        }
    }

    /// Fold one hybrid screen's filter-chain counters into the running
    /// totals.
    pub fn record_filter_chain(&mut self, stats: &FilterStatsSnapshot) {
        self.filter_chain = Some(self.filter_chain.unwrap_or_default() + *stats);
    }

    /// Record the tail screen an ADVANCE ran while sliding the window.
    pub fn record_advance_tail(&mut self, timings: &PhaseTimings) {
        self.advance.record(timings);
    }

    /// Fold one sharded screen's per-shard extraction stats into the
    /// registry. Empty shards (no satellites, no steps) stay absent so the
    /// METRICS payload lists only occupied shards.
    pub fn record_shard_screen(&mut self, is_delta: bool, stats: &kessler_core::ShardScreenStats) {
        let series = if is_delta {
            &mut self.shard_delta
        } else {
            &mut self.shard_full
        };
        for (shard, hist) in stats.step_us.iter().enumerate() {
            if hist.is_empty() {
                continue;
            }
            series.entry(shard as u32).or_default().merge(hist);
        }
        self.boundary_entries += stats.boundary_entries;
        self.mirrored_inserts += stats.mirrored_inserts;
    }

    pub fn record_wal_fsync(&mut self, elapsed: Duration) {
        self.wal_fsync.record_duration(elapsed);
    }

    /// Record one successful checkpoint from what the persister reports
    /// it wrote: wall time, bytes, and — when the layout has more than one
    /// shard, the one place that rule lives — how many shard chunks it had
    /// to rewrite (a 1×1 layout has nothing to be incremental about).
    pub(crate) fn record_snapshot(&mut self, elapsed: Duration, written: &Written) {
        self.snapshot_write.record_duration(elapsed);
        self.snapshot_bytes.record(written.bytes);
        if written.shard_count > 1 {
            self.dirty_shards.record(u64::from(written.chunks));
        }
    }

    /// Time spent capturing a screening job under the state lock — the
    /// price every enqueue pays, and the cost the copy-on-write snapshot
    /// design is supposed to keep near zero.
    pub fn record_snapshot_build(&mut self, elapsed: Duration) {
        self.snapshot_build.record_duration(elapsed);
    }

    /// One screening job's wall time on the named worker.
    pub fn record_worker_job(&mut self, worker: &str, elapsed: Duration) {
        self.worker_jobs
            .entry(worker.to_string())
            .or_default()
            .record_duration(elapsed);
    }

    /// Count one request by command word.
    pub fn count_request(&mut self, kind: &str, ok: bool) {
        let counter = self.requests.entry(kind.to_string()).or_default();
        if ok {
            counter.ok += 1;
        } else {
            counter.errors += 1;
        }
    }

    /// Note the screening-queue depth observed after an enqueue.
    pub fn note_queue_depth(&mut self, depth: usize) {
        self.queue_highwater = self.queue_highwater.max(depth);
    }

    pub fn note_respawn(&mut self) {
        self.worker_respawns += 1;
    }

    pub fn worker_respawns(&self) -> u64 {
        self.worker_respawns
    }

    /// Count one cancelled screening job (queued or mid-screen).
    pub fn note_cancelled(&mut self) {
        self.jobs_cancelled += 1;
    }

    pub fn jobs_cancelled(&self) -> u64 {
        self.jobs_cancelled
    }

    /// Count one failed WAL append (the mutation it carried was rejected).
    pub fn note_wal_append_failure(&mut self) {
        self.wal_append_failures += 1;
    }

    /// Count one failed snapshot write.
    pub fn note_snapshot_failure(&mut self) {
        self.snapshot_failures += 1;
    }

    /// Count one transition into degraded (read-only) mode.
    pub fn note_degraded_entry(&mut self) {
        self.degraded_entries += 1;
    }

    /// Count one recovery back to normal mode.
    pub fn note_degraded_recovery(&mut self) {
        self.degraded_recoveries += 1;
    }

    /// Count one failed persistence probe while degraded.
    pub fn note_probe_failure(&mut self) {
        self.probe_failures += 1;
    }

    /// Count push events queued to subscriber connections.
    pub fn note_events_pushed(&mut self, n: u64) {
        self.events_pushed += n;
    }

    /// Count push events shed under backpressure.
    pub fn note_events_dropped(&mut self, n: u64) {
        self.events_dropped += n;
    }

    /// Count one connection dropped for consuming responses too slowly.
    pub fn note_slow_consumer_disconnect(&mut self) {
        self.slow_consumer_disconnects += 1;
    }

    /// Record a closing connection's write-buffer high-water mark.
    pub fn record_write_buffer_peak(&mut self, bytes: u64) {
        self.write_buffer_peak.record(bytes);
    }

    /// Point-in-time JSON-ready digest (the METRICS payload).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            full_screens: (!self.full.is_empty()).then(|| self.full.summaries()),
            delta_screens: (!self.delta.is_empty()).then(|| self.delta.summaries()),
            advance_tails: (!self.advance.is_empty()).then(|| self.advance.summaries()),
            wal_fsync_ms: (!self.wal_fsync.is_empty()).then(|| self.wal_fsync.summary(US_TO_MS)),
            snapshot_write_ms: (!self.snapshot_write.is_empty())
                .then(|| self.snapshot_write.summary(US_TO_MS)),
            snapshot_bytes: (!self.snapshot_bytes.is_empty())
                .then(|| self.snapshot_bytes.summary(1.0)),
            snapshot_build_ms: (!self.snapshot_build.is_empty())
                .then(|| self.snapshot_build.summary(US_TO_MS)),
            worker_screen_ms: self
                .worker_jobs
                .iter()
                .filter(|(_, h)| !h.is_empty())
                .map(|(name, h)| (name.clone(), h.summary(US_TO_MS)))
                .collect(),
            requests: self.requests.clone(),
            queue_highwater: self.queue_highwater,
            worker_respawns: self.worker_respawns,
            jobs_cancelled: self.jobs_cancelled,
            wal_append_failures: self.wal_append_failures,
            snapshot_failures: self.snapshot_failures,
            degraded_entries: self.degraded_entries,
            degraded_recoveries: self.degraded_recoveries,
            probe_failures: self.probe_failures,
            filter_chain: self.filter_chain,
            shard_full_step_us: self
                .shard_full
                .iter()
                .map(|(shard, h)| (*shard, h.summary(1.0)))
                .collect(),
            shard_delta_step_us: self
                .shard_delta
                .iter()
                .map(|(shard, h)| (*shard, h.summary(1.0)))
                .collect(),
            dirty_shards_per_snapshot: (!self.dirty_shards.is_empty())
                .then(|| self.dirty_shards.summary(1.0)),
            boundary_entries: self.boundary_entries,
            mirrored_inserts: self.mirrored_inserts,
            // A registry only counts; the daemon layer overwrites this
            // with the live subscription count when serving METRICS.
            subscribers: 0,
            events_pushed: self.events_pushed,
            events_dropped: self.events_dropped,
            slow_consumer_disconnects: self.slow_consumer_disconnects,
            write_buffer_peak_bytes: (!self.write_buffer_peak.is_empty())
                .then(|| self.write_buffer_peak.summary(1.0)),
        }
    }

    /// One-line digest for STATUS and the periodic `--metrics-every` log.
    pub fn one_line(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if !self.full.is_empty() {
            parts.push(format!(
                "full p50/p99 {:.1}/{:.1}ms ×{}",
                self.full.total.p50() as f64 * US_TO_MS,
                self.full.total.p99() as f64 * US_TO_MS,
                self.full.count()
            ));
        }
        if !self.delta.is_empty() {
            parts.push(format!(
                "delta p50/p99 {:.1}/{:.1}ms ×{}",
                self.delta.total.p50() as f64 * US_TO_MS,
                self.delta.total.p99() as f64 * US_TO_MS,
                self.delta.count()
            ));
        }
        if !self.wal_fsync.is_empty() {
            parts.push(format!(
                "wal fsync p99 {:.2}ms",
                self.wal_fsync.p99() as f64 * US_TO_MS
            ));
        }
        if !self.shard_full.is_empty() || !self.shard_delta.is_empty() {
            let occupied: std::collections::BTreeSet<u32> = self
                .shard_full
                .keys()
                .chain(self.shard_delta.keys())
                .copied()
                .collect();
            parts.push(format!(
                "shards {} occupied, boundary {}, mirrored {}",
                occupied.len(),
                self.boundary_entries,
                self.mirrored_inserts
            ));
        }
        if parts.is_empty() {
            parts.push("no screens yet".to_string());
        }
        let errors: u64 = self.requests.values().map(|c| c.errors).sum();
        parts.push(format!(
            "queue hw {}, respawns {}, cancelled {}, errors {}",
            self.queue_highwater, self.worker_respawns, self.jobs_cancelled, errors
        ));
        // Push traffic only shows up once someone subscribed, keeping the
        // request/response-only digest unchanged.
        if self.events_pushed + self.events_dropped + self.slow_consumer_disconnects > 0 {
            parts.push(format!(
                "pushed {}, shed {}, slow-consumer drops {}",
                self.events_pushed, self.events_dropped, self.slow_consumer_disconnects
            ));
        }
        // Persistence trouble is rare; mention it only once it happened so
        // the healthy digest stays short.
        if self.wal_append_failures + self.snapshot_failures + self.degraded_entries > 0 {
            parts.push(format!(
                "wal fails {}, snap fails {}, degraded {}/{} recovered",
                self.wal_append_failures,
                self.snapshot_failures,
                self.degraded_recoveries,
                self.degraded_entries
            ));
        }
        parts.join("; ")
    }
}

/// Serialized METRICS payload: quantile digests (milliseconds for times)
/// plus counters. Empty histograms are omitted rather than zero-filled.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Per-phase quantiles over full screens.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub full_screens: Option<PhaseSummaries>,
    /// Per-phase quantiles over delta screens.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub delta_screens: Option<PhaseSummaries>,
    /// Per-phase quantiles over ADVANCE tail screens.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub advance_tails: Option<PhaseSummaries>,
    /// WAL append (fsync) latency quantiles, ms.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub wal_fsync_ms: Option<HistogramSummary>,
    /// Snapshot write duration quantiles, ms.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub snapshot_write_ms: Option<HistogramSummary>,
    /// Snapshot size quantiles, bytes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub snapshot_bytes: Option<HistogramSummary>,
    /// Screening-job capture (snapshot build) quantiles, ms.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub snapshot_build_ms: Option<HistogramSummary>,
    /// Per-worker screening-job wall-time quantiles, ms.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub worker_screen_ms: BTreeMap<String, HistogramSummary>,
    /// Ok/error counts per command word.
    #[serde(default)]
    pub requests: BTreeMap<String, RequestCounter>,
    /// Screening-queue depth high-water mark.
    #[serde(default)]
    pub queue_highwater: usize,
    /// Screening workers respawned after dying.
    #[serde(default)]
    pub worker_respawns: u64,
    /// Screening jobs cancelled via CANCEL (queued or mid-screen).
    #[serde(default)]
    pub jobs_cancelled: u64,
    /// WAL appends that failed (each rejected one mutation).
    #[serde(default)]
    pub wal_append_failures: u64,
    /// Snapshot writes that failed (retried on the next mutation).
    #[serde(default)]
    pub snapshot_failures: u64,
    /// Transitions into degraded (read-only) mode.
    #[serde(default)]
    pub degraded_entries: u64,
    /// Recoveries back to normal mode.
    #[serde(default)]
    pub degraded_recoveries: u64,
    /// Persistence probes that failed while degraded.
    #[serde(default)]
    pub probe_failures: u64,
    /// Summed filter-chain counters over all hybrid screens since startup.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub filter_chain: Option<FilterStatsSnapshot>,
    /// Per-shard extraction-step quantiles over sharded full screens, µs.
    /// Only shards that held satellites appear.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub shard_full_step_us: BTreeMap<u32, HistogramSummary>,
    /// Per-shard extraction-step quantiles over sharded delta screens, µs.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub shard_delta_step_us: BTreeMap<u32, HistogramSummary>,
    /// Shard chunks rewritten per snapshot write (multi-shard layouts only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dirty_shards_per_snapshot: Option<HistogramSummary>,
    /// Cross-shard candidate entries found via boundary mirroring.
    #[serde(default)]
    pub boundary_entries: u64,
    /// Satellites mirrored into neighbouring shards' grids.
    #[serde(default)]
    pub mirrored_inserts: u64,
    /// Live subscriptions at snapshot time (filled by the daemon layer).
    #[serde(default)]
    pub subscribers: usize,
    /// Conjunction push events queued to subscribers since startup.
    #[serde(default)]
    pub events_pushed: u64,
    /// Push events shed under backpressure.
    #[serde(default)]
    pub events_dropped: u64,
    /// Connections dropped for consuming responses too slowly.
    #[serde(default)]
    pub slow_consumer_disconnects: u64,
    /// Write-buffer high-water marks across closed connections, bytes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub write_buffer_peak_bytes: Option<HistogramSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{DELTA_VARIANT, HYBRID_DELTA_VARIANT};

    fn timings(ms: u64) -> PhaseTimings {
        PhaseTimings {
            insertion: Duration::from_millis(ms),
            pair_extraction: Duration::from_millis(ms),
            filters: Duration::ZERO,
            refinement: Duration::from_millis(ms),
            total: Duration::from_millis(3 * ms),
        }
    }

    #[test]
    fn screens_split_by_variant() {
        let mut m = MetricsRegistry::new();
        m.record_screen("grid", &timings(10));
        m.record_screen("grid", &timings(20));
        m.record_screen(DELTA_VARIANT, &timings(2));
        m.record_screen("hybrid", &timings(15));
        m.record_screen(HYBRID_DELTA_VARIANT, &timings(3));
        let snap = m.snapshot();
        assert_eq!(snap.full_screens.unwrap().screens, 3);
        assert_eq!(
            snap.delta_screens.unwrap().screens,
            2,
            "hybrid-delta lands in the delta series"
        );
        assert!(snap.advance_tails.is_none());
        assert!(snap.wal_fsync_ms.is_none());
    }

    #[test]
    fn filter_chain_counters_accumulate_across_screens() {
        let mut m = MetricsRegistry::new();
        assert!(
            m.snapshot().filter_chain.is_none(),
            "grid-only daemons omit it"
        );
        let stats = FilterStatsSnapshot {
            tested: 10,
            excluded_apsis: 4,
            excluded_path: 2,
            excluded_time: 1,
            coplanar: 1,
            kept: 2,
        };
        m.record_filter_chain(&stats);
        m.record_filter_chain(&stats);
        let total = m.snapshot().filter_chain.unwrap();
        assert_eq!(total.tested, 20);
        assert_eq!(total.excluded_apsis, 8);
        assert_eq!(total.kept, 4);
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.filter_chain, Some(total));
    }

    #[test]
    fn counters_and_highwater_accumulate() {
        let mut m = MetricsRegistry::new();
        m.count_request("ADD", true);
        m.count_request("ADD", true);
        m.count_request("ADD", false);
        m.note_queue_depth(1);
        m.note_queue_depth(5);
        m.note_queue_depth(2);
        m.note_respawn();
        m.note_cancelled();
        m.note_cancelled();
        let snap = m.snapshot();
        assert_eq!(
            snap.requests.get("ADD"),
            Some(&RequestCounter { ok: 2, errors: 1 })
        );
        assert_eq!(snap.queue_highwater, 5);
        assert_eq!(snap.worker_respawns, 1);
        assert_eq!(snap.jobs_cancelled, 2);
    }

    #[test]
    fn worker_and_capture_histograms_key_by_name() {
        let mut m = MetricsRegistry::new();
        m.record_snapshot_build(Duration::from_micros(50));
        m.record_worker_job("worker-0", Duration::from_millis(8));
        m.record_worker_job("worker-0", Duration::from_millis(12));
        m.record_worker_job("worker-1", Duration::from_millis(3));
        let snap = m.snapshot();
        assert_eq!(snap.snapshot_build_ms.unwrap().count, 1);
        assert_eq!(snap.worker_screen_ms.len(), 2);
        assert_eq!(snap.worker_screen_ms["worker-0"].count, 2);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.worker_screen_ms["worker-1"].count, 1);
    }

    #[test]
    fn shard_stats_merge_by_shard_and_roundtrip() {
        use kessler_core::ShardScreenStats;
        let mut m = MetricsRegistry::new();
        assert!(m.snapshot().shard_full_step_us.is_empty());

        let mut stats = ShardScreenStats::new(4);
        stats.step_us[0].record(100);
        stats.step_us[2].record(300);
        stats.boundary_entries = 5;
        stats.mirrored_inserts = 7;
        m.record_shard_screen(false, &stats);
        m.record_shard_screen(true, &stats);
        m.record_shard_screen(false, &stats);
        let wrote = |chunks, shard_count| Written {
            bytes: 1,
            chunks,
            shard_count,
        };
        m.record_snapshot(Duration::from_millis(1), &wrote(3, 4));
        // A 1×1 layout's checkpoints are not "dirty shard" samples.
        m.record_snapshot(Duration::from_millis(1), &wrote(1, 1));

        let snap = m.snapshot();
        // Shards 1 and 3 never recorded a step; they must stay absent.
        assert_eq!(
            snap.shard_full_step_us.keys().copied().collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(snap.shard_full_step_us[&0].count, 2);
        assert_eq!(snap.shard_delta_step_us[&2].count, 1);
        assert_eq!(snap.boundary_entries, 15);
        assert_eq!(snap.mirrored_inserts, 21);
        let dirty = snap.dirty_shards_per_snapshot.as_ref().unwrap();
        assert_eq!((dirty.count, dirty.min, dirty.max), (1, 3.0, 3.0));
        assert_eq!(snap.snapshot_bytes.as_ref().unwrap().count, 2);

        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shard_full_step_us[&2].count, 2);
        assert_eq!(back.boundary_entries, 15);
        // Payloads from pre-sharding servers default to empty.
        let back: MetricsSnapshot = serde_json::from_str("{}").unwrap();
        assert!(back.shard_full_step_us.is_empty());
        assert_eq!(back.mirrored_inserts, 0);

        let line = m.one_line();
        assert!(line.contains("shards 2 occupied"), "{line}");
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut m = MetricsRegistry::new();
        m.record_screen("grid", &timings(10));
        m.record_wal_fsync(Duration::from_micros(800));
        let written = Written {
            bytes: 12_345,
            chunks: 1,
            shard_count: 1,
        };
        m.record_snapshot(Duration::from_millis(4), &written);
        m.count_request("SCREEN", true);
        let snap = m.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.full_screens.unwrap().screens, 1);
        let fsync = back.wal_fsync_ms.unwrap();
        assert_eq!(fsync.count, 1);
        assert!((fsync.min - 0.8).abs() < 1e-9, "{fsync:?}");
        assert_eq!(back.snapshot_bytes.unwrap().max, 12_345.0);
    }

    #[test]
    fn one_line_mentions_what_exists() {
        let mut m = MetricsRegistry::new();
        assert!(m.one_line().contains("no screens yet"));
        m.record_screen("grid", &timings(10));
        m.record_screen(DELTA_VARIANT, &timings(1));
        let line = m.one_line();
        assert!(line.contains("full"), "{line}");
        assert!(line.contains("delta"), "{line}");
        assert!(line.contains("queue hw 0"), "{line}");
        assert!(line.contains("cancelled 0"), "{line}");
        assert!(
            !line.contains("wal fails"),
            "healthy daemons omit the resilience part: {line}"
        );
    }

    #[test]
    fn push_counters_accumulate_and_roundtrip() {
        let mut m = MetricsRegistry::new();
        assert!(
            !m.one_line().contains("pushed"),
            "request/response-only daemons omit the push part"
        );
        m.note_events_pushed(5);
        m.note_events_pushed(2);
        m.note_events_dropped(1);
        m.note_slow_consumer_disconnect();
        m.record_write_buffer_peak(4096);
        m.record_write_buffer_peak(128);
        let snap = m.snapshot();
        assert_eq!(snap.events_pushed, 7);
        assert_eq!(snap.events_dropped, 1);
        assert_eq!(snap.slow_consumer_disconnects, 1);
        assert_eq!(snap.subscribers, 0, "gauge belongs to the daemon layer");
        let peaks = snap.write_buffer_peak_bytes.unwrap();
        assert_eq!(peaks.count, 2);
        assert_eq!(peaks.max, 4096.0);

        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.events_pushed, 7);
        assert_eq!(back.write_buffer_peak_bytes.unwrap().count, 2);
        // Payloads from servers predating SUBSCRIBE default to zero.
        let back: MetricsSnapshot = serde_json::from_str("{}").unwrap();
        assert_eq!(back.events_pushed, 0);
        assert!(back.write_buffer_peak_bytes.is_none());

        let line = m.one_line();
        assert!(
            line.contains("pushed 7, shed 1, slow-consumer drops 1"),
            "{line}"
        );
    }

    #[test]
    fn resilience_counters_accumulate_and_roundtrip() {
        let mut m = MetricsRegistry::new();
        m.note_wal_append_failure();
        m.note_wal_append_failure();
        m.note_snapshot_failure();
        m.note_degraded_entry();
        m.note_probe_failure();
        m.note_probe_failure();
        m.note_probe_failure();
        m.note_degraded_recovery();
        let snap = m.snapshot();
        assert_eq!(snap.wal_append_failures, 2);
        assert_eq!(snap.snapshot_failures, 1);
        assert_eq!(snap.degraded_entries, 1);
        assert_eq!(snap.degraded_recoveries, 1);
        assert_eq!(snap.probe_failures, 3);

        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.wal_append_failures, 2);
        assert_eq!(back.probe_failures, 3);
        // Payloads from servers predating the counters default to zero.
        let back: MetricsSnapshot = serde_json::from_str("{}").unwrap();
        assert_eq!(back.wal_append_failures, 0);

        let line = m.one_line();
        assert!(line.contains("wal fails 2"), "{line}");
        assert!(line.contains("snap fails 1"), "{line}");
        assert!(line.contains("degraded 1/1 recovered"), "{line}");
    }
}
