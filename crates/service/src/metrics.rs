//! Rolling service metrics: per-phase screening histograms, durability
//! latencies, request/error counters, queue pressure.
//!
//! STATUS carries only the *last* screen's [`PhaseTimings`]; this registry
//! keeps the full distribution (p50/p90/p99 over every screen since
//! startup, `ServiceState::commit` recording each one, those a WAL replay
//! runs again included) per phase, separately for full and delta screens
//! — the operational counterpart of the paper's §V-C.1 per-phase
//! breakdowns. It
//! also times every WAL fsync and every checkpoint (`ServiceState::checkpoint`
//! records each one, the one folding a replayed WAL tail in at startup
//! included), counts answers and errors per command, and records
//! screening-queue pressure and worker respawns.
//!
//! The registry stores its counters as served: they live in a
//! [`MetricsSnapshot`], which [`MetricsRegistry::snapshot`] completes with
//! the histograms' digests for the `METRICS` verb. Each answer is counted
//! once, where it leaves for its connection: the event loop for an inline
//! answer, the worker's owed-response guard for a worker's answer, and
//! `Server::preload` for its ADDs.

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
/// The code that counts writes the counters straight into `served`; the
/// distributions live beside it and [`MetricsRegistry::snapshot`] digests
/// them.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Every counter, in the shape METRICS serves it. Its digest fields
    /// stay empty, and `subscribers` stays 0: the daemon layer fills it in.
    pub(crate) served: MetricsSnapshot,
    /// Phase distributions over cold full screens (SCREEN and cold DELTA).
    pub(crate) full: PhaseSeries,
    /// Phase distributions over warm delta screens.
    pub(crate) delta: PhaseSeries,
    /// Tail-screen distributions from ADVANCE window slides.
    pub(crate) advance: PhaseSeries,
    /// WAL append (write + flush + fsync) latency, µs.
    pub(crate) wal_fsync: Histogram,
    /// Snapshot write + rotate + WAL-compaction duration, µs.
    pub(crate) snapshot_write: Histogram,
    /// Snapshot sizes on disk, bytes.
    pub(crate) snapshot_bytes: Histogram,
    /// Screening-job capture under the state lock, µs — the price every
    /// enqueue pays, which the copy-on-write snapshots keep near zero.
    pub(crate) snapshot_build: Histogram,
    /// Per-worker screening-job wall times, µs, keyed by worker name.
    pub(crate) worker_jobs: BTreeMap<String, Histogram>,
    /// Chunks rewritten by each successful snapshot write under a
    /// multi-shard layout — how incremental the snapshots actually are.
    pub(crate) dirty_shards: Histogram,
    /// Per-connection write-buffer high-water marks, bytes, recorded as
    /// each connection closes.
    pub(crate) write_buffer_peak: Histogram,
}

impl MetricsRegistry {
    /// Record one screen's phase breakdown in the delta series if a delta
    /// screen ran, else in the full series.
    pub fn record_screen(&mut self, delta: bool, timings: &PhaseTimings) {
        if delta {
            self.delta.record(timings);
        } else {
            self.full.record(timings);
        }
    }

    /// Fold one hybrid screen's filter-chain counters into the running
    /// totals.
    pub fn record_filter_chain(&mut self, stats: &FilterStatsSnapshot) {
        self.served.filter_chain = Some(self.served.filter_chain.unwrap_or_default() + *stats);
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

    /// Count one answered request by command word.
    pub fn count_request(&mut self, kind: &str, ok: bool) {
        let counter = self.served.requests.entry(kind.to_string()).or_default();
        if ok {
            counter.ok += 1;
        } else {
            counter.errors += 1;
        }
    }

    /// Point-in-time JSON-ready digest (the METRICS payload): the
    /// distributions digested, everything else as stored.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let digest = |h: &Histogram, scale: f64| (!h.is_empty()).then(|| h.summary(scale));
        MetricsSnapshot {
            full_screens: (!self.full.is_empty()).then(|| self.full.summaries()),
            delta_screens: (!self.delta.is_empty()).then(|| self.delta.summaries()),
            advance_tails: (!self.advance.is_empty()).then(|| self.advance.summaries()),
            wal_fsync_ms: digest(&self.wal_fsync, US_TO_MS),
            snapshot_write_ms: digest(&self.snapshot_write, US_TO_MS),
            snapshot_bytes: digest(&self.snapshot_bytes, 1.0),
            snapshot_build_ms: digest(&self.snapshot_build, US_TO_MS),
            worker_screen_ms: self
                .worker_jobs
                .iter()
                .filter(|(_, h)| !h.is_empty())
                .map(|(name, h)| (name.clone(), h.summary(US_TO_MS)))
                .collect(),
            dirty_shards_per_snapshot: digest(&self.dirty_shards, 1.0),
            write_buffer_peak_bytes: digest(&self.write_buffer_peak, 1.0),
            ..self.served.clone()
        }
    }

    /// One-line digest for STATUS and the periodic `--metrics-every` log.
    pub fn one_line(&self) -> String {
        let served = &self.served;
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
        if parts.is_empty() {
            parts.push("no screens yet".to_string());
        }
        let errors: u64 = served.requests.values().map(|c| c.errors).sum();
        parts.push(format!(
            "queue hw {}, respawns {}, cancelled {}, errors {}",
            served.queue_highwater, served.worker_respawns, served.jobs_cancelled, errors
        ));
        // Push traffic only shows up once someone subscribed, keeping the
        // request/response-only digest unchanged.
        if served.events_pushed + served.events_dropped + served.slow_consumer_disconnects > 0 {
            parts.push(format!(
                "pushed {}, shed {}, slow-consumer drops {}",
                served.events_pushed, served.events_dropped, served.slow_consumer_disconnects
            ));
        }
        // Persistence trouble is rare; mention it only once it happened so
        // the healthy digest stays short.
        if served.wal_append_failures + served.snapshot_failures + served.degraded_entries > 0 {
            parts.push(format!(
                "wal fails {}, snap fails {}, degraded {}/{} recovered",
                served.wal_append_failures,
                served.snapshot_failures,
                served.degraded_recoveries,
                served.degraded_entries
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
    /// Shard chunks rewritten per snapshot write (multi-shard layouts only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dirty_shards_per_snapshot: Option<HistogramSummary>,
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
        let mut m = MetricsRegistry::default();
        m.record_screen(false, &timings(10));
        m.record_screen(false, &timings(20));
        m.record_screen(true, &timings(2));
        m.record_screen(false, &timings(15));
        m.record_screen(true, &timings(3));
        let snap = m.snapshot();
        assert_eq!(snap.full_screens.unwrap().screens, 3);
        assert_eq!(
            snap.delta_screens.unwrap().screens,
            2,
            "every delta screen lands in the delta series"
        );
        assert!(snap.advance_tails.is_none());
        assert!(snap.wal_fsync_ms.is_none());
    }

    #[test]
    fn filter_chain_counters_accumulate_across_screens() {
        let mut m = MetricsRegistry::default();
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
        let mut m = MetricsRegistry::default();
        m.count_request("ADD", true);
        m.count_request("ADD", true);
        m.count_request("ADD", false);
        for depth in [1, 5, 2] {
            m.served.queue_highwater = m.served.queue_highwater.max(depth);
        }
        m.served.worker_respawns += 1;
        m.served.jobs_cancelled += 2;
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
        let mut m = MetricsRegistry::default();
        m.snapshot_build.record_duration(Duration::from_micros(50));
        for (worker, ms) in [("worker-0", 8), ("worker-0", 12), ("worker-1", 3)] {
            let jobs = m.worker_jobs.entry(worker.to_string()).or_default();
            jobs.record_duration(Duration::from_millis(ms));
        }
        let snap = m.snapshot();
        assert_eq!(snap.snapshot_build_ms.unwrap().count, 1);
        assert_eq!(snap.worker_screen_ms.len(), 2);
        assert_eq!(snap.worker_screen_ms["worker-0"].count, 2);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.worker_screen_ms["worker-1"].count, 1);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut m = MetricsRegistry::default();
        m.record_screen(false, &timings(10));
        m.wal_fsync.record_duration(Duration::from_micros(800));
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
        // A 1×1 layout's checkpoints are not "dirty shard" samples.
        assert!(back.dirty_shards_per_snapshot.is_none());
    }

    #[test]
    fn one_line_mentions_what_exists() {
        let mut m = MetricsRegistry::default();
        assert!(m.one_line().contains("no screens yet"));
        m.record_screen(false, &timings(10));
        m.record_screen(true, &timings(1));
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
        let mut m = MetricsRegistry::default();
        assert!(
            !m.one_line().contains("pushed"),
            "request/response-only daemons omit the push part"
        );
        m.served.events_pushed += 5;
        m.served.events_pushed += 2;
        m.served.events_dropped += 1;
        m.served.slow_consumer_disconnects += 1;
        m.write_buffer_peak.record(4096);
        m.write_buffer_peak.record(128);
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
        let mut m = MetricsRegistry::default();
        m.served.wal_append_failures += 2;
        m.served.snapshot_failures += 1;
        m.served.degraded_entries += 1;
        m.served.probe_failures += 3;
        m.served.degraded_recoveries += 1;
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

    /// The METRICS wire shape, pinned to the byte: every series, histogram,
    /// map and counter is touched with fixed values (distinct per counter,
    /// no clock readings), so a renamed, reordered or un-omitted field
    /// fails here. The golden string was generated at the commit before the
    /// registry stored its counters as served.
    #[test]
    fn metrics_wire_shape_is_pinned() {
        let mut m = MetricsRegistry::default();
        m.record_screen(false, &timings(10));
        m.record_screen(true, &timings(2));
        m.advance.record(&timings(4));
        m.record_filter_chain(&FilterStatsSnapshot {
            tested: 10,
            excluded_apsis: 4,
            excluded_path: 2,
            excluded_time: 1,
            coplanar: 1,
            kept: 2,
        });
        m.wal_fsync.record_duration(Duration::from_micros(800));
        let written = Written {
            bytes: 12_345,
            chunks: 2,
            shard_count: 4,
        };
        m.record_snapshot(Duration::from_millis(4), &written);
        m.snapshot_build.record_duration(Duration::from_micros(50));
        let jobs = m.worker_jobs.entry("worker-0".to_string()).or_default();
        jobs.record_duration(Duration::from_millis(8));
        m.write_buffer_peak.record(4096);
        m.count_request("ADD", true);
        m.count_request("SCREEN", false);
        let served = &mut m.served;
        served.queue_highwater = 3;
        served.worker_respawns = 1;
        served.jobs_cancelled = 2;
        served.wal_append_failures = 4;
        served.snapshot_failures = 5;
        served.degraded_entries = 6;
        served.degraded_recoveries = 7;
        served.probe_failures = 8;
        served.events_pushed = 9;
        served.events_dropped = 10;
        served.slow_consumer_disconnects = 11;
        assert_eq!(serde_json::to_string(&m.snapshot()).unwrap(), GOLDEN);
    }

    const GOLDEN: &str = r#"{"full_screens":{"screens":1,"insertion":{"count":1,"min":10.0,"max":10.0,"mean":10.0,"p50":10.0,"p90":10.0,"p99":10.0},"pair_extraction":{"count":1,"min":10.0,"max":10.0,"mean":10.0,"p50":10.0,"p90":10.0,"p99":10.0},"filters":{"count":1,"min":0.0,"max":0.0,"mean":0.0,"p50":0.0,"p90":0.0,"p99":0.0},"refinement":{"count":1,"min":10.0,"max":10.0,"mean":10.0,"p50":10.0,"p90":10.0,"p99":10.0},"total":{"count":1,"min":30.0,"max":30.0,"mean":30.0,"p50":30.0,"p90":30.0,"p99":30.0}},"delta_screens":{"screens":1,"insertion":{"count":1,"min":2.0,"max":2.0,"mean":2.0,"p50":2.0,"p90":2.0,"p99":2.0},"pair_extraction":{"count":1,"min":2.0,"max":2.0,"mean":2.0,"p50":2.0,"p90":2.0,"p99":2.0},"filters":{"count":1,"min":0.0,"max":0.0,"mean":0.0,"p50":0.0,"p90":0.0,"p99":0.0},"refinement":{"count":1,"min":2.0,"max":2.0,"mean":2.0,"p50":2.0,"p90":2.0,"p99":2.0},"total":{"count":1,"min":6.0,"max":6.0,"mean":6.0,"p50":6.0,"p90":6.0,"p99":6.0}},"advance_tails":{"screens":1,"insertion":{"count":1,"min":4.0,"max":4.0,"mean":4.0,"p50":4.0,"p90":4.0,"p99":4.0},"pair_extraction":{"count":1,"min":4.0,"max":4.0,"mean":4.0,"p50":4.0,"p90":4.0,"p99":4.0},"filters":{"count":1,"min":0.0,"max":0.0,"mean":0.0,"p50":0.0,"p90":0.0,"p99":0.0},"refinement":{"count":1,"min":4.0,"max":4.0,"mean":4.0,"p50":4.0,"p90":4.0,"p99":4.0},"total":{"count":1,"min":12.0,"max":12.0,"mean":12.0,"p50":12.0,"p90":12.0,"p99":12.0}},"wal_fsync_ms":{"count":1,"min":0.8,"max":0.8,"mean":0.8,"p50":0.8,"p90":0.8,"p99":0.8},"snapshot_write_ms":{"count":1,"min":4.0,"max":4.0,"mean":4.0,"p50":4.0,"p90":4.0,"p99":4.0},"snapshot_bytes":{"count":1,"min":12345.0,"max":12345.0,"mean":12345.0,"p50":12345.0,"p90":12345.0,"p99":12345.0},"snapshot_build_ms":{"count":1,"min":0.05,"max":0.05,"mean":0.05,"p50":0.05,"p90":0.05,"p99":0.05},"worker_screen_ms":{"worker-0":{"count":1,"min":8.0,"max":8.0,"mean":8.0,"p50":8.0,"p90":8.0,"p99":8.0}},"requests":{"ADD":{"ok":1,"errors":0},"SCREEN":{"ok":0,"errors":1}},"queue_highwater":3,"worker_respawns":1,"jobs_cancelled":2,"wal_append_failures":4,"snapshot_failures":5,"degraded_entries":6,"degraded_recoveries":7,"probe_failures":8,"filter_chain":{"tested":10,"excluded_apsis":4,"excluded_path":2,"excluded_time":1,"coplanar":1,"kept":2},"dirty_shards_per_snapshot":{"count":1,"min":2.0,"max":2.0,"mean":2.0,"p50":2.0,"p90":2.0,"p99":2.0},"subscribers":0,"events_pushed":9,"events_dropped":10,"slow_consumer_disconnects":11,"write_buffer_peak_bytes":{"count":1,"min":4096.0,"max":4096.0,"mean":4096.0,"p50":4096.0,"p90":4096.0,"p99":4096.0}}"#;
}
