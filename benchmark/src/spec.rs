//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root is this table written out (`kessler-benchmark spec`); a unit test
//! keeps the two identical.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const COLD_GRID: &str = "cold_grid";
pub const COLD_HYBRID: &str = "cold_hybrid";
pub const SERVE_DELTA: &str = "serve_delta";
pub const DURABLE_INGEST: &str = "durable_ingest";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: COLD_GRID,
        why: "one-shot grid screen, n=32000, 150 steps of 1 s: propagation and grid insertion dominate, filters and service do nothing",
    },
    Workload {
        name: COLD_HYBRID,
        why: "one-shot hybrid screen, same population: 9x larger cells and steps, crowded-cell query, filter chain and windowed refinement dominate",
    },
    Workload {
        name: SERVE_DELTA,
        why: "live daemon, n=16000, flat grid, no persistence: bursts of 32 UPDATEs absorbed by DELTA, ADVANCE, a subscriber and STATUS probes beside the writes",
    },
    Workload {
        name: DURABLE_INGEST,
        why: "live daemon with WAL, sharded snapshots and hybrid screening: 10000 durable ADDs, sharded SCREEN and DELTA, crash-image recoveries; write-heavy",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const SCREEN_S: &str = "screen_s";
pub const REQUEST_MS: &str = "request_ms";
pub const THROUGHPUT_PER_S: &str = "throughput_per_s";

/// Every workload reports every one of these (the driver's contract), so
/// each is defined by role, with the workload's own reading in the README:
/// `request_ms` is `screen_s` on the cold workloads, `absorb_ms` on
/// `serve_delta` and `recovery_s` on `durable_ingest`; `throughput_per_s`
/// is satellite-steps screened, UPDATEs absorbed, and satellites recovered
/// per second.
///
/// The bounds are the widest the contract allows. On the host the first
/// results were taken on, ten runs of one binary spread by 6 to 15 % of the
/// median on the CPU-bound metrics (quartile to quartile), and a bound is
/// only worth having at about three times the spread.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: SCREEN_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: REQUEST_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: THROUGHPUT_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Bounds the harness's own `compare` applies to the issue-named
/// operation metrics that the contract cannot carry as `end_to_end`
/// (each exists on one workload only).
pub const OPERATION_BOUNDS: [(&str, f64); 8] = [
    ("absorb_ms", 0.10),
    ("advance_ms", 0.10),
    ("ingest_per_s", 0.10),
    ("add_us", 0.10),
    ("client_add_us", 0.10),
    ("recovery_s", 0.10),
    ("wal_bytes_per_mutation", 0.01),
    ("disk_bytes_per_sat", 0.01),
];

pub const PER_LAYER: [Layer; 67] = [
    // Operation metrics under the names the issue gives them. A workload
    // that does not perform the operation reports 0.
    lower("absorb_ms", "ms"),
    lower("advance_ms", "ms"),
    higher("ingest_per_s", "1/s"),
    lower("add_us", "us"),
    lower("client_add_us", "us"),
    lower("recovery_s", "s"),
    lower("wal_bytes_per_mutation", "B"),
    lower("disk_bytes_per_sat", "B"),
    // orbits, grid: move screen_s on cold_grid most, absorb_ms on
    // serve_delta (delta re-propagates and re-bins all n).
    lower("orbits.kepler.solve_ns", "ns"),
    lower("orbits.propagate.ns_per_sat_step", "ns"),
    lower("orbits.propagate.bytes_per_sat_step", "B"),
    lower("grid.reset.ns_per_slot", "ns"),
    lower("grid.insert.ns_per_entry", "ns"),
    // grid query and pair set: cold_hybrid more than cold_grid.
    lower("grid.query.ns_per_entry", "ns"),
    lower("grid.query.pairs_per_step", "count"),
    lower("grid.pairset.insert_ns", "ns"),
    lower("grid.pairset.drain_ns_per_pair", "ns"),
    // filters, refinement: cold_hybrid only.
    lower("filters.chain.ns_per_pair", "ns"),
    lower("filters.chain.kept_ratio", "ratio"),
    lower("core.refine.ns_per_pair", "ns"),
    higher("core.refine.hit_ratio", "ratio"),
    lower("math.brent.minimize_ns", "ns"),
    // The screen's own phase split, beside the paper's §V-C.1 figures.
    lower("core.phase.insertion_pct", "%"),
    lower("core.phase.pair_extraction_pct", "%"),
    lower("core.phase.filters_pct", "%"),
    lower("core.phase.refinement_pct", "%"),
    lower("core.replay.residual_pct", "%"),
    higher("core.scaling.efficiency", "ratio"),
    // service codec, state machine, front end: ingest_per_s, add_us.
    lower("service.proto.decode_ns", "ns"),
    lower("service.proto.encode_ns", "ns"),
    lower("service.state.add_ns", "ns"),
    lower("service.state.update_ns", "ns"),
    lower("service.server.update_rtt_us.p50", "us"),
    lower("service.server.update_rtt_us.p99", "us"),
    lower("service.server.status_rtt_us.p50", "us"),
    higher("service.server.pipelined_update_per_s", "1/s"),
    lower("service.server.status_during_screen_us.p99", "us"),
    // delta engine, wire, scheduler: absorb_ms, advance_ms.
    lower("service.delta.full_ms", "ms"),
    lower("service.delta.delta_ms", "ms"),
    lower("service.delta.delta_over_full", "ratio"),
    higher("service.delta.useful_work_ratio", "ratio"),
    lower("service.delta.phase.insertion_ms", "ms"),
    lower("service.delta.phase.pair_extraction_ms", "ms"),
    lower("service.delta.phase.filters_ms", "ms"),
    lower("service.delta.phase.refinement_ms", "ms"),
    lower("service.wire.residual_ms", "ms"),
    lower("service.scheduler.advance_tail_ms", "ms"),
    lower("service.scheduler.advance_cold_gap", "count"),
    // executor and subscriptions: head-of-line and push behaviour.
    lower("service.exec.queue_highwater", "count"),
    higher("service.subs.events", "count"),
    lower("service.subs.events_dropped", "count"),
    lower("service.subs.lag_after_response_us", "us"),
    // WAL, snapshots, shards, client: durable_ingest only.
    lower("service.wal.append_fsync_us.p50", "us"),
    lower("service.wal.append_fsync_us.p99", "us"),
    lower("service.wal.frame_bytes", "B"),
    lower("service.persist.snapshot_ms", "ms"),
    lower("service.persist.snapshot_bytes", "B"),
    lower("service.persist.dirty_shards_per_snapshot", "count"),
    lower("service.persist.files", "count"),
    lower("service.persist.open_ms", "ms"),
    lower("service.persist.wal_tail_records", "count"),
    lower("service.shard.assign_ns", "ns"),
    lower("service.shard.mirror_ratio", "ratio"),
    lower("service.client.send_status_us", "us"),
    // set-up, the stand-in pool's own noise floor, the tracer's cost.
    lower("population.generate.ns_per_sat", "ns"),
    lower("offline.rayon.call_overhead_us", "us"),
    lower("trace.overhead_pct", "%"),
];

/// Which point of the repository's `BENCH_<pr>.json` trajectory this
/// harness writes.
pub const BENCH_ID: u32 = 11;

/// Seconds one contract run measures for.
pub const RUN_SECONDS: u32 = 15;

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n";
    out += "  \"paths\": [\"benchmark\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    out += "  \"workloads\": [\n";
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out += &format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        );
    }
    out += "  ],\n  \"end_to_end\": [\n";
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out += &format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        );
    }
    out += "  ],\n  \"per_layer\": [\n";
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out += &format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    out += "  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == SETUP_S && m.unit == "s" && m.better == Better::Lower));
        for (name, _) in OPERATION_BOUNDS {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `kessler-benchmark spec`"
        );
        let parsed: serde_json::Value = serde_json::from_str(&committed).unwrap();
        assert_eq!(
            parsed["per_layer"].as_array().unwrap().len(),
            PER_LAYER.len()
        );
    }
}
