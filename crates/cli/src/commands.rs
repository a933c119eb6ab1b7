//! Subcommand implementations.

use crate::args::Flags;
use kessler_core::{
    default_config_for, io, screener_for, MemoryModel, ScreeningConfig, ScreeningReport, Variant,
};
use kessler_orbits::KeplerElements;
use kessler_population::{tle as tle_mod, PopulationConfig, PopulationGenerator};

const USAGE: &str = "kessler — parallel satellite conjunction screening

USAGE
  kessler <subcommand> [flags]

SUBCOMMANDS
  generate   synthesise a population      --n N [--seed S] [--out FILE] [--csv]
  screen     run a screening variant      --variant V (--pop FILE | --n N)
             [--threshold KM] [--span S] [--sps S] [--threads T]
             [--json FILE] [--csv FILE]
  plan       memory/parallelism plan      --n N [--variant V] [--threshold KM]
             [--span S] [--sps S] [--memory-gib G]
  tle        parse a 2LE/3LE catalog      FILE [--stats]
  compare    accuracy across variants     --n N [--threshold KM] [--span S]
  serve      run the screening daemon     [--addr HOST:PORT] [--pop FILE | --n N]
             [--variant grid|hybrid (default grid)] screening pipeline
             [--threshold KM] [--span S] [--sps S] [--threads T]
             [--workers N (0 = auto)] screening worker pool size
             [--state-dir DIR] [--snapshot-every N] [--queue-depth N]
             [--shards BANDSxSHELLS | --shards default] chunk snapshots
             by orbital regime (a checkpoint rewrites only changed
             chunks)
             [--read-timeout SECS (0 = none)]
             [--metrics-every SECS (0 = off)] log a metrics digest to stderr
             with --state-dir, mutations are WAL-logged and state is
             recovered on restart (preload is skipped if state recovers)
  submit     send one daemon command      ACTION [--addr HOST:PORT] [--id I]
             [--a KM --e E --incl R --raan R --argp R --m R] [--dt S]
             [--req-id ID] tag the request (the CANCEL handle)
             [--json REQUEST] [--timeout SECS (0 = none, default 10)]
             bounds the connect and each reply
             [--retries N] retry transient failures with jittered
             exponential backoff; mutations are retried only when the
             daemon confirms the request was not applied
             ACTION: add | update | remove | screen | delta | advance
                     | cancel ID | tle FILE | subscribe
                     | status | metrics | shutdown
             `cancel ID` aborts the queued/in-flight job tagged ID;
             `tle FILE` streams a 2LE/3LE catalog into the daemon
             `subscribe (--all | --ids A,B,C) [--count N (0 = forever)]
             [--smoke]` streams conjunction push events (new / updated /
             retired) as screens commit; --smoke only proves the
             SUBSCRIBE/UNSUBSCRIBE handshake and exits
  info       version and build info

VARIANTS
  grid | hybrid | legacy | grid-gpusim | hybrid-gpusim";

pub fn print_usage() {
    println!("{USAGE}");
}

/// A subcommand: its name, the flags it accepts as space-separated
/// groups — any other `--flag` is refused before it runs, so a mistyped
/// one cannot fall back to a default — and what it runs.
pub type Subcommand = (&'static str, &'static [&'static str], Run);
type Run = fn(&Flags) -> Result<(), String>;

/// The flags [`load_or_generate`] reads.
const POPULATION: &str = "--pop --n --seed";
/// The flags [`build_config`] reads.
const CONFIG: &str = "--threshold --span --sps --threads";

pub const SUBCOMMANDS: &[Subcommand] = &[
    ("generate", &["--n --seed --out --csv"], generate),
    (
        "screen",
        &[POPULATION, CONFIG, "--variant --json --csv"],
        screen,
    ),
    ("plan", &[CONFIG, "--n --variant --memory-gib"], plan),
    ("tle", &["--stats"], tle),
    ("compare", &[POPULATION, CONFIG], compare),
    (
        "serve",
        &[
            POPULATION,
            CONFIG,
            "--addr --variant --workers --queue-depth --read-timeout --metrics-every",
            "--state-dir --snapshot-every --shards",
        ],
        serve,
    ),
    (
        "submit",
        &[
            "--addr --timeout --retries --req-id --json --id --dt",
            "--a --e --incl --raan --argp --m --all --ids --count --smoke",
        ],
        submit,
    ),
    ("info", &[], info),
];

fn load_or_generate(flags: &Flags) -> Result<Vec<KeplerElements>, String> {
    if let Some(path) = flags.value_of("--pop") {
        return io::load_population(path).map_err(|e| e.to_string());
    }
    let n = flags.usize_of("--n", 0)?;
    if n == 0 {
        return Err("provide --pop FILE or --n N".into());
    }
    let seed = flags.u64_of("--seed", PopulationConfig::default().seed)?;
    Ok(PopulationGenerator::new(PopulationConfig {
        seed,
        ..Default::default()
    })
    .generate(n))
}

/// The variant's paper defaults under the `--threshold`, `--span`, `--sps`
/// and `--threads` overrides.
fn build_config(flags: &Flags, variant: &str) -> Result<ScreeningConfig, String> {
    let threshold = flags.f64_of("--threshold", 2.0)?;
    let span = flags.f64_of("--span", 3_600.0)?;
    let mut config = default_config_for(variant, threshold, span)?;
    if let Some(sps) = flags.value_of("--sps") {
        config.seconds_per_sample = sps.parse().map_err(|_| "bad --sps".to_string())?;
    }
    if flags.value_of("--threads").is_some() {
        config.threads = Some(flags.usize_of("--threads", 0)?);
    }
    config.validate()?;
    Ok(config)
}

fn screen_with(
    variant: &str,
    config: ScreeningConfig,
    population: &[KeplerElements],
) -> Result<ScreeningReport, String> {
    Ok(screener_for(variant, config)?.screen(population))
}

fn print_report_summary(report: &ScreeningReport) {
    println!(
        "{}: {} satellites, {} candidate pairs, {} conjunctions / {} colliding pairs in {:.3} s",
        report.variant,
        report.n_satellites,
        report.candidate_pairs,
        report.conjunction_count(),
        report.colliding_pairs().len(),
        report.timings.total.as_secs_f64()
    );
}

fn generate(flags: &Flags) -> Result<(), String> {
    let n = flags.usize_of("--n", 0)?;
    if n == 0 {
        return Err("--n N is required".into());
    }
    let seed = flags.u64_of("--seed", PopulationConfig::default().seed)?;
    let population = PopulationGenerator::new(PopulationConfig {
        seed,
        ..Default::default()
    })
    .generate(n);
    match flags.value_of("--out") {
        Some(path) if flags.has("--csv") => {
            let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
            io::write_population_csv(file, &population).map_err(|e| e.to_string())?;
            println!("wrote {n} satellites (CSV) to {path}");
        }
        Some(path) => {
            io::save_population(path, &population).map_err(|e| e.to_string())?;
            println!("wrote {n} satellites (JSON) to {path}");
        }
        None => {
            io::write_population_csv(std::io::stdout(), &population).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn screen(flags: &Flags) -> Result<(), String> {
    let variant = flags.value_of("--variant").unwrap_or("grid").to_string();
    let population = load_or_generate(flags)?;
    let config = build_config(flags, &variant)?;
    let report = screen_with(&variant, config, &population)?;
    print_report_summary(&report);
    for c in report.conjunctions.iter().take(10) {
        println!(
            "  {:>6} vs {:>6}  TCA {:>10.2} s  PCA {:>8.3} km",
            c.id_lo, c.id_hi, c.tca, c.pca_km
        );
    }
    if report.conjunction_count() > 10 {
        println!("  … and {} more", report.conjunction_count() - 10);
    }
    if let Some(path) = flags.value_of("--json") {
        io::save_report(path, &report).map_err(|e| e.to_string())?;
        println!("report written to {path}");
    }
    if let Some(path) = flags.value_of("--csv") {
        let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
        io::write_conjunctions_csv(file, &report.conjunctions).map_err(|e| e.to_string())?;
        println!("conjunction CSV written to {path}");
    }
    Ok(())
}

fn plan(flags: &Flags) -> Result<(), String> {
    let n = flags.usize_of("--n", 0)?;
    if n == 0 {
        return Err("--n N is required".into());
    }
    let variant: Variant = flags.value_of("--variant").unwrap_or("hybrid").parse()?;
    let mut config = build_config(
        flags,
        if matches!(variant, Variant::Hybrid) {
            "hybrid"
        } else {
            "grid"
        },
    )?;
    let memory_gib = flags.f64_of("--memory-gib", 8.0)?;
    if !(memory_gib.is_finite() && memory_gib > 0.0) {
        return Err(format!(
            "bad value for --memory-gib: `{memory_gib}` (must be positive and finite)"
        ));
    }
    config.memory_budget_bytes = (memory_gib * 1024.0 * 1024.0 * 1024.0) as usize;

    let plan = MemoryModel::new(variant).plan(n, &config);
    println!(
        "memory / parallelism plan — {} variant, {} satellites",
        variant.label(),
        n
    );
    println!("  budget                 : {memory_gib:.1} GiB");
    println!(
        "  seconds per sample     : {}{}",
        plan.seconds_per_sample,
        if plan.sps_adjusted {
            "  (auto-reduced)"
        } else {
            ""
        }
    );
    println!("  cell size (Eq. 1)      : {:.1} km", plan.cell_size_km);
    println!(
        "  estimated conjunctions : {:.0} (Extra-P model)",
        plan.estimated_conjunctions
    );
    println!("  conjunction-map slots  : {}", plan.pair_capacity);
    println!(
        "  satellites (a_s)       : {:.1} MiB",
        plan.bytes_satellites as f64 / 1048576.0
    );
    println!(
        "  Kepler data (a_k)      : {:.1} MiB",
        plan.bytes_kepler as f64 / 1048576.0
    );
    println!(
        "  conjunction map (a_ch) : {:.1} MiB",
        plan.bytes_conjunction_map as f64 / 1048576.0
    );
    println!(
        "  per-grid (a_gh + a_l)  : {:.1} MiB",
        plan.bytes_per_grid as f64 / 1048576.0
    );
    println!("  parallel grids (p)     : {}", plan.parallel_factor);
    println!("  total samples (o)      : {}", plan.total_steps);
    println!("  rounds (r_c)           : {}", plan.rounds);
    Ok(())
}

fn tle(flags: &Flags) -> Result<(), String> {
    let Some(path) = flags.positional() else {
        return Err("usage: kessler tle FILE [--stats]".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (records, errors) = tle_mod::parse_catalog(&text);
    println!(
        "{}: {} records parsed, {} rejected",
        path,
        records.len(),
        errors.len()
    );
    for (line, err) in errors.iter().take(5) {
        eprintln!("  near line {line}: {err}");
    }
    if flags.has("--stats") && !records.is_empty() {
        let mut altitudes: Vec<f64> = records
            .iter()
            .map(|r| r.elements.semi_major_axis - kessler_orbits::constants::R_EARTH)
            .collect();
        altitudes.sort_by(f64::total_cmp);
        let leo = altitudes.iter().filter(|&&a| a < 2_000.0).count();
        let geo = altitudes
            .iter()
            .filter(|&&a| (35_000.0..37_000.0).contains(&a))
            .count();
        println!(
            "  median altitude : {:.0} km",
            altitudes[altitudes.len() / 2]
        );
        println!("  LEO (< 2000 km) : {leo}");
        println!("  GEO band        : {geo}");
        let max_e = records
            .iter()
            .map(|r| r.elements.eccentricity)
            .fold(0.0f64, f64::max);
        println!("  max eccentricity: {max_e:.4}");
    }
    Ok(())
}

fn compare(flags: &Flags) -> Result<(), String> {
    let population = load_or_generate(flags)?;
    let variants = ["legacy", "grid", "hybrid"];
    let mut reports = Vec::new();
    for v in variants {
        let report = screen_with(v, build_config(flags, v)?, &population)?;
        print_report_summary(&report);
        reports.push(report);
    }
    let reference = reports[0].colliding_pairs();
    for report in &reports[1..] {
        let pairs = report.colliding_pairs();
        let missed = reference.difference(&pairs).count();
        let extra = pairs.difference(&reference).count();
        println!(
            "{} vs legacy: {} missed, {} extra colliding pairs",
            report.variant, missed, extra
        );
    }
    Ok(())
}

fn serve(flags: &Flags) -> Result<(), String> {
    let addr = flags.value_of("--addr").unwrap_or("127.0.0.1:7878");
    let variant: Variant = flags.value_of("--variant").unwrap_or("grid").parse()?;
    if !matches!(variant, Variant::Grid | Variant::Hybrid) {
        return Err(format!(
            "the daemon serves the grid or hybrid variant, not `{}`",
            variant.label()
        ));
    }
    let config = build_config(flags, variant.label())?;

    let persist = match flags.value_of("--state-dir") {
        Some(dir) => {
            let mut persist = kessler_service::PersistOptions::new(dir);
            persist.snapshot_every = flags.u64_of("--snapshot-every", persist.snapshot_every)?;
            Some(persist)
        }
        None => None,
    };
    let defaults = kessler_service::ServerOptions::default();
    let read_timeout_s = flags.u64_of("--read-timeout", 120)?;
    let metrics_every_s = flags.u64_of("--metrics-every", 0)?;
    let shards = parse_shards(flags)?;
    let options = kessler_service::ServerOptions {
        persist,
        queue_depth: flags.usize_of("--queue-depth", defaults.queue_depth)?,
        workers: flags.usize_of("--workers", defaults.workers)?,
        read_timeout: (read_timeout_s > 0).then(|| std::time::Duration::from_secs(read_timeout_s)),
        metrics_every: (metrics_every_s > 0)
            .then(|| std::time::Duration::from_secs(metrics_every_s)),
        variant,
        shards,
        ..defaults
    };

    let server =
        kessler_service::Server::bind_with(addr, config, options).map_err(|e| e.to_string())?;
    if let Some(recovery) = server.recovery() {
        let snapshot = match recovery.snapshot_seq {
            Some(seq) => format!("snapshot at wal seq {seq}"),
            None => "no snapshot".to_string(),
        };
        println!(
            "recovered {} satellites: {snapshot}, {} wal records replayed{}{}",
            server.catalog_len(),
            recovery.replayed,
            if recovery.torn_tail {
                ", torn wal tail dropped"
            } else {
                ""
            },
            if recovery.corrupt_snapshots > 0 {
                ", corrupt snapshot(s) skipped"
            } else {
                ""
            },
        );
    }
    if flags.value_of("--pop").is_some() || flags.usize_of("--n", 0)? > 0 {
        if server.catalog_len() > 0 {
            println!(
                "catalog recovered non-empty ({} satellites); skipping preload",
                server.catalog_len()
            );
        } else {
            let population = load_or_generate(flags)?;
            let n = server.preload(&population).map_err(|e| e.to_string())?;
            println!("preloaded {n} satellites (external ids 0..{n})");
        }
    }
    let sharding = match shards {
        Some(spec) => format!(
            ", snapshots in {} chunks ({}x{} regimes)",
            spec.shard_count(),
            spec.alt_bands,
            spec.z_shells
        ),
        None => String::new(),
    };
    println!(
        "kessler-service listening on {} ({} variant, {} screening workers{sharding}) — JSON \
         lines: ADD UPDATE REMOVE SCREEN DELTA ADVANCE CANCEL STATUS METRICS SUBSCRIBE \
         UNSUBSCRIBE SHUTDOWN",
        server.local_addr(),
        variant.label(),
        server.workers()
    );
    server.run();
    println!("kessler-service stopped");
    Ok(())
}

/// `--shards BANDSxSHELLS` (e.g. `--shards 8x4`) chunks snapshots by
/// orbital regime; `--shards default` takes the built-in layout. No flag
/// means the 1×1 layout (one snapshot chunk). Screens run on one grid
/// whatever the layout.
fn parse_shards(flags: &Flags) -> Result<Option<kessler_service::ShardSpec>, String> {
    let Some(value) = flags.value_of("--shards") else {
        return Ok(None);
    };
    let mut spec = kessler_service::ShardSpec::default();
    if value != "default" {
        let (bands, shells) = value
            .split_once('x')
            .ok_or_else(|| format!("bad value for --shards: `{value}` (want BANDSxSHELLS)"))?;
        spec.alt_bands = bands
            .parse()
            .map_err(|_| format!("bad band count in --shards: `{bands}`"))?;
        spec.z_shells = shells
            .parse()
            .map_err(|_| format!("bad shell count in --shards: `{shells}`"))?;
    }
    spec.validate()
        .map_err(|e| kessler_service::ServiceError::Config(e).to_string())?;
    Ok(Some(spec))
}

fn submit_elements(flags: &Flags) -> Result<kessler_service::ElementsSpec, String> {
    Ok(kessler_service::ElementsSpec {
        a: flags.finite_of("--a", 7_000.0)?,
        e: flags.finite_of("--e", 0.0)?,
        incl: flags.finite_of("--incl", 0.0)?,
        raan: flags.finite_of("--raan", 0.0)?,
        argp: flags.finite_of("--argp", 0.0)?,
        mean_anomaly: flags.finite_of("--m", 0.0)?,
    })
}

/// `--timeout SECS` (default 10) as a socket timeout: zero or less waits
/// forever, and a value no `Duration` can hold is refused.
fn submit_timeout(flags: &Flags) -> Result<Option<std::time::Duration>, String> {
    let secs = flags.f64_of("--timeout", 10.0)?;
    if secs <= 0.0 {
        return Ok(None);
    }
    std::time::Duration::try_from_secs_f64(secs)
        .map(Some)
        .map_err(|_| format!("bad value for --timeout: `{secs}`"))
}

fn submit(flags: &Flags) -> Result<(), String> {
    use kessler_service::Request;
    let addr = flags.value_of("--addr").unwrap_or("127.0.0.1:7878");
    let timeout = submit_timeout(flags)?;
    let request = if let Some(raw) = flags.value_of("--json") {
        serde_json::from_str::<Request>(raw).map_err(|e| format!("bad --json request: {e}"))?
    } else {
        let Some(action) = flags.positional() else {
            return Err("usage: kessler submit ACTION [flags] — see `kessler help`".into());
        };
        match action {
            "add" => Request::Add {
                id: flags.u64_of("--id", 0)?,
                elements: submit_elements(flags)?,
            },
            "update" => Request::Update {
                id: flags.u64_of("--id", 0)?,
                elements: submit_elements(flags)?,
            },
            "remove" => Request::Remove {
                id: flags.u64_of("--id", 0)?,
            },
            "screen" => Request::Screen,
            "delta" => Request::Delta,
            "advance" => Request::Advance {
                dt: flags.finite_of("--dt", 60.0)?,
            },
            "cancel" => Request::Cancel {
                id: flags
                    .positional_at(1)
                    .or_else(|| flags.value_of("--req-id"))
                    .ok_or("usage: kessler submit cancel REQ_ID")?
                    .to_string(),
            },
            "tle" => return submit_tle(flags, addr, timeout),
            "subscribe" => return submit_subscribe(flags, addr, timeout),
            "status" => Request::Status,
            "metrics" => Request::Metrics,
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown submit action `{other}`")),
        }
    };
    let req_id = flags.value_of("--req-id");
    let response = submit_retry(flags)?
        .send(request.is_mutation(), || {
            send_maybe_tagged(
                &mut kessler_service::Client::connect_within(addr, timeout)?,
                &request,
                req_id,
            )
        })
        .map_err(|(err, attempts)| {
            format!("request to {addr} failed after {attempts} attempt(s): {err}")
        })?;
    if let Some(metrics) = &response.metrics {
        print_metrics(metrics);
    } else {
        let pretty = serde_json::to_string_pretty(&response).map_err(|e| e.to_string())?;
        println!("{pretty}");
    }
    if response.ok {
        Ok(())
    } else {
        Err(response.error.unwrap_or_else(|| "request failed".into()))
    }
}

/// `--retries N` as the client's retry rule: jittered exponential backoff
/// from 200 ms, capped at 5 s, each retry reported on stderr.
fn submit_retry(
    flags: &Flags,
) -> Result<kessler_service::Retry<impl FnMut(u64, std::time::Duration, &str)>, String> {
    let retries = flags.u64_of("--retries", 0)?;
    Ok(kessler_service::Retry {
        retries,
        backoff: kessler_service::Backoff::new(
            std::time::Duration::from_millis(200),
            std::time::Duration::from_secs(5),
            u64::from(std::process::id()),
        ),
        on_retry: move |attempt: u64, delay: std::time::Duration, why: &str| {
            eprintln!("  retry {attempt}/{retries} in {delay:?}: {why}")
        },
    })
}

/// Send `request`, tagged with `req_id` (the handle a concurrent
/// `kessler submit cancel ID` takes) when there is one.
fn send_maybe_tagged(
    client: &mut kessler_service::Client,
    request: &kessler_service::Request,
    req_id: Option<&str>,
) -> std::io::Result<kessler_service::Response> {
    match req_id {
        Some(id) => client.send_tagged(request, id),
        None => client.send(request),
    }
}

/// `kessler submit tle FILE` — stream a 2LE/3LE catalog into the daemon:
/// each parsed record becomes ADD (keyed by NORAD catalog number), falling
/// back to UPDATE when the id already exists, all over one connection.
fn submit_tle(
    flags: &Flags,
    addr: &str,
    timeout: Option<std::time::Duration>,
) -> Result<(), String> {
    use kessler_service::Request;
    let Some(path) = flags.positional_at(1) else {
        return Err("usage: kessler submit tle FILE [--addr HOST:PORT]".into());
    };
    let mut retry = submit_retry(flags)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (records, errors) = tle_mod::parse_catalog(&text);
    for (line, err) in errors.iter().take(5) {
        eprintln!("  near line {line}: {err}");
    }
    let mut client = retry
        .connect(addr, timeout)
        .map_err(|(e, _)| format!("connect to {addr} failed: {e}"))?;
    let (mut added, mut updated) = (0usize, 0usize);
    let mut rejected = errors.len();
    for record in &records {
        let id = u64::from(record.catalog_number);
        let elements = kessler_service::ElementsSpec::from_elements(&record.elements);
        let add = Request::Add { id, elements };
        let response = retry
            .send(true, || client.send(&add))
            .map_err(|(e, _)| format!("ADD {id} failed: {e}"))?;
        if response.ok {
            added += 1;
            continue;
        }
        let duplicate = response
            .error
            .as_deref()
            .is_some_and(|e| e.contains("already exists"));
        if duplicate {
            let update = Request::Update { id, elements };
            let response = retry
                .send(true, || client.send(&update))
                .map_err(|(e, _)| format!("UPDATE {id} failed: {e}"))?;
            if response.ok {
                updated += 1;
                continue;
            }
            rejected += 1;
            eprintln!("  satellite {id}: {}", response.error.unwrap_or_default());
        } else {
            rejected += 1;
            eprintln!("  satellite {id}: {}", response.error.unwrap_or_default());
        }
    }
    println!(
        "ingested {} records ({added} added, {updated} updated, {rejected} rejected)",
        added + updated
    );
    Ok(())
}

/// `kessler submit subscribe` — register for conjunction delta events and
/// stream them to stdout as screens commit. The ack goes to stderr so a
/// piped stdout carries only events, one per line.
fn submit_subscribe(
    flags: &Flags,
    addr: &str,
    timeout: Option<std::time::Duration>,
) -> Result<(), String> {
    use kessler_service::{EventKind, Request};
    let all = flags.has("--all");
    let assets: Vec<u64> = match flags.value_of("--ids") {
        Some(csv) => csv
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("bad asset id in --ids: `{s}`"))
            })
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    if !all && assets.is_empty() {
        return Err(
            "usage: kessler submit subscribe (--all | --ids A,B,C) [--count N] [--smoke]".into(),
        );
    }
    let count = flags.u64_of("--count", 0)?;
    let smoke = flags.has("--smoke");
    let mut client = kessler_service::Client::connect_within(addr, timeout)
        .map_err(|e| format!("connect to {addr} failed: {e}"))?;
    let request = Request::Subscribe { assets, all };
    let response = send_maybe_tagged(&mut client, &request, flags.value_of("--req-id"))
        .map_err(|e| format!("SUBSCRIBE failed: {e}"))?;
    if !response.ok {
        return Err(response
            .error
            .unwrap_or_else(|| "SUBSCRIBE rejected".into()));
    }
    let ack = response
        .subscription
        .ok_or("SUBSCRIBE response carried no subscription ack")?;
    let scope = if ack.all {
        "all assets".to_string()
    } else {
        format!("{} asset(s)", ack.assets)
    };
    eprintln!(
        "subscribed as {} to {scope} ({} subscription(s) on this connection)",
        ack.sub_id, ack.active
    );
    if smoke {
        // CI handshake: prove SUBSCRIBE and UNSUBSCRIBE round-trip over
        // the evented layer, then leave without waiting for a screen.
        let response = client
            .send(&Request::Unsubscribe {
                sub_id: Some(ack.sub_id.clone()),
            })
            .map_err(|e| format!("UNSUBSCRIBE failed: {e}"))?;
        if !response.ok {
            return Err(response
                .error
                .unwrap_or_else(|| "UNSUBSCRIBE rejected".into()));
        }
        println!(
            "subscribe smoke ok: {} registered and torn down",
            ack.sub_id
        );
        return Ok(());
    }
    // Events arrive whenever a screen commits; the handshake timeout must
    // not cut the stream between them.
    client
        .set_timeouts(None, timeout)
        .map_err(|e| e.to_string())?;
    let mut seen: u64 = 0;
    loop {
        let event = client
            .next_event()
            .map_err(|e| format!("push stream ended: {e}"))?;
        let kind = match event.kind {
            EventKind::New => "new",
            EventKind::Updated => "updated",
            EventKind::Retired => "retired",
        };
        println!(
            "{kind:<8} {:>6} vs {:>6}  TCA {:>10.2} s  PCA {:>8.3} km  epoch {}{}",
            event.id_lo,
            event.id_hi,
            event.tca,
            event.pca_km,
            event.epoch,
            if event.ephemeral { "  [ephemeral]" } else { "" }
        );
        seen += 1;
        if count > 0 && seen >= count {
            return Ok(());
        }
    }
}

fn print_quantile_row(label: &str, digest: &kessler_core::HistogramSummary, unit: &str) {
    println!(
        "  {label:<16} {:>7}  {:>9.3} {:>9.3} {:>9.3} {:>9.3} {unit}",
        digest.count, digest.p50, digest.p90, digest.p99, digest.max
    );
}

fn print_phase_block(title: &str, phases: &kessler_core::PhaseSummaries) {
    println!("{title} — {} screens", phases.screens);
    println!(
        "  {:<16} {:>7}  {:>9} {:>9} {:>9} {:>9}",
        "phase", "count", "p50", "p90", "p99", "max"
    );
    print_quantile_row("insertion", &phases.insertion, "ms");
    print_quantile_row("pair extraction", &phases.pair_extraction, "ms");
    print_quantile_row("filters", &phases.filters, "ms");
    print_quantile_row("refinement", &phases.refinement, "ms");
    print_quantile_row("total", &phases.total, "ms");
}

/// Render a METRICS payload as aligned tables instead of raw JSON.
fn print_metrics(metrics: &kessler_service::MetricsSnapshot) {
    let mut any = false;
    for (title, phases) in [
        ("full screens", &metrics.full_screens),
        ("delta screens", &metrics.delta_screens),
        ("advance tail screens", &metrics.advance_tails),
    ] {
        if let Some(phases) = phases {
            print_phase_block(title, phases);
            any = true;
        }
    }
    if !any {
        println!("no screens recorded yet");
    }
    if metrics.wal_fsync_ms.is_some()
        || metrics.snapshot_write_ms.is_some()
        || metrics.snapshot_bytes.is_some()
        || metrics.dirty_shards_per_snapshot.is_some()
    {
        println!("durability");
        println!(
            "  {:<16} {:>7}  {:>9} {:>9} {:>9} {:>9}",
            "", "count", "p50", "p90", "p99", "max"
        );
        if let Some(d) = &metrics.wal_fsync_ms {
            print_quantile_row("wal fsync", d, "ms");
        }
        if let Some(d) = &metrics.snapshot_write_ms {
            print_quantile_row("snapshot write", d, "ms");
        }
        if let Some(d) = &metrics.snapshot_bytes {
            print_quantile_row("snapshot size", d, "B");
        }
        if let Some(d) = &metrics.dirty_shards_per_snapshot {
            print_quantile_row("dirty shards", d, "");
        }
    }
    if metrics.snapshot_build_ms.is_some() || !metrics.worker_screen_ms.is_empty() {
        println!("execution");
        println!(
            "  {:<16} {:>7}  {:>9} {:>9} {:>9} {:>9}",
            "", "count", "p50", "p90", "p99", "max"
        );
        if let Some(d) = &metrics.snapshot_build_ms {
            print_quantile_row("snapshot build", d, "ms");
        }
        for (worker, d) in &metrics.worker_screen_ms {
            print_quantile_row(worker, d, "ms");
        }
    }
    if let Some(chain) = &metrics.filter_chain {
        println!("filter chain (hybrid screens)");
        println!(
            "  tested {}  apsis {}  path {}  time {}  coplanar {}  kept {}",
            chain.tested,
            chain.excluded_apsis,
            chain.excluded_path,
            chain.excluded_time,
            chain.coplanar,
            chain.kept
        );
    }
    if !metrics.requests.is_empty() {
        println!("requests");
        for (kind, counter) in &metrics.requests {
            println!(
                "  {kind:<10} ok {:>8}   errors {:>6}",
                counter.ok, counter.errors
            );
        }
    }
    println!(
        "queue high-water {}, worker respawns {}, jobs cancelled {}",
        metrics.queue_highwater, metrics.worker_respawns, metrics.jobs_cancelled
    );
    if metrics.subscribers > 0
        || metrics.events_pushed + metrics.events_dropped + metrics.slow_consumer_disconnects > 0
        || metrics.write_buffer_peak_bytes.is_some()
    {
        println!(
            "subscriptions: {} active, events pushed {}, shed {}, slow-consumer disconnects {}",
            metrics.subscribers,
            metrics.events_pushed,
            metrics.events_dropped,
            metrics.slow_consumer_disconnects
        );
        if let Some(d) = &metrics.write_buffer_peak_bytes {
            print_quantile_row("write-buf peak", d, "B");
        }
    }
    if metrics.wal_append_failures
        + metrics.snapshot_failures
        + metrics.degraded_entries
        + metrics.probe_failures
        > 0
    {
        println!(
            "resilience: wal append failures {}, snapshot failures {}, degraded entries {} \
             (recovered {}), probe failures {}",
            metrics.wal_append_failures,
            metrics.snapshot_failures,
            metrics.degraded_entries,
            metrics.degraded_recoveries,
            metrics.probe_failures
        );
    }
}

fn info(_: &Flags) -> Result<(), String> {
    println!(
        "kessler {} — conjunction screening with lock-free spatial grids",
        env!("CARGO_PKG_VERSION")
    );
    println!("reproduction of Hellwig et al., IPDPS 2023 (see DESIGN.md)");
    println!("variants: grid, hybrid, legacy, grid-gpusim, hybrid-gpusim");
    println!(
        "host: {} logical CPUs",
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_the_usage_text_lists_is_one_the_factory_builds() {
        let listed = USAGE
            .rsplit_once("VARIANTS\n")
            .expect("usage ends with the variant list")
            .1;
        let labels: Vec<&str> = listed.split('|').map(str::trim).collect();
        assert_eq!(labels.len(), 5, "{labels:?}");
        for label in labels {
            let config = default_config_for(label, 2.0, 60.0).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(screener_for(label, config).unwrap().label(), label);
        }
    }
}
