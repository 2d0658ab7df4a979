//! `bench_sync`: wall-clock sync between two UniDrive devices through
//! five in-process MockS3 servers on loopback.
//!
//! ```text
//! cargo run --release --manifest-path bench_sync/Cargo.toml -- \
//!     --workload bulk|small|edit --seed N --seconds S --trace 0|1 [--spans-out PATH]
//! ```
//!
//! A closed loop on one calling thread: each round mutates device A's
//! folder with seeded content, runs A's `sync_once` (commit), then B's
//! (fetch), checks B byte-for-byte against A and against the round's
//! changed set, and drains the servers before the next round. With
//! `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it runs an untraced half and a traced half and reports
//! the per-layer table. The last line of stdout is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the exit code is
//! non-zero if any round failed its check.

mod gen;
mod layers;
mod world;

use std::collections::{BTreeMap, HashSet};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gen::{Generator, Workload};
use layers::{Kernels, Values, Windows};
use unidrive::core::{SyncError, SyncFolder, SyncReport};
use unidrive::meta::SegmentId;
use unidrive::util::bytes::Bytes;
use world::{MeterSnap, World, DEVICE_A, DEVICE_B, OPS};

const MIB: f64 = 1024.0 * 1024.0;
/// Fresh worlds per untraced run; `setup_s` is the median of their set-ups.
const SETUPS: usize = 3;
/// Untimed rounds after set-up, so that connection pools, allocator
/// arenas and caches reach their steady state before measuring.
const WARMUP_S: f64 = 1.0;
/// A drain that has not settled by then fails the run.
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("unexpected argument {key}"));
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        kv.insert(name.to_owned(), value);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing --{k}"));
    let workload = take("workload")?;
    let args = Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        spans_out: kv.remove("spans-out"),
    };
    match kv.keys().next() {
        Some(k) => Err(format!("unknown flag --{k}")),
        None if args.seconds == 0 => Err("--seconds must be positive".into()),
        None => Ok(args),
    }
}

/// One measured round.
struct Round {
    ok: bool,
    commit_ns: u64,
    fetch_ns: u64,
    /// A's return until the servers were last seen busy.
    drain_ns: u64,
    files: u64,
    user_bytes: u64,
    /// Server requests from A's start through the drain.
    requests: u64,
    /// A start → drain end.
    wall_ns: u64,
    /// Bytes both folders read or wrote.
    folder_bytes: u64,
    a: MeterSnap,
    b: MeterSnap,
    windows: Windows,
    replay: Option<Values>,
}

impl Round {
    fn converge_ns(&self) -> u64 {
        self.commit_ns + self.fetch_ns
    }
}

/// Why a round failed its check, if it did.
fn check(
    world: &World,
    expected: &[String],
    a: &Result<SyncReport, SyncError>,
    b: &Result<SyncReport, SyncError>,
) -> Option<String> {
    let (a, b) = match (a, b) {
        (Err(e), _) => return Some(format!("A sync_once: {e}")),
        (_, Err(e)) => return Some(format!("B sync_once: {e}")),
        (Ok(a), Ok(b)) => (a, b),
    };
    let sorted = |v: &[String]| {
        let mut v = v.to_vec();
        v.sort();
        v
    };
    let expected = sorted(expected);
    if sorted(&a.uploaded) != expected
        || !a.deferred.is_empty()
        || !a.conflicts.is_empty()
        || !a.deleted_remotely.is_empty()
    {
        return Some(format!(
            "A report {a:?} does not match the {} changed files",
            expected.len()
        ));
    }
    if sorted(&b.downloaded) != expected || !b.deleted_locally.is_empty() || !b.conflicts.is_empty()
    {
        return Some(format!(
            "B report {b:?} does not match the {} changed files",
            expected.len()
        ));
    }
    let scan_a = world.a.folder.file_count();
    let scan_b = world.b.folder.file_count();
    if scan_a != scan_b {
        return Some(format!("A holds {scan_a} files, B {scan_b}"));
    }
    let paths = world.a.folder.scan().expect("MemFolder scan cannot fail");
    for path in paths.keys() {
        let ours = world.a.folder.read(path).expect("scanned path is readable");
        match world.b.folder.read(path) {
            Ok(theirs) if theirs == ours => {}
            _ => return Some(format!("B's {path} differs from A's")),
        }
    }
    None
}

/// Boots a world and syncs the preloaded corpus A → B. Returns the
/// world and the set-up time (boot + preload sync + drain).
fn setup(gen: &Generator, traced: bool) -> Result<(World, f64), String> {
    let corpus = gen.preload();
    let expected: Vec<String> = corpus.iter().map(|(p, _)| p.clone()).collect();
    let t0 = Instant::now();
    let mut world = World::boot(traced).map_err(|e| format!("boot MockS3: {e}"))?;
    for (path, data) in &corpus {
        world
            .a
            .folder
            .write(path, data, 1)
            .expect("MemFolder write cannot fail");
    }
    let a = world.a.client.sync_once();
    let b = world.b.client.sync_once();
    if let Some(why) = check(&world, &expected, &a, &b) {
        return Err(format!("set-up sync failed: {why}"));
    }
    world
        .drain(Instant::now(), DRAIN_DEADLINE)
        .ok_or("set-up drain did not settle")?;
    Ok((world, t0.elapsed().as_secs_f64()))
}

/// Runs rounds `first`, `first + 1`, … for `seconds`.
fn run_rounds(
    world: &mut World,
    gen: &Generator,
    first: u64,
    seconds: f64,
    kernels: Option<&Kernels>,
) -> Result<Vec<Round>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let clock = |w: &World| w.rt.now().as_nanos();
    while start.elapsed().as_secs_f64() < seconds {
        let r = first + rounds.len() as u64;
        let changes: Vec<(String, Bytes)> = gen.round(r, |p| {
            world
                .a
                .folder
                .read(p)
                .expect("generated path exists in A's folder")
        });
        let expected: Vec<String> = changes.iter().map(|(p, _)| p.clone()).collect();
        for (path, data) in &changes {
            world
                .a
                .folder
                .write(path, data, r + 2)
                .expect("MemFolder write cannot fail");
        }
        let known: Option<HashSet<SegmentId>> = kernels.map(|_| {
            world
                .a
                .client
                .image()
                .segments()
                .map(|(id, _)| *id)
                .collect()
        });
        let (a0, b0, req0) = (world.a.meter.snap(), world.b.meter.snap(), world.requests());
        let folder0 = world.a.metered.bytes() + world.b.metered.bytes();

        let (ta0, ca0) = (Instant::now(), clock(world));
        let rep_a = world.a.client.sync_once();
        let (ta1, ca1) = (Instant::now(), clock(world));
        let rep_b = world.b.client.sync_once();
        let (tb1, cb1) = (Instant::now(), clock(world));

        let failure = check(world, &expected, &rep_a, &rep_b);
        if let Some(why) = &failure {
            eprintln!("round {r}: FAILED: {why}");
        }
        let last_busy = world.drain(tb1, DRAIN_DEADLINE).ok_or_else(|| {
            format!("round {r}: servers still busy {DRAIN_DEADLINE:?} after the round")
        })?;
        let end = Instant::now();
        let replay = kernels.map(|k| {
            let known = known.expect("collected when kernels are replayed");
            k.replay(&changes, &known, world.a.client.image(), r)
        });
        rounds.push(Round {
            ok: failure.is_none(),
            commit_ns: (ta1 - ta0).as_nanos() as u64,
            fetch_ns: (tb1 - ta1).as_nanos() as u64,
            drain_ns: last_busy.saturating_duration_since(ta1).as_nanos() as u64,
            files: changes.len() as u64,
            user_bytes: changes.iter().map(|(_, d)| d.len() as u64).sum(),
            requests: world.requests() - req0,
            wall_ns: (end - ta0).as_nanos() as u64,
            folder_bytes: world.a.metered.bytes() + world.b.metered.bytes() - folder0,
            a: world.a.meter.snap().minus(&a0),
            b: world.b.meter.snap().minus(&b0),
            windows: Windows {
                commit: (ca0, ca1),
                fetch: (ca1, cb1),
            },
            replay,
        });
    }
    Ok(rounds)
}

/// Linear-interpolated quantile `q` of `v` (sorted in place).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor gave to other guests shows up as steal and slows every
/// timing of the run.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set size in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    source: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, source: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        source,
    }
}

/// The rounds of one or more fresh worlds.
#[derive(Default)]
struct Phase {
    setups: Vec<f64>,
    attempted: usize,
    failed: usize,
    /// Measured rounds of every world, in order.
    rounds: Vec<Round>,
    /// Per-round layer values (traced phases only).
    layers: Vec<Values>,
    dropped_spans: u64,
    spans: usize,
}

/// Sets up `worlds` fresh worlds one after another; in each, runs
/// [`WARMUP_S`] of checked but untimed rounds, then measures for
/// `seconds / worlds`. Pooling the rounds of independent worlds keeps
/// the state one world's clients learn (bandwidth probe, placement)
/// from setting a whole run's numbers. With `kernels`, the worlds are
/// traced and every measured round is attributed to layers.
fn phase(
    gen: &Generator,
    worlds: usize,
    seconds: f64,
    kernels: Option<&Kernels>,
    spans_out: Option<&str>,
) -> Result<Phase, String> {
    let mut p = Phase::default();
    let mut next = 0;
    for index in 0..worlds {
        let gen = &gen.world(index);
        let (mut world, s) = setup(gen, kernels.is_some())?;
        p.setups.push(s);
        let warm = run_rounds(&mut world, gen, next, WARMUP_S, None)?;
        next += warm.len() as u64;
        let rounds = run_rounds(&mut world, gen, next, seconds / worlds as f64, kernels)?;
        next += rounds.len() as u64;
        for r in warm.iter().chain(&rounds) {
            p.attempted += 1;
            p.failed += !r.ok as usize;
        }
        if let Some(registry) = &world.registry {
            // The span ring is read (and written out) once, at the end.
            let snapshot = registry.snapshot();
            if let Some(path) = spans_out {
                std::fs::write(path, snapshot.to_chrome_trace())
                    .map_err(|e| format!("write {path}: {e}"))?;
            }
            let windows: Vec<Windows> = rounds.iter().map(|r| r.windows).collect();
            let spans = layers::from_spans(&snapshot.spans, &windows, DEVICE_A, DEVICE_B);
            p.layers.extend(round_values(&rounds, spans));
            p.dropped_spans += snapshot.dropped_spans;
            p.spans += snapshot.spans.len();
        }
        p.rounds.extend(rounds);
    }
    Ok(p)
}

fn converge_ms(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .filter(|r| r.ok)
        .map(|r| r.converge_ns() as f64 / 1e6)
        .collect()
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    rounds: &[Round],
    attempted: usize,
    failed: usize,
    setups: &mut [f64],
) -> Result<Vec<Metric>, String> {
    let ok: Vec<&Round> = rounds.iter().filter(|r| r.ok).collect();
    let mut converge = converge_ms(rounds);
    let mut commit: Vec<f64> = ok.iter().map(|r| r.commit_ns as f64 / 1e6).collect();
    let mut fetch: Vec<f64> = ok.iter().map(|r| r.fetch_ns as f64 / 1e6).collect();
    let total_s: f64 = ok.iter().map(|r| r.converge_ns() as f64 / 1e9).sum();
    let user: u64 = ok.iter().map(|r| r.user_bytes).sum();
    let files: u64 = ok.iter().map(|r| r.files).sum();
    let wire: u64 = ok.iter().map(|r| r.a.body_bytes() + r.b.body_bytes()).sum();
    println!(
        "# converge samples: {} (measured rounds that passed the check); {attempted} rounds attempted incl. warm-up, {failed} failed",
        converge.len()
    );
    Ok(vec![
        metric("setup_s", median(setups), "s", "wall"),
        metric(
            "converge_ms_p50",
            quantile(&mut converge, 0.5),
            "ms",
            "wall",
        ),
        metric(
            "converge_ms_p75",
            quantile(&mut converge, 0.75),
            "ms",
            "wall",
        ),
        metric(
            "converge_ms_p90",
            quantile(&mut converge, 0.9),
            "ms",
            "wall",
        ),
        metric("commit_ms_p50", median(&mut commit), "ms", "wall"),
        metric("fetch_ms_p50", median(&mut fetch), "ms", "wall"),
        metric("sync_mib_s", user as f64 / MIB / total_s, "MiB/s", "wall"),
        metric("files_per_s", files as f64 / total_s, "files/s", "wall"),
        metric(
            "wire_bytes_per_user_byte",
            wire as f64 / user as f64,
            "B/B",
            "wrapper",
        ),
        metric("peak_rss_mib", peak_rss_mib()?, "MiB", "proc"),
        metric(
            "failed_rounds_frac",
            failed as f64 / attempted as f64,
            "frac",
            "check",
        ),
    ])
}

/// End-to-end rows that are printed but left out of the result line.
/// `bulk` converges about 1.5 rounds a second, so in a run of under a
/// minute its p90 has fewer than ten samples beyond it; p75 has ten on
/// every workload. Failed rounds are the line's `failed` of `attempted`.
const TABLE_ONLY: [&str; 2] = ["converge_ms_p90", "failed_rounds_frac"];

/// The per-layer metrics a traced run puts in its JSON line: the
/// layers' rows that are non-zero on every workload.
const PER_LAYER: &[&str] = &[
    "folder.scan_ms.commit",
    "folder.read_ms.commit",
    "folder.write_ms.fetch",
    "folder.bytes",
    "chunker.segment_ms",
    "crypto.sha1_ms",
    "chunker.bytes",
    "erasure.encode_ms",
    "erasure.decode_ms",
    "meta.image_bytes",
    "meta.encode_ms",
    "meta.des_ms",
    "lock.acquire_ms",
    "lock.release_ms",
    "meta.read_ms.commit",
    "meta.read_ms.fetch",
    "meta.merge_ms",
    "meta.commit_ms",
    "engine.upload_batch_ms",
    "engine.download_batch_ms",
    "engine.blocks.commit",
    "engine.blocks.fetch",
    "engine.extra_blocks.commit",
    "upload.drain_ms",
    "cloud.upload.calls.commit",
    "cloud.upload.busy_ms.commit",
    "cloud.upload.bytes.commit",
    "cloud.download.calls.fetch",
    "cloud.download.busy_ms.fetch",
    "cloud.download.bytes.fetch",
    "cloud.list.calls.commit",
    "cloud.list.busy_ms.commit",
    "cloud.delete.calls.commit",
    "cloud.delete.busy_ms.commit",
    "cloud.requests_per_file",
    "cloud.inflight_mean",
    "wire.attempts.commit",
    "wire.attempts.fetch",
    "round.wall_ms.commit",
    "round.wall_ms.fetch",
    "round.unattributed_ms.commit",
    "round.unattributed_ms.fetch",
    "trace.overhead_pct",
];

fn unit_of(name: &str) -> &'static str {
    if name.contains("_ms") {
        "ms"
    } else if name.contains("bytes") {
        "B"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("inflight_mean") {
        "calls"
    } else {
        "count"
    }
}

/// Per-round values of every layer, from spans, meters and replays.
fn round_values(rounds: &[Round], spans: Vec<Values>) -> Vec<Values> {
    rounds
        .iter()
        .zip(spans)
        .map(|(r, mut v)| {
            for (side, snap) in [("commit", &r.a), ("fetch", &r.b)] {
                for (i, op) in OPS.iter().enumerate() {
                    v.insert(format!("cloud.{op}.calls.{side}"), snap.calls[i] as f64);
                    v.insert(
                        format!("cloud.{op}.busy_ms.{side}"),
                        snap.busy_ns[i] as f64 / 1e6,
                    );
                    v.insert(format!("cloud.{op}.bytes.{side}"), snap.bytes[i] as f64);
                    v.insert(format!("cloud.{op}.errors.{side}"), snap.errors[i] as f64);
                }
            }
            v.insert(
                "cloud.requests_per_file".into(),
                r.requests as f64 / r.files as f64,
            );
            v.insert(
                "cloud.inflight_mean".into(),
                (r.a.busy_ns_total() + r.b.busy_ns_total()) as f64 / r.wall_ns as f64,
            );
            v.insert("upload.drain_ms".into(), r.drain_ns as f64 / 1e6);
            v.insert("folder.bytes".into(), r.folder_bytes as f64);
            if let Some(replay) = &r.replay {
                v.extend(replay.iter().map(|(k, x)| (k.clone(), *x)));
            }
            v
        })
        .collect()
}

/// Medians over rounds of every per-round value; a name missing from a
/// round counts as 0 there.
fn medians(per_round: &[Values]) -> BTreeMap<String, f64> {
    let names: HashSet<&String> = per_round.iter().flat_map(|v| v.keys()).collect();
    names
        .into_iter()
        .map(|n| {
            let mut xs: Vec<f64> = per_round
                .iter()
                .map(|v| v.get(n).copied().unwrap_or(0.0))
                .collect();
            (n.clone(), median(&mut xs))
        })
        .collect()
}

fn source_of(name: &str) -> &'static str {
    let replayed = [
        "chunker.",
        "crypto.",
        "erasure.",
        "meta.image_bytes",
        "meta.encode_ms",
        "meta.des_ms",
    ];
    if replayed.iter().any(|p| name.starts_with(p)) {
        "replay"
    } else if name.starts_with("cloud.") {
        "wrapper"
    } else if name.starts_with("upload.drain") {
        "server"
    } else if name.starts_with("trace.") {
        "run"
    } else {
        "span"
    }
}

fn print_provenance(args: &Args) {
    let cfg = world::config(DEVICE_A, unidrive::obs::Obs::noop());
    let d = &cfg.data;
    let r = &d.redundancy;
    let shape = args.workload.shape();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# bench_sync workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "# host: available_parallelism={nproc} os={} arch={}",
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    println!(
        "# sizes: files={} file_bytes={} per_round={} edit_bytes={}",
        shape.files, shape.file_bytes, shape.per_round, shape.edit_bytes
    );
    println!(
        "# config: N={} k={} K_r={} K_s={} theta={} chunker={} connections_per_cloud={} meta_mode={:?} ingest_threads={} overprovisioning={} retry={:?} lock={:?}",
        r.clouds(),
        r.k(),
        r.k_r(),
        r.k_s(),
        d.chunker.theta,
        d.chunker.kind.label(),
        d.connections_per_cloud,
        cfg.meta_mode,
        d.ingest_threads,
        d.overprovisioning,
        d.retry,
        cfg.lock,
    );
    println!("# load: closed loop, one calling thread, one round in flight; servers in-process on 127.0.0.1");
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    println!("# {:<34} {:>16} {:<8} source", "metric", "value", "unit");
    for m in metrics {
        println!(
            "# {:<34} {:>16.4} {:<8} {}",
            m.name, m.value, m.unit, m.source
        );
    }
}

/// The result line. A value that could not be measured (no round
/// passed its check) is `null`, so the line stays valid JSON.
fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}", body.join(", "))
}

fn run(args: &Args) -> Result<(bool, String), String> {
    let gen = Generator::new(args.workload, args.seed);
    let seconds = args.seconds as f64;
    if !args.trace {
        let mut p = phase(&gen, SETUPS, seconds, None, None)?;
        let metrics = end_to_end(&p.rounds, p.attempted, p.failed, &mut p.setups)?;
        print_table(
            &format!(
                "end-to-end, {} (setups: {:?})",
                args.workload.name(),
                p.setups
            ),
            &metrics,
        );
        let json: Vec<Metric> = metrics
            .into_iter()
            .filter(|m| !TABLE_ONLY.contains(&m.name.as_str()))
            .collect();
        return Ok((
            p.failed == 0,
            json_line(p.failed == 0, p.attempted, p.failed, &json),
        ));
    }

    // Untraced half: the baseline of `trace.overhead_pct`. Traced half:
    // the same loop with spans on and the kernels replayed after each round.
    let plain = phase(&gen, 1, seconds / 2.0, None, None)?;
    let cfg = world::config(DEVICE_A, unidrive::obs::Obs::noop());
    let kernels = Kernels::new(
        cfg.data.chunker.clone(),
        cfg.data.redundancy,
        &cfg.passphrase,
    );
    let traced = phase(
        &gen,
        1,
        seconds / 2.0,
        Some(&kernels),
        args.spans_out.as_deref(),
    )?;
    let mut med = medians(&traced.layers);
    let p50 = |rs: &[Round]| median(&mut converge_ms(rs));
    med.insert(
        "trace.overhead_pct".into(),
        (p50(&traced.rounds) / p50(&plain.rounds) - 1.0) * 100.0,
    );
    med.insert("trace.dropped_spans".into(), traced.dropped_spans as f64);
    med.insert("trace.spans".into(), traced.spans as f64);
    let table: Vec<Metric> = med
        .iter()
        .map(|(n, v)| metric(n.clone(), *v, unit_of(n), source_of(n)))
        .collect();
    print_table(
        &format!(
            "per-layer, {} ({} traced rounds, medians per round; source=replay rows re-run the kernels on the round's data after it — a cost model, not attribution)",
            args.workload.name(),
            traced.rounds.len()
        ),
        &table,
    );
    let (attempted, failed) = (
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    );
    let correct = failed == 0 && traced.dropped_spans == 0;
    let json: Vec<Metric> = PER_LAYER
        .iter()
        .map(|n| metric(*n, med.get(*n).copied().unwrap_or(0.0), unit_of(n), ""))
        .collect();
    Ok((correct, json_line(correct, attempted, failed, &json)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_sync: {e}");
            return ExitCode::from(2);
        }
    };
    print_provenance(&args);
    let ticks0 = cpu_ticks();
    match run(&args) {
        Ok((correct, json)) => {
            match (ticks0, cpu_ticks()) {
                (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                    println!(
                        "# host: cpu steal during the run: {:.1}%",
                        100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
                    )
                }
                _ => println!("# host: cpu steal during the run: unavailable"),
            }
            println!("{json}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench_sync: {e}");
            ExitCode::FAILURE
        }
    }
}
