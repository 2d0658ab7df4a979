//! **bench_kernels** — throughput of the client-side ingest kernels.
//!
//! The ingest path (content-defined chunking → SHA-1 content
//! addressing → Reed-Solomon block generation) is the client's CPU
//! cost per synced byte; this binary records its perf trajectory so
//! every PR inherits a measured kernel baseline. Rows:
//!
//! - `sha1` — one-shot digest, several sizes
//! - `rabin_roll` / `gear_roll` — rolling-hash slide across a buffer
//!   (the per-byte cost of each cut-point hash, no chunking logic)
//! - `chunker_cut_points` / `gear_cut_points` — content-defined
//!   segmentation, serial, per kind (no hashing)
//! - `cut_points_parallel` — gear cut-point discovery fanned across
//!   disjoint slices at 1/2/4/8 worker threads (byte-identical output
//!   to the serial scan; `--cuts-out` below gates that in CI)
//! - `rs_encode` / `rs_decode` — (255, 3) non-systematic codec,
//!   full 5-block stripe per iteration (the paper's N = 5)
//! - `ingest` / `ingest_gear` — end-to-end chunk + hash + encode per
//!   chunker kind at 1/2/4/8 worker threads through
//!   `unidrive_util::pool::WorkerPool` (both cut discovery and
//!   per-segment work ride the pool, as in `DataPlane`)
//!
//! Rows are timed by `unidrive_bench::microbench::sample`, shared with
//! `s3_bench`: per-iteration wall-clock nanoseconds are kept as exact
//! samples and `p50_ns`/`p95_ns` are exact ranks of the sorted array.
//! (Earlier revisions read the percentiles off the `unidrive-obs`
//! log₂ histogram, whose quantile returns its bucket's *upper bound*
//! `2^k - 1`; with power-of-two payloads that collapses every row's
//! p50/p95 to `bytes - 1` — a coarse bucket artifact, not a latency.)
//! Results export as JSON with a fixed schema and row order — values
//! are wall clock and vary run to run, the *shape* never does.
//!
//! Usage: `bench_kernels [--quick|quick] [--out PATH]`
//! (default out: `BENCH_kernels.json`), or
//! `bench_kernels --cuts-out PATH --cuts-threads N` to dump the
//! parallel cut points of a fixed deterministic buffer (both kinds)
//! and exit — `ci.sh` runs that at several thread counts and `cmp`s
//! the dumps.

use std::fmt::Write as _;
use std::time::Duration;

use unidrive_bench::microbench::{sample, Sampled};

use unidrive_chunker::{
    cut_points, cut_points_parallel, ChunkerConfig, GearHash, RabinHash,
};
use unidrive_crypto::Sha1;
use unidrive_erasure::Codec;
use unidrive_util::bytes::Bytes;
use unidrive_util::pool::WorkerPool;
use unidrive_workload::random_bytes;

/// One measured row of the report.
struct Row {
    kernel: &'static str,
    bytes: usize,
    threads: usize,
    t: Sampled,
}

struct Harness {
    /// Per-row time budget.
    budget: Duration,
    rows: Vec<Row>,
}

impl Harness {
    fn new(quick: bool) -> Self {
        Harness {
            budget: Duration::from_millis(if quick { 120 } else { 500 }),
            rows: Vec::new(),
        }
    }

    /// Times `f` through [`sample`]. `bytes` is the payload a single
    /// iteration processes; `threads` is a reporting tag.
    fn row<T>(&mut self, kernel: &'static str, bytes: usize, threads: usize, f: impl FnMut() -> T) {
        let t = sample(self.budget, bytes, f);
        println!(
            "{kernel:<24} {bytes:>10} B {threads:>2} thr {:>6} it {:>10.1} MiB/s  (mean {:>9} ns, p50 {:>9}, p95 {:>9})",
            t.iters, t.mb_per_s, t.mean_ns, t.p50_ns, t.p95_ns
        );
        self.rows.push(Row {
            kernel,
            bytes,
            threads,
            t,
        });
    }

    fn to_json(&self, mode: &str) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n\"bench_kernels\": \"unidrive/v1\",\n");
        let _ = writeln!(out, "\"mode\": \"{mode}\",");
        out.push_str("\"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"kernel\": \"{}\", \"bytes\": {}, \"threads\": {}, \"iters\": {}, \
                 \"mb_per_s\": {:.2}, \"mean_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}}}",
                r.kernel,
                r.bytes,
                r.threads,
                r.t.iters,
                r.t.mb_per_s,
                r.t.mean_ns,
                r.t.p50_ns,
                r.t.p95_ns
            );
        }
        out.push_str("\n]\n}\n");
        out
    }
}

/// The full pipeline one upload performs per file before any network
/// traffic, mirroring `DataPlane`: parallel content-defined cut
/// discovery, then per-segment SHA-1 + a 5-block RS stripe, all fanned
/// across `pool`.
fn ingest(data: &Bytes, config: &ChunkerConfig, codec: &Codec, pool: &WorkerPool) -> usize {
    let cuts = cut_points_parallel(data, config, pool);
    let outputs = pool.par_map_indexed(&cuts, |_, &(offset, len)| {
        let seg = data.slice(offset..offset + len);
        let digest = Sha1::digest(&seg);
        let blocks = codec.encode_blocks(&seg, &[0, 1, 2, 3, 4]);
        (digest, blocks)
    });
    outputs.len()
}

/// `--cuts-out` mode: chunk one fixed deterministic buffer with the
/// parallel driver (both kinds) at the given thread count and dump the
/// cut points as text. Byte-identical dumps across thread counts are
/// the CI-visible form of the serial ≡ parallel contract.
fn dump_cuts(path: &str, threads: usize) {
    let data = random_bytes(8 * 1024 * 1024, 0xC0DE_C4B5);
    let pool = WorkerPool::new(threads);
    let mut out = String::new();
    for config in [
        ChunkerConfig::new(128 * 1024),
        ChunkerConfig::gear(128 * 1024),
    ] {
        for (offset, len) in cut_points_parallel(&data, &config, &pool) {
            let _ = writeln!(out, "{} {offset} {len}", config.kind.label());
        }
    }
    std::fs::write(path, &out).unwrap_or_else(|e| {
        eprintln!("bench_kernels: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("wrote cut points for both kinds ({threads} threads) to {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    if let Some(path) = flag("--cuts-out") {
        let threads = flag("--cuts-threads")
            .and_then(|t| t.parse().ok())
            .unwrap_or(1);
        dump_cuts(&path, threads);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick" || a == "quick");
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_kernels.json".to_owned());
    let mode = if quick { "quick" } else { "full" };
    println!("bench_kernels ({mode} mode)\n");

    let mut h = Harness::new(quick);

    let sha_sizes: &[usize] = if quick {
        &[256 * 1024, 1024 * 1024]
    } else {
        &[256 * 1024, 1024 * 1024, 8 * 1024 * 1024]
    };
    for &size in sha_sizes {
        let data = random_bytes(size, 0xC0FFEE ^ size as u64);
        h.row("sha1", size, 1, || Sha1::digest(&data));
    }

    let roll_size = if quick { 1024 * 1024 } else { 4 * 1024 * 1024 };
    let data = random_bytes(roll_size, 0xAB1E);
    h.row("rabin_roll", roll_size, 1, || {
        let mut hash = RabinHash::new(48);
        for &b in &data[..48] {
            hash.push(b);
        }
        let mut acc = 0u64;
        for i in 48..data.len() {
            hash.roll(data[i - 48], data[i]);
            acc ^= hash.fingerprint();
        }
        acc
    });
    h.row("gear_roll", roll_size, 1, || {
        let mut hash = GearHash::new();
        let mut acc = 0u64;
        for &b in data.iter() {
            hash.push(b);
            acc ^= hash.fingerprint();
        }
        acc
    });

    let chunk_size = if quick { 4 * 1024 * 1024 } else { 16 * 1024 * 1024 };
    let theta = chunk_size / 16;
    let data = random_bytes(chunk_size, 0x5E6);
    let rabin_config = ChunkerConfig::new(theta);
    h.row("chunker_cut_points", chunk_size, 1, || {
        cut_points(&data, &rabin_config)
    });
    let gear_config = ChunkerConfig::gear(theta);
    h.row("gear_cut_points", chunk_size, 1, || {
        cut_points(&data, &gear_config)
    });
    for threads in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(threads);
        h.row("cut_points_parallel", chunk_size, threads, || {
            cut_points_parallel(&data, &gear_config, &pool)
        });
    }

    let rs_size = if quick { 1024 * 1024 } else { 4 * 1024 * 1024 };
    let data = random_bytes(rs_size, 0xEC0DE);
    let codec = Codec::non_systematic(255, 3).expect("paper parameters");
    h.row("rs_encode", rs_size, 1, || {
        codec.encode_blocks(&data, &[0, 1, 2, 3, 4])
    });
    let stripe = codec.encode_blocks(&data, &[0, 1, 2, 3, 4]);
    let shares: Vec<(usize, &[u8])> = [0usize, 2, 4]
        .iter()
        .map(|&i| (i, stripe[i].as_ref()))
        .collect();
    h.row("rs_decode", rs_size, 1, || {
        codec.decode(&shares, data.len()).expect("k shares decode")
    });

    let ingest_size = if quick { 4 * 1024 * 1024 } else { 16 * 1024 * 1024 };
    let data = random_bytes(ingest_size, 0x1265);
    let rabin_ingest = ChunkerConfig::new(ingest_size / 16);
    let gear_ingest = ChunkerConfig::gear(ingest_size / 16);
    for threads in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(threads);
        h.row("ingest", ingest_size, threads, || {
            ingest(&data, &rabin_ingest, &codec, &pool)
        });
    }
    for threads in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(threads);
        h.row("ingest_gear", ingest_size, threads, || {
            ingest(&data, &gear_ingest, &codec, &pool)
        });
    }

    let json = h.to_json(mode);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("bench_kernels: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("\nwrote {out_path}");
}
