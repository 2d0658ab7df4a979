//! **s3_bench** — wall-clock throughput of the HTTP backend.
//!
//! Boots an in-process [`MockS3`] on an ephemeral port and drives an
//! [`S3Cloud`] through the pooled std-only HTTP client, measuring each
//! Web API op end to end: request framing, connection checkout,
//! loopback TCP, server routing, and response parsing. Loopback wipes
//! out network variance, so what the rows track is the *client-side*
//! cost of the real-backend path — the serialization and pooling
//! overhead UniDrive adds on top of a provider's wire time. Rows:
//!
//! - `upload` / `download` — one object per iteration, several sizes
//! - `append` — read-modify-write through HTTP (download + upload),
//!   constant payload against a bounded object
//! - `list` — one directory of 32 entries
//! - `upload_delete` — full object lifecycle per iteration
//!
//! Like `bench_kernels`, percentiles are exact sample ranks and
//! results export as JSON with a fixed schema and row order — values
//! are wall clock and vary run to run, the shape never does.
//!
//! Usage: `s3_bench [--quick|quick] [--out PATH]`
//! (default out: `BENCH_s3.json`).

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use unidrive_bench::microbench::{sample, Sampled};
use unidrive_cloud::{CloudStore, MockS3, S3Cloud, S3Endpoint};
use unidrive_sim::{RealRuntime, Runtime};
use unidrive_util::bytes::Bytes;
use unidrive_workload::random_bytes;

struct Row {
    op: &'static str,
    bytes: usize,
    t: Sampled,
}

struct Harness {
    budget: Duration,
    rows: Vec<Row>,
}

impl Harness {
    /// Times `f` through [`sample`]; `bytes` is the payload one
    /// iteration moves.
    fn row<T>(&mut self, op: &'static str, bytes: usize, f: impl FnMut() -> T) {
        let t = sample(self.budget, bytes, f);
        println!(
            "{op:<14} {bytes:>9} B {:>6} it {:>10.1} MiB/s  (mean {:>9} ns, p50 {:>9}, p95 {:>9})",
            t.iters, t.mb_per_s, t.mean_ns, t.p50_ns, t.p95_ns
        );
        self.rows.push(Row { op, bytes, t });
    }

    fn to_json(&self, mode: &str) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n\"s3_bench\": \"unidrive/v1\",\n");
        let _ = writeln!(out, "\"mode\": \"{mode}\",");
        out.push_str("\"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"op\": \"{}\", \"bytes\": {}, \"iters\": {}, \
                 \"mb_per_s\": {:.2}, \"mean_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}}}",
                r.op, r.bytes, r.t.iters, r.t.mb_per_s, r.t.mean_ns, r.t.p50_ns, r.t.p95_ns
            );
        }
        out.push_str("\n]\n}\n");
        out
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_s3.json".to_owned());

    let server = MockS3::start().unwrap_or_else(|e| {
        eprintln!("s3_bench: cannot bind mock server: {e}");
        std::process::exit(1);
    });
    let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
    let endpoint = S3Endpoint::new("s3", server.addr(), "bench");
    // The paper's data plane opens up to 5 connections per cloud; the
    // bench drives ops serially, so the pool mainly exercises reuse.
    let cloud = S3Cloud::connect(&rt, &endpoint, 5);

    let mut h = Harness {
        budget: Duration::from_millis(if quick { 60 } else { 300 }),
        rows: Vec::new(),
    };

    let sizes: &[usize] = &[4 * 1024, 256 * 1024, 1024 * 1024];
    for &size in sizes {
        let payload = random_bytes(size, 0x5335 ^ size as u64);
        h.row("upload", size, || {
            cloud.upload("bench/up.bin", payload.clone()).expect("upload")
        });
    }
    for &size in sizes {
        let payload = random_bytes(size, 0x5336 ^ size as u64);
        cloud.upload("bench/down.bin", payload).expect("seed download");
        h.row("download", size, || {
            black_box(cloud.download("bench/down.bin").expect("download"))
        });
    }

    // Append is the composed RMW over HTTP; reset the object each
    // iteration so the cost stays a function of the payload, not of an
    // unboundedly growing log.
    let chunk = random_bytes(16 * 1024, 0x5337);
    h.row("append", chunk.len(), || {
        cloud.upload("bench/log.bin", chunk.clone()).expect("reset");
        cloud.append("bench/log.bin", chunk.clone()).expect("append")
    });

    for i in 0..32 {
        cloud
            .upload(&format!("bench/dir/f{i:02}"), Bytes::from_static(b"x"))
            .expect("seed listing");
    }
    h.row("list", 0, || {
        let entries = cloud.list("bench/dir").expect("list");
        assert_eq!(entries.len(), 32);
        black_box(entries)
    });

    let small = random_bytes(4 * 1024, 0x5338);
    h.row("upload_delete", small.len(), || {
        cloud.upload("bench/tmp.bin", small.clone()).expect("upload");
        cloud.delete("bench/tmp.bin").expect("delete")
    });

    let json = h.to_json(if quick { "quick" } else { "full" });
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("s3_bench: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!(
        "wrote {} rows to {out_path} ({} requests served)",
        h.rows.len(),
        server.requests()
    );
}
