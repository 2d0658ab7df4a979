//! # unidrive-bench
//!
//! Harness that regenerates every table and figure of the UniDrive
//! paper's evaluation (§3.2 measurement study, §7 experiments, §7.3
//! trial). Each `src/bin/*` binary prints one table/figure; see
//! `EXPERIMENTS.md` at the repository root for the index and recorded
//! outcomes, and `benches/` for Criterion micro-benchmarks of the
//! primitives.
//!
//! All experiments run under deterministic virtual time, so a "month" of
//! half-hourly probes takes seconds of wall time; run the binaries with
//! `--release` (debug-mode Reed-Solomon is ~20× slower).

#![warn(missing_docs)]

pub mod json;

use std::sync::Arc;
use std::time::Duration;

use unidrive_baseline::{
    IntuitiveMultiCloud, MultiCloudBenchmark, SingleCloudClient, UniDriveTransfer,
};
use unidrive_cloud::{CloudSet, SimCloud};
use unidrive_core::DataPlaneConfig;
use unidrive_erasure::RedundancyConfig;
use unidrive_obs::Obs;
use unidrive_sim::SimRuntime;
use unidrive_workload::{build_multicloud, Provider, Site};

/// Evaluation parameters shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Repetitions per measured point.
    pub repeats: usize,
    /// The "32 MB" micro-benchmark file size.
    pub large_file: usize,
    /// The batch-sync workload: `(count, size)` (paper: 100 × 1 MB).
    pub batch: (usize, usize),
    /// Segment size θ.
    pub theta: usize,
}

impl ExperimentScale {
    /// Paper-faithful sizes (slow in debug builds; use `--release`).
    pub fn paper() -> Self {
        ExperimentScale {
            repeats: 5,
            large_file: 32 * 1024 * 1024,
            batch: (100, 1024 * 1024),
            theta: 4 * 1024 * 1024,
        }
    }

    /// Reduced sizes preserving every ratio the figures depend on; used
    /// when an experiment binary is invoked with `quick`.
    pub fn quick() -> Self {
        ExperimentScale {
            repeats: 3,
            large_file: 8 * 1024 * 1024,
            batch: (30, 512 * 1024),
            theta: 1024 * 1024,
        }
    }

    /// Parses the scale from the process arguments (`quick` selects the
    /// reduced scale; default is the paper scale).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "quick") {
            ExperimentScale::quick()
        } else {
            ExperimentScale::paper()
        }
    }
}

/// Parses `--meta-mode {lock,oplog}` from the process arguments
/// (default: `lock`, the paper's quorum-locked plane). Shared by every
/// experiment binary so `run_all --meta-mode oplog` drives both planes
/// uniformly. An unknown value aborts with a usage message — a typo
/// must not silently benchmark the wrong plane.
pub fn meta_mode_from_args() -> unidrive_meta::MetaMode {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--meta-mode" {
            let value = args.next().unwrap_or_default();
            match unidrive_meta::MetaMode::parse(&value) {
                Some(mode) => return mode,
                None => {
                    eprintln!("--meta-mode must be 'lock' or 'oplog', got '{value}'");
                    std::process::exit(2);
                }
            }
        }
    }
    unidrive_meta::MetaMode::Lock
}

/// The four systems under comparison at one site (paper §7.1).
pub struct Systems {
    /// UniDrive proper.
    pub unidrive: UniDriveTransfer,
    /// RACS/DepSky-like benchmark.
    pub benchmark: MultiCloudBenchmark,
    /// Parts-to-native-apps baseline.
    pub intuitive: IntuitiveMultiCloud,
    /// One native single-cloud client per provider.
    pub natives: Vec<(Provider, SingleCloudClient)>,
    /// The cloud handles (outage/traffic control).
    pub handles: Vec<Arc<SimCloud>>,
    /// The underlying cloud set.
    pub clouds: CloudSet,
}

impl std::fmt::Debug for Systems {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Systems")
            .field("clouds", &self.clouds)
            .finish()
    }
}

/// Builds all comparison systems over the same five simulated clouds at
/// `site`, with the paper's parameters (K_r = 3, K_s = 2, k = 3, ≤ 5
/// connections per cloud).
pub fn systems_at(sim: &Arc<SimRuntime>, site: Site, theta: usize) -> Systems {
    systems_at_observed(sim, site, theta, &Obs::noop())
}

/// Like [`systems_at`], but threads an [`Obs`] handle through the
/// UniDrive data plane and installs it on every simulated cloud (which
/// also points the registry clock at `sim`'s virtual time), so the run
/// can be exported with `--metrics-out` (see [`metrics_out`]).
pub fn systems_at_observed(
    sim: &Arc<SimRuntime>,
    site: Site,
    theta: usize,
    obs: &Obs,
) -> Systems {
    let (clouds, handles) = build_multicloud(sim, site);
    for handle in &handles {
        handle.install_obs(obs.clone());
    }
    let redundancy = RedundancyConfig::new(5, 3, 3, 2).expect("paper parameters");
    let config = DataPlaneConfig {
        connections_per_cloud: 5,
        obs: obs.clone(),
        ..DataPlaneConfig::with_params(redundancy, theta)
    };
    let rt = sim.clone().as_runtime();
    let unidrive = UniDriveTransfer::new(rt.clone(), clouds.clone(), config);
    let benchmark =
        MultiCloudBenchmark::new(rt.clone(), clouds.clone(), redundancy, 5).with_chunk_size(theta);
    let intuitive = IntuitiveMultiCloud::new(rt.clone(), &clouds, 5);
    let natives = Provider::ALL
        .iter()
        .zip(clouds.iter())
        .map(|(&p, (_, cloud))| (p, SingleCloudClient::new(rt.clone(), Arc::clone(cloud), 5)))
        .collect();
    Systems {
        unidrive,
        benchmark,
        intuitive,
        natives,
        handles,
        clouds,
    }
}

/// Minimal micro-benchmark harness (replaces Criterion so the
/// workspace builds offline with zero external crates). Each sample
/// times one call of the closure. [`run`](microbench::run) takes a
/// fixed sample count and prints `name  mean (min..max)  [throughput]`;
/// [`sample`](microbench::sample) spends a time budget and returns
/// exact-rank percentiles for the `BENCH_*.json` row binaries.
pub mod microbench {
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// Timing summary for one benchmark.
    #[derive(Debug, Clone)]
    pub struct BenchResult {
        /// Benchmark label.
        pub name: String,
        /// Number of timed samples.
        pub samples: usize,
        /// Mean sample duration.
        pub mean: Duration,
        /// Fastest sample.
        pub min: Duration,
        /// Slowest sample.
        pub max: Duration,
    }

    impl BenchResult {
        /// Mean duration in nanoseconds.
        pub fn mean_ns(&self) -> f64 {
            self.mean.as_secs_f64() * 1e9
        }
    }

    fn fmt(d: Duration) -> String {
        let ns = d.as_secs_f64() * 1e9;
        if ns < 1e3 {
            format!("{ns:.0} ns")
        } else if ns < 1e6 {
            format!("{:.2} µs", ns / 1e3)
        } else if ns < 1e9 {
            format!("{:.2} ms", ns / 1e6)
        } else {
            format!("{:.3} s", ns / 1e9)
        }
    }

    /// Times `f` for `samples` runs after one warm-up run and prints a
    /// summary line. `bytes` (when non-zero) adds a throughput column.
    pub fn run<T>(name: &str, samples: usize, bytes: usize, mut f: impl FnMut() -> T) -> BenchResult {
        black_box(f());
        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples.max(1) {
            let start = Instant::now();
            black_box(f());
            times.push(start.elapsed());
        }
        let total: Duration = times.iter().sum();
        let result = BenchResult {
            name: name.to_owned(),
            samples: times.len(),
            mean: total / times.len() as u32,
            min: *times.iter().min().expect("non-empty"),
            max: *times.iter().max().expect("non-empty"),
        };
        let throughput = if bytes > 0 {
            let mibps = bytes as f64 / result.mean.as_secs_f64().max(1e-12) / (1024.0 * 1024.0);
            format!("  {mibps:.1} MiB/s")
        } else {
            String::new()
        };
        println!(
            "{:<44} {:>10} ({} .. {}){throughput}",
            result.name,
            fmt(result.mean),
            fmt(result.min),
            fmt(result.max),
        );
        result
    }

    /// Exact rank-`q` percentile of the sorted samples: the ⌈q·n⌉-th
    /// smallest observation, an actual measured value rather than a
    /// histogram bucket bound. 0 for no samples.
    pub fn percentile(sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Wall-clock summary of one [`sample`] run.
    #[derive(Debug, Clone, Copy)]
    pub struct Sampled {
        /// Timed iterations.
        pub iters: u64,
        /// `bytes` per mean iteration, in MiB/s.
        pub mb_per_s: f64,
        /// Mean iteration time.
        pub mean_ns: u64,
        /// Median iteration time.
        pub p50_ns: u64,
        /// 95th-percentile iteration time.
        pub p95_ns: u64,
    }

    /// Times `f` after one untimed warm-up until `budget` is spent,
    /// taking at least 3 and at most 10 000 samples. `bytes` is the
    /// payload one iteration processes (0 for none).
    pub fn sample<T>(budget: Duration, bytes: usize, mut f: impl FnMut() -> T) -> Sampled {
        black_box(f());
        let start = Instant::now();
        let mut samples: Vec<u64> = Vec::with_capacity(256);
        while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 10_000) {
            let t0 = Instant::now();
            black_box(f());
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        let iters = samples.len() as u64;
        let mean_ns = samples.iter().sum::<u64>() as f64 / iters as f64;
        samples.sort_unstable();
        Sampled {
            iters,
            mb_per_s: bytes as f64 / (mean_ns / 1e9).max(1e-12) / (1024.0 * 1024.0),
            mean_ns: mean_ns as u64,
            p50_ns: percentile(&samples, 0.50),
            p95_ns: percentile(&samples, 0.95),
        }
    }
}

/// `--metrics-out <path>` / `--trace-out <path>` support shared by the
/// experiment binaries: when either flag is present the binary records
/// the run into a registry-backed [`Obs`] and on exit writes the
/// canonicalized snapshot to the `--metrics-out` path (JSON, or CSV
/// when the path ends in `.csv`) and/or the Chrome trace-event export
/// (Perfetto-loadable) to the `--trace-out` path. Without either flag
/// the returned handle is a no-op and the run pays only an `Option`
/// branch per instrumentation site.
pub mod metrics_out {
    use std::sync::Arc;

    use unidrive_obs::{HistogramSnapshot, Obs, Registry, DEFAULT_SERIES_WINDOW_NS};

    /// Event-ring capacity used for exported runs: large enough that a
    /// full figure run keeps every event, so the export (and therefore
    /// the same-seed determinism check) never depends on eviction
    /// order between racing actors.
    pub const EXPORT_TRACE_CAPACITY: usize = 1 << 16;

    /// Parsed `--metrics-out` / `--trace-out` / `--series-out` state;
    /// obtain via [`from_args`].
    pub struct MetricsOut {
        /// Handle to thread through [`crate::systems_at_observed`] or
        /// `DataPlaneConfig.obs` / `SimCloud::install_obs` directly.
        pub obs: Obs,
        registry: Option<Arc<Registry>>,
        path: Option<String>,
        trace_path: Option<String>,
        series_path: Option<String>,
        health_rows: Vec<String>,
    }

    impl std::fmt::Debug for MetricsOut {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("MetricsOut")
                .field("path", &self.path)
                .field("trace_path", &self.trace_path)
                .field("series_path", &self.series_path)
                .finish()
        }
    }

    /// Reads `--metrics-out <path>`, `--trace-out <path>`, and
    /// `--series-out <path>` from the process arguments. Any of the
    /// three flags installs a real registry; `--series-out` also
    /// enables windowed series collection on it (window =
    /// [`DEFAULT_SERIES_WINDOW_NS`]).
    pub fn from_args() -> MetricsOut {
        let mut args = std::env::args();
        let mut path = None;
        let mut trace_path = None;
        let mut series_path = None;
        while let Some(arg) = args.next() {
            if arg == "--metrics-out" {
                path = args.next();
            } else if arg == "--trace-out" {
                trace_path = args.next();
            } else if arg == "--series-out" {
                series_path = args.next();
            }
        }
        let (obs, registry) = if path.is_some() || trace_path.is_some() || series_path.is_some()
        {
            let registry = Registry::with_trace_capacity(EXPORT_TRACE_CAPACITY);
            if series_path.is_some() {
                registry.enable_series(DEFAULT_SERIES_WINDOW_NS);
            }
            (Obs::with_registry(Arc::clone(&registry)), Some(registry))
        } else {
            (Obs::noop(), None)
        };
        MetricsOut {
            obs,
            registry,
            path,
            trace_path,
            series_path,
            health_rows: Vec::new(),
        }
    }

    /// `p50/p95/p99` of a latency histogram, rendered in milliseconds.
    pub fn fmt_quantiles_ms(h: &HistogramSnapshot) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        format!(
            "p50={:.1}ms p95={:.1}ms p99={:.1}ms (n={})",
            ms(h.p50()),
            ms(h.p95()),
            ms(h.p99()),
            h.count
        )
    }

    impl MetricsOut {
        /// True when `--series-out` was given (callers can skip
        /// series-only work otherwise).
        pub fn series_enabled(&self) -> bool {
            self.series_path.is_some()
        }

        /// Health scoreboard rows (`unidrive-health/v1` objects, one
        /// per cloud, pre-sorted) to embed in the `--series-out`
        /// export's `"health"` array.
        pub fn set_health_rows(&mut self, rows: Vec<String>) {
            self.health_rows = rows;
        }

        /// Claims the `--series-out` path, disabling the
        /// registry-backed series write in [`write`](MetricsOut::write).
        /// For binaries whose series come from a deterministic source
        /// of their own (the fleet bench merges per-shard banks) and
        /// must write that document instead.
        pub fn take_series_path(&mut self) -> Option<String> {
            self.series_path.take()
        }

        /// Writes the canonicalized snapshot to the `--metrics-out`
        /// path, the Chrome trace to the `--trace-out` path, and the
        /// windowed series (plus any health rows) to the
        /// `--series-out` path, then prints a `p50/p95/p99` summary of
        /// every latency histogram. Returns the metrics path written,
        /// or `None` when that flag was absent. I/O errors are
        /// reported on stderr, not fatal: the figure output already
        /// printed.
        pub fn write(&self) -> Option<String> {
            if let (Some(series_path), Some(registry)) = (&self.series_path, &self.registry) {
                let doc = registry
                    .series_snapshot()
                    .to_json_with_health(&self.health_rows);
                match std::fs::write(series_path, doc) {
                    Ok(()) => println!("series written to {series_path}"),
                    Err(e) => eprintln!("failed to write --series-out {series_path}: {e}"),
                }
            }
            let mut snap = self.obs.snapshot()?;
            snap.canonicalize();
            for (name, h) in &snap.histograms {
                if name.ends_with("_ns") && h.count > 0 {
                    println!("{name}: {}", fmt_quantiles_ms(h));
                }
            }
            if let Some(path) = &self.trace_path {
                match std::fs::write(path, snap.to_chrome_trace()) {
                    Ok(()) => println!("chrome trace written to {path}"),
                    Err(e) => eprintln!("failed to write --trace-out {path}: {e}"),
                }
            }
            let path = self.path.clone()?;
            let body = if path.ends_with(".csv") {
                snap.to_csv()
            } else {
                snap.to_json()
            };
            match std::fs::write(&path, body) {
                Ok(()) => Some(path),
                Err(e) => {
                    eprintln!("failed to write --metrics-out {path}: {e}");
                    None
                }
            }
        }
    }
}

/// Formats a duration in seconds with two decimals.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Formats a sample as `mean (min-max)`.
pub fn fmt_stats(values: &[f64]) -> String {
    match unidrive_workload::Summary::of(values) {
        Some(s) => format!("{:.2} ({:.2}-{:.2})", s.mean, s.min, s.max),
        None => "n/a".to_owned(),
    }
}

/// Throughput in Mbit/s for `bytes` over `d`.
pub fn mbps(bytes: usize, d: Duration) -> f64 {
    bytes as f64 * 8.0 / 1e6 / d.as_secs_f64().max(1e-9)
}
