//! Shared data-plane configuration and block-assignment planning.

use std::time::Duration;

use unidrive_chunker::ChunkerConfig;
use unidrive_cloud::RetryPolicy;
use unidrive_erasure::RedundancyConfig;
use unidrive_obs::Obs;

/// Configuration of the data plane (paper §6, plus ablation switches).
#[derive(Debug, Clone)]
pub struct DataPlaneConfig {
    /// Erasure-coding and placement parameters (N, k, K_r, K_s).
    pub redundancy: RedundancyConfig,
    /// Content-defined segmentation parameters (θ, window, and the
    /// rolling-hash kind: paper-faithful Rabin, or the several-times
    /// faster FastCDC-style gear hash — see
    /// [`ChunkerKind`](unidrive_chunker::ChunkerKind)).
    pub chunker: ChunkerConfig,
    /// Concurrent connections per cloud (the paper uses up to 5).
    pub connections_per_cloud: usize,
    /// Retry policy for transient Web API failures.
    pub retry: RetryPolicy,
    /// Enable over-provisioned parity blocks (paper §6.2). Disabling
    /// reduces UniDrive to the "multi-cloud benchmark" upload behaviour.
    pub overprovisioning: bool,
    /// Enable the availability-first / reliability-second two-phase
    /// batch principle. Disabling interleaves both kinds of work.
    pub two_phase: bool,
    /// Enable in-channel probing (download tail duplication onto faster
    /// clouds). Disabling reduces downloads to plain idle-pull.
    pub probing: bool,
    /// Give up on placing a block after this many failed placements
    /// across the batch (each failure re-queues it elsewhere first).
    pub max_block_bounces: u32,
    /// Download tail-duplication threshold: an idle cloud duplicates a
    /// block in flight on a cloud at least this many times slower.
    pub dup_speed_ratio: f64,
    /// Upper bound on how long an idle transfer-engine worker parks
    /// before re-polling its policy. `None` (the default) parks until a
    /// completion or failure actually notifies it — the former 5 ms
    /// `IDLE_POLL` constant, kept sweepable for ablations.
    pub idle_wait: Option<Duration>,
    /// Worker threads for the CPU-bound ingest pipeline in
    /// [`DataPlane::upload_files`](crate::DataPlane::upload_files):
    /// cut-point discovery scans disjoint buffer slices on the pool,
    /// and per-segment hashing fans out across it. Cut points are
    /// byte-identical to the serial scan and hash results are
    /// collected by input index, so plans, metrics, and traces are
    /// byte-identical at any width — only wall clock changes. 1 (the
    /// default) runs strictly inline on the calling thread.
    pub ingest_threads: usize,
    /// Observability handle threaded through the schedulers, retries,
    /// and the bandwidth probe (no-op by default; see `unidrive-obs`).
    pub obs: Obs,
    /// Stall watchdog + flight recorder for every transfer-engine run
    /// (see [`WatchdogConfig`](crate::WatchdogConfig)). `None` (the
    /// default) leaves engine behavior untouched.
    pub watchdog: Option<crate::engine::WatchdogConfig>,
}

impl DataPlaneConfig {
    /// The paper's evaluation configuration: N = 5, k = 3, K_r = 3,
    /// K_s = 2, θ = 4 MB, 5 connections per cloud, everything enabled.
    pub fn paper_default() -> Self {
        DataPlaneConfig {
            redundancy: RedundancyConfig::paper_default(),
            chunker: ChunkerConfig::paper_default(),
            connections_per_cloud: 5,
            retry: RetryPolicy::new(),
            overprovisioning: true,
            two_phase: true,
            probing: true,
            max_block_bounces: 8,
            dup_speed_ratio: 1.5,
            idle_wait: None,
            ingest_threads: 1,
            obs: Obs::noop(),
            watchdog: None,
        }
    }

    /// Same as [`paper_default`](DataPlaneConfig::paper_default) but with
    /// the given redundancy and segment size (handy in tests, which use
    /// smaller θ).
    pub fn with_params(redundancy: RedundancyConfig, theta: usize) -> Self {
        DataPlaneConfig {
            redundancy,
            chunker: ChunkerConfig::new(theta),
            ..DataPlaneConfig::paper_default()
        }
    }
}

/// Deterministic even assignment of the normal parity blocks: block `i`
/// of a segment goes to cloud `i mod N`, so every cloud receives exactly
/// its fair share `⌈k/K_r⌉` (paper §6.2, "Basic Upload Scheduling").
pub fn normal_assignment(redundancy: &RedundancyConfig) -> Vec<Vec<u16>> {
    let n = redundancy.clouds();
    let total = redundancy.normal_block_count();
    let mut per_cloud: Vec<Vec<u16>> = vec![Vec::new(); n];
    for i in 0..total {
        per_cloud[i % n].push(i as u16);
    }
    per_cloud
}

/// Builds the user's multi-cloud from S3-compatible HTTP endpoints:
/// one [`S3Cloud`](unidrive_cloud::S3Cloud) per endpoint, each with a
/// connection pool sized by
/// [`connections_per_cloud`](DataPlaneConfig::connections_per_cloud)
/// (the paper's "up to 5 TCP connections to each cloud", §6.1).
///
/// The stores are returned bare: the sync engine already applies
/// [`DataPlaneConfig::retry`] around every Web API call, exactly as it
/// does for simulated or in-memory members, so wrapping retries here
/// would double them. Compose
/// [`CloudBuilder`](unidrive_cloud::CloudBuilder) stages (request-rate
/// shaping, fault injection, observation) around the members first if
/// a deployment wants them; the builder has no retry stage.
pub fn s3_cloud_set(
    rt: &std::sync::Arc<dyn unidrive_sim::Runtime>,
    endpoints: &[unidrive_cloud::S3Endpoint],
    config: &DataPlaneConfig,
) -> unidrive_cloud::CloudSet {
    use std::sync::Arc;
    use unidrive_cloud::{CloudStore, S3Cloud};
    unidrive_cloud::CloudSet::new(
        endpoints
            .iter()
            .map(|ep| {
                Arc::new(S3Cloud::connect(rt, ep, config.connections_per_cloud))
                    as Arc<dyn CloudStore>
            })
            .collect(),
    )
}

/// A snapshot of one segment's plaintext, shared across upload workers.
#[derive(Debug, Clone)]
pub struct SegmentData {
    /// Content-addressed id.
    pub id: unidrive_meta::SegmentId,
    /// Plaintext bytes.
    pub data: unidrive_util::bytes::Bytes,
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_assignment_is_even_and_complete() {
        let cfg = RedundancyConfig::paper_default(); // fair share 1, N=5
        let a = normal_assignment(&cfg);
        assert_eq!(a.len(), 5);
        for (c, blocks) in a.iter().enumerate() {
            assert_eq!(blocks.len(), cfg.fair_share(), "cloud {c}");
        }
        let mut all: Vec<u16> = a.concat();
        all.sort();
        assert_eq!(all, (0..cfg.normal_block_count() as u16).collect::<Vec<_>>());
    }

    #[test]
    fn normal_assignment_with_larger_fair_share() {
        let cfg = RedundancyConfig::new(4, 6, 3, 1).unwrap(); // fair share 2
        let a = normal_assignment(&cfg);
        for blocks in &a {
            assert_eq!(blocks.len(), 2);
        }
    }
}
