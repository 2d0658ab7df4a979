//! Download scheduling (paper §6.2, "Dynamic Scheduling for Download").
//!
//! Any `k` blocks reconstruct a segment, normal or over-provisioned,
//! from whichever clouds. The dispatcher is pull-based: an idle
//! connection of a cloud takes the next block *that cloud can supply*
//! for the earliest unfinished segment — so faster clouds, whose
//! connections go idle more often, naturally contribute more blocks
//! (and over-provisioned blocks give them more to contribute). With
//! in-channel probing enabled, an idle fast cloud may additionally
//! duplicate a block that is in flight on a much slower cloud,
//! protecting the tail.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use unidrive_util::bytes::Bytes;
use unidrive_cloud::{CloudError, CloudId, CloudSet};
use unidrive_erasure::Codec;
use unidrive_meta::{block_path, BlockRef, SegmentId};
use unidrive_obs::{Obs, SpanGuard, SpanId};
use unidrive_sim::{Runtime, Time};

use crate::engine::{Deferred, EngineParams, JobDesc, TransferEngine, TransferPolicy, WireOp};
use crate::plan::{DataPlaneConfig, MAX_BLOCK_BOUNCES};
use crate::probe::BandwidthProbe;

/// Download tail-duplication threshold: an idle cloud duplicates a
/// block in flight on a cloud at least this many times slower.
const DUP_SPEED_RATIO: f64 = 1.5;

/// One segment to fetch: its identity, plaintext length, and known
/// block locations (from the metadata's segment pool).
#[derive(Debug, Clone)]
pub struct SegmentFetch {
    /// Content-addressed id.
    pub id: SegmentId,
    /// Plaintext length (needed to size the decode).
    pub len: u64,
    /// Known `<Block-ID, Cloud-ID>` locations.
    pub blocks: Vec<BlockRef>,
}

/// Error from a download batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownloadError {
    /// A segment could not gather `k` distinct blocks from reachable
    /// clouds — with fewer than `K_s` clouds reachable this is the
    /// *security property working as intended*; with at least `K_r` it
    /// is a genuine failure.
    NotEnoughBlocks {
        /// The segment that failed.
        segment: SegmentId,
        /// Blocks obtained.
        got: usize,
        /// Blocks needed.
        need: usize,
    },
    /// A downloaded segment did not hash to its id (corruption).
    IntegrityMismatch {
        /// The segment that failed verification.
        segment: SegmentId,
    },
}

impl std::fmt::Display for DownloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DownloadError::NotEnoughBlocks { segment, got, need } => {
                write!(f, "segment {segment}: only {got} of {need} blocks reachable")
            }
            DownloadError::IntegrityMismatch { segment } => {
                write!(f, "segment {segment}: content does not match its hash")
            }
        }
    }
}

impl std::error::Error for DownloadError {}

/// Outcome of a download batch.
#[derive(Debug)]
pub struct DownloadReport {
    /// Successfully reconstructed segments. Shared [`Bytes`] so callers
    /// can fan a segment out (file reassembly, re-encode, caching)
    /// without copying the plaintext again.
    pub segments: HashMap<SegmentId, Bytes>,
    /// Segments that failed, with the reason.
    pub failed: Vec<DownloadError>,
    /// When the batch started / finished.
    pub started: Time,
    /// When the batch finished.
    pub finished: Time,
    /// `(time, segment)` completion events in order.
    pub timeline: Vec<(Time, SegmentId)>,
}

impl DownloadReport {
    /// Whether every requested segment was reconstructed.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }

    /// Total duration of the batch.
    pub fn total_duration(&self) -> Duration {
        self.finished.saturating_duration_since(self.started)
    }
}

struct FetchState {
    id: SegmentId,
    len: usize,
    /// Block indices available per cloud.
    candidates: Vec<Vec<u16>>,
    /// Indices requested at least once.
    requested: HashSet<u16>,
    /// Spare blocks requested beyond k (probing tail protection).
    over_requests: usize,
    /// Which cloud each in-flight request is on: index → cloud.
    inflight: HashMap<u16, usize>,
    /// Failed attempts per block index. A block whose holder keeps
    /// erroring without reporting itself unavailable (a deleted
    /// directory reads as `NotFound`, not `Unavailable`) would
    /// otherwise be re-queued forever.
    bounces: HashMap<u16, u32>,
    /// Blocks received; emptied once the segment is done.
    have: HashMap<u16, Bytes>,
    /// Decode attempts that failed the content hash (corrupt blocks).
    integrity_retries: u32,
    /// A decode of `k` gathered blocks is running off the policy lock.
    decoding: bool,
    done: bool,
    exhausted: bool,
}

impl FetchState {
    fn new(f: &SegmentFetch, n_clouds: usize) -> Self {
        let mut candidates = vec![Vec::new(); n_clouds];
        for b in &f.blocks {
            if (b.cloud as usize) < n_clouds {
                candidates[b.cloud as usize].push(b.index);
            }
        }
        FetchState {
            id: f.id,
            len: f.len as usize,
            candidates,
            requested: HashSet::new(),
            over_requests: 0,
            inflight: HashMap::new(),
            bounces: HashMap::new(),
            have: HashMap::new(),
            integrity_retries: 0,
            decoding: false,
            done: false,
            exhausted: false,
        }
    }
}

struct DownloadState {
    fetches: Vec<FetchState>,
    cloud_alive: Vec<bool>,
    finished: bool,
    timeline: Vec<(Time, SegmentId)>,
    /// Live `engine.batch` span; dropped (= ended) when `finished`
    /// flips so it stamps the true batch completion time.
    batch_guard: Option<SpanGuard>,
}

struct Job {
    fetch: usize,
    index: u16,
}

/// Runs one download batch, reconstructing each segment from any `k`
/// blocks.
pub fn run_download(
    rt: &Arc<dyn Runtime>,
    clouds: &CloudSet,
    codec: &Arc<Codec>,
    config: &DataPlaneConfig,
    probe: &Arc<BandwidthProbe>,
    fetches: Vec<SegmentFetch>,
) -> DownloadReport {
    run_download_in(rt, clouds, codec, config, probe, fetches, None)
}

/// [`run_download`] with span causality: the batch's `engine.batch`
/// span is parented to `parent` (usually a client's `sync.round`
/// span).
#[allow(clippy::too_many_arguments)]
pub fn run_download_in(
    rt: &Arc<dyn Runtime>,
    clouds: &CloudSet,
    codec: &Arc<Codec>,
    config: &DataPlaneConfig,
    probe: &Arc<BandwidthProbe>,
    fetches: Vec<SegmentFetch>,
    parent: Option<SpanId>,
) -> DownloadReport {
    let started = rt.now();
    let mut batch_guard = config.obs.span("engine.batch", parent);
    batch_guard.attr_str("label", "download");
    batch_guard.attr_u64("segments", fetches.len() as u64);
    let batch_span = batch_guard.id();
    let policy = DownloadPolicy::new(codec, probe, config, &fetches, clouds.len(), batch_guard);

    let params = EngineParams {
        connections_per_cloud: config.connections_per_cloud,
        retry: config.retry.clone(),
        obs: config.obs.clone(),
        label: "download".into(),
        probe: Some(Arc::clone(probe)),
        batch_span,
        watchdog: config.watchdog.clone(),
    };
    let policy = TransferEngine::start(rt, clouds, params, policy).join();

    let finished = rt.now();
    DownloadReport {
        segments: policy.segments,
        failed: policy.failures,
        started,
        finished,
        timeline: policy.st.timeline,
    }
}

/// Download-side scheduling brain: earliest-unfinished-segment
/// dispatch, probing-gated primaries, and tail duplication, driven by
/// the shared engine.
struct DownloadPolicy {
    st: DownloadState,
    segments: HashMap<SegmentId, Bytes>,
    failures: Vec<DownloadError>,
    codec: Arc<Codec>,
    probe: Arc<BandwidthProbe>,
    obs: Obs,
    k: usize,
    probing: bool,
    batch_span: Option<SpanId>,
    /// Decode queued by the last completion, for the engine to run off
    /// the lock.
    deferred: Option<Deferred<DownloadPolicy>>,
}

impl DownloadPolicy {
    fn new(
        codec: &Arc<Codec>,
        probe: &Arc<BandwidthProbe>,
        config: &DataPlaneConfig,
        fetches: &[SegmentFetch],
        n_clouds: usize,
        batch_guard: SpanGuard,
    ) -> Self {
        let batch_span = batch_guard.id();
        let mut policy = DownloadPolicy {
            st: DownloadState {
                fetches: fetches
                    .iter()
                    .map(|f| FetchState::new(f, n_clouds))
                    .collect(),
                cloud_alive: vec![true; n_clouds],
                finished: fetches.is_empty(),
                timeline: Vec::new(),
                batch_guard: Some(batch_guard),
            },
            segments: HashMap::new(),
            failures: Vec::new(),
            codec: Arc::clone(codec),
            probe: Arc::clone(probe),
            obs: config.obs.clone(),
            k: codec.k(),
            probing: config.probing,
            batch_span,
            deferred: None,
        };
        // Handle the possibility that nothing is fetchable at all — the
        // batch must be born finished then (engine deadlock-safety
        // invariant: no work, nothing in flight, done).
        finish_check(&mut policy.st, policy.k, &mut policy.failures);
        policy
    }

    /// Once segment `fi` holds `k` blocks and no decode of it is
    /// running, marks it decoding and queues the decode of its sorted
    /// first `k` blocks; the applied result re-checks the batch.
    /// Otherwise re-checks whether the batch has settled.
    fn decode_or_settle(&mut self, fi: usize, now: Time) {
        let fetch = &mut self.st.fetches[fi];
        if fetch.decoding || fetch.have.len() < self.k {
            finish_check(&mut self.st, self.k, &mut self.failures);
            return;
        }
        fetch.decoding = true;
        // Sort for determinism: HashMap iteration order would make the
        // chosen k-subset (and thus replayed experiment traces) vary
        // run to run. The clones share the blocks' buffers.
        let mut indices: Vec<u16> = fetch.have.keys().copied().collect();
        indices.sort_unstable();
        indices.truncate(self.k);
        let shares: Vec<(usize, Bytes)> = indices
            .iter()
            .map(|i| (*i as usize, fetch.have[i].clone()))
            .collect();
        let (id, len, got) = (fetch.id, fetch.len, fetch.have.len());
        let codec = Arc::clone(&self.codec);
        let obs = self.obs.clone();
        let parent = self.batch_span;
        self.deferred = Some(Box::new(move || {
            let mut span = obs.span("download.decode", parent);
            span.attr_u64("bytes", len as u64);
            let outcome = decode_segment(&codec, id, len, &shares, got);
            span.attr_bool("ok", outcome.is_ok());
            span.end();
            Box::new(move |p: &mut DownloadPolicy| p.apply_decode(fi, &indices, outcome, now))
        }));
    }

    /// Applies a finished decode of segment `fi` from blocks `used`.
    /// `now` is when its `k`-th block landed.
    fn apply_decode(
        &mut self,
        fi: usize,
        used: &[u16],
        outcome: Result<Bytes, DownloadError>,
        now: Time,
    ) {
        let fetch = &mut self.st.fetches[fi];
        fetch.decoding = false;
        match outcome {
            Ok(plain) => {
                fetch.done = true;
                self.st.timeline.push((now, fetch.id));
                self.segments.insert(fetch.id, plain);
            }
            Err(e @ DownloadError::IntegrityMismatch { .. }) => {
                // One of the k blocks the decode used is corrupt (we
                // cannot tell which): discard exactly that combination
                // and keep any other gathered blocks; over-provisioned
                // spares exist precisely for moments like this. The
                // decode re-queues right away if enough spares are
                // already in hand. Give up after a few combinations.
                fetch.integrity_retries += 1;
                if fetch.integrity_retries > 3 {
                    fetch.done = true;
                    self.failures.push(e);
                } else {
                    for idx in used {
                        fetch.have.remove(idx);
                        for c in &mut fetch.candidates {
                            c.retain(|i| i != idx);
                        }
                    }
                }
            }
            Err(e) => {
                fetch.done = true;
                self.failures.push(e);
            }
        }
        if fetch.done {
            // The segment is settled: its blocks are dead weight now.
            fetch.have.clear();
            finish_check(&mut self.st, self.k, &mut self.failures);
        } else {
            self.decode_or_settle(fi, now);
        }
    }
}

impl TransferPolicy for DownloadPolicy {
    type Token = Job;

    fn next_job(&mut self, cloud: CloudId) -> Option<JobDesc<Job>> {
        let job = next_job(
            &mut self.st,
            cloud.0,
            self.k,
            self.probing,
            &self.probe,
            &self.obs,
        )?;
        let path = block_path(&self.st.fetches[job.fetch].id, job.index);
        Some(JobDesc {
            index: job.index,
            extra: false,
            parent_span: self.batch_span,
            op: WireOp::Download { path },
            token: job,
        })
    }

    fn is_done(&self) -> bool {
        self.st.finished
    }

    fn on_success(&mut self, cloud: CloudId, job: Job, data: Option<Bytes>, now: Time) {
        let data = data.expect("download job completed without data");
        let fetch = &mut self.st.fetches[job.fetch];
        if fetch.inflight.get(&job.index) == Some(&cloud.0) {
            fetch.inflight.remove(&job.index);
        }
        // Torn blocks must be surfaced, not masked: a block whose length
        // differs from the codec's share length (e.g. a torn upload that
        // persisted only a prefix) can never decode, and feeding it in
        // would burn an integrity retry on the whole combination. Reject
        // it here, stop chasing that index, and let the fetch proceed
        // from the remaining candidates.
        if data.len() != self.codec.block_len(fetch.len) {
            self.obs.inc("download.truncated_blocks");
            for c in &mut fetch.candidates {
                c.retain(|i| *i != job.index);
            }
            finish_check(&mut self.st, self.k, &mut self.failures);
            return;
        }
        // A late block (a spare or a tail duplicate) for a segment that
        // is already settled is of no use: drop it now rather than hold
        // it until the batch ends.
        if fetch.done {
            finish_check(&mut self.st, self.k, &mut self.failures);
            return;
        }
        fetch.have.entry(job.index).or_insert(data);
        self.decode_or_settle(job.fetch, now);
    }

    fn on_failure(&mut self, cloud: CloudId, job: Job, error: CloudError, _now: Time) {
        let fetch = &mut self.st.fetches[job.fetch];
        if fetch.inflight.get(&job.index) == Some(&cloud.0) {
            fetch.inflight.remove(&job.index);
        }
        let bounces = fetch.bounces.entry(job.index).or_insert(0);
        *bounces += 1;
        if *bounces >= MAX_BLOCK_BOUNCES {
            // The block's holder keeps failing without going
            // unavailable: stop chasing it so the batch can settle
            // (finish_check then completes from other blocks or
            // reports NotEnoughBlocks instead of looping forever).
            for c in &mut fetch.candidates {
                c.retain(|i| *i != job.index);
            }
        } else {
            fetch.requested.remove(&job.index);
        }
        if matches!(error, CloudError::Unavailable { .. }) {
            self.st.cloud_alive[cloud.0] = false;
        }
        finish_check(&mut self.st, self.k, &mut self.failures);
    }

    fn take_deferred(&mut self) -> Option<Deferred<Self>> {
        self.deferred.take()
    }
}

/// Reconstructs segment `id` (`len` plaintext bytes) from `shares` and
/// verifies it against its content hash. `got` is how many blocks the
/// fetch held, for the error report.
fn decode_segment(
    codec: &Codec,
    id: SegmentId,
    len: usize,
    shares: &[(usize, Bytes)],
    got: usize,
) -> Result<Bytes, DownloadError> {
    let views: Vec<(usize, &[u8])> = shares.iter().map(|(i, b)| (*i, b.as_ref())).collect();
    let plain = codec
        .decode(&views, len)
        .map_err(|_| DownloadError::NotEnoughBlocks {
            segment: id,
            got,
            need: shares.len(),
        })?;
    // Verify content addressing end to end.
    let digest = unidrive_crypto::Sha1::digest(&plain);
    if digest != id.0 {
        return Err(DownloadError::IntegrityMismatch { segment: id });
    }
    Ok(Bytes::from(plain))
}

/// Picks the next block an idle connection of `cloud` should fetch.
fn next_job(
    st: &mut DownloadState,
    cloud: usize,
    k: usize,
    probing: bool,
    probe: &BandwidthProbe,
    obs: &Obs,
) -> Option<Job> {
    if !st.cloud_alive[cloud] {
        return None;
    }
    let my_speed = probe.speed(unidrive_cloud::CloudId(cloud));
    for fi in 0..st.fetches.len() {
        let fetch = &st.fetches[fi];
        if fetch.done || fetch.exhausted || fetch.decoding {
            continue;
        }
        let has_candidate = |c: usize, fetch: &FetchState| {
            fetch.candidates[c]
                .iter()
                .any(|i| !fetch.requested.contains(i) && !fetch.have.contains_key(i))
        };
        let my_candidate = fetch.candidates[cloud]
            .iter()
            .find(|i| !fetch.requested.contains(i) && !fetch.have.contains_key(i))
            .copied();
        let Some(index) = my_candidate else {
            continue;
        };
        let outstanding = fetch.inflight.len();
        // Primary: fetch a block nobody has requested yet, as long as we
        // still need more than are in flight. With probing enabled,
        // "eligible clouds are kept sorted according to their connection
        // speed" (paper §6.2): a much slower cloud leaves the block to
        // the faster ones that also have candidates.
        if fetch.have.len() + outstanding < k {
            let fastest_eligible = (0..st.cloud_alive.len())
                .filter(|&c| st.cloud_alive[c] && has_candidate(c, fetch))
                .map(|c| probe.speed(unidrive_cloud::CloudId(c)))
                .fold(0.0f64, f64::max);
            let gated = probing && my_speed * 4.0 < fastest_eligible;
            if !gated {
                let fetch = &mut st.fetches[fi];
                fetch.requested.insert(index);
                fetch.inflight.insert(index, cloud);
                return Some(Job { fetch: fi, index });
            }
        }
        // Over-request: enough blocks are in flight, but some sit on
        // much slower clouds — a fast idle connection fetches a *spare*
        // block (typically an over-provisioned one) so the segment
        // completes from whichever k arrive first. This is the
        // download-side payoff of over-provisioning (paper §6.2).
        if probing && outstanding > 0 && fetch.over_requests < k {
            let stuck_on_slow = fetch.inflight.iter().any(|(_, &other)| {
                other != cloud
                    && my_speed > DUP_SPEED_RATIO * probe.speed(unidrive_cloud::CloudId(other))
            });
            if stuck_on_slow {
                let fetch = &mut st.fetches[fi];
                fetch.over_requests += 1;
                // Counter-only: safe under the scheduler lock (no clock).
                obs.inc("download.over_requests");
                fetch.requested.insert(index);
                fetch.inflight.insert(index, cloud);
                return Some(Job { fetch: fi, index });
            }
        }
    }
    None
}

/// Detects completion: every fetch is done, or stuck fetches cannot make
/// progress (no reachable unrequested candidates and nothing in flight).
fn finish_check(st: &mut DownloadState, k: usize, failures: &mut Vec<DownloadError>) {
    if st.finished {
        return;
    }
    let n_clouds = st.cloud_alive.len();
    let mut all_settled = true;
    for fi in 0..st.fetches.len() {
        let fetch = &st.fetches[fi];
        if fetch.done || fetch.exhausted {
            continue;
        }
        if fetch.decoding || !fetch.inflight.is_empty() {
            all_settled = false;
            continue;
        }
        let has_candidate = (0..n_clouds).any(|c| {
            st.cloud_alive[c]
                && fetch.candidates[c]
                    .iter()
                    .any(|i| !fetch.requested.contains(i) && !fetch.have.contains_key(i))
        });
        if has_candidate {
            all_settled = false;
            continue;
        }
        // Stuck: record the failure.
        failures.push(DownloadError::NotEnoughBlocks {
            segment: fetch.id,
            got: fetch.have.len(),
            need: k,
        });
        st.fetches[fi].exhausted = true;
    }
    if all_settled {
        st.finished = true;
        // End the batch span at settle time, not at `join` time.
        st.batch_guard.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SegmentData;
    use crate::upload::{run_upload, FileUpload};
    use unidrive_cloud::{CloudStore, MemCloud, SimCloud, SimCloudConfig};
    use unidrive_crypto::Sha1;
    use unidrive_erasure::RedundancyConfig;
    use unidrive_sim::{RealRuntime, SimRuntime};

    struct Rig {
        sim: Arc<SimRuntime>,
        rt: Arc<dyn Runtime>,
        clouds: CloudSet,
        sim_clouds: Vec<Arc<SimCloud>>,
        codec: Arc<Codec>,
        config: DataPlaneConfig,
        probe: Arc<BandwidthProbe>,
    }

    fn rig(seed: u64, rates: &[f64]) -> Rig {
        let sim = SimRuntime::new(seed);
        let mut sim_clouds = Vec::new();
        let members: Vec<Arc<dyn CloudStore>> = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let c = Arc::new(SimCloud::new(
                    &sim,
                    format!("c{i}"),
                    SimCloudConfig::steady(r, r * 5.0),
                ));
                sim_clouds.push(Arc::clone(&c));
                c as Arc<dyn CloudStore>
            })
            .collect();
        let clouds = CloudSet::new(members);
        let redundancy = RedundancyConfig::new(rates.len(), 3, 3, 2).unwrap();
        let config = DataPlaneConfig::with_params(redundancy, 64 * 1024);
        let codec = Arc::new(Codec::for_config(&config.redundancy).unwrap());
        let probe = Arc::new(BandwidthProbe::new(rates.len(), 1e6));
        let rt = sim.clone().as_runtime();
        Rig {
            sim,
            rt,
            clouds,
            sim_clouds,
            codec,
            config,
            probe,
        }
    }

    fn upload_one(rig: &Rig, size: usize, tag: u8) -> (SegmentId, Vec<u8>, Vec<BlockRef>) {
        let data: Vec<u8> = (0..size).map(|i| (i as u8).wrapping_mul(tag).wrapping_add(tag)).collect();
        let id = SegmentId(Sha1::digest(&data));
        let report = run_upload(
            &rig.rt,
            &rig.clouds,
            &rig.codec,
            &rig.config,
            &rig.probe,
            vec![FileUpload {
                path: "f".into(),
                segments: vec![SegmentData {
                    id,
                    data: Bytes::from(data.clone()),
                }],
            }],
        );
        assert!(report.all_available());
        let blocks = report
            .blocks
            .iter()
            .filter(|(s, _)| *s == id)
            .map(|(_, b)| *b)
            .collect();
        (id, data, blocks)
    }

    #[test]
    fn round_trip_through_the_multicloud() {
        let r = rig(1, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r, 200_000, 3);
        let report = run_download(
            &r.rt,
            &r.clouds,
            &r.codec,
            &r.config,
            &r.probe,
            vec![SegmentFetch {
                id,
                len: data.len() as u64,
                blocks,
            }],
        );
        assert!(report.is_complete(), "failures: {:?}", report.failed);
        assert_eq!(report.segments[&id], data);
    }

    #[test]
    fn download_succeeds_with_k_r_clouds_down() {
        let r = rig(2, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r, 200_000, 5);
        // K_r = 3: any 3 clouds must suffice, so kill 2.
        r.sim_clouds[1].set_available(false);
        r.sim_clouds[3].set_available(false);
        let report = run_download(
            &r.rt,
            &r.clouds,
            &r.codec,
            &r.config,
            &r.probe,
            vec![SegmentFetch {
                id,
                len: data.len() as u64,
                blocks,
            }],
        );
        assert!(report.is_complete(), "failures: {:?}", report.failed);
        assert_eq!(report.segments[&id], data);
    }

    #[test]
    fn download_fails_securely_with_one_cloud_left() {
        let r = rig(3, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r, 200_000, 7);
        for i in 0..4 {
            r.sim_clouds[i].set_available(false);
        }
        let report = run_download(
            &r.rt,
            &r.clouds,
            &r.codec,
            &r.config,
            &r.probe,
            vec![SegmentFetch {
                id,
                len: data.len() as u64,
                blocks,
            }],
        );
        // One cloud holds at most cap = 2 < k = 3 blocks: K_s = 2 means
        // a single provider can never reconstruct.
        assert!(!report.is_complete());
        assert!(matches!(
            report.failed[0],
            DownloadError::NotEnoughBlocks { .. }
        ));
    }

    #[test]
    fn fast_cloud_supplies_most_blocks() {
        let r = rig(4, &[20e6, 1e6, 1e6, 1e6, 1e6]);
        let (id, data, blocks) = upload_one(&r, 400_000, 9);
        // Warm the probe so ranking reflects reality.
        let report = run_download(
            &r.rt,
            &r.clouds,
            &r.codec,
            &r.config,
            &r.probe,
            vec![SegmentFetch {
                id,
                len: data.len() as u64,
                blocks: blocks.clone(),
            }],
        );
        assert!(report.is_complete());
        // The fast cloud holds cap=2 blocks (over-provisioned during
        // upload); a correct dynamic scheduler uses them.
        let fast_has = blocks.iter().filter(|b| b.cloud == 0).count();
        assert_eq!(fast_has, 2, "upload should have over-provisioned cloud 0");
    }

    #[test]
    fn corrupted_block_fails_integrity() {
        let r = rig(5, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r, 100_000, 11);
        // Corrupt one stored block on cloud of the first block.
        let victim = blocks[0];
        let path = block_path(&id, victim.index);
        let cloud = r.clouds.get(unidrive_cloud::CloudId(victim.cloud as usize));
        let mut corrupted = cloud.download(&path).unwrap().to_vec();
        corrupted[0] ^= 0xFF;
        cloud.upload(&path, Bytes::from(corrupted)).unwrap();
        // Kill enough clouds that the corrupted block must be used:
        // keep only the clouds that appear in `blocks`... simpler: fetch
        // with candidates restricted to k blocks including the victim.
        let mut restricted = vec![victim];
        restricted.extend(blocks.iter().filter(|b| **b != victim).take(2).copied());
        let report = run_download(
            &r.rt,
            &r.clouds,
            &r.codec,
            &r.config,
            &r.probe,
            vec![SegmentFetch {
                id,
                len: data.len() as u64,
                blocks: restricted,
            }],
        );
        // With only k candidate blocks and one of them corrupt, the
        // fetch must fail (after discarding the bad combination it has
        // nothing left to retry with) — never silently succeed.
        assert!(!report.is_complete());
    }

    #[test]
    fn corruption_fails_over_to_spare_blocks() {
        let r = rig(7, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r, 300_000, 13);
        assert!(blocks.len() > 3, "need spares for this test");
        // Corrupt one stored block; the fetch should succeed from the
        // remaining candidates after the integrity retry discards the
        // poisoned combination.
        let victim = blocks[0];
        let path = block_path(&id, victim.index);
        let cloud = r.clouds.get(unidrive_cloud::CloudId(victim.cloud as usize));
        let mut corrupted = cloud.download(&path).unwrap().to_vec();
        corrupted[10] ^= 0xAA;
        cloud.upload(&path, Bytes::from(corrupted)).unwrap();
        let report = run_download(
            &r.rt,
            &r.clouds,
            &r.codec,
            &r.config,
            &r.probe,
            vec![SegmentFetch {
                id,
                len: data.len() as u64,
                blocks,
            }],
        );
        assert!(
            report.is_complete(),
            "spares must absorb one corrupt block: {:?}",
            report.failed
        );
        assert_eq!(report.segments[&id], data);
    }

    #[test]
    fn missing_blocks_bounce_out_instead_of_looping() {
        // Deleting objects from a cloud makes its downloads fail with
        // NotFound — the cloud never reports Unavailable, so only the
        // bounce limit stops the scheduler from re-queuing those blocks
        // forever. The batch must terminate and reconstruct from the
        // surviving blocks.
        let r = rig(8, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r, 300_000, 17);
        // Erase every stored block on two clouds (ransack, not outage).
        for b in blocks.iter().filter(|b| b.cloud <= 1) {
            let cloud = r.clouds.get(unidrive_cloud::CloudId(b.cloud as usize));
            cloud.delete(&block_path(&id, b.index)).unwrap();
        }
        let report = run_download(
            &r.rt,
            &r.clouds,
            &r.codec,
            &r.config,
            &r.probe,
            vec![SegmentFetch {
                id,
                len: data.len() as u64,
                blocks,
            }],
        );
        assert!(report.is_complete(), "failures: {:?}", report.failed);
        assert_eq!(report.segments[&id], data);
    }

    #[test]
    fn unreachable_batch_terminates_with_failure() {
        // Erase so many blocks that reconstruction is impossible: the
        // batch must settle on NotEnoughBlocks, not hang.
        let r = rig(9, &[1e6; 5]);
        let (id, data, blocks) = upload_one(&r, 200_000, 19);
        for b in blocks.iter().filter(|b| b.cloud <= 3) {
            let cloud = r.clouds.get(unidrive_cloud::CloudId(b.cloud as usize));
            cloud.delete(&block_path(&id, b.index)).unwrap();
        }
        let report = run_download(
            &r.rt,
            &r.clouds,
            &r.codec,
            &r.config,
            &r.probe,
            vec![SegmentFetch {
                id,
                len: data.len() as u64,
                blocks,
            }],
        );
        assert!(!report.is_complete());
        assert!(matches!(
            report.failed[0],
            DownloadError::NotEnoughBlocks { .. }
        ));
    }

    /// Paper redundancy (N = 5, k = 3, K_r = 3, K_s = 2) without a
    /// runtime: for driving the policy or its helpers directly.
    fn paper_codec() -> (Arc<Codec>, DataPlaneConfig, Arc<BandwidthProbe>) {
        let config =
            DataPlaneConfig::with_params(RedundancyConfig::new(5, 3, 3, 2).unwrap(), 64 * 1024);
        let codec = Arc::new(Codec::for_config(&config.redundancy).unwrap());
        (codec, config, Arc::new(BandwidthProbe::new(5, 1e6)))
    }

    /// A policy for one 30,000-byte segment whose blocks `0..n` sit on
    /// clouds `i % 5`, to drive without a runtime. Returns it with the
    /// plaintext and the blocks.
    fn one_segment_policy(n: u16) -> (DownloadPolicy, Vec<u8>, Vec<Bytes>) {
        let (codec, config, probe) = paper_codec();
        let data: Vec<u8> = (0..30_000u32).map(|i| (i * 7) as u8).collect();
        let indices: Vec<usize> = (0..usize::from(n)).collect();
        let blocks = codec.encode_blocks(&data, &indices);
        let fetch = SegmentFetch {
            id: SegmentId(Sha1::digest(&data)),
            len: data.len() as u64,
            blocks: (0..n)
                .map(|i| BlockRef {
                    index: i,
                    cloud: i % 5,
                })
                .collect(),
        };
        let guard = config.obs.span("engine.batch", None);
        let policy = DownloadPolicy::new(&codec, &probe, &config, &[fetch], 5, guard);
        (policy, data, blocks)
    }

    /// Block `i` of [`one_segment_policy`]'s segment lands.
    fn land(p: &mut DownloadPolicy, i: usize, block: &Bytes) {
        let job = Job {
            fetch: 0,
            index: i as u16,
        };
        let now = Time::from_nanos(0);
        p.on_success(CloudId(i % 5), job, Some(block.clone()), now);
    }

    #[test]
    fn decoded_segment_frees_its_blocks_and_drops_late_arrivals() {
        let (mut p, data, blocks) = one_segment_policy(4);
        for (i, block) in blocks.iter().enumerate().take(3) {
            land(&mut p, i, block);
        }
        let decode = p.take_deferred().expect("the k-th block queues a decode");
        assert!(p.st.fetches[0].decoding);
        decode()(&mut p);
        assert_eq!(p.segments[&p.st.fetches[0].id], data);
        assert!(p.st.fetches[0].done);
        assert!(
            p.st.fetches[0].have.is_empty(),
            "a decoded segment keeps its blocks"
        );
        // A spare landing after the decode is dropped, not kept.
        land(&mut p, 3, &blocks[3]);
        assert!(p.st.fetches[0].have.is_empty(), "a late block was kept");
        assert!(p.take_deferred().is_none());
    }

    #[test]
    fn integrity_mismatch_discards_the_decoded_blocks_and_redecodes_from_spares() {
        let (mut p, data, mut blocks) = one_segment_policy(6);
        let mut bad = blocks[0].to_vec();
        bad[0] ^= 0xFF;
        blocks[0] = Bytes::from(bad);
        for (i, block) in blocks.iter().enumerate().take(3) {
            land(&mut p, i, block);
        }
        let first = p.take_deferred().expect("the k-th block queues a decode");
        // Three spares land while blocks 0-2 decode: no second decode.
        for (i, block) in blocks.iter().enumerate().skip(3) {
            land(&mut p, i, block);
            assert!(p.take_deferred().is_none(), "a second decode was queued");
        }
        first()(&mut p);
        let mut left: Vec<u16> = p.st.fetches[0].have.keys().copied().collect();
        left.sort_unstable();
        assert_eq!(left, [3, 4, 5], "only the decoded blocks are discarded");
        let second = p
            .take_deferred()
            .expect("k spares in hand re-queue the decode");
        second()(&mut p);
        assert_eq!(p.segments[&p.st.fetches[0].id], data);
        assert!(p.failures.is_empty(), "{:?}", p.failures);
    }

    #[test]
    fn a_decoding_fetch_keeps_the_batch_open() {
        // Nothing in flight and no candidates left: without the decode
        // this fetch would be stuck. While it decodes it is not.
        let (codec, _, _) = paper_codec();
        let segment = SegmentFetch {
            id: SegmentId(Sha1::digest(b"decoding")),
            len: 30_000,
            blocks: Vec::new(),
        };
        let mut fetch = FetchState::new(&segment, 5);
        fetch.decoding = true;
        for i in 0..3u16 {
            fetch
                .have
                .insert(i, Bytes::from(vec![0u8; codec.block_len(30_000)]));
        }
        let mut st = DownloadState {
            fetches: vec![fetch],
            cloud_alive: vec![true; 5],
            finished: false,
            timeline: Vec::new(),
            batch_guard: None,
        };
        let mut failures = Vec::new();
        finish_check(&mut st, 3, &mut failures);
        assert!(!st.finished, "the batch finished while a segment decodes");
        assert!(
            failures.is_empty(),
            "a decoding segment reported {failures:?}"
        );
        assert!(!st.fetches[0].exhausted);
    }

    #[test]
    fn real_clock_decodes_off_the_lock_keep_every_segment_intact() {
        // On the real clock other workers report blocks while a
        // segment decodes. 16 segments over 25 connections: six hold a
        // corrupt block among all n blocks, the other ten list only k
        // blocks, so once those land a decoding segment has nothing
        // left in flight or to request.
        let (codec, mut config, _) = paper_codec();
        config.connections_per_cloud = 5;
        let mems: Vec<Arc<MemCloud>> = (0..5)
            .map(|i| Arc::new(MemCloud::new(format!("m{i}"))))
            .collect();
        let clouds = CloudSet::new(
            mems.iter()
                .map(|m| Arc::clone(m) as Arc<dyn CloudStore>)
                .collect(),
        );
        let all: Vec<usize> = (0..codec.n()).collect();
        let mut fetches = Vec::new();
        let mut originals = HashMap::new();
        for s in 0..16u8 {
            let data: Vec<u8> = (0..96_000u32)
                .map(|i| (i as u8).wrapping_mul(s | 1).wrapping_add(s))
                .collect();
            let id = SegmentId(Sha1::digest(&data));
            let corrupt = s % 3 == 0;
            let first = usize::from(s) % 7;
            let mut refs = Vec::new();
            for (i, block) in codec.encode_blocks(&data, &all).into_iter().enumerate() {
                let mut stored = block.to_vec();
                if corrupt && i == usize::from(s) % 3 {
                    stored[0] ^= 0xFF;
                }
                let cloud = i % 5;
                mems[cloud]
                    .upload(&block_path(&id, i as u16), Bytes::from(stored))
                    .unwrap();
                if !corrupt && !(first..first + 3).contains(&i) {
                    continue;
                }
                refs.push(BlockRef {
                    index: i as u16,
                    cloud: cloud as u16,
                });
            }
            fetches.push(SegmentFetch {
                id,
                len: data.len() as u64,
                blocks: refs,
            });
            originals.insert(id, data);
        }
        let rt = RealRuntime::handle();
        for run in 0..20 {
            let probe = Arc::new(BandwidthProbe::new(5, 1e6));
            let report = run_download(&rt, &clouds, &codec, &config, &probe, fetches.clone());
            assert!(report.failed.is_empty(), "run {run}: {:?}", report.failed);
            assert_eq!(report.segments.len(), originals.len(), "run {run}");
            assert_eq!(report.timeline.len(), originals.len(), "run {run}");
            for (id, data) in &originals {
                assert_eq!(report.segments[id], *data, "run {run}: segment {id}");
            }
        }
    }

    #[test]
    fn empty_fetch_list_finishes_immediately() {
        let r = rig(6, &[1e6; 5]);
        let t0 = r.sim.now();
        let report = run_download(&r.rt, &r.clouds, &r.codec, &r.config, &r.probe, vec![]);
        assert!(report.is_complete());
        assert!(report.segments.is_empty());
        assert_eq!(r.sim.now(), t0);
    }
}
