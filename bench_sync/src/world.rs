//! The system under test: five in-process MockS3 servers on loopback
//! and two `UniDriveClient`s (device A commits, device B fetches),
//! each reaching the servers through its own `s3_cloud_set`.
//!
//! The benchmark observes the program from outside only: every cloud
//! member sits behind a [`MeteredCloud`] and each folder behind a
//! [`MeteredFolder`]. Both forward every trait method unchanged, so a
//! traced round takes the same code paths as an untraced one.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use unidrive::cloud::{
    CloudCaps, CloudError, CloudSet, CloudStore, MockS3, ObjectInfo, S3Endpoint,
};
use unidrive::core::{
    s3_cloud_set, ClientConfig, FolderError, LocalStat, MemFolder, SyncFolder, UniDriveClient,
};
use unidrive::obs::{Obs, Registry};
use unidrive::sim::{RealRuntime, Runtime, SimRng};
use unidrive::util::bytes::Bytes;

/// Clouds in the multi-cloud (the paper's N).
pub const CLOUDS: usize = 5;

/// The cloud operations the meter tells apart: the five Web API calls,
/// then the two composed ones a wrapper must forward as well.
pub const OPS: [&str; 7] = [
    "upload",
    "download",
    "list",
    "delete",
    "create_dir",
    "append",
    "exists",
];

/// Per-operation counters of one device's cloud traffic, summed over
/// its five clouds.
#[derive(Debug, Default)]
pub struct CloudMeter {
    calls: [AtomicU64; 7],
    busy_ns: [AtomicU64; 7],
    bytes: [AtomicU64; 7],
    errors: [AtomicU64; 7],
    inflight: AtomicI64,
}

/// A point-in-time copy of a [`CloudMeter`], subtractable per round.
#[derive(Debug, Clone, Copy)]
pub struct MeterSnap {
    pub calls: [u64; 7],
    pub busy_ns: [u64; 7],
    pub bytes: [u64; 7],
    pub errors: [u64; 7],
}

impl CloudMeter {
    pub fn snap(&self) -> MeterSnap {
        let load = |a: &[AtomicU64; 7]| std::array::from_fn(|i| a[i].load(Ordering::Relaxed));
        MeterSnap {
            calls: load(&self.calls),
            busy_ns: load(&self.busy_ns),
            bytes: load(&self.bytes),
            errors: load(&self.errors),
        }
    }

    /// Calls started but not yet returned.
    pub fn inflight(&self) -> i64 {
        self.inflight.load(Ordering::SeqCst)
    }
}

impl MeterSnap {
    pub fn minus(&self, earlier: &MeterSnap) -> MeterSnap {
        let sub = |a: &[u64; 7], b: &[u64; 7]| std::array::from_fn(|i| a[i] - b[i]);
        MeterSnap {
            calls: sub(&self.calls, &earlier.calls),
            busy_ns: sub(&self.busy_ns, &earlier.busy_ns),
            bytes: sub(&self.bytes, &earlier.bytes),
            errors: sub(&self.errors, &earlier.errors),
        }
    }

    /// HTTP body bytes in both directions.
    pub fn body_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    pub fn busy_ns_total(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

/// A `CloudStore` that counts calls, body bytes and errors per
/// operation, and with `timed` also the time spent inside each call.
pub struct MeteredCloud {
    inner: Arc<dyn CloudStore>,
    meter: Arc<CloudMeter>,
    timed: bool,
}

impl MeteredCloud {
    fn run<T>(
        &self,
        op: usize,
        f: impl FnOnce() -> Result<T, CloudError>,
        size: impl Fn(&T) -> u64,
    ) -> Result<T, CloudError> {
        let m = &self.meter;
        m.inflight.fetch_add(1, Ordering::SeqCst);
        let t0 = self.timed.then(Instant::now);
        let result = f();
        if let Some(t0) = t0 {
            m.busy_ns[op].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        m.calls[op].fetch_add(1, Ordering::Relaxed);
        match &result {
            Ok(v) => m.bytes[op].fetch_add(size(v), Ordering::Relaxed),
            Err(_) => m.errors[op].fetch_add(1, Ordering::Relaxed),
        };
        m.inflight.fetch_sub(1, Ordering::SeqCst);
        result
    }
}

impl CloudStore for MeteredCloud {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn upload(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        let n = data.len() as u64;
        self.run(0, || self.inner.upload(path, data), |_| n)
    }
    fn download(&self, path: &str) -> Result<Bytes, CloudError> {
        self.run(1, || self.inner.download(path), |b| b.len() as u64)
    }
    fn list(&self, path: &str) -> Result<Vec<ObjectInfo>, CloudError> {
        self.run(2, || self.inner.list(path), |_| 0)
    }
    fn delete(&self, path: &str) -> Result<(), CloudError> {
        self.run(3, || self.inner.delete(path), |_| 0)
    }
    fn create_dir(&self, path: &str) -> Result<(), CloudError> {
        self.run(4, || self.inner.create_dir(path), |_| 0)
    }
    fn append(&self, path: &str, data: Bytes) -> Result<(), CloudError> {
        let n = data.len() as u64;
        self.run(5, || self.inner.append(path, data), |_| n)
    }
    fn exists(&self, path: &str) -> Result<bool, CloudError> {
        self.run(6, || self.inner.exists(path), |_| 0)
    }
    fn caps(&self) -> CloudCaps {
        self.inner.caps()
    }
}

/// A `SyncFolder` over a [`MemFolder`] that opens one span per call
/// (`folder.scan`/`read`/`write`/`remove`, tagged with the device) when
/// the handle is enabled, and counts the bytes read and written.
pub struct MeteredFolder {
    inner: Arc<MemFolder>,
    obs: Obs,
    device: &'static str,
    bytes: AtomicU64,
}

impl MeteredFolder {
    fn span(&self, name: &'static str) -> unidrive::obs::SpanGuard {
        let mut span = self.obs.span(name, None);
        span.attr_str("device", self.device);
        span
    }

    /// Bytes read plus bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl SyncFolder for MeteredFolder {
    fn scan(&self) -> Result<BTreeMap<String, LocalStat>, FolderError> {
        let _span = self.span("folder.scan");
        self.inner.scan()
    }
    fn read(&self, path: &str) -> Result<Bytes, FolderError> {
        let _span = self.span("folder.read");
        let data = self.inner.read(path)?;
        self.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }
    fn write(&self, path: &str, data: &[u8], mtime_ns: u64) -> Result<(), FolderError> {
        let _span = self.span("folder.write");
        self.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.write(path, data, mtime_ns)
    }
    fn remove(&self, path: &str) -> Result<(), FolderError> {
        let _span = self.span("folder.remove");
        self.inner.remove(path)
    }
}

/// One device: its client, its folder and the meters around both.
pub struct Device {
    pub client: UniDriveClient,
    pub folder: Arc<MemFolder>,
    pub metered: Arc<MeteredFolder>,
    pub meter: Arc<CloudMeter>,
}

/// Device names as they appear in `sync.round` spans.
pub const DEVICE_A: &str = "device-a";
pub const DEVICE_B: &str = "device-b";

/// Servers, runtime, both devices and (when traced) the span registry.
pub struct World {
    pub servers: Vec<MockS3>,
    pub rt: Arc<dyn Runtime>,
    pub a: Device,
    pub b: Device,
    pub registry: Option<Arc<Registry>>,
}

/// The client configuration: the paper's defaults throughout (N=5,
/// k=3, K_r=3, K_s=2, Rabin θ = 4 MiB, 5 connections per cloud, the
/// lock plane, one ingest thread, default retry and lock timings).
pub fn config(device: &str, obs: Obs) -> ClientConfig {
    let mut config = ClientConfig::paper_default(device);
    config.data.obs = obs;
    config
}

/// Span-ring capacity for traced runs: far above what a 60 s run
/// emits, so no span is ever evicted (checked: `trace.dropped_spans`).
const SPAN_CAPACITY: usize = 4 << 20;

impl World {
    /// Boots five MockS3 servers and both clients. With `traced`, a
    /// registry stamped by the runtime's real clock records spans.
    pub fn boot(traced: bool) -> std::io::Result<World> {
        let servers = (0..CLOUDS)
            .map(|_| MockS3::start())
            .collect::<std::io::Result<Vec<_>>>()?;
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let registry = traced.then(|| {
            let registry = Registry::with_trace_capacity(SPAN_CAPACITY);
            let clock = Arc::clone(&rt);
            registry.set_clock(move || clock.now().as_nanos());
            registry
        });
        let obs = registry
            .as_ref()
            .map_or_else(Obs::noop, |r| Obs::with_registry(Arc::clone(r)));
        let endpoints: Vec<S3Endpoint> = servers
            .iter()
            .enumerate()
            .map(|(i, s)| S3Endpoint::new(format!("s3-{i}"), s.addr(), "unidrive"))
            .collect();
        let device = |name: &'static str, seed: u64| {
            let config = config(name, obs.clone());
            let meter = Arc::new(CloudMeter::default());
            let clouds = CloudSet::new(
                s3_cloud_set(&rt, &endpoints, &config.data)
                    .iter()
                    .map(|(_, inner)| {
                        Arc::new(MeteredCloud {
                            inner: Arc::clone(inner),
                            meter: Arc::clone(&meter),
                            timed: traced,
                        }) as Arc<dyn CloudStore>
                    })
                    .collect(),
            );
            let folder = MemFolder::new();
            let metered = Arc::new(MeteredFolder {
                inner: Arc::clone(&folder),
                obs: obs.clone(),
                device: name,
                bytes: AtomicU64::new(0),
            });
            let client = UniDriveClient::new(
                Arc::clone(&rt),
                clouds,
                Arc::clone(&metered) as Arc<dyn SyncFolder>,
                config,
                SimRng::seed_from_u64(seed),
            );
            Device {
                client,
                folder,
                metered,
                meter,
            }
        };
        let a = device(DEVICE_A, 1);
        let b = device(DEVICE_B, 2);
        Ok(World {
            servers,
            rt,
            a,
            b,
            registry,
        })
    }

    /// Requests served by all five servers so far.
    pub fn requests(&self) -> u64 {
        self.servers.iter().map(|s| s.requests()).sum()
    }

    /// Waits until no cloud call is in flight on either device and the
    /// servers' request counters have not moved for `QUIET`, so that
    /// one round's detached reliability-phase uploads never land in the
    /// next round. Returns when activity was last seen, or `None` if
    /// the servers are still busy at `deadline`.
    pub fn drain(&self, since: Instant, deadline: Duration) -> Option<Instant> {
        const QUIET: Duration = Duration::from_millis(20);
        const POLL: Duration = Duration::from_millis(2);
        let start = Instant::now();
        let mut seen = self.requests();
        let mut last_active = since;
        loop {
            let now = Instant::now();
            let busy = self.a.meter.inflight() != 0 || self.b.meter.inflight() != 0;
            let requests = self.requests();
            if busy || requests != seen {
                seen = requests;
                last_active = now;
            } else if now.duration_since(last_active) >= QUIET && now.duration_since(start) >= QUIET
            {
                return Some(last_active);
            }
            if now.duration_since(start) > deadline {
                return None;
            }
            std::thread::sleep(POLL);
        }
    }
}
