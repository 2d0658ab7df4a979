//! The shared pull-based transfer engine (paper §6.2).
//!
//! The paper's data plane is one idea applied everywhere: an idle
//! (cloud, connection) pair *pulls* the next best block, so a faster
//! cloud — whose connections go idle more often — naturally receives
//! more work. This module implements that dispatch loop exactly once.
//! What differs between upload, download, and the baseline clients is
//! only *which* block an idle connection should take and *what* to do
//! when it lands: that is a [`TransferPolicy`].
//!
//! The engine owns everything the five former hand-rolled loops
//! duplicated: the worker pool (one actor per cloud connection),
//! a traced [`Retry`] around every wire call, `unidrive-obs`
//! counters and `engine.*` spans, feeding the [`BandwidthProbe`], idle
//! parking, and running CPU work a completion defers (a download's
//! decode) off the policy lock. Workers park on a [`Notifier`] (an
//! eventcount) instead of polling: each completion or failure
//! broadcasts, so an idle connection re-polls its policy only when the
//! schedulable state may actually have changed — no timer churn in the
//! simulator, no busy-wait under wall clock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use unidrive_cloud::{CloudError, CloudId, CloudSet, Retry, RetryPolicy};
use unidrive_obs::{Obs, SpanId};
use unidrive_sim::{spawn, Notifier, Runtime, Task, Time};
use unidrive_util::bytes::Bytes;
use unidrive_util::sync::Mutex;

use crate::probe::BandwidthProbe;

/// What the engine should do on the wire for one job.
pub enum WireOp {
    /// Upload `payload()` to `path`. The payload is produced lazily by
    /// the worker, outside the policy lock — block encoding is the CPU
    /// cost here and must not serialize the scheduler.
    Upload {
        /// Object path on the cloud.
        path: String,
        /// Produces the bytes to upload.
        payload: Box<dyn FnOnce() -> Bytes + Send>,
    },
    /// Download the object at `path`.
    Download {
        /// Object path on the cloud.
        path: String,
    },
}

impl std::fmt::Debug for WireOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireOp::Upload { path, .. } => f.debug_struct("Upload").field("path", path).finish(),
            WireOp::Download { path } => f.debug_struct("Download").field("path", path).finish(),
        }
    }
}

/// One job handed out by a policy: the wire operation plus the
/// bookkeeping the policy needs back on completion.
#[derive(Debug)]
pub struct JobDesc<T> {
    /// Opaque policy state returned via `on_success`/`on_failure`.
    pub token: T,
    /// Block index (an `engine.block` span attribute).
    pub index: u16,
    /// Whether this is an over-provisioned extra (span + counter tag).
    pub extra: bool,
    /// Causal parent for this job's `engine.block` span — how span
    /// context crosses the policy-lock boundary: whichever worker ends
    /// up executing the job keeps parentage to the batch (or segment)
    /// span the policy minted it under. `None` falls back to the
    /// engine's batch span.
    pub parent_span: Option<SpanId>,
    /// What to do on the wire.
    pub op: WireOp,
}

/// CPU work a completion hands back to the engine. The worker that
/// reported the completion runs the outer closure *outside* the policy
/// lock; it returns the step that applies the result, which runs
/// *under* the lock.
pub type Deferred<P> = Box<dyn FnOnce() -> Box<dyn FnOnce(&mut P) + Send> + Send>;

/// The scheduling brain driven by the [`TransferEngine`].
///
/// Lock discipline: every method runs under the engine's policy lock,
/// so while one runs no other worker can report a block or take a new
/// one. Methods must not block (no wire calls, no sleeps) and must not
/// do heavy CPU work. That work goes in the [`WireOp::Upload`] payload
/// closure (block encoding) or in a [`Deferred`] step handed out by
/// [`take_deferred`](TransferPolicy::take_deferred) (segment decoding).
///
/// Deadlock-safety invariant: whenever nothing is in flight, no
/// deferred work is outstanding, and `next_job` would return `None` for
/// every cloud, `is_done` must be `true` — the engine parks idle
/// workers until a completion notifies them, so a policy that is "not
/// done" yet hands out no work with nothing in flight would park
/// everyone forever. Policies uphold this by re-deriving their finished
/// flag after every completion and applied deferred step (and once at
/// construction, for empty batches).
pub trait TransferPolicy: Send + 'static {
    /// Per-job bookkeeping round-tripped through the engine.
    type Token: Send;

    /// Picks the next job for an idle connection of `cloud`, or `None`
    /// if that cloud has nothing useful to do right now.
    fn next_job(&mut self, cloud: CloudId) -> Option<JobDesc<Self::Token>>;

    /// Whether the batch is over (workers exit their loops).
    fn is_done(&self) -> bool;

    /// A job finished. `data` carries downloaded bytes (`None` for
    /// uploads); `now` is the runtime clock right after the transfer.
    fn on_success(&mut self, cloud: CloudId, token: Self::Token, data: Option<Bytes>, now: Time);

    /// A job failed after retries.
    fn on_failure(&mut self, cloud: CloudId, token: Self::Token, error: CloudError, now: Time);

    /// Takes the CPU work queued by the last `on_success`, `on_failure`
    /// or applied [`Deferred`] step. The reporting worker runs it off
    /// the lock, applies its result under the lock, and asks again
    /// until this returns `None`. Until its result is applied, queued
    /// work counts as unsettled: the policy must not report done. The
    /// default queues nothing.
    fn take_deferred(&mut self) -> Option<Deferred<Self>> {
        None
    }
}

/// Engine wiring shared by every policy.
#[derive(Debug, Clone)]
pub struct EngineParams {
    /// Worker actors per cloud.
    pub connections_per_cloud: usize,
    /// Retry policy wrapped around every wire call.
    pub retry: RetryPolicy,
    /// Observability handle (counters, spans, retry trace).
    pub obs: Obs,
    /// Counter namespace: counters are `{label}.blocks_dispatched`
    /// etc., `wire.attempt` spans carry `{label}:{cloud}`.
    pub label: String,
    /// Feed completed transfers into this probe as in-channel bandwidth
    /// measurements.
    pub probe: Option<Arc<BandwidthProbe>>,
    /// Batch-level span: parent for `engine.worker` spans and the
    /// fallback parent for `engine.block` spans whose [`JobDesc`]
    /// carries none.
    pub batch_span: Option<SpanId>,
    /// Stall watchdog + flight recorder; `None` (the default) changes
    /// nothing about engine behavior.
    pub watchdog: Option<WatchdogConfig>,
}

impl EngineParams {
    /// Minimal wiring: one connection per cloud, default retries, no
    /// observability, no probe, no watchdog.
    pub fn new(label: impl Into<String>) -> Self {
        EngineParams {
            connections_per_cloud: 1,
            retry: RetryPolicy::new(),
            obs: Obs::noop(),
            label: label.into(),
            probe: None,
            batch_span: None,
            watchdog: None,
        }
    }
}

/// Deadline + dump destination for the engine's stall watchdog.
///
/// When configured, every engine run carries a deadline (virtual time
/// under sim, wall time otherwise). If the policy is not done when it
/// expires — the signature of the PR 2 bounce-loop class of hang,
/// where every worker parks forever on the notifier — the watchdog
/// dumps a flight record (the tail of the span ring plus per-worker
/// state) to `dump_path`, aborts the workers, and lets `join` return
/// instead of hanging silently. A hard block failure (retries
/// exhausted) also triggers the dump, so the record captures the state
/// that led up to a failing batch.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// How long the batch may run before it is declared stalled.
    pub deadline: Duration,
    /// File the flight-recorder JSON is written to.
    pub dump_path: String,
}

/// Diagnostic state of one engine worker, captured in flight dumps.
#[derive(Debug, Clone)]
struct WorkerState {
    cloud: String,
    conn: usize,
    state: &'static str,
    current_path: String,
    completed: u64,
    failed: u64,
    since_ns: u64,
}

/// How many trailing spans a flight dump keeps.
const FLIGHT_RECORD_TAIL: usize = 256;

/// Shared stall/failure recorder: worker states, the abort flag the
/// watchdog trips, and the once-only dump.
struct FlightRecorder {
    config: WatchdogConfig,
    label: String,
    obs: Obs,
    aborted: AtomicBool,
    dumped: AtomicBool,
    workers: Mutex<Vec<WorkerState>>,
}

impl FlightRecorder {
    fn new(config: WatchdogConfig, label: String, obs: Obs, slots: Vec<(String, usize)>) -> Self {
        FlightRecorder {
            config,
            label,
            obs,
            aborted: AtomicBool::new(false),
            dumped: AtomicBool::new(false),
            workers: Mutex::new(
                slots
                    .into_iter()
                    .map(|(cloud, conn)| WorkerState {
                        cloud,
                        conn,
                        state: "idle",
                        current_path: String::new(),
                        completed: 0,
                        failed: 0,
                        since_ns: 0,
                    })
                    .collect(),
            ),
        }
    }

    fn set_state(&self, slot: usize, state: &'static str, path: &str, now_ns: u64) {
        let mut w = self.workers.lock();
        if let Some(s) = w.get_mut(slot) {
            s.state = state;
            s.current_path.clear();
            s.current_path.push_str(path);
            s.since_ns = now_ns;
        }
    }

    fn count_outcome(&self, slot: usize, ok: bool) {
        let mut w = self.workers.lock();
        if let Some(s) = w.get_mut(slot) {
            if ok {
                s.completed += 1;
            } else {
                s.failed += 1;
            }
        }
    }

    /// Writes the flight record once; later triggers are no-ops.
    fn dump(&self, reason: &str, now_ns: u64) {
        if self.dumped.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut out = String::with_capacity(4096);
        out.push_str("{\n\"flight_record\": \"unidrive/v1\",\n");
        out.push_str(&format!("\"reason\": \"{reason}\",\n"));
        out.push_str(&format!("\"label\": \"{}\",\n", self.label));
        out.push_str(&format!("\"t_ns\": {now_ns},\n\"workers\": ["));
        for (i, w) in self.workers.lock().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"cloud\": \"{}\", \"conn\": {}, \"state\": \"{}\", \"path\": \"{}\", \
                 \"completed\": {}, \"failed\": {}, \"since_ns\": {}}}",
                w.cloud, w.conn, w.state, w.current_path, w.completed, w.failed, w.since_ns
            ));
        }
        out.push_str("\n],\n\"snapshot\": ");
        match self.obs.snapshot() {
            Some(mut snap) => {
                snap.canonicalize();
                let keep_sp = snap.spans.len().saturating_sub(FLIGHT_RECORD_TAIL);
                snap.spans.drain(..keep_sp);
                out.push_str(&snap.to_json());
            }
            None => out.push_str("null\n"),
        }
        out.push_str("}\n");
        if let Err(e) = std::fs::write(&self.config.dump_path, out) {
            eprintln!(
                "flight recorder: failed to write {}: {e}",
                self.config.dump_path
            );
        } else {
            eprintln!(
                "flight recorder: {} ({reason}) dumped to {}",
                self.label, self.config.dump_path
            );
        }
    }
}

/// Counter names formatted once per engine, not once per block.
struct CounterNames {
    dispatched: String,
    extra_dispatched: String,
    completed: String,
    block_bytes: String,
    block_elapsed: String,
    failures: String,
}

impl CounterNames {
    fn new(label: &str) -> Self {
        CounterNames {
            dispatched: format!("{label}.blocks_dispatched"),
            extra_dispatched: format!("{label}.extra_blocks_dispatched"),
            completed: format!("{label}.blocks_completed"),
            block_bytes: format!("{label}.block_bytes"),
            block_elapsed: format!("{label}.block_elapsed_ns"),
            failures: format!("{label}.block_failures"),
        }
    }
}

/// A running worker pool driving one [`TransferPolicy`].
///
/// Workers spawn on [`TransferEngine::start`] and run until the policy
/// reports done; the caller then either [`join`](TransferEngine::join)s
/// (returning the policy with all its results) or
/// [`detach`](TransferEngine::detach)es after
/// [`wait_until`](TransferEngine::wait_until) some milestone (the
/// availability-first upload path).
pub struct TransferEngine<P: TransferPolicy> {
    policy: Arc<Mutex<P>>,
    signal: Arc<dyn Notifier>,
    workers: Vec<Task<()>>,
}

impl<P: TransferPolicy> std::fmt::Debug for TransferEngine<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransferEngine")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl<P: TransferPolicy> TransferEngine<P> {
    /// Spawns `connections_per_cloud` workers per cloud, each pulling
    /// jobs from `policy` until it is done.
    pub fn start(
        rt: &Arc<dyn Runtime>,
        clouds: &CloudSet,
        params: EngineParams,
        policy: P,
    ) -> Self {
        let born_done = policy.is_done();
        let policy = Arc::new(Mutex::new(policy));
        let signal = rt.notifier();
        let names = Arc::new(CounterNames::new(&params.label));
        let recorder = params.watchdog.clone().map(|config| {
            let mut slots = Vec::new();
            for (_, cloud) in clouds.iter() {
                for conn in 0..params.connections_per_cloud {
                    slots.push((cloud.name().to_owned(), conn));
                }
            }
            Arc::new(FlightRecorder::new(
                config,
                params.label.clone(),
                params.obs.clone(),
                slots,
            ))
        });
        let mut workers = Vec::new();
        let mut slot = 0usize;
        for (cloud_id, cloud) in clouds.iter() {
            for conn in 0..params.connections_per_cloud {
                let rt2 = Arc::clone(rt);
                let cloud = Arc::clone(cloud);
                let policy = Arc::clone(&policy);
                let signal = Arc::clone(&signal);
                let params = params.clone();
                let names = Arc::clone(&names);
                let retry_label = format!("{}:{}", params.label, cloud.name());
                let cloud_blocks = format!("{}.cloud.{}.blocks", params.label, cloud.name());
                let ctx = WorkerCtx {
                    slot,
                    conn,
                    // Track 0 is the client/control lane; worker lanes
                    // start at 1 in (cloud, connection) order.
                    track: slot as u32 + 1,
                    recorder: recorder.clone(),
                };
                workers.push(spawn(
                    rt,
                    &format!("{}-{}-{}", params.label, cloud.name(), conn),
                    move || {
                        worker_loop(
                            &rt2,
                            cloud_id,
                            &*cloud,
                            &policy,
                            &signal,
                            &params,
                            &names,
                            &retry_label,
                            &cloud_blocks,
                            ctx,
                        );
                    },
                ));
                slot += 1;
            }
        }
        // The watchdog only makes sense for batches that do work: a
        // born-done policy never notifies, so the watchdog would sleep
        // out its whole deadline and stall `join` instead of guarding
        // it.
        if let Some(rec) = recorder.filter(|_| !born_done) {
            let rt2 = Arc::clone(rt);
            let policy = Arc::clone(&policy);
            let signal = Arc::clone(&signal);
            workers.push(spawn(rt, &format!("{}-watchdog", rec.label), move || {
                watchdog_loop(&rt2, &policy, &signal, &rec);
            }));
        }
        TransferEngine {
            policy,
            signal,
            workers,
        }
    }

    /// Runs `f` under the policy lock (snapshots, milestone stamps).
    pub fn with<R>(&self, f: impl FnOnce(&mut P) -> R) -> R {
        f(&mut self.policy.lock())
    }

    /// Blocks the calling actor until `cond` holds or the policy is
    /// done, re-checking on every completion broadcast.
    pub fn wait_until(&self, mut cond: impl FnMut(&mut P) -> bool) {
        loop {
            let seen = self.signal.generation();
            {
                let mut p = self.policy.lock();
                if cond(&mut p) || p.is_done() {
                    return;
                }
            }
            self.signal.wait(seen);
        }
    }

    /// Waits for every worker to exit and returns the policy.
    pub fn join(self) -> P {
        for w in self.workers {
            w.join();
        }
        Arc::try_unwrap(self.policy)
            .unwrap_or_else(|_| panic!("policy still shared after workers exited"))
            .into_inner()
    }

    /// Drops the worker handles; the pool keeps running on its own
    /// actors until the policy is done (reliability-second background
    /// work).
    pub fn detach(self) {
        drop(self.workers);
    }
}

/// Per-worker identity: flight-recorder slot, connection number, and
/// span display lane.
struct WorkerCtx {
    slot: usize,
    conn: usize,
    track: u32,
    recorder: Option<Arc<FlightRecorder>>,
}

/// The stall watchdog: parks on the same eventcount as the workers,
/// re-checking the policy on every completion broadcast, and trips the
/// flight recorder if the batch outlives its deadline.
fn watchdog_loop<P: TransferPolicy>(
    rt: &Arc<dyn Runtime>,
    policy: &Arc<Mutex<P>>,
    signal: &Arc<dyn Notifier>,
    rec: &Arc<FlightRecorder>,
) {
    let deadline_at = rt.now() + rec.config.deadline;
    loop {
        let seen = signal.generation();
        if policy.lock().is_done() || rec.aborted.load(Ordering::SeqCst) {
            return;
        }
        let now = rt.now();
        if now >= deadline_at {
            rec.dump("stall", now.as_nanos());
            rec.aborted.store(true, Ordering::SeqCst);
            // Wake every parked worker so it can observe the abort and
            // exit; without this, `join` would hang exactly the way the
            // watchdog exists to prevent.
            signal.notify_all();
            return;
        }
        signal.wait_timeout(seen, deadline_at.saturating_duration_since(now));
    }
}

/// The single dispatch loop every transfer in the workspace now runs.
#[allow(clippy::too_many_arguments)]
fn worker_loop<P: TransferPolicy>(
    rt: &Arc<dyn Runtime>,
    cloud_id: CloudId,
    cloud: &dyn unidrive_cloud::CloudStore,
    policy: &Arc<Mutex<P>>,
    signal: &Arc<dyn Notifier>,
    params: &EngineParams,
    names: &CounterNames,
    retry_label: &str,
    cloud_blocks: &str,
    ctx: WorkerCtx,
) {
    let obs = &params.obs;
    let mut wspan = obs.span("engine.worker", params.batch_span);
    wspan.set_track(ctx.track);
    wspan.attr_str("label", params.label.as_str());
    wspan.attr_str("cloud", cloud.name());
    wspan.attr_u64("conn", ctx.conn as u64);
    let mut jobs_run = 0u64;
    loop {
        if let Some(rec) = &ctx.recorder {
            if rec.aborted.load(Ordering::SeqCst) {
                rec.set_state(ctx.slot, "aborted", "", rt.now().as_nanos());
                break;
            }
        }
        // Eventcount protocol: read the generation before polling the
        // policy so a completion landing between the poll and the wait
        // still wakes us (no lost wake-ups).
        let seen = signal.generation();
        let job = {
            let mut p = policy.lock();
            if p.is_done() {
                break;
            }
            p.next_job(cloud_id)
        };
        let Some(JobDesc {
            token,
            index,
            extra,
            parent_span,
            op,
        }) = job
        else {
            signal.wait(seen);
            continue;
        };
        jobs_run += 1;
        // Spans stamp through the obs registry clock (which reads the
        // sim engine state), so everything below runs lock-free with
        // respect to the policy.
        let mut bspan = obs.span("engine.block", parent_span.or(params.batch_span));
        bspan.set_track(ctx.track);
        bspan.attr_u64("cloud", cloud_id.0 as u64);
        bspan.attr_u64("index", index as u64);
        bspan.attr_bool("extra", extra);
        let t0;
        let (result, bytes_len) = match op {
            WireOp::Upload { path, payload } => {
                let data = payload();
                let bytes_len = data.len() as u64;
                obs.inc(&names.dispatched);
                if extra {
                    obs.inc(&names.extra_dispatched);
                }
                t0 = rt.now();
                if let Some(rec) = &ctx.recorder {
                    rec.set_state(ctx.slot, "transferring", &path, t0.as_nanos());
                }
                let r = Retry::new(rt, &params.retry)
                    .obs(obs, retry_label)
                    .span(bspan.id(), ctx.track)
                    .run(|| cloud.upload(&path, data.clone()));
                (r.map(|()| None), bytes_len)
            }
            WireOp::Download { path } => {
                obs.inc(&names.dispatched);
                t0 = rt.now();
                if let Some(rec) = &ctx.recorder {
                    rec.set_state(ctx.slot, "transferring", &path, t0.as_nanos());
                }
                let r = Retry::new(rt, &params.retry)
                    .obs(obs, retry_label)
                    .span(bspan.id(), ctx.track)
                    .run(|| cloud.download(&path));
                let len = r.as_ref().map_or(0, |d| d.len() as u64);
                (r.map(Some), len)
            }
        };
        let now = rt.now();
        let elapsed = now.saturating_duration_since(t0);
        bspan.attr_bool("ok", result.is_ok());
        bspan.attr_u64("bytes", bytes_len);
        bspan.end();
        if let Some(rec) = &ctx.recorder {
            rec.count_outcome(ctx.slot, result.is_ok());
            rec.set_state(ctx.slot, "idle", "", now.as_nanos());
        }
        match &result {
            Ok(_) => {
                if let Some(probe) = &params.probe {
                    probe.record(cloud_id, bytes_len, elapsed);
                }
                obs.inc(&names.completed);
                obs.add(&names.block_bytes, bytes_len);
                obs.inc(cloud_blocks);
                obs.observe(&names.block_elapsed, elapsed.as_nanos() as u64);
                obs.series_observe("engine.block_ns", cloud.name(), elapsed.as_nanos() as u64);
                obs.series_add("engine.block_bytes", cloud.name(), bytes_len);
            }
            Err(_) => {
                obs.inc(&names.failures);
                obs.series_add("engine.block_fail", cloud.name(), 1);
                // A hard failure (retries exhausted) is the precursor
                // of most stalls: capture the state now, while the
                // other workers are still mid-flight.
                if let Some(rec) = &ctx.recorder {
                    rec.dump("block_failure", now.as_nanos());
                }
            }
        }
        let mut deferred = {
            let mut p = policy.lock();
            match result {
                Ok(data) => p.on_success(cloud_id, token, data, now),
                Err(e) => p.on_failure(cloud_id, token, e, now),
            }
            p.take_deferred()
        };
        // Deferred CPU work runs here, off the lock. Wake the parked
        // connections first so they pull new blocks meanwhile.
        while let Some(work) = deferred {
            signal.notify_all();
            let apply = work();
            let mut p = policy.lock();
            apply(&mut p);
            deferred = p.take_deferred();
        }
        // The schedulable state changed: wake every parked connection
        // to re-poll (and to observe is_done on the final completion).
        signal.notify_all();
    }
    wspan.attr_u64("jobs", jobs_run);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver, Sender};

    use unidrive_cloud::{CloudStore, MemCloud};
    use unidrive_sim::RealRuntime;

    /// Two uploads on one cloud with two connections. The first job's
    /// payload waits until the other worker has found nothing to do
    /// (and parks); the second job is released by the first's
    /// completion, whose deferred work then waits for the parked
    /// worker to be handed it, and whose applied result queues one more
    /// step. Every wait is bounded.
    struct Handoff {
        handed: u16,
        released: bool,
        completed: u16,
        idle_tx: Sender<()>,
        idle_rx: Option<Receiver<()>>,
        handed_tx: Sender<()>,
        handed_rx: Option<Receiver<()>>,
        saw_handoff: Option<bool>,
        chained: bool,
        deferred: Option<Deferred<Handoff>>,
    }

    const WAIT: Duration = Duration::from_secs(5);

    impl TransferPolicy for Handoff {
        type Token = u16;

        fn next_job(&mut self, _cloud: CloudId) -> Option<JobDesc<u16>> {
            if self.handed == 2 || (self.handed == 1 && !self.released) {
                let _ = self.idle_tx.send(());
                return None;
            }
            let index = self.handed;
            self.handed += 1;
            let payload: Box<dyn FnOnce() -> Bytes + Send> = if index == 0 {
                let idle = self.idle_rx.take().unwrap();
                Box::new(move || {
                    let _ = idle.recv_timeout(WAIT);
                    Bytes::from_static(b"x")
                })
            } else {
                let _ = self.handed_tx.send(());
                Box::new(|| Bytes::from_static(b"x"))
            };
            Some(JobDesc {
                token: index,
                index,
                extra: false,
                parent_span: None,
                op: WireOp::Upload {
                    path: format!("b{index}"),
                    payload,
                },
            })
        }

        fn is_done(&self) -> bool {
            self.completed == 2 && self.saw_handoff.is_some()
        }

        fn on_success(&mut self, _: CloudId, index: u16, _: Option<Bytes>, _: Time) {
            self.completed += 1;
            if index == 0 {
                self.released = true;
                let rx = self.handed_rx.take().unwrap();
                self.deferred = Some(Box::new(move || {
                    let ok = rx.recv_timeout(WAIT).is_ok();
                    Box::new(move |p: &mut Handoff| {
                        p.saw_handoff = Some(ok);
                        p.deferred =
                            Some(Box::new(|| Box::new(|p: &mut Handoff| p.chained = true)));
                    })
                }));
            }
        }

        fn on_failure(&mut self, _: CloudId, _: u16, e: CloudError, _: Time) {
            panic!("upload to a MemCloud failed: {e}");
        }

        fn take_deferred(&mut self) -> Option<Deferred<Self>> {
            self.deferred.take()
        }
    }

    #[test]
    fn deferred_work_runs_off_the_lock_while_others_take_jobs() {
        let rt = RealRuntime::handle();
        let clouds = CloudSet::new(vec![Arc::new(MemCloud::new("m")) as Arc<dyn CloudStore>]);
        let (idle_tx, idle_rx) = channel();
        let (handed_tx, handed_rx) = channel();
        let policy = Handoff {
            handed: 0,
            released: false,
            completed: 0,
            idle_tx,
            idle_rx: Some(idle_rx),
            handed_tx,
            handed_rx: Some(handed_rx),
            saw_handoff: None,
            chained: false,
            deferred: None,
        };
        let mut params = EngineParams::new("handoff");
        params.connections_per_cloud = 2;
        let policy = TransferEngine::start(&rt, &clouds, params, policy).join();
        assert_eq!(
            policy.saw_handoff,
            Some(true),
            "no worker took a job while deferred work ran"
        );
        assert_eq!(policy.completed, 2);
        assert!(policy.chained, "work queued by an applied step never ran");
    }
}
