//! The persistent worker pool every parallel pipeline stage runs on.
//!
//! The first sharded pipeline (PR 3) spawned a fresh `std::thread::scope`
//! per ingested chunk and re-partitioned every chunk into per-shard
//! `Vec` clones. Correct, but the bench showed it *negatively* scaling:
//! thread spawn/join per chunk, an allocation per (chunk × shard), and a
//! reference-count bump plus cross-thread drop per batch. This module
//! replaces that design with the architecture the sharded detector
//! stages (telescope, honeypot fleet) and the store's parallel
//! consolidation share:
//!
//! * **long-lived workers** — [`ShardPool::new`] spawns the worker
//!   threads once; each worker *owns* a slice of the per-shard states for
//!   its whole life (shard `k` lives on worker `k % workers`), so state
//!   never migrates and never needs locking;
//! * **bounded channels** — each worker has its own
//!   [`std::sync::mpsc::sync_channel`]; a slow worker back-pressures the
//!   dispatcher instead of letting queues grow without bound;
//! * **zero-copy batch routing** — a chunk is shared as one
//!   [`Routed`] view (`Arc`'d item vector + per-shard index lists built
//!   by the stage's shard key); dispatch hands every worker the same
//!   two pointers instead of cloning batches into per-shard vectors;
//! * **explicit barriers** — [`ShardPool::barrier`] runs a closure on
//!   every shard state after all previously dispatched batches, which is
//!   how snapshots merge per-shard accumulators *once* per query instead
//!   of once per ingested chunk; [`ShardPool::shutdown`] is the final
//!   barrier that drains, joins and returns every shard's finished
//!   output.
//!
//! A panicking shard must fail the run, not hang it: every send/receive
//! failure is treated as a dead worker, the pool tears all channels down,
//! joins every thread and re-raises the original panic payload on the
//! caller thread ([`std::panic::resume_unwind`]). Operations on a pool
//! that was already shut down return [`PoolError::ShutDown`] instead.
//!
//! ## Profiling
//!
//! Every pool carries a name and a [`PoolMetrics`] block: per-worker
//! busy/idle wall time, processed job counts, channel queue-depth
//! high-water marks, and caller-side barrier-wait time. Queue and job
//! counts are always-on relaxed atomics (a handful per *batch*, never
//! per item); the wall-clock measurements additionally require
//! `dosscope_obs::enabled()` so the disabled pipeline never reads the
//! clock. On shutdown — including the panic-propagation path, so a
//! failed run still leaves a coherent partial snapshot — the metrics
//! are published to the global `obs` registry as `pool.<name>.*`
//! gauges; [`ShardPool::metrics`] exposes the same numbers directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Error for operations on a pool whose workers are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// [`ShardPool::shutdown`] already ran: the states were consumed and
    /// there is nothing left to dispatch to or snapshot.
    ShutDown,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::ShutDown => write!(f, "shard pool is already shut down"),
        }
    }
}

impl std::error::Error for PoolError {}

/// A chunk of items routed to shards without copying the items: the chunk
/// itself is shared (`Arc`) and each shard owns a list of indexes into it.
///
/// Building a `Routed` is the only per-item routing work the pipeline
/// does — one key evaluation and one `u32` push per item. Workers then
/// walk their own index list and read the items in place through the
/// shared vector; nothing is cloned or re-partitioned.
#[derive(Debug, Clone)]
pub struct Routed<T> {
    items: Arc<Vec<T>>,
    owners: Vec<Vec<u32>>,
}

impl<T> Routed<T> {
    /// Route a shared chunk across `shards` shards with the stage's key
    /// function (`shards = 0` is treated as 1). Relative order within a
    /// shard is the chunk order, which is what per-victim state needs.
    pub fn build(items: Arc<Vec<T>>, shards: usize, key: impl Fn(&T) -> usize) -> Routed<T> {
        let shards = shards.max(1);
        debug_assert!(items.len() <= u32::MAX as usize, "chunk too large to index");
        let mut owners: Vec<Vec<u32>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, item) in items.iter().enumerate() {
            let s = key(item);
            debug_assert!(s < shards, "shard key out of range");
            owners[s.min(shards - 1)].push(i as u32);
        }
        Routed { items, owners }
    }

    /// Number of shards this chunk was routed across.
    pub fn shards(&self) -> usize {
        self.owners.len()
    }

    /// All items of the chunk, in chunk order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The items one shard owns, in chunk order.
    pub fn owned(&self, shard: usize) -> impl Iterator<Item = &T> {
        self.owners[shard].iter().map(|&i| &self.items[i as usize])
    }

    /// How many items one shard owns.
    pub fn owned_len(&self, shard: usize) -> usize {
        self.owners[shard].len()
    }
}

/// Per-worker instrumentation: all fields are relaxed atomics updated
/// by exactly one worker (busy/idle/jobs) or the dispatcher (queue).
#[derive(Default)]
struct WorkerMetrics {
    /// Wall time spent processing jobs (only while telemetry enabled).
    busy_ns: AtomicU64,
    /// Wall time spent blocked in `recv` (only while telemetry enabled).
    idle_ns: AtomicU64,
    /// Batches processed (always on).
    batches: AtomicU64,
    /// Jobs currently queued or in flight on this worker's channel.
    queue_len: AtomicU64,
    /// High-water mark of `queue_len` (always on).
    queue_hwm: AtomicU64,
}

/// Instrumentation block shared by a pool, its workers and (via
/// [`ShardPool::metrics`]) the caller. Lives in an `Arc`, so snapshots
/// remain readable after shutdown — including after a worker panic.
pub struct PoolMetrics {
    name: &'static str,
    shards: usize,
    workers: Vec<WorkerMetrics>,
    /// Dispatch calls routed into the pool (always on).
    dispatches: AtomicU64,
    /// Barriers executed (always on).
    barriers: AtomicU64,
    /// Caller wall time spent waiting on barrier replies (enabled only).
    barrier_wait_ns: AtomicU64,
}

/// Plain-data snapshot of one worker's [`PoolMetrics`] entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerMetricsSnapshot {
    /// Wall nanoseconds processing jobs (0 unless telemetry was on).
    pub busy_ns: u64,
    /// Wall nanoseconds blocked waiting for work (0 unless telemetry
    /// was on).
    pub idle_ns: u64,
    /// Batches this worker processed.
    pub batches: u64,
    /// Highest number of jobs simultaneously queued or in flight.
    pub queue_hwm: u64,
}

/// Plain-data snapshot of a pool's [`PoolMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolMetricsSnapshot {
    /// The pool's registry name (`pool.<name>.*`).
    pub name: &'static str,
    /// Number of shards the pool was built with.
    pub shards: usize,
    /// One entry per worker thread.
    pub workers: Vec<WorkerMetricsSnapshot>,
    /// Dispatch calls routed into the pool.
    pub dispatches: u64,
    /// Barriers executed.
    pub barriers: u64,
    /// Caller wall nanoseconds waiting on barriers (0 unless telemetry
    /// was on).
    pub barrier_wait_ns: u64,
}

impl PoolMetrics {
    fn new(name: &'static str, shards: usize, workers: usize) -> PoolMetrics {
        PoolMetrics {
            name,
            shards,
            workers: (0..workers).map(|_| WorkerMetrics::default()).collect(),
            dispatches: AtomicU64::new(0),
            barriers: AtomicU64::new(0),
            barrier_wait_ns: AtomicU64::new(0),
        }
    }

    /// Record a job entering worker `w`'s queue (dispatcher side).
    fn enqueue(&self, w: usize) {
        let m = &self.workers[w];
        let depth = m.queue_len.fetch_add(1, Ordering::Relaxed) + 1;
        m.queue_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Copy the current values into a plain snapshot.
    pub fn snapshot(&self) -> PoolMetricsSnapshot {
        PoolMetricsSnapshot {
            name: self.name,
            shards: self.shards,
            workers: self
                .workers
                .iter()
                .map(|w| WorkerMetricsSnapshot {
                    busy_ns: w.busy_ns.load(Ordering::Relaxed),
                    idle_ns: w.idle_ns.load(Ordering::Relaxed),
                    batches: w.batches.load(Ordering::Relaxed),
                    queue_hwm: w.queue_hwm.load(Ordering::Relaxed),
                })
                .collect(),
            dispatches: self.dispatches.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
            barrier_wait_ns: self.barrier_wait_ns.load(Ordering::Relaxed),
        }
    }

    /// Publish the current values as `pool.<name>.*` gauges in the
    /// global telemetry registry (no-op while telemetry is disabled).
    fn publish(&self) {
        if !dosscope_obs::enabled() {
            return;
        }
        let snap = self.snapshot();
        let base = format!("pool.{}", self.name);
        dosscope_obs::gauge(&format!("{base}.workers")).set(snap.workers.len() as u64);
        dosscope_obs::gauge(&format!("{base}.shards")).set(snap.shards as u64);
        dosscope_obs::gauge(&format!("{base}.dispatches")).set(snap.dispatches);
        dosscope_obs::gauge(&format!("{base}.barriers")).set(snap.barriers);
        dosscope_obs::gauge(&format!("{base}.barrier_wait_us")).set(snap.barrier_wait_ns / 1_000);
        for (k, w) in snap.workers.iter().enumerate() {
            dosscope_obs::gauge(&format!("{base}.w{k}.busy_us")).set(w.busy_ns / 1_000);
            dosscope_obs::gauge(&format!("{base}.w{k}.idle_us")).set(w.idle_ns / 1_000);
            dosscope_obs::gauge(&format!("{base}.w{k}.batches")).set(w.batches);
            dosscope_obs::gauge(&format!("{base}.w{k}.queue_hwm")).set(w.queue_hwm);
        }
    }
}

/// A barrier closure run against a worker's owned `(shard, state)` slice.
type BarrierCall<S> = Box<dyn FnOnce(&mut Vec<(usize, S)>) + Send>;

/// What travels over a worker's channel: a shared batch, or a barrier
/// closure run against the worker's owned `(shard, state)` slice.
enum Job<B, S> {
    Batch(Arc<B>),
    Call(BarrierCall<S>),
}

struct Lane<B, S, O> {
    tx: Option<SyncSender<Job<B, S>>>,
    handle: Option<JoinHandle<Vec<(usize, O)>>>,
}

/// A persistent pool of worker threads, each owning a fixed slice of
/// per-shard states.
///
/// Type parameters: `B` is the dispatched batch type (shared read-only
/// across workers), `S` the per-shard state a worker owns and mutates,
/// `O` the per-shard output [`ShardPool::shutdown`] returns.
pub struct ShardPool<B, S, O> {
    shards: usize,
    lanes: Vec<Lane<B, S, O>>,
    metrics: Arc<PoolMetrics>,
    down: bool,
}

impl<B, S, O> ShardPool<B, S, O>
where
    B: Send + Sync + 'static,
    S: Send + 'static,
    O: Send + 'static,
{
    /// Spawn the pool: `shards` states (built by `init`, in shard order,
    /// on the calling thread) distributed over `min(threads, shards)`
    /// long-lived workers (`threads > shards` simply caps at one worker
    /// per shard; 0 of either is treated as 1). `name` identifies the
    /// pool in telemetry (`pool.<name>.*`).
    ///
    /// For every dispatched batch a worker calls
    /// `process(state, shard, shards, &batch)` once per shard it owns, in
    /// shard order. At shutdown it calls `finish(state)` per shard and
    /// returns the outputs.
    pub fn new<I, P, F>(
        name: &'static str,
        shards: usize,
        threads: usize,
        queue_depth: usize,
        mut init: I,
        process: P,
        finish: F,
    ) -> ShardPool<B, S, O>
    where
        I: FnMut(usize) -> S,
        P: Fn(&mut S, usize, usize, &B) + Send + Clone + 'static,
        F: Fn(S) -> O + Send + Clone + 'static,
    {
        let shards = shards.max(1);
        let workers = threads.max(1).min(shards);
        let depth = queue_depth.max(1);
        let metrics = Arc::new(PoolMetrics::new(name, shards, workers));
        let mut states: Vec<Option<(usize, S)>> =
            (0..shards).map(|s| Some((s, init(s)))).collect();
        let lanes = (0..workers)
            .map(|w| {
                let owned: Vec<(usize, S)> = states
                    .iter_mut()
                    .skip(w)
                    .step_by(workers)
                    .map(|slot| slot.take().expect("each shard is owned exactly once"))
                    .collect();
                let (tx, rx) = sync_channel::<Job<B, S>>(depth);
                let process = process.clone();
                let finish = finish.clone();
                let metrics = metrics.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("shard-worker-{w}"))
                    .spawn(move || {
                        let mut owned = owned;
                        let wm = &metrics.workers[w];
                        loop {
                            // Clock reads only happen while telemetry is
                            // enabled; the counters below are always on.
                            let wait = dosscope_obs::enabled().then(Instant::now);
                            let Ok(job) = rx.recv() else { break };
                            wm.queue_len.fetch_sub(1, Ordering::Relaxed);
                            if let Some(t) = wait {
                                wm.idle_ns
                                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            }
                            let work = dosscope_obs::enabled().then(Instant::now);
                            match job {
                                Job::Batch(batch) => {
                                    for (shard, state) in owned.iter_mut() {
                                        process(state, *shard, shards, &batch);
                                    }
                                    wm.batches.fetch_add(1, Ordering::Relaxed);
                                }
                                Job::Call(f) => f(&mut owned),
                            }
                            if let Some(t) = work {
                                wm.busy_ns
                                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            }
                        }
                        owned
                            .into_iter()
                            .map(|(shard, state)| (shard, finish(state)))
                            .collect()
                    })
                    .expect("spawn shard worker");
                Lane {
                    tx: Some(tx),
                    handle: Some(handle),
                }
            })
            .collect();
        ShardPool {
            shards,
            lanes,
            metrics,
            down: false,
        }
    }

    /// Number of shards (== per-shard states).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of worker threads actually spawned.
    pub fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// True once [`ShardPool::shutdown`] has consumed the states.
    pub fn is_shut_down(&self) -> bool {
        self.down
    }

    /// Snapshot of the pool's instrumentation counters. Readable at any
    /// point in the pool's life, including after [`ShardPool::shutdown`]
    /// (where data-path calls return [`PoolError::ShutDown`]) and after
    /// a worker panic was propagated.
    pub fn metrics(&self) -> PoolMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Dispatch one batch to every worker (each processes it against all
    /// of its shards). Returns [`PoolError::ShutDown`] after `shutdown`;
    /// re-raises the worker's panic if one died processing earlier work.
    pub fn dispatch(&mut self, batch: B) -> Result<(), PoolError> {
        self.dispatch_shared(Arc::new(batch))
    }

    /// [`ShardPool::dispatch`] for a batch that is already shared.
    pub fn dispatch_shared(&mut self, batch: Arc<B>) -> Result<(), PoolError> {
        if self.down {
            return Err(PoolError::ShutDown);
        }
        self.metrics.dispatches.fetch_add(1, Ordering::Relaxed);
        let mut dead = false;
        for (w, lane) in self.lanes.iter().enumerate() {
            let tx = lane.tx.as_ref().expect("live pool lane has a sender");
            self.metrics.enqueue(w);
            if tx.send(Job::Batch(batch.clone())).is_err() {
                dead = true;
            }
        }
        if dead {
            self.propagate_worker_panic();
        }
        Ok(())
    }

    /// Barrier: after everything dispatched so far has been processed, run
    /// `f` against every shard state and return the results in shard
    /// order. This is the snapshot primitive — per-shard accumulators are
    /// read (and merged by the caller) exactly once per barrier, never per
    /// dispatched chunk.
    pub fn barrier<R, F>(&mut self, f: F) -> Result<Vec<R>, PoolError>
    where
        R: Send + 'static,
        F: Fn(&mut S) -> R + Send + Clone + 'static,
    {
        if self.down {
            return Err(PoolError::ShutDown);
        }
        self.metrics.barriers.fetch_add(1, Ordering::Relaxed);
        let mut replies: Vec<Receiver<Vec<(usize, R)>>> = Vec::with_capacity(self.lanes.len());
        let mut dead = false;
        for (w, lane) in self.lanes.iter().enumerate() {
            let (otx, orx) = std::sync::mpsc::channel();
            let g = f.clone();
            let job = Job::Call(Box::new(move |owned: &mut Vec<(usize, S)>| {
                let out: Vec<(usize, R)> =
                    owned.iter_mut().map(|(shard, s)| (*shard, g(s))).collect();
                let _ = otx.send(out);
            }));
            let tx = lane.tx.as_ref().expect("live pool lane has a sender");
            self.metrics.enqueue(w);
            if tx.send(job).is_err() {
                dead = true;
                break;
            }
            replies.push(orx);
        }
        let mut results: Vec<(usize, R)> = Vec::with_capacity(self.shards);
        if !dead {
            let wait = dosscope_obs::enabled().then(Instant::now);
            for orx in replies {
                match orx.recv() {
                    Ok(part) => results.extend(part),
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if let Some(t) = wait {
                self.metrics
                    .barrier_wait_ns
                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
        if dead {
            self.propagate_worker_panic();
        }
        results.sort_by_key(|(shard, _)| *shard);
        Ok(results.into_iter().map(|(_, r)| r).collect())
    }

    /// Final barrier: close every channel, join every worker and return
    /// the finished per-shard outputs in shard order. The pool is
    /// unusable afterwards (further calls return
    /// [`PoolError::ShutDown`]); a worker that panicked re-raises here.
    pub fn shutdown(&mut self) -> Result<Vec<O>, PoolError> {
        if self.down {
            return Err(PoolError::ShutDown);
        }
        self.down = true;
        for lane in &mut self.lanes {
            lane.tx = None;
        }
        let mut outputs: Vec<(usize, O)> = Vec::with_capacity(self.shards);
        let mut panic_payload = None;
        for lane in &mut self.lanes {
            if let Some(handle) = lane.handle.take() {
                match handle.join() {
                    Ok(part) => outputs.extend(part),
                    Err(payload) => {
                        panic_payload.get_or_insert(payload);
                    }
                }
            }
        }
        self.metrics.publish();
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        outputs.sort_by_key(|(shard, _)| *shard);
        Ok(outputs.into_iter().map(|(_, o)| o).collect())
    }

    /// Tear everything down and re-raise the first worker panic. Only
    /// called when a send or receive failed, which means a worker is gone
    /// — and workers only leave by panicking.
    fn propagate_worker_panic(&mut self) -> ! {
        self.down = true;
        for lane in &mut self.lanes {
            lane.tx = None;
        }
        let mut panic_payload = None;
        for lane in &mut self.lanes {
            if let Some(handle) = lane.handle.take() {
                if let Err(payload) = handle.join() {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
        // Publish whatever was recorded up to the failure so a crashed
        // run still leaves a coherent (partial) telemetry snapshot.
        self.metrics.publish();
        match panic_payload {
            Some(payload) => std::panic::resume_unwind(payload),
            None => unreachable!("worker disconnected without panicking"),
        }
    }
}

/// Dropping a live pool joins its workers (so no thread outlives the
/// stage that owns it) and re-raises a worker panic unless the thread is
/// already unwinding.
impl<B, S, O> Drop for ShardPool<B, S, O> {
    fn drop(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        for lane in &mut self.lanes {
            lane.tx = None;
        }
        let mut panic_payload = None;
        for lane in &mut self.lanes {
            if let Some(handle) = lane.handle.take() {
                if let Err(payload) = handle.join() {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
        self.metrics.publish();
        if let Some(payload) = panic_payload {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::thread::ThreadId;

    /// A state that records everything its shard saw plus the thread that
    /// processed it, to pin worker reuse and ownership.
    #[derive(Default)]
    struct Probe {
        seen: Vec<u32>,
        batches: usize,
        thread: Option<ThreadId>,
    }

    /// What [`probe_pool`]'s finish returns per shard: seen values, batch
    /// count, processing thread.
    type ProbeOutput = (Vec<u32>, usize, Option<ThreadId>);

    fn probe_pool(shards: usize, threads: usize) -> ShardPool<Routed<u32>, Probe, ProbeOutput> {
        named_probe_pool("probe", shards, threads)
    }

    /// A probe pool publishing under `pool.<name>.*`. Probe pools in
    /// tests that do not hold the telemetry lock still publish on
    /// shutdown whenever another test has telemetry on, so a test that
    /// asserts on published gauges needs a name of its own.
    fn named_probe_pool(
        name: &'static str,
        shards: usize,
        threads: usize,
    ) -> ShardPool<Routed<u32>, Probe, ProbeOutput> {
        ShardPool::new(
            name,
            shards,
            threads,
            4,
            |_| Probe::default(),
            |state: &mut Probe, shard, _shards, routed: &Routed<u32>| {
                state.seen.extend(routed.owned(shard).copied());
                state.batches += 1;
                let here = std::thread::current().id();
                match state.thread {
                    None => state.thread = Some(here),
                    Some(prev) => assert_eq!(prev, here, "shard state migrated threads"),
                }
            },
            |s: Probe| (s.seen, s.batches, s.thread),
        )
    }

    fn route(items: Vec<u32>, shards: usize) -> Routed<u32> {
        Routed::build(Arc::new(items), shards, |v| *v as usize % shards.max(1))
    }

    #[test]
    fn workers_persist_across_consecutive_batches() {
        let mut pool = probe_pool(4, 4);
        for chunk in [vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9, 10, 11]] {
            pool.dispatch(route(chunk, 4)).unwrap();
        }
        let outs = pool.shutdown().unwrap();
        assert_eq!(outs.len(), 4);
        for (shard, (seen, batches, thread)) in outs.iter().enumerate() {
            // Same long-lived state saw all three chunks, on one thread.
            assert_eq!(*batches, 3, "shard {shard} reused across batches");
            assert!(thread.is_some());
            assert_eq!(
                seen,
                &(0..12u32).filter(|v| *v as usize % 4 == shard).collect::<Vec<_>>(),
                "shard {shard} owns exactly its keyed items, in order"
            );
        }
    }

    #[test]
    fn more_threads_than_shards_caps_at_one_worker_per_shard() {
        let mut pool = probe_pool(2, 8);
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.shards(), 2);
        pool.dispatch(route((0..10).collect(), 2)).unwrap();
        let outs = pool.shutdown().unwrap();
        assert_eq!(outs[0].0, vec![0, 2, 4, 6, 8]);
        assert_eq!(outs[1].0, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn more_shards_than_threads_strides_ownership() {
        let mut pool = probe_pool(5, 2);
        assert_eq!(pool.workers(), 2);
        pool.dispatch(route((0..25).collect(), 5)).unwrap();
        let outs = pool.shutdown().unwrap();
        assert_eq!(outs.len(), 5, "outputs in shard order despite striding");
        for (shard, (seen, _, _)) in outs.iter().enumerate() {
            assert!(seen.iter().all(|v| *v as usize % 5 == shard));
            assert_eq!(seen.len(), 5);
        }
        // Shards 0,2,4 share worker 0 and 1,3 share worker 1.
        assert_eq!(outs[0].2, outs[2].2);
        assert_eq!(outs[0].2, outs[4].2);
        assert_eq!(outs[1].2, outs[3].2);
        assert_ne!(outs[0].2, outs[1].2);
    }

    #[test]
    fn barrier_sees_all_prior_batches_in_shard_order() {
        let mut pool = probe_pool(3, 3);
        pool.dispatch(route((0..9).collect(), 3)).unwrap();
        let counts = pool.barrier(|s: &mut Probe| s.seen.len()).unwrap();
        assert_eq!(counts, vec![3, 3, 3]);
        pool.dispatch(route((9..12).collect(), 3)).unwrap();
        let counts = pool.barrier(|s: &mut Probe| s.seen.len()).unwrap();
        assert_eq!(counts, vec![4, 4, 4]);
    }

    #[test]
    fn snapshot_after_shutdown_is_an_error() {
        let mut pool = probe_pool(2, 2);
        pool.dispatch(route(vec![1, 2], 2)).unwrap();
        pool.shutdown().unwrap();
        assert!(pool.is_shut_down());
        assert_eq!(
            pool.barrier(|s: &mut Probe| s.batches).unwrap_err(),
            PoolError::ShutDown
        );
        assert_eq!(pool.dispatch(route(vec![3], 2)).unwrap_err(), PoolError::ShutDown);
        assert_eq!(pool.shutdown().unwrap_err(), PoolError::ShutDown);
        assert_eq!(PoolError::ShutDown.to_string(), "shard pool is already shut down");
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let mut pool: ShardPool<Routed<u32>, u32, u32> = ShardPool::new(
            "poison",
            4,
            4,
            2,
            |_| 0,
            |state, shard, _shards, routed: &Routed<u32>| {
                for v in routed.owned(shard) {
                    assert!(*v != 13, "poison item reached shard {shard}");
                    *state += v;
                }
            },
            |s| s,
        );
        pool.dispatch(route(vec![1, 2, 3], 4)).unwrap();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // The poisoned chunk kills one worker; either this dispatch
            // round or the shutdown must surface the panic — never hang.
            pool.dispatch(route(vec![13], 4)).unwrap();
            for i in 0..64 {
                pool.dispatch(route(vec![i], 4)).unwrap();
            }
            pool.shutdown().unwrap();
        }))
        .expect_err("worker panic must propagate to the caller");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("poison item"), "original payload kept: {msg}");
        // The pool is down but safely reusable as a value (errors, no UB).
        assert!(pool.is_shut_down());
    }

    #[test]
    fn routed_views_share_the_chunk() {
        let items = Arc::new(vec![10u32, 21, 32, 43]);
        let routed = Routed::build(items.clone(), 2, |v| (*v % 2) as usize);
        assert_eq!(routed.shards(), 2);
        assert_eq!(routed.items().as_ptr(), items.as_ptr(), "no item copies");
        assert_eq!(routed.owned(0).copied().collect::<Vec<_>>(), vec![10, 32]);
        assert_eq!(routed.owned(1).copied().collect::<Vec<_>>(), vec![21, 43]);
        assert_eq!(routed.owned_len(0), 2);
        // Degenerate shard count routes everything to one shard.
        let one = Routed::build(items, 0, |_| 0);
        assert_eq!(one.shards(), 1);
        assert_eq!(one.owned_len(0), 4);
    }

    /// A pool whose workers sleep per batch, so queueing and barrier
    /// waits are observable in the instrumentation.
    fn slow_pool(
        shards: usize,
        threads: usize,
        delay_ms: u64,
    ) -> ShardPool<Routed<u32>, u64, u64> {
        ShardPool::new(
            "slow",
            shards,
            threads,
            4,
            |_| 0u64,
            move |state, shard, _shards, routed: &Routed<u32>| {
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                *state += routed.owned_len(shard) as u64;
            },
            |s| s,
        )
    }

    #[test]
    fn metrics_track_queue_depth_and_barrier_wait_with_more_threads_than_shards() {
        let _t = dosscope_obs::testing::scoped_enable();
        // threads > shards caps at one worker per shard; instrumentation
        // must still attribute per worker, not per requested thread.
        let mut pool = slow_pool(2, 8, 3);
        assert_eq!(pool.workers(), 2);
        for _ in 0..3 {
            pool.dispatch(route(vec![0, 1], 2)).unwrap();
        }
        let sums = pool.barrier(|s: &mut u64| *s).unwrap();
        assert_eq!(sums, vec![3, 3]);
        let m = pool.metrics();
        assert_eq!(m.name, "slow");
        assert_eq!(m.shards, 2);
        assert_eq!(m.workers.len(), 2);
        assert_eq!(m.dispatches, 3);
        assert_eq!(m.barriers, 1);
        // Three quick dispatches against 3ms batches: at least two jobs
        // were simultaneously queued on each worker at some point.
        for (k, w) in m.workers.iter().enumerate() {
            assert!(w.queue_hwm >= 2, "worker {k} queue hwm {}", w.queue_hwm);
            assert_eq!(w.batches, 3);
            assert!(w.busy_ns > 0, "worker {k} recorded busy time");
        }
        // The barrier had to wait for ~9ms of queued work per worker.
        assert!(
            m.barrier_wait_ns >= 2_000_000,
            "barrier wait {}ns", m.barrier_wait_ns
        );
        let outs = pool.shutdown().unwrap();
        assert_eq!(outs, vec![3, 3]);
    }

    #[test]
    fn metrics_survive_shutdown_and_publish_to_registry() {
        let _t = dosscope_obs::testing::scoped_enable();
        let mut pool = named_probe_pool("published", 2, 2);
        pool.dispatch(route(vec![0, 1, 2, 3], 2)).unwrap();
        pool.shutdown().unwrap();
        // The data path is closed, but the snapshot is still coherent.
        assert!(pool.is_shut_down());
        let m = pool.metrics();
        assert_eq!(m.dispatches, 1);
        assert_eq!(m.workers.iter().map(|w| w.batches).sum::<u64>(), 2);
        // Shutdown published the same numbers as pool.published.* gauges.
        let gauges = dosscope_obs::registry::gauges_snapshot();
        let get = |name: &str| {
            gauges
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(get("pool.published.workers"), 2);
        assert_eq!(get("pool.published.shards"), 2);
        assert_eq!(get("pool.published.dispatches"), 1);
    }

    #[test]
    fn disabled_telemetry_records_no_wall_time() {
        // Telemetry is off, so the pool must never read the clock — but
        // the always-on counters still work. The test lock is held with
        // collection switched back off, so no concurrent test can turn
        // it on while this pool runs.
        let _t = dosscope_obs::testing::scoped_enable();
        dosscope_obs::set_enabled(false);
        let mut pool = probe_pool(2, 2);
        pool.dispatch(route(vec![0, 1], 2)).unwrap();
        pool.barrier(|s: &mut Probe| s.batches).unwrap();
        pool.shutdown().unwrap();
        let m = pool.metrics();
        assert_eq!(m.dispatches, 1);
        assert_eq!(m.barriers, 1);
        assert!(m.workers.iter().all(|w| w.busy_ns == 0 && w.idle_ns == 0));
        assert_eq!(m.barrier_wait_ns, 0);
    }

    #[test]
    fn worker_panic_leaves_a_coherent_partial_metrics_snapshot() {
        let _t = dosscope_obs::testing::scoped_enable();
        let mut pool: ShardPool<Routed<u32>, u32, u32> = ShardPool::new(
            "crashy",
            2,
            2,
            4,
            |_| 0,
            |state, shard, _shards, routed: &Routed<u32>| {
                for v in routed.owned(shard) {
                    assert!(*v != 13, "poison item reached shard {shard}");
                    *state += v;
                }
            },
            |s| s,
        );
        pool.dispatch(route(vec![1, 2], 2)).unwrap();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(route(vec![13], 2)).unwrap();
            for i in 0..64 {
                pool.dispatch(route(vec![i], 2)).unwrap();
            }
            pool.shutdown().unwrap();
        }))
        .expect_err("worker panic must propagate");
        drop(err);
        // The panic path still published a partial snapshot: the clean
        // dispatches before the poison batch are accounted for.
        let m = pool.metrics();
        assert!(m.dispatches >= 2, "pre-crash dispatches recorded");
        let gauges = dosscope_obs::registry::gauges_snapshot();
        assert!(
            gauges.iter().any(|(k, v)| k == "pool.crashy.dispatches" && *v >= 2),
            "partial snapshot published on the panic path"
        );
    }
}
