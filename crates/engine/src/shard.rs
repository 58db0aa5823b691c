//! The sharded front-end: the same `Request -> Response` contract as
//! [`Engine`], served by N worker threads with **static hash placement**.
//!
//! [`ShardedEngine`] partitions the graph registry across `shards` workers
//! by the FNV-1a hash of the graph name ([`ShardedEngine::shard_of`]): a
//! name always routes to the same shard, for the life of the engine and
//! across restarts. Each worker owns a private [`Engine`] holding its
//! graphs' edge lists, epoch counters, and query caches, and drains a FIFO
//! job channel that only it reads. Because a graph routes to one shard and
//! each shard's channel is FIFO, **per-graph request ordering is exactly
//! submission order** — while requests that target graphs on different
//! shards execute concurrently. Shards never exchange graph state.
//!
//! Cross-graph requests ([`Request::ListGraphs`], [`Request::Stats`]) are
//! broadcast to every shard through the same FIFO channels and their
//! partial answers merged, so they observe precisely the requests
//! submitted before them. Net contract: for *any* request stream and *any*
//! shard count, the response sequence (in submission order) matches the
//! single-threaded engine's, and the stress harness's deterministic log
//! digest is unchanged.
//!
//! Two ways to drive it:
//! - [`ShardedEngine::execute`] — submit one request and block for its
//!   answer; a drop-in for [`Engine::execute`] (no parallelism: each
//!   request completes before the next is submitted).
//! - [`ShardedEngine::submit`] + [`Ticket::wait`] — pipeline many requests
//!   and collect answers in submission order; this is what overlaps work
//!   across shards and where the throughput win comes from.
//!
//! Shutdown is graceful: [`ShardedEngine::shutdown`] (or drop) drops the
//! job senders, and every worker drains all in-flight jobs before exiting,
//! so tickets taken before shutdown still resolve. A worker that dies
//! (panics) drops its receiver, and with it every job still queued there:
//! those tickets, and the tickets of jobs routed to the dead shard later,
//! resolve to [`Response::Error`] instead of hanging. No worker ever waits
//! on another, so the other shards keep serving.
//!
//! ```
//! use cut_engine::{GraphSpec, Query, Request, Response, ShardedEngine};
//!
//! let mut engine = ShardedEngine::new(4);
//! // Tickets pipeline: submit first, wait later, answers in order.
//! let create = engine.submit(Request::Create {
//!     name: "ring".into(),
//!     spec: GraphSpec::Cycle { n: 12 },
//! });
//! let cut = engine.submit(Request::Query {
//!     name: "ring".into(),
//!     query: Query::ExactMinCut,
//! });
//! assert!(matches!(create.wait(), Response::Created { .. }));
//! assert!(matches!(cut.wait(), Response::CutValue { weight: 2, .. }));
//! let per_shard = engine.shutdown();
//! assert_eq!(per_shard.iter().map(|s| s.queries).sum::<u64>(), 1);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use cut_obs::{span_flags, Clock, MonotonicClock, Registry, SlowLog, Span};

use crate::engine::{Engine, EngineConfig, EngineStats};
use crate::request::{Request, Response};
use crate::store_api::GraphStore;

/// How a [`ShardedEngine`]'s workers are configured.
#[derive(Clone)]
pub struct ShardOptions {
    /// Per-shard engine configuration.
    pub cfg: EngineConfig,
    /// Durability backend, shared by every worker. Each worker attaches
    /// it to its private [`Engine`] and adopts (as spilled, faulted in on
    /// first touch) the stored graphs that hash to its own shard — the
    /// same function that routes requests, so recovery needs no history
    /// and works for any shard count.
    pub store: Option<Arc<dyn GraphStore>>,
    /// Telemetry clock stamping request lifecycles (enqueue, dequeue,
    /// serve end) and serve-time attribution. Defaults to the monotonic
    /// wall clock; tests inject a [`cut_obs::TestClock`] for exact,
    /// deterministic stamps. Purely an observer — swapping clocks never
    /// changes a response.
    pub clock: Arc<dyn Clock>,
    /// Worst-N capacity of each shard's slow-query log (0 disables it).
    pub slowlog_cap: usize,
}

impl Default for ShardOptions {
    fn default() -> Self {
        Self {
            cfg: EngineConfig::default(),
            store: None,
            clock: Arc::new(MonotonicClock::new()),
            slowlog_cap: 16,
        }
    }
}

impl std::fmt::Debug for ShardOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardOptions")
            .field("cfg", &self.cfg)
            .field("store", &self.store.as_ref().map(|_| "dyn GraphStore"))
            .field("clock", &self.clock)
            .field("slowlog_cap", &self.slowlog_cap)
            .finish()
    }
}

/// One unit of work for a shard worker: a request plus the channel its
/// response goes back on, stamped with the telemetry clock reading at
/// submission (the span's enqueue mark — queue wait is measured from it).
struct Job {
    request: Request,
    reply: Sender<Response>,
    enqueue: u64,
}

/// Which cross-shard request a broadcast ticket is merging.
#[derive(Debug, Clone, Copy)]
enum MergeKind {
    ListGraphs,
    Stats,
    Metrics,
    Slowlog,
}

/// A pending response from [`ShardedEngine::submit`].
///
/// Waiting is detached from submission so callers can keep many requests
/// in flight; [`Ticket::wait`] blocks until the owning shard (or, for
/// broadcasts, every shard) has answered. Tickets remain valid across
/// [`ShardedEngine::shutdown`]: workers drain their queues before exiting.
#[must_use = "a ticket holds a pending response; call wait() to collect it"]
pub struct Ticket {
    /// `None` once the response has been collected (the ticket is spent).
    inner: Option<TicketInner>,
    /// Bumped at drop when the ticket still held a pending response —
    /// the caller abandoned it without waiting. The work still executes
    /// (mutations apply, the WAL is written); only the answer is lost.
    abandoned: Option<Arc<AtomicU64>>,
}

enum TicketInner {
    /// One shard answers.
    Single(Receiver<Response>),
    /// Every shard answers; the partials merge into one response. `got`
    /// buffers the partials [`Ticket::try_wait`] has already collected.
    Merge { kind: MergeKind, parts: Vec<Receiver<Response>>, got: Vec<Option<Response>> },
}

impl Ticket {
    /// Block until the response is available.
    ///
    /// If a shard worker died (panicked) before answering, this returns a
    /// [`Response::Error`] instead of hanging or propagating the panic.
    pub fn wait(mut self) -> Response {
        match self.inner.take() {
            None => worker_lost(),
            Some(TicketInner::Single(rx)) => rx.recv().unwrap_or_else(|_| worker_lost()),
            Some(TicketInner::Merge { kind, parts, got }) => {
                let mut partials = Vec::with_capacity(parts.len());
                for (rx, buffered) in parts.iter().zip(got) {
                    match buffered {
                        Some(r) => partials.push(r),
                        None => match rx.recv() {
                            Ok(r) => partials.push(r),
                            Err(_) => return worker_lost(),
                        },
                    }
                }
                merge_partials(kind, partials)
            }
        }
    }

    /// Non-blocking poll: `Some(response)` once every owing shard has
    /// answered, `None` while any is still working. The open-loop stress
    /// harness uses this to stamp per-request completion times without
    /// head-of-line blocking on slower earlier tickets.
    ///
    /// Once this returns `Some`, the ticket is spent — further calls
    /// return `None`, and dropping it no longer counts as abandonment.
    pub fn try_wait(&mut self) -> Option<Response> {
        let response = Self::poll(self.inner.as_mut()?)?;
        self.inner = None;
        Some(response)
    }

    /// Non-blocking poll of a live ticket — the `try_wait` body, split
    /// out so spending the ticket (clearing `inner`) happens in exactly
    /// one place per public entry point.
    fn poll(inner: &mut TicketInner) -> Option<Response> {
        match inner {
            TicketInner::Single(rx) => match rx.try_recv() {
                Ok(r) => Some(r),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => Some(worker_lost()),
            },
            TicketInner::Merge { kind, parts, got } => {
                for (rx, slot) in parts.iter().zip(got.iter_mut()) {
                    if slot.is_some() {
                        continue;
                    }
                    match rx.try_recv() {
                        Ok(r) => *slot = Some(r),
                        Err(TryRecvError::Empty) => return None,
                        Err(TryRecvError::Disconnected) => return Some(worker_lost()),
                    }
                }
                let partials = got.iter_mut().map(|s| s.take().expect("all arrived")).collect();
                Some(merge_partials(*kind, partials))
            }
        }
    }

    /// Bounded-blocking poll: park up to `timeout` for the next missing
    /// answer, then report like [`Ticket::try_wait`]. Collectors that would
    /// otherwise hot-poll `try_wait` in a spin loop should park here
    /// instead — the wait ends the moment the answer lands, so completion
    /// timestamps stay accurate without burning a core.
    ///
    /// `None` means the timeout elapsed (any partials that arrived are
    /// buffered); `Some` spends the ticket exactly as `try_wait` does.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Response> {
        let resolved = match self.inner.as_mut()? {
            TicketInner::Single(rx) => match rx.recv_timeout(timeout) {
                Ok(r) => Some(r),
                Err(RecvTimeoutError::Timeout) => return None,
                Err(RecvTimeoutError::Disconnected) => Some(worker_lost()),
            },
            TicketInner::Merge { parts, got, .. } => {
                // Park on the first missing partial only; the rest are
                // swept non-blockingly below (they usually land together).
                if let Some((rx, slot)) =
                    parts.iter().zip(got.iter_mut()).find(|(_, slot)| slot.is_none())
                {
                    match rx.recv_timeout(timeout) {
                        Ok(r) => *slot = Some(r),
                        Err(RecvTimeoutError::Timeout) => return None,
                        // Let try_wait below report the lost worker.
                        Err(RecvTimeoutError::Disconnected) => {}
                    }
                }
                None
            }
        };
        match resolved {
            Some(r) => {
                self.inner = None;
                Some(r)
            }
            None => self.try_wait(),
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if self.inner.is_some() {
            if let Some(counter) = &self.abandoned {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn worker_lost() -> Response {
    Response::Error { message: "shard worker disconnected before answering".into() }
}

/// Merge per-shard partial answers to a broadcast request into the answer
/// an unsharded engine would give.
fn merge_partials(kind: MergeKind, partials: Vec<Response>) -> Response {
    match kind {
        MergeKind::ListGraphs => {
            let mut names = Vec::new();
            for p in partials {
                match p {
                    Response::Graphs { names: part } => names.extend(part),
                    other => return unexpected_partial(other),
                }
            }
            // Each shard's list is sorted; the global contract is one
            // sorted list. Dedup guards the durable-adoption edge: a
            // name must never be double-reported even if two shards
            // transiently track it.
            names.sort_unstable();
            names.dedup();
            Response::Graphs { names }
        }
        MergeKind::Stats => {
            let (mut graphs, mut queries, mut hits, mut misses, mut mutations) = (0, 0, 0, 0, 0);
            for p in partials {
                match p {
                    Response::EngineStats {
                        graphs: g,
                        queries: q,
                        cache_hits: h,
                        cache_misses: m,
                        mutations: mu,
                    } => {
                        graphs += g;
                        queries += q;
                        hits += h;
                        misses += m;
                        mutations += mu;
                    }
                    other => return unexpected_partial(other),
                }
            }
            Response::EngineStats {
                graphs,
                queries,
                cache_hits: hits,
                cache_misses: misses,
                mutations,
            }
        }
        MergeKind::Metrics => {
            // Each shard snapshots its registry (counters, gauges,
            // histograms) onto the wire; the merge is the same explicit
            // addition `EngineStats` uses, so the merged answer equals
            // what one engine serving the whole stream would report.
            let mut merged = Registry::new();
            for p in partials {
                match p {
                    Response::Metrics { snapshot } => match Registry::from_wire(&snapshot) {
                        Ok(part) => merged.merge(&part),
                        Err(e) => {
                            return Response::Error { message: format!("bad metrics partial: {e}") }
                        }
                    },
                    other => return unexpected_partial(other),
                }
            }
            Response::Metrics { snapshot: merged.to_wire() }
        }
        MergeKind::Slowlog => {
            // Worst-N across all shards: fold each shard's log and keep
            // the globally slowest spans under the largest capacity.
            let mut merged = SlowLog::new(0);
            for p in partials {
                match p {
                    Response::Slowlog { snapshot } => match SlowLog::from_wire(&snapshot) {
                        Ok(part) => merged.merge(&part),
                        Err(e) => {
                            return Response::Error { message: format!("bad slowlog partial: {e}") }
                        }
                    },
                    other => return unexpected_partial(other),
                }
            }
            Response::Slowlog { snapshot: merged.to_wire() }
        }
    }
}

fn unexpected_partial(got: Response) -> Response {
    Response::Error { message: format!("unexpected shard partial: {got}") }
}

/// The shard that owns `name`: stable FNV-1a over the name, modulo the
/// shard count. Platform- and run-independent, so routing, durable
/// adoption and the per-shard occupancy a harness reports are all
/// reproducible.
fn default_shard(name: &str, shards: usize) -> usize {
    (cut_graph::hash::fnv1a(name.as_bytes()) % shards as u64) as usize
}

/// The sharded, multi-threaded front-end over [`Engine`].
///
/// See the [module docs](self) for the routing and ordering contract. Use
/// [`ShardedEngine::new`] for defaults, [`ShardedEngine::with_config`] to
/// set the per-shard [`EngineConfig`], [`ShardedEngine::with_options`] for
/// durability and telemetry.
pub struct ShardedEngine {
    /// One job channel per shard. Dropping the senders is the shutdown
    /// signal: each worker drains its channel, then exits.
    senders: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<EngineStats>>,
    /// Jobs enqueued per shard (broadcasts count on every shard).
    routed: Vec<u64>,
    /// The telemetry clock, shared with every worker: the router stamps
    /// each job's enqueue mark at submission.
    clock: Arc<dyn Clock>,
    /// Tickets dropped while still holding a pending response.
    abandoned: Arc<AtomicU64>,
}

impl ShardedEngine {
    /// Spawn `shards` worker threads with the default [`EngineConfig`].
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        Self::with_config(shards, EngineConfig::default())
    }

    /// Spawn `shards` worker threads, each owning an `Engine` built from
    /// `cfg`.
    ///
    /// # Panics
    /// Panics if `shards` is zero, or if the OS refuses to spawn a worker
    /// thread (callers taking `shards` from user input should bound it —
    /// the stress harness caps at 1024).
    pub fn with_config(shards: usize, cfg: EngineConfig) -> Self {
        Self::with_options(shards, ShardOptions { cfg, ..ShardOptions::default() })
    }

    /// Spawn `shards` worker threads with durability and telemetry
    /// configured — see [`ShardOptions`].
    ///
    /// # Panics
    /// Panics if `shards` is zero, or if the OS refuses to spawn a worker
    /// thread (callers taking `shards` from user input should bound it —
    /// the stress harness caps at 1024).
    pub fn with_options(shards: usize, opts: ShardOptions) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let mut engine = Engine::with_config(opts.cfg.clone());
            engine.set_clock(Arc::clone(&opts.clock));
            if let Some(store) = &opts.store {
                engine.attach_store(Arc::clone(store));
                // Adopt this shard's slice of the durable graphs — the
                // slice routing sends here, so recovery is portable
                // across shard counts. Adopted graphs stay on disk until
                // first touched.
                for name in store.names() {
                    if default_shard(&name, shards) == shard {
                        engine.adopt_stored(&name);
                    }
                }
            }
            let (tx, jobs) = unbounded();
            let worker = Worker {
                id: shard,
                jobs,
                engine,
                registry: Registry::new(),
                slowlog: SlowLog::new(opts.slowlog_cap),
                clock: Arc::clone(&opts.clock),
            };
            let handle = std::thread::Builder::new()
                .name(format!("cut-shard-{shard}"))
                .spawn(move || worker.run())
                .expect("spawn shard worker");
            senders.push(tx);
            workers.push(handle);
        }
        Self {
            senders,
            workers,
            routed: vec![0; shards],
            clock: opts.clock,
            abandoned: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// The shard that owns graph `name`: the stable FNV-1a hash of the
    /// name, which never changes.
    pub fn shard_of(&self, name: &str) -> usize {
        default_shard(name, self.shards())
    }

    /// Jobs enqueued per shard so far (broadcast requests count once on
    /// every shard). The stress harness reads this for occupancy stats.
    pub fn routed(&self) -> &[u64] {
        &self.routed
    }

    /// Enqueue one request and return a [`Ticket`] for its response.
    ///
    /// Requests that name a graph go to that graph's shard
    /// ([`ShardedEngine::shard_of`]); `ListGraphs` and `Stats` are
    /// broadcast to every shard and merged at [`Ticket::wait`]. Submission
    /// order *is* per-graph execution order.
    pub fn submit(&mut self, request: Request) -> Ticket {
        // Exhaustive: a new Request variant must declare here whether it
        // routes by graph name or broadcasts (and how its partials merge).
        match &request {
            Request::Create { name, .. }
            | Request::Drop { name }
            | Request::Mutate { name, .. }
            | Request::Query { name, .. } => {
                let shard = self.shard_of(name);
                let (reply, rx) = unbounded();
                let enqueue = self.clock.now();
                self.push(shard, Job { request, reply, enqueue });
                self.ticket(TicketInner::Single(rx))
            }
            Request::ListGraphs | Request::Stats | Request::Metrics | Request::Slowlog => {
                let kind = match request {
                    Request::ListGraphs => MergeKind::ListGraphs,
                    Request::Metrics => MergeKind::Metrics,
                    Request::Slowlog => MergeKind::Slowlog,
                    _ => MergeKind::Stats,
                };
                let mut parts = Vec::with_capacity(self.shards());
                let enqueue = self.clock.now();
                for shard in 0..self.shards() {
                    let (reply, rx) = unbounded();
                    self.push(shard, Job { request: request.clone(), reply, enqueue });
                    parts.push(rx);
                }
                let got = (0..parts.len()).map(|_| None).collect();
                self.ticket(TicketInner::Merge { kind, parts, got })
            }
        }
    }

    /// Wrap a pending response with the abandoned-ticket accounting.
    fn ticket(&self, inner: TicketInner) -> Ticket {
        Ticket { inner: Some(inner), abandoned: Some(Arc::clone(&self.abandoned)) }
    }

    /// Tickets dropped while still holding a pending response — callers
    /// that fired a request and never waited. The work itself is not
    /// lost (mutations apply, the WAL is written before the reply is
    /// released); only the answer went uncollected.
    pub fn abandoned_tickets(&self) -> u64 {
        self.abandoned.load(Ordering::Relaxed)
    }

    /// Submit one request and block for its response — a drop-in for
    /// [`Engine::execute`] (correct, but serialized; use [`submit`] to
    /// overlap work across shards).
    ///
    /// [`submit`]: ShardedEngine::submit
    pub fn execute(&mut self, request: Request) -> Response {
        self.submit(request).wait()
    }

    /// Close the job channels and join every worker, returning each
    /// shard's final [`EngineStats`] (index = shard id).
    ///
    /// Graceful: workers drain every job already queued before exiting,
    /// so tickets obtained before `shutdown` still resolve with real
    /// answers.
    ///
    /// # Panics
    /// Propagates a shard worker's panic rather than silently reporting
    /// zeroed stats for the dead shard. (In-flight tickets against a dead
    /// shard resolve to [`Response::Error`], not a hang — see
    /// [`Ticket::wait`].)
    pub fn shutdown(mut self) -> Vec<EngineStats> {
        self.senders.clear();
        self.workers
            .drain(..)
            .enumerate()
            .map(|(shard, h)| h.join().unwrap_or_else(|_| panic!("shard worker {shard} panicked")))
            .collect()
    }

    /// Count and enqueue one job on `shard`.
    fn push(&mut self, shard: usize, job: Job) {
        self.routed[shard] += 1;
        // A failed send means the shard's worker died and dropped its
        // receiver. The job drops here, and with it its reply sender, so
        // its ticket resolves to an error.
        let _ = self.senders[shard].send(job);
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // `shutdown` joined these already; a plain drop also closes and
        // joins so no worker outlives the engine.
        self.senders.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One shard worker: drains its job channel FIFO into a private engine.
/// Reports final stats to `shutdown`.
struct Worker {
    id: usize,
    /// This shard's job channel; the router holds the only sender.
    jobs: Receiver<Job>,
    engine: Engine,
    /// Shard-local telemetry: queue-wait and serve-time histograms (one
    /// observation per named request served here), merged across shards
    /// at a `stats metrics` barrier. No locks — each worker owns its own.
    registry: Registry,
    /// Worst-N spans served by this shard, merged at `stats slowlog`.
    slowlog: SlowLog,
    /// Stamps each span's dequeue and end marks.
    clock: Arc<dyn Clock>,
}

impl Worker {
    fn run(mut self) -> EngineStats {
        // `recv` fails only at graceful exit: every sender dropped and the
        // channel drained.
        while let Ok(job) = self.jobs.recv() {
            self.exec(job);
        }
        self.engine.stats()
    }

    fn exec(&mut self, job: Job) {
        // Introspection broadcasts answer from the worker itself, not the
        // engine: the snapshot covers the shard-local span histograms plus
        // the engine's counter families, and (so a store shared by every
        // shard is counted once, not `shards` times) worker 0 alone folds
        // in the `store_` families. They record no spans of their own,
        // which keeps each span histogram's total count equal to the
        // named ops served.
        match &job.request {
            Request::Metrics => {
                let _ = job
                    .reply
                    .send(Response::Metrics { snapshot: self.metrics_snapshot().to_wire() });
                return;
            }
            Request::Slowlog => {
                let _ = job.reply.send(Response::Slowlog { snapshot: self.slowlog.to_wire() });
                return;
            }
            _ => {}
        }
        // Only named requests get lifecycle spans.
        let target = match &job.request {
            Request::Create { name, .. }
            | Request::Drop { name }
            | Request::Mutate { name, .. }
            | Request::Query { name, .. } => Some(name.clone()),
            Request::ListGraphs | Request::Stats | Request::Metrics | Request::Slowlog => None,
        };
        let Job { request, reply, enqueue } = job;
        let kind = request.kind();
        let start = std::time::Instant::now();
        let dequeue = self.clock.now();
        let response = self.engine.execute(request);
        let end = self.clock.now();
        self.engine.stats_mut().serve_nanos += start.elapsed().as_nanos() as u64;
        if let Some(name) = target {
            let delta = self.engine.obs_mut().take_delta();
            let mut flags = 0;
            if delta.fault_ins > 0 {
                flags |= span_flags::FAULT_IN;
            }
            if delta.spills > 0 {
                flags |= span_flags::SPILL;
            }
            self.observe_span(Span {
                kind: kind.to_string(),
                target: name,
                shard: self.id as u64,
                enqueue,
                dequeue,
                end,
                index_nanos: delta.index_nanos,
                store_nanos: delta.store_nanos,
                flags,
            });
        }
        // A dropped ticket is fine — compute anyway (mutations must still
        // apply), discard the undeliverable answer.
        let _ = reply.send(response);
    }

    /// One span into the shard-local telemetry: queue-wait and serve-time
    /// histogram observations plus a slow-log admission attempt.
    fn observe_span(&mut self, span: Span) {
        self.registry.observe("request_queue_wait_nanos", span.queue_nanos());
        self.registry.observe("request_serve_nanos", span.serve_nanos());
        self.slowlog.record(span);
    }

    /// This shard's `stats metrics` partial: span histograms merged with
    /// the engine's counter families (and, on worker 0 only, the shared
    /// store's `store_` families).
    fn metrics_snapshot(&self) -> Registry {
        let mut reg = self.registry.clone();
        reg.merge(&self.engine.metrics_registry());
        if self.id == 0 {
            reg.merge(&self.engine.store_metrics());
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{GraphSpec, Mutation, Query};

    fn create(engine: &mut ShardedEngine, name: &str, n: usize) {
        let r = engine.execute(Request::Create { name: name.into(), spec: GraphSpec::Cycle { n } });
        assert!(matches!(r, Response::Created { .. }), "create failed: {r}");
    }

    #[test]
    fn wait_timeout_parks_then_delivers_like_try_wait() {
        let mut e = ShardedEngine::new(3);
        create(&mut e, "ring", 12);
        // Single-shard ticket: park-polling must converge on the answer.
        let mut ticket =
            e.submit(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
        let response = loop {
            if let Some(r) = ticket.wait_timeout(Duration::from_millis(1)) {
                break r;
            }
        };
        assert!(matches!(response, Response::CutValue { weight: 2, .. }), "got {response}");
        // Broadcast (merge) ticket: partials buffer across timeouts.
        let mut ticket = e.submit(Request::ListGraphs);
        let response = loop {
            if let Some(r) = ticket.wait_timeout(Duration::from_millis(1)) {
                break r;
            }
        };
        assert!(
            matches!(&response, Response::Graphs { names } if names == &vec!["ring".to_string()]),
            "got {response}"
        );
        e.shutdown();
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let e = ShardedEngine::new(4);
        for name in ["g000", "g001", "alpha", "β-graph", ""] {
            let s = e.shard_of(name);
            assert!(s < 4);
            assert_eq!(s, e.shard_of(name), "routing must be deterministic");
        }
    }

    #[test]
    fn full_lifecycle_stays_on_one_shard() {
        let mut e = ShardedEngine::new(3);
        create(&mut e, "ring", 10);
        let shard = e.shard_of("ring");
        let r = e.execute(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
        assert!(matches!(r, Response::CutValue { weight: 2, .. }), "got {r}");
        let r = e.execute(Request::Mutate {
            name: "ring".into(),
            op: Mutation::InsertEdge { u: 0, v: 5, w: 4 },
        });
        assert!(matches!(r, Response::Mutated { epoch: 1, .. }), "got {r}");
        let r = e.execute(Request::Drop { name: "ring".into() });
        assert!(matches!(r, Response::Dropped { .. }), "got {r}");
        // Everything above targeted one graph, so exactly one shard worked.
        let busy: Vec<usize> = (0..3).filter(|&s| e.routed()[s] > 0).collect();
        assert_eq!(busy, vec![shard]);
    }

    #[test]
    fn list_and_stats_merge_across_shards() {
        let mut e = ShardedEngine::new(4);
        for name in ["delta", "alpha", "charlie", "bravo"] {
            create(&mut e, name, 6);
        }
        assert_eq!(
            e.execute(Request::ListGraphs),
            Response::Graphs {
                names: vec!["alpha".into(), "bravo".into(), "charlie".into(), "delta".into()]
            }
        );
        for name in ["alpha", "bravo"] {
            e.execute(Request::Query { name: name.into(), query: Query::Connectivity });
            e.execute(Request::Query { name: name.into(), query: Query::Connectivity });
        }
        let r = e.execute(Request::Stats);
        assert_eq!(
            r,
            Response::EngineStats {
                graphs: 4,
                queries: 4,
                cache_hits: 2,
                cache_misses: 2,
                mutations: 0
            }
        );
    }

    #[test]
    fn unknown_graph_errors_match_the_unsharded_engine() {
        let mut sharded = ShardedEngine::new(4);
        let mut plain = Engine::new();
        let requests = [
            Request::Drop { name: "ghost".into() },
            Request::Mutate { name: "ghost".into(), op: Mutation::DeleteEdge { u: 0, v: 1 } },
            Request::Query { name: "ghost".into(), query: Query::ExactMinCut },
        ];
        for req in requests {
            assert_eq!(sharded.execute(req.clone()), plain.execute(req));
        }
    }

    #[test]
    fn shutdown_drains_in_flight_tickets() {
        let mut e = ShardedEngine::new(4);
        create(&mut e, "work", 32);
        let tickets: Vec<Ticket> = (0..64)
            .map(|i| {
                e.submit(Request::Query {
                    name: "work".into(),
                    query: Query::ApproxMinCut { seed: i },
                })
            })
            .collect();
        // Shut down with (potentially) all 64 still queued.
        let per_shard = e.shutdown();
        for t in tickets {
            assert!(matches!(t.wait(), Response::CutValue { .. }));
        }
        let total: u64 = per_shard.iter().map(|s| s.queries).sum();
        assert_eq!(total, 64, "every in-flight query must have been served");
    }

    #[test]
    fn dropped_tickets_still_apply_mutations() {
        let mut e = ShardedEngine::new(2);
        create(&mut e, "g", 8);
        for _ in 0..3 {
            // Fire-and-forget: drop the ticket immediately.
            let _ = e.submit(Request::Mutate {
                name: "g".into(),
                op: Mutation::InsertEdge { u: 0, v: 4, w: 1 },
            });
        }
        let r = e.execute(Request::Query { name: "g".into(), query: Query::Connectivity });
        assert!(matches!(r, Response::ConnectivityValue { .. }));
        let mutations: u64 = e.shutdown().iter().map(|s| s.mutations).sum();
        assert_eq!(mutations, 3, "fire-and-forget mutations must still land");
    }

    #[test]
    fn cross_graph_runs_stop_at_mutation_barriers() {
        // Mutations interleaved in a pipelined stream of reads that
        // alternate between two graphs are barriers: the stream must
        // answer identically to the plain engine at 1 and 4 shards, and
        // the mutated graph's epoch must observe every insert in
        // submission order.
        let mut requests = vec![
            Request::Create { name: "a".into(), spec: GraphSpec::Cycle { n: 12 } },
            Request::Create { name: "b".into(), spec: GraphSpec::Cycle { n: 16 } },
        ];
        for round in 0..5u64 {
            for i in 0..6u32 {
                requests.push(Request::Query {
                    name: if i % 2 == 0 { "a" } else { "b" }.into(),
                    query: Query::Connectivity,
                });
            }
            requests.push(Request::Mutate {
                name: if round % 2 == 0 { "a" } else { "b" }.into(),
                op: Mutation::InsertEdge { u: 0, v: 3 + round as u32, w: 1 + round },
            });
            requests.push(Request::Query { name: "a".into(), query: Query::ExactMinCut });
            requests.push(Request::Query { name: "b".into(), query: Query::ExactMinCut });
        }
        let mut plain = Engine::new();
        let expected: Vec<Response> = requests.iter().map(|r| plain.execute(r.clone())).collect();
        for shards in [1, 4] {
            let mut e = ShardedEngine::new(shards);
            let tickets: Vec<Ticket> = requests.iter().map(|r| e.submit(r.clone())).collect();
            let got: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();
            assert_eq!(got, expected, "diverged at shards={shards}");
            let mut total = EngineStats::default();
            for s in e.shutdown() {
                total.merge(&s);
            }
            assert_eq!(total.mutations, plain.stats().mutations);
            assert_eq!(total.queries, plain.stats().queries);
        }
    }

    #[test]
    fn cut_gate_counters_merge_across_shards() {
        // Two graphs, wherever the router places them: each serves one
        // real cut compute and one certified carry (parallel-edge insert
        // freezes the partition). The per-shard counters must fold into
        // the fleet view through the same exhaustive merge the broadcast
        // Stats path uses.
        let mut e = ShardedEngine::new(2);
        for name in ["left", "right"] {
            let r = e.execute(Request::Create {
                name: name.into(),
                spec: GraphSpec::Edges { n: 4, edges: vec![(0, 1, 1), (2, 3, 1)] },
            });
            assert!(matches!(r, Response::Created { .. }), "create failed: {r}");
            let first = e.execute(Request::Query { name: name.into(), query: Query::ExactMinCut });
            assert!(matches!(first, Response::CutValue { weight: 0, .. }), "got {first}");
            e.execute(Request::Mutate {
                name: name.into(),
                op: Mutation::InsertEdge { u: 0, v: 1, w: 7 },
            });
            let again = e.execute(Request::Query { name: name.into(), query: Query::ExactMinCut });
            assert_eq!(format!("{again}"), format!("{first}"), "carried answer for {name}");
        }
        let mut total = EngineStats::default();
        for s in e.shutdown() {
            total.merge(&s);
        }
        assert_eq!(total.cut_recomputes, 2, "one real compute per graph");
        assert_eq!(total.cut_certified_skips, 2, "one carry per graph");
        assert_eq!(total.index.csr_builds, 2, "the carries build no CSR");
    }

    #[test]
    fn single_shard_matches_engine_exactly() {
        let mut sharded = ShardedEngine::new(1);
        let mut plain = Engine::new();
        let requests = vec![
            Request::Create { name: "a".into(), spec: GraphSpec::Cycle { n: 8 } },
            Request::Create { name: "b".into(), spec: GraphSpec::RandomTree { n: 9, seed: 4 } },
            Request::Query { name: "a".into(), query: Query::ExactMinCut },
            Request::Query { name: "a".into(), query: Query::ExactMinCut },
            Request::Mutate { name: "a".into(), op: Mutation::InsertEdge { u: 1, v: 5, w: 2 } },
            Request::Query { name: "a".into(), query: Query::ExactMinCut },
            Request::Query { name: "b".into(), query: Query::SingletonCut { seed: 3 } },
            Request::ListGraphs,
            Request::Stats,
            Request::Drop { name: "b".into() },
            Request::ListGraphs,
        ];
        for req in requests {
            assert_eq!(sharded.execute(req.clone()), plain.execute(req));
        }
    }

    #[test]
    fn pipelined_drops_recreates_and_broadcasts_match_engine() {
        // One hot graph interleaved with mutations, drops, a re-create,
        // and broadcasts, all pipelined so the drops land while earlier
        // work is still queued: every response must equal the unsharded
        // engine's, and the per-shard counters must sum to its counters.
        let mut sharded = ShardedEngine::new(3);
        let mut plain = Engine::new();

        let mut requests: Vec<Request> = Vec::new();
        for i in 0..4 {
            requests.push(Request::Create {
                name: format!("g{i}"),
                spec: GraphSpec::Cycle { n: 12 + i },
            });
        }
        for round in 0..30u64 {
            requests.push(Request::Query { name: "g0".into(), query: Query::ExactMinCut });
            requests.push(Request::Query { name: "g0".into(), query: Query::Connectivity });
            if round % 3 == 0 {
                requests.push(Request::Mutate {
                    name: "g0".into(),
                    op: Mutation::InsertEdge { u: 0, v: 2 + (round % 9) as u32, w: 1 + round },
                });
            }
            if round % 7 == 0 {
                requests.push(Request::Query {
                    name: format!("g{}", round % 4),
                    query: Query::ExactMinCut,
                });
            }
            if round == 10 {
                requests.push(Request::Drop { name: "g1".into() });
            }
            if round == 12 {
                requests.push(Request::Drop { name: "g2".into() });
            }
            if round == 20 {
                requests
                    .push(Request::Create { name: "g1".into(), spec: GraphSpec::Cycle { n: 9 } });
            }
            if round % 10 == 5 {
                requests.push(Request::Stats);
                requests.push(Request::ListGraphs);
            }
        }
        let expected: Vec<Response> = requests.iter().map(|r| plain.execute(r.clone())).collect();
        let tickets: Vec<Ticket> = requests.iter().map(|r| sharded.submit(r.clone())).collect();
        let got: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();
        assert_eq!(got, expected);

        let mut total = EngineStats::default();
        for s in &sharded.shutdown() {
            total.merge(s);
        }
        assert_eq!(total.queries, plain.stats().queries);
        assert_eq!(total.cache_hits, plain.stats().cache_hits);
        assert_eq!(total.mutations, plain.stats().mutations);
        assert!(total.serve_nanos > 0, "workers must account busy time");
    }

    #[test]
    fn kernelized_shards_match_plain_engine() {
        // Kernelized shards: every response must still equal an
        // unkernelized, unsharded engine's, cached flags included.
        let cfg = EngineConfig { kernel: true, ..EngineConfig::default() };
        let mut sharded =
            ShardedEngine::with_options(3, ShardOptions { cfg, ..ShardOptions::default() });
        let mut plain = Engine::new();

        let mut requests: Vec<Request> = Vec::new();
        for i in 0..4usize {
            // Sparse connected graphs: rich stage-1 structure, so the
            // kernel path genuinely serves s-t reads.
            requests.push(Request::Create {
                name: format!("g{i}"),
                spec: GraphSpec::ConnectedGnm {
                    n: 18 + i,
                    m: 22 + i,
                    w_min: 1,
                    w_max: 8,
                    seed: i as u64,
                },
            });
        }
        for round in 0..30u64 {
            let (s, t) = ((round % 7) as u32, 17 - (round % 5) as u32);
            requests.push(Request::Query { name: "g0".into(), query: Query::ExactMinCut });
            requests.push(Request::Query { name: "g0".into(), query: Query::StCutWeight { s, t } });
            requests.push(Request::Query {
                name: "g0".into(),
                query: Query::ApproxMinCut { seed: round },
            });
            if round % 3 == 0 {
                requests.push(Request::Mutate {
                    name: "g0".into(),
                    op: Mutation::InsertEdge { u: 0, v: 2 + (round % 9) as u32, w: 1 + round },
                });
            }
            if round % 7 == 0 {
                requests.push(Request::Query {
                    name: format!("g{}", round % 4),
                    query: Query::StCutWeight { s: 1, t: 16 },
                });
            }
        }
        for req in requests {
            assert_eq!(sharded.execute(req.clone()), plain.execute(req));
        }

        let mut total = EngineStats::default();
        for s in &sharded.shutdown() {
            total.merge(s);
        }
        assert!(total.kernel_cut_serves > 0, "kernel path never served");
        assert!(total.index.kernel_builds > 0, "kernel never built");
        assert_eq!(total.queries, plain.stats().queries);
        assert_eq!(total.mutations, plain.stats().mutations);
    }

    #[test]
    fn try_wait_resolves_single_and_broadcast_tickets() {
        let mut e = ShardedEngine::new(3);
        create(&mut e, "ring", 10);
        let mut single =
            e.submit(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
        let mut broadcast = e.submit(Request::Stats);
        let spin = |t: &mut Ticket| loop {
            if let Some(r) = t.try_wait() {
                return r;
            }
            std::thread::yield_now();
        };
        assert!(matches!(spin(&mut single), Response::CutValue { weight: 2, .. }));
        let stats = spin(&mut broadcast);
        assert!(
            matches!(stats, Response::EngineStats { graphs: 1, queries: 1, .. }),
            "broadcast partials must merge through try_wait: {stats}"
        );
        e.shutdown();
    }

    /// Pull the merged metrics registry out of a live sharded engine.
    fn metrics_of(e: &mut ShardedEngine) -> cut_obs::Registry {
        match e.execute(Request::Metrics) {
            Response::Metrics { snapshot } => {
                cut_obs::Registry::from_wire(&snapshot).expect("well-formed metrics wire")
            }
            other => panic!("expected a metrics snapshot, got {other}"),
        }
    }

    #[test]
    fn merged_span_histograms_count_every_named_op() {
        let mut e = ShardedEngine::new(4);
        let mut named_ops = 0u64;
        for i in 0..6 {
            create(&mut e, &format!("g{i}"), 8);
            named_ops += 1;
        }
        for i in 0..30 {
            let name = format!("g{}", i % 6);
            let r = e.execute(Request::Query { name, query: Query::ExactMinCut });
            assert!(matches!(r, Response::CutValue { .. }), "got {r}");
            named_ops += 1;
        }
        // Broadcasts (including metrics itself) record no spans, so the
        // histogram totals stay exactly the named ops served.
        let _ = e.execute(Request::Stats);
        let _ = e.execute(Request::ListGraphs);
        let _ = metrics_of(&mut e);
        let reg = metrics_of(&mut e);
        for hist in ["request_queue_wait_nanos", "request_serve_nanos"] {
            let h = reg.histogram(hist).unwrap_or_else(|| panic!("missing histogram {hist}"));
            assert_eq!(h.count(), named_ops, "{hist} must count every named op exactly once");
        }
        // The engine counter families ride along, merged across shards.
        assert_eq!(reg.counter("engine_queries"), 30);
        assert_eq!(reg.counter("engine_graphs_created"), 6);
        e.shutdown();
    }

    #[test]
    fn deterministic_clock_spans_split_queue_wait_and_serve_exactly() {
        // A counting clock makes every stamp exact: for each span,
        // queue + serve == wall by construction, enqueue precedes
        // dequeue, and the slow log surfaces the spans.
        let clock = Arc::new(cut_obs::TestClock::new());
        let opts = ShardOptions { clock, slowlog_cap: 64, ..ShardOptions::default() };
        let mut e = ShardedEngine::with_options(2, opts);
        create(&mut e, "ring", 12);
        for _ in 0..5 {
            let r = e.execute(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
            assert!(matches!(r, Response::CutValue { weight: 2, .. }), "got {r}");
        }
        let log = match e.execute(Request::Slowlog) {
            Response::Slowlog { snapshot } => {
                SlowLog::from_wire(&snapshot).expect("well-formed slowlog wire")
            }
            other => panic!("expected a slowlog snapshot, got {other}"),
        };
        assert_eq!(log.entries().len(), 6, "create + 5 queries all rank in a cap-64 log");
        for span in log.entries() {
            assert!(span.enqueue <= span.dequeue, "submit stamps precede dequeue: {span:?}");
            assert!(span.dequeue <= span.end, "serve cannot end before it starts: {span:?}");
            assert_eq!(
                span.queue_nanos() + span.serve_nanos(),
                span.wall_nanos(),
                "queue wait + serve time must partition the wall span exactly: {span:?}"
            );
            assert_eq!(span.target, "ring");
        }
        e.shutdown();
    }

    #[test]
    fn dropped_tickets_count_as_abandoned() {
        let mut e = ShardedEngine::new(2);
        create(&mut e, "ring", 8);
        assert_eq!(e.abandoned_tickets(), 0, "waited tickets are not abandoned");
        // Fire-and-forget: the mutation still applies, the ticket drop
        // is counted.
        let ticket = e.submit(Request::Mutate {
            name: "ring".into(),
            op: Mutation::InsertEdge { u: 0, v: 4, w: 3 },
        });
        drop(ticket);
        assert_eq!(e.abandoned_tickets(), 1);
        // A ticket resolved through try_wait is spent, not abandoned.
        let mut ticket =
            e.submit(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
        loop {
            if ticket.try_wait().is_some() {
                break;
            }
            std::thread::yield_now();
        }
        drop(ticket);
        assert_eq!(e.abandoned_tickets(), 1);
        // A broadcast ticket abandons too, and the mutation above landed.
        drop(e.submit(Request::Stats));
        assert_eq!(e.abandoned_tickets(), 2);
        let r = e.execute(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
        assert!(matches!(r, Response::CutValue { .. }), "got {r}");
        e.shutdown();
    }
}
