//! The sharded front-end: the same `Request -> Response` contract as
//! [`Engine`], with the graph registry split across N shards by **static
//! hash placement** and every request served on the thread that calls it.
//!
//! [`ShardedEngine`] partitions the graph registry across `shards` shards
//! by the FNV-1a hash of the graph name ([`ShardedEngine::shard_of`]): a
//! name always routes to the same shard, for the life of the engine and
//! across restarts. Each shard is a lock around a private [`Engine`]
//! holding its graphs' edge lists, epoch counters and query caches, plus
//! the shard's span histograms and slow log. [`ShardedEngine::execute`]
//! takes `&self`: a named request locks its graph's shard and executes
//! there, so **per-graph execution order is lock order** — for one caller,
//! exactly its call order — while callers whose graphs live on different
//! shards run concurrently. Shards never exchange graph state.
//!
//! Cross-graph requests ([`Request::ListGraphs`], [`Request::Stats`],
//! [`Request::Metrics`], [`Request::Slowlog`]) lock every shard in index
//! order and merge the partial answers, so they observe exactly the
//! requests that held those locks before them. Net contract: for *any*
//! request stream from one caller and *any* shard count, the response
//! sequence matches the single-threaded engine's, and the stress
//! harness's deterministic log digest is unchanged.
//!
//! A request that panics inside a shard's engine is caught at the locked
//! execute: it answers [`Response::Error`], and the shard is dead from
//! then on. Every later request routed there, and every broadcast (which
//! needs every shard), answers an error too; the other shards keep
//! serving.
//!
//! ```
//! use cut_engine::{GraphSpec, Query, Request, Response, ShardedEngine};
//!
//! let engine = ShardedEngine::new(4);
//! let create = engine.execute(Request::Create {
//!     name: "ring".into(),
//!     spec: GraphSpec::Cycle { n: 12 },
//! });
//! assert!(matches!(create, Response::Created { .. }));
//! // `execute` takes `&self`: threads share one engine.
//! std::thread::scope(|s| {
//!     let cut = s.spawn(|| {
//!         engine.execute(Request::Query { name: "ring".into(), query: Query::ExactMinCut })
//!     });
//!     assert!(matches!(cut.join().unwrap(), Response::CutValue { weight: 2, .. }));
//! });
//! let per_shard = engine.stats();
//! assert_eq!(per_shard.iter().map(|s| s.queries).sum::<u64>(), 1);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use cut_obs::{span_flags, Clock, MonotonicClock, Registry, SlowLog, Span};

use crate::engine::{Engine, EngineConfig, EngineStats};
use crate::request::{Request, Response};
use crate::store_api::GraphStore;

/// How a [`ShardedEngine`]'s shards are configured.
#[derive(Clone)]
pub struct ShardOptions {
    /// Per-shard engine configuration.
    pub cfg: EngineConfig,
    /// Durability backend, shared by every shard. Each shard attaches it
    /// to its private [`Engine`] and adopts (as spilled, faulted in on
    /// first touch) the stored graphs that hash to it — the same function
    /// that routes requests, so recovery needs no history and works for
    /// any shard count.
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

/// The answer every request needing a dead shard gets.
fn shard_down(shard: usize) -> Response {
    Response::Error { message: format!("shard {shard} is down after a panic") }
}

fn unexpected_partial(got: Response) -> Response {
    Response::Error { message: format!("unexpected shard partial: {got}") }
}

/// The shard that owns `name`: stable FNV-1a over the name, modulo the
/// shard count. Platform- and run-independent, so routing and durable
/// adoption are reproducible.
fn default_shard(name: &str, shards: usize) -> usize {
    (cut_graph::hash::fnv1a(name.as_bytes()) % shards as u64) as usize
}

/// The sharded front-end over [`Engine`].
///
/// See the [module docs](self) for the routing and ordering contract. Use
/// [`ShardedEngine::new`] for defaults, [`ShardedEngine::with_config`] to
/// set the per-shard [`EngineConfig`], [`ShardedEngine::with_options`] for
/// durability and telemetry.
pub struct ShardedEngine {
    shards: Vec<Mutex<Shard>>,
    /// The telemetry clock, shared with every shard's engine: `execute`
    /// stamps each span's enqueue mark before taking the shard lock.
    clock: Arc<dyn Clock>,
}

impl ShardedEngine {
    /// An engine of `shards` shards with the default [`EngineConfig`].
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        Self::with_config(shards, EngineConfig::default())
    }

    /// An engine of `shards` shards, each owning an `Engine` built from
    /// `cfg`.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn with_config(shards: usize, cfg: EngineConfig) -> Self {
        Self::with_options(shards, ShardOptions { cfg, ..ShardOptions::default() })
    }

    /// An engine of `shards` shards with durability and telemetry
    /// configured — see [`ShardOptions`].
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn with_options(shards: usize, opts: ShardOptions) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        let shards = (0..shards)
            .map(|id| {
                let mut engine = Engine::with_config(opts.cfg.clone());
                engine.set_clock(Arc::clone(&opts.clock));
                if let Some(store) = &opts.store {
                    engine.attach_store(Arc::clone(store));
                    // Adopt this shard's slice of the durable graphs — the
                    // slice routing sends here, so recovery is portable
                    // across shard counts. Adopted graphs stay on disk
                    // until first touched.
                    for name in store.names() {
                        if default_shard(&name, shards) == id {
                            engine.adopt_stored(&name);
                        }
                    }
                }
                Mutex::new(Shard {
                    id,
                    engine,
                    registry: Registry::new(),
                    slowlog: SlowLog::new(opts.slowlog_cap),
                    dead: false,
                })
            })
            .collect();
        Self { shards, clock: opts.clock }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns graph `name`: the stable FNV-1a hash of the
    /// name, which never changes.
    pub fn shard_of(&self, name: &str) -> usize {
        default_shard(name, self.shards())
    }

    /// Serve one request on the calling thread — the drop-in for
    /// [`Engine::execute`].
    ///
    /// A request that names a graph locks that graph's shard
    /// ([`ShardedEngine::shard_of`]); `ListGraphs`, `Stats`, `Metrics` and
    /// `Slowlog` lock every shard in index order and merge the partials.
    pub fn execute(&self, request: Request) -> Response {
        self.execute_with(request, || ()).1
    }

    /// [`ShardedEngine::execute`], running `locked` once the request holds
    /// its shard lock (every shard lock, for a broadcast) and before it
    /// executes. Whatever `locked` draws is therefore ordered like the
    /// executions on each shard: the server takes its operation-log
    /// sequence numbers here.
    pub fn execute_with<T>(&self, request: Request, locked: impl FnOnce() -> T) -> (T, Response) {
        // Exhaustive: a new Request variant must declare here whether it
        // routes by graph name or broadcasts (and how its partials merge).
        let name = match &request {
            Request::Create { name, .. }
            | Request::Drop { name }
            | Request::Mutate { name, .. }
            | Request::Query { name, .. } => name.clone(),
            Request::ListGraphs | Request::Stats | Request::Metrics | Request::Slowlog => {
                let mut shards: Vec<_> = (0..self.shards()).map(|s| self.lock(s)).collect();
                let stamp = locked();
                let response = match shards.iter().find(|s| s.dead) {
                    Some(dead) => shard_down(dead.id),
                    None => merge(&request, &mut shards),
                };
                return (stamp, response);
            }
        };
        let enqueue = self.clock.now();
        let mut shard = self.lock(self.shard_of(&name));
        let stamp = locked();
        let response = shard.serve(request, name, enqueue, &*self.clock);
        (stamp, response)
    }

    /// Each shard's [`EngineStats`] (index = shard id), read under its
    /// lock. A dead shard reports its counters as they stood when its
    /// request panicked.
    pub fn stats(&self) -> Vec<EngineStats> {
        (0..self.shards()).map(|s| self.lock(s).engine.stats()).collect()
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard> {
        // The engine call is the only code under a shard lock that can
        // panic on input, and `Shard::serve` catches it.
        self.shards[shard].lock().expect("shard lock poisoned: a panic escaped Shard::serve")
    }
}

/// One shard: a private engine plus the telemetry of the requests it
/// served, behind the shard's lock.
struct Shard {
    id: usize,
    engine: Engine,
    /// Shard-local telemetry: queue-wait and serve-time histograms (one
    /// observation per named request served here), merged across shards
    /// at a `stats metrics` broadcast.
    registry: Registry,
    /// Worst-N spans served by this shard, merged at `stats slowlog`.
    slowlog: SlowLog,
    /// Set when a request panicked inside `engine`, which may have left
    /// its state half-updated: the shard serves nothing after that.
    dead: bool,
}

impl Shard {
    /// Execute one named request and record its span. `enqueue` was
    /// stamped before the caller took this shard's lock, so the span's
    /// queue wait is the wait for the lock.
    fn serve(
        &mut self,
        request: Request,
        target: String,
        enqueue: u64,
        clock: &dyn Clock,
    ) -> Response {
        let dequeue = clock.now();
        if self.dead {
            return shard_down(self.id);
        }
        let kind = request.kind();
        let engine = &mut self.engine;
        let Ok(response) = catch_unwind(AssertUnwindSafe(|| engine.execute(request))) else {
            self.dead = true;
            return shard_down(self.id);
        };
        let end = clock.now();
        let delta = self.engine.obs_mut().take_delta();
        let mut flags = 0;
        if delta.fault_ins > 0 {
            flags |= span_flags::FAULT_IN;
        }
        if delta.spills > 0 {
            flags |= span_flags::SPILL;
        }
        let span = Span {
            kind: kind.to_string(),
            target,
            shard: self.id as u64,
            enqueue,
            dequeue,
            end,
            index_nanos: delta.index_nanos,
            store_nanos: delta.store_nanos,
            flags,
        };
        self.registry.observe("request_queue_wait_nanos", span.queue_nanos());
        self.registry.observe("request_serve_nanos", span.serve_nanos());
        self.slowlog.record(span);
        response
    }

    /// This shard's `stats metrics` partial: span histograms merged with
    /// the engine's counter families (and, on shard 0 only, the shared
    /// store's `store_` families, so a store shared by every shard is
    /// counted once, not `shards` times).
    fn metrics_snapshot(&self) -> Registry {
        let mut reg = self.registry.clone();
        reg.merge(&self.engine.metrics_registry());
        if self.id == 0 {
            reg.merge(&self.engine.store_metrics());
        }
        reg
    }
}

/// Answer a broadcast from every (live, locked) shard: the answer an
/// unsharded engine would give. Broadcasts record no spans, which keeps
/// each span histogram's count equal to the named requests served.
fn merge(request: &Request, shards: &mut [MutexGuard<'_, Shard>]) -> Response {
    match request {
        Request::ListGraphs => {
            let mut names = Vec::new();
            for shard in shards {
                match shard.engine.execute(Request::ListGraphs) {
                    Response::Graphs { names: part } => names.extend(part),
                    other => return unexpected_partial(other),
                }
            }
            // Each shard's list is sorted; the global contract is one
            // sorted list. Dedup guards the durable-adoption edge: a name
            // must never be double-reported even if two shards track it.
            names.sort_unstable();
            names.dedup();
            Response::Graphs { names }
        }
        Request::Stats => {
            let (mut graphs, mut queries, mut hits, mut misses, mut mutations) = (0, 0, 0, 0, 0);
            for shard in shards {
                match shard.engine.execute(Request::Stats) {
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
        Request::Metrics => {
            // Registries merge by the same explicit addition `EngineStats`
            // uses, so the merged answer equals what one engine serving
            // the whole stream would report.
            let mut merged = Registry::new();
            for shard in shards.iter() {
                merged.merge(&shard.metrics_snapshot());
            }
            Response::Metrics { snapshot: merged.to_wire() }
        }
        Request::Slowlog => {
            // Worst-N across all shards: the globally slowest spans under
            // the largest capacity.
            let mut merged = SlowLog::new(0);
            for shard in shards.iter() {
                merged.merge(&shard.slowlog);
            }
            Response::Slowlog { snapshot: merged.to_wire() }
        }
        Request::Create { .. }
        | Request::Drop { .. }
        | Request::Mutate { .. }
        | Request::Query { .. } => {
            unreachable!("named requests never broadcast")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{GraphSpec, Mutation, Query};

    fn create(engine: &ShardedEngine, name: &str, n: usize) {
        let r = engine.execute(Request::Create { name: name.into(), spec: GraphSpec::Cycle { n } });
        assert!(matches!(r, Response::Created { .. }), "create failed: {r}");
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
        let e = ShardedEngine::new(3);
        create(&e, "ring", 10);
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
        let per_shard = e.stats();
        let busy: Vec<usize> = (0..3).filter(|&s| per_shard[s] != EngineStats::default()).collect();
        assert_eq!(busy, vec![shard]);
    }

    #[test]
    fn list_and_stats_merge_across_shards() {
        let e = ShardedEngine::new(4);
        for name in ["delta", "alpha", "charlie", "bravo"] {
            create(&e, name, 6);
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
        let sharded = ShardedEngine::new(4);
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
    fn cross_graph_runs_stop_at_mutation_barriers() {
        // Mutations interleaved in a stream of reads that alternate
        // between two graphs: the stream must answer identically to the
        // plain engine at 1 and 4 shards, and the mutated graph's epoch
        // must observe every insert in call order.
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
            let e = ShardedEngine::new(shards);
            let got: Vec<Response> = requests.iter().map(|r| e.execute(r.clone())).collect();
            assert_eq!(got, expected, "diverged at shards={shards}");
            let mut total = EngineStats::default();
            for s in e.stats() {
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
        let e = ShardedEngine::new(2);
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
        for s in e.stats() {
            total.merge(&s);
        }
        assert_eq!(total.cut_recomputes, 2, "one real compute per graph");
        assert_eq!(total.cut_certified_skips, 2, "one carry per graph");
        assert_eq!(total.index.csr_builds, 2, "the carries build no CSR");
    }

    #[test]
    fn single_shard_matches_engine_exactly() {
        let sharded = ShardedEngine::new(1);
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
        // and broadcasts: every response must equal the unsharded
        // engine's, and the per-shard counters must sum to its counters.
        let sharded = ShardedEngine::new(3);
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
        let got: Vec<Response> = requests.iter().map(|r| sharded.execute(r.clone())).collect();
        assert_eq!(got, expected);

        let mut total = EngineStats::default();
        for s in &sharded.stats() {
            total.merge(s);
        }
        assert_eq!(total.queries, plain.stats().queries);
        assert_eq!(total.cache_hits, plain.stats().cache_hits);
        assert_eq!(total.mutations, plain.stats().mutations);
    }

    #[test]
    fn kernelized_shards_match_plain_engine() {
        // Kernelized shards: every response must still equal an
        // unkernelized, unsharded engine's, cached flags included.
        let cfg = EngineConfig { kernel: true, ..EngineConfig::default() };
        let sharded =
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
        for s in &sharded.stats() {
            total.merge(s);
        }
        assert!(total.kernel_cut_serves > 0, "kernel path never served");
        assert!(total.index.kernel_builds > 0, "kernel never built");
        assert_eq!(total.queries, plain.stats().queries);
        assert_eq!(total.mutations, plain.stats().mutations);
    }

    /// Pull the merged metrics registry out of a live sharded engine.
    fn metrics_of(e: &ShardedEngine) -> cut_obs::Registry {
        match e.execute(Request::Metrics) {
            Response::Metrics { snapshot } => {
                cut_obs::Registry::from_wire(&snapshot).expect("well-formed metrics wire")
            }
            other => panic!("expected a metrics snapshot, got {other}"),
        }
    }

    #[test]
    fn merged_span_histograms_count_every_named_op() {
        let e = ShardedEngine::new(4);
        let mut named_ops = 0u64;
        for i in 0..6 {
            create(&e, &format!("g{i}"), 8);
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
        let _ = metrics_of(&e);
        let reg = metrics_of(&e);
        for hist in ["request_queue_wait_nanos", "request_serve_nanos"] {
            let h = reg.histogram(hist).unwrap_or_else(|| panic!("missing histogram {hist}"));
            assert_eq!(h.count(), named_ops, "{hist} must count every named op exactly once");
        }
        // The engine counter families ride along, merged across shards.
        assert_eq!(reg.counter("engine_queries"), 30);
        assert_eq!(reg.counter("engine_graphs_created"), 6);
    }

    #[test]
    fn deterministic_clock_spans_split_queue_wait_and_serve_exactly() {
        // A counting clock makes every stamp exact: for each span,
        // queue + serve == wall by construction, enqueue precedes
        // dequeue, and the slow log surfaces the spans.
        let clock = Arc::new(cut_obs::TestClock::new());
        let opts = ShardOptions { clock, slowlog_cap: 64, ..ShardOptions::default() };
        let e = ShardedEngine::with_options(2, opts);
        create(&e, "ring", 12);
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
            assert!(span.enqueue <= span.dequeue, "enqueue stamps precede dequeue: {span:?}");
            assert!(span.dequeue <= span.end, "serve cannot end before it starts: {span:?}");
            assert_eq!(
                span.queue_nanos() + span.serve_nanos(),
                span.wall_nanos(),
                "queue wait + serve time must partition the wall span exactly: {span:?}"
            );
            assert_eq!(span.target, "ring");
        }
    }
}
