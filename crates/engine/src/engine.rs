//! The multi-graph cut-query engine.
//!
//! [`Engine`] owns a registry of named graphs, applies mutations, answers
//! queries, and caches query answers keyed by `(query, mutation epoch)`:
//! a repeated query against an unchanged graph is a hash lookup, any
//! mutation bumps the graph's epoch and implicitly invalidates every
//! cached answer for it.
//!
//! Under the cache sits the **index layer** (`cut_index`): each registry
//! entry carries a [`GraphIndex`] holding a vertex-pair table that every
//! mutation keeps current, the pair graph and the CSR snapshot built from
//! it and from the edge list (each at most once per mutation, shared by
//! every read in between, freed by the next mutation), and a fully dynamic
//! spanning forest that answers `Connectivity` in O(1) without BFS or
//! rebuilds (deletes and contractions included) and certifies when the
//! vertex partition last changed. The query cache itself is a real LRU
//! ([`cut_index::LruCache`]) bounded by [`EngineConfig::max_cache_entries`].
//!
//! A cut query reads the pair graph when its answer depends on each
//! vertex pair only through the pair's summed weight, and the CSR only
//! when its algorithm ranks every parallel edge (see `compute_query`).
//!
//! Everything is deterministic: queries that involve randomness carry
//! their seed in the query value itself, so an identical request sequence
//! yields an identical response sequence — the substrate for replayable
//! workloads and the stress harness's byte-identical logs. The index layer
//! never changes a response, only what producing it costs;
//! [`EngineStats`] counts the work it absorbed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cut_graph::{stoer_wagner, CutResult, Edge, Graph};
use cut_index::{GraphIndex, IndexStats, LruCache};
use cut_obs::{Clock, Registry};
use mincut_core::{
    approx_min_cut, apx_split, fold_priorities, KCutOptions, MinCutOptions, SingletonEngine,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::request::{
    decode_name, encode_name, validate_edge, GraphSpec, Mutation, Query, Request, Response,
    MAX_PREALLOC, QUERY_KINDS,
};
use crate::store_api::GraphStore;

/// Tunables shared by every query the engine serves.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// ε for `(2+ε)`-approximate min-cut queries.
    pub epsilon: f64,
    /// Base-case size for the recursive contraction.
    pub base_size: usize,
    /// Top-level repetitions for approximate min cut (0 ⇒ `⌈log₂ n⌉`).
    pub repetitions: usize,
    /// Components at most this large are k-cut exactly.
    pub exact_below: usize,
    /// Per-graph query cache capacity (LRU: the coldest entry is evicted
    /// at capacity, so hot queries survive under seed-heavy workloads).
    pub max_cache_entries: usize,
    /// Resident-graph budget: with an attached store, at most this many
    /// graphs are kept in memory; the coldest (by windowed request-cost
    /// heat, see [`Request::cost_weight`]) are spilled to the store and
    /// faulted back on access. `0` = unlimited
    /// (no spilling). Ignored without a store.
    pub resident_cap: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.5,
            base_size: 32,
            repetitions: 2,
            exact_below: 48,
            max_cache_entries: 4096,
            resident_cap: 0,
        }
    }
}

/// The largest total edge weight a graph may have for cut queries. Every
/// cut sum is at most the total, and two of them need it to fit in `i64`:
/// Algorithm 3's stabbing sweep sums weights as `i64`
/// (`mincut_core::intervals`), and Dinic's reverse arcs grow by the flow
/// pushed, up to twice a pair's weight (`cut_graph::maxflow`).
const MAX_CUT_TOTAL: u128 = i64::MAX as u128;

/// Named ops between residency-heat half-life decays: heat charged in one
/// window counts half in the next, so the spiller ranks graphs by recent
/// traffic.
const RESIDENCY_WINDOW: u64 = 512;

/// Engine-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries served (hits + misses).
    pub queries: u64,
    /// Queries answered from the epoch cache.
    pub cache_hits: u64,
    /// Queries that had to compute.
    pub cache_misses: u64,
    /// Mutations applied.
    pub mutations: u64,
    /// Graphs ever created.
    pub graphs_created: u64,
    /// Graphs dropped.
    pub graphs_dropped: u64,
    /// Index-layer counters (pair-graph and CSR builds/reuses, LRU
    /// evictions), aggregated across all graphs ever registered.
    pub index: IndexStats,
    /// Pair-graph and CSR snapshot builds per query kind (indexed by
    /// [`Query::kind_index`]).
    pub builds_by_kind: [u64; QUERY_KINDS.len()],
    /// Pair-graph and CSR snapshot reuses — builds avoided — per query
    /// kind (indexed by [`Query::kind_index`]).
    pub reuse_by_kind: [u64; QUERY_KINDS.len()],
    /// Gated cut queries (exact/approx min cut, st-cut weight) that
    /// actually ran their algorithm — the expensive outcome the
    /// certificate gate exists to avoid.
    pub cut_recomputes: u64,
    /// Gated cut queries answered by carrying a stale cached answer whose
    /// certificate (vertex partition unchanged since it was computed, and
    /// the answer a pure function of that partition) proved no mutation
    /// could have changed it. Counted *alongside* `cache_misses` — the
    /// carry mimics a recompute byte-for-byte, it just skips the work.
    pub cut_certified_skips: u64,
}

impl EngineStats {
    /// Cache hit rate in `[0, 1]` (0 when no queries ran).
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Fold another engine's counters into this one — how per-shard stats
    /// aggregate into a fleet-wide view. The exhaustive destructuring
    /// makes adding a field here a compile error until it merges too.
    pub fn merge(&mut self, other: &EngineStats) {
        let EngineStats {
            queries,
            cache_hits,
            cache_misses,
            mutations,
            graphs_created,
            graphs_dropped,
            index,
            builds_by_kind,
            reuse_by_kind,
            cut_recomputes,
            cut_certified_skips,
        } = *other;
        self.queries += queries;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.mutations += mutations;
        self.graphs_created += graphs_created;
        self.graphs_dropped += graphs_dropped;
        self.index.merge(&index);
        for (mine, theirs) in self.builds_by_kind.iter_mut().zip(builds_by_kind) {
            *mine += theirs;
        }
        for (mine, theirs) in self.reuse_by_kind.iter_mut().zip(reuse_by_kind) {
            *mine += theirs;
        }
        self.cut_recomputes += cut_recomputes;
        self.cut_certified_skips += cut_certified_skips;
    }

    /// Export every counter onto a telemetry [`Registry`] under the
    /// `engine_` prefix — the registry is the single exposition point for
    /// these numbers (`stats metrics`, `--metrics-out`, `render_text`),
    /// while this struct remains the zero-allocation merge vehicle the
    /// shard barrier already uses. The exhaustive destructuring makes a
    /// new field here a compile error until it is exported too.
    pub fn export_registry(&self, reg: &mut Registry) {
        let EngineStats {
            queries,
            cache_hits,
            cache_misses,
            mutations,
            graphs_created,
            graphs_dropped,
            index,
            builds_by_kind,
            reuse_by_kind,
            cut_recomputes,
            cut_certified_skips,
        } = *self;
        reg.inc("engine_queries", queries);
        reg.inc("engine_cache_hits", cache_hits);
        reg.inc("engine_cache_misses", cache_misses);
        reg.inc("engine_mutations", mutations);
        reg.inc("engine_graphs_created", graphs_created);
        reg.inc("engine_graphs_dropped", graphs_dropped);
        reg.inc("engine_csr_builds", index.csr_builds);
        reg.inc("engine_csr_reuses", index.csr_reuses);
        reg.inc("engine_lru_evictions", index.lru_evictions);
        for (kind, (builds, reuses)) in
            QUERY_KINDS.iter().zip(builds_by_kind.iter().zip(reuse_by_kind.iter()))
        {
            reg.inc(&format!("engine_csr_builds_{kind}"), *builds);
            reg.inc(&format!("engine_csr_reuses_{kind}"), *reuses);
        }
        reg.inc("engine_cut_recomputes", cut_recomputes);
        reg.inc("engine_cut_certified_skips", cut_certified_skips);
    }
}

/// Per-request serve-time attribution drained by the sharded front-end
/// after each execute: where inside the serve window the time went, plus
/// spill/fault-in events the request triggered.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ObsDelta {
    /// Nanoseconds spent building pair graphs and CSR snapshots.
    pub index_nanos: u64,
    /// Nanoseconds spent appending to / snapshotting the store.
    pub store_nanos: u64,
    /// Graphs spilled to the store while serving.
    pub spills: u64,
    /// Graphs faulted in from the store while serving.
    pub fault_ins: u64,
}

/// The engine's telemetry scratch: an optional [`Clock`] (timing is off —
/// and costs nothing — until one is attached) plus serve-time attribution
/// split into the *current request's* delta and engine-lifetime totals.
/// Purely an observer: nothing here ever feeds back into execution, which
/// is what keeps responses byte-identical with telemetry on or off.
#[derive(Debug, Default)]
pub(crate) struct ObsScratch {
    clock: Option<Arc<dyn Clock>>,
    delta: ObsDelta,
    total: ObsDelta,
}

impl ObsScratch {
    /// Current clock reading, if a clock is attached.
    fn now(&self) -> Option<u64> {
        self.clock.as_ref().map(|c| c.now())
    }

    /// Charge elapsed time since `t0` to the index-build bucket.
    fn charge_index(&mut self, t0: Option<u64>) {
        if let (Some(t0), Some(clock)) = (t0, self.clock.as_ref()) {
            self.delta.index_nanos += clock.now().saturating_sub(t0);
        }
    }

    /// Charge elapsed time since `t0` to the store-append bucket.
    fn charge_store(&mut self, t0: Option<u64>) {
        if let (Some(t0), Some(clock)) = (t0, self.clock.as_ref()) {
            self.delta.store_nanos += clock.now().saturating_sub(t0);
        }
    }

    /// Take the current request's attribution, folding it into the
    /// lifetime totals.
    pub(crate) fn take_delta(&mut self) -> ObsDelta {
        let d = self.delta;
        self.total.index_nanos += d.index_nanos;
        self.total.store_nanos += d.store_nanos;
        self.total.spills += d.spills;
        self.total.fault_ins += d.fault_ins;
        self.delta = ObsDelta::default();
        d
    }

    /// Lifetime totals including any not-yet-taken delta.
    fn lifetime(&self) -> ObsDelta {
        ObsDelta {
            index_nanos: self.total.index_nanos + self.delta.index_nanos,
            store_nanos: self.total.store_nanos + self.delta.store_nanos,
            spills: self.total.spills + self.delta.spills,
            fault_ins: self.total.fault_ins + self.delta.fault_ins,
        }
    }
}

/// One registered graph: its mutable edge list, the incremental index
/// (pair table, pair graph, CSR snapshot, dynamic forest), the mutation
/// epoch, and the per-epoch LRU query cache.
struct GraphEntry {
    n: usize,
    /// Holds no self-loops: every path in validates its edges first.
    edges: Vec<Edge>,
    /// The index layer: pair table, pair graph, CSR snapshot and dynamic
    /// forest. Its generation advances in lockstep with `epoch` (one bump
    /// per successful mutation).
    index: GraphIndex,
    /// Bumped by every successful mutation.
    epoch: u64,
    /// `query -> (epoch_at_answer, answer)`; an entry is live only while
    /// its epoch matches the graph's. LRU-bounded.
    cache: LruCache<Query, (u64, Response)>,
}

impl GraphEntry {
    fn new(n: usize, edges: Vec<Edge>, cache_capacity: usize) -> Self {
        let index = GraphIndex::new(n, &edges);
        Self { n, edges, index, epoch: 0, cache: LruCache::new(cache_capacity.max(1)) }
    }

    fn touch(&mut self) {
        self.epoch += 1;
        debug_assert_eq!(
            self.epoch,
            self.index.generation(),
            "index generation must advance in lockstep with the epoch"
        );
    }
}

/// The long-lived, multi-graph cut-query engine.
///
/// ```
/// use cut_engine::{Engine, GraphSpec, Query, Request, Response};
///
/// let mut engine = Engine::new();
/// engine.execute(Request::Create {
///     name: "ring".into(),
///     spec: GraphSpec::Cycle { n: 12 },
/// });
/// let r = engine.execute(Request::Query {
///     name: "ring".into(),
///     query: Query::ExactMinCut,
/// });
/// assert!(matches!(r, Response::CutValue { weight: 2, .. }));
/// ```
pub struct Engine {
    cfg: EngineConfig,
    /// `BTreeMap` so `ListGraphs` (and iteration anywhere) is ordered and
    /// deterministic.
    graphs: BTreeMap<String, GraphEntry>,
    stats: EngineStats,
    /// Durability backend, when attached: every applied named request is
    /// write-ahead logged here before its response is released, and cold
    /// graphs spill here under [`EngineConfig::resident_cap`].
    store: Option<Arc<dyn GraphStore>>,
    /// Graphs this engine owns but has spilled to the store (or adopted
    /// from it at startup without faulting in). Disjoint from `graphs`;
    /// `ListGraphs`/`Stats` report the union, so spilling is invisible to
    /// clients.
    spilled: BTreeSet<String>,
    /// Windowed residency heat per resident graph (request cost-weights,
    /// halved every [`RESIDENCY_WINDOW`] named ops) — the eviction signal
    /// under a resident cap.
    heat: BTreeMap<String, u64>,
    /// Named ops since the engine started (drives the heat half-life).
    heat_ops: u64,
    /// Telemetry scratch: optional clock plus serve-time attribution
    /// (index-build vs store-append) and spill/fault-in event counts.
    obs: ObsScratch,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Engine with default configuration.
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// Engine with explicit configuration.
    pub fn with_config(cfg: EngineConfig) -> Self {
        Self {
            cfg,
            graphs: BTreeMap::new(),
            stats: EngineStats::default(),
            store: None,
            spilled: BTreeSet::new(),
            heat: BTreeMap::new(),
            heat_ops: 0,
            obs: ObsScratch::default(),
        }
    }

    /// Attach a telemetry clock. Until one is attached the engine never
    /// reads time (attribution stays zero); with one attached it stamps
    /// index builds and store appends but never lets a reading influence
    /// a response — telemetry on/off is behaviourally invisible.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.obs.clock = Some(clock);
    }

    /// The telemetry scratch, for the sharded front-end's shards to
    /// drain per-request attribution from.
    pub(crate) fn obs_mut(&mut self) -> &mut ObsScratch {
        &mut self.obs
    }

    /// Engine-local counters as a telemetry registry: every
    /// [`EngineStats`] field under `engine_`, residency gauges, and the
    /// engine-lifetime serve-time attribution. Store-level families are
    /// deliberately *not* included — the store is shared across shards,
    /// so exactly one exporter must own them (see
    /// [`Engine::store_metrics`]).
    pub fn metrics_registry(&self) -> Registry {
        let mut reg = Registry::new();
        self.stats.export_registry(&mut reg);
        reg.set_gauge("engine_graphs_resident", self.graphs.len() as u64);
        reg.set_gauge("engine_graphs_spilled", self.spilled.len() as u64);
        let life = self.obs.lifetime();
        reg.inc("engine_index_build_nanos", life.index_nanos);
        reg.inc("engine_store_append_nanos", life.store_nanos);
        reg.inc("engine_spill_events", life.spills);
        reg.inc("engine_fault_in_events", life.fault_ins);
        reg
    }

    /// The attached store's counter families under `store_` (recovery
    /// tallies, WAL appends, compactions, ...), or an empty registry
    /// without a store. Merged by exactly one shard per snapshot so a
    /// shared store is not multiply counted.
    pub fn store_metrics(&self) -> Registry {
        let mut reg = Registry::new();
        if let Some(store) = &self.store {
            for (name, value) in store.telemetry() {
                reg.inc(&format!("store_{name}"), value);
            }
        }
        reg
    }

    /// Attach a durability backend. From here on, every applied named
    /// request is logged to `store` before its response is released, and
    /// graphs absent from the registry are faulted in from the store on
    /// access. Attaching adopts nothing by itself — call
    /// [`Engine::adopt_stored`] for each durable graph this engine should
    /// own (recovery is lazy: adopted graphs fault in on first touch).
    pub fn attach_store(&mut self, store: Arc<dyn GraphStore>) {
        self.store = Some(store);
    }

    /// Mark a durable graph as owned-but-not-resident: it shows up in
    /// `ListGraphs`/`Stats` immediately and faults in from the store on
    /// first access. No-op if the graph is already resident.
    pub fn adopt_stored(&mut self, name: &str) {
        if !self.graphs.contains_key(name) {
            self.spilled.insert(name.to_string());
        }
    }

    /// Engine-level counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of registered graphs.
    pub fn graph_count(&self) -> usize {
        self.graphs.len()
    }

    /// Current mutation epoch of a graph.
    pub fn epoch(&self, name: &str) -> Option<u64> {
        self.graphs.get(name).map(|e| e.epoch)
    }

    /// A snapshot of a registered graph (CSR built if needed — a build
    /// here counts in [`EngineStats`] like any other, so `csr_reuses`
    /// never references a construction the counters missed).
    pub fn snapshot(&mut self, name: &str) -> Option<Graph> {
        let stats = &mut self.stats;
        self.graphs.get_mut(name).map(|e| {
            let (g, built) = e.index.snapshot(e.n, &e.edges);
            if built {
                stats.index.csr_builds += 1;
            }
            g.clone()
        })
    }

    /// Execute one request. Never panics on bad input: failures come back
    /// as [`Response::Error`] and leave the engine unchanged.
    ///
    /// # Examples
    ///
    /// ```
    /// use cut_engine::{Engine, GraphSpec, Mutation, Query, Request, Response};
    ///
    /// let mut engine = Engine::new();
    /// engine.execute(Request::Create {
    ///     name: "path".into(),
    ///     spec: GraphSpec::Edges { n: 3, edges: vec![(0, 1, 4), (1, 2, 7)] },
    /// });
    ///
    /// // A path's min cut is its lightest edge.
    /// let r = engine.execute(Request::Query { name: "path".into(), query: Query::ExactMinCut });
    /// assert!(matches!(r, Response::CutValue { weight: 4, .. }));
    ///
    /// // Failures are responses, not panics, and leave the engine unchanged.
    /// let r = engine.execute(Request::Mutate {
    ///     name: "path".into(),
    ///     op: Mutation::InsertEdge { u: 0, v: 0, w: 1 },
    /// });
    /// assert!(matches!(r, Response::Error { .. }));
    /// assert_eq!(engine.epoch("path"), Some(0));
    /// ```
    pub fn execute(&mut self, request: Request) -> Response {
        let name = match &request {
            Request::ListGraphs => {
                // Spilled graphs are still owned: list the union, sorted.
                let mut names: Vec<String> = self.graphs.keys().cloned().collect();
                names.extend(self.spilled.iter().cloned());
                names.sort_unstable();
                return Response::Graphs { names };
            }
            Request::Stats => {
                return Response::EngineStats {
                    graphs: self.graphs.len() + self.spilled.len(),
                    queries: self.stats.queries,
                    cache_hits: self.stats.cache_hits,
                    cache_misses: self.stats.cache_misses,
                    mutations: self.stats.mutations,
                }
            }
            Request::Metrics => {
                // The plain engine's metrics view: its own counters plus
                // the store families (no sharded front-end means no other
                // exporter can double count them). Queue/serve histograms
                // live in the sharded front-end's shards and merge in
                // above this level.
                let mut reg = self.metrics_registry();
                reg.merge(&self.store_metrics());
                return Response::Metrics { snapshot: reg.to_wire() };
            }
            Request::Slowlog => {
                // Spans are recorded by the sharded front-end's shards;
                // a bare engine has no shard lock to wait for and records
                // none.
                return Response::Slowlog { snapshot: cut_obs::SlowLog::new(0).to_wire() };
            }
            Request::Create { name, .. }
            | Request::Drop { name }
            | Request::Mutate { name, .. }
            | Request::Query { name, .. } => name.clone(),
        };
        self.ensure_resident(&name);
        let response = self.dispatch_named(&request);
        if let Some(store) = self.store.clone() {
            let t0 = self.obs.now();
            if matches!(response, Response::Dropped { .. }) {
                store.drop_graph(&name, &request, &response);
                self.spilled.remove(&name);
                self.heat.remove(&name);
            } else if self.graphs.contains_key(&name) {
                // Log iff the graph is live after execution: error queries
                // against a live graph mutate cache state (stale-entry
                // removal) and must replay, while failed ops on absent
                // graphs must never conjure durable state.
                store.log(&name, &request, &response);
                if store.wants_snapshot(&name) {
                    let entry = self.graphs.get(&name).expect("checked resident above");
                    store.snapshot(&name, &entry_to_trace(&name, entry));
                }
            }
            self.obs.charge_store(t0);
        }
        if self.graphs.contains_key(&name) {
            self.charge_heat(&name, request.cost_weight());
            self.enforce_resident_cap(&name);
        }
        response
    }

    /// Dispatch one named request (broadcasts are handled in
    /// [`Engine::execute`]). Shared by live execution and WAL replay —
    /// replay goes through the exact machinery that produced the logged
    /// responses, so recovered state (epochs, caches, recency) matches
    /// the pre-crash engine bit for bit.
    fn dispatch_named(&mut self, request: &Request) -> Response {
        match request {
            Request::Create { name, spec } => self.create(name.clone(), spec),
            Request::Drop { name } => self.drop_graph(name),
            Request::Mutate { name, op } => self.mutate(name, *op),
            Request::Query { name, query } => self.query(name, *query),
            Request::ListGraphs | Request::Stats | Request::Metrics | Request::Slowlog => {
                unreachable!("broadcasts never reach the named dispatch")
            }
        }
    }

    /// Fault `name` in from the store if it is not resident: install the
    /// latest snapshot, then replay the WAL records past its watermark
    /// through normal dispatch (without re-logging them). No-op when the
    /// graph is resident, no store is attached, or the store has nothing.
    fn ensure_resident(&mut self, name: &str) {
        if self.graphs.contains_key(name) {
            return;
        }
        let Some(store) = self.store.clone() else { return };
        if !self.spilled.contains(name) && !store.contains(name) {
            return;
        }
        if let Some(recovered) = store.load(name) {
            self.obs.delta.fault_ins += 1;
            if let Some(snapshot) = &recovered.snapshot {
                match GraphExport::from_trace(snapshot, self.cfg.max_cache_entries) {
                    Ok(export) => {
                        let GraphExport { name, entry } = export;
                        self.graphs.insert(name, entry);
                    }
                    Err(e) => debug_assert!(false, "invalid snapshot for '{name}': {e}"),
                }
            }
            for line in &recovered.wal {
                match Request::from_trace_line(line) {
                    Ok(request) => {
                        let _ = self.dispatch_named(&request);
                    }
                    Err(e) => debug_assert!(false, "invalid WAL record for '{name}': {e}"),
                }
            }
        }
        self.spilled.remove(name);
    }

    /// Charge `weight` to `name`'s residency heat, halving every graph's
    /// heat each [`RESIDENCY_WINDOW`] named ops so old traffic decays.
    fn charge_heat(&mut self, name: &str, weight: u64) {
        if self.cfg.resident_cap == 0 || self.store.is_none() {
            return;
        }
        *self.heat.entry(name.to_string()).or_insert(0) += weight;
        self.heat_ops += 1;
        if self.heat_ops.is_multiple_of(RESIDENCY_WINDOW) {
            for v in self.heat.values_mut() {
                *v /= 2;
            }
        }
    }

    /// Spill coldest-first until the resident set fits the cap again,
    /// never evicting `keep` (the graph the current request touched).
    fn enforce_resident_cap(&mut self, keep: &str) {
        if self.cfg.resident_cap == 0 || self.store.is_none() {
            return;
        }
        while self.graphs.len() > self.cfg.resident_cap {
            // BTreeMap iterates in name order and `min_by_key` keeps the
            // first minimum, so ties break by name — deterministic.
            let victim = self
                .graphs
                .keys()
                .filter(|k| k.as_str() != keep)
                .min_by_key(|k| self.heat.get(*k).copied().unwrap_or(0))
                .cloned();
            let Some(victim) = victim else { return };
            self.spill_graph(&victim);
        }
    }

    /// Evict `name` to the store: serialize the whole entry (edges,
    /// epoch, warmed cache) and drop it from the registry. The spilled
    /// marker keeps the graph visible to `ListGraphs`/`Stats`.
    fn spill_graph(&mut self, name: &str) {
        let Some(store) = self.store.clone() else { return };
        let Some(entry) = self.graphs.remove(name) else { return };
        store.spill(name, &entry_to_trace(name, &entry));
        self.obs.delta.spills += 1;
        self.spilled.insert(name.to_string());
        self.heat.remove(name);
    }

    fn create(&mut self, name: String, spec: &GraphSpec) -> Response {
        if self.graphs.contains_key(&name) {
            return Response::Error { message: format!("graph '{name}' already exists") };
        }
        match spec.materialize() {
            Ok((n, edges)) => {
                let m = edges.len();
                let entry = GraphEntry::new(n, edges, self.cfg.max_cache_entries);
                self.graphs.insert(name.clone(), entry);
                self.stats.graphs_created += 1;
                Response::Created { name, n, m }
            }
            Err(message) => Response::Error { message },
        }
    }

    fn drop_graph(&mut self, name: &str) -> Response {
        if self.graphs.remove(name).is_some() {
            self.stats.graphs_dropped += 1;
            Response::Dropped { name: name.to_string() }
        } else {
            Response::Error { message: format!("no graph named '{name}'") }
        }
    }

    fn mutate(&mut self, name: &str, op: Mutation) -> Response {
        let Some(entry) = self.graphs.get_mut(name) else {
            return Response::Error { message: format!("no graph named '{name}'") };
        };
        let result = match op {
            Mutation::InsertEdge { u, v, w } => apply_insert(entry, u, v, w),
            Mutation::DeleteEdge { u, v } => apply_delete(entry, u, v),
            Mutation::ContractVertices { u, v } => apply_contract(entry, u, v),
        };
        match result {
            Ok(()) => {
                entry.touch();
                self.stats.mutations += 1;
                Response::Mutated {
                    name: name.to_string(),
                    epoch: entry.epoch,
                    n: entry.n,
                    m: entry.edges.len(),
                }
            }
            Err(message) => Response::Error { message },
        }
    }

    fn query(&mut self, name: &str, query: Query) -> Response {
        let Some(entry) = self.graphs.get_mut(name) else {
            return Response::Error { message: format!("no graph named '{name}'") };
        };
        serve_query(&mut self.stats, &self.cfg, entry, query, &mut self.obs)
    }

    /// Detach a graph from this engine's registry for installation into
    /// another engine, or for serialization with [`GraphExport::to_trace`]
    /// (the snapshot codec). The entire entry moves wholesale: edge list,
    /// index (CSR snapshot, dynamic forest), mutation epoch, and
    /// the warmed LRU query cache, so the receiving engine answers exactly
    /// as this one would have. Returns `None` for unknown names.
    ///
    /// # Examples
    ///
    /// ```
    /// use cut_engine::{Engine, GraphSpec, Query, Request, Response};
    ///
    /// let mut a = Engine::new();
    /// a.execute(Request::Create { name: "ring".into(), spec: GraphSpec::Cycle { n: 8 } });
    /// a.execute(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
    ///
    /// // Move the graph: index, epoch, and warmed cache travel with it.
    /// let export = a.export_graph("ring").unwrap();
    /// assert_eq!(export.name(), "ring");
    /// let mut b = Engine::new();
    /// assert!(b.import_graph(export).is_ok());
    /// let r = b.execute(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
    /// assert!(r.was_cached(), "the warmed cache moved wholesale");
    ///
    /// // The source no longer knows the graph.
    /// let gone = a.execute(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
    /// assert!(matches!(gone, Response::Error { .. }));
    /// ```
    pub fn export_graph(&mut self, name: &str) -> Option<GraphExport> {
        let entry = self.graphs.remove(name)?;
        Some(GraphExport { name: name.to_string(), entry })
    }

    /// Install a graph previously detached with [`Engine::export_graph`].
    /// Fails (handing the export back untouched) if the name is already
    /// registered here.
    // The whole point of the Err variant is returning the (large) entry to
    // the caller intact, so its size is the feature, not an accident.
    #[allow(clippy::result_large_err)]
    pub fn import_graph(&mut self, export: GraphExport) -> Result<(), GraphExport> {
        if self.graphs.contains_key(&export.name) {
            return Err(export);
        }
        let GraphExport { name, entry } = export;
        self.graphs.insert(name, entry);
        Ok(())
    }
}

/// A graph detached from one [`Engine`], in flight to another engine or
/// to a snapshot trace. Opaque: the entry inside keeps its epoch, index
/// state, and query cache exactly as the source engine last saw them (see
/// [`Engine::export_graph`] for a round-trip example).
pub struct GraphExport {
    name: String,
    entry: GraphEntry,
}

impl GraphExport {
    /// The registry name this graph was exported under (and will be
    /// registered under on import).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The exported graph's mutation epoch — preserved across the move.
    pub fn epoch(&self) -> u64 {
        self.entry.epoch
    }

    /// Serialize the export to the snapshot trace format — the on-disk
    /// form of the in-memory export, reusing the request/response line
    /// codec for the cached-answers section:
    ///
    /// ```text
    /// graph <name> <n> <epoch>
    /// edges <m>
    /// <u> <v> <w>              (m lines, exact edge-list order)
    /// cache <k>
    /// <stamp>\t<query-line>\t<response-line>   (k lines, LRU-oldest first)
    /// end
    /// ```
    ///
    /// Edge order matters (`DeleteEdge` removes the first positional
    /// match) and cache order matters (re-inserting oldest-first
    /// reproduces the exact LRU recency), so both serialize verbatim.
    ///
    /// # Examples
    ///
    /// ```
    /// use cut_engine::{Engine, GraphExport, GraphSpec, Query, Request};
    ///
    /// let mut a = Engine::new();
    /// a.execute(Request::Create { name: "ring".into(), spec: GraphSpec::Cycle { n: 8 } });
    /// a.execute(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
    /// let trace = a.export_graph("ring").unwrap().to_trace();
    ///
    /// // A restored engine answers from the restored cache.
    /// let export = GraphExport::from_trace(&trace, 4096).unwrap();
    /// let mut b = Engine::new();
    /// b.import_graph(export).unwrap();
    /// let r = b.execute(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
    /// assert!(r.was_cached());
    /// ```
    pub fn to_trace(&self) -> String {
        entry_to_trace(&self.name, &self.entry)
    }

    /// Parse a trace produced by [`GraphExport::to_trace`], rebuilding
    /// the full entry: edge list in original order, index resumed at the
    /// stored generation, and the query cache re-inserted oldest-first so
    /// recency (and therefore future evictions) match the source engine.
    /// `cache_capacity` is the restoring engine's
    /// [`EngineConfig::max_cache_entries`].
    pub fn from_trace(trace: &str, cache_capacity: usize) -> Result<GraphExport, String> {
        let mut lines = trace.lines();
        let mut next_line =
            |what: &str| lines.next().ok_or_else(|| format!("snapshot ended early: {what}"));

        let header = next_line("graph header")?;
        let mut tokens = header.split_whitespace();
        if tokens.next() != Some("graph") {
            return Err(format!("bad snapshot header '{header}'"));
        }
        let name = decode_name(tokens.next().ok_or("snapshot header missing name")?)?;
        let n: usize = tokens
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad n in snapshot header '{header}'"))?;
        let epoch: u64 = tokens
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad epoch in snapshot header '{header}'"))?;
        if tokens.next().is_some() {
            return Err(format!("trailing tokens in snapshot header '{header}'"));
        }

        let edges_header = next_line("edges header")?;
        let m: usize = edges_header
            .strip_prefix("edges ")
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad edges header '{edges_header}'"))?;
        let mut edges = Vec::with_capacity(m.min(MAX_PREALLOC));
        for _ in 0..m {
            let line = next_line("edge line")?;
            let mut parts = line.split_whitespace();
            let mut field = |what: &str| -> Result<&str, String> {
                parts.next().ok_or_else(|| format!("bad edge line '{line}': missing {what}"))
            };
            let u: u32 = field("u")?.parse().map_err(|_| format!("bad u in '{line}'"))?;
            let v: u32 = field("v")?.parse().map_err(|_| format!("bad v in '{line}'"))?;
            let w: u64 = field("w")?.parse().map_err(|_| format!("bad w in '{line}'"))?;
            if parts.next().is_some() {
                return Err(format!("trailing tokens in edge line '{line}'"));
            }
            validate_edge(n, u, v, w).map_err(|e| format!("{e} in snapshot"))?;
            edges.push(Edge::new(u, v, w));
        }

        let cache_header = next_line("cache header")?;
        let k: usize = cache_header
            .strip_prefix("cache ")
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad cache header '{cache_header}'"))?;
        let mut cache: LruCache<Query, (u64, Response)> = LruCache::new(cache_capacity.max(1));
        for _ in 0..k {
            let line = next_line("cache line")?;
            let mut fields = line.splitn(3, '\t');
            let stamp: u64 = fields
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("bad cache stamp in '{line}'"))?;
            let request_line =
                fields.next().ok_or_else(|| format!("cache line '{line}' missing query"))?;
            let response_line =
                fields.next().ok_or_else(|| format!("cache line '{line}' missing response"))?;
            let Request::Query { query, .. } = Request::from_trace_line(request_line)? else {
                return Err(format!("cache line '{line}' does not hold a query"));
            };
            let response = Response::from_trace_line(response_line)?;
            cache.insert(query, (stamp, response));
        }

        if next_line("end marker")? != "end" {
            return Err("snapshot missing end marker".into());
        }
        if lines.next().is_some() {
            return Err("trailing lines after snapshot end marker".into());
        }

        // The index resumes at the stored generation so the epoch ==
        // generation lockstep invariant (and the epoch-stamped cache)
        // survive the round trip.
        let index = GraphIndex::with_generation(n, &edges, epoch);
        Ok(GraphExport { name, entry: GraphEntry { n, edges, index, epoch, cache } })
    }
}

/// Serialize one registry entry to the snapshot trace format (see
/// [`GraphExport::to_trace`] — this is the engine-internal worker both it
/// and the durability hooks call without detaching the entry).
fn entry_to_trace(name: &str, entry: &GraphEntry) -> String {
    let mut out = String::with_capacity(64 + entry.edges.len() * 12);
    out.push_str(&format!("graph {} {} {}\n", encode_name(name), entry.n, entry.epoch));
    out.push_str(&format!("edges {}\n", entry.edges.len()));
    // Edge lines dominate a snapshot of a long edge stream, and
    // `push_decimal` writes them about three times faster than `format!`.
    for e in &entry.edges {
        push_decimal(&mut out, e.u.into());
        out.push(' ');
        push_decimal(&mut out, e.v.into());
        out.push(' ');
        push_decimal(&mut out, e.w);
        out.push('\n');
    }
    out.push_str(&format!("cache {}\n", entry.cache.len()));
    for (query, (stamp, response)) in entry.cache.iter_lru() {
        let request = Request::Query { name: name.to_string(), query: *query };
        out.push_str(&format!(
            "{stamp}\t{}\t{}\n",
            request.to_trace_line(),
            response.to_trace_line()
        ));
    }
    out.push_str("end\n");
    out
}

/// Append `x` in decimal: the bytes `format!("{x}")` produces.
fn push_decimal(out: &mut String, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

impl std::fmt::Debug for GraphExport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphExport")
            .field("name", &self.name)
            .field("n", &self.entry.n)
            .field("m", &self.entry.edges.len())
            .field("epoch", &self.entry.epoch)
            .finish()
    }
}

/// Serve one query against a looked-up entry: LRU/epoch cache first, then
/// the index layer (dynamic-forest labels for connectivity, the pair graph
/// or the CSR snapshot for cuts), attributing the work to `stats`.
fn serve_query(
    stats: &mut EngineStats,
    cfg: &EngineConfig,
    entry: &mut GraphEntry,
    query: Query,
    obs: &mut ObsScratch,
) -> Response {
    stats.queries += 1;

    // A stale entry remembers the generation its answer was computed at —
    // the stamp the certificate gate compares against.
    let mut stale: Option<(u64, Response)> = None;
    let hit = match entry.cache.get(&query) {
        Some((epoch, answer)) if *epoch == entry.epoch => Some(answer.as_cached()),
        Some((epoch, answer)) => {
            stale = Some((*epoch, answer.clone()));
            None
        }
        None => None,
    };
    if let Some(answer) = hit {
        stats.cache_hits += 1;
        return answer;
    }
    if let Some((stamp, answer)) = stale {
        // Drop the dead entry now: a query whose recompute errors (e.g.
        // k-cut after a contraction shrank n below k) would otherwise pin
        // a permanently stale entry at the hot end of the LRU.
        entry.cache.remove(&query);
        if certificate_holds(entry, query, stamp) {
            // The certificate proves the recompute would reproduce this
            // exact answer, so carry it — but account for it as the
            // recompute it replaces (a cache *miss*, re-stamped at the
            // current epoch, same LRU recency), keeping the response
            // stream and every logged counter byte-identical to a
            // recompute. Only the off-log work counters move.
            stats.cache_misses += 1;
            stats.cut_certified_skips += 1;
            if entry.cache.insert(query, (entry.epoch, answer.clone())).is_some() {
                stats.index.lru_evictions += 1;
            }
            return answer;
        }
    }
    stats.cache_misses += 1;

    // `csr` reports exactly what the compute arms did with the pair graph
    // or the snapshot: None = never touched (connectivity, errors, the
    // edgeless singleton-cut path), Some(built) otherwise.
    let mut csr: Option<bool> = None;
    let answer = compute_query(entry, cfg, query, &mut csr, obs);
    if query.is_certificate_gated() && !matches!(answer, Response::Error { .. }) {
        stats.cut_recomputes += 1;
    }
    if let Some(built) = csr {
        let kind = query.kind_index();
        if built {
            stats.index.csr_builds += 1;
            stats.builds_by_kind[kind] += 1;
        } else {
            stats.index.csr_reuses += 1;
            stats.reuse_by_kind[kind] += 1;
        }
    }
    if !matches!(answer, Response::Error { .. })
        && entry.cache.insert(query, (entry.epoch, answer.clone())).is_some()
    {
        stats.index.lru_evictions += 1;
    }
    answer
}

/// Can the stale cached `answer` for `query`, computed at generation
/// `stamp`, be carried across the mutations since? True only when a
/// certificate *proves* a recompute would reproduce it byte-for-byte:
///
/// 0. The graph's total weight is within [`MAX_CUT_TOTAL`]; past it a
///    recompute answers an error.
/// 1. The vertex partition is unchanged since `stamp`
///    ([`GraphIndex::partition_generation`], maintained by the dynamic
///    forest) — so connectivity-derived answers are frozen. This also
///    rules out contractions (a wholesale rebuild always claims the
///    current generation).
/// 2. The answer is a pure function of that partition *today*:
///    - exact/approx min cut of a currently-disconnected graph is the
///      zero cut with the side fixed by the partition
///      (`disconnected_cut` labels components in first-appearance vertex
///      order — partition-determined);
///    - st-cut weight with `s`, `t` currently separated is 0.
///
/// Everything else (connected min cuts, k-cut, singleton cut,
/// connectivity itself — which never misses stale anyway) recomputes:
/// weight changes on a cycle edge can move those answers without moving
/// the partition.
fn certificate_holds(entry: &mut GraphEntry, query: Query, stamp: u64) -> bool {
    if entry.index.total_weight() > MAX_CUT_TOTAL || entry.index.partition_generation() > stamp {
        return false;
    }
    match query {
        Query::ExactMinCut | Query::ApproxMinCut { .. } => {
            entry.index.components_live(entry.n, &entry.edges) > 1
        }
        Query::StCutWeight { s, t } => {
            !entry.index.same_component_live(entry.n, &entry.edges, s, t)
        }
        Query::Connectivity | Query::SingletonCut { .. } | Query::KCut { .. } => false,
    }
}

/// Take the pair graph or the CSR snapshot for a compute arm through
/// `read`, recording into `slot` whether the access built it or reused the
/// current build, and charging build time to the span's index bucket
/// (reuses read the clock but charge nothing).
fn track<T>(slot: &mut Option<bool>, obs: &mut ObsScratch, read: impl FnOnce() -> (T, bool)) -> T {
    let t0 = obs.now();
    let (view, built) = read();
    if built {
        obs.charge_index(t0);
    }
    *slot = Some(built);
    view
}

fn apply_insert(entry: &mut GraphEntry, u: u32, v: u32, w: u64) -> Result<(), String> {
    if u as usize >= entry.n || v as usize >= entry.n {
        return Err(format!("edge ({u}, {v}) out of range for n = {}", entry.n));
    }
    if u == v {
        return Err(format!("self-loop at vertex {u}"));
    }
    if w == 0 {
        return Err(format!("zero-weight edge ({u}, {v})"));
    }
    let e = Edge::new(u, v, w);
    entry.edges.push(e);
    // The pair table adds the weight, the dynamic forest links, the pair
    // graph and the snapshot are freed.
    entry.index.note_insert(e);
    Ok(())
}

fn apply_delete(entry: &mut GraphEntry, u: u32, v: u32) -> Result<(), String> {
    let pos = entry.edges.iter().position(|e| (e.u == u && e.v == v) || (e.u == v && e.v == u));
    match pos {
        Some(i) => {
            let e = entry.edges.remove(i);
            // The dynamic forest searches for a replacement edge, so the
            // next connectivity read needs no rebuild.
            entry.index.note_delete(i, e);
            Ok(())
        }
        None => Err(format!("no edge ({u}, {v}) to delete")),
    }
}

fn apply_contract(entry: &mut GraphEntry, u: u32, v: u32) -> Result<(), String> {
    if u as usize >= entry.n || v as usize >= entry.n {
        return Err(format!("contract ({u}, {v}) out of range for n = {}", entry.n));
    }
    if u == v {
        return Err(format!("cannot contract vertex {u} with itself"));
    }
    let relabel = |x: u32| crate::request::contract_relabel(u, v, x);
    // Merge parallel edges deterministically (sorted pair order), matching
    // Graph::contract semantics without building the CSR first.
    let mut merged: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for e in &entry.edges {
        let (mut a, mut b) = (relabel(e.u), relabel(e.v));
        if a == b {
            continue;
        }
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let w = merged.entry((a, b)).or_insert(0);
        *w = w.checked_add(e.w).ok_or_else(|| {
            format!("contracting ({u}, {v}) would merge edge weights past {}", u64::MAX)
        })?;
    }
    entry.n -= 1;
    entry.edges = merged.into_iter().map(|((a, b), w)| Edge::new(a, b, w)).collect();
    // Contraction relabels vertices and merges edges wholesale: re-derive
    // the pair table and the dynamic forest from the new state.
    entry.index.rebuild_for(entry.n, &entry.edges);
    Ok(())
}

/// Compute one query's answer. Each cut reads the pair graph when its
/// answer depends on each vertex pair only through the pair's summed
/// weight, so the answer is byte-identical to the per-edge call on the
/// CSR:
///
/// - exact min cut: Stoer–Wagner's dense matrix sums each pair;
/// - s-t cut: `Dinic::new` builds one arc pair per vertex pair;
/// - approximate min cut at `n <= base_size`: the contraction's base case
///   is Stoer–Wagner;
/// - k-cut at `n <= exact_below`: APX-SPLIT's split loop runs on the
///   collapsed graph there, and its weight sums the crossing pairs;
/// - singleton cut: Algorithm 3 on the pair graph under pair ranks, from
///   the same m per-edge clocks (`mincut_core::priorities`).
///
/// Above their base cases, the approximate min cut and APX-SPLIT draw a
/// priority for every parallel edge, so they read the CSR.
fn compute_query(
    entry: &mut GraphEntry,
    cfg: &EngineConfig,
    query: Query,
    csr: &mut Option<bool>,
    obs: &mut ObsScratch,
) -> Response {
    let n = entry.n;
    let total = entry.index.total_weight();
    if query != Query::Connectivity && total > MAX_CUT_TOTAL {
        return Response::Error {
            message: format!(
                "cut queries need a total edge weight of at most {MAX_CUT_TOTAL}, not {total}"
            ),
        };
    }
    match query {
        Query::Connectivity => {
            // The dynamic forest's maintained labels: O(1), no BFS, no CSR,
            // and no rebuild after deletes or contractions either.
            let components = entry.index.components_live(entry.n, &entry.edges);
            Response::ConnectivityValue { components, cached: false }
        }
        Query::ExactMinCut => {
            if n < 2 {
                return Response::Error { message: "min cut needs n >= 2".into() };
            }
            let g = track(csr, obs, || entry.index.pair_graph(n, &entry.edges)).graph();
            match disconnected_cut(g) {
                Some(cut) => cut_response(&cut),
                None => cut_response(&stoer_wagner(g)),
            }
        }
        Query::ApproxMinCut { seed } => {
            if n < 2 {
                return Response::Error { message: "min cut needs n >= 2".into() };
            }
            let opts = MinCutOptions {
                epsilon: cfg.epsilon,
                base_size: cfg.base_size,
                repetitions: cfg.repetitions,
                seed,
            };
            let g = if n <= cfg.base_size {
                track(csr, obs, || entry.index.pair_graph(n, &entry.edges)).graph()
            } else {
                track(csr, obs, || entry.index.snapshot(n, &entry.edges))
            };
            if let Some(cut) = disconnected_cut(g) {
                return cut_response(&cut);
            }
            cut_response(&approx_min_cut(g, &opts))
        }
        Query::SingletonCut { seed } => {
            if n < 2 {
                return Response::Error { message: "singleton cut needs n >= 2".into() };
            }
            if entry.edges.is_empty() {
                // Every singleton cut of an edgeless graph weighs 0: no
                // pair graph needed.
                return Response::CutValue { weight: 0, side_size: 1, cached: false };
            }
            let pairs = track(csr, obs, || entry.index.pair_graph(n, &entry.edges));
            let g = pairs.graph();
            let mut rng = SmallRng::seed_from_u64(seed);
            let prio = fold_priorities(&entry.edges, g.m(), |e| pairs.pair_of(e), &mut rng);
            let engine = SingletonEngine::new(g, &prio);
            let cut = engine.smallest(g);
            // The realizing side is a bag (super-vertex), not one vertex.
            let side = engine.bag(cut.leader, cut.time);
            Response::CutValue { weight: cut.weight, side_size: side.len(), cached: false }
        }
        Query::KCut { k } => {
            if k < 1 || k > n {
                return Response::Error {
                    message: format!("k-cut needs 1 <= k <= n (k = {k}, n = {n})"),
                };
            }
            let g = if n <= cfg.exact_below {
                track(csr, obs, || entry.index.pair_graph(n, &entry.edges)).graph()
            } else {
                track(csr, obs, || entry.index.snapshot(n, &entry.edges))
            };
            let mut opts = KCutOptions::new(k);
            opts.exact_below = cfg.exact_below;
            opts.mincut.epsilon = cfg.epsilon;
            opts.mincut.base_size = cfg.base_size;
            let r = apx_split(g, &opts);
            Response::KCutValue { weight: r.weight, parts: k, cached: false }
        }
        Query::StCutWeight { s, t } => {
            if s as usize >= n || t as usize >= n {
                return Response::Error {
                    message: format!("st-cut endpoints ({s}, {t}) out of range for n = {n}"),
                };
            }
            if s == t {
                return Response::Error { message: "st-cut needs s != t".into() };
            }
            let g = track(csr, obs, || entry.index.pair_graph(n, &entry.edges)).graph();
            let weight = cut_graph::maxflow::min_st_cut(g, s, t);
            Response::CutValue { weight, side_size: 0, cached: false }
        }
    }
}

/// For disconnected graphs the global min cut is 0 (any one component
/// against the rest); the recursive algorithms assume connectivity, so the
/// engine short-circuits.
fn disconnected_cut(g: &Graph) -> Option<CutResult> {
    let comp = g.components();
    if comp.iter().any(|&c| c != 0) {
        let side: Vec<u32> = (0..g.n() as u32).filter(|&v| comp[v as usize] == 0).collect();
        Some(CutResult { weight: 0, side })
    } else {
        None
    }
}

fn cut_response(cut: &CutResult) -> Response {
    Response::CutValue { weight: cut.weight, side_size: cut.side.len(), cached: false }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn create(engine: &mut Engine, name: &str, spec: GraphSpec) {
        let r = engine.execute(Request::Create { name: name.into(), spec });
        assert!(matches!(r, Response::Created { .. }), "create failed: {r}");
    }

    fn query(engine: &mut Engine, name: &str, q: Query) -> Response {
        engine.execute(Request::Query { name: name.into(), query: q })
    }

    #[test]
    fn push_decimal_writes_what_format_writes() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut values = vec![0, 1, 9, 10, 99, 100, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        values.extend((0..200).map(|i| rand::Rng::gen::<u64>(&mut rng) >> (i % 64)));
        let mut out = String::from("x");
        let mut expect = String::from("x");
        for x in values {
            push_decimal(&mut out, x);
            expect.push_str(&format!("{x},"));
            out.push(',');
        }
        assert_eq!(out, expect);
    }

    #[test]
    fn registry_create_query_drop() {
        let mut e = Engine::new();
        create(&mut e, "ring", GraphSpec::Cycle { n: 10 });
        let r = query(&mut e, "ring", Query::ExactMinCut);
        assert_eq!(r, Response::CutValue { weight: 2, side_size: 1, cached: false });
        assert!(matches!(
            e.execute(Request::Drop { name: "ring".into() }),
            Response::Dropped { .. }
        ));
        assert!(matches!(query(&mut e, "ring", Query::ExactMinCut), Response::Error { .. }));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut e = Engine::new();
        create(&mut e, "g", GraphSpec::Cycle { n: 5 });
        let r = e.execute(Request::Create { name: "g".into(), spec: GraphSpec::Cycle { n: 7 } });
        assert!(matches!(r, Response::Error { .. }));
    }

    #[test]
    fn cache_hits_until_mutation_invalidates() {
        let mut e = Engine::new();
        create(&mut e, "g", GraphSpec::Cycle { n: 8 });

        let a = query(&mut e, "g", Query::ExactMinCut);
        assert!(!a.was_cached());
        let b = query(&mut e, "g", Query::ExactMinCut);
        assert!(b.was_cached(), "repeat query must hit the cache");
        assert_eq!(e.stats().cache_hits, 1);
        assert_eq!(e.stats().cache_misses, 1);

        // A mutation bumps the epoch; the cached answer is dead.
        let r = e.execute(Request::Mutate {
            name: "g".into(),
            op: Mutation::InsertEdge { u: 0, v: 4, w: 3 },
        });
        assert!(matches!(r, Response::Mutated { epoch: 1, .. }));
        let c = query(&mut e, "g", Query::ExactMinCut);
        assert!(!c.was_cached(), "mutation must invalidate the cache");
        assert_eq!(e.stats().cache_misses, 2);
    }

    #[test]
    fn failed_mutations_do_not_bump_epoch() {
        let mut e = Engine::new();
        create(&mut e, "g", GraphSpec::Cycle { n: 5 });
        query(&mut e, "g", Query::ExactMinCut);
        let r = e.execute(Request::Mutate {
            name: "g".into(),
            op: Mutation::InsertEdge { u: 0, v: 0, w: 1 },
        });
        assert!(matches!(r, Response::Error { .. }));
        assert_eq!(e.epoch("g"), Some(0));
        assert!(query(&mut e, "g", Query::ExactMinCut).was_cached());
    }

    #[test]
    fn insert_and_delete_change_answers() {
        let mut e = Engine::new();
        // Path 0-1-2: min cut 1.
        create(&mut e, "p", GraphSpec::Edges { n: 3, edges: vec![(0, 1, 1), (1, 2, 1)] });
        assert!(matches!(
            query(&mut e, "p", Query::ExactMinCut),
            Response::CutValue { weight: 1, .. }
        ));
        // Close the triangle: min cut 2.
        e.execute(Request::Mutate {
            name: "p".into(),
            op: Mutation::InsertEdge { u: 0, v: 2, w: 1 },
        });
        assert!(matches!(
            query(&mut e, "p", Query::ExactMinCut),
            Response::CutValue { weight: 2, .. }
        ));
        // Delete an edge: back to a path.
        e.execute(Request::Mutate { name: "p".into(), op: Mutation::DeleteEdge { u: 1, v: 0 } });
        assert!(matches!(
            query(&mut e, "p", Query::ExactMinCut),
            Response::CutValue { weight: 1, .. }
        ));
        // Deleting a missing edge fails and changes nothing.
        let r = e
            .execute(Request::Mutate { name: "p".into(), op: Mutation::DeleteEdge { u: 0, v: 1 } });
        assert!(matches!(r, Response::Error { .. }));
    }

    #[test]
    fn contraction_merges_and_relabels() {
        let mut e = Engine::new();
        // Square 0-1-2-3-0.
        create(
            &mut e,
            "sq",
            GraphSpec::Edges { n: 4, edges: vec![(0, 1, 1), (1, 2, 2), (2, 3, 4), (3, 0, 8)] },
        );
        let r = e.execute(Request::Mutate {
            name: "sq".into(),
            op: Mutation::ContractVertices { u: 0, v: 1 },
        });
        // {0,1} merged: vertices {01, 2, 3}; edges 01-2 (2), 2-3 (4), 3-01 (8).
        assert!(matches!(r, Response::Mutated { n: 3, m: 3, .. }), "got {r}");
        let g = e.snapshot("sq").unwrap();
        assert_eq!(g.total_weight(), 14);
        // Contract again down to 2 vertices: parallel edges merge.
        e.execute(Request::Mutate {
            name: "sq".into(),
            op: Mutation::ContractVertices { u: 1, v: 2 },
        });
        let g = e.snapshot("sq").unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge(0).w, 10);
    }

    #[test]
    fn disconnected_graphs_answer_zero_cuts() {
        let mut e = Engine::new();
        create(&mut e, "two", GraphSpec::Edges { n: 4, edges: vec![(0, 1, 5), (2, 3, 5)] });
        assert!(matches!(
            query(&mut e, "two", Query::ExactMinCut),
            Response::CutValue { weight: 0, side_size: 2, .. }
        ));
        assert!(matches!(
            query(&mut e, "two", Query::ApproxMinCut { seed: 1 }),
            Response::CutValue { weight: 0, .. }
        ));
        assert!(matches!(
            query(&mut e, "two", Query::Connectivity),
            Response::ConnectivityValue { components: 2, .. }
        ));
    }

    #[test]
    fn st_cut_and_kcut_answer() {
        let mut e = Engine::new();
        create(&mut e, "c", GraphSpec::Cycle { n: 6 });
        assert!(matches!(
            query(&mut e, "c", Query::StCutWeight { s: 0, t: 3 }),
            Response::CutValue { weight: 2, .. }
        ));
        let r = query(&mut e, "c", Query::KCut { k: 2 });
        match r {
            Response::KCutValue { weight, parts: 2, .. } => assert!(weight >= 2),
            other => panic!("unexpected {other}"),
        }
        assert!(matches!(query(&mut e, "c", Query::KCut { k: 99 }), Response::Error { .. }));
    }

    #[test]
    fn list_is_sorted_and_stats_count() {
        let mut e = Engine::new();
        create(&mut e, "b", GraphSpec::Cycle { n: 4 });
        create(&mut e, "a", GraphSpec::Cycle { n: 4 });
        assert_eq!(
            e.execute(Request::ListGraphs),
            Response::Graphs { names: vec!["a".into(), "b".into()] }
        );
        query(&mut e, "a", Query::Connectivity);
        query(&mut e, "a", Query::Connectivity);
        let r = e.execute(Request::Stats);
        assert!(
            matches!(r, Response::EngineStats { graphs: 2, queries: 2, cache_hits: 1, .. }),
            "got {r}"
        );
    }

    #[test]
    fn connectivity_never_rebuilds_on_the_dynamic_path() {
        let mut e = Engine::new();
        create(&mut e, "g", GraphSpec::Cycle { n: 8 });
        assert!(matches!(
            query(&mut e, "g", Query::Connectivity),
            Response::ConnectivityValue { components: 1, cached: false }
        ));
        assert_eq!(e.stats().index.csr_builds, 0, "connectivity must not build the CSR");

        e.execute(Request::Mutate {
            name: "g".into(),
            op: Mutation::InsertEdge { u: 0, v: 4, w: 1 },
        });
        query(&mut e, "g", Query::Connectivity);

        // The operation the dynamic forest exists for: a delete no longer
        // costs the next read an O(m α) rebuild.
        e.execute(Request::Mutate { name: "g".into(), op: Mutation::DeleteEdge { u: 0, v: 4 } });
        assert!(matches!(
            query(&mut e, "g", Query::Connectivity),
            Response::ConnectivityValue { components: 1, cached: false }
        ));
        // A splitting delete is exact too, still without a rebuild.
        e.execute(Request::Mutate { name: "g".into(), op: Mutation::DeleteEdge { u: 7, v: 0 } });
        e.execute(Request::Mutate { name: "g".into(), op: Mutation::DeleteEdge { u: 3, v: 4 } });
        assert!(matches!(
            query(&mut e, "g", Query::Connectivity),
            Response::ConnectivityValue { components: 2, cached: false }
        ));
        assert_eq!(e.stats().index.csr_builds, 0, "connectivity never builds the CSR");
    }

    #[test]
    fn certified_carry_skips_gated_recomputes() {
        let mut e = Engine::new();
        // Two components: {0,1} and {2,3}.
        create(&mut e, "g", GraphSpec::Edges { n: 4, edges: vec![(0, 1, 1), (2, 3, 1)] });
        let first = query(&mut e, "g", Query::ExactMinCut);
        assert!(
            matches!(first, Response::CutValue { weight: 0, side_size: 2, cached: false }),
            "got {first}"
        );
        assert_eq!(e.stats().cut_recomputes, 1);
        assert_eq!(e.stats().cut_certified_skips, 0);

        // A parallel-edge insert bumps the epoch but not the partition:
        // the stale answer carries, bit-for-bit, without Stoer–Wagner.
        e.execute(Request::Mutate {
            name: "g".into(),
            op: Mutation::InsertEdge { u: 0, v: 1, w: 9 },
        });
        let carried = query(&mut e, "g", Query::ExactMinCut);
        assert_eq!(format!("{carried}"), format!("{first}"), "carry must not change bytes");
        assert_eq!(e.stats().cut_recomputes, 1, "no recompute happened");
        assert_eq!(e.stats().cut_certified_skips, 1);
        assert_eq!(e.stats().cache_misses, 2, "the carry accounts as a miss, like a recompute");

        // The carried answer is re-stamped at the current epoch: the next
        // read is a plain cache hit.
        assert!(query(&mut e, "g", Query::ExactMinCut).was_cached());

        // st-cut across the split carries the same way.
        let st = query(&mut e, "g", Query::StCutWeight { s: 1, t: 2 });
        assert!(matches!(st, Response::CutValue { weight: 0, .. }));
        e.execute(Request::Mutate { name: "g".into(), op: Mutation::DeleteEdge { u: 0, v: 1 } });
        let st2 = query(&mut e, "g", Query::StCutWeight { s: 1, t: 2 });
        assert_eq!(format!("{st2}"), format!("{st}"));
        assert_eq!(e.stats().cut_certified_skips, 2);

        // A merging insert moves the partition: the certificate is void
        // and the now-connected graph really recomputes.
        e.execute(Request::Mutate {
            name: "g".into(),
            op: Mutation::InsertEdge { u: 1, v: 2, w: 5 },
        });
        e.execute(Request::Mutate {
            name: "g".into(),
            op: Mutation::InsertEdge { u: 3, v: 0, w: 5 },
        });
        // Cycle 0-1-2-3-0 with weights 9,5,1,5: isolating vertex 2 (or 3)
        // cuts 5+1 = 6.
        let connected = query(&mut e, "g", Query::ExactMinCut);
        assert!(
            matches!(connected, Response::CutValue { weight: 6, .. }),
            "recomputed on the real graph: {connected}"
        );
        assert_eq!(e.stats().cut_certified_skips, 2, "no bogus carry");
        assert!(e.stats().cut_recomputes >= 3);
    }

    #[test]
    fn certificates_never_change_response_bytes() {
        // Over a mutation-heavy, stale-cache-heavy sequence with
        // disconnected phases, every read — carried, recomputed or cached —
        // must equal what a fresh engine computes from the current edge
        // list. This is the in-process version of the CI write-storm gate.
        let reads = [
            Query::ExactMinCut,
            Query::ApproxMinCut { seed: 7 },
            Query::StCutWeight { s: 0, t: 3 },
            Query::StCutWeight { s: 0, t: 2 },
            Query::Connectivity,
            Query::SingletonCut { seed: 3 },
        ];
        let muts = [
            Mutation::InsertEdge { u: 0, v: 2, w: 4 }, // cycle: partition frozen
            Mutation::DeleteEdge { u: 1, v: 2 },       // cycle edge: frozen
            Mutation::InsertEdge { u: 2, v: 3, w: 1 }, // merges the halves
            Mutation::DeleteEdge { u: 2, v: 3 },       // splits again
            Mutation::ContractVertices { u: 4, v: 5 }, // wholesale rebuild
            Mutation::DeleteEdge { u: 3, v: 4 },       // (3,5)+(4,5) merged side
        ];
        let mut e = Engine::new();
        create(
            &mut e,
            "g",
            GraphSpec::Edges {
                n: 6,
                edges: vec![(0, 1, 2), (1, 2, 3), (3, 4, 1), (4, 5, 1), (3, 5, 2)],
            },
        );
        let check_reads = |e: &mut Engine| {
            let g = e.snapshot("g").expect("graph registered");
            let edges = g.edges().iter().map(|x| (x.u, x.v, x.w)).collect();
            let mut fresh = Engine::new();
            create(&mut fresh, "g", GraphSpec::Edges { n: g.n(), edges });
            for q in reads {
                let served = query(e, "g", q);
                assert_eq!(served.as_cached(), query(&mut fresh, "g", q).as_cached(), "{q:?}");
            }
        };
        for m in muts {
            check_reads(&mut e);
            e.execute(Request::Mutate { name: "g".into(), op: m });
        }
        check_reads(&mut e);
        assert!(e.stats().cut_certified_skips > 0, "the sequence must exercise carries");
    }

    #[test]
    fn snapshot_is_built_once_and_shared_between_mutations() {
        let mut e = Engine::new();
        create(&mut e, "g", GraphSpec::Cycle { n: 10 });
        // Three distinct CSR-needing queries: one build, two reuses.
        query(&mut e, "g", Query::ExactMinCut);
        query(&mut e, "g", Query::StCutWeight { s: 0, t: 5 });
        query(&mut e, "g", Query::SingletonCut { seed: 1 });
        let s = e.stats();
        assert_eq!(s.index.csr_builds, 1);
        assert_eq!(s.index.csr_reuses, 2);
        assert_eq!(s.builds_by_kind[Query::ExactMinCut.kind_index()], 1);
        assert_eq!(s.reuse_by_kind[Query::StCutWeight { s: 0, t: 5 }.kind_index()], 1);

        // A mutation frees the snapshot: exactly one more build.
        e.execute(Request::Mutate {
            name: "g".into(),
            op: Mutation::InsertEdge { u: 0, v: 5, w: 2 },
        });
        query(&mut e, "g", Query::ExactMinCut);
        query(&mut e, "g", Query::StCutWeight { s: 0, t: 5 });
        let s = e.stats();
        assert_eq!(s.index.csr_builds, 2);
        assert_eq!(s.index.csr_reuses, 3);
    }

    #[test]
    fn lru_evicts_cold_entries_not_the_working_set() {
        let cfg = EngineConfig { max_cache_entries: 2, ..EngineConfig::default() };
        let mut e = Engine::with_config(cfg);
        create(&mut e, "g", GraphSpec::Cycle { n: 8 });
        // Fill: {exact, connectivity}, then keep exact hot.
        query(&mut e, "g", Query::ExactMinCut);
        query(&mut e, "g", Query::Connectivity);
        query(&mut e, "g", Query::ExactMinCut); // hit, promotes
        assert_eq!(e.stats().cache_hits, 1);
        // Inserting a third entry evicts connectivity (the cold one).
        query(&mut e, "g", Query::StCutWeight { s: 0, t: 4 });
        assert_eq!(e.stats().index.lru_evictions, 1);
        assert!(query(&mut e, "g", Query::ExactMinCut).was_cached(), "hot entry survived");
        assert!(!query(&mut e, "g", Query::Connectivity).was_cached(), "cold entry was evicted");
    }

    #[test]
    fn export_import_moves_epoch_cache_and_index_wholesale() {
        let mut a = Engine::new();
        create(&mut a, "g", GraphSpec::Cycle { n: 10 });
        a.execute(Request::Mutate {
            name: "g".into(),
            op: Mutation::InsertEdge { u: 0, v: 5, w: 3 },
        });
        let warmed = query(&mut a, "g", Query::ExactMinCut);
        assert!(!warmed.was_cached());

        let export = a.export_graph("g").expect("graph registered");
        assert_eq!(export.name(), "g");
        assert_eq!(export.epoch(), 1, "epoch travels with the entry");
        assert_eq!(a.graph_count(), 0);
        assert!(a.export_graph("g").is_none(), "second export finds nothing");

        let mut b = Engine::new();
        assert!(b.import_graph(export).is_ok());
        assert_eq!(b.epoch("g"), Some(1));
        // The warmed cache moved: the same query is a hit on the new engine.
        let again = query(&mut b, "g", Query::ExactMinCut);
        assert!(again.was_cached(), "cache must move wholesale");
        assert_eq!(again.as_cached(), warmed.as_cached());
        // So does the index: connectivity answers without a CSR build.
        assert!(matches!(
            query(&mut b, "g", Query::Connectivity),
            Response::ConnectivityValue { components: 1, .. }
        ));
        assert_eq!(b.stats().index.csr_builds, 0);

        // Mutating after the move behaves exactly like a local graph.
        let r = b
            .execute(Request::Mutate { name: "g".into(), op: Mutation::DeleteEdge { u: 0, v: 5 } });
        assert!(matches!(r, Response::Mutated { epoch: 2, .. }), "got {r}");
        assert!(!query(&mut b, "g", Query::ExactMinCut).was_cached());
    }

    #[test]
    fn import_rejects_name_collisions_untouched() {
        let mut a = Engine::new();
        create(&mut a, "g", GraphSpec::Cycle { n: 6 });
        let export = a.export_graph("g").unwrap();

        let mut b = Engine::new();
        create(&mut b, "g", GraphSpec::Cycle { n: 9 });
        let rejected = b.import_graph(export).expect_err("collision must fail");
        assert_eq!(rejected.name(), "g");
        // The rejected export is intact and installable elsewhere.
        let mut c = Engine::new();
        assert!(c.import_graph(rejected).is_ok());
        assert!(matches!(
            query(&mut c, "g", Query::ExactMinCut),
            Response::CutValue { weight: 2, .. }
        ));
    }

    #[test]
    fn snapshot_with_a_huge_edge_count_is_an_error() {
        // The edge count heads the edge lines; a trace that claims far more
        // than it holds must fail on the missing lines, not abort reserving
        // room for them.
        let trace = "graph g 3 0\nedges 1099511627776\n0 1 1\n";
        assert!(GraphExport::from_trace(trace, 16).is_err());
    }

    #[test]
    fn snapshot_edges_are_validated_like_created_ones() {
        // The pair table and the cut code assume no self-loops and no
        // zero weights; a snapshot file must not bring one in.
        for edge in ["0 0 1", "0 1 0", "0 3 1"] {
            let trace = format!("graph g 3 0\nedges 1\n{edge}\ncache 0\nend\n");
            let err = GraphExport::from_trace(&trace, 16).expect_err(edge);
            assert!(err.ends_with("in snapshot"), "{edge}: {err}");
        }
        assert!(GraphExport::from_trace("graph g 3 0\nedges 1\n0 1 1\ncache 0\nend\n", 16).is_ok());
    }

    #[test]
    fn seeded_queries_cache_by_seed() {
        let mut e = Engine::new();
        create(&mut e, "g", GraphSpec::ConnectedGnm { n: 24, m: 60, w_min: 1, w_max: 9, seed: 3 });
        let a = query(&mut e, "g", Query::ApproxMinCut { seed: 10 });
        let b = query(&mut e, "g", Query::ApproxMinCut { seed: 11 });
        assert!(!b.was_cached(), "different seed is a different query");
        let a2 = query(&mut e, "g", Query::ApproxMinCut { seed: 10 });
        assert!(a2.was_cached());
        assert_eq!(a2.as_cached(), a.as_cached());
        let _ = (a, b);
    }
}
