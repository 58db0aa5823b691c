//! # `cut-engine` — a long-lived, multi-graph cut-query engine
//!
//! The paper's algorithms ((2+ε) Min Cut, (4+ε) Min k-Cut, singleton cuts)
//! become *servable*: an [`Engine`] owns a registry of named graphs, takes
//! mutations (insert/delete weighted edges, contract vertices) and queries
//! (min cut, singleton cut, k-cut, connectivity, s-t cut weight) through a
//! single [`Engine::execute`]`(Request) -> Response` entry point, and
//! caches query answers with **mutation-epoch invalidation**: repeated
//! queries against an unchanged graph are O(1) hash lookups, and any
//! mutation invalidates exactly that graph's cached answers.
//!
//! Two execution fronts share that contract:
//!
//! - [`Engine`] — the single-threaded reference path: one registry, one
//!   thread, deterministic end to end.
//! - [`ShardedEngine`] (the [`shard`] module) — the scaling path: the
//!   registry is partitioned across N shards by a stable hash of the
//!   graph name, each shard a lock around its own [`Engine`]. Requests
//!   run on the calling thread, per-graph request order is lock order,
//!   callers whose graphs live on different shards run concurrently, and
//!   the response stream is byte-identical to the single-threaded
//!   engine's for any shard count. See `docs/SHARDING.md` for the
//!   determinism argument.
//!
//! A third front lives out-of-crate: the `cut_server` crate's
//! `cut-server` binary serves a [`ShardedEngine`] over TCP, speaking
//! [`Request::to_trace_line`]/[`Response::to_trace_line`] as a
//! line-delimited wire protocol (`docs/PROTOCOL.md`), and the
//! `cut_client` crate is the matching client library. The trace codec
//! doubles as the wire codec, so remote responses are byte-identical to
//! in-process ones.
//!
//! Beneath both sits the **index layer** (the `cut_index` crate): every
//! registry entry keeps a CSR snapshot (one build per mutation, shared by
//! all reads in between), a fully dynamic spanning
//! forest so `Connectivity` skips BFS and never rebuilds, running
//! degree/weight summaries, and an LRU query cache. [`EngineStats`]
//! reports how much work the layer absorbed (builds avoided, certified
//! carries, evictions).
//!
//! The [`workload`] module generates seeded, replayable request streams:
//! closed-loop (weighted action mix + Zipf graph-popularity skew) or
//! **trace-shaped** — a [`Timeline`] of phases with their own arrival
//! processes (steady / Poisson bursts / diurnal), mixes, and popularity
//! drift (hot-set rotation, flash crowds), emitting deterministic
//! arrival timestamps, and serializing losslessly to a replayable trace
//! ([`Workload::to_trace`]/[`Workload::from_trace`]). The `cut_bench`
//! crate's `stress` binary replays them closed loop through either front
//! (`--shards N`) or a remote server, and prints the log digest plus the
//! counters of the end-of-run `stats metrics` snapshot; `perfbench/`
//! measures latency. `docs/WORKLOADS.md` is the model reference.
//!
//! ```
//! use cut_engine::{Engine, GraphSpec, Mutation, Query, Request, Response};
//!
//! let mut engine = Engine::new();
//! engine.execute(Request::Create {
//!     name: "ring".into(),
//!     spec: GraphSpec::Cycle { n: 16 },
//! });
//!
//! // A cycle's min cut is 2 ...
//! let r = engine.execute(Request::Query {
//!     name: "ring".into(),
//!     query: Query::ExactMinCut,
//! });
//! assert!(matches!(r, Response::CutValue { weight: 2, cached: false, .. }));
//!
//! // ... the repeat is served from the epoch cache ...
//! let r = engine.execute(Request::Query {
//!     name: "ring".into(),
//!     query: Query::ExactMinCut,
//! });
//! assert!(r.was_cached());
//!
//! // ... and a mutation invalidates it.
//! engine.execute(Request::Mutate {
//!     name: "ring".into(),
//!     op: Mutation::InsertEdge { u: 0, v: 8, w: 5 },
//! });
//! let r = engine.execute(Request::Query {
//!     name: "ring".into(),
//!     query: Query::ExactMinCut,
//! });
//! assert!(!r.was_cached());
//! ```

//! **Durability** is a pluggable seam: [`GraphStore`] (the [`store_api`]
//! module) is the backend interface — write-ahead logging of applied
//! requests, snapshot compaction of [`GraphExport`] traces, cold-graph
//! spill under [`EngineConfig::resident_cap`], and lazy fault-in on
//! access. The `cut_store` crate is the filesystem implementation;
//! `docs/DURABILITY.md` covers the formats and the crash-recovery
//! protocol.

pub mod engine;
pub mod request;
pub mod shard;
pub mod store_api;
pub mod workload;

// The index layer under every registry entry (see the `cut_index` crate).
pub use cut_index::{GraphSummary, IndexStats, LruCache};
// The telemetry layer (see the `cut_obs` crate): the registry both fronts
// export through `stats metrics`, the span/slow-log machinery behind
// `stats slowlog`, and the clocks that drive them.
pub use cut_obs::{
    span_flags, Clock, Histogram, MonotonicClock, Registry, SlowLog, Span, TestClock,
};
pub use engine::{Engine, EngineConfig, EngineStats, GraphExport};
pub use request::{GraphSpec, Mutation, Query, Request, Response, QUERY_KINDS};
pub use shard::{ShardOptions, ShardedEngine};
pub use store_api::{GraphStore, RecoveredGraph};
pub use workload::{
    ActionMix, ArrivalProcess, Phase, PopularityDrift, Timeline, Workload, WorkloadConfig,
};
