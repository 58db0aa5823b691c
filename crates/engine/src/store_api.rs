//! The durability seam: what the engine asks of a persistence backend.
//!
//! The engine never touches the filesystem itself. When a store is
//! attached ([`crate::Engine::attach_store`]), the engine calls these
//! hooks at well-defined points of request execution:
//!
//! - [`GraphStore::log`] after every **applied** named request against a
//!   resident graph (creates, mutations, queries — responses included,
//!   errors included). Queries are logged too because serving one can
//!   mutate cache state (stale-entry removal, LRU recency), and recovery
//!   must reproduce responses — `cached` flags and all — byte-exactly.
//! - [`GraphStore::drop_graph`] when a drop succeeds, so the backend can
//!   tombstone and garbage-collect the graph's files.
//! - [`GraphStore::wants_snapshot`] / [`GraphStore::snapshot`] after a
//!   log append: the backend decides when a graph's WAL has grown enough
//!   to be worth compacting into a wholesale-state snapshot (the
//!   serialized [`crate::GraphExport`] trace).
//! - [`GraphStore::spill`] when the engine evicts a cold graph under a
//!   residency cap, and [`GraphStore::load`] when a request touches a
//!   graph that is not resident (spilled earlier, or durable from a
//!   previous process).
//!
//! The trait lives here (not in `cut_store`) so the engine stays free of
//! filesystem dependencies and the store crate can depend on the engine
//! for the request/response codec without a cycle.

use crate::request::{Request, Response};

/// A persistence backend for named graphs: write-ahead logging, snapshot
/// compaction, cold-graph spill, and crash recovery.
///
/// Implementations must be thread-safe: the sharded front-end shares one
/// store across all its shards (each graph is only ever touched under its
/// owning shard's lock, but different shards log concurrently).
pub trait GraphStore: Send + Sync {
    /// Append one applied `(request, response)` pair to `name`'s WAL.
    /// Called after execution, before the response is released to the
    /// caller — a logged record implies the effect is applied.
    fn log(&self, name: &str, request: &Request, response: &Response);

    /// True when the backend holds durable state for `name` (a WAL, a
    /// snapshot, or both — and no tombstone after them).
    fn contains(&self, name: &str) -> bool;

    /// Every graph name with durable state, sorted.
    fn names(&self) -> Vec<String>;

    /// True when `name`'s WAL has grown enough since the last snapshot
    /// that the engine should hand over a fresh wholesale-state snapshot.
    fn wants_snapshot(&self, name: &str) -> bool;

    /// Persist `state` (a [`crate::GraphExport`] trace) as `name`'s new
    /// snapshot and compact the WAL behind it.
    fn snapshot(&self, name: &str, state: &str);

    /// Persist `state` as `name`'s snapshot because the engine is
    /// evicting the graph from memory — same bytes as
    /// [`GraphStore::snapshot`], counted separately.
    fn spill(&self, name: &str, state: &str);

    /// Read back everything needed to reconstruct `name`: the latest
    /// valid snapshot (if any) plus the WAL records past its watermark.
    /// `None` when the backend holds nothing for `name`.
    fn load(&self, name: &str) -> Option<RecoveredGraph>;

    /// Record a successful drop: tombstone the WAL, then garbage-collect
    /// `name`'s files.
    fn drop_graph(&self, name: &str, request: &Request, response: &Response);

    /// The backend's counter families for the telemetry registry, as
    /// `(name, value)` pairs — exported under the `store_` prefix by
    /// `stats metrics` (recovery tallies like torn tails truncated and
    /// tombstones collected, plus running append/compaction counts).
    /// Defaults to none so trivial backends need not bother. Because the
    /// store is shared across shards, exactly one shard exports these per
    /// merged snapshot.
    fn telemetry(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
}

/// What [`GraphStore::load`] returns: the raw material for rebuilding one
/// graph's in-memory state.
pub struct RecoveredGraph {
    /// The latest valid snapshot as a [`crate::GraphExport`] trace, if
    /// one was ever written.
    pub snapshot: Option<String>,
    /// Request trace lines logged after the snapshot's watermark, in
    /// append order. Replaying them through normal execution reproduces
    /// the exact pre-crash state (epochs, cache contents, recency).
    pub wal: Vec<String>,
}
