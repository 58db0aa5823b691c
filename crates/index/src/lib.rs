//! # `cut-index` — the per-graph incremental index layer
//!
//! The serving engine (`cut_engine`) answers queries against graphs that
//! mutate between reads. Recomputing per-request representations from the
//! raw edge list makes every request cost O(m) before the algorithm even
//! starts; this crate owns the state that amortizes that cost away:
//!
//! - [`GraphIndex`] — one per registered graph:
//!   - a **vertex-pair table**: each joined pair's summed weight, each
//!     edge's pair and the exact total weight, kept current by every
//!     insert and delete in O(log p). The first read after a mutation
//!     builds the **pair graph** ([`PairGraph`], exactly
//!     `Graph::collapsed()` of the edge list) from it in O(n + p), and
//!     the cut queries that see a pair only through its summed weight
//!     read that;
//!   - a **CSR snapshot** of the edge list, for the algorithms that rank
//!     every parallel edge: built at most once per mutation, every read
//!     between two mutations shares the same build, and the next mutation
//!     frees it (the pair graph too);
//!   - **fully dynamic connectivity** ([`DynConn`], a Holm–de
//!     Lichtenberg–Thorup-style level structure): inserts *and* deletes
//!     are absorbed in amortized polylog time, so
//!     [`GraphIndex::components_live`] answers `Connectivity` in O(1)
//!     with zero BFS and zero rebuilds, and
//!     [`GraphIndex::partition_generation`] certifies when the vertex
//!     partition last changed (the engine's cut-cache gate). It also
//!     counts each pair's parallel copies for the pair table.
//!
//!   No notification can overflow: the total weight is a `u128` and pair
//!   sums wrap, exact while the total fits in `u64`.
//! - [`LruCache`] — a real least-recently-used map (doubly-linked order
//!   over an arena, O(1) get/insert/evict) replacing reset-on-full
//!   policies; the engine keys it by query value.
//! - [`IndexStats`] — the observability counters the stress harness
//!   reports: pair-graph and CSR builds vs. reuses, and LRU evictions.
//!
//! Everything here is deterministic: no wall clocks, no hash-order
//! decisions (LRU eviction follows recency order, snapshot builds follow
//! generation numbers), so layering the index under an engine never
//! changes a response stream — only how much work producing it costs.
//!
//! ```
//! use cut_graph::Edge;
//! use cut_index::GraphIndex;
//!
//! // A path 0-1-2 plus an isolated vertex 3.
//! let edges = vec![Edge::new(0, 1, 4), Edge::new(1, 2, 7)];
//! let mut index = GraphIndex::new(4, &edges);
//!
//! // Connectivity is answered by the dynamic forest — no BFS, no CSR
//! // build.
//! assert_eq!(index.components_live(4, &edges), 2);
//!
//! // The pair graph is built once per generation ...
//! let (pairs, built) = index.pair_graph(4, &edges);
//! assert!(built);
//! assert_eq!(pairs.graph().m(), 2);
//! let (_, built) = index.pair_graph(4, &edges);
//! assert!(!built, "second read reuses the build");
//!
//! // ... and so is the CSR snapshot.
//! let (_, built) = index.snapshot(4, &edges);
//! assert!(built);
//! ```

pub mod dynconn;
pub mod index;
pub mod lru;
mod pairs;

pub use dynconn::DynConn;
pub use index::{GraphIndex, IndexStats};
pub use lru::LruCache;
pub use pairs::PairGraph;
