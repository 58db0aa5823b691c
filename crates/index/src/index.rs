//! The per-graph incremental index: a vertex-pair table and dynamic
//! connectivity kept current through every mutation, and a pair graph and
//! a CSR snapshot each built at the first read after a mutation.

use crate::dynconn::DynConn;
use crate::pairs::{PairBuild, PairGraph, PairTable};
use cut_graph::{Dsu, Edge, Graph};

/// Counters for how much work the index layer absorbed. Owned by whoever
/// drives the index (one aggregate per engine, so counters survive graph
/// drops); [`GraphIndex`] methods report what happened per call and the
/// driver folds it in here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Pair graphs and CSR snapshots built.
    pub csr_builds: u64,
    /// Reads served by the current pair graph or snapshot (builds avoided).
    pub csr_reuses: u64,
    /// Entries evicted from LRU query caches.
    pub lru_evictions: u64,
}

impl IndexStats {
    /// Fold another set of counters into this one. Exhaustive
    /// destructuring: adding a field is a compile error until it merges.
    pub fn merge(&mut self, other: &IndexStats) {
        let IndexStats { csr_builds, csr_reuses, lru_evictions } = *other;
        self.csr_builds += csr_builds;
        self.csr_reuses += csr_reuses;
        self.lru_evictions += lru_evictions;
    }
}

/// The incremental index kept alongside one graph's edge list.
///
/// The owner holds the authoritative `(n, edges)` state and *notifies* the
/// index of every change ([`note_insert`](GraphIndex::note_insert),
/// [`note_delete`](GraphIndex::note_delete),
/// [`rebuild_for`](GraphIndex::rebuild_for)); the index keeps whatever
/// derived state each notification can maintain cheaply and rebuilds the
/// rest lazily at the next read. Invariants:
///
/// - **Generations.** Every notification bumps `generation` and frees
///   the pair graph and the CSR snapshot, so either one present is
///   current: between two mutations, any number of reads share one
///   build, and a stale build never outlives the mutation that made it
///   stale.
/// - **Pair table.** Each joined vertex pair's summed weight, each edge's
///   pair, and the exact total weight are kept through every notification
///   in O(log p), so [`pair_graph`](GraphIndex::pair_graph) builds
///   [`Graph::collapsed`]'s graph in O(n + p), never touching the m
///   edges. The pair multiplicity is the dynamic forest's.
/// - **Dynamic forest.** A [`DynConn`] level structure is maintained
///   through every notification in amortized polylog time, so
///   [`components_live`](GraphIndex::components_live) /
///   [`same_component_live`](GraphIndex::same_component_live) answer in
///   O(1) with zero rebuilds — deletes included. Its partition version
///   feeds [`partition_generation`](GraphIndex::partition_generation),
///   the certificate the engine's cut-cache gating keys on. In debug
///   builds the reads cross-check against a from-scratch DSU.
///
/// No notification can overflow: the total is a `u128` and pair sums
/// wrap. Pair sums are exact while [`total_weight`](GraphIndex::total_weight)
/// fits in `u64`; a reader of the pair graph checks it first.
pub struct GraphIndex {
    /// Bumped by every noted mutation.
    generation: u64,
    /// Per-pair weights, per-edge pairs and the total weight.
    pairs: PairTable,
    /// Lazily built pair graph; `None` from every mutation until the next
    /// read.
    pair_graph: Option<PairBuild>,
    /// Lazily built CSR view of the owner's edge list; `None` from every
    /// mutation until the next read.
    snapshot: Option<Graph>,
    /// Always-maintained dynamic connectivity (never rebuilt on read).
    dynconn: DynConn,
    /// The generation at (or before) which the vertex partition last
    /// changed. A cached partition-dependent answer stamped at generation
    /// `g` is still exact iff `partition_generation <= g`.
    partition_generation: u64,
}

impl GraphIndex {
    /// Index a fresh graph: the pair table and the dynamic forest are
    /// built eagerly, the pair graph and the CSR snapshot lazily on first
    /// use.
    pub fn new(n: usize, edges: &[Edge]) -> Self {
        Self {
            generation: 0,
            pairs: PairTable::new(edges),
            pair_graph: None,
            snapshot: None,
            dynconn: DynConn::new(n, edges),
            partition_generation: 0,
        }
    }

    /// Index a restored graph whose mutation history happened in a
    /// previous process: identical to [`new`](GraphIndex::new) except the
    /// generation counter resumes at `generation` instead of 0, so
    /// generation-keyed state layered above (epoch-stamped caches) stays
    /// valid across a snapshot/recover cycle.
    pub fn with_generation(n: usize, edges: &[Edge], generation: u64) -> Self {
        let mut index = Self::new(n, edges);
        index.generation = generation;
        // Conservative: the restored index cannot know when the partition
        // last changed in the previous process, so it claims "now" —
        // certificate checks then deny carries rather than risk staleness.
        index.partition_generation = generation;
        index
    }

    /// Current mutation generation (0 for a fresh index).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Exact sum of the owner's edge weights.
    pub fn total_weight(&self) -> u128 {
        self.pairs.total()
    }

    /// Every notification: a new generation, and the lazy views freed.
    fn invalidate(&mut self) {
        self.generation += 1;
        self.pair_graph = None;
        self.snapshot = None;
    }

    /// The edge `e` was appended to the owner's edge list.
    pub fn note_insert(&mut self, e: Edge) {
        self.invalidate();
        self.pairs.insert(e);
        let was = self.dynconn.version();
        self.dynconn.insert(e.u, e.v);
        if self.dynconn.version() != was {
            self.partition_generation = self.generation;
        }
    }

    /// The edge `e` at position `i` was removed from the owner's edge
    /// list, shifting the later edges down one place (`Vec::remove`).
    pub fn note_delete(&mut self, i: usize, e: Edge) {
        self.invalidate();
        // The dynamic forest absorbs the delete exactly (replacement-edge
        // search), so connectivity never rebuilds.
        let was = self.dynconn.version();
        self.dynconn.delete(e.u, e.v);
        if self.dynconn.version() != was {
            self.partition_generation = self.generation;
        }
        self.pairs.delete(i, e, self.dynconn.multiplicity(e.u, e.v) == 0);
    }

    /// The owner's graph changed wholesale (contraction relabels vertices
    /// and merges parallel edges): re-derive the pair table and the
    /// dynamic forest from the new state.
    pub fn rebuild_for(&mut self, n: usize, edges: &[Edge]) {
        self.invalidate();
        self.pairs = PairTable::new(edges);
        self.dynconn = DynConn::new(n, edges);
        // A wholesale rebuild can change the partition arbitrarily; claim
        // the current generation.
        self.partition_generation = self.generation;
    }

    /// The pair graph of `(n, edges)` at the current generation, building
    /// it from the pair table in O(n + p) if a mutation freed the last
    /// one. Returns `(pairs, built)` where `built` is true iff this call
    /// built it. In debug builds a build is checked against
    /// [`Graph::collapsed`] of `(n, edges)`; release builds read neither.
    pub fn pair_graph(&mut self, n: usize, edges: &[Edge]) -> (PairGraph<'_>, bool) {
        let built = self.pair_graph.is_none();
        let build = self.pair_graph.get_or_insert_with(|| self.pairs.build(n));
        let pairs = self.pairs.view(build);
        if built && cfg!(debug_assertions) && self.pairs.total() <= u128::from(u64::MAX) {
            let collapsed = Graph::new_unchecked(n, edges.to_vec()).collapsed();
            assert_eq!(pairs.graph().edges(), collapsed.edges(), "pair table vs collapsed()");
            for (i, e) in edges.iter().enumerate() {
                let pair = pairs.graph().edge(pairs.pair_of(i));
                assert_eq!((pair.u, pair.v), (e.u.min(e.v), e.u.max(e.v)), "edge {i}'s pair");
            }
        }
        (pairs, built)
    }

    /// The CSR view of `(n, edges)` at the current generation, building it
    /// if a mutation freed the last one. Returns `(graph, built)` where
    /// `built` is true iff this call did the O(n + m) construction — every
    /// other read between two mutations reuses the same build.
    pub fn snapshot(&mut self, n: usize, edges: &[Edge]) -> (&Graph, bool) {
        let built = self.snapshot.is_none();
        let graph = self.snapshot.get_or_insert_with(|| Graph::new_unchecked(n, edges.to_vec()));
        (graph, built)
    }

    /// Connected-component count from the dynamic forest: O(1), never
    /// rebuilds, exact through arbitrary insert/delete interleavings. In
    /// debug builds the answer is cross-checked against a from-scratch
    /// DSU over `(n, edges)` — the shadow oracle; release builds ignore
    /// the arguments entirely.
    pub fn components_live(&mut self, n: usize, edges: &[Edge]) -> usize {
        let live = self.dynconn.component_count();
        debug_assert_eq!(self.dynconn.n(), n, "index vs owner vertex count");
        debug_assert_eq!(
            live,
            {
                let mut oracle = Dsu::new(n);
                for e in edges {
                    oracle.union(e.u, e.v);
                }
                oracle.set_count()
            },
            "dynamic forest diverged from the DSU shadow oracle"
        );
        let _ = (n, edges);
        live
    }

    /// True if `u` and `v` are connected, from the dynamic forest's O(1)
    /// component labels (debug-checked against the DSU shadow oracle).
    pub fn same_component_live(&mut self, n: usize, edges: &[Edge], u: u32, v: u32) -> bool {
        let live = self.dynconn.connected(u, v);
        debug_assert_eq!(
            live,
            {
                let mut oracle = Dsu::new(n);
                for e in edges {
                    oracle.union(e.u, e.v);
                }
                oracle.same(u, v)
            },
            "dynamic forest diverged from the DSU shadow oracle for ({u}, {v})"
        );
        let _ = (n, edges);
        live
    }

    /// The generation at (or before) which the vertex partition last
    /// changed. A partition-dependent answer computed at generation `g`
    /// is still exact iff `partition_generation() <= g` — the certificate
    /// behind the engine's cut-cache carry path.
    pub fn partition_generation(&self) -> u64 {
        self.partition_generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Vec<Edge> {
        (0..n as u32 - 1).map(|i| Edge::new(i, i + 1, (i + 1) as u64)).collect()
    }

    #[test]
    fn snapshot_builds_once_per_generation() {
        let mut edges = path(5);
        let mut idx = GraphIndex::new(5, &edges);
        assert!(idx.snapshot(5, &edges).1, "first read builds");
        assert!(!idx.snapshot(5, &edges).1, "second read reuses");
        assert!(idx.pair_graph(5, &edges).1, "the pair graph builds on its own first read");
        assert!(!idx.pair_graph(5, &edges).1);
        assert!(!idx.snapshot(5, &edges).1);

        edges.push(Edge::new(0, 4, 9));
        idx.note_insert(edges[4]);
        let (g, built) = idx.snapshot(5, &edges);
        assert!(built, "an insert frees the snapshot");
        assert_eq!(g.m(), 5);
        assert!(!idx.snapshot(5, &edges).1);
        assert!(idx.pair_graph(5, &edges).1, "an insert frees the pair graph");

        let e = edges.remove(0);
        idx.note_delete(0, e);
        let (g, built) = idx.snapshot(5, &edges);
        assert!(built, "a delete frees the snapshot");
        assert_eq!(g.m(), 4);
        assert!(idx.pair_graph(5, &edges).1, "a delete frees the pair graph");
    }

    #[test]
    fn pair_graph_merges_parallel_edges_and_reuses_freed_slots() {
        let mut edges = vec![Edge::new(0, 1, 2), Edge::new(1, 2, 3), Edge::new(1, 0, 4)];
        let mut idx = GraphIndex::new(4, &edges);
        let pairs_of = |idx: &mut GraphIndex, edges: &[Edge]| {
            let (pairs, _) = idx.pair_graph(4, edges);
            let merged: Vec<(u32, u32, u64)> =
                pairs.graph().edges().iter().map(|e| (e.u, e.v, e.w)).collect();
            (merged, (0..edges.len()).map(|e| pairs.pair_of(e)).collect::<Vec<_>>())
        };
        assert_eq!(pairs_of(&mut idx, &edges), (vec![(0, 1, 6), (1, 2, 3)], vec![0, 1, 0]));

        // One copy of (0, 1) goes; the pair stays with the other's weight.
        let e = edges.remove(0);
        idx.note_delete(0, e);
        assert_eq!(pairs_of(&mut idx, &edges), (vec![(0, 1, 4), (1, 2, 3)], vec![1, 0]));
        // Its last copy goes, and a new pair takes the freed slot.
        let e = edges.remove(1);
        idx.note_delete(1, e);
        assert_eq!(pairs_of(&mut idx, &edges), (vec![(1, 2, 3)], vec![0]));
        edges.push(Edge::new(3, 0, 5));
        idx.note_insert(edges[1]);
        assert_eq!(pairs_of(&mut idx, &edges), (vec![(0, 3, 5), (1, 2, 3)], vec![1, 0]));
        assert_eq!(idx.total_weight(), 8);

        // Contraction re-derives the table.
        let contracted = vec![Edge::new(0, 1, 8)];
        idx.rebuild_for(2, &contracted);
        let (pairs, built) = idx.pair_graph(2, &contracted);
        assert!(built);
        assert_eq!(pairs.graph().edges(), &contracted[..]);
    }

    #[test]
    fn heavy_weights_sum_exactly_and_never_overflow() {
        let w = 1u64 << 63;
        let mut edges = vec![Edge::new(0, 1, w), Edge::new(1, 2, w), Edge::new(0, 2, w)];
        let mut idx = GraphIndex::new(3, &edges);
        assert_eq!(idx.total_weight(), 3 * u128::from(w));
        edges.push(Edge::new(0, 1, w));
        idx.note_insert(edges[3]);
        assert_eq!(idx.total_weight(), 4 * u128::from(w));
        let e = edges.remove(0);
        idx.note_delete(0, e);
        let e = edges.remove(2);
        idx.note_delete(2, e);
        assert_eq!(idx.total_weight(), 2 * u128::from(w));
    }

    #[test]
    fn generation_counts_every_mutation() {
        let mut edges = path(4);
        let mut idx = GraphIndex::new(4, &edges);
        assert_eq!(idx.generation(), 0);
        edges.push(Edge::new(0, 2, 1));
        idx.note_insert(edges[3]);
        let e = edges.remove(0);
        idx.note_delete(0, e);
        idx.rebuild_for(4, &edges);
        assert_eq!(idx.generation(), 3);
    }

    #[test]
    fn rebuild_for_handles_contraction_shapes() {
        let edges = path(6);
        let mut idx = GraphIndex::new(6, &edges);
        idx.snapshot(6, &edges);
        // Pretend 5 was merged into 0: n shrinks, edges relabeled.
        let contracted = vec![Edge::new(0, 1, 3), Edge::new(1, 2, 2), Edge::new(3, 4, 7)];
        idx.rebuild_for(5, &contracted);
        assert_eq!(idx.components_live(5, &contracted), 2);
        let (g, built) = idx.snapshot(5, &contracted);
        assert!(built);
        assert_eq!((g.n(), g.m(), g.total_weight()), (5, 3, 12));
    }

    #[test]
    fn edgeless_and_empty_graphs() {
        let mut idx = GraphIndex::new(0, &[]);
        assert_eq!(idx.components_live(0, &[]), 0);
        let mut idx = GraphIndex::new(3, &[]);
        assert_eq!(idx.components_live(3, &[]), 3);
        let (g, built) = idx.snapshot(3, &[]);
        assert!(built);
        assert_eq!((g.n(), g.m()), (3, 0));
        let (pairs, built) = idx.pair_graph(3, &[]);
        assert!(built);
        assert_eq!((pairs.graph().n(), pairs.graph().m()), (3, 0));
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        let mut a = IndexStats { csr_builds: 1, csr_reuses: 3, ..Default::default() };
        let b = IndexStats { csr_builds: 1, csr_reuses: 3, lru_evictions: 7 };
        a.merge(&b);
        assert_eq!(a, IndexStats { csr_builds: 2, csr_reuses: 6, lru_evictions: 7 });
    }

    #[test]
    fn live_path_absorbs_deletes_without_rebuilds() {
        let mut edges = vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(0, 2, 1)];
        let mut idx = GraphIndex::new(4, &edges);
        assert_eq!(idx.components_live(4, &edges), 2); // {0,1,2} {3}
        assert!(idx.same_component_live(4, &edges, 0, 2));
        // Delete a cycle edge: still connected.
        let e = edges.remove(2);
        idx.note_delete(2, e);
        assert_eq!(idx.components_live(4, &edges), 2);
        // Delete a bridge: the live path sees the split immediately.
        let e = edges.remove(1);
        idx.note_delete(1, e);
        assert_eq!(idx.components_live(4, &edges), 3);
        assert!(!idx.same_component_live(4, &edges, 1, 2));
    }

    #[test]
    fn partition_generation_tracks_only_partition_changes() {
        let mut edges = vec![Edge::new(0, 1, 1)];
        let mut idx = GraphIndex::new(3, &edges);
        assert_eq!(idx.partition_generation(), 0);
        // A cycle-closing insert does not move the partition.
        edges.push(Edge::new(0, 1, 5));
        idx.note_insert(edges[1]);
        assert_eq!(idx.generation(), 1);
        assert_eq!(idx.partition_generation(), 0);
        // Deleting one parallel copy does not either.
        let e = edges.pop().unwrap();
        idx.note_delete(1, e);
        assert_eq!(idx.generation(), 2);
        assert_eq!(idx.partition_generation(), 0);
        // A merging insert does.
        edges.push(Edge::new(1, 2, 1));
        idx.note_insert(edges[1]);
        assert_eq!(idx.partition_generation(), 3);
        // A splitting delete does.
        let e = edges.pop().unwrap();
        idx.note_delete(1, e);
        assert_eq!(idx.partition_generation(), 4);
        // rebuild_for claims the current generation conservatively.
        idx.rebuild_for(3, &edges);
        assert_eq!(idx.partition_generation(), idx.generation());
        // ... as does a restore.
        let idx = GraphIndex::with_generation(3, &edges, 41);
        assert_eq!(idx.partition_generation(), 41);
    }
}
