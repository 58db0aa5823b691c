//! The per-graph incremental index: a CSR snapshot kept until the next
//! mutation, fully dynamic connectivity, and running degree/weight
//! summaries.

use crate::dynconn::DynConn;
use crate::kernel::{Kernel, KernelRead, MAX_PENDING_PATCH};
use cut_graph::{Dsu, Edge, Graph};

/// Counters for how much work the index layer absorbed. Owned by whoever
/// drives the index (one aggregate per engine, so counters survive graph
/// drops); [`GraphIndex`] methods report what happened per call and the
/// driver folds it in here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// CSR snapshots built from the edge list.
    pub csr_builds: u64,
    /// Snapshot requests served by the current build (builds avoided).
    pub csr_reuses: u64,
    /// Entries evicted from LRU query caches.
    pub lru_evictions: u64,
    /// Kernels built from scratch (two-stage reduction over the full
    /// edge list).
    pub kernel_builds: u64,
    /// Kernel reads served by an already-stamped kernel untouched.
    pub kernel_reuses: u64,
    /// Kernel reads served by folding pending live-endpoint inserts into
    /// the cached kernel instead of rebuilding.
    pub kernel_patches: u64,
    /// Degree-one eliminations applied (both stages, builds + patches).
    pub kernel_rules_deg1: u64,
    /// Degree-two smoothings applied (both stages, builds + patches).
    pub kernel_rules_deg2: u64,
    /// Heavy-edge contractions applied.
    pub kernel_rules_heavy: u64,
    /// Vertices fed into kernel builds (patches excluded: the ratio
    /// measures at-build shrink).
    pub kernel_in_vertices: u64,
    /// Live stage-2 vertices surviving kernel builds.
    pub kernel_out_vertices: u64,
}

impl IndexStats {
    /// Fold another set of counters into this one. Exhaustive
    /// destructuring: adding a field is a compile error until it merges.
    pub fn merge(&mut self, other: &IndexStats) {
        let IndexStats {
            csr_builds,
            csr_reuses,
            lru_evictions,
            kernel_builds,
            kernel_reuses,
            kernel_patches,
            kernel_rules_deg1,
            kernel_rules_deg2,
            kernel_rules_heavy,
            kernel_in_vertices,
            kernel_out_vertices,
        } = *other;
        self.csr_builds += csr_builds;
        self.csr_reuses += csr_reuses;
        self.lru_evictions += lru_evictions;
        self.kernel_builds += kernel_builds;
        self.kernel_reuses += kernel_reuses;
        self.kernel_patches += kernel_patches;
        self.kernel_rules_deg1 += kernel_rules_deg1;
        self.kernel_rules_deg2 += kernel_rules_deg2;
        self.kernel_rules_heavy += kernel_rules_heavy;
        self.kernel_in_vertices += kernel_in_vertices;
        self.kernel_out_vertices += kernel_out_vertices;
    }

    /// Total reduction-rule applications across every build and patch.
    pub fn kernel_rules_applied(&self) -> u64 {
        self.kernel_rules_deg1 + self.kernel_rules_deg2 + self.kernel_rules_heavy
    }

    /// Surviving-vertex fraction over all kernel builds, in `[0, 1]`
    /// (0 when no kernel was ever built). The whale CI gate requires
    /// this `<= 0.5`: the kernel must shed at least half the vertices.
    pub fn kernel_vertex_ratio(&self) -> f64 {
        if self.kernel_in_vertices == 0 {
            0.0
        } else {
            self.kernel_out_vertices as f64 / self.kernel_in_vertices as f64
        }
    }

    /// Fraction of snapshot requests that reused the current build, in
    /// `[0, 1]` (0 when no snapshot was ever requested).
    pub fn reuse_rate(&self) -> f64 {
        let total = self.csr_builds + self.csr_reuses;
        if total == 0 {
            0.0
        } else {
            self.csr_reuses as f64 / total as f64
        }
    }
}

/// O(1) structural facts the index keeps current across mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphSummary {
    /// Vertex count.
    pub n: usize,
    /// Edge count (parallel edges counted).
    pub m: usize,
    /// Sum of all edge weights.
    pub total_weight: u64,
    /// Largest weighted degree (0 for edgeless graphs).
    pub max_weighted_degree: u64,
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
///   the CSR snapshot, so a snapshot present is current: between two
///   mutations, any number of reads share one build, and a stale build
///   never outlives the mutation that made it stale.
/// - **Dynamic forest.** A [`DynConn`] level structure is maintained
///   through every notification in amortized polylog time, so
///   [`components_live`](GraphIndex::components_live) /
///   [`same_component_live`](GraphIndex::same_component_live) answer in
///   O(1) with zero rebuilds — deletes included. Its partition version
///   feeds [`partition_generation`](GraphIndex::partition_generation),
///   the certificate the engine's cut-cache gating keys on. In debug
///   builds the reads cross-check against a from-scratch DSU.
/// - **Summaries.** Degree/weight totals update in O(1) per edge
///   notification and are recomputed only on
///   [`rebuild_for`](GraphIndex::rebuild_for).
pub struct GraphIndex {
    /// Bumped by every noted mutation.
    generation: u64,
    /// Lazily built CSR view of the owner's edge list; `None` from every
    /// mutation until the next read.
    snapshot: Option<Graph>,
    /// Always-maintained dynamic connectivity (never rebuilt on read).
    dynconn: DynConn,
    /// The generation at (or before) which the vertex partition last
    /// changed. A cached partition-dependent answer stamped at generation
    /// `g` is still exact iff `partition_generation <= g`.
    partition_generation: u64,
    /// Weighted degree per vertex.
    degrees: Vec<u64>,
    total_weight: u64,
    m: usize,
    /// Cached two-stage reduction ([`Kernel`]), stamped with the
    /// generation its last build/patch brought it up to.
    kernel: Option<Kernel>,
    kernel_generation: u64,
    /// Inserts noted since the stamp whose endpoints may still allow a
    /// patch; drained by the next [`kernel`](GraphIndex::kernel) read.
    kernel_pending: Vec<(u32, u32, u64)>,
}

impl GraphIndex {
    /// Index a fresh graph: the dynamic forest and summaries are built
    /// eagerly, the CSR snapshot lazily on first use.
    pub fn new(n: usize, edges: &[Edge]) -> Self {
        let mut index = Self {
            generation: 0,
            snapshot: None,
            dynconn: DynConn::new(0, &[]),
            partition_generation: 0,
            degrees: Vec::new(),
            total_weight: 0,
            m: 0,
            kernel: None,
            kernel_generation: 0,
            kernel_pending: Vec::new(),
        };
        index.refresh(n, edges);
        index
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

    /// True when a snapshot was built since the last mutation (the next
    /// [`snapshot`](GraphIndex::snapshot) call will not build).
    pub fn snapshot_is_fresh(&self) -> bool {
        self.snapshot.is_some()
    }

    /// An edge `(u, v, w)` was appended to the owner's edge list.
    pub fn note_insert(&mut self, u: u32, v: u32, w: u64) {
        self.generation += 1;
        self.snapshot = None;
        // The cached kernel may be patchable across inserts (degrees only
        // grow, so the stage-1 fixpoint survives) — defer the edge and let
        // the next kernel read decide. Past the patch budget, a rebuild is
        // cheaper than replaying the backlog.
        if self.kernel.is_some() {
            self.kernel_pending.push((u, v, w));
            if self.kernel_pending.len() > MAX_PENDING_PATCH {
                self.drop_kernel();
            }
        }
        let was = self.dynconn.version();
        self.dynconn.insert(u, v);
        if self.dynconn.version() != was {
            self.partition_generation = self.generation;
        }
        self.degrees[u as usize] += w;
        self.degrees[v as usize] += w;
        self.total_weight += w;
        self.m += 1;
    }

    /// An edge `(u, v, w)` was removed from the owner's edge list.
    pub fn note_delete(&mut self, u: u32, v: u32, w: u64) {
        self.generation += 1;
        self.snapshot = None;
        // A delete can resurrect reduction preconditions retroactively
        // (e.g. un-justify a heavy contraction); no patch rule is sound,
        // so the kernel invalidates outright.
        self.drop_kernel();
        // The dynamic forest absorbs the delete exactly (replacement-edge
        // search), so connectivity never rebuilds.
        let was = self.dynconn.version();
        self.dynconn.delete(u, v);
        if self.dynconn.version() != was {
            self.partition_generation = self.generation;
        }
        self.degrees[u as usize] -= w;
        self.degrees[v as usize] -= w;
        self.total_weight -= w;
        self.m -= 1;
    }

    /// The owner's graph changed wholesale (contraction relabels vertices
    /// and merges parallel edges): re-derive everything from the new state.
    pub fn rebuild_for(&mut self, n: usize, edges: &[Edge]) {
        self.generation += 1;
        self.snapshot = None;
        self.refresh(n, edges);
    }

    fn refresh(&mut self, n: usize, edges: &[Edge]) {
        self.degrees = vec![0; n];
        self.total_weight = 0;
        self.m = edges.len();
        for e in edges {
            self.degrees[e.u as usize] += e.w;
            self.degrees[e.v as usize] += e.w;
            self.total_weight += e.w;
        }
        self.dynconn = DynConn::new(n, edges);
        // A wholesale rebuild (contraction) can change the partition
        // arbitrarily; claim the current generation.
        self.partition_generation = self.generation;
        // ... and relabel vertices, which no kernel patch can follow.
        self.drop_kernel();
    }

    fn drop_kernel(&mut self) {
        self.kernel = None;
        self.kernel_pending.clear();
    }

    /// The two-stage reduction kernel of `(n, edges)` at the current
    /// generation. Serves the stamped kernel when no mutation intervened,
    /// patches it across pending live-endpoint inserts, and otherwise
    /// runs a full build (seeding the heavy-edge bound from the running
    /// min weighted degree — an achieved singleton cut). Returns the
    /// kernel and the [`KernelRead`] attribution the caller folds into
    /// [`IndexStats`].
    pub fn kernel(&mut self, n: usize, edges: &[Edge]) -> (&Kernel, KernelRead) {
        // `if let Some(k)` can't return the borrow here (it would pin
        // `self.kernel` across the rebuild below), hence check-then-expect.
        #[allow(clippy::unnecessary_unwrap)]
        if self.kernel.is_some() && self.kernel_generation == self.generation {
            debug_assert!(self.kernel_pending.is_empty(), "stamped kernel with backlog");
            return (self.kernel.as_ref().expect("checked above"), KernelRead::Reused);
        }
        if let Some(k) = self.kernel.as_mut() {
            let pending = std::mem::take(&mut self.kernel_pending);
            let min_wdeg = self.degrees.iter().copied().min().unwrap_or(u64::MAX);
            if let Some(delta) = k.patch(&pending, min_wdeg) {
                self.kernel_generation = self.generation;
                return (
                    self.kernel.as_ref().expect("patched in place"),
                    KernelRead::Patched(delta),
                );
            }
        }
        self.drop_kernel();
        let min_wdeg = self.degrees.iter().copied().min().unwrap_or(u64::MAX);
        let (k, delta) = Kernel::build(n, edges, min_wdeg);
        self.kernel = Some(k);
        self.kernel_generation = self.generation;
        (self.kernel.as_ref().expect("just built"), KernelRead::Built(delta))
    }

    /// True when the stamped kernel matches the current generation (the
    /// next [`kernel`](GraphIndex::kernel) call will neither patch nor
    /// build).
    pub fn kernel_is_fresh(&self) -> bool {
        self.kernel.is_some() && self.kernel_generation == self.generation
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

    /// The running O(1) summaries (max degree is an O(n) scan over the
    /// maintained degree table — still no CSR, no edge scan).
    pub fn summary(&self) -> GraphSummary {
        GraphSummary {
            n: self.degrees.len(),
            m: self.m,
            total_weight: self.total_weight,
            max_weighted_degree: self.degrees.iter().copied().max().unwrap_or(0),
        }
    }

    /// Weighted degree of `v`, maintained incrementally.
    pub fn weighted_degree(&self, v: u32) -> u64 {
        self.degrees[v as usize]
    }

    /// Running edge count — O(1), unlike [`summary`](GraphIndex::summary),
    /// whose max-degree field scans the degree table.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Running total edge weight, O(1).
    pub fn total_weight(&self) -> u64 {
        self.total_weight
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
        assert!(!idx.snapshot_is_fresh());
        assert!(idx.snapshot(5, &edges).1, "first read builds");
        assert!(idx.snapshot_is_fresh());
        assert!(!idx.snapshot(5, &edges).1, "second read reuses");
        assert!(!idx.snapshot(5, &edges).1);

        edges.push(Edge::new(0, 4, 9));
        idx.note_insert(0, 4, 9);
        assert!(!idx.snapshot_is_fresh(), "an insert frees the snapshot");
        let (g, built) = idx.snapshot(5, &edges);
        assert!(built);
        assert_eq!(g.m(), 5);
        assert!(!idx.snapshot(5, &edges).1);

        let e = edges.remove(0);
        idx.note_delete(e.u, e.v, e.w);
        assert!(!idx.snapshot_is_fresh(), "a delete frees the snapshot");
        let (g, built) = idx.snapshot(5, &edges);
        assert!(built);
        assert_eq!(g.m(), 4);
    }

    #[test]
    fn generation_counts_every_mutation() {
        let mut edges = path(4);
        let mut idx = GraphIndex::new(4, &edges);
        assert_eq!(idx.generation(), 0);
        edges.push(Edge::new(0, 2, 1));
        idx.note_insert(0, 2, 1);
        let e = edges.remove(0);
        idx.note_delete(e.u, e.v, e.w);
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
        assert!(!idx.snapshot_is_fresh());
        assert_eq!(idx.components_live(5, &contracted), 2);
        assert_eq!(
            idx.summary(),
            GraphSummary { n: 5, m: 3, total_weight: 12, max_weighted_degree: 7 }
        );
    }

    #[test]
    fn summaries_track_inserts_and_deletes() {
        let mut edges = path(4); // weights 1, 2, 3
        let mut idx = GraphIndex::new(4, &edges);
        assert_eq!(
            idx.summary(),
            GraphSummary {
                n: 4,
                m: 3,
                total_weight: 6,
                max_weighted_degree: 5, // vertex 2: 2 + 3
            }
        );
        edges.push(Edge::new(0, 3, 10));
        idx.note_insert(0, 3, 10);
        assert_eq!(idx.summary().total_weight, 16);
        assert_eq!(idx.summary().max_weighted_degree, 13); // vertex 3: 3 + 10
        assert_eq!(idx.weighted_degree(0), 11);
        let e = edges.remove(0); // the (0,1,1) edge
        idx.note_delete(e.u, e.v, e.w);
        assert_eq!(
            idx.summary(),
            GraphSummary { n: 4, m: 3, total_weight: 15, max_weighted_degree: 13 }
        );
    }

    #[test]
    fn edgeless_and_empty_graphs() {
        let mut idx = GraphIndex::new(0, &[]);
        assert_eq!(idx.components_live(0, &[]), 0);
        assert_eq!(idx.summary().max_weighted_degree, 0);
        let mut idx = GraphIndex::new(3, &[]);
        assert_eq!(idx.components_live(3, &[]), 3);
        let (g, built) = idx.snapshot(3, &[]);
        assert!(built);
        assert_eq!((g.n(), g.m()), (3, 0));
    }

    #[test]
    fn stats_merge_and_reuse_rate() {
        let mut a = IndexStats { csr_builds: 1, csr_reuses: 3, ..Default::default() };
        let b = IndexStats {
            csr_builds: 1,
            csr_reuses: 3,
            lru_evictions: 7,
            kernel_builds: 1,
            kernel_reuses: 2,
            kernel_patches: 3,
            kernel_rules_deg1: 4,
            kernel_rules_deg2: 5,
            kernel_rules_heavy: 6,
            kernel_in_vertices: 10,
            kernel_out_vertices: 4,
        };
        a.merge(&b);
        assert_eq!(a.csr_builds, 2);
        assert_eq!(a.csr_reuses, 6);
        assert_eq!(a.lru_evictions, 7);
        assert_eq!(a.kernel_builds, 1);
        assert_eq!(a.kernel_reuses, 2);
        assert_eq!(a.kernel_patches, 3);
        assert_eq!(a.kernel_rules_applied(), 4 + 5 + 6);
        assert!((a.kernel_vertex_ratio() - 0.4).abs() < 1e-12);
        assert!((a.reuse_rate() - 0.75).abs() < 1e-12);
        assert_eq!(IndexStats::default().reuse_rate(), 0.0);
        assert_eq!(IndexStats::default().kernel_vertex_ratio(), 0.0);
    }

    #[test]
    fn kernel_cache_reuses_patches_and_invalidates() {
        // Two bridged K4 cliques: every vertex has degree >= 3, so all
        // eight survive stage 1 and stay patchable.
        let mut edges = Vec::new();
        for c in [0u32, 4] {
            for i in c..c + 4 {
                for j in i + 1..c + 4 {
                    edges.push(Edge::new(i, j, 4));
                }
            }
        }
        edges.push(Edge::new(3, 4, 1));
        let mut idx = GraphIndex::new(8, &edges);
        assert!(!idx.kernel_is_fresh());
        let (_, read) = idx.kernel(8, &edges);
        assert!(matches!(read, KernelRead::Built(_)));
        assert!(idx.kernel_is_fresh());
        assert!(matches!(idx.kernel(8, &edges).1, KernelRead::Reused));

        // A live-endpoint insert patches in place.
        edges.push(Edge::new(0, 7, 2));
        idx.note_insert(0, 7, 2);
        assert!(!idx.kernel_is_fresh());
        assert!(matches!(idx.kernel(8, &edges).1, KernelRead::Patched(_)));
        assert!(idx.kernel_is_fresh());

        // A delete invalidates outright: next read is a full build.
        let e = edges.pop().unwrap();
        idx.note_delete(e.u, e.v, e.w);
        assert!(matches!(idx.kernel(8, &edges).1, KernelRead::Built(_)));

        // A wholesale rebuild (contraction shape) also invalidates.
        idx.rebuild_for(8, &edges);
        assert!(!idx.kernel_is_fresh());
        assert!(matches!(idx.kernel(8, &edges).1, KernelRead::Built(_)));
    }

    #[test]
    fn kernel_insert_touching_eliminated_vertex_forces_rebuild() {
        // Pendant 3 hangs off the triangle: stage 1 eliminates it, so an
        // insert at 3 cannot patch.
        let mut edges =
            vec![Edge::new(0, 1, 2), Edge::new(1, 2, 2), Edge::new(0, 2, 2), Edge::new(0, 3, 1)];
        let mut idx = GraphIndex::new(4, &edges);
        assert!(matches!(idx.kernel(4, &edges).1, KernelRead::Built(_)));
        edges.push(Edge::new(3, 1, 5));
        idx.note_insert(3, 1, 5);
        assert!(matches!(idx.kernel(4, &edges).1, KernelRead::Built(_)));
    }

    #[test]
    fn live_path_absorbs_deletes_without_rebuilds() {
        let mut edges = vec![Edge::new(0, 1, 1), Edge::new(1, 2, 1), Edge::new(0, 2, 1)];
        let mut idx = GraphIndex::new(4, &edges);
        assert_eq!(idx.components_live(4, &edges), 2); // {0,1,2} {3}
        assert!(idx.same_component_live(4, &edges, 0, 2));
        // Delete a cycle edge: still connected.
        let e = edges.remove(2);
        idx.note_delete(e.u, e.v, e.w);
        assert_eq!(idx.components_live(4, &edges), 2);
        // Delete a bridge: the live path sees the split immediately.
        let e = edges.remove(1);
        idx.note_delete(e.u, e.v, e.w);
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
        idx.note_insert(0, 1, 5);
        assert_eq!(idx.generation(), 1);
        assert_eq!(idx.partition_generation(), 0);
        // Deleting one parallel copy does not either.
        let e = edges.pop().unwrap();
        idx.note_delete(e.u, e.v, e.w);
        assert_eq!(idx.generation(), 2);
        assert_eq!(idx.partition_generation(), 0);
        // A merging insert does.
        edges.push(Edge::new(1, 2, 1));
        idx.note_insert(1, 2, 1);
        assert_eq!(idx.partition_generation(), 3);
        // A splitting delete does.
        let e = edges.pop().unwrap();
        idx.note_delete(e.u, e.v, e.w);
        assert_eq!(idx.partition_generation(), 4);
        // rebuild_for claims the current generation conservatively.
        idx.rebuild_for(3, &edges);
        assert_eq!(idx.partition_generation(), idx.generation());
        // ... as does a restore.
        let idx = GraphIndex::with_generation(3, &edges, 41);
        assert_eq!(idx.partition_generation(), 41);
    }
}
