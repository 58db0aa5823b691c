//! Fully dynamic connectivity: a Holm–de Lichtenberg–Thorup-style level
//! structure (spanning forest per level, edge levels, replacement-edge
//! search on delete) kept current across edge inserts *and* deletes, so
//! connectivity reads never pay the O(m α) union-find rebuild a delete
//! would force on an insert-only structure.
//!
//! # Structure
//!
//! Every non-self-loop edge carries a **level** in `0..=⌊log₂ n⌋` and is
//! either a **tree** edge (part of the maintained spanning forest) or a
//! **non-tree** edge. `F_i` denotes the forest of tree edges with level
//! `≥ i`; the maintained invariants are the classic HdLT pair:
//!
//! 1. `F_0 ⊇ F_1 ⊇ …` — `F_0` is a spanning forest of the whole graph,
//!    and every level-`i` edge has both endpoints inside one `F_i` tree.
//! 2. Every `F_i` tree has at most `n / 2^i` vertices (enforced by only
//!    ever promoting edges of the *smaller* side of a split, and by
//!    freezing promotion at the top level).
//!
//! On `delete` of a tree edge at level `l`, the search walks levels
//! `l, l-1, …, 0`: at each level the smaller of the two split trees has
//! its level-`i` tree edges promoted to `i+1`, then its incident level-`i`
//! non-tree edges are scanned — an edge crossing to the other side becomes
//! the replacement tree edge (components unchanged), an internal edge is
//! promoted. Only if every level runs dry does the component actually
//! split. Promotions pay for scans: each edge can be promoted at most
//! `⌊log₂ n⌋` times, which is what makes the amortized cost polylog.
//!
//! # Reads and determinism
//!
//! Component labels are maintained eagerly (`comp[v]`, smaller-side
//! relabel on merge, fresh monotonic label on split), so
//! [`connected`](DynConn::connected) and
//! [`component_count`](DynConn::component_count) are O(1) — no BFS, no
//! rebuild, ever. All internal containers are `BTreeMap`/`BTreeSet` and
//! all tie-breaks are by size-then-fixed-side, so the structure is fully
//! deterministic: the same operation sequence always yields the same
//! internal state, on any platform.
//!
//! Parallel edges are handled by multiplicity counts on a single
//! structural edge (extra copies never change connectivity); self-loops
//! are ignored.

use cut_graph::Edge;
use std::collections::{BTreeMap, BTreeSet};

/// One structural (deduplicated) edge in the level structure.
#[derive(Debug, Clone, Copy)]
struct EdgeState {
    /// Parallel-edge multiplicity; the edge leaves the structure only when
    /// this reaches zero.
    count: u32,
    /// HdLT level in `0..=max_level`; only ever increases (promotion).
    level: usize,
    /// True iff the edge is in the spanning forest.
    tree: bool,
}

/// Deterministic fully dynamic connectivity over vertices `0..n`.
///
/// See the [module docs](self) for the invariants. The expected driver is
/// [`GraphIndex`](crate::GraphIndex), which forwards `note_insert` /
/// `note_delete` here and answers `Connectivity` queries from the O(1)
/// component labels.
pub struct DynConn {
    n: usize,
    /// `⌊log₂ n⌋` — promotion stops here, capping per-edge work.
    max_level: usize,
    /// Structural edges keyed `(min, max)`.
    edges: BTreeMap<(u32, u32), EdgeState>,
    /// Spanning-forest adjacency: vertex -> neighbor -> tree-edge level.
    tree_adj: Vec<BTreeMap<u32, usize>>,
    /// Non-tree adjacency: vertex -> level -> neighbors at that level.
    nontree: Vec<Vec<BTreeSet<u32>>>,
    /// Eager component label per vertex (O(1) reads).
    comp: Vec<u32>,
    /// Live label -> component size.
    comp_sizes: BTreeMap<u32, usize>,
    /// Next fresh label for a split-off component; monotonic, never reused.
    next_label: u32,
    /// Bumped every time the vertex partition changes (merge or split) —
    /// the certificate the engine's cut-cache gating keys on.
    version: u64,
}

#[inline]
fn norm(u: u32, v: u32) -> (u32, u32) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

impl DynConn {
    /// Build the structure for `(n, edges)`. Weights are irrelevant to
    /// connectivity and ignored; self-loops are skipped.
    pub fn new(n: usize, edges: &[Edge]) -> Self {
        let max_level = if n <= 1 { 0 } else { (usize::BITS - 1 - n.leading_zeros()) as usize };
        let mut dc = Self {
            n,
            max_level,
            edges: BTreeMap::new(),
            tree_adj: vec![BTreeMap::new(); n],
            nontree: vec![vec![BTreeSet::new(); max_level + 1]; n],
            comp: (0..n as u32).collect(),
            comp_sizes: (0..n as u32).map(|v| (v, 1)).collect(),
            next_label: n as u32,
            version: 0,
        };
        for e in edges {
            dc.insert(e.u, e.v);
        }
        // Construction is not a partition change relative to anything the
        // caller has observed.
        dc.version = 0;
        dc
    }

    /// Vertex count the structure was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of structural (deduplicated) edges currently tracked.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Parallel copies of `(u, v)` currently tracked (0 if none).
    pub fn multiplicity(&self, u: u32, v: u32) -> u32 {
        self.edges.get(&norm(u, v)).map_or(0, |st| st.count)
    }

    /// Monotonic counter bumped whenever the vertex partition changes (a
    /// merge or a split). Unchanged across inserts/deletes that do not
    /// alter which vertices are mutually reachable.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// O(1): are `u` and `v` in the same component right now?
    pub fn connected(&self, u: u32, v: u32) -> bool {
        self.comp[u as usize] == self.comp[v as usize]
    }

    /// O(1): current number of connected components (isolated vertices
    /// count).
    pub fn component_count(&self) -> usize {
        self.comp_sizes.len()
    }

    /// Insert one copy of edge `(u, v)`. Parallel copies only bump the
    /// multiplicity; a genuinely new edge enters at level 0 as a tree edge
    /// (if it joins two components — smaller side is relabeled) or a
    /// non-tree edge otherwise.
    pub fn insert(&mut self, u: u32, v: u32) {
        if u == v {
            return;
        }
        let key = norm(u, v);
        if let Some(st) = self.edges.get_mut(&key) {
            st.count += 1;
            return;
        }
        if self.comp[u as usize] != self.comp[v as usize] {
            // Joins two trees: relabel the smaller side (its tree is
            // exactly the DFS closure before the new edge is linked in).
            self.merge_components(u, v);
            self.edges.insert(key, EdgeState { count: 1, level: 0, tree: true });
            self.tree_adj[u as usize].insert(v, 0);
            self.tree_adj[v as usize].insert(u, 0);
            self.version += 1;
        } else {
            self.edges.insert(key, EdgeState { count: 1, level: 0, tree: false });
            self.nontree[u as usize][0].insert(v);
            self.nontree[v as usize][0].insert(u);
        }
    }

    /// Delete one copy of edge `(u, v)`. Returns false (and does nothing)
    /// if no such edge is tracked. Deleting a non-final parallel copy or a
    /// non-tree edge never changes connectivity; deleting a tree edge runs
    /// the replacement search and splits the component only when every
    /// level runs dry.
    pub fn delete(&mut self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        let key = norm(u, v);
        let Some(st) = self.edges.get_mut(&key) else {
            return false;
        };
        if st.count > 1 {
            st.count -= 1;
            return true;
        }
        let EdgeState { level, tree, .. } = *st;
        self.edges.remove(&key);
        if !tree {
            self.nontree[u as usize][level].remove(&v);
            self.nontree[v as usize][level].remove(&u);
            return true;
        }
        self.tree_adj[u as usize].remove(&v);
        self.tree_adj[v as usize].remove(&u);
        if !self.search_replacement(u, v, level) {
            self.split_components(u, v);
        }
        true
    }

    /// Replacement search after cutting tree edge `(u, v)` at `level`.
    /// Walks levels `level..=0` downward; returns true iff a replacement
    /// tree edge was found (components unchanged).
    fn search_replacement(&mut self, u: u32, v: u32, level: usize) -> bool {
        for i in (0..=level).rev() {
            let tu = self.level_tree(u, i);
            let tv = self.level_tree(v, i);
            // Deterministic smaller side; ties go to u's side.
            let small = if tu.len() <= tv.len() { &tu } else { &tv };

            // Promote the smaller side's level-i tree edges to i+1 first:
            // it then forms a single F_{i+1} tree of size ≤ n/2^{i+1}, so
            // promoting its internal non-tree edges preserves invariant 1.
            if i < self.max_level {
                let mut promote = Vec::new();
                for &x in small {
                    for (&y, &lvl) in &self.tree_adj[x as usize] {
                        if lvl == i && x < y {
                            promote.push((x, y));
                        }
                    }
                }
                for (x, y) in promote {
                    self.tree_adj[x as usize].insert(y, i + 1);
                    self.tree_adj[y as usize].insert(x, i + 1);
                    self.edges.get_mut(&norm(x, y)).expect("tree edge tracked").level = i + 1;
                }
            }

            // Scan the smaller side's incident level-i non-tree edges in
            // deterministic (vertex, neighbor) order. Every such edge has
            // its other endpoint in tu ∪ tv (invariant 1): crossing edges
            // reconnect, internal edges are promoted and paid for.
            for &x in small {
                let nbrs: Vec<u32> = self.nontree[x as usize][i].iter().copied().collect();
                for y in nbrs {
                    if small.contains(&y) {
                        if i < self.max_level {
                            self.nontree[x as usize][i].remove(&y);
                            self.nontree[y as usize][i].remove(&x);
                            self.nontree[x as usize][i + 1].insert(y);
                            self.nontree[y as usize][i + 1].insert(x);
                            self.edges.get_mut(&norm(x, y)).expect("non-tree edge tracked").level =
                                i + 1;
                        }
                    } else {
                        // Replacement: promote to tree edge at level i.
                        self.nontree[x as usize][i].remove(&y);
                        self.nontree[y as usize][i].remove(&x);
                        self.tree_adj[x as usize].insert(y, i);
                        self.tree_adj[y as usize].insert(x, i);
                        self.edges.get_mut(&norm(x, y)).expect("replacement edge tracked").tree =
                            true;
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Vertices reachable from `start` via tree edges of level `≥ i`
    /// (the `F_i` tree containing `start`), in sorted order.
    fn level_tree(&self, start: u32, i: usize) -> BTreeSet<u32> {
        let mut seen = BTreeSet::new();
        seen.insert(start);
        let mut stack = vec![start];
        while let Some(x) = stack.pop() {
            for (&y, &lvl) in &self.tree_adj[x as usize] {
                if lvl >= i && seen.insert(y) {
                    stack.push(y);
                }
            }
        }
        seen
    }

    /// A new tree edge is about to join `u`'s and `v`'s components:
    /// relabel the smaller side with the larger side's label.
    fn merge_components(&mut self, u: u32, v: u32) {
        let (cu, cv) = (self.comp[u as usize], self.comp[v as usize]);
        let (su, sv) = (self.comp_sizes[&cu], self.comp_sizes[&cv]);
        let (start, old, keep) = if su <= sv { (u, cu, cv) } else { (v, cv, cu) };
        let moved = self.level_tree(start, 0);
        for &x in &moved {
            self.comp[x as usize] = keep;
        }
        let removed = self.comp_sizes.remove(&old).expect("label live");
        debug_assert_eq!(removed, moved.len(), "component size bookkeeping");
        *self.comp_sizes.get_mut(&keep).expect("label live") += moved.len();
    }

    /// The replacement search ran dry: the old component splits into
    /// `u`'s and `v`'s trees. The smaller side gets a fresh monotonic
    /// label (ties go to `u`'s side).
    fn split_components(&mut self, u: u32, v: u32) {
        let tu = self.level_tree(u, 0);
        let tv = self.level_tree(v, 0);
        let small = if tu.len() <= tv.len() { &tu } else { &tv };
        let old = self.comp[u as usize];
        debug_assert_eq!(old, self.comp[v as usize], "split within one component");
        let fresh = self.next_label;
        self.next_label += 1;
        for &x in small {
            self.comp[x as usize] = fresh;
        }
        self.comp_sizes.insert(fresh, small.len());
        *self.comp_sizes.get_mut(&old).expect("label live") -= small.len();
        self.version += 1;
    }

    /// Exhaustively re-derive connectivity from the stored edges and check
    /// it against the O(1) labels and the level invariants. Test/debug
    /// aid — O(n + m α) — never called on the serving path.
    #[doc(hidden)]
    pub fn assert_consistent(&self) {
        use cut_graph::Dsu;
        // Labels agree with a from-scratch union-find over tracked edges.
        let mut dsu = Dsu::new(self.n);
        for &(a, b) in self.edges.keys() {
            dsu.union(a, b);
        }
        assert_eq!(dsu.set_count(), self.component_count(), "component count diverged");
        for a in 0..self.n as u32 {
            for b in (a + 1)..self.n as u32 {
                assert_eq!(dsu.same(a, b), self.connected(a, b), "connectivity({a}, {b}) diverged");
            }
        }
        // Sizes sum to n and match the labels.
        assert_eq!(self.comp_sizes.values().sum::<usize>(), self.n);
        for (&label, &size) in &self.comp_sizes {
            let actual = self.comp.iter().filter(|&&c| c == label).count();
            assert_eq!(actual, size, "size of label {label}");
        }
        // Adjacency mirrors the edge map exactly.
        let mut from_adj = BTreeSet::new();
        for x in 0..self.n {
            for (&y, &lvl) in &self.tree_adj[x] {
                assert_eq!(self.tree_adj[y as usize].get(&(x as u32)), Some(&lvl));
                let st = self.edges[&norm(x as u32, y)];
                assert!(st.tree && st.level == lvl, "tree adj vs edge map");
                from_adj.insert(norm(x as u32, y));
            }
            for (lvl, set) in self.nontree[x].iter().enumerate() {
                for &y in set {
                    assert!(self.nontree[y as usize][lvl].contains(&(x as u32)));
                    let st = self.edges[&norm(x as u32, y)];
                    assert!(!st.tree && st.level == lvl, "non-tree adj vs edge map");
                    from_adj.insert(norm(x as u32, y));
                }
            }
        }
        assert_eq!(from_adj.len(), self.edges.len(), "edge map vs adjacency");
        // Invariant 1: every edge lives inside one F_level tree; tree
        // edges of F_0 really span their components.
        for (&(a, b), st) in &self.edges {
            assert!(st.level <= self.max_level, "level within cap");
            assert!(self.level_tree(a, st.level).contains(&b), "edge within its F_i tree");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc(n: usize) -> DynConn {
        DynConn::new(n, &[])
    }

    #[test]
    fn fresh_structure_is_all_singletons() {
        let d = dc(4);
        assert_eq!(d.component_count(), 4);
        assert!(!d.connected(0, 3));
        assert!(d.connected(2, 2));
        assert_eq!(d.version(), 0);
        d.assert_consistent();
    }

    #[test]
    fn construction_from_edges_matches_inserts() {
        let edges = vec![Edge::new(0, 1, 5), Edge::new(1, 2, 1), Edge::new(4, 5, 2)];
        let d = DynConn::new(6, &edges);
        assert_eq!(d.component_count(), 3); // {0,1,2} {3} {4,5}
        assert!(d.connected(0, 2));
        assert!(!d.connected(2, 4));
        assert_eq!(d.version(), 0, "construction observes no change");
        d.assert_consistent();
    }

    #[test]
    fn insert_merges_and_bumps_version_only_on_partition_change() {
        let mut d = dc(4);
        d.insert(0, 1);
        assert_eq!(d.version(), 1);
        d.insert(2, 3);
        assert_eq!(d.version(), 2);
        // Parallel copy and internal (cycle) edge: no partition change.
        d.insert(0, 1);
        d.insert(1, 0);
        assert_eq!(d.version(), 2);
        d.insert(1, 2);
        assert_eq!(d.version(), 3);
        assert_eq!(d.component_count(), 1);
        d.assert_consistent();
    }

    #[test]
    fn delete_nontree_edge_keeps_components() {
        let mut d = dc(3);
        d.insert(0, 1);
        d.insert(1, 2);
        d.insert(0, 2); // closes the triangle: non-tree
        let v = d.version();
        assert!(d.delete(0, 2));
        assert_eq!(d.version(), v, "cycle edge removal is not a partition change");
        assert_eq!(d.component_count(), 1);
        d.assert_consistent();
    }

    #[test]
    fn delete_tree_edge_finds_replacement() {
        let mut d = dc(3);
        d.insert(0, 1); // tree
        d.insert(1, 2); // tree
        d.insert(0, 2); // non-tree
        let v = d.version();
        // (0,1) is a tree edge but the triangle keeps everything connected.
        assert!(d.delete(0, 1));
        assert_eq!(d.version(), v);
        assert!(d.connected(0, 1));
        assert_eq!(d.component_count(), 1);
        d.assert_consistent();
    }

    #[test]
    fn delete_bridge_splits() {
        let mut d = dc(4);
        d.insert(0, 1);
        d.insert(1, 2);
        d.insert(2, 3);
        assert!(d.delete(1, 2));
        assert_eq!(d.component_count(), 2);
        assert!(d.connected(0, 1));
        assert!(d.connected(2, 3));
        assert!(!d.connected(1, 2));
        d.assert_consistent();
    }

    #[test]
    fn parallel_edges_need_both_deletes() {
        let mut d = dc(2);
        d.insert(0, 1);
        d.insert(0, 1);
        assert!(d.delete(0, 1));
        assert!(d.connected(0, 1), "one copy left");
        assert!(d.delete(1, 0));
        assert!(!d.connected(0, 1));
        assert!(!d.delete(0, 1), "nothing left to delete");
        d.assert_consistent();
    }

    #[test]
    fn self_loops_and_missing_edges_are_ignored() {
        let mut d = dc(2);
        d.insert(1, 1);
        assert_eq!(d.edge_count(), 0);
        assert!(!d.delete(1, 1));
        assert!(!d.delete(0, 1));
        d.assert_consistent();
    }

    #[test]
    fn delete_reinsert_cycles_stay_exact() {
        let mut d = dc(5);
        for i in 0..4 {
            d.insert(i, i + 1);
        }
        for _ in 0..8 {
            assert!(d.delete(2, 3));
            assert_eq!(d.component_count(), 2);
            assert!(!d.connected(0, 4));
            d.insert(2, 3);
            assert_eq!(d.component_count(), 1);
            assert!(d.connected(0, 4));
        }
        d.assert_consistent();
    }

    #[test]
    fn promotion_path_exercised_by_dense_cluster() {
        // Two 4-cliques joined by a bridge: deleting interior tree edges
        // repeatedly forces replacement searches and level promotions.
        let mut d = dc(8);
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                d.insert(a, b);
                d.insert(a + 4, b + 4);
            }
        }
        d.insert(3, 4);
        assert_eq!(d.component_count(), 1);
        // Shave the left clique down to the path 0-3-2-1, one delete at a
        // time; connectivity must survive every step.
        for (a, b) in [(0u32, 1u32), (0, 2), (1, 3)] {
            assert!(d.delete(a, b));
            assert_eq!(d.component_count(), 1, "after delete ({a},{b})");
            d.assert_consistent();
        }
        // Left side is now 0-3, 1-2, 2-3 plus the 3-4 bridge. Cutting 2-3
        // strands {1, 2}; everything else stays attached through 3-4.
        assert!(d.delete(2, 3));
        assert_eq!(d.component_count(), 2);
        assert!(d.connected(1, 2));
        assert!(d.connected(0, 7));
        assert!(!d.connected(2, 3));
        d.assert_consistent();
    }

    #[test]
    fn labels_are_deterministic_across_identical_runs() {
        let run = || {
            let mut d = dc(6);
            let ops: &[(bool, u32, u32)] = &[
                (true, 0, 1),
                (true, 1, 2),
                (true, 3, 4),
                (true, 2, 3),
                (false, 1, 2),
                (true, 5, 0),
                (false, 2, 3),
            ];
            for &(ins, a, b) in ops {
                if ins {
                    d.insert(a, b);
                } else {
                    d.delete(a, b);
                }
            }
            (d.comp.clone(), d.version())
        };
        assert_eq!(run(), run());
    }
}
