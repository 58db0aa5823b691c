//! The vertex-pair table: one entry per joined vertex pair, kept in step
//! with the owner's edge list, and the pair graph built from it.
//!
//! Every cut the engine serves from the pair graph (exact and s-t cuts,
//! and the approximate and k-cuts below their exact base cases) sees a
//! vertex pair only through the pair's summed weight. So the table keeps
//! that sum per pair, and each read after a mutation builds
//! [`Graph::collapsed`]'s graph in O(n + p) from it instead of copying
//! all m edges into a CSR and folding them back into pairs.
//!
//! Pairs live in numbered **slots**. A pair keeps its slot while any copy
//! of it is present; the slot is freed with the pair's last copy and
//! reused by the next new pair. Each edge of the owner's list records its
//! pair's slot, so a per-edge pass (the singleton query's m clocks) finds
//! its pair in O(1). The pair multiplicity is not kept here: the dynamic
//! forest already counts the parallel copies of each pair, and the owner
//! says when a delete removed a pair's last copy.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use cut_graph::{Edge, Graph};

/// A slot's "no pair" marker in a built [`PairGraph`]'s position array.
const FREE: u32 = u32::MAX;

/// Per-pair summed weights, each edge's pair slot, and the exact total
/// weight of the owner's edge list.
///
/// Pair weights are summed with wrapping arithmetic, so no insert or
/// delete can overflow. Each pair's true sum is at most `total`, so
/// while `total` fits in `u64` every stored sum is exact; a caller that
/// reads sums checks [`total`](PairTable::total) first.
pub(crate) struct PairTable {
    /// Slot of each joined pair `(u, v)`, `u < v`.
    slots: BTreeMap<(u32, u32), u32>,
    /// Summed weight per slot (wrapping; exact while `total` fits).
    weight: Vec<u64>,
    /// Slot of each edge, in the owner's edge order.
    edge_slot: Vec<u32>,
    /// Slots freed by a pair's last delete, reused first.
    free: Vec<u32>,
    /// Exact sum of every edge weight.
    total: u128,
}

#[inline]
fn norm(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

impl PairTable {
    /// The table of `edges` (no self-loops).
    pub(crate) fn new(edges: &[Edge]) -> Self {
        let mut table = Self {
            slots: BTreeMap::new(),
            weight: Vec::new(),
            edge_slot: Vec::with_capacity(edges.len()),
            free: Vec::new(),
            total: 0,
        };
        for &e in edges {
            table.insert(e);
        }
        table
    }

    /// `e` was appended to the owner's edge list: O(log p).
    pub(crate) fn insert(&mut self, e: Edge) {
        debug_assert_ne!(e.u, e.v, "the owner's edge list holds no self-loops");
        let slot = match self.slots.entry(norm(e.u, e.v)) {
            Entry::Occupied(pair) => *pair.get(),
            Entry::Vacant(pair) => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.weight.push(0);
                    (self.weight.len() - 1) as u32
                });
                *pair.insert(slot)
            }
        };
        self.weight[slot as usize] = self.weight[slot as usize].wrapping_add(e.w);
        self.edge_slot.push(slot);
        self.total += u128::from(e.w);
    }

    /// The edge `e` at position `i` was removed from the owner's edge list
    /// (later edges shift down one place); `last_copy` says no other edge
    /// joins its pair now. O(log p) plus the shift of the slot list, which
    /// mirrors the owner's own `Vec::remove`.
    pub(crate) fn delete(&mut self, i: usize, e: Edge, last_copy: bool) {
        let slot = self.edge_slot.remove(i);
        self.weight[slot as usize] = self.weight[slot as usize].wrapping_sub(e.w);
        self.total -= u128::from(e.w);
        if last_copy {
            let freed = self.slots.remove(&norm(e.u, e.v));
            debug_assert_eq!(freed, Some(slot), "edge {i} was filed under its pair's slot");
            self.free.push(slot);
        }
    }

    /// Exact sum of every edge weight.
    pub(crate) fn total(&self) -> u128 {
        self.total
    }

    /// Build the pair graph on `n` vertices: O(n + p).
    pub(crate) fn build(&self, n: usize) -> PairBuild {
        let mut position = vec![FREE; self.weight.len()];
        let edges = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, (&(u, v), &slot))| {
                position[slot as usize] = i as u32;
                Edge::new(u, v, self.weight[slot as usize])
            })
            .collect();
        PairBuild { graph: Graph::new_unchecked(n, edges), position }
    }

    /// The read view of `build` over this table's edge slots.
    pub(crate) fn view<'a>(&'a self, build: &'a PairBuild) -> PairGraph<'a> {
        PairGraph { graph: &build.graph, position: &build.position, edge_slot: &self.edge_slot }
    }
}

/// A built pair graph, kept until the next mutation.
pub(crate) struct PairBuild {
    graph: Graph,
    /// Index in `graph`'s edge list of each slot's pair (`FREE` if none).
    position: Vec<u32>,
}

/// The owner's graph with parallel edges merged: exactly
/// [`Graph::collapsed`] of its edge list (pairs `(u, v)`, `u < v`, in
/// sorted order, each weighing its edges' sum), plus each edge's pair.
#[derive(Clone, Copy)]
pub struct PairGraph<'a> {
    graph: &'a Graph,
    position: &'a [u32],
    edge_slot: &'a [u32],
}

impl<'a> PairGraph<'a> {
    /// The collapsed graph.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The index in [`graph`](PairGraph::graph)'s edge list of the pair
    /// that edge `e` of the owner's list joins: O(1).
    pub fn pair_of(&self, e: usize) -> usize {
        self.position[self.edge_slot[e] as usize] as usize
    }
}
