//! Algorithm 3 — `SmallestSingletonCut` (Theorem 3), reference engine.
//!
//! Pipeline (§4.2–4.4):
//!
//! 1. minimum spanning forest under the contraction priorities (the only
//!    edges that change the contraction topology, §4.1);
//! 2. generalized low-depth decomposition of the forest (Algorithm 2);
//! 3. leaders (Definition 7): with a valid decomposition every vertex is
//!    the unique minimum-label vertex of its component in `T_{ℓ(v)}`;
//!    `ldr_time` comes from the ≤ 2 boundary edges of that component
//!    (Lemmas 10–11);
//! 4. per-(edge, leader) time intervals (Lemmas 12–13), resolved through
//!    leader chains in the separator tree instead of per-level re-rooting
//!    (equivalence property-tested in `cut-tree::septree`). An edge's
//!    intervals depend only on its endpoints, never on its own priority,
//!    so [`SingletonEngine::smallest`] builds them once per distinct
//!    vertex pair with the pair's summed weight: parallel edges cost one
//!    O(m) folding pass, not one leader-chain walk each;
//! 5. per-leader weighted stabbing minimum (Lemma 14) and a global min
//!    (Observation 7, restricted to proper bags).
//!
//! This engine is exact: its output equals the contraction oracle's on
//! every input (tested exhaustively and property-based), and pair folding
//! leaves the coverage at every time — hence `(weight, leader, time)` —
//! unchanged (tested against the per-edge [`SingletonEngine::leader_intervals`]).

use cut_graph::{kruskal, Graph};
use cut_tree::lowdepth::low_depth_decomposition;
use cut_tree::rmq::{HldPathQuery, RmqOp};
use cut_tree::rooted::NONE;
use cut_tree::{Hld, RootedForest, SepTree};

use crate::contraction::bag_of;
use crate::intervals::{min_stabbing_weight, WInterval};

/// The smallest singleton cut found during a contraction process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingletonCut {
    /// Weight of the cut (`Δbag(leader, time)`).
    pub weight: u64,
    /// Leader of the realizing bag.
    pub leader: u32,
    /// Time at which the bag realizes the weight.
    pub time: u64,
}

/// Precomputed decomposition state for one `(graph, priorities)` pair.
///
/// Exposes the intermediate quantities (labels, leader chains, `ldr_time`)
/// so tests and the in-model engine can probe each lemma separately.
pub struct SingletonEngine {
    /// Rooted spanning forest of the contraction-relevant edges.
    pub forest: RootedForest,
    /// Priority of each vertex's parent edge in `forest` (0 at roots).
    pub parent_prio: Vec<u64>,
    /// Heavy-light decomposition of the forest.
    pub hld: Hld,
    /// Low-depth decomposition labels (Definition 1).
    pub label: Vec<u32>,
    /// Decomposition height.
    pub height: u32,
    /// Separator tree / leader chains.
    pub sep: SepTree,
    /// Path-maximum query structure over tree-edge priorities (Theorem 4).
    pub pathq: HldPathQuery,
    /// `ldr_time(v)` for every vertex (Definition 7, Lemma 11).
    pub ldr: Vec<u64>,
}

impl SingletonEngine {
    /// Build the full decomposition state for `g` under `prio`.
    pub fn new(g: &Graph, prio: &[u64]) -> Self {
        let n = g.n();
        assert!(n >= 2, "need at least 2 vertices");
        assert_eq!(prio.len(), g.m());

        let forest = kruskal(g, prio);
        let pairs: Vec<(u32, u32)> = forest
            .edges
            .iter()
            .map(|&ei| {
                let e = g.edge(ei as usize);
                (e.u, e.v)
            })
            .collect();
        let rooted = RootedForest::from_edges(n, &pairs);
        // Priority of each vertex's parent edge (forest.parent_edge indexes
        // into `pairs`, which parallels `forest.edges`).
        let mut edge_prio = vec![0u64; n];
        #[allow(clippy::needless_range_loop)] // v is a vertex id indexing parallel arrays
        for v in 0..n {
            let pe = rooted.parent_edge[v];
            if pe != NONE {
                edge_prio[v] = prio[forest.edges[pe as usize] as usize];
            }
        }

        let hld = Hld::new(&rooted);
        let labels = low_depth_decomposition(&rooted, &hld);
        debug_assert!(
            cut_tree::validate_decomposition(&rooted, &labels.label).is_ok(),
            "invalid low-depth decomposition"
        );
        let sep = SepTree::new(&rooted, &labels.label);
        let pathq = HldPathQuery::new(&rooted, &hld, &edge_prio, RmqOp::Max);

        // ldr_time (Lemma 11): boundary tree edges via leader chains.
        // A tree edge (c, p) with differing labels is a boundary edge of
        // every chain component of its higher-label endpoint whose level
        // exceeds the lower label.
        let mut ldr = vec![u64::MAX; n];
        for v in 0..n as u32 {
            let p = rooted.parent[v as usize];
            if p == v {
                continue;
            }
            let (hi, lo) =
                if labels.label[v as usize] > labels.label[p as usize] { (v, p) } else { (p, v) };
            let lo_label = labels.label[lo as usize];
            let mut u = hi;
            loop {
                if labels.label[u as usize] <= lo_label {
                    break;
                }
                let join = pathq.join_time(u, lo);
                debug_assert!(join >= 1);
                ldr[u as usize] = ldr[u as usize].min(join - 1);
                match sep.parent[u as usize] {
                    q if q == NONE => break,
                    q => u = q,
                }
            }
        }
        // Global (separator-root) leaders: the bag may grow to the entire
        // tree component. A full component is a proper cut iff the graph
        // has other vertices.
        let comp_max = component_max_prio(&rooted, &edge_prio);
        let mut comp_size = vec![0u32; n];
        for v in 0..n as u32 {
            let r = root_of(&rooted, v);
            comp_size[r as usize] += 1;
        }
        for v in 0..n as u32 {
            if sep.parent[v as usize] == NONE {
                let r = root_of(&rooted, v);
                let full_is_proper = (comp_size[r as usize] as usize) < n;
                ldr[v as usize] = if full_is_proper {
                    comp_max[r as usize]
                } else {
                    comp_max[r as usize].saturating_sub(1)
                };
            } else {
                debug_assert_ne!(ldr[v as usize], u64::MAX, "non-root leader without boundary");
            }
        }

        Self {
            forest: rooted,
            parent_prio: edge_prio,
            hld,
            label: labels.label,
            height: labels.height,
            sep,
            pathq,
            ldr,
        }
    }

    /// All per-leader interval lists for the edges of `g` (Lemma 13), one
    /// interval set per edge — the reference [`SingletonEngine::smallest`]
    /// is tested against, and what `fig_1_2_3` prints.
    ///
    /// `out[v]` holds the weighted boundary intervals of leader `v`,
    /// already clipped to `[0, ldr_time(v)]`.
    pub fn leader_intervals(&self, g: &Graph) -> Vec<Vec<WInterval>> {
        let n = g.n();
        let mut out: Vec<Vec<WInterval>> = vec![Vec::new(); n];
        for e in g.edges() {
            let (x, y, w) = (e.u, e.v, e.w);
            match self.sep.meet(x, y) {
                Some(meet) => {
                    // Chain segments below the meet: the other endpoint is
                    // outside the leader's component (Case 3a / Case 2).
                    self.cross_intervals(x, meet, w, &mut out);
                    self.cross_intervals(y, meet, w, &mut out);
                    // Common suffix from the meet to the root: both
                    // endpoints inside (Case 3b).
                    let mut u = meet;
                    loop {
                        let ldr = self.ldr[u as usize];
                        let tx = self.pathq.join_time(x, u);
                        let ty = self.pathq.join_time(y, u);
                        let s = tx.min(ty);
                        let e_raw = tx.max(ty).saturating_sub(1);
                        let e_clip = e_raw.min(ldr);
                        if s <= e_clip {
                            out[u as usize].push((s, e_clip, w));
                        }
                        match self.sep.parent[u as usize] {
                            q if q == NONE => break,
                            q => u = q,
                        }
                    }
                }
                None => {
                    // Different tree components: the other endpoint never
                    // joins any of these leaders' bags.
                    self.cross_intervals_full(x, w, &mut out);
                    self.cross_intervals_full(y, w, &mut out);
                }
            }
        }
        out
    }

    fn cross_intervals(&self, x: u32, stop_exclusive: u32, w: u64, out: &mut [Vec<WInterval>]) {
        let mut u = x;
        while u != stop_exclusive {
            self.push_cross(x, u, w, out);
            match self.sep.parent[u as usize] {
                q if q == NONE => break,
                q => u = q,
            }
        }
    }

    fn cross_intervals_full(&self, x: u32, w: u64, out: &mut [Vec<WInterval>]) {
        let mut u = x;
        loop {
            self.push_cross(x, u, w, out);
            match self.sep.parent[u as usize] {
                q if q == NONE => break,
                q => u = q,
            }
        }
    }

    fn push_cross(&self, x: u32, u: u32, w: u64, out: &mut [Vec<WInterval>]) {
        let ldr = self.ldr[u as usize];
        let tx = self.pathq.join_time(x, u);
        if tx <= ldr {
            out[u as usize].push((tx, ldr, w));
        }
    }

    /// The smallest singleton cut (Theorem 3's output).
    ///
    /// Intervals are built on `g.collapsed()`: parallel edges get identical
    /// intervals, and [`min_stabbing_weight`] sums every event at one time
    /// before it compares, so one interval per pair with the summed weight
    /// gives the same coverage — and the same `(weight, time)` per leader —
    /// as one interval per edge.
    pub fn smallest(&self, g: &Graph) -> SingletonCut {
        let per_leader = self.leader_intervals(&g.collapsed());
        let mut best = SingletonCut { weight: u64::MAX, leader: 0, time: 0 };
        for v in 0..g.n() as u32 {
            let (w, t) = min_stabbing_weight(&per_leader[v as usize], self.ldr[v as usize]);
            if w < best.weight {
                best = SingletonCut { weight: w, leader: v, time: t };
            }
        }
        best
    }

    /// `bag(leader, time)`, sorted: the vertices joined to `leader` by
    /// forest edges of priority `≤ time` — what [`bag_of`] returns, read
    /// off this engine's rooted forest instead of a second Kruskal run.
    pub fn bag(&self, leader: u32, time: u64) -> Vec<u32> {
        let f = &self.forest;
        // The bag is a subtree: climb to its top, then collect downwards.
        let mut top = leader;
        while !f.is_root(top) && self.parent_prio[top as usize] <= time {
            top = f.parent[top as usize];
        }
        let mut out = vec![top];
        let mut head = 0;
        while head < out.len() {
            let v = out[head];
            head += 1;
            out.extend(f.children(v).iter().filter(|&&c| self.parent_prio[c as usize] <= time));
        }
        out.sort_unstable();
        out
    }
}

fn root_of(forest: &RootedForest, mut v: u32) -> u32 {
    while !forest.is_root(v) {
        v = forest.parent[v as usize];
    }
    v
}

fn component_max_prio(forest: &RootedForest, edge_prio: &[u64]) -> Vec<u64> {
    let n = forest.n();
    let mut comp_max = vec![0u64; n];
    for v in 0..n as u32 {
        if !forest.is_root(v) {
            let r = root_of(forest, v);
            comp_max[r as usize] = comp_max[r as usize].max(edge_prio[v as usize]);
        }
    }
    comp_max
}

/// Convenience wrapper: build the engine and return the smallest singleton
/// cut for `(g, prio)`.
pub fn smallest_singleton_cut(g: &Graph, prio: &[u64]) -> SingletonCut {
    SingletonEngine::new(g, prio).smallest(g)
}

/// Recover the vertex side realizing a [`SingletonCut`].
pub fn singleton_cut_side(g: &Graph, prio: &[u64], cut: SingletonCut) -> Vec<u32> {
    bag_of(g, prio, cut.leader, cut.time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contraction::contraction_oracle;
    use crate::priorities::exponential_priorities;
    use cut_graph::{cut_weight, gen, Edge};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn check_matches_oracle(g: &Graph, prio: &[u64]) {
        let cut = smallest_singleton_cut(g, prio);
        let oracle = contraction_oracle(g, prio);
        assert_eq!(
            cut.weight,
            oracle.min_singleton,
            "engine={cut:?} oracle={oracle:?} edges={:?} prio={prio:?}",
            g.edges()
        );
        // The reported (leader, time) realizes the weight.
        let side = singleton_cut_side(g, prio, cut);
        assert!(!side.is_empty() && side.len() < g.n(), "side must be proper");
        let mut mask = vec![false; g.n()];
        for &v in &side {
            mask[v as usize] = true;
        }
        assert_eq!(cut_weight(g, &mask), cut.weight, "side does not realize weight");
        assert_eq!(SingletonEngine::new(g, prio).bag(cut.leader, cut.time), side);
    }

    /// Reference Algorithm 3: one interval set per edge, and the side from
    /// `bag_of`'s own Kruskal run.
    fn per_edge_reference(g: &Graph, prio: &[u64]) -> (SingletonCut, Vec<u32>) {
        let engine = SingletonEngine::new(g, prio);
        let per_leader = engine.leader_intervals(g);
        let mut best = SingletonCut { weight: u64::MAX, leader: 0, time: 0 };
        for v in 0..g.n() as u32 {
            let (w, t) = min_stabbing_weight(&per_leader[v as usize], engine.ldr[v as usize]);
            if w < best.weight {
                best = SingletonCut { weight: w, leader: v, time: t };
            }
        }
        (best, bag_of(g, prio, best.leader, best.time))
    }

    /// A random multigraph: a random simple graph (connected or not) with
    /// each edge repeated up to `max_mult` times.
    fn random_multigraph(rng: &mut SmallRng, n: usize, max_mult: usize) -> Graph {
        let max_m = n * (n - 1) / 2;
        let base = if rng.gen_bool(0.7) {
            gen::connected_gnm(n, rng.gen_range(n - 1..=max_m), 1..=9, rng)
        } else {
            gen::gnm(n, rng.gen_range(1..=max_m), 1..=9, rng)
        };
        gen::multiplied(&base, max_mult, 1..=9, rng)
    }

    #[test]
    fn pair_folding_matches_per_edge_reference_on_multigraphs() {
        let mut rng = SmallRng::seed_from_u64(28);
        for trial in 0..400 {
            let n = rng.gen_range(2..=30);
            let max_mult = [1, 2, 5, 50][trial % 4];
            let g = random_multigraph(&mut rng, n, max_mult);
            let prio = exponential_priorities(&g, &mut rng);
            let engine = SingletonEngine::new(&g, &prio);
            let cut = engine.smallest(&g);
            let (expect, expect_side) = per_edge_reference(&g, &prio);
            assert_eq!(cut, expect, "trial={trial} n={n} m={}", g.m());
            assert_eq!(engine.bag(cut.leader, cut.time), expect_side, "trial={trial}");
        }
    }

    #[test]
    fn bag_matches_bag_of_at_every_leader_and_time() {
        let mut rng = SmallRng::seed_from_u64(30);
        for _ in 0..20 {
            let n = rng.gen_range(2..=16);
            let g = random_multigraph(&mut rng, n, 8);
            let prio = exponential_priorities(&g, &mut rng);
            let engine = SingletonEngine::new(&g, &prio);
            for v in 0..n as u32 {
                for t in [0, 1, g.m() as u64 / 3, g.m() as u64 / 2, g.m() as u64] {
                    assert_eq!(engine.bag(v, t), bag_of(&g, &prio, v, t), "v={v} t={t}");
                }
            }
        }
    }

    #[test]
    fn matches_oracle_on_multigraphs() {
        let mut rng = SmallRng::seed_from_u64(32);
        for trial in 0..60 {
            let n = rng.gen_range(2..20);
            let g = random_multigraph(&mut rng, n, [3, 50][trial % 2]);
            let prio = exponential_priorities(&g, &mut rng);
            check_matches_oracle(&g, &prio);
        }
    }

    #[test]
    fn matches_oracle_on_fixed_small_graphs() {
        // Path with specific priorities.
        let g = Graph::new(4, vec![Edge::new(0, 1, 3), Edge::new(1, 2, 1), Edge::new(2, 3, 5)]);
        check_matches_oracle(&g, &[2, 1, 3]);
        check_matches_oracle(&g, &[3, 2, 1]);
        check_matches_oracle(&g, &[1, 2, 3]);
    }

    #[test]
    fn matches_oracle_on_cycles_and_cliques() {
        let mut rng = SmallRng::seed_from_u64(21);
        for g in [gen::cycle(7), gen::complete(6), gen::wheel(8), gen::barbell(4)] {
            for _ in 0..5 {
                let prio = exponential_priorities(&g, &mut rng);
                check_matches_oracle(&g, &prio);
            }
        }
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(22);
        for trial in 0..60 {
            let n = rng.gen_range(2..20);
            let max_m = n * (n - 1) / 2;
            let m = rng.gen_range(1..=max_m);
            let g = gen::gnm(n, m, 1..=9, &mut rng);
            let prio = exponential_priorities(&g, &mut rng);
            let _ = trial;
            check_matches_oracle(&g, &prio);
        }
    }

    #[test]
    fn matches_oracle_on_weighted_connected_graphs() {
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..30 {
            let n = rng.gen_range(3..40);
            let m = (n - 1) + rng.gen_range(0..2 * n);
            let g = gen::connected_gnm(n, m.min(n * (n - 1) / 2), 1..=50, &mut rng);
            let prio = exponential_priorities(&g, &mut rng);
            check_matches_oracle(&g, &prio);
        }
    }

    #[test]
    fn matches_oracle_on_trees() {
        // On a tree every contraction bag is a cut of weight = boundary
        // edges; singleton tracking must find the min-weight edge cut.
        let mut rng = SmallRng::seed_from_u64(24);
        for n in [2usize, 3, 8, 30, 100] {
            let g = gen::random_tree(n, &mut rng);
            let prio = exponential_priorities(&g, &mut rng);
            check_matches_oracle(&g, &prio);
        }
    }

    #[test]
    fn disconnected_graph_reports_zero() {
        let g = Graph::unit(5, &[(0, 1), (1, 2), (3, 4)]);
        let prio = vec![1, 2, 3];
        let cut = smallest_singleton_cut(&g, &prio);
        assert_eq!(cut.weight, 0);
    }

    #[test]
    fn ldr_time_is_finite_and_bounded() {
        let mut rng = SmallRng::seed_from_u64(25);
        let g = gen::connected_gnm(30, 60, 1..=10, &mut rng);
        let prio = exponential_priorities(&g, &mut rng);
        let engine = SingletonEngine::new(&g, &prio);
        let maxp = *prio.iter().max().unwrap();
        for v in 0..30u32 {
            assert!(engine.ldr[v as usize] < maxp, "v={v}");
        }
    }

    #[test]
    fn leaders_are_unique_minimum_of_their_bag() {
        // Lemma 8: for any v and t <= ldr_time(v), v has the smallest label
        // in bag(v, t).
        let mut rng = SmallRng::seed_from_u64(26);
        let g = gen::connected_gnm(15, 30, 1..=5, &mut rng);
        let prio = exponential_priorities(&g, &mut rng);
        let engine = SingletonEngine::new(&g, &prio);
        for v in 0..15u32 {
            for t in [0, engine.ldr[v as usize] / 2, engine.ldr[v as usize]] {
                let bag = bag_of(&g, &prio, v, t);
                let min_label = bag.iter().map(|&u| engine.label[u as usize]).min().unwrap();
                assert_eq!(min_label, engine.label[v as usize], "v={v} t={t}");
                let count = bag.iter().filter(|&&u| engine.label[u as usize] == min_label).count();
                assert_eq!(count, 1, "leader not unique in bag");
            }
        }
    }

    #[test]
    fn ldr_time_is_tight() {
        // At ldr_time(v)+1 the bag contains a smaller-labeled vertex
        // (or the bag is the whole component).
        let mut rng = SmallRng::seed_from_u64(27);
        let g = gen::connected_gnm(20, 40, 1..=8, &mut rng);
        let prio = exponential_priorities(&g, &mut rng);
        let engine = SingletonEngine::new(&g, &prio);
        for v in 0..20u32 {
            let t = engine.ldr[v as usize];
            let bag_next = bag_of(&g, &prio, v, t + 1);
            let lv = engine.label[v as usize];
            let has_smaller = bag_next.iter().any(|&u| engine.label[u as usize] < lv);
            assert!(has_smaller || bag_next.len() == 20, "v={v}: ldr_time not tight");
        }
    }
}
