//! Kruskal minimum spanning forest over arbitrary edge priorities.
//!
//! The contraction machinery never uses the graph's *capacities* as the
//! spanning-tree ordering — it uses random contraction *priorities*
//! (`mincut-core::priorities`). Kruskal is therefore parameterized by an
//! explicit priority array.

use crate::dsu::Dsu;
use crate::graph::Graph;

/// A minimum spanning forest, as edge indices into the source graph.
#[derive(Debug, Clone)]
pub struct MstForest {
    /// Indices of forest edges, sorted by increasing priority.
    pub edges: Vec<u32>,
    /// Number of trees in the forest (= connected components).
    pub trees: usize,
}

impl MstForest {
    /// Total priority-weight of the forest under a priority array.
    pub fn total_priority(&self, prio: &[u64]) -> u128 {
        self.edges.iter().map(|&e| prio[e as usize] as u128).sum()
    }
}

/// Kruskal MSF of `g` under `prio` (one priority per edge; ties broken by
/// edge index, so the forest is unique even with duplicate priorities).
///
/// Only the least `(priority, index)` edge of each vertex pair can join
/// the forest — every later parallel edge closes a cycle with it — so one
/// pass over the CSR keeps those and only they are sorted. On a
/// multigraph that is a sort over distinct pairs, not over edges.
pub fn kruskal(g: &Graph, prio: &[u64]) -> MstForest {
    const NONE: u32 = u32::MAX;
    assert_eq!(prio.len(), g.m(), "one priority per edge");
    let key = |e: u32| (prio[e as usize], e);
    // slot[v]: index in `order` of the best edge (u, v) for the current u.
    let mut slot = vec![NONE; g.n()];
    let mut order: Vec<u32> = Vec::new();
    for u in 0..g.n() as u32 {
        let start = order.len();
        for &(v, e) in g.neighbors(u) {
            if v <= u {
                continue;
            }
            match slot[v as usize] {
                NONE => {
                    slot[v as usize] = order.len() as u32;
                    order.push(e);
                }
                i if key(e) < key(order[i as usize]) => order[i as usize] = e,
                _ => {}
            }
        }
        for &e in &order[start..] {
            slot[g.edge(e as usize).other(u) as usize] = NONE;
        }
    }
    order.sort_unstable_by_key(|&e| key(e));
    let mut dsu = Dsu::new(g.n());
    let mut edges = Vec::with_capacity(g.n().saturating_sub(1));
    for e in order {
        let ed = g.edge(e as usize);
        if dsu.union(ed.u, ed.v) {
            edges.push(e);
            if dsu.set_count() == 1 {
                break;
            }
        }
    }
    // Each forest edge merges two components, so starting from n singletons:
    let trees = g.n() - edges.len();
    MstForest { edges, trees }
}

/// Kruskal MSF using the graph's own capacities as priorities (classic MST).
pub fn kruskal_by_weight(g: &Graph) -> MstForest {
    let prio: Vec<u64> = g.edges().iter().map(|e| e.w).collect();
    kruskal(g, &prio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::graph::{Edge, Graph};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn mst_of_square_with_diagonal() {
        // Square 0-1-2-3-0 plus diagonal 0-2; priorities favor the diagonal.
        let g = Graph::new(
            4,
            vec![
                Edge::new(0, 1, 1),
                Edge::new(1, 2, 1),
                Edge::new(2, 3, 1),
                Edge::new(3, 0, 1),
                Edge::new(0, 2, 1),
            ],
        );
        let forest = kruskal(&g, &[10, 20, 30, 40, 5]);
        assert_eq!(forest.trees, 1);
        // Priority order: diag(5), 0-1(10), 1-2(20, cycle, skipped), 2-3(30).
        assert_eq!(forest.edges, vec![4, 0, 2]);
    }

    #[test]
    fn forest_on_disconnected_graph() {
        let g = Graph::unit(5, &[(0, 1), (1, 2), (3, 4)]);
        let forest = kruskal(&g, &[3, 2, 1]);
        assert_eq!(forest.trees, 2);
        assert_eq!(forest.edges.len(), 3);
        // Sorted by priority: edge 2, then 1, then 0.
        assert_eq!(forest.edges, vec![2, 1, 0]);
    }

    #[test]
    fn isolated_vertices_count_as_trees() {
        let g = Graph::unit(4, &[(0, 1)]);
        let forest = kruskal(&g, &[1]);
        assert_eq!(forest.trees, 3);
    }

    #[test]
    fn mst_total_weight_matches_prim_reference() {
        // Cross-check Kruskal against an independent Prim implementation on
        // random weighted graphs.
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..20 {
            let n = rng.gen_range(2..40);
            let m = (n - 1) + rng.gen_range(0..n);
            let g = gen::connected_gnm(n, m, 1..=100, &mut rng);
            let prio: Vec<u64> = g.edges().iter().map(|e| e.w).collect();
            let forest = kruskal(&g, &prio);
            assert_eq!(forest.edges.len(), n - 1);
            assert_eq!(forest.total_priority(&prio), prim_total(&g) as u128);
        }
    }

    fn prim_total(g: &Graph) -> u64 {
        let n = g.n();
        let mut in_tree = vec![false; n];
        let mut best = vec![u64::MAX; n];
        best[0] = 0;
        let mut total = 0;
        for _ in 0..n {
            let v = (0..n).filter(|&v| !in_tree[v]).min_by_key(|&v| best[v]).unwrap();
            in_tree[v] = true;
            total += best[v];
            for &(to, e) in g.neighbors(v as u32) {
                let w = g.edge(e as usize).w;
                if !in_tree[to as usize] && w < best[to as usize] {
                    best[to as usize] = w;
                }
            }
        }
        total
    }

    /// Reference Kruskal: sort every edge by `(priority, index)`.
    fn kruskal_sort_all(g: &Graph, prio: &[u64]) -> MstForest {
        let mut order: Vec<u32> = (0..g.m() as u32).collect();
        order.sort_unstable_by_key(|&e| (prio[e as usize], e));
        let mut dsu = Dsu::new(g.n());
        let mut edges = Vec::new();
        for e in order {
            let ed = g.edge(e as usize);
            if dsu.union(ed.u, ed.v) {
                edges.push(e);
            }
        }
        MstForest { trees: g.n() - edges.len(), edges }
    }

    #[test]
    fn multigraph_forest_equals_sort_everything_reference() {
        // Heavy multiplicity and priorities drawn from a tiny range, so
        // parallel edges tie on priority and only the index breaks ties.
        let mut rng = SmallRng::seed_from_u64(12);
        for trial in 0..300 {
            let n = rng.gen_range(1..16usize);
            let m = if n < 2 { 0 } else { rng.gen_range(0..20 * n) };
            let edges: Vec<Edge> = (0..m)
                .map(|_| {
                    let u = rng.gen_range(0..n as u32);
                    let v = (u + rng.gen_range(1..n as u32)) % n as u32;
                    Edge::new(u, v, rng.gen_range(1..=5))
                })
                .collect();
            let g = Graph::new(n, edges);
            let span = if trial % 2 == 0 { 4 } else { 10 * m as u64 + 1 };
            let prio: Vec<u64> = (0..m).map(|_| rng.gen_range(1..=span)).collect();
            let fast = kruskal(&g, &prio);
            let slow = kruskal_sort_all(&g, &prio);
            assert_eq!(fast.edges, slow.edges, "trial={trial}");
            assert_eq!(fast.trees, slow.trees, "trial={trial}");
        }
    }

    #[test]
    fn unique_priorities_give_unique_mst() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = gen::connected_gnm(30, 90, 1..=1, &mut rng);
        let mut prio: Vec<u64> = (0..g.m() as u64).collect();
        use rand::seq::SliceRandom;
        prio.shuffle(&mut rng);
        let a = kruskal(&g, &prio);
        let b = kruskal(&g, &prio);
        assert_eq!(a.edges, b.edges);
    }
}
