//! Dinic max-flow / minimum s-t cut on undirected weighted graphs.
//!
//! Substrate for the Gomory–Hu tree (Definition 8 of the paper) and for
//! s-t cut assertions in tests. Each vertex pair's edges become one arc
//! pair that shares the pair's summed capacity through the standard
//! residual construction.

use std::collections::VecDeque;

use crate::graph::Graph;

#[derive(Debug, Clone, Copy)]
struct Arc {
    to: u32,
    rev: u32,
    cap: u64,
}

/// Dinic max-flow solver over a fixed topology; capacities reset per run so
/// Gomory–Hu can reuse the arena across its `n - 1` flow computations.
pub struct Dinic {
    n: usize,
    arcs: Vec<Vec<Arc>>,
    base: Vec<Vec<u64>>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl Dinic {
    /// Build a solver for undirected graph `g`: each vertex pair joined by
    /// edges becomes one forward and one backward arc, each with the
    /// pair's summed weight as capacity (the undirected flow construction
    /// over [`Graph::collapsed`]).
    ///
    /// Folding parallel edges changes no answer. A pair's arcs carry what
    /// its edges could carry together, so the max-flow value is the same,
    /// and [`Dinic::min_cut_side`] is the same because the
    /// residual-reachable side is the same for every maximum flow (the
    /// inclusion-minimal minimum cut).
    pub fn new(g: &Graph) -> Self {
        let n = g.n();
        let mut arcs: Vec<Vec<Arc>> = vec![Vec::new(); n];
        for e in g.collapsed().edges() {
            let (u, v) = (e.u as usize, e.v as usize);
            let ru = arcs[u].len() as u32;
            let rv = arcs[v].len() as u32;
            arcs[u].push(Arc { to: e.v, rev: rv, cap: e.w });
            arcs[v].push(Arc { to: e.u, rev: ru, cap: e.w });
        }
        let base = arcs.iter().map(|a| a.iter().map(|x| x.cap).collect()).collect();
        Self { n, arcs, base, level: vec![-1; n], iter: vec![0; n] }
    }

    fn reset(&mut self) {
        for (v, caps) in self.base.iter().enumerate() {
            for (i, &c) in caps.iter().enumerate() {
                self.arcs[v][i].cap = c;
            }
        }
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        let mut q = VecDeque::new();
        self.level[s] = 0;
        q.push_back(s);
        while let Some(v) = q.pop_front() {
            for a in &self.arcs[v] {
                if a.cap > 0 && self.level[a.to as usize] < 0 {
                    self.level[a.to as usize] = self.level[v] + 1;
                    q.push_back(a.to as usize);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, v: usize, t: usize, f: u64) -> u64 {
        if v == t {
            return f;
        }
        while self.iter[v] < self.arcs[v].len() {
            let i = self.iter[v];
            let Arc { to, rev, cap } = self.arcs[v][i];
            if cap > 0 && self.level[v] < self.level[to as usize] {
                let d = self.dfs(to as usize, t, f.min(cap));
                if d > 0 {
                    self.arcs[v][i].cap -= d;
                    self.arcs[to as usize][rev as usize].cap += d;
                    return d;
                }
            }
            self.iter[v] += 1;
        }
        0
    }

    /// Maximum s-t flow (= minimum s-t cut weight). Resets capacities first.
    pub fn max_flow(&mut self, s: u32, t: u32) -> u64 {
        assert_ne!(s, t);
        self.reset();
        let (s, t) = (s as usize, t as usize);
        let mut flow = 0;
        while self.bfs(s, t) {
            self.iter.fill(0);
            loop {
                let f = self.dfs(s, t, u64::MAX);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }

    /// Vertices reachable from `s` in the residual graph of the last
    /// `max_flow` run — the s-side of a minimum s-t cut.
    pub fn min_cut_side(&self, s: u32) -> Vec<bool> {
        let mut seen = vec![false; self.n];
        let mut q = VecDeque::new();
        seen[s as usize] = true;
        q.push_back(s as usize);
        while let Some(v) = q.pop_front() {
            for a in &self.arcs[v] {
                if a.cap > 0 && !seen[a.to as usize] {
                    seen[a.to as usize] = true;
                    q.push_back(a.to as usize);
                }
            }
        }
        seen
    }
}

/// Convenience: min s-t cut weight of `g`.
pub fn min_st_cut(g: &Graph, s: u32, t: u32) -> u64 {
    Dinic::new(g).max_flow(s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::cut_weight;
    use crate::gen;
    use crate::graph::{Edge, Graph};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn path_flow_is_bottleneck() {
        let g = Graph::new(4, vec![Edge::new(0, 1, 5), Edge::new(1, 2, 3), Edge::new(2, 3, 9)]);
        assert_eq!(min_st_cut(&g, 0, 3), 3);
        assert_eq!(min_st_cut(&g, 0, 1), 5);
    }

    #[test]
    fn parallel_paths_add() {
        // Two vertex-disjoint paths 0→3 of bottlenecks 2 and 4.
        let g = Graph::new(
            6,
            vec![
                Edge::new(0, 1, 2),
                Edge::new(1, 3, 7),
                Edge::new(0, 2, 4),
                Edge::new(2, 3, 4),
                Edge::new(3, 4, 100),
                Edge::new(4, 5, 1),
            ],
        );
        assert_eq!(min_st_cut(&g, 0, 3), 6);
        assert_eq!(min_st_cut(&g, 0, 5), 1);
    }

    #[test]
    fn disconnected_pairs_have_zero_flow() {
        let g = Graph::unit(4, &[(0, 1), (2, 3)]);
        assert_eq!(min_st_cut(&g, 0, 2), 0);
    }

    #[test]
    fn flow_is_symmetric_on_undirected_graphs() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = gen::connected_gnm(20, 50, 1..=10, &mut rng);
        let mut d = Dinic::new(&g);
        for _ in 0..10 {
            let s = rng.gen_range(0..20u32);
            let mut t = rng.gen_range(0..20u32);
            while t == s {
                t = rng.gen_range(0..20u32);
            }
            assert_eq!(d.max_flow(s, t), d.max_flow(t, s));
        }
    }

    #[test]
    fn residual_side_is_a_min_cut() {
        let mut rng = SmallRng::seed_from_u64(17);
        for _ in 0..20 {
            let n = rng.gen_range(4..20);
            let g = gen::connected_gnm(n, 3 * n, 1..=8, &mut rng);
            let s = 0u32;
            let t = (n - 1) as u32;
            let mut d = Dinic::new(&g);
            let f = d.max_flow(s, t);
            let side = d.min_cut_side(s);
            assert!(side[s as usize] && !side[t as usize]);
            assert_eq!(cut_weight(&g, &side), f, "max-flow/min-cut mismatch");
        }
    }

    /// Reference construction: one arc pair per edge, parallel edges kept.
    fn per_edge_dinic(g: &Graph) -> Dinic {
        let n = g.n();
        let mut arcs: Vec<Vec<Arc>> = vec![Vec::new(); n];
        for e in g.edges() {
            let (u, v) = (e.u as usize, e.v as usize);
            let (ru, rv) = (arcs[u].len() as u32, arcs[v].len() as u32);
            arcs[u].push(Arc { to: e.v, rev: rv, cap: e.w });
            arcs[v].push(Arc { to: e.u, rev: ru, cap: e.w });
        }
        let base = arcs.iter().map(|a| a.iter().map(|x| x.cap).collect()).collect();
        Dinic { n, arcs, base, level: vec![-1; n], iter: vec![0; n] }
    }

    #[test]
    fn multigraph_flow_and_side_equal_collapsed() {
        // Parallel edges fold into one arc pair: flow value and the
        // residual-reachable side must match both the collapsed graph's
        // and the per-edge construction's, and the side must realize the
        // flow on the multigraph itself.
        let mut rng = SmallRng::seed_from_u64(29);
        for trial in 0..150 {
            let n = rng.gen_range(2..14usize);
            let mult = rng.gen_range(1..=50usize);
            let m = rng.gen_range(0..=mult * n);
            let edges: Vec<Edge> = (0..m)
                .map(|_| {
                    let u = rng.gen_range(0..n as u32);
                    let v = (u + rng.gen_range(1..n as u32)) % n as u32;
                    Edge::new(u, v, rng.gen_range(1..=7))
                })
                .collect();
            let g = Graph::new(n, edges);
            let c = g.collapsed();
            let s = rng.gen_range(0..n as u32);
            let t = (s + rng.gen_range(1..n as u32)) % n as u32;
            assert_eq!(min_st_cut(&g, s, t), min_st_cut(&c, s, t), "trial={trial}");
            let (mut dg, mut dc, mut de) = (Dinic::new(&g), Dinic::new(&c), per_edge_dinic(&g));
            let f = dg.max_flow(s, t);
            assert_eq!(f, dc.max_flow(s, t), "trial={trial}");
            assert_eq!(f, de.max_flow(s, t), "trial={trial}");
            let side = dg.min_cut_side(s);
            assert_eq!(side, dc.min_cut_side(s), "trial={trial}");
            assert_eq!(side, de.min_cut_side(s), "trial={trial}");
            assert_eq!(cut_weight(&g, &side), f, "trial={trial}");
        }
    }

    #[test]
    fn repeated_runs_reset_capacities() {
        let g = gen::cycle(8);
        let mut d = Dinic::new(&g);
        let first = d.max_flow(0, 4);
        let second = d.max_flow(0, 4);
        assert_eq!(first, second);
        assert_eq!(first, 2);
    }
}
