//! Seeded workload generators.
//!
//! Every generator takes an explicit `&mut impl Rng` so experiments are
//! reproducible from a seed. Weighted variants draw weights uniformly from
//! a caller-provided range.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::{Edge, Graph};

/// Path graph `0-1-…-(n-1)` with unit weights.
pub fn path(n: usize) -> Graph {
    let edges = (1..n as u32).map(|i| Edge::new(i - 1, i, 1)).collect();
    Graph::new(n, edges)
}

/// Cycle on `n ≥ 3` vertices with unit weights.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut edges: Vec<Edge> = (1..n as u32).map(|i| Edge::new(i - 1, i, 1)).collect();
    edges.push(Edge::new(n as u32 - 1, 0, 1));
    Graph::new(n, edges)
}

/// The 1-vs-2-cycle workload from the MPC lower-bound conjecture: either a
/// single cycle on `n` vertices or two disjoint cycles on `n/2` each, with
/// vertex ids shuffled so the structure is not syntactically visible.
pub fn one_or_two_cycles(n: usize, two: bool, rng: &mut impl Rng) -> Graph {
    assert!(n >= 6 && n.is_multiple_of(2), "need even n >= 6");
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(rng);
    let mut edges = Vec::with_capacity(n);
    let ring = |ids: &[u32], edges: &mut Vec<Edge>| {
        for i in 0..ids.len() {
            edges.push(Edge::new(ids[i], ids[(i + 1) % ids.len()], 1));
        }
    };
    if two {
        ring(&perm[..n / 2], &mut edges);
        ring(&perm[n / 2..], &mut edges);
    } else {
        ring(&perm, &mut edges);
    }
    Graph::new(n, edges)
}

/// Star with center 0 and `n-1` leaves.
pub fn star(n: usize) -> Graph {
    let edges = (1..n as u32).map(|i| Edge::new(0, i, 1)).collect();
    Graph::new(n, edges)
}

/// Complete graph with unit weights.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            edges.push(Edge::new(u, v, 1));
        }
    }
    Graph::new(n, edges)
}

/// `rows × cols` grid with unit weights.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let id = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push(Edge::new(id(r, c), id(r, c + 1), 1));
            }
            if r + 1 < rows {
                edges.push(Edge::new(id(r, c), id(r + 1, c), 1));
            }
        }
    }
    Graph::new(rows * cols, edges)
}

/// Wheel: cycle on `n-1` vertices plus a hub (vertex 0) joined to all.
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4);
    let mut edges = Vec::new();
    for i in 1..n as u32 {
        edges.push(Edge::new(0, i, 1));
        let next = if i as usize == n - 1 { 1 } else { i + 1 };
        edges.push(Edge::new(i, next, 1));
    }
    Graph::new(n, edges)
}

/// Barbell: two `k`-cliques joined by a single bridge — min cut is the
/// bridge (weight 1) for k ≥ 3.
pub fn barbell(k: usize) -> Graph {
    assert!(k >= 2);
    let mut edges = Vec::new();
    for u in 0..k as u32 {
        for v in (u + 1)..k as u32 {
            edges.push(Edge::new(u, v, 1));
            edges.push(Edge::new(k as u32 + u, k as u32 + v, 1));
        }
    }
    edges.push(Edge::new(0, k as u32, 1));
    Graph::new(2 * k, edges)
}

/// Erdős–Rényi G(n, p) with unit weights.
pub fn gnp(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen_bool(p) {
                edges.push(Edge::new(u, v, 1));
            }
        }
    }
    Graph::new(n, edges)
}

/// G(n, m): exactly `m` distinct random edges, weights in `w_range`.
pub fn gnm(
    n: usize,
    m: usize,
    w_range: std::ops::RangeInclusive<u64>,
    rng: &mut impl Rng,
) -> Graph {
    let max_m = n * (n - 1) / 2;
    assert!(m <= max_m, "too many edges requested");
    let mut chosen = std::collections::HashSet::with_capacity(m);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if chosen.insert(key) {
            edges.push(Edge::new(key.0, key.1, rng.gen_range(w_range.clone())));
        }
    }
    Graph::new(n, edges)
}

/// Connected G(n, m): a uniform random spanning tree plus `m - (n-1)` extra
/// distinct edges; weights in `w_range`. Requires `m ≥ n - 1`.
pub fn connected_gnm(
    n: usize,
    m: usize,
    w_range: std::ops::RangeInclusive<u64>,
    rng: &mut impl Rng,
) -> Graph {
    assert!(n >= 1 && m + 1 >= n, "need m >= n-1 for connectivity");
    let tree = random_tree(n, rng);
    let mut chosen: std::collections::HashSet<(u32, u32)> =
        tree.edges().iter().map(|e| (e.u.min(e.v), e.u.max(e.v))).collect();
    let mut edges: Vec<Edge> =
        tree.edges().iter().map(|e| Edge::new(e.u, e.v, rng.gen_range(w_range.clone()))).collect();
    let max_m = n * (n - 1) / 2;
    let m = m.min(max_m);
    while edges.len() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if chosen.insert(key) {
            edges.push(Edge::new(key.0, key.1, rng.gen_range(w_range.clone())));
        }
    }
    Graph::new(n, edges)
}

/// `g` with each edge repeated a uniform `1..=max_mult` times, every copy
/// weighted from `w_range`, in shuffled order: the parallel-edge-heavy
/// multigraph a long insert stream leaves on a small vertex set.
pub fn multiplied(
    g: &Graph,
    max_mult: usize,
    w_range: std::ops::RangeInclusive<u64>,
    rng: &mut impl Rng,
) -> Graph {
    assert!(max_mult >= 1, "need max_mult >= 1");
    let mut edges = Vec::new();
    for e in g.edges() {
        for _ in 0..rng.gen_range(1..=max_mult) {
            edges.push(Edge::new(e.u, e.v, rng.gen_range(w_range.clone())));
        }
    }
    edges.shuffle(rng);
    Graph::new(g.n(), edges)
}

/// Uniform random labeled tree via a Prüfer sequence.
pub fn random_tree(n: usize, rng: &mut impl Rng) -> Graph {
    if n <= 1 {
        return Graph::new(n, vec![]);
    }
    if n == 2 {
        return Graph::unit(2, &[(0, 1)]);
    }
    let prufer: Vec<u32> = (0..n - 2).map(|_| rng.gen_range(0..n as u32)).collect();
    let mut degree = vec![1u32; n];
    for &p in &prufer {
        degree[p as usize] += 1;
    }
    let mut edges = Vec::with_capacity(n - 1);
    // Min-heap of current leaves.
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<u32>> =
        (0..n as u32).filter(|&v| degree[v as usize] == 1).map(std::cmp::Reverse).collect();
    for &p in &prufer {
        let std::cmp::Reverse(leaf) = heap.pop().expect("prufer invariant");
        edges.push(Edge::new(leaf, p, 1));
        degree[p as usize] -= 1;
        if degree[p as usize] == 1 {
            heap.push(std::cmp::Reverse(p));
        }
    }
    let std::cmp::Reverse(a) = heap.pop().unwrap();
    let std::cmp::Reverse(b) = heap.pop().unwrap();
    edges.push(Edge::new(a, b, 1));
    Graph::new(n, edges)
}

/// Caterpillar: a spine of length `spine` with `legs` leaves per spine
/// vertex — a worst-ish case for heavy-path structure.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let mut edges = Vec::new();
    for i in 1..spine as u32 {
        edges.push(Edge::new(i - 1, i, 1));
    }
    let mut next = spine as u32;
    for s in 0..spine as u32 {
        for _ in 0..legs {
            edges.push(Edge::new(s, next, 1));
            next += 1;
        }
    }
    Graph::new(n, edges)
}

/// Perfectly balanced `arity`-ary tree with `depth` levels of edges.
pub fn balanced_tree(arity: usize, depth: usize) -> Graph {
    assert!(arity >= 2);
    let mut edges = Vec::new();
    let mut level: Vec<u32> = vec![0];
    let mut next = 1u32;
    for _ in 0..depth {
        let mut new_level = Vec::with_capacity(level.len() * arity);
        for &p in &level {
            for _ in 0..arity {
                edges.push(Edge::new(p, next, 1));
                new_level.push(next);
                next += 1;
            }
        }
        level = new_level;
    }
    Graph::new(next as usize, edges)
}

/// Planted-partition / stochastic-block graph: `blocks` communities of
/// `block_size` vertices; intra-community edges w.p. `p_in`, inter w.p.
/// `p_out`. With `p_in ≫ p_out` the min cut separates one community.
pub fn planted_partition(
    blocks: usize,
    block_size: usize,
    p_in: f64,
    p_out: f64,
    rng: &mut impl Rng,
) -> Graph {
    let n = blocks * block_size;
    let block_of = |v: u32| v as usize / block_size;
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            let p = if block_of(u) == block_of(v) { p_in } else { p_out };
            if rng.gen_bool(p) {
                edges.push(Edge::new(u, v, 1));
            }
        }
    }
    Graph::new(n, edges)
}

/// A graph with a *planted minimum cut*: two communities that are
/// internally dense (random `d`-ish-regular, weight `in_w`) joined by
/// exactly `cross` unit edges. Ground-truth min cut is `cross` when the
/// communities are sufficiently dense.
pub fn planted_cut(half: usize, internal_m: usize, cross: usize, rng: &mut impl Rng) -> Graph {
    assert!(half >= 3 && cross >= 1);
    let a = connected_gnm(half, internal_m, 1..=1, rng);
    let b = connected_gnm(half, internal_m, 1..=1, rng);
    let mut edges: Vec<Edge> = a.edges().to_vec();
    edges.extend(b.edges().iter().map(|e| Edge::new(e.u + half as u32, e.v + half as u32, e.w)));
    let mut chosen = std::collections::HashSet::new();
    while chosen.len() < cross.min(half * half) {
        let u = rng.gen_range(0..half as u32);
        let v = rng.gen_range(0..half as u32) + half as u32;
        if chosen.insert((u, v)) {
            edges.push(Edge::new(u, v, 1));
        }
    }
    Graph::new(2 * half, edges)
}

/// Ring lattice (circulant graph): every vertex joined to its `k`
/// nearest neighbors on each side — degree exactly `2k`, min cut `≥ 2k`
/// for `n > 2k+1`. Useful when a workload needs a guaranteed minimum
/// internal connectivity (unlike G(n,m), which can have degree-1
/// vertices).
pub fn ring_lattice(n: usize, k: usize) -> Graph {
    assert!(n >= 3 && k >= 1 && 2 * k < n);
    let mut edges = Vec::with_capacity(n * k);
    for v in 0..n as u32 {
        for d in 1..=k as u32 {
            let u = (v + d) % n as u32;
            edges.push(Edge::new(v, u, 1));
        }
    }
    Graph::new(n, edges)
}

/// Two ring-lattice communities of `half` vertices (degree `2k` each)
/// joined by exactly `cross` unit bridges at deterministic, spread-out
/// attachment points. Ground-truth min cut is exactly `cross` whenever
/// `cross < 2k`.
pub fn planted_communities(half: usize, k: usize, cross: usize) -> Graph {
    assert!(cross < 2 * k, "bridges must be fewer than internal degree");
    let a = ring_lattice(half, k);
    let mut edges: Vec<Edge> = a.edges().to_vec();
    edges.extend(a.edges().iter().map(|e| Edge::new(e.u + half as u32, e.v + half as u32, e.w)));
    for i in 0..cross {
        let u = ((i * half) / cross) as u32;
        let v = (((i * half) / cross + half / 2) % half + half) as u32;
        edges.push(Edge::new(u, v, 1));
    }
    Graph::new(2 * half, edges)
}

/// Chung–Lu power-law-ish graph: expected degree of vertex `i` is
/// proportional to `(i+1)^(-1/(gamma-1))`, scaled to average degree
/// `avg_deg`. Multi-edges are collapsed.
pub fn chung_lu(n: usize, gamma: f64, avg_deg: f64, rng: &mut impl Rng) -> Graph {
    assert!(gamma > 2.0, "need gamma > 2 for finite mean");
    let exp = -1.0 / (gamma - 1.0);
    let w: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(exp)).collect();
    let sum: f64 = w.iter().sum();
    let scale = avg_deg * n as f64 / sum;
    let w: Vec<f64> = w.into_iter().map(|x| x * scale).collect();
    let total: f64 = w.iter().sum();
    let mut chosen = std::collections::HashSet::new();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let p = (w[u] * w[v] / total).min(1.0);
            if p > 0.0 && rng.gen_bool(p) && chosen.insert((u as u32, v as u32)) {
                edges.push(Edge::new(u as u32, v as u32, 1));
            }
        }
    }
    Graph::new(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn multiplied_keeps_pairs_and_repeats_edges() {
        let base = complete(6);
        let g = multiplied(&base, 40, 1..=9, &mut rng());
        assert!(g.m() >= base.m() && g.m() <= 40 * base.m());
        let pairs =
            |h: &Graph| h.collapsed().edges().iter().map(|e| (e.u, e.v)).collect::<Vec<_>>();
        assert_eq!(pairs(&g), pairs(&base));
    }

    #[test]
    fn path_and_cycle_shapes() {
        let p = path(5);
        assert_eq!((p.n(), p.m()), (5, 4));
        assert!(p.is_connected());
        let c = cycle(5);
        assert_eq!((c.n(), c.m()), (5, 5));
        assert_eq!(c.degree(0), 2);
    }

    #[test]
    fn one_vs_two_cycles_components() {
        let mut r = rng();
        let one = one_or_two_cycles(64, false, &mut r);
        assert_eq!(one.component_count(), 1);
        let two = one_or_two_cycles(64, true, &mut r);
        assert_eq!(two.component_count(), 2);
        assert_eq!(one.m(), 64);
        assert_eq!(two.m(), 64);
        for v in 0..64u32 {
            assert_eq!(two.degree(v), 2);
        }
    }

    #[test]
    fn star_complete_wheel_grid() {
        assert_eq!(star(7).degree(0), 6);
        assert_eq!(complete(6).m(), 15);
        let w = wheel(6);
        assert_eq!(w.degree(0), 5);
        assert_eq!(w.m(), 10);
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4);
        assert!(g.is_connected());
    }

    #[test]
    fn barbell_min_cut_is_bridge() {
        let g = barbell(4);
        assert_eq!(g.n(), 8);
        assert!(g.is_connected());
        // The bridge is the only edge between the halves.
        let crossing = g.edges().iter().filter(|e| (e.u < 4) != (e.v < 4)).count();
        assert_eq!(crossing, 1);
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut r = rng();
        for n in [1usize, 2, 3, 10, 100, 500] {
            let t = random_tree(n, &mut r);
            assert_eq!(t.m(), n.saturating_sub(1));
            assert!(t.is_connected(), "n={n}");
        }
    }

    #[test]
    fn random_tree_is_uniformish() {
        // Over many samples of trees on 4 vertices there are 16 labeled
        // trees; all should appear.
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..600 {
            let t = random_tree(4, &mut r);
            let mut sig: Vec<(u32, u32)> =
                t.edges().iter().map(|e| (e.u.min(e.v), e.u.max(e.v))).collect();
            sig.sort_unstable();
            seen.insert(sig);
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn connected_gnm_respects_m_and_connectivity() {
        let mut r = rng();
        let g = connected_gnm(50, 120, 1..=9, &mut r);
        assert_eq!(g.n(), 50);
        assert_eq!(g.m(), 120);
        assert!(g.is_connected());
        assert!(g.edges().iter().all(|e| (1..=9).contains(&e.w)));
        // No duplicate undirected edges.
        let mut keys: Vec<_> = g.edges().iter().map(|e| (e.u.min(e.v), e.u.max(e.v))).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 120);
    }

    #[test]
    fn gnm_exact_edge_count() {
        let mut r = rng();
        let g = gnm(20, 40, 1..=1, &mut r);
        assert_eq!(g.m(), 40);
    }

    #[test]
    fn planted_cut_has_expected_crossing() {
        let mut r = rng();
        let g = planted_cut(20, 60, 3, &mut r);
        assert_eq!(g.n(), 40);
        let crossing: usize = g.edges().iter().filter(|e| (e.u < 20) != (e.v < 20)).count();
        assert_eq!(crossing, 3);
        assert!(g.is_connected());
    }

    #[test]
    fn caterpillar_and_balanced_tree_are_trees() {
        let c = caterpillar(10, 3);
        assert_eq!(c.n(), 40);
        assert_eq!(c.m(), 39);
        assert!(c.is_connected());
        let b = balanced_tree(2, 5);
        assert_eq!(b.n(), 63);
        assert_eq!(b.m(), 62);
        assert!(b.is_connected());
    }

    #[test]
    fn planted_partition_denser_inside() {
        let mut r = rng();
        let g = planted_partition(2, 30, 0.5, 0.02, &mut r);
        let inside = g.edges().iter().filter(|e| (e.u < 30) == (e.v < 30)).count();
        let across = g.m() - inside;
        assert!(inside > across * 5, "inside={inside} across={across}");
    }

    #[test]
    fn ring_lattice_degree_and_connectivity() {
        let g = ring_lattice(20, 3);
        assert!(g.is_connected());
        for v in 0..20u32 {
            assert_eq!(g.degree(v), 6);
        }
        assert_eq!(g.m(), 60);
    }

    #[test]
    fn planted_communities_min_cut_is_cross() {
        let g = planted_communities(16, 3, 4);
        assert!(g.is_connected());
        let crossing = g.edges().iter().filter(|e| (e.u < 16) != (e.v < 16)).count();
        assert_eq!(crossing, 4);
        // Exact check on a small instance: the bridges are the min cut.
        let exact = crate::stoer_wagner::stoer_wagner(&g);
        assert_eq!(exact.weight, 4);
    }

    #[test]
    fn chung_lu_head_is_heavier() {
        let mut r = rng();
        let g = chung_lu(300, 2.5, 6.0, &mut r);
        let head: usize = (0..10u32).map(|v| g.degree(v)).sum();
        let tail: usize = (290..300u32).map(|v| g.degree(v)).sum();
        assert!(head > tail, "head={head} tail={tail}");
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let g1 = connected_gnm(30, 60, 1..=5, &mut SmallRng::seed_from_u64(7));
        let g2 = connected_gnm(30, 60, 1..=5, &mut SmallRng::seed_from_u64(7));
        assert_eq!(g1.edges(), g2.edges());
    }
}
