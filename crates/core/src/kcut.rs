//! Algorithm 4 — `APX-SPLIT` (Theorem 2): greedy `(4+ε)`-approximate
//! Min k-Cut.
//!
//! Repeatedly: compute a `(2+ε)`-approximate min cut in every current
//! connected component, remove the globally smallest one's edges, until at
//! least `k` components exist. The proof (§5) compares the chosen cuts to
//! the Gomory–Hu cut sequence of Saran–Vazirani: the output is within
//! `(2+ε)(2-2/k) < 4+ε` of the optimal k-cut.

use cut_graph::cut::kcut_weight;
use cut_graph::{stoer_wagner, Graph};

use crate::mincut::{approx_min_cut, MinCutOptions};

/// Options for [`apx_split`].
#[derive(Debug, Clone)]
pub struct KCutOptions {
    /// Number of parts `k ≥ 1`.
    pub k: usize,
    /// Options for the inner approximate min-cut calls.
    pub mincut: MinCutOptions,
    /// Components of at most this many vertices are cut exactly
    /// (Stoer–Wagner) instead of approximately.
    pub exact_below: usize,
}

impl KCutOptions {
    /// Defaults for a given `k`.
    pub fn new(k: usize) -> Self {
        Self { k, mincut: MinCutOptions::default(), exact_below: 48 }
    }
}

/// Result of [`apx_split`].
#[derive(Debug, Clone)]
pub struct KCutResult {
    /// Total weight of removed (crossing) edges.
    pub weight: u64,
    /// Partition labeling with exactly `k` parts (`0..k`).
    pub labels: Vec<u32>,
    /// Indices (into the input graph) of the removed edges.
    pub cut_edges: Vec<u32>,
    /// Number of greedy iterations executed.
    pub iterations: usize,
}

/// Greedy approximate Min k-Cut (Algorithm 4).
///
/// When `n ≤ exact_below`, every component is cut by Stoer–Wagner, whose
/// dense matrix sums parallel edges anyway, so the split loop runs on
/// [`Graph::collapsed`] — work over distinct vertex pairs, not parallel
/// edges — and only `weight` and `cut_edges` are read off `g`. Above it
/// the inner approximate cuts draw one priority per edge, so the loop
/// runs on `g` itself.
///
/// Panics unless `1 ≤ k ≤ n`.
pub fn apx_split(g: &Graph, opts: &KCutOptions) -> KCutResult {
    let n = g.n();
    let k = opts.k;
    assert!(k >= 1 && k <= n, "need 1 <= k <= n");
    let (labels, iterations) =
        if n <= opts.exact_below { split(&g.collapsed(), opts) } else { split(g, opts) };
    let weight = kcut_weight(g, &labels);
    let cut_edges: Vec<u32> = g
        .edges()
        .iter()
        .enumerate()
        .filter(|(_, e)| labels[e.u as usize] != labels[e.v as usize])
        .map(|(i, _)| i as u32)
        .collect();
    KCutResult { weight, labels, cut_edges, iterations }
}

/// The greedy loop of [`apx_split`]: the `k`-part labels and the number
/// of iterations.
fn split(g: &Graph, opts: &KCutOptions) -> (Vec<u32>, usize) {
    let n = g.n();
    let k = opts.k;
    let mut removed = vec![false; g.m()];
    let mut iterations = 0;
    loop {
        let keep: Vec<u32> = (0..g.m() as u32).filter(|&i| removed[i as usize]).collect();
        let current = g.without_edges(&keep);
        let comp = current.components();
        let ncomp = comp.iter().copied().max().map(|c| c as usize + 1).unwrap_or(0);
        if ncomp >= k {
            // Merge surplus parts (a cut side may itself have been
            // disconnected, overshooting k) and finish.
            return (merge_to_k(g, &comp, ncomp, k), iterations);
        }
        iterations += 1;

        // Best approximate cut over all components with ≥ 2 vertices.
        let mut best: Option<(u64, Vec<u32>)> = None; // (weight, side in g ids)
        for c in 0..ncomp as u32 {
            let members: Vec<u32> = (0..n as u32).filter(|&v| comp[v as usize] == c).collect();
            if members.len() < 2 {
                continue;
            }
            let (sub, back) = current.induced(&members);
            let cut = if sub.n() <= opts.exact_below {
                stoer_wagner(&sub)
            } else {
                approx_min_cut(&sub, &opts.mincut)
            };
            let side: Vec<u32> = cut.side.iter().map(|&v| back[v as usize]).collect();
            if best.as_ref().is_none_or(|(w, _)| cut.weight < *w) {
                best = Some((cut.weight, side));
            }
        }
        let (_, side) = best.expect("fewer than k components but none splittable");
        let mut in_side = vec![false; n];
        for &v in &side {
            in_side[v as usize] = true;
        }
        // Remove the crossing edges of the chosen cut (within its component,
        // which is automatic: other components see no crossing edges).
        for (i, e) in g.edges().iter().enumerate() {
            if !removed[i] && in_side[e.u as usize] != in_side[e.v as usize] {
                removed[i] = true;
            }
        }
    }
}

/// Merge a `c ≥ k`-part labeling down to exactly `k` parts, greedily
/// re-joining the pair of parts with the largest crossing weight (each
/// merge can only reduce the k-cut weight).
fn merge_to_k(g: &Graph, comp: &[u32], c: usize, k: usize) -> Vec<u32> {
    let mut label: Vec<u32> = comp.to_vec();
    let mut parts = c;
    while parts > k {
        // Crossing weight per label pair.
        let mut cross: std::collections::HashMap<(u32, u32), u64> =
            std::collections::HashMap::new();
        for e in g.edges() {
            let (a, b) = (label[e.u as usize], label[e.v as usize]);
            if a != b {
                let key = (a.min(b), a.max(b));
                *cross.entry(key).or_insert(0) += e.w;
            }
        }
        let (&(a, b), _) = cross
            .iter()
            .max_by_key(|(&(a, b), &w)| (w, std::cmp::Reverse((a, b))))
            // No crossing edges at all: merge the two highest labels.
            .unwrap_or((&(parts as u32 - 2, parts as u32 - 1), &0));
        for l in label.iter_mut() {
            if *l == b {
                *l = a;
            }
        }
        // Relabel to keep the range contiguous.
        let mut seen = std::collections::HashMap::new();
        let mut next = 0u32;
        for l in label.iter_mut() {
            let e = seen.entry(*l).or_insert_with(|| {
                let v = next;
                next += 1;
                v
            });
            *l = *e;
        }
        parts -= 1;
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use cut_graph::{brute, gen};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn opts(k: usize) -> KCutOptions {
        let mut o = KCutOptions::new(k);
        o.mincut.repetitions = 3;
        o
    }

    fn check_result(g: &Graph, k: usize, r: &KCutResult) {
        assert_eq!(r.labels.len(), g.n());
        let parts: std::collections::HashSet<u32> = r.labels.iter().copied().collect();
        assert_eq!(parts.len(), k, "expected exactly k parts");
        assert_eq!(kcut_weight(g, &r.labels), r.weight);
        let edge_sum: u64 = r.cut_edges.iter().map(|&i| g.edge(i as usize).w).sum();
        assert_eq!(edge_sum, r.weight);
    }

    #[test]
    fn k1_is_trivial() {
        let g = gen::cycle(6);
        let r = apx_split(&g, &opts(1));
        assert_eq!(r.weight, 0);
        check_result(&g, 1, &r);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn k2_matches_min_cut_on_small_graphs() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            let n = rng.gen_range(4..12);
            let g = gen::connected_gnm(n, 2 * n, 1..=7, &mut rng);
            let r = apx_split(&g, &opts(2));
            check_result(&g, 2, &r);
            // Components are cut exactly below `exact_below`, so k=2 greedy
            // equals the exact min cut here.
            assert_eq!(r.weight, cut_graph::stoer_wagner(&g).weight);
        }
    }

    #[test]
    fn within_4eps_of_bruteforce_optimum() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..8 {
            let n = rng.gen_range(6..11);
            let g = gen::connected_gnm(n, n + rng.gen_range(2..n), 1..=6, &mut rng);
            for k in 2..=4usize.min(n - 1) {
                let (optw, _) = brute::min_kcut(&g, k);
                let r = apx_split(&g, &opts(k));
                check_result(&g, k, &r);
                assert!(r.weight >= optw);
                assert!(
                    (r.weight as f64) <= 4.5 * optw as f64 + 1e-9,
                    "k={k}: {} vs opt {optw}",
                    r.weight
                );
            }
        }
    }

    #[test]
    fn cuts_planted_clusters() {
        let mut rng = SmallRng::seed_from_u64(3);
        // Three dense clusters joined by single bridges.
        let a = gen::complete(5);
        let mut edges: Vec<cut_graph::Edge> = a.edges().to_vec();
        for off in [5u32, 10] {
            edges.extend(a.edges().iter().map(|e| cut_graph::Edge::new(e.u + off, e.v + off, e.w)));
        }
        edges.push(cut_graph::Edge::new(0, 5, 1));
        edges.push(cut_graph::Edge::new(5, 10, 1));
        let g = Graph::new(15, edges);
        let _ = &mut rng;
        let r = apx_split(&g, &opts(3));
        check_result(&g, 3, &r);
        assert_eq!(r.weight, 2, "should cut exactly the two bridges");
        assert_eq!(r.iterations, 2);
    }

    #[test]
    fn collapsed_split_matches_per_edge_split_on_multigraphs() {
        // Below exact_below apx_split runs the loop on the collapsed graph;
        // the per-edge loop on the multigraph must give the same labels,
        // iteration count and weight.
        let mut rng = SmallRng::seed_from_u64(4);
        for trial in 0..80 {
            let n = rng.gen_range(2..=14);
            let max_m = n * (n - 1) / 2;
            let base = if trial % 3 == 0 {
                gen::gnm(n, rng.gen_range(0..=max_m), 1..=9, &mut rng)
            } else {
                gen::connected_gnm(n, rng.gen_range(n - 1..=max_m), 1..=9, &mut rng)
            };
            let g = gen::multiplied(&base, [1, 4, 50][trial % 3], 1..=9, &mut rng);
            let k = rng.gen_range(1..=n);
            let o = opts(k);
            assert!(n <= o.exact_below);
            let r = apx_split(&g, &o);
            let (labels, iterations) = split(&g, &o);
            assert_eq!(r.labels, labels, "trial={trial}");
            assert_eq!(r.iterations, iterations, "trial={trial}");
            assert_eq!(r.weight, kcut_weight(&g, &labels), "trial={trial}");
            check_result(&g, k, &r);
        }
    }

    #[test]
    fn kn_cuts_all_edges() {
        let g = gen::cycle(5);
        let r = apx_split(&g, &opts(5));
        check_result(&g, 5, &r);
        assert_eq!(r.weight, g.total_weight());
    }

    #[test]
    fn disconnected_input_counts_existing_components() {
        let g = Graph::unit(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        // Already 2 components: k=2 requires no cutting.
        let r = apx_split(&g, &opts(2));
        assert_eq!(r.weight, 0);
        assert_eq!(r.iterations, 0);
        check_result(&g, 2, &r);
    }

    #[test]
    #[should_panic(expected = "1 <= k <= n")]
    fn rejects_k_beyond_n() {
        let g = gen::cycle(4);
        let _ = apx_split(&g, &opts(5));
    }
}
