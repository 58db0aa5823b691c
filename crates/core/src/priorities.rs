//! Contraction priorities: unique random edge ranks.
//!
//! §4.1 assumes "unique weights on edges" from `[n³]` and contracts the
//! edge with weight `t` at time `t`. Only the *relative order* of these
//! weights is ever used (Kruskal, bags, intervals), so we draw exponential
//! clocks `T_e ~ Exp(w_e)` and replace them by their ranks `1..=m`.
//!
//! Exponential clocks make the induced contraction order correct for
//! *weighted* Karger contraction: the first edge to be contracted is `e`
//! with probability `w_e / Σw` (min of independent exponentials), and the
//! property holds recursively after every contraction — the standard
//! reduction from weighted to unweighted contraction that Ghaffari–Nowicki
//! also use. With unit weights this is a uniformly random permutation.
//!
//! [`exponential_priorities`] ranks all m clocks. Algorithm 3 reads that
//! order only through the minimum spanning forest, and a vertex pair's
//! first clock to ring fixes its place there: every later parallel edge
//! closes a cycle. [`fold_priorities`] therefore draws the same m clocks
//! but ranks only the p vertex pairs of [`Graph::collapsed`], each by its
//! least clock — an O(m) fold and an O(p log p) sort instead of an
//! O(m log m) sort. On the collapsed graph, the pair ranks give the same
//! forest in the same order, so Algorithm 3 finds the same cut and side.
//! [`pair_priorities`] is the same fold for a caller that holds only the
//! multigraph.

use cut_graph::{Edge, Graph};
use rand::Rng;

/// Draw contraction priorities for every edge of `g`: unique ranks
/// `1..=m`, ordered by exponential clocks with rate = edge weight.
pub fn exponential_priorities(g: &Graph, rng: &mut impl Rng) -> Vec<u64> {
    ranks(
        clocks(g.edges(), rng)
            .enumerate()
            .map(|(e, clock)| ((clock, e as u32), e as u32))
            .collect(),
    )
}

/// Contraction priorities for the vertex pairs of `g`: `g.collapsed()`
/// and its [`fold_priorities`] ranks.
pub fn pair_priorities(g: &Graph, rng: &mut impl Rng) -> (Graph, Vec<u64>) {
    let pairs = g.collapsed();
    let pair_of: Vec<usize> = g
        .edges()
        .iter()
        .map(|e| {
            let key = (e.u.min(e.v), e.u.max(e.v));
            pairs.edges().binary_search_by_key(&key, |p| (p.u, p.v)).expect("every edge's pair")
        })
        .collect();
    let prio = fold_priorities(g.edges(), pairs.m(), |e| pair_of[e], rng);
    (pairs, prio)
}

/// Contraction priorities for the `pairs` vertex pairs that `edges` fold
/// into, where edge `e` joins pair `pair_of(e)` and every pair has an
/// edge: a unique rank `1..=pairs` per pair. The clocks are those
/// [`exponential_priorities`] draws from the same `rng` for a graph with
/// this edge list, and pair `a` ranks before pair `b` iff `a`'s least
/// per-edge rank there is smaller than `b`'s. O(m) plus a sort of the
/// pairs.
pub fn fold_priorities(
    edges: &[Edge],
    pairs: usize,
    pair_of: impl Fn(usize) -> usize,
    rng: &mut impl Rng,
) -> Vec<u64> {
    // Each pair's least (clock, edge) key; clocks arrive in edge order.
    let mut least = vec![(u64::MAX, u32::MAX); pairs];
    for (e, clock) in clocks(edges, rng).enumerate() {
        let key = (clock, e as u32);
        let slot = &mut least[pair_of(e)];
        if key < *slot {
            *slot = key;
        }
    }
    debug_assert!(least.iter().all(|&(_, e)| e != u32::MAX), "a pair without an edge");
    ranks(least.into_iter().enumerate().map(|(pair, key)| (key, pair as u32)).collect())
}

/// One exponential clock per edge, in edge order, as the bit pattern of
/// the `f64`. The clocks are positive and finite, and such values order
/// like their bit patterns.
fn clocks<'a>(edges: &'a [Edge], rng: &'a mut impl Rng) -> impl Iterator<Item = u64> + 'a {
    edges.iter().map(|e| {
        // Inverse-CDF sampling; guard the log away from 0.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        (-u.ln() / e.w as f64).to_bits()
    })
}

/// The rank `1..=len` of each slot, by ascending key: `keyed` holds one
/// `(key, slot)` per slot. Keys end in an edge index, so they are unique
/// and an unstable sort yields the same ranks as a stable one.
fn ranks(mut keyed: Vec<((u64, u32), u32)>) -> Vec<u64> {
    keyed.sort_unstable_by_key(|&(key, _)| key);
    let mut rank = vec![0u64; keyed.len()];
    for (r, &(_, slot)) in keyed.iter().enumerate() {
        rank[slot as usize] = r as u64 + 1;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use cut_graph::{gen, Edge, Graph};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn priorities_are_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = gen::connected_gnm(30, 80, 1..=10, &mut rng);
        let p = exponential_priorities(&g, &mut rng);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=80u64).collect::<Vec<_>>());
    }

    #[test]
    fn pair_ranks_order_pairs_by_their_least_edge_rank() {
        let mut rng = SmallRng::seed_from_u64(4);
        for trial in 0..200 {
            let n = rng.gen_range(2..=16usize);
            let base = gen::gnm(n, rng.gen_range(1..=n * (n - 1) / 2), 1..=9, &mut rng);
            let g = gen::multiplied(&base, [1, 2, 5, 50][trial % 4], 1..=9, &mut rng);
            let seed = rng.gen();
            let mut edge_rng = SmallRng::seed_from_u64(seed);
            let mut pair_rng = SmallRng::seed_from_u64(seed);
            let per_edge = exponential_priorities(&g, &mut edge_rng);
            let (pairs, prio) = pair_priorities(&g, &mut pair_rng);
            assert_eq!(pairs.n(), g.n());
            assert_eq!(pairs.edges(), g.collapsed().edges(), "trial={trial}");
            let mut sorted = prio.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (1..=pairs.m() as u64).collect::<Vec<_>>(), "trial={trial}");
            // Each pair's least per-edge rank, in collapsed edge order.
            let least: Vec<u64> = pairs
                .edges()
                .iter()
                .map(|p| {
                    g.edges()
                        .iter()
                        .zip(&per_edge)
                        .filter(|(e, _)| (e.u.min(e.v), e.u.max(e.v)) == (p.u, p.v))
                        .map(|(_, &r)| r)
                        .min()
                        .expect("every pair has an edge")
                })
                .collect();
            for a in 0..prio.len() {
                for b in 0..prio.len() {
                    assert_eq!(prio[a] < prio[b], least[a] < least[b], "trial={trial}");
                }
            }
            // Both drew the same m clocks from the stream.
            assert_eq!(edge_rng.gen::<u64>(), pair_rng.gen::<u64>(), "trial={trial}");
        }
    }

    #[test]
    fn heavier_edges_contract_earlier_on_average() {
        // Edge 0 has weight 50, edge 1 weight 1: edge 0 should get the
        // smaller rank (earlier contraction) about 50/51 of the time.
        let g = Graph::new(3, vec![Edge::new(0, 1, 50), Edge::new(1, 2, 1)]);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut wins = 0;
        let trials = 2000;
        for _ in 0..trials {
            let p = exponential_priorities(&g, &mut rng);
            if p[0] < p[1] {
                wins += 1;
            }
        }
        let rate = wins as f64 / trials as f64;
        assert!((rate - 50.0 / 51.0).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn unit_weights_are_uniform_permutations() {
        // First-ranked edge should be ~uniform over 4 edges.
        let g = gen::cycle(4);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; 4];
        let trials = 4000;
        for _ in 0..trials {
            let p = exponential_priorities(&g, &mut rng);
            let first = p.iter().position(|&x| x == 1).unwrap();
            counts[first] += 1;
        }
        for &c in &counts {
            let f = c as f64 / trials as f64;
            assert!((f - 0.25).abs() < 0.04, "counts={counts:?}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = gen::cycle(10);
        let a = exponential_priorities(&g, &mut SmallRng::seed_from_u64(9));
        let b = exponential_priorities(&g, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph_gives_empty_priorities() {
        let g = Graph::new(3, vec![]);
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(exponential_priorities(&g, &mut rng).is_empty());
    }
}
