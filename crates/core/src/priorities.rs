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

use cut_graph::Graph;
use rand::Rng;

/// Draw contraction priorities for every edge of `g`: unique ranks
/// `1..=m`, ordered by exponential clocks with rate = edge weight.
pub fn exponential_priorities(g: &Graph, rng: &mut impl Rng) -> Vec<u64> {
    let m = g.m();
    let mut clock: Vec<(f64, u32)> = g
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            // Inverse-CDF sampling; guard the log away from 0.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            (-u.ln() / e.w as f64, i as u32)
        })
        .collect();
    // Clocks are positive and finite, so `total_cmp` is their numeric
    // order; the index makes every key unique, so an unstable sort yields
    // the same ranks as a stable one.
    clock.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut prio = vec![0u64; m];
    for (rank, &(_, e)) in clock.iter().enumerate() {
        prio[e as usize] = rank as u64 + 1;
    }
    prio
}

#[cfg(test)]
mod tests {
    use super::*;
    use cut_graph::{gen, Edge, Graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
