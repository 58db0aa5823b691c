//! Algorithm 1 — `AMPC-MinCut` (Theorem 1): boosted recursive contraction.
//!
//! The recursion follows the Ghaffari–Nowicki boosting schedule described
//! in §2: an instance at "contraction depth" `t = n₀ / n` spawns
//! `⌈x^(1-ε/3)⌉` independent copies, each contracted by a factor
//! `x = max(2, t^((ε/3)/(1-ε/3)))`, so `t` grows doubly exponentially and
//! the recursion has `O(log log n)` levels. On every copy the smallest
//! singleton cut over the whole contraction (Algorithm 3) is recorded; by
//! Lemma 2 each level either exhibits a `(2+ε)`-approximate singleton cut
//! or preserves a fixed minimum cut with probability `≥ 1/x^(1-ε/3)`,
//! which the branching factor boosts to a constant per level.
//!
//! Every candidate this algorithm returns is a *real* cut with its side,
//! so the output is always ≥ OPT; the `(2+ε)` upper bound holds with high
//! probability over the seeds (amplified by `repetitions`).

use cut_graph::{stoer_wagner, CutResult, Graph};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::contraction::contract_prefix;
use crate::priorities::exponential_priorities;
use crate::singleton::{singleton_cut_side, smallest_singleton_cut};

/// Options for [`approx_min_cut`].
#[derive(Debug, Clone)]
pub struct MinCutOptions {
    /// Approximation slack `ε ∈ (0, 1)`: target factor `2 + ε`.
    pub epsilon: f64,
    /// Solve instances of at most this many vertices exactly on "one
    /// machine" (the paper's `|G| ≤ n^ε` base case).
    pub base_size: usize,
    /// Independent top-level repetitions (0 ⇒ `⌈log₂ n⌉`).
    pub repetitions: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MinCutOptions {
    fn default() -> Self {
        Self { epsilon: 0.5, base_size: 32, repetitions: 0, seed: 0xA3C1 }
    }
}

impl MinCutOptions {
    /// Branching factor and shrink factor at contraction depth `t ≥ 1`.
    pub fn schedule(&self, t: f64) -> (usize, f64) {
        let e3 = self.epsilon / 3.0;
        let x = t.powf(e3 / (1.0 - e3)).max(2.0);
        let branch = x.powf(1.0 - e3).ceil() as usize;
        (branch.max(2), x)
    }
}

/// Number of recursion levels the schedule produces from `n` down to
/// `base` — the paper's `O(log log n)` quantity, exposed for E1.
pub fn schedule_levels(n: usize, opts: &MinCutOptions) -> usize {
    let mut size = n as f64;
    let base = opts.base_size.max(2) as f64;
    let mut levels = 0;
    while size > base {
        let t = n as f64 / size;
        let (_, x) = opts.schedule(t);
        size = (size / x).max(1.0);
        levels += 1;
    }
    levels
}

/// `(2+ε)`-approximate weighted global min cut (Theorem 1, reference
/// engine).
///
/// Returns the best cut (value and one realizing side) over all singleton
/// cuts observed during the recursive contraction plus the exactly-solved
/// base instances, across `repetitions` independent runs.
pub fn approx_min_cut(g: &Graph, opts: &MinCutOptions) -> CutResult {
    assert!(g.n() >= 2, "a cut needs at least two vertices");
    let reps = if opts.repetitions == 0 {
        (g.n() as f64).log2().ceil() as usize
    } else {
        opts.repetitions
    };
    let mut best: Option<CutResult> = None;
    for r in 0..reps.max(1) {
        let mut rng = SmallRng::seed_from_u64(opts.seed.wrapping_add(r as u64));
        let cut = solve(g, g.n(), opts, &mut rng, 0);
        if best.as_ref().is_none_or(|b| cut.weight < b.weight) {
            best = Some(cut);
        }
    }
    best.expect("at least one repetition")
}

fn solve(
    g: &Graph,
    n0: usize,
    opts: &MinCutOptions,
    rng: &mut SmallRng,
    depth: usize,
) -> CutResult {
    let n = g.n();
    debug_assert!(n >= 2);
    if n <= opts.base_size.max(2) {
        return stoer_wagner(g);
    }
    // Runaway guard: the schedule terminates in O(log log n) levels; a bug
    // in the shrink factor would otherwise loop forever.
    assert!(depth < 64, "recursion too deep: schedule not shrinking");

    let t = (n0 as f64 / n as f64).max(1.0);
    let (branch, x) = opts.schedule(t);
    let target = ((n as f64 / x).ceil() as usize).clamp(2, n - 1);

    let mut best: Option<CutResult> = None;
    let consider = |c: CutResult, best: &mut Option<CutResult>| {
        if best.as_ref().is_none_or(|b| c.weight < b.weight) {
            *best = Some(c);
        }
    };
    for _ in 0..branch {
        let prio = exponential_priorities(g, rng);
        // Track singleton cuts over this copy's whole contraction.
        let sc = smallest_singleton_cut(g, &prio);
        let side = singleton_cut_side(g, &prio, sc);
        consider(CutResult { weight: sc.weight, side }, &mut best);
        // Contract the copy by the schedule's factor and recurse.
        let (h, labels) = contract_prefix(g, &prio, target);
        if h.n() >= 2 {
            let sub = solve(&h, n0, opts, rng, depth + 1);
            let in_side = sub.mask(h.n());
            let side: Vec<u32> =
                (0..n as u32).filter(|&v| in_side[labels[v as usize] as usize]).collect();
            consider(CutResult { weight: sub.weight, side }, &mut best);
        }
    }
    best.expect("branch >= 2")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cut_graph::{cut_weight, gen};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn assert_valid_cut(g: &Graph, c: &CutResult) {
        assert!(c.is_proper(g.n()), "side must be proper");
        assert_eq!(cut_weight(g, &c.mask(g.n())), c.weight, "side must realize weight");
    }

    #[test]
    fn schedule_shrinks_doubly_exponentially() {
        let opts = MinCutOptions::default();
        // Level counts are concave in log n: squaring n repeatedly adds
        // fewer and fewer levels (the log log signature; a log n-level
        // schedule would add the same number each time).
        let l10 = schedule_levels(1 << 10, &opts);
        let l20 = schedule_levels(1 << 20, &opts);
        let l40 = schedule_levels(1u64.checked_shl(40).unwrap() as usize, &opts);
        assert!(l10 >= 1);
        assert!(l20 >= l10 && l40 >= l20);
        assert!(l40 - l20 < l20 - l10, "levels {l10} -> {l20} -> {l40} grow linearly in log n");
    }

    #[test]
    fn exact_on_base_case_sizes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = gen::connected_gnm(20, 50, 1..=10, &mut rng);
        let opts = MinCutOptions { base_size: 32, ..Default::default() };
        let cut = approx_min_cut(&g, &opts);
        assert_eq!(cut.weight, cut_graph::stoer_wagner(&g).weight);
        assert_valid_cut(&g, &cut);
    }

    #[test]
    fn never_below_optimum_and_within_factor_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(2);
        let opts = MinCutOptions { base_size: 8, epsilon: 0.5, repetitions: 4, seed: 7 };
        for _ in 0..8 {
            let n = rng.gen_range(20..60);
            let m = 3 * n;
            let g = gen::connected_gnm(n, m, 1..=10, &mut rng);
            let exact = cut_graph::stoer_wagner(&g).weight;
            let cut = approx_min_cut(&g, &opts);
            assert_valid_cut(&g, &cut);
            assert!(cut.weight >= exact);
            assert!(
                (cut.weight as f64) <= 2.5 * exact as f64 + 1e-9,
                "weight {} vs exact {exact}",
                cut.weight
            );
        }
    }

    #[test]
    fn finds_planted_cut() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = gen::planted_cut(40, 120, 2, &mut rng);
        let opts = MinCutOptions { base_size: 8, repetitions: 6, ..Default::default() };
        let cut = approx_min_cut(&g, &opts);
        assert_valid_cut(&g, &cut);
        // Planted crossing weight is 2; a (2+ε)-approx must be ≤ 5.
        assert!(cut.weight <= 5, "weight={}", cut.weight);
    }

    #[test]
    fn disconnected_graph_yields_zero() {
        let g = cut_graph::Graph::unit(
            50,
            &(1..25u32)
                .map(|i| (i - 1, i))
                .chain((26..50u32).map(|i| (i - 1, i)))
                .collect::<Vec<_>>(),
        );
        let opts = MinCutOptions { base_size: 8, repetitions: 1, ..Default::default() };
        let cut = approx_min_cut(&g, &opts);
        assert_eq!(cut.weight, 0);
        assert_valid_cut(&g, &cut);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = gen::connected_gnm(40, 100, 1..=5, &mut rng);
        let opts = MinCutOptions { base_size: 8, repetitions: 2, seed: 99, ..Default::default() };
        let a = approx_min_cut(&g, &opts);
        let b = approx_min_cut(&g, &opts);
        assert_eq!(a.weight, b.weight);
        assert_eq!(a.side, b.side);
    }

    #[test]
    fn branch_factor_is_at_least_two() {
        let opts = MinCutOptions::default();
        for t in [1.0, 2.0, 10.0, 1e6] {
            let (b, x) = opts.schedule(t);
            assert!(b >= 2, "t={t}");
            assert!(x >= 2.0, "t={t}");
        }
    }
}
