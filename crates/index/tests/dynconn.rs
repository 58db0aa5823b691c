//! Differential suite for the dynamic-connectivity level structure:
//! [`DynConn`] (and the [`GraphIndex`] live read path layered on it) must
//! agree with a from-scratch union-find/BFS oracle over arbitrary
//! insert/delete/contract interleavings.
//!
//! Op streams are decoded from small integers drawn off a seeded RNG, so
//! a failure report's `(case, seed)` pair replays the exact sequence —
//! the shrink-friendly stand-in for structural shrinking: tightening the
//! `n`/`steps` ranges by hand narrows a repro monotonically. Targeted
//! generators cover the adversarial shapes the replacement search is
//! easiest to get wrong on: long chains (deep levels), bridges (forced
//! splits), stars (high-degree promotion sweeps), and repeated
//! delete/re-insert of one edge (multiplicity bookkeeping).

use cut_graph::{Dsu, Edge, Graph};
use cut_index::{DynConn, GraphIndex};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// From-scratch oracle over the current edge multiset.
fn oracle(n: usize, edges: &[(u32, u32)]) -> Dsu {
    let mut dsu = Dsu::new(n);
    for &(u, v) in edges {
        dsu.union(u, v);
    }
    dsu
}

/// Drive `dc` and the oracle mirror through one decoded op; returns the
/// op applied (for failure messages).
fn apply_random_op(
    dc: &mut DynConn,
    edges: &mut Vec<(u32, u32)>,
    n: usize,
    rng: &mut SmallRng,
) -> String {
    let kind: u32 = rng.gen_range(0..100);
    // Deletes only make sense with edges present; bias toward inserts
    // early so streams reach interesting densities.
    if kind < 55 || edges.is_empty() {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        dc.insert(u, v);
        if u != v {
            edges.push((u, v));
        }
        format!("insert({u}, {v})")
    } else {
        let i = rng.gen_range(0..edges.len());
        let (u, v) = edges.swap_remove(i);
        assert!(dc.delete(u, v), "tracked edge ({u}, {v}) must delete");
        format!("delete({u}, {v})")
    }
}

/// Full cross-check of `dc` against the oracle: component count and every
/// vertex pair.
fn assert_matches_oracle(dc: &DynConn, n: usize, edges: &[(u32, u32)], ctx: &str) {
    let mut dsu = oracle(n, edges);
    assert_eq!(dc.component_count(), dsu.set_count(), "component count, {ctx}");
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            assert_eq!(dc.connected(u, v), dsu.same(u, v), "connected({u}, {v}), {ctx}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random insert/delete interleavings: the forest equals the oracle
    /// after every single op, and the internal level invariants hold at
    /// checkpoints.
    #[test]
    fn random_interleavings_match_oracle(seed in any::<u64>(), n in 2usize..28, steps in 1usize..120) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut dc = DynConn::new(n, &[]);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for step in 0..steps {
            let op = apply_random_op(&mut dc, &mut edges, n, &mut rng);
            assert_matches_oracle(&dc, n, &edges, &format!("step {step}: {op}"));
            if step % 16 == 15 {
                dc.assert_consistent();
            }
        }
        dc.assert_consistent();
    }

    /// The GraphIndex live path (which owns a DynConn) equals the oracle
    /// through insert/delete/contract interleavings — contractions
    /// exercise the wholesale `rebuild_for` reset the engine uses. Its pair
    /// graph equals `Graph::collapsed()` of the edge list after every step,
    /// with every edge filed under its own pair: parallel copies (some
    /// inserted reversed) and deletes of a pair's last copy included.
    #[test]
    fn graph_index_live_path_matches_oracle(seed in any::<u64>(), start_n in 4usize..24, steps in 1usize..90) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut n = start_n;
        let mut edges: Vec<Edge> = Vec::new();
        let mut idx = GraphIndex::new(n, &edges);
        for step in 0..steps {
            let kind: u32 = rng.gen_range(0..100);
            if kind >= 95 && n > 3 {
                // Contract the highest vertex into a random survivor:
                // relabel, drop self-loops — the owner then issues a
                // wholesale rebuild, exactly like the engine's contract.
                let into = rng.gen_range(0..(n as u32 - 1));
                let merged = n as u32 - 1;
                n -= 1;
                edges = edges
                    .iter()
                    .filter_map(|e| {
                        let map = |x: u32| if x == merged { into } else { x };
                        let (u, v) = (map(e.u), map(e.v));
                        (u != v).then(|| Edge::new(u, v, e.w))
                    })
                    .collect();
                idx.rebuild_for(n, &edges);
            } else if kind < 55 || edges.is_empty() {
                let (u, v) = if kind < 15 && !edges.is_empty() {
                    let e = edges[rng.gen_range(0..edges.len())];
                    (e.v, e.u)
                } else {
                    let u = rng.gen_range(0..n as u32);
                    let v = rng.gen_range(0..n as u32);
                    (u, if u == v { (v + 1) % n as u32 } else { v })
                };
                let w = rng.gen_range(1..16u64);
                edges.push(Edge::new(u, v, w));
                idx.note_insert(edges[edges.len() - 1]);
            } else {
                let i = rng.gen_range(0..edges.len());
                let e = edges.remove(i);
                idx.note_delete(i, e);
            }
            let pairs: Vec<(u32, u32)> = edges.iter().map(|e| (e.u, e.v)).collect();
            let mut dsu = oracle(n, &pairs);
            let live = idx.components_live(n, &edges);
            prop_assert!(live == dsu.set_count(), "component count at step {step}: {live} vs {}", dsu.set_count());
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            let same = idx.same_component_live(n, &edges, u, v);
            prop_assert!(same == dsu.same(u, v), "connected({u}, {v}) at step {step}");

            let total: u128 = edges.iter().map(|e| u128::from(e.w)).sum();
            prop_assert!(idx.total_weight() == total, "total weight at step {step}");
            let collapsed = Graph::new(n, edges.clone()).collapsed();
            let (pairs, _) = idx.pair_graph(n, &edges);
            prop_assert!(pairs.graph().n() == n, "pair graph n at step {step}");
            prop_assert!(pairs.graph().edges() == collapsed.edges(), "pair graph at step {step}");
            for (i, e) in edges.iter().enumerate() {
                let pair = pairs.graph().edge(pairs.pair_of(i));
                prop_assert!((pair.u, pair.v) == (e.u.min(e.v), e.u.max(e.v)), "edge {i}'s pair at step {step}");
            }
        }
    }

    /// Long chains force replacement searches through the deepest level
    /// trees: cut every chain edge in a random order, checking the split
    /// count after each cut.
    #[test]
    fn long_chain_random_cut_order(seed in any::<u64>(), len in 2usize..64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = len + 1;
        let mut dc = DynConn::new(n, &[]);
        for i in 0..len as u32 {
            dc.insert(i, i + 1);
        }
        let mut order: Vec<u32> = (0..len as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut edges: Vec<(u32, u32)> = (0..len as u32).map(|i| (i, i + 1)).collect();
        for (cuts, &i) in order.iter().enumerate() {
            assert!(dc.delete(i, i + 1));
            edges.retain(|&(u, _)| u != i);
            // Every chain cut splits exactly one component.
            prop_assert_eq!(dc.component_count(), cuts + 2);
        }
        assert_matches_oracle(&dc, n, &edges, "chain fully cut");
        dc.assert_consistent();
    }

    /// Bridges between dense sides: deleting the bridge must split even
    /// though both sides are rich in non-tree edges (the replacement scan
    /// runs dry across all levels), and re-inserting heals it.
    #[test]
    fn bridge_between_cliques_flaps(seed in any::<u64>(), side in 2usize..8, flaps in 1usize..12) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 2 * side;
        let mut dc = DynConn::new(n, &[]);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for a in 0..side as u32 {
            for b in (a + 1)..side as u32 {
                dc.insert(a, b);
                dc.insert(a + side as u32, b + side as u32);
                edges.push((a, b));
                edges.push((a + side as u32, b + side as u32));
            }
        }
        let (bu, bv) = (rng.gen_range(0..side as u32), side as u32 + rng.gen_range(0..side as u32));
        for _ in 0..flaps {
            dc.insert(bu, bv);
            prop_assert_eq!(dc.component_count(), 1);
            prop_assert!(dc.connected(0, n as u32 - 1));
            assert!(dc.delete(bu, bv));
            prop_assert_eq!(dc.component_count(), 2);
            prop_assert!(!dc.connected(0, n as u32 - 1));
        }
        assert_matches_oracle(&dc, n, &edges, "bridge down");
        dc.assert_consistent();
    }

    /// Stars: the center's tree edges all live at one vertex, so spoke
    /// churn stresses promotion sweeps over high-degree adjacency.
    #[test]
    fn star_spoke_churn(seed in any::<u64>(), spokes in 2usize..32, churn in 1usize..60) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = spokes + 1;
        let mut dc = DynConn::new(n, &[]);
        let mut up = vec![false; n]; // spoke attached?
        for s in 1..n as u32 {
            dc.insert(0, s);
            up[s as usize] = true;
        }
        for _ in 0..churn {
            let s = rng.gen_range(1..n as u32);
            if up[s as usize] {
                assert!(dc.delete(0, s));
            } else {
                dc.insert(0, s);
            }
            up[s as usize] = !up[s as usize];
            let expect = 1 + up[1..].iter().filter(|&&a| !a).count();
            prop_assert_eq!(dc.component_count(), expect);
        }
        dc.assert_consistent();
    }

    /// Repeated delete/re-insert of one edge, including parallel copies:
    /// multiplicity bookkeeping must keep the structural edge alive until
    /// the last copy goes.
    #[test]
    fn same_edge_delete_reinsert(seed in any::<u64>(), copies in 1usize..5, rounds in 1usize..20) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut dc = DynConn::new(4, &[]);
        dc.insert(0, 1);
        dc.insert(2, 3);
        for _ in 0..rounds {
            for _ in 0..copies {
                dc.insert(1, 2);
            }
            prop_assert!(dc.connected(0, 3));
            for left in (0..copies).rev() {
                // Delete through either orientation.
                let (u, v) = if rng.gen_range(0..2u32) == 0 { (1, 2) } else { (2, 1) };
                assert!(dc.delete(u, v));
                prop_assert!(dc.connected(0, 3) == (left > 0), "{left} copies left");
            }
        }
        dc.assert_consistent();
    }
}
