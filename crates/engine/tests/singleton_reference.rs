//! The engine serves singleton cuts on the collapsed graph under pair
//! priorities; every answer it computes must equal the per-edge reference
//! composition — `exponential_priorities`, `smallest_singleton_cut`,
//! `singleton_cut_side` — on the graph's snapshot. This is the check the
//! benchmark's traced replay makes, run on a write-heavy stream whose
//! graphs contract to the generator's 12-vertex floor and then pile up
//! parallel edges.

use cut_engine::{ActionMix, Engine, Query, Request, Response, Workload, WorkloadConfig};
use mincut_core::singleton::singleton_cut_side;
use mincut_core::{exponential_priorities, smallest_singleton_cut};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn served_singleton_cuts_equal_the_per_edge_reference() {
    let workload = Workload::generate(&WorkloadConfig {
        ops: 24_000,
        seed: 7,
        graphs: 2,
        initial_n: 16,
        mix: ActionMix::write_heavy(),
        ..WorkloadConfig::default()
    });
    let mut engine = Engine::new();
    let (mut checked, mut at_floor) = (0, 0);
    for (i, request) in workload.all_requests().enumerate() {
        let response = engine.execute(request.clone());
        let Request::Query { name, query: Query::SingletonCut { seed } } = request else {
            continue;
        };
        if response.was_cached() {
            continue;
        }
        let g = engine.snapshot(name).expect("a queried graph exists");
        let (weight, side_size) = if g.m() == 0 {
            (0, 1)
        } else {
            let prio = exponential_priorities(&g, &mut SmallRng::seed_from_u64(*seed));
            let cut = smallest_singleton_cut(&g, &prio);
            (cut.weight, singleton_cut_side(&g, &prio, cut).len())
        };
        let expect = Response::CutValue { weight, side_size, cached: false };
        assert_eq!(response, expect, "request {i}: {request:?} on n={} m={}", g.n(), g.m());
        checked += 1;
        at_floor += usize::from(g.n() == 12 && g.collapsed().m() < g.m());
    }
    // Most misses land on 12-vertex multigraphs (up to about 2,400 edges
    // on 66 pairs here), where pair ranks and per-edge ranks differ most.
    assert!(
        at_floor >= 1000 && at_floor * 10 >= checked * 9,
        "{at_floor} of {checked} at the floor"
    );
}
