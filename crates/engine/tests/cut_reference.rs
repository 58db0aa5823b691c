//! The engine serves each cut query from the pair graph when the answer
//! depends on a vertex pair only through its summed weight, and from the
//! per-edge CSR otherwise. Every answer it computes must equal the
//! per-edge reference call on the graph's snapshot: `stoer_wagner`,
//! `approx_min_cut`, `apx_split`, `min_st_cut`, and the composition
//! `exponential_priorities`, `smallest_singleton_cut`,
//! `singleton_cut_side`. This is the check the benchmark's traced replay
//! makes, run on a write-heavy stream whose graphs start above
//! `base_size` and `exact_below`, contract to the generator's 12-vertex
//! floor and then pile up parallel edges, so every kind is checked on
//! both sides of the engine's choice.

use cut_engine::{
    ActionMix, Engine, EngineConfig, Query, Request, Response, Workload, WorkloadConfig,
    QUERY_KINDS,
};
use cut_graph::maxflow::min_st_cut;
use cut_graph::{stoer_wagner, CutResult, Graph};
use mincut_core::singleton::singleton_cut_side;
use mincut_core::{
    approx_min_cut, apx_split, exponential_priorities, smallest_singleton_cut, KCutOptions,
    MinCutOptions,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The per-edge algorithms' answer to `query` on `g`, after the engine's
/// short-circuits: a disconnected graph's global cuts are its zero cut,
/// and an edgeless graph's singleton cut weighs 0.
fn per_edge_answer(g: &Graph, query: Query, cfg: &EngineConfig) -> Response {
    let cut = |c: CutResult| Response::CutValue {
        weight: c.weight,
        side_size: c.side.len(),
        cached: false,
    };
    let comp = g.components();
    let disconnected = comp.iter().any(|&c| c != 0);
    let zero_cut = || CutResult {
        weight: 0,
        side: (0..g.n() as u32).filter(|&v| comp[v as usize] == 0).collect(),
    };
    match query {
        Query::ExactMinCut if disconnected => cut(zero_cut()),
        Query::ExactMinCut => cut(stoer_wagner(g)),
        Query::ApproxMinCut { .. } if disconnected => cut(zero_cut()),
        Query::ApproxMinCut { seed } => {
            let opts = MinCutOptions {
                epsilon: cfg.epsilon,
                base_size: cfg.base_size,
                repetitions: cfg.repetitions,
                seed,
            };
            cut(approx_min_cut(g, &opts))
        }
        Query::SingletonCut { .. } if g.m() == 0 => {
            Response::CutValue { weight: 0, side_size: 1, cached: false }
        }
        Query::SingletonCut { seed } => {
            let prio = exponential_priorities(g, &mut SmallRng::seed_from_u64(seed));
            let c = smallest_singleton_cut(g, &prio);
            let side_size = singleton_cut_side(g, &prio, c).len();
            Response::CutValue { weight: c.weight, side_size, cached: false }
        }
        Query::KCut { k } => {
            let mut opts = KCutOptions::new(k);
            opts.exact_below = cfg.exact_below;
            opts.mincut.epsilon = cfg.epsilon;
            opts.mincut.base_size = cfg.base_size;
            Response::KCutValue { weight: apx_split(g, &opts).weight, parts: k, cached: false }
        }
        Query::StCutWeight { s, t } => {
            Response::CutValue { weight: min_st_cut(g, s, t), side_size: 0, cached: false }
        }
        Query::Connectivity => unreachable!("connectivity runs no cut algorithm"),
    }
}

#[test]
fn served_cuts_equal_the_per_edge_reference() {
    let cfg = EngineConfig::default();
    let workload = Workload::generate(&WorkloadConfig {
        ops: 24_000,
        seed: 7,
        graphs: 2,
        initial_n: 64,
        mix: ActionMix::write_heavy(),
        ..WorkloadConfig::default()
    });
    let mut engine = Engine::with_config(cfg.clone());
    // Per kind: answers checked at or below the engine's size threshold
    // for that kind, above it, and on 12-vertex multigraphs.
    let mut checked = [[0usize; 3]; QUERY_KINDS.len()];
    for (i, request) in workload.all_requests().enumerate() {
        let response = engine.execute(request.clone());
        let Request::Query { name, query } = request else { continue };
        if response.was_cached()
            || matches!(query, Query::Connectivity)
            || matches!(response, Response::Error { .. })
        {
            continue;
        }
        let g = engine.snapshot(name).expect("a queried graph exists");
        let expect = per_edge_answer(&g, *query, &cfg);
        assert_eq!(response, expect, "request {i}: {request:?} on n={} m={}", g.n(), g.m());
        let threshold = match query {
            Query::ApproxMinCut { .. } => cfg.base_size,
            _ => cfg.exact_below,
        };
        let counts = &mut checked[query.kind_index()];
        counts[usize::from(g.n() > threshold)] += 1;
        counts[2] += usize::from(g.n() == 12 && g.collapsed().m() < g.m());
    }
    for (kind, [below, above, floor]) in QUERY_KINDS.iter().zip(checked) {
        if *kind == "connectivity" {
            continue;
        }
        assert!(below >= 100 && above >= 10 && floor >= 100, "{kind}: {below} {above} {floor}");
    }
}
