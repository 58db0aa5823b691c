//! Property tests for the cut-query engine: after *any* mutation sequence,
//! engine answers must agree with fresh calls to the underlying algorithms
//! (Stoer–Wagner, Dinic, brute force, the paper's approximate engines) on
//! the same graph — cache hits included — and identical workload seeds must
//! produce byte-identical response logs.

use ampc_mincut::prelude::*;
use cut_engine::{
    ActionMix, ArrivalProcess, Engine, GraphSpec, Mutation, PlacementOptions, Query, Request,
    Response, ShardOptions, ShardedEngine, Timeline, Workload, WorkloadConfig,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random mutation sequence: weighted inserts, deletes of present edges,
/// and occasional contractions, mirrored the same way the engine applies
/// them so the reference graph is always in lockstep.
fn random_session(n0: usize, m0: usize, steps: usize, seed: u64) -> (Engine, cut_graph::Graph) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let spec = GraphSpec::ConnectedGnm { n: n0, m: m0, w_min: 1, w_max: 9, seed: rng.gen() };
    let mut engine = Engine::new();
    let created = engine.execute(Request::Create { name: "g".into(), spec });
    assert!(matches!(created, Response::Created { .. }), "create failed: {created}");

    for _ in 0..steps {
        let g = engine.snapshot("g").expect("graph registered");
        let n = g.n() as u32;
        let op = match rng.gen_range(0..10u32) {
            // Insert (weighted, possibly parallel).
            0..=4 => {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n - 1);
                let v = if v >= u { v + 1 } else { v };
                Mutation::InsertEdge { u, v, w: rng.gen_range(1..=9) }
            }
            // Delete a present edge.
            5..=7 if g.m() > 1 => {
                let e = g.edge(rng.gen_range(0..g.m()));
                Mutation::DeleteEdge { u: e.u, v: e.v }
            }
            5..=7 => continue,
            // Contract a random pair.
            _ if n > 4 => {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n - 1);
                let v = if v >= u { v + 1 } else { v };
                Mutation::ContractVertices { u: u.min(v), v: u.max(v) }
            }
            _ => continue,
        };
        let r = engine.execute(Request::Mutate { name: "g".into(), op });
        assert!(matches!(r, Response::Mutated { .. }), "mutation failed: {op:?} -> {r}");
    }

    let reference = engine.snapshot("g").expect("graph registered");
    (engine, reference)
}

fn query(engine: &mut Engine, q: Query) -> Response {
    engine.execute(Request::Query { name: "g".into(), query: q })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact min cut through the engine equals Stoer–Wagner on a freshly
    /// contracted copy of the mutated graph — and equals brute force where
    /// brute force is affordable.
    #[test]
    fn engine_exact_min_cut_matches_fresh_computation(
        n0 in 6usize..20,
        steps in 0usize..30,
        seed in any::<u64>(),
    ) {
        let (mut engine, g) = random_session(n0, 2 * n0, steps, seed);
        prop_assume!(g.n() >= 2);
        let expected = if g.is_connected() { stoer_wagner(&g).weight } else { 0 };
        match query(&mut engine, Query::ExactMinCut) {
            Response::CutValue { weight, .. } => prop_assert_eq!(weight, expected),
            other => return Err(TestCaseError::fail(format!("unexpected {other}"))),
        }
        if g.n() <= 10 && g.is_connected() {
            prop_assert_eq!(cut_graph::brute::min_cut(&g).weight, expected);
        }
        // The cached repeat must agree byte-for-byte (modulo the flag).
        match query(&mut engine, Query::ExactMinCut) {
            Response::CutValue { weight, cached, .. } => {
                prop_assert!(cached);
                prop_assert_eq!(weight, expected);
            }
            other => return Err(TestCaseError::fail(format!("unexpected {other}"))),
        }
    }

    /// The approximate min cut served by the engine is sandwiched against
    /// the exact answer of a fresh computation: OPT ≤ approx ≤ (2+ε)·OPT.
    #[test]
    fn engine_approx_min_cut_is_sandwiched(
        n0 in 6usize..20,
        steps in 0usize..20,
        seed in any::<u64>(),
        qseed in any::<u64>(),
    ) {
        let (mut engine, g) = random_session(n0, 2 * n0, steps, seed);
        prop_assume!(g.n() >= 2);
        let exact = if g.is_connected() { stoer_wagner(&g).weight } else { 0 };
        match query(&mut engine, Query::ApproxMinCut { seed: qseed }) {
            Response::CutValue { weight, .. } => {
                prop_assert!(weight >= exact);
                prop_assert!(weight as f64 <= 2.5 * exact as f64 + 1e-9);
            }
            other => return Err(TestCaseError::fail(format!("unexpected {other}"))),
        }
    }

    /// Engine singleton-cut answers equal a fresh oracle run under the
    /// same priority seed.
    #[test]
    fn engine_singleton_cut_matches_fresh_computation(
        n0 in 6usize..16,
        steps in 0usize..20,
        seed in any::<u64>(),
        qseed in any::<u64>(),
    ) {
        let (mut engine, g) = random_session(n0, 2 * n0, steps, seed);
        prop_assume!(g.n() >= 2 && g.m() >= 1);
        let mut rng = SmallRng::seed_from_u64(qseed);
        let prio = exponential_priorities(&g, &mut rng);
        let expected = smallest_singleton_cut(&g, &prio).weight;
        match query(&mut engine, Query::SingletonCut { seed: qseed }) {
            Response::CutValue { weight, .. } => prop_assert_eq!(weight, expected),
            other => return Err(TestCaseError::fail(format!("unexpected {other}"))),
        }
    }

    /// Connectivity and s-t cut weights equal fresh direct computations.
    #[test]
    fn engine_connectivity_and_st_cut_match(
        n0 in 6usize..16,
        steps in 0usize..25,
        seed in any::<u64>(),
    ) {
        let (mut engine, g) = random_session(n0, 2 * n0, steps, seed);
        match query(&mut engine, Query::Connectivity) {
            Response::ConnectivityValue { components, .. } => {
                prop_assert_eq!(components, g.component_count())
            }
            other => return Err(TestCaseError::fail(format!("unexpected {other}"))),
        }
        if g.n() >= 2 {
            let s = 0u32;
            let t = g.n() as u32 - 1;
            let expected = cut_graph::maxflow::min_st_cut(&g, s, t);
            match query(&mut engine, Query::StCutWeight { s, t }) {
                Response::CutValue { weight, .. } => prop_assert_eq!(weight, expected),
                other => return Err(TestCaseError::fail(format!("unexpected {other}"))),
            }
        }
    }

    /// k-cut answers respect the (4+ε) factor against brute force on
    /// small graphs.
    #[test]
    fn engine_kcut_within_factor(
        n0 in 6usize..10,
        seed in any::<u64>(),
        k in 2usize..4,
    ) {
        let (mut engine, g) = random_session(n0, 2 * n0, 0, seed);
        prop_assume!(k <= g.n());
        let (opt, _) = cut_graph::brute::min_kcut(&g, k);
        match query(&mut engine, Query::KCut { k }) {
            Response::KCutValue { weight, .. } => {
                prop_assert!(weight >= opt);
                prop_assert!(weight as f64 <= 4.5 * opt as f64 + 1e-9);
            }
            other => return Err(TestCaseError::fail(format!("unexpected {other}"))),
        }
    }

    /// For any random workload (write-heavy or read-only) and any shard
    /// count, the sharded engine's response stream (pipelined, collected
    /// in submission order) is element-wise identical to the
    /// single-threaded engine's.
    #[test]
    fn sharded_engine_matches_unsharded_on_random_workloads(
        seed in any::<u64>(),
        ops in 40usize..120,
        shards in 1usize..6,
        mix in any::<bool>().prop_map(|read_only| {
            if read_only { ActionMix::read_only() } else { ActionMix::write_heavy() }
        }),
    ) {
        let cfg = WorkloadConfig {
            ops,
            seed,
            graphs: 5,
            initial_n: 16,
            mix,
            ..WorkloadConfig::default()
        };
        let workload = Workload::generate(&cfg);

        let mut reference = Engine::new();
        let expected: Vec<Response> =
            workload.all_requests().map(|r| reference.execute(r.clone())).collect();

        // Pipelined: all tickets in flight at once, waited in order.
        let mut sharded = ShardedEngine::new(shards);
        let tickets: Vec<_> =
            workload.all_requests().map(|r| sharded.submit(r.clone())).collect();
        let got: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();
        prop_assert_eq!(&got, &expected);

        // Per-shard stats must sum to the reference engine's counters.
        let mut total = cut_engine::EngineStats::default();
        for s in sharded.shutdown() {
            total.merge(&s);
        }
        prop_assert_eq!(total.queries, reference.stats().queries);
        prop_assert_eq!(total.cache_hits, reference.stats().cache_hits);
        prop_assert_eq!(total.mutations, reference.stats().mutations);
        prop_assert_eq!(total.index.csr_builds, reference.stats().index.csr_builds);
    }

    /// The index layer's DSU-backed `Connectivity` answers equal BFS on a
    /// fresh snapshot at every point of a random mutate/query
    /// interleaving — across the O(α) insert fast path, the lazy rebuild
    /// after deletes, and the wholesale refresh after contractions.
    #[test]
    fn dsu_connectivity_equals_bfs_across_interleavings(
        n0 in 6usize..20,
        rounds in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let spec = GraphSpec::Gnm { n: n0, m: n0, w_min: 1, w_max: 9, seed: rng.gen() };
        let mut engine = Engine::new();
        let created = engine.execute(Request::Create { name: "g".into(), spec });
        prop_assert!(matches!(created, Response::Created { .. }));

        for _ in 0..rounds {
            // One mutation (insert, delete, or contract) ...
            let g = engine.snapshot("g").expect("registered");
            let n = g.n() as u32;
            let op = match rng.gen_range(0..6u32) {
                0..=2 => {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n - 1);
                    let v = if v >= u { v + 1 } else { v };
                    Mutation::InsertEdge { u, v, w: rng.gen_range(1..=9) }
                }
                3..=4 if g.m() > 0 => {
                    let e = g.edge(rng.gen_range(0..g.m()));
                    Mutation::DeleteEdge { u: e.u, v: e.v }
                }
                _ if n > 4 => {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n - 1);
                    let v = if v >= u { v + 1 } else { v };
                    Mutation::ContractVertices { u: u.min(v), v: u.max(v) }
                }
                _ => continue,
            };
            let r = engine.execute(Request::Mutate { name: "g".into(), op });
            prop_assert!(matches!(r, Response::Mutated { .. }), "mutation failed: {}", r);

            // ... then the DSU answer must equal BFS on a fresh snapshot,
            // and so must the cached repeat.
            let expected = engine.snapshot("g").expect("registered").component_count();
            for _ in 0..2 {
                match engine.execute(Request::Query { name: "g".into(), query: Query::Connectivity }) {
                    Response::ConnectivityValue { components, .. } => {
                        prop_assert_eq!(components, expected)
                    }
                    other => return Err(TestCaseError::fail(format!("unexpected {other}"))),
                }
            }
        }
    }

    /// Adaptive placement under fire: with an aggressive rebalance window
    /// (migrations every few submissions), the pipelined response stream
    /// — broadcasts injected — must stay element-wise identical to the
    /// single-threaded engine for any shard count; and the served counters
    /// must survive the migration accounting (migration counters balance).
    #[test]
    fn rebalanced_engine_matches_unsharded_on_random_workloads(
        seed in any::<u64>(),
        ops in 40usize..120,
        shards in 1usize..5,
    ) {
        let cfg = WorkloadConfig {
            ops,
            seed,
            graphs: 6,
            initial_n: 16,
            ..WorkloadConfig::default()
        };
        let workload = Workload::generate(&cfg);
        // Inject broadcasts so merged partials are exercised mid-stream,
        // not just at quiet points.
        let mut requests: Vec<Request> = Vec::new();
        for (i, r) in workload.all_requests().enumerate() {
            requests.push(r.clone());
            if i % 13 == 7 {
                requests.push(Request::Stats);
            }
            if i % 29 == 11 {
                requests.push(Request::ListGraphs);
            }
        }

        let mut reference = Engine::new();
        let expected: Vec<Response> =
            requests.iter().map(|r| reference.execute(r.clone())).collect();

        let placement = PlacementOptions {
            rebalance: true,
            window: 6,
            max_moves: 4,
            ..PlacementOptions::default()
        };
        let mut sharded = ShardedEngine::with_options(
            shards,
            ShardOptions { placement, ..ShardOptions::default() },
        );
        let tickets: Vec<_> = requests.iter().map(|r| sharded.submit(r.clone())).collect();
        let got: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();
        prop_assert_eq!(&got, &expected);

        let report = sharded.placement_report();
        let per_shard = sharded.shutdown();
        let ins: u64 = per_shard.iter().map(|s| s.migrations_in).sum();
        let outs: u64 = per_shard.iter().map(|s| s.migrations_out).sum();
        prop_assert_eq!(ins, report.migrations);
        prop_assert_eq!(outs, report.migrations);
        let mut total = cut_engine::EngineStats::default();
        for s in &per_shard {
            total.merge(s);
        }
        prop_assert_eq!(total.queries, reference.stats().queries);
        prop_assert_eq!(total.cache_hits, reference.stats().cache_hits);
        prop_assert_eq!(total.mutations, reference.stats().mutations);
    }

    /// A trace round-trip (`to_trace` → `from_trace`) reproduces the
    /// identical request stream, arrival schedule, and — replayed through
    /// an engine — a byte-identical response log (the stress digest's
    /// input), for closed-loop and phased open-loop workloads alike.
    #[test]
    fn trace_round_trip_reproduces_stream_and_response_log(
        seed in any::<u64>(),
        ops in 40usize..120,
        shape in 0u8..3,
    ) {
        let cfg = WorkloadConfig {
            ops,
            seed,
            graphs: 4,
            initial_n: 16,
            mix: ActionMix::write_heavy(),
            ..WorkloadConfig::default()
        };
        let workload = match shape {
            0 => Workload::generate(&cfg),
            1 => Workload::generate_timeline(
                &cfg,
                &Timeline::bursty(ops, 200_000.0, cfg.mix, cfg.zipf_exponent),
            ),
            _ => Workload::generate_timeline(
                &cfg,
                &Timeline::single("poisson", ops, ArrivalProcess::Poisson { rate: 150_000.0 }),
            ),
        };
        let replayed = Workload::from_trace(&workload.to_trace())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(&replayed, &workload);

        let log_of = |wl: &Workload| {
            let mut engine = Engine::new();
            let mut log = String::new();
            for req in wl.all_requests() {
                let resp = engine.execute(req.clone());
                log.push_str(&format!("{req} -> {resp}\n"));
            }
            log
        };
        let (original_log, replayed_log) = (log_of(&workload), log_of(&replayed));
        prop_assert_eq!(original_log.as_bytes(), replayed_log.as_bytes());
    }

    /// Replaying any seeded workload twice produces byte-identical
    /// response logs — the engine plus generator are fully deterministic.
    #[test]
    fn identical_workload_seeds_give_identical_response_logs(
        seed in any::<u64>(),
        ops in 50usize..150,
    ) {
        let cfg = WorkloadConfig {
            ops,
            seed,
            graphs: 3,
            initial_n: 16,
            ..WorkloadConfig::default()
        };
        let run = || {
            let workload = Workload::generate(&cfg);
            let mut engine = Engine::new();
            let mut log = String::new();
            for req in workload.all_requests() {
                let resp = engine.execute(req.clone());
                log.push_str(&format!("{req} -> {resp}\n"));
            }
            log
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.as_bytes(), b.as_bytes());
    }
}

/// Cache correctness under interleaving: answers served from the cache are
/// indistinguishable from recomputation at every epoch.
#[test]
fn cached_answers_always_match_recomputation() {
    let mut rng = SmallRng::seed_from_u64(0xCAFE);
    let (mut engine, _) = random_session(12, 24, 0, 1);
    for step in 0..60 {
        // Alternate mutations and repeated queries.
        if step % 3 == 0 {
            let g = engine.snapshot("g").unwrap();
            let n = g.n() as u32;
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n - 1);
            let v = if v >= u { v + 1 } else { v };
            engine.execute(Request::Mutate {
                name: "g".into(),
                op: Mutation::InsertEdge { u, v, w: rng.gen_range(1..=5) },
            });
        }
        let g = engine.snapshot("g").unwrap();
        let expected = if g.is_connected() { stoer_wagner(&g).weight } else { 0 };
        for _ in 0..2 {
            match query(&mut engine, Query::ExactMinCut) {
                Response::CutValue { weight, .. } => assert_eq!(weight, expected),
                other => panic!("unexpected {other}"),
            }
        }
    }
    let stats = engine.stats();
    assert!(stats.cache_hits > 0, "interleaved repeats must hit the cache");
    assert!(stats.cache_misses > 0);
}

/// A graph's whole lifecycle — create, query, mutate, re-query, drop,
/// query-after-drop — lands on one shard and behaves exactly like the
/// unsharded engine, even with unrelated traffic interleaved on other
/// graphs (and therefore other shards).
#[test]
fn sharded_lifecycle_with_interleaved_cross_shard_traffic() {
    let mut sharded = ShardedEngine::new(4);
    let mut plain = Engine::new();

    let mut requests: Vec<Request> = Vec::new();
    for i in 0..6 {
        requests.push(Request::Create {
            name: format!("side{i}"),
            spec: GraphSpec::Cycle { n: 8 + i },
        });
    }
    requests.push(Request::Create { name: "main".into(), spec: GraphSpec::Cycle { n: 12 } });
    for i in 0..6 {
        requests.push(Request::Query { name: format!("side{i}"), query: Query::Connectivity });
    }
    requests.push(Request::Query { name: "main".into(), query: Query::ExactMinCut });
    requests.push(Request::Mutate {
        name: "main".into(),
        op: Mutation::InsertEdge { u: 0, v: 6, w: 2 },
    });
    requests.push(Request::Query { name: "main".into(), query: Query::ExactMinCut });
    requests.push(Request::ListGraphs);
    requests.push(Request::Drop { name: "main".into() });
    requests.push(Request::Query { name: "main".into(), query: Query::ExactMinCut });
    requests.push(Request::ListGraphs);
    requests.push(Request::Stats);

    for req in requests {
        assert_eq!(sharded.execute(req.clone()), plain.execute(req));
    }
}

/// Unknown-graph failures must be indistinguishable from the unsharded
/// path for every request kind that names a graph.
#[test]
fn sharded_unknown_graph_error_parity() {
    let mut sharded = ShardedEngine::new(3);
    let mut plain = Engine::new();
    let requests = [
        Request::Query { name: "nope".into(), query: Query::Connectivity },
        Request::Query { name: "nope".into(), query: Query::KCut { k: 2 } },
        Request::Mutate { name: "nope".into(), op: Mutation::InsertEdge { u: 0, v: 1, w: 1 } },
        Request::Mutate { name: "nope".into(), op: Mutation::ContractVertices { u: 0, v: 1 } },
        Request::Drop { name: "nope".into() },
    ];
    for req in requests {
        let expected = plain.execute(req.clone());
        assert!(matches!(expected, Response::Error { .. }));
        assert_eq!(sharded.execute(req), expected);
    }
}

/// Shutdown must drain a deep in-flight pipeline — mutations included —
/// before the workers exit, so no submitted request is ever lost.
#[test]
fn sharded_shutdown_drains_pipelined_mutations_and_queries() {
    let cfg = WorkloadConfig { ops: 300, seed: 41, graphs: 6, initial_n: 16, ..Default::default() };
    let workload = Workload::generate(&cfg);

    let mut reference = Engine::new();
    let expected: Vec<Response> =
        workload.all_requests().map(|r| reference.execute(r.clone())).collect();

    let mut sharded = ShardedEngine::new(4);
    let tickets: Vec<_> = workload.all_requests().map(|r| sharded.submit(r.clone())).collect();
    // Shut down while (potentially) everything is still queued …
    let per_shard = sharded.shutdown();
    // … yet every ticket must resolve to the right answer.
    let got: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();
    assert_eq!(got, expected);

    let served: u64 = per_shard.iter().map(|s| s.queries + s.mutations).sum();
    assert_eq!(served, reference.stats().queries + reference.stats().mutations);
}
