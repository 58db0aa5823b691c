//! Spill / fault-in equivalence: under a resident cap far below the
//! registry size, the engine must spill cold graphs to the store and
//! fault them back in on access — with a response log **byte-identical**
//! to an uncapped run, and with the counters proving real spills and
//! fault-ins happened (a run that never spilled would pass vacuously).

use std::fmt::Write as _;
use std::sync::Arc;

use cut_engine::{
    Engine, EngineConfig, GraphStore, Request, ShardOptions, ShardedEngine, Workload,
    WorkloadConfig,
};
use cut_store::{Store, StoreOptions};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cut_store_spill_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic op log the stress harness digests: one line per
/// request, in submission order.
fn op_log(requests: &[Request], responses: &[cut_engine::Response]) -> String {
    let mut log = String::new();
    for (i, (request, response)) in requests.iter().zip(responses).enumerate() {
        writeln!(log, "{i:06} {} -> {}", request.to_trace_line(), response.to_trace_line())
            .expect("string write");
    }
    log
}

fn workload_requests() -> Vec<Request> {
    let cfg = WorkloadConfig {
        ops: 600,
        seed: 0xD15C,
        graphs: 8,
        initial_n: 16,
        zipf_exponent: 1.1,
        ..WorkloadConfig::default()
    };
    Workload::generate(&cfg).all_requests().cloned().collect()
}

#[test]
fn capped_engine_answers_byte_identically_and_really_spills() {
    let requests = workload_requests();
    let mut plain = Engine::new();
    let reference: Vec<_> = requests.iter().map(|r| plain.execute(r.clone())).collect();
    let reference_log = op_log(&requests, &reference);

    let dir = temp_dir("single");
    let store = Arc::new(Store::open(&dir, StoreOptions::default()).unwrap());
    let cfg = EngineConfig { resident_cap: 2, ..EngineConfig::default() };
    let mut capped = Engine::with_config(cfg);
    capped.attach_store(Arc::clone(&store) as Arc<dyn GraphStore>);
    let responses: Vec<_> = requests.iter().map(|r| capped.execute(r.clone())).collect();
    let capped_log = op_log(&requests, &responses);

    assert_eq!(
        capped_log, reference_log,
        "a resident cap must never change a response (8 graphs through 2 resident slots)"
    );
    let counters = store.counters();
    assert!(counters.spills >= 1, "the cap must force real spills (got {counters:?})");
    assert!(counters.fault_ins >= 1, "spilled graphs must fault back in (got {counters:?})");
    assert!(counters.wal_appends > 0, "every applied request is logged");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sharded_capped_engine_answers_byte_identically() {
    let requests = workload_requests();
    let mut plain = Engine::new();
    let reference: Vec<_> = requests.iter().map(|r| plain.execute(r.clone())).collect();

    let dir = temp_dir("sharded");
    let store = Arc::new(Store::open(&dir, StoreOptions::default()).unwrap());
    let opts = ShardOptions {
        cfg: EngineConfig { resident_cap: 1, ..EngineConfig::default() },
        store: Some(Arc::clone(&store) as Arc<dyn GraphStore>),
        ..ShardOptions::default()
    };
    let sharded = ShardedEngine::with_options(4, opts);
    let responses: Vec<_> = requests.iter().map(|r| sharded.execute(r.clone())).collect();

    assert_eq!(
        op_log(&requests, &responses),
        op_log(&requests, &reference),
        "per-shard caps of 1 across 4 shards must not change any response"
    );
    let counters = store.counters();
    assert!(counters.spills >= 1, "per-shard cap 1 must spill (got {counters:?})");
    assert!(counters.fault_ins >= 1, "spilled graphs must fault back in (got {counters:?})");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn spilled_graphs_survive_a_restart_via_adoption() {
    let requests = workload_requests();
    let mut plain = Engine::new();
    for request in &requests {
        plain.execute(request.clone());
    }

    let dir = temp_dir("restart");
    {
        let store = Arc::new(Store::open(&dir, StoreOptions::default()).unwrap());
        let cfg = EngineConfig { resident_cap: 3, ..EngineConfig::default() };
        let mut engine = Engine::with_config(cfg);
        engine.attach_store(Arc::clone(&store) as Arc<dyn GraphStore>);
        for request in &requests {
            engine.execute(request.clone());
        }
        // Engine dropped without ceremony: everything applied is logged.
    }

    // "Restart": a fresh store scan plus a fresh engine adopting every
    // durable graph. The listing and every per-graph answer must match
    // the uninterrupted reference engine.
    let store = Arc::new(Store::open(&dir, StoreOptions::default()).unwrap());
    let mut revived = Engine::with_config(EngineConfig::default());
    revived.attach_store(Arc::clone(&store) as Arc<dyn GraphStore>);
    for name in store.names() {
        revived.adopt_stored(&name);
    }
    assert_eq!(revived.execute(Request::ListGraphs), plain.execute(Request::ListGraphs));
    for i in 0..8 {
        let probe =
            Request::Query { name: format!("g{i:03}"), query: cut_engine::Query::ExactMinCut };
        assert_eq!(
            revived.execute(probe.clone()),
            plain.execute(probe),
            "graph g{i:03} must answer identically after restart (cached flags included)"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
