//! A request that panics inside a shard kills that shard, not the engine:
//! the panic is caught at the locked execute, the request and every later
//! one routed to the dead shard answer an error, and a broadcast (which
//! needs every shard) answers an error too. The other shards keep serving.

use std::sync::Arc;

use cut_engine::{
    Engine, GraphSpec, GraphStore, Mutation, Query, RecoveredGraph, Request, Response,
    ShardOptions, ShardedEngine,
};

/// The graph whose write-ahead append panics, killing its shard.
const POISON: &str = "boom";

/// A store that keeps nothing and panics when asked to log [`POISON`].
struct PanickingStore;

impl GraphStore for PanickingStore {
    fn log(&self, name: &str, _request: &Request, _response: &Response) {
        if name == POISON {
            panic!("injected store failure for graph '{name}'");
        }
    }

    fn contains(&self, _name: &str) -> bool {
        false
    }

    fn names(&self) -> Vec<String> {
        Vec::new()
    }

    fn wants_snapshot(&self, _name: &str) -> bool {
        false
    }

    fn snapshot(&self, _name: &str, _state: &str) {}

    fn spill(&self, _name: &str, _state: &str) {}

    fn load(&self, _name: &str) -> Option<RecoveredGraph> {
        None
    }

    fn drop_graph(&self, _name: &str, _request: &Request, _response: &Response) {}
}

fn create(name: &str) -> Request {
    Request::Create { name: name.into(), spec: GraphSpec::Cycle { n: 8 } }
}

/// A sharded engine whose store panics on [`POISON`].
fn poisonable(shards: usize) -> ShardedEngine {
    let store: Arc<dyn GraphStore> = Arc::new(PanickingStore);
    ShardedEngine::with_options(shards, ShardOptions { store: Some(store), ..Default::default() })
}

#[test]
fn requests_after_a_worker_panic_resolve_to_errors() {
    let engine = poisonable(1);

    let first = engine.execute(create(POISON));
    assert!(matches!(first, Response::Error { .. }), "the killing request must error: {first}");

    // Both land on the dead shard: one routed by name, one broadcast.
    for request in [create("survivor"), Request::Stats] {
        let answer = engine.execute(request);
        assert!(
            matches!(answer, Response::Error { .. }),
            "a request routed to a dead shard must answer an error, got {answer}"
        );
    }
}

#[test]
fn a_dead_shard_leaves_its_neighbour_serving() {
    let engine = poisonable(2);
    let dead = engine.shard_of(POISON);
    let survivor = (0..)
        .map(|i| format!("survivor{i}"))
        .find(|name| engine.shard_of(name) != dead)
        .expect("some name hashes to the other shard");

    let first = engine.execute(create(POISON));
    assert!(matches!(first, Response::Error { .. }), "the killing request must error: {first}");

    // The live shard answers exactly as a plain engine would.
    let requests = [
        create(&survivor),
        Request::Mutate { name: survivor.clone(), op: Mutation::InsertEdge { u: 0, v: 4, w: 3 } },
        Request::Query { name: survivor.clone(), query: Query::ExactMinCut },
    ];
    let mut plain = Engine::new();
    for request in requests {
        let want = plain.execute(request.clone());
        assert_eq!(engine.execute(request.clone()), want, "live shard diverged on {request}");
    }

    // A broadcast needs every shard's partial, so the dead one fails it.
    let answer = engine.execute(Request::Stats);
    assert!(
        matches!(answer, Response::Error { .. }),
        "a broadcast touching a dead shard must answer an error, got {answer}"
    );
}
