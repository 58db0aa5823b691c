//! A shard worker that dies must not hang later requests: its job
//! channel's receiver drops with it, so every job queued or routed there
//! afterwards resolves its ticket to an error instead of blocking forever.

use std::sync::Arc;
use std::time::Duration;

use cut_engine::{
    GraphSpec, GraphStore, RecoveredGraph, Request, Response, ShardOptions, ShardedEngine,
};

/// The graph whose write-ahead append panics, killing its shard worker.
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

#[test]
fn requests_after_a_worker_panic_resolve_to_errors() {
    let store: Arc<dyn GraphStore> = Arc::new(PanickingStore);
    let mut engine =
        ShardedEngine::with_options(1, ShardOptions { store: Some(store), ..Default::default() });

    let first = engine.execute(create(POISON));
    assert!(matches!(first, Response::Error { .. }), "the killing request must error: {first}");

    // Both land on the dead shard: one routed by name, one broadcast.
    let later = [engine.submit(create("survivor")), engine.submit(Request::Stats)];
    for mut ticket in later {
        let answer = ticket.wait_timeout(Duration::from_secs(3));
        assert!(
            matches!(answer, Some(Response::Error { .. })),
            "a request routed to a dead shard must resolve to an error, got {answer:?}"
        );
    }

    // Dropped, not shut down: `shutdown` re-raises the worker's panic.
    drop(engine);
}
