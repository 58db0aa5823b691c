//! Snapshot cadence under churn: a durable engine replays a write-heavy
//! stream whose graph sits at the generator's 12-vertex floor with
//! thousands of parallel edges. A snapshot of such a graph outweighs
//! hundreds of WAL records, so the store's byte rule holds each snapshot
//! back until about one snapshot's worth of WAL sits past the watermark,
//! far beyond the record floor. Dropping the engine mid-stream and
//! reopening the directory must replay that long tail into exactly the
//! state an uninterrupted run has: the finished stream answers byte for
//! byte like an in-memory engine.

use std::path::PathBuf;
use std::sync::Arc;

use cut_engine::{ActionMix, Engine, GraphStore, Request, Workload, WorkloadConfig};
use cut_store::{Store, StoreOptions};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cut_store_cadence_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workload_requests() -> Vec<Request> {
    let cfg = WorkloadConfig {
        ops: 14_000,
        seed: 0xCADE,
        graphs: 1,
        initial_n: 16,
        mix: ActionMix::write_heavy(),
        ..WorkloadConfig::default()
    };
    Workload::generate(&cfg).all_requests().cloned().collect()
}

/// Execute `requests` in order, one response trace line each.
fn run(engine: &mut Engine, requests: &[Request]) -> Vec<String> {
    requests.iter().map(|r| engine.execute(r.clone()).to_trace_line()).collect()
}

#[test]
fn a_size_triggered_wal_tail_recovers_byte_identically() {
    let requests = workload_requests();
    let mut plain = Engine::new();
    let reference = run(&mut plain, &requests);
    // The stream reaches churn's shape: the vertex floor, thousands of
    // parallel edges.
    let hot = plain.snapshot("g000").expect("g000 lives to the end of the stream");
    assert_eq!(hot.n(), 12, "g000 must contract down to the generator's floor");
    assert!(hot.m() >= 2000, "g000 must pile up thousands of parallel edges (m = {})", hot.m());

    let dir = temp_dir("resume");
    let floor = StoreOptions::default().snapshot_every;
    // An odd split point, so the drop lands between snapshots.
    let split = requests.len() * 3 / 5 + 7;
    let mut responses = {
        let store = Arc::new(Store::open(&dir, StoreOptions::default()).unwrap());
        let mut engine = Engine::new();
        engine.attach_store(Arc::clone(&store) as Arc<dyn GraphStore>);
        let responses = run(&mut engine, &requests[..split]);
        assert!(store.counters().snapshots >= 1, "the first leg must write periodic snapshots");
        responses
        // Engine and store dropped mid-stream without ceremony.
    };

    let store = Arc::new(Store::open(&dir, StoreOptions::default()).unwrap());
    let mut engine = Engine::new();
    engine.attach_store(Arc::clone(&store) as Arc<dyn GraphStore>);
    for name in store.names() {
        engine.adopt_stored(&name);
    }
    responses.extend(run(&mut engine, &requests[split..]));

    let first_diff = responses.iter().zip(&reference).position(|(a, b)| a != b);
    assert_eq!(first_diff, None, "request {first_diff:?} answered differently after recovery");
    assert_eq!(responses.len(), reference.len());
    // A tail longer than the record floor is one the byte rule held
    // back: the record count alone would have snapshotted it.
    let counters = store.counters();
    assert!(
        counters.replayed > floor,
        "recovery must replay a tail past the record floor (got {counters:?})"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
