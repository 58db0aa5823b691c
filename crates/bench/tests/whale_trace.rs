//! Replays of the pinned traces under `traces/`, each generated by
//! `stress --phases <preset> --seed 7 --trace-out <file>`:
//!
//! - `whale.trace` (`--phases whale --ops 2000`): an adversarial
//!   s-t-heavy phase mix over one large sparse graph;
//! - `write_storm.trace` (`--phases write-storm --ops 10000`):
//!   mutation-heavy phases that keep splitting and re-merging components
//!   under stale cut-cache entries. (At `--ops 2000` the same preset
//!   digests to `0x16bfd9b856cd576f`; the committed trace is the 10k
//!   run.)
//!
//! `pinned_digests.rs` checks that those commands still regenerate both
//! files byte for byte.
//!
//! Every trace in the table pins **determinism**: the response log
//! digests to the committed constant, with no error responses, so
//! workload generation, request formatting, and every engine answer are
//! all frozen. On top of that, write_storm pins its cache and certificate
//! counters: every carry replaces one gated recompute, so recomputes plus
//! certified skips equal the recomputes of an engine without the
//! certificate gate.
//!
//! If an intentional engine change moves a digest, regenerate with the
//! commands above and update the table in the same commit.

use cut_engine::{Engine, Response, Workload};

/// A committed trace and the digest `stress --trace-in` prints for it,
/// at any shard count.
struct PinnedTrace {
    name: &'static str,
    text: &'static str,
    digest: u64,
}

const PINNED: [PinnedTrace; 2] = [
    PinnedTrace {
        name: "whale",
        text: include_str!("../traces/whale.trace"),
        digest: 0xda29_c44a_450a_6ca4,
    },
    PinnedTrace {
        name: "write_storm",
        text: include_str!("../traces/write_storm.trace"),
        digest: 0x61ae_c3fb_8cff_a132,
    },
];

/// FNV-1a, exactly as the stress driver folds its response log.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Replay the named pinned trace through one engine, building the stress
/// driver's log format (`{i:06} {request} -> {response}`, no timing),
/// check its digest, and hand back the engine for trace-specific counter
/// checks.
fn replay_pinned(name: &str) -> Engine {
    let pinned = PINNED.iter().find(|p| p.name == name).expect("trace is in the table");
    let workload = Workload::from_trace(pinned.text).expect("committed trace parses");
    let mut engine = Engine::new();
    let mut log = String::with_capacity(workload.len() * 64);
    for (i, request) in workload.all_requests().enumerate() {
        let response = engine.execute(request.clone());
        assert!(
            !matches!(response, Response::Error { .. }),
            "{name} trace op {i} errored: {response}"
        );
        log.push_str(&format!("{i:06} {request} -> {response}\n"));
    }
    assert_eq!(
        fnv1a(log.as_bytes()),
        pinned.digest,
        "{name} digest moved — regenerate traces/{name}.trace and update the table if the \
         change is intentional"
    );
    engine
}

#[test]
fn every_committed_trace_is_pinned() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("traces directory")
        .map(|entry| entry.expect("directory entry").file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut pinned: Vec<String> = PINNED.iter().map(|p| format!("{}.trace", p.name)).collect();
    pinned.sort();
    assert_eq!(on_disk, pinned, "every trace under traces/ needs a row in PINNED");
}

#[test]
fn whale_trace_digest_is_pinned() {
    replay_pinned("whale");
}

#[test]
fn write_storm_trace_digest_and_counters_are_pinned() {
    let stats = replay_pinned("write_storm").stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (904, 4258));
    // Each carry replaces one gated recompute: 2000 + 82 = 2082 is the
    // recompute count of the same replay with the certificate gate off.
    assert_eq!((stats.cut_recomputes, stats.cut_certified_skips), (2000, 82));
}
