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
//! Every trace in the table pins two things:
//!
//! 1. **Determinism** — the response log digests to the committed
//!    constant, with no error responses, so workload generation, request
//!    formatting, and every engine answer are all frozen.
//! 2. **Kernel byte-identity** — a kernelized engine replays the exact
//!    same log, byte for byte. Counters may move; responses may not.
//!
//! On top of that, whale pins **kernel effectiveness**: the reduction
//! genuinely fires on its mix (rules applied, s-t serves) and sheds at
//! least half the vertices (the same `vertex_ratio <= 0.5` gate CI
//! enforces). write_storm pins its cache and certificate counters: every
//! carry replaces one gated recompute, so recomputes plus certified skips
//! equal the recomputes of an engine without the certificate gate.
//!
//! If an intentional engine change moves a digest, regenerate with the
//! commands above and update the table in the same commit.

use cut_engine::{Engine, EngineConfig, Response, Workload};

/// A committed trace and the digest `stress --trace-in` prints for it,
/// at any shard count, with `--kernel` on or off.
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

/// Replay the workload through one engine, building the stress driver's
/// log format (`{i:06} {request} -> {response}`, no timing).
fn replay(name: &str, workload: &Workload, cfg: EngineConfig) -> (String, Engine) {
    let mut engine = Engine::with_config(cfg);
    let mut log = String::with_capacity(workload.len() * 64);
    for (i, request) in workload.all_requests().enumerate() {
        let response = engine.execute(request.clone());
        assert!(
            !matches!(response, Response::Error { .. }),
            "{name} trace op {i} errored: {response}"
        );
        log.push_str(&format!("{i:06} {request} -> {response}\n"));
    }
    (log, engine)
}

/// Replay the named pinned trace plain and kernelized, check both
/// table-wide pins, and hand back the two engines for trace-specific
/// counter checks.
fn replay_pinned(name: &str) -> (Engine, Engine) {
    let pinned = PINNED.iter().find(|p| p.name == name).expect("trace is in the table");
    let workload = Workload::from_trace(pinned.text).expect("committed trace parses");

    let (plain_log, plain) = replay(name, &workload, EngineConfig::default());
    let (kernel_log, kernelized) =
        replay(name, &workload, EngineConfig { kernel: true, ..EngineConfig::default() });

    assert_eq!(
        fnv1a(plain_log.as_bytes()),
        pinned.digest,
        "unkernelized {name} digest moved — regenerate traces/{name}.trace and update \
         the table if the change is intentional"
    );
    assert!(plain_log == kernel_log, "kernelized {name} replay diverged from the plain log");
    (plain, kernelized)
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
fn whale_trace_digest_is_pinned_and_kernel_invariant() {
    let (plain, kernelized) = replay_pinned("whale");

    // The replay must have exercised the kernel, not bypassed it.
    let stats = kernelized.stats();
    assert!(stats.index.kernel_rules_applied() > 0, "no reduction rules fired");
    assert!(stats.kernel_cut_serves > 0, "kernel never served a cut");
    assert!(stats.index.kernel_builds > 0, "kernel never built");
    assert!(stats.index.kernel_patches > 0, "whale insert phase never patched");
    let ratio = stats.index.kernel_vertex_ratio();
    assert!(ratio <= 0.5, "whale kernel kept {ratio:.4} of vertices; the gate requires <= 0.5");

    // The plain engine's counters prove the baseline truly ran unkernelized.
    assert_eq!(plain.stats().index.kernel_builds, 0);
    assert_eq!(plain.stats().kernel_cut_serves, 0);
}

#[test]
fn write_storm_trace_digest_and_counters_are_pinned() {
    let (plain, _) = replay_pinned("write_storm");
    let stats = plain.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (904, 4258));
    // Each carry replaces one gated recompute: 2000 + 82 = 2082 is the
    // recompute count of the same replay with the certificate gate off.
    assert_eq!((stats.cut_recomputes, stats.cut_certified_skips), (2000, 82));
}
