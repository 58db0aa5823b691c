//! The `stress` binary's pinned outputs, checked by value:
//!
//! - the log digests of the default mix and of the bursty preset, at one
//!   shard and at four (comparing two runs of one binary cannot catch a
//!   change that moves both);
//! - the preset generator: `--phases whale` and `--phases write-storm`
//!   regenerate the committed traces under `traces/` byte for byte, and
//!   replay them live to the digests `whale_trace.rs` pins for the files.
//!   The traces carry every arrival timestamp, so this also pins the
//!   presets' fixed base rate.
//!
//! If an intentional engine change moves a digest, re-pin it here, in
//! `whale_trace.rs` and in CI in the same commit.

use std::path::PathBuf;
use std::process::Command;

/// Run `stress` and return its stdout, failing the test on a nonzero exit
/// or any error response in the replay.
fn stress(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_stress")).args(args).output().expect("spawn stress");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "stress {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains(", 0 errors)"), "stress {args:?} replayed with errors:\n{stdout}");
    stdout
}

fn assert_digest(stdout: &str, digest: &str, args: &[&str]) {
    assert!(
        stdout.contains(&format!("log digest: {digest} ")),
        "stress {args:?}: expected digest {digest}, got:\n{stdout}"
    );
}

/// Check `args` prints `digest` at `--shards 1` and `--shards 4`.
fn assert_digest_at_shards_1_and_4(args: &[&str], digest: &str) {
    for shards in ["1", "4"] {
        let mut args = args.to_vec();
        args.extend(["--shards", shards]);
        assert_digest(&stress(&args), digest, &args);
    }
}

/// Generate `preset` into a scratch trace, and check it equals the
/// committed `traces/{trace}.trace` and replays to `digest`.
fn assert_preset_regenerates(preset: &str, ops: &str, trace: &str, digest: &str) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("pinned_{trace}.trace"));
    let out_str = out.to_str().expect("utf-8 temp path");
    let args = ["--phases", preset, "--ops", ops, "--seed", "7", "--trace-out", out_str];
    assert_digest(&stress(&args), digest, &args);
    let generated = std::fs::read(&out).expect("read generated trace");
    let committed_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("traces/{trace}.trace"));
    let committed = std::fs::read(&committed_path).expect("read committed trace");
    let _ = std::fs::remove_file(&out);
    assert!(
        generated == committed,
        "stress {args:?} no longer regenerates {}",
        committed_path.display()
    );
}

#[test]
fn default_mix_digest_is_pinned() {
    assert_digest_at_shards_1_and_4(&["--ops", "2000", "--seed", "7"], "0x72eae73dd6ea2af3");
}

#[test]
fn bursty_preset_digest_is_pinned() {
    assert_digest_at_shards_1_and_4(
        &["--phases", "bursty", "--ops", "2000", "--seed", "7"],
        "0xe11b3440a9114526",
    );
}

#[test]
fn whale_preset_regenerates_its_committed_trace() {
    assert_preset_regenerates("whale", "2000", "whale", "0xda29c44a450a6ca4");
}

#[test]
fn write_storm_preset_regenerates_its_committed_trace() {
    assert_preset_regenerates("write-storm", "10000", "write_storm", "0x61aec3fb8cffa132");
}
