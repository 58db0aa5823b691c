//! Command-line contract of the `stress` binary: flags that cannot take
//! effect exit 2 with an `error:` line naming where they belong, before
//! any workload is generated or any socket is opened.

use std::process::{Command, Output};

fn stress(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stress")).args(args).output().expect("spawn stress")
}

/// Assert a usage error: exit status 2 and `needle` on stderr.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = stress(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stress {args:?} must exit 2; stderr: {stderr}");
    assert!(
        stderr.contains(needle),
        "stress {args:?}: expected '{needle}' on stderr, got: {stderr}"
    );
}

#[test]
fn remote_sends_server_flags_to_cut_server() {
    // Nothing listens on port 1: the run must fail on its flags, not on
    // the connection.
    for flags in [&["--shards", "2"][..], &["--cache-entries", "64"]] {
        let mut args = vec!["--remote", "127.0.0.1:1"];
        args.extend_from_slice(flags);
        assert_usage_error(&args, "cut-server");
    }
}

#[test]
fn removed_flags_are_unknown() {
    // Flags the binary no longer has fail through the generic
    // unknown-flag path.
    for flag in
        ["--rebalance", "--no-dynconn", "--kernel-threshold", "--arrival", "--json-out", "--kernel"]
    {
        assert_usage_error(&[flag], "unknown flag");
    }
}
