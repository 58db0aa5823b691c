#!/usr/bin/env bash
# Build a release cut-server and the perfbench driver from this checkout,
# then run the driver against that server. Arguments pass through:
#
#   bash perfbench/run.sh --workload hot-reads --seed 7 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# driver's scratch files go to .bench_tmp and are removed when it exits.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f Cargo.toml || ! -d crates/server ]]; then
    echo "perfbench: needs a full checkout of the repository (no Cargo.toml or crates/server here)" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p cut_server --bin cut-server >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/cut-server" "$@"
