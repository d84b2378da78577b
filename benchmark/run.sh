#!/usr/bin/env bash
# The one command: builds the root release binary and the fedbench package
# offline into one target directory, then runs the benchmark from the repo
# root. Arguments go to fedbench (see README.md); with none, all four
# workloads run, end to end and traced.
#
#   benchmark/run.sh [--seed N] [--out result.json]
#   benchmark/run.sh --workload dense_comm --seed 3 --seconds 20 --trace 0
#   benchmark/run.sh compare a.json b.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One target directory for both builds, so fedbench finds fedmigr beside it.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Build chatter goes to stderr: stdout carries only the benchmark's result.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin fedmigr >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/fedbench" "$@"
