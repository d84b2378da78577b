#!/usr/bin/env bash
# Re-cuts the baselines that depend on migration decisions: the dense and
# flow flight recordings and the netview report the CI gates diff against.
# They are the raw outputs of the smoke runs below; a flight file with no
# `tolerances` line is gated at `Tolerances::default()`. The flow run's
# timeline, which the netview report is cut from, lands beside them
# (ignored by git). Then it runs the pinned checkpoint-digest test, whose
# failure message prints the digests a re-cut must pin. DESIGN.md §5
# ("Moving decisions on purpose") says when and how to use it.
#
#   results/baselines/recut.sh             # re-cut in place
#   results/baselines/recut.sh /tmp/recut  # cut elsewhere (CI diffs these)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
dir="${1:-$here}"
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"
cd "$here/../.."

cargo build --release --quiet -p fedmigr
fedmigr="${CARGO_TARGET_DIR:-target}/release/fedmigr"
smoke=(--epochs 30 --eval 10 --diag)
"$fedmigr" "${smoke[@]}" --flight-out "$dir/smoke_fedmigr.jsonl"
"$fedmigr" "${smoke[@]}" --transport flow --net-stress 0.3 \
    --flight-out "$dir/smoke_fedmigr_flow.jsonl" --timeline-out "$dir/timeline_flow.jsonl"
"$fedmigr" netview "$dir/timeline_flow.jsonl" --json "$dir/netview_smoke.json"
cargo test --quiet --test chaos_resume run_state_bytes_are_pinned
