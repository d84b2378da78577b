#!/bin/bash
# Regenerates every table and figure of the paper (plus ablations and
# extensions): runs each experiment of `fedmigr bench --list` except the
# reduced `*_ci` matrices, writing results/<name>.txt. Arguments are passed
# to every run, e.g. `./run_experiments.sh --scale paper` (hours per
# experiment on one core).
set -u
cd "$(dirname "$0")"
BIN=./target/release/fedmigr
mkdir -p results
for name in $("$BIN" bench --list); do
  case $name in *_ci) continue ;; esac
  echo "=== $name: $(date +%H:%M:%S) ==="
  "$BIN" bench "$name" "$@" > "results/$name.txt" 2>&1
  echo "--- done $name ($?)"
done
echo "ALL EXPERIMENTS DONE $(date +%H:%M:%S)"
