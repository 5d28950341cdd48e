#!/usr/bin/env bash
# Alternating rangebench pairs from two already-built source trees, appended
# to the benchmark ledger.
#
# Runs PAIRS pairs of `rangebench --workload WORKLOAD --seconds SECONDS`:
# the parent tree runs first on odd pairs and the change tree on even ones,
# so a slow patch of the host does not always land on the same side. Each
# tree must already hold its benchmark binary, built from its own sources:
#
#   cargo build --release --offline --manifest-path rangebench/Cargo.toml
#
# Every run's stdout record line is appended to BENCH_range.jsonl at the root
# of this repository, tagged with its side:
#
#   {"side":"parent","record":{"workload":...,"stamp":{"commit":...},...}}
#
# The record's stamp names the tree's commit (`tree:<fnv64>` of its crates/
# when the tree is not a git checkout), host, CPUs, rustc, date and seed.
# rangebench stamps a git checkout with its HEAD commit, uncommitted edits
# and all, so a tree that git reports changes in is refused before any run:
# copy such a tree without its .git instead.
#
# Usage:
#   scripts/bench_pairs.sh <parent-tree> <change-tree> <workload> <pairs> [seconds]
#
# seconds defaults to 15, the run length BENCHMARK.json sets. SEED (default
# 0) and TRACE (0 or 1, default 0) pass through to rangebench; LEDGER names
# another output file. Exits 1 if any run failed or its sim_digest did not
# match; every record is appended either way. Exits 2 on a usage error, an
# unbuilt tree or a tree with uncommitted changes.
set -euo pipefail

if [ "$#" -lt 4 ] || [ "$#" -gt 5 ]; then
  sed -n 's/^# \{0,1\}//p' "$0" | sed -n '/^Usage:/,/^$/p' >&2
  exit 2
fi
PARENT="$(cd "$1" && pwd)"
CHANGE="$(cd "$2" && pwd)"
WORKLOAD="$3"
PAIRS="$4"
SECONDS_PER_RUN="${5:-15}"
SEED="${SEED:-0}"
TRACE="${TRACE:-0}"
LEDGER="${LEDGER:-$(cd "$(dirname "$0")/.." && pwd)/BENCH_range.jsonl}"

for tree in "$PARENT" "$CHANGE"; do
  if [ ! -x "$tree/rangebench/target/release/rangebench" ]; then
    echo "bench_pairs: $tree has no built rangebench/target/release/rangebench" >&2
    exit 2
  fi
  if [ -n "$(git -C "$tree" status --porcelain 2>/dev/null)" ]; then
    echo "bench_pairs: $tree is a git checkout with uncommitted changes, which" \
      "rangebench would stamp as its HEAD commit; copy the tree without .git" >&2
    exit 2
  fi
done

failed=0
run() { # <side> <tree>
  local out status=0
  out="$(cd "$2" && ./rangebench/target/release/rangebench --workload "$WORKLOAD" \
    --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace "$TRACE")" || status=$?
  local record
  record="$(printf '%s\n' "$out" | grep '^{"record":' || true)"
  if [ -z "$record" ]; then
    echo "bench_pairs: $1 run printed no record (exit $status)" >&2
    failed=1
    return
  fi
  printf '{"side":"%s",%s\n' "$1" "${record#\{}" >>"$LEDGER"
  if [ "$status" -ne 0 ]; then
    echo "bench_pairs: $1 run failed (exit $status); its record lists why" >&2
    failed=1
  fi
}

for pair in $(seq 1 "$PAIRS"); do
  echo "bench_pairs: $WORKLOAD pair $pair of $PAIRS" >&2
  if [ $((pair % 2)) -eq 1 ]; then
    run parent "$PARENT"
    run change "$CHANGE"
  else
    run change "$CHANGE"
    run parent "$PARENT"
  fi
done
exit "$failed"
