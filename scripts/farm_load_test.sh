#!/usr/bin/env bash
# Load/soak smoke for the multi-tenant range farm.
#
# Exports the built-in EPIC SG-ML model set, compiles it once, then multiplexes
# TENANTS concurrent ranges across the machine's cores via `sgml_processor
# serve`, writing per-tenant journals/metrics to OUT_DIR and the farm report
# (ranges/sec, p50/p99/max step latency) to REPORT, by default both in
# target/farm-load/.
# It fails unless every tenant left a journal and none failed or was given up.
#
# This is a smoke, not a ledger: benchmark numbers are appended to
# BENCH_range.jsonl by scripts/bench_pairs.sh.
#
# Usage:
#   scripts/farm_load_test.sh                 # 128 tenants x 2 s -> target/farm-load/farm.json
#   TENANTS=512 SIM_SECONDS=10 scripts/farm_load_test.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TENANTS="${TENANTS:-128}"
SIM_SECONDS="${SIM_SECONDS:-2}"
STEP_BUDGET_MS="${STEP_BUDGET_MS:-250}"
OUT_DIR="${OUT_DIR:-target/farm-load}"
REPORT="${REPORT:-$OUT_DIR/farm.json}"
BUNDLE="target/farm-load-bundle"

cargo build --release --bin sgml_processor --example export_epic_model

rm -rf "$BUNDLE" "$OUT_DIR"
./target/release/examples/export_epic_model "$BUNDLE" >/dev/null

./target/release/sgml_processor serve "$BUNDLE" \
  --tenants "$TENANTS" \
  --seconds "$SIM_SECONDS" \
  --step-budget-ms "$STEP_BUDGET_MS" \
  --fault-seed 42 \
  --out "$OUT_DIR" \
  --report "$REPORT"

JOURNALS=$(ls "$OUT_DIR"/tenant-*.journal.jsonl 2>/dev/null | wc -l)
if [ "$JOURNALS" -ne "$TENANTS" ]; then
  echo "error: expected $TENANTS per-tenant journals in $OUT_DIR, found $JOURNALS" >&2
  exit 1
fi

# A load run with failed or given-up tenants is a failed run, full stop —
# don't let a green exit code paper over a broken farm.
FAILED=$(python3 - "$REPORT" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
print(report.get("tenants_failed", 0) + report.get("tenants_given_up", 0))
PY
)
if [ "$FAILED" -ne 0 ]; then
  echo "error: $FAILED tenants failed or were given up; see $REPORT" >&2
  exit 1
fi

echo "ok: $JOURNALS per-tenant journals in $OUT_DIR/, farm report in $REPORT"
