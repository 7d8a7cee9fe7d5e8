#!/usr/bin/env bash
# Usage: wire_gate.sh <workload> <limit>
#
# Runs one dcsbench workload at seed 7 for one second and fails if a
# committed transaction cost more than <limit> wire bytes, or if the
# committed share is below 1. Both metrics are functions of the seed alone
# (wire bytes and block contents, not wall time), so one run decides and
# the gate cannot flake. Each CI step that calls it says what its limit
# guards and where the measured value came from.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
workload="$1"
limit="$2"
result="$(mktemp)"
trap 'rm -f "$result"' EXIT
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --workload "$workload" --seed 7 --seconds 1 --trace 0 | tail -n 1 > "$result"
python3 - "$limit" "$result" <<'PY'
import json, sys
limit = float(sys.argv[1])
metrics = json.load(open(sys.argv[2]))["metrics"]
wire = metrics["wire_bytes_per_committed_tx"]["value"]
share = metrics["committed_share"]["value"]
print(f"wire bytes per committed tx {wire:.0f} (limit {limit:.0f}), committed share {share:.4f} (floor 1)")
sys.exit(0 if wire <= limit and share >= 1.0 else 1)
PY
echo "wire gate ($workload): OK"
