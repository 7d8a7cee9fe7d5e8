#!/usr/bin/env bash
# PBFT sends each body once. The replica a client picks sends the
# transaction to the others, a pre-prepare carries the header, the coinbase
# and one id per client transaction, and a committed block goes to nobody.
# When every replica re-relayed transactions, pre-prepares carried full
# bodies and every committed block was flooded to every replica,
# pbft_contracts cost 62 481 wire bytes per committed transaction at seed 7;
# it now costs ~10 600. The gate fails above 15 000 bytes per committed
# transaction or below a committed share of 1. Both metrics are functions of
# the seed alone (wire bytes and block contents, not wall time), so one run
# decides and the gate cannot flake.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
limit=15000
result="$(mktemp)"
trap 'rm -f "$result"' EXIT
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --workload pbft_contracts --seed 7 --seconds 1 --trace 0 | tail -n 1 > "$result"
python3 - "$limit" "$result" <<'PY'
import json, sys
limit = float(sys.argv[1])
metrics = json.load(open(sys.argv[2]))["metrics"]
wire = metrics["wire_bytes_per_committed_tx"]["value"]
share = metrics["committed_share"]["value"]
print(f"wire bytes per committed tx {wire:.0f} (limit {limit:.0f}), committed share {share:.4f} (floor 1)")
sys.exit(0 if wire <= limit and share >= 1.0 else 1)
PY
echo "pbft wire gate: OK"
