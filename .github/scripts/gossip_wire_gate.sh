#!/usr/bin/env bash
# A gossip peer relays a block as its header, its coinbase and one 32-byte
# id per client transaction; the bodies crossed the wire in the transaction
# flood already, and a peer asks the sender, in one request and one reply,
# only for those it does not hold. When every relayed block carried its
# bodies, gossip_signed (~2.3 KB signed transfers over 32 PoW peers) cost
# 556 298 wire bytes per committed transaction at seed 7; it now costs
# 283 168. The gate fails above 300 000 bytes per committed transaction or
# below a committed share of 1. Both metrics are functions of the seed alone
# (wire bytes and block contents, not wall time), so one run decides and
# the gate cannot flake.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
limit=300000
result="$(mktemp)"
trap 'rm -f "$result"' EXIT
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --workload gossip_signed --seed 7 --seconds 1 --trace 0 | tail -n 1 > "$result"
python3 - "$limit" "$result" <<'PY'
import json, sys
limit = float(sys.argv[1])
metrics = json.load(open(sys.argv[2]))["metrics"]
wire = metrics["wire_bytes_per_committed_tx"]["value"]
share = metrics["committed_share"]["value"]
print(f"wire bytes per committed tx {wire:.0f} (limit {limit:.0f}), committed share {share:.4f} (floor 1)")
sys.exit(0 if wire <= limit and share >= 1.0 else 1)
PY
echo "gossip wire gate: OK"
