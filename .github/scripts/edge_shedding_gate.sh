#!/usr/bin/env bash
# A peer relays only the transactions its pool takes. gossip_overload offers
# ten times the block ceiling into pools capped at five blocks, so most
# transactions meet a full pool. When every first-seen body was flooded to
# all neighbours before the pool was asked, each committed transaction cost
# 94 866 wire bytes at seed 7; with admission deciding relay it cost 18 732,
# and with blocks relayed compact (header, coinbase and ids; the bodies a
# full pool shed are asked of the sender in one reply) it costs 13 970,
# with every slot of every block sealed in the window filled. The gate
# fails above 15 400 bytes per committed transaction (the measured value
# plus 10 %) or below a committed share of 1. Both metrics are functions of
# the seed alone (wire bytes and block contents, not wall time), so one run
# decides and the gate cannot flake.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
limit=15400
result="$(mktemp)"
trap 'rm -f "$result"' EXIT
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --workload gossip_overload --seed 7 --seconds 1 --trace 0 | tail -n 1 > "$result"
python3 - "$limit" "$result" <<'PY'
import json, sys
limit = float(sys.argv[1])
metrics = json.load(open(sys.argv[2]))["metrics"]
wire = metrics["wire_bytes_per_committed_tx"]["value"]
share = metrics["committed_share"]["value"]
print(f"wire bytes per committed tx {wire:.0f} (limit {limit:.0f}), committed share {share:.4f} (floor 1)")
sys.exit(0 if wire <= limit and share >= 1.0 else 1)
PY
echo "edge shedding gate: OK"
