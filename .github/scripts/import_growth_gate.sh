#!/usr/bin/env bash
# Import cost must not grow with chain length. dcsbench's chain probe
# re-imports the blocks a pbft_failover run committed (~1 400) into a fresh
# chain and reports the mean per-block cost of the first and of the last
# tenth; with fork choice walking the chain the last tenth read 14.7x the
# first, with the leaf set and the descent-closed poison set it reads ~1.3x.
# Both numbers come from one process on one host, so the ratio cancels host
# speed. A decile is ~140 imports of a few microseconds — one scheduler
# hiccup can inflate it — so the gate passes if any of three runs is within
# the limit; a walk back to genesis fails all three by a wide margin.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
limit=3
result="$(mktemp)"
trap 'rm -f "$result"' EXIT
for attempt in 1 2 3; do
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload pbft_failover --seed 7 --seconds 5 --trace 1 | tail -n 1 > "$result"
  if python3 - "$limit" "$attempt" "$result" <<'PY'
import json, sys
limit, attempt = float(sys.argv[1]), sys.argv[2]
metrics = json.load(open(sys.argv[3]))["metrics"]
first = metrics["chain.import_first_decile_us_per_block"]["value"]
last = metrics["chain.import_last_decile_us_per_block"]["value"]
print(f"attempt {attempt}: first decile {first:.2f} us/block, last decile {last:.2f} us/block, "
      f"ratio {last / first:.2f} (limit {limit:g})")
sys.exit(0 if last <= limit * first else 1)
PY
  then
    echo "import growth gate: OK"
    exit 0
  fi
done
echo "import growth gate: import cost grows with chain length" >&2
exit 1
