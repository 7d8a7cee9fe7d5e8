#!/usr/bin/env bash
# A warm signature-cache lookup must hash nothing. dcsbench's crypto probe
# pushes the witnesses a gossip_signed run committed through one pipeline
# twice — cold (every lookup a real WOTS verification) and warm (every lookup
# a hit) — and reports the per-signature cost of each. With the signing hash
# and the cache key re-hashed per lookup a hit read 1/83 of a verification;
# with both carried by the bytes they describe it reads ~1/600. The gate
# fails above 1/250. Both numbers come from one process on one host, so the
# ratio cancels host speed. The warm pass is ~2 250 lookups of under 0.1 us —
# one scheduler hiccup can inflate it — so the gate passes if any of three
# runs is within the limit; a hash per lookup fails all three.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
limit=250
result="$(mktemp)"
trap 'rm -f "$result"' EXIT
for attempt in 1 2 3; do
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload gossip_signed --seed 7 --seconds 5 --trace 1 | tail -n 1 > "$result"
  if python3 - "$limit" "$attempt" "$result" <<'PY'
import json, sys
limit, attempt = float(sys.argv[1]), sys.argv[2]
metrics = json.load(open(sys.argv[3]))["metrics"]
hit = metrics["crypto.cache_hit_us_per_lookup"]["value"]
verify = metrics["crypto.verify_us_per_sig"]["value"]
print(f"attempt {attempt}: cache hit {hit:.3f} us/lookup, verification {verify:.2f} us/sig, "
      f"ratio 1/{verify / max(hit, 1e-9):.0f} (limit 1/{limit:g})")
sys.exit(0 if hit * limit <= verify else 1)
PY
  then
    echo "warm lookup gate: OK"
    exit 0
  fi
done
echo "warm lookup gate: a cache hit costs more than 1/$limit of a verification" >&2
exit 1
