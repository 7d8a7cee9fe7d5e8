#!/usr/bin/env bash
# One entry point for CI: build the benchmark, run its unit tests and a
# reduced-size smoke of every workload (measured and traced), and validate
# what it prints against BENCHMARK.json. Run from anywhere in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
manifest=benchmark/Cargo.toml
scale=0.3 # the unit-test smoke's size: the smallest at which p99 still has ten samples beyond it

cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"

for workload in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  for trace in 0 1; do
    cargo run --release --offline --quiet --manifest-path "$manifest" -- \
      run --workload "$workload" --seed 7 --seconds 1 --trace "$trace" --scale "$scale" \
      | tail -n 1 \
      | python3 benchmark/validate.py BENCHMARK.json "$trace" "$workload"
  done
done
echo "check: OK"
