#!/usr/bin/env bash
# Paired timing of two dcsbench binaries on one workload.
#
#   tools/prof/pairs.sh <parent-bin> <change-bin> <workload> <pairs> [seed]
#
# Pair i runs `dcsbench run --workload <workload> --seed <seed> --seconds 20
# --trace 0` once with each binary: the parent first in odd pairs, the
# change first in even ones. Runs never overlap — two runs at once on a
# small box share its cores and corrupt both timings — so run nothing else
# meanwhile either. Default seed 7.
#
# Per run it prints committed_tx_per_s, peak_rss_mb, setup_s and run_digest.
# At the end it prints, per side, the median and quartiles of those metrics,
# the pairs the change won on committed_tx_per_s (ties count for neither),
# and whether every run had the same run_digest. Claim a gain only when
# the change wins at least nine tenths of the pairs and the medians differ
# by more than the distance between the parent's quartiles.
#
# Each run's whole stdout is kept in target/pairs/<workload>_<seed>/.
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
    sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent=$(realpath "$1")
change=$(realpath "$2")
workload=$3
pairs=$4
seed=${5:-7}

cd "$(dirname "$0")/../.."
out=target/pairs/${workload}_$seed
rm -rf "$out"
mkdir -p "$out"

run() { # side pair
    local bin=$parent
    [[ $1 == change ]] && bin=$change
    local file="$out/$1_$2.txt"
    "$bin" run --workload "$workload" --seed "$seed" --seconds 20 --trace 0 > "$file"
    python3 - "$1" "$2" "$file" <<'EOF'
import json, re, sys
side, pair, path = sys.argv[1:]
text = open(path).read()
metrics = json.loads(text.strip().splitlines()[-1])["metrics"]
digest = re.search(r"run_digest=([0-9a-f]+)", text).group(1)
print(f"pair {pair:>2} {side:<6} committed_tx_per_s={metrics['committed_tx_per_s']['value']:.1f} "
      f"peak_rss_mb={metrics['peak_rss_mb']['value']:.2f} setup_s={metrics['setup_s']['value']:.4f} "
      f"run_digest={digest[:16]}")
EOF
}

for i in $(seq "$pairs"); do
    if (( i % 2 )); then order="parent change"; else order="change parent"; fi
    for side in $order; do run "$side" "$i"; done
done

python3 - "$out" "$pairs" <<'EOF'
import json, re, statistics, sys
out, pairs = sys.argv[1], int(sys.argv[2])
names = ["committed_tx_per_s", "peak_rss_mb", "setup_s"]
runs = {"parent": [], "change": []}
for side in runs:
    for i in range(1, pairs + 1):
        text = open(f"{out}/{side}_{i}.txt").read()
        metrics = json.loads(text.strip().splitlines()[-1])["metrics"]
        row = {name: metrics[name]["value"] for name in names}
        row["run_digest"] = re.search(r"run_digest=([0-9a-f]+)", text).group(1)
        runs[side].append(row)

def quartiles(values):
    if len(values) == 1:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3

for name in names:
    for side in runs:
        q1, median, q3 = quartiles([r[name] for r in runs[side]])
        print(f"{name:<20} {side:<6} median={median:.4f} q1={q1:.4f} q3={q3:.4f}")
tps = [(p["committed_tx_per_s"], c["committed_tx_per_s"]) for p, c in zip(runs["parent"], runs["change"])]
wins = sum(c > p for p, c in tps)
losses = sum(c < p for p, c in tps)
q1, p_med, q3 = quartiles([p for p, _ in tps])
c_med = quartiles([c for _, c in tps])[1]
print(f"change won {wins} of {pairs} pairs on committed_tx_per_s ({losses} lost); "
      f"median gain {c_med - p_med:.1f} against the parent's IQR {q3 - q1:.1f} "
      f"({100 * (c_med / p_med - 1):+.1f} % of the parent's median {p_med:.1f})")
digests = {r["run_digest"] for side in runs for r in runs[side]}
print("run_digest identical on every run" if len(digests) == 1
      else f"run_digest DIFFERS: {len(digests)} distinct values")
EOF
