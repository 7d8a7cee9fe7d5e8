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
# At the end it prints, for every end-to-end metric BENCHMARK.json lists,
# each side's median and inter-quartile range (IQR) and a verdict against
# the metric's bound there: "worse beyond bound" when the change's median is
# worse than the parent's by more than the bound (a share of the parent's
# median, in the metric's "better" direction), else "unresolved" when either
# side's IQR exceeds the bound, else "ok". Then the pairs the change won on
# committed_tx_per_s (ties count for neither), and whether every run had the
# same run_digest. Claim a gain only when the change wins at least nine
# tenths of the pairs and the medians differ by more than the parent's IQR.
#
# Each run's whole stdout is kept in target/pairs/<workload>_<seed>/.
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
    sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//'
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

python3 - "$out" "$pairs" BENCHMARK.json <<'EOF'
import json, re, statistics, sys
out, pairs, spec = sys.argv[1], int(sys.argv[2]), sys.argv[3]
metrics_spec = json.load(open(spec))["end_to_end"]
runs = {"parent": [], "change": []}
for side in runs:
    for i in range(1, pairs + 1):
        text = open(f"{out}/{side}_{i}.txt").read()
        metrics = json.loads(text.strip().splitlines()[-1])["metrics"]
        row = {m["name"]: metrics[m["name"]]["value"] for m in metrics_spec}
        row["run_digest"] = re.search(r"run_digest=([0-9a-f]+)", text).group(1)
        runs[side].append(row)

def quartiles(values):
    if len(values) == 1:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3

def share(delta, base):
    """delta as a share of |base|; a nonzero delta on a zero base is infinite."""
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else float("inf")

print(f"{'metric':<28} {'parent median':>14} {'IQR':>10} {'change median':>14} {'IQR':>10} "
      f"{'worse by':>9} {'bound':>6}  verdict")
for m in metrics_spec:
    name, bound = m["name"], m["bound"]
    q = {side: quartiles([r[name] for r in runs[side]]) for side in runs}
    p_med, c_med = q["parent"][1], q["change"][1]
    iqr = {side: q[side][2] - q[side][0] for side in runs}
    worse = share(c_med - p_med if m["better"] == "lower" else p_med - c_med, p_med)
    spread = max(share(iqr[side], p_med) for side in runs)
    verdict = ("worse beyond bound" if worse > bound
               else "unresolved" if spread > bound else "ok")
    print(f"{name:<28} {p_med:>14.6g} {iqr['parent']:>10.4g} {c_med:>14.6g} {iqr['change']:>10.4g} "
          f"{100 * worse:>+8.1f}% {100 * bound:>5.1f}%  {verdict}")
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
