#!/usr/bin/env bash
# Profiles one dcsbench workload on a box without `perf`.
#
#   tools/prof/profile.sh <workload> [seconds [seed]] [-- sym.py options ...]
#
# 1. Builds dcsbench with frame pointers and symbols into target/prof. The
#    build runs from the repository root: cargo reads .cargo/config.toml from
#    the working directory, and RUSTFLAGS replaces its flags anyway, so
#    target-cpu=x86-64-v3 is repeated here. Never time with this binary —
#    frame pointers cost a few percent.
# 2. Builds sampler.c (an LD_PRELOAD SIGPROF stack walker) with gcc and runs
#    the workload under it (default 8 s at seed 7, untraced), keeping the
#    run's stdout beside the samples: read the shares against its
#    `repetitions=` count.
# 3. Symbolises the samples with sym.py; everything after `--` goes to it,
#    e.g. `-- --inclusive 25 --of AccountDb --without sha256`.
#
# Outputs: target/prof/<workload>.samples and target/prof/<workload>.out.
set -euo pipefail

if [[ $# -lt 1 || $1 == -* ]]; then
    sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
workload=$1
shift
seconds=8
seed=7
if [[ $# -gt 0 && $1 != -- ]]; then seconds=$1; shift; fi
if [[ $# -gt 0 && $1 != -- ]]; then seed=$1; shift; fi
if [[ $# -gt 0 && $1 == -- ]]; then shift; fi

cd "$(dirname "$0")/../.."
out=target/prof
mkdir -p "$out"

CARGO_PROFILE_RELEASE_DEBUG=1 CARGO_PROFILE_RELEASE_STRIP=none \
RUSTFLAGS="-C target-cpu=x86-64-v3 -C force-frame-pointers=yes" \
CARGO_TARGET_DIR="$out" \
    cargo build --release -q --offline --manifest-path benchmark/Cargo.toml
gcc -O2 -shared -fPIC -o "$out/sampler.so" tools/prof/sampler.c

SAMPLER_OUT="$out/$workload.samples" LD_PRELOAD="$PWD/$out/sampler.so" \
    "$out/release/dcsbench" run --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 > "$out/$workload.out"
grep -o 'repetitions=[0-9]*' "$out/$workload.out" || true

python3 tools/prof/sym.py "$out/release/dcsbench" "$out/$workload.samples" "$@"
