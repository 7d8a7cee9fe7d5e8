#!/usr/bin/env python3
"""Symbolise sampler.c output against `nm` and print shares.

    sym.py <binary> <samples.txt> [--within SYMBOL] [--top N] [--inclusive N]
           [--of SYMBOL ...] [--without SYMBOL ...]

Keeps the samples whose stack contains a function whose name matches the
regex --within (default: dcsbench's timed drive loops, `ledger::play` and
for beacon_shards `BeaconNet::run`; set-up and the replay probes are outside
them). Prints the top leaf frames (self share), with --inclusive N the top N
functions by inclusive share (on the stack at all, counted once a sample),
and for every --of substring the share of kept samples with a matching
function anywhere in the stack (inclusive share) and as the leaf, plus who
called the leaf. With --without, every --of also gets the share of samples
whose innermost matching frame has no frame matching a --without substring
below it — e.g. `--of AccountDb --without sha256` is the account database's
time not spent hashing.
"""
import argparse
import bisect
import collections
import re
import subprocess


# How far past the binary's last symbol an address may lie and still be in it.
OUTSIDE = 1 << 16


def symbols(binary):
    out = subprocess.run(
        ["nm", "-C", "--defined-only", "-n", binary],
        check=True, capture_output=True, text=True,
    ).stdout
    table = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            # Drop the `::h0123456789abcdef` disambiguator rustc appends.
            table.append((int(parts[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", parts[2])))
    return [a for a, _ in table], [n for _, n in table]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("binary")
    ap.add_argument("samples")
    ap.add_argument("--within", default=r"ledger::play|BeaconNet::run\b")
    ap.add_argument("--top", type=int, default=15)
    ap.add_argument("--inclusive", type=int, default=0)
    ap.add_argument("--of", action="append", default=[])
    ap.add_argument("--without", action="append", default=[])
    args = ap.parse_args()

    addrs, names = symbols(args.binary)
    with open(args.samples) as f:
        base = int(f.readline().split("-")[0], 16)
        rows = [[int(x, 16) for x in line.split()] for line in f if line.strip()]

    def name(addr):
        # Shared libraries map far from the binary: a frame there (libc's
        # malloc/free/memcmp — std has no frame pointers, so such a leaf
        # loses its callers) is not the nearest binary symbol.
        offset = addr - base
        if offset < 0 or offset > addrs[-1] + OUTSIDE:
            return "[outside the binary: libc]"
        i = bisect.bisect_right(addrs, offset) - 1
        return names[i] if i >= 0 else "?"

    stacks = [[name(a) for a in row] for row in rows]
    within = re.compile(args.within)
    kept = [s for s in stacks if any(within.search(fn) for fn in s)]
    total = len(kept)
    print(f"{len(stacks)} samples, {total} within `{args.within}`")
    if not total:
        return
    leaves = collections.Counter(s[0] for s in kept)
    print(f"\ntop {args.top} leaf frames (self share):")
    for fn, n in leaves.most_common(args.top):
        print(f"  {100 * n / total:5.1f} %  {n:6d}  {fn}")
    if args.inclusive:
        on_stack = collections.Counter(fn for s in kept for fn in set(s))
        print(f"\ntop {args.inclusive} frames (inclusive share):")
        for fn, n in on_stack.most_common(args.inclusive):
            print(f"  {100 * n / total:5.1f} %  {n:6d}  {fn}")
    for want in args.of:
        inclusive = sum(any(want in fn for fn in s) for s in kept)
        as_leaf = [s for s in kept if want in s[0]]
        print(f"\n`{want}`: inclusive {100 * inclusive / total:.1f} % ({inclusive}), "
              f"leaf {100 * len(as_leaf) / total:.1f} % ({len(as_leaf)})")
        if args.without:
            def clear_below(s):
                # Stacks are leaf first: the innermost match is the first.
                i = next((i for i, fn in enumerate(s) if want in fn), None)
                return i is not None and not any(w in fn for fn in s[:i] for w in args.without)
            alone = sum(clear_below(s) for s in kept)
            print(f"  without {' / '.join(f'`{w}`' for w in args.without)} below: "
                  f"{100 * alone / total:.1f} % ({alone})")
        # The first workspace frame above the leaf's own crate, i.e. who asked.
        callers = collections.Counter(
            next((fn for fn in s[1:] if want not in fn and "sha256" not in fn.lower()), "?")
            for s in as_leaf
        )
        for fn, n in callers.most_common(8):
            print(f"    {100 * n / total:5.1f} %  {n:6d}  called from {fn}")


if __name__ == "__main__":
    main()
