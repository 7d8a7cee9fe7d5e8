"""Validates one result line of dcsbench (read from stdin) against BENCHMARK.json.

usage: validate.py BENCHMARK.json <trace: 0|1> <workload>
"""
import json
import sys


def main() -> int:
    manifest = json.load(open(sys.argv[1]))
    section = "per_layer" if sys.argv[2] == "1" else "end_to_end"
    workload = sys.argv[3]
    result = json.loads(sys.stdin.readline())
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys are {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1 and isinstance(failed, int) and 0 <= failed <= attempted):
        problems.append(f"attempted={attempted!r} failed={failed!r}")
    declared = {m["name"]: m["unit"] for m in manifest[section]}
    printed = result.get("metrics", {})
    for name in sorted(set(declared) ^ set(printed)):
        problems.append(f"{name} is {'not printed' if name in declared else 'not declared'}")
    for name, unit in declared.items():
        entry = printed.get(name)
        if entry is None:
            continue
        if sorted(entry) != ["unit", "value"] or entry["unit"] != unit:
            problems.append(f"{name}: {entry} (declared unit {unit})")
        elif not isinstance(entry["value"], (int, float)) or entry["value"] != entry["value"]:
            problems.append(f"{name}: value {entry['value']!r} is not a number")
        elif section == "end_to_end" and entry["value"] == 0:
            problems.append(f"{name}: an end-to-end metric must never be 0")
    for p in problems:
        print(f"validate: {workload} trace={sys.argv[2]}: {p}", file=sys.stderr)
    if not problems:
        print(f"validate: {workload} trace={sys.argv[2]}: {len(printed)} metrics match BENCHMARK.json")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
