"""Compare benchmark run records (perfbench/out/<workload>-seed<n>-trace<t>.json).

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Prints, per metric, the median of each side and the change.  For
end-to-end metrics it also applies the bound from BENCHMARK.json and
exits 1 when the new median is worse than the base median by more than
the bound.  Records of the same seed and length must carry the same
result digest.

Refuses (exit 2) to compare records of different workloads or trace modes,
or whose kernel routes differ: the kernel implementation that ran, and,
for traced records, which routes (pure, compiled, int64 fallback) the
kernel calls took.  Timings of different routes measure different code.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _route(record: dict) -> tuple:
    kernel = record["kernel"]
    routes = kernel.get("routes")
    taken = (None if routes is None
             else tuple(sorted(r for r, n in routes.items() if n)))
    return kernel["implementation"], taken


def refusal(records: List[dict]) -> str:
    """Why these records cannot be compared, or '' when they can."""
    kinds = {(r["workload"], r["trace"]) for r in records}
    if len(kinds) > 1:
        return f"records mix workloads or trace modes: {sorted(kinds)}"
    impls = {_route(r)[0] for r in records}
    if len(impls) > 1:
        return f"kernel implementations differ: {sorted(impls)}"
    taken = {_route(r)[1] for r in records if _route(r)[1] is not None}
    if len(taken) > 1:
        return f"kernel calls took different routes: {sorted(taken)}"
    return ""


def digest_mismatches(records: List[dict]) -> List[str]:
    seen: Dict[tuple, str] = {}
    out = []
    for r in records:
        key = (r["workload"], r["seed"], r["tasks"])
        if seen.setdefault(key, r["digest"]) != r["digest"]:
            out.append(f"seed {r['seed']}, {r['tasks']} tasks: result "
                       f"digests differ")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    sides = {}
    for side in ("base", "new"):
        sides[side] = []
        for path in getattr(args, side):
            with open(path, encoding="utf-8") as fh:
                sides[side].append(json.load(fh))
    everything = sides["base"] + sides["new"]
    reason = refusal(everything)
    if reason:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    names = [n for n in everything[0]["metrics"]
             if all(n in r["metrics"] for r in everything)]
    print(f"{'metric':36s} {'base':>14s} {'new':>14s} {'change':>8s}")
    for name in names:
        base = statistics.median(r["metrics"][name]["value"]
                                 for r in sides["base"])
        new = statistics.median(r["metrics"][name]["value"]
                                for r in sides["new"])
        change = (new - base) / base if base else 0.0
        verdict = ""
        if name in bounds:
            sign = 1 if bounds[name]["better"] == "lower" else -1
            if sign * change > bounds[name]["bound"]:
                verdict = f"worse than bound {bounds[name]['bound']}"
                worse += 1
        print(f"{name:36s} {base:14.6g} {new:14.6g} {change:+8.3f} {verdict}")
    for line in digest_mismatches(everything):
        print(f"DIGEST {line}")
        worse += 1
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
