#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by perfbench/run.py (copies of
.bench_out/ from runs of the two commits). For every workload and
end-to-end metric it prints both medians, the base's spread (quartile
distance over its median) and a verdict:

  worse    the new median is worse than the base by more than the bound
  unresolved  the base's own spread is wider than the bound
  ok       within the bound

It refuses to compare results from hosts with different nproc or
affinity (exit 2) instead of normalising them; exit 1 when any metric is
worse.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    results = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if r.get("trace") == 0 and "host" in r:
            results.append(r)
    if not results:
        sys.exit(f"compare: no untraced result files in {directory}")
    return results


def hosts(results):
    return {(r["host"]["nproc"], r["host"]["affinity"]) for r in results}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    hb, hn = hosts(base), hosts(new)
    if len(hb | hn) != 1:
        print(f"compare: refusing: results come from different hosts "
              f"(nproc, affinity): base {sorted(hb)}, new {sorted(hn)}",
              file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    worse = False
    for w in sorted({r["workload"] for r in base + new}):
        print(w)
        for m in metrics:
            b = [r["metrics"][m["name"]]["value"] for r in base
                 if r["workload"] == w and m["name"] in r["metrics"]]
            n = [r["metrics"][m["name"]]["value"] for r in new
                 if r["workload"] == w and m["name"] in r["metrics"]]
            if not b or not n:
                print(f"  {m['name']:16s} missing on one side")
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            if m["better"] == "higher":
                change = -change
            if spread(b) > m["bound"]:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict, worse = "worse", True
            else:
                verdict = "ok"
            print(f"  {m['name']:16s} base {mb:12.6g} new {mn:12.6g} "
                  f"{m['unit']:9s} worse by {change:+.3f} "
                  f"(bound {m['bound']}, base spread {spread(b):.3f}, "
                  f"n={len(b)}/{len(n)}) {verdict}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
