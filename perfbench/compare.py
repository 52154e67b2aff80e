"""Report two sets of benchmark results side by side. It gates nothing.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds result records as ``run.py`` appends them to
``perfbench/out/results.jsonl``. Run the pairs in alternating order (parent
first for one seed, change first for the next) and copy each side's records
to its own file. Records pair up by workload, trace mode and seed. For each
workload and metric the report gives each side's median and quartiles, the
change of the medians, and the share of pairs the change won (ties count for
neither side); "better" comes from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """(workload, trace) -> seed -> list of metric dicts, in file order."""
    out = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            prov = record["provenance"]
            metrics = {name: m["value"] for name, m in record["result"]["metrics"].items()}
            out[(prov["workload"], prov["trace"])][prov["seed"]].append(metrics)
    return out


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(parent: dict, change: dict, better: dict) -> list:
    lines = []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        pairs = [(p, c) for s in seeds for p, c in zip(parent[key][s], change[key][s])]
        if not pairs:
            continue
        lines.append(f"== {workload} (trace {int(trace)}): {len(pairs)} pairs")
        lines.append(f"{'metric':28s} {'parent q1/median/q3':>32s} "
                     f"{'change q1/median/q3':>32s} {'delta':>8s} {'won':>6s}")
        for name in pairs[0][0]:
            vals = [(p.get(name), c.get(name)) for p, c in pairs]
            vals = [(p, c) for p, c in vals if p is not None and c is not None]
            if not vals:
                continue
            pq = quartiles([p for p, _ in vals])
            cq = quartiles([c for _, c in vals])
            sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
            won = sum(1 for p, c in vals if sign * (c - p) > 0)
            delta = f"{(cq[1] - pq[1]) / abs(pq[1]):+.1%}" if pq[1] else "n/a"
            lines.append(f"{name:28s} {pq[0]:10.4g} {pq[1]:10.4g} {pq[2]:10.4g} "
                         f"{cq[0]:10.4g} {cq[1]:10.4g} {cq[2]:10.4g} {delta:>8s} "
                         f"{won / len(vals):6.0%}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    for line in report(load(argv[0]), load(argv[1]), better):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
