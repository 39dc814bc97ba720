"""Summarize one result file, or compare two, row by row.

    python3 bench/compare.py RESULTS.jsonl              # spread of each metric
    python3 bench/compare.py BASE.jsonl NEW.jsonl       # NEW against BASE

A result file holds one JSON line per run, as ``run.py --out`` or
collect.py append them.  One row per workload and metric, with the
median and quartiles (``statistics.quantiles(values, n=4)``) of each
side and the spread, (q3 - q1) / median.

Verdicts use the bounds in BENCHMARK.json.  One file: ``steady`` when
the spread is within a third of the bound, ``wide`` when within the
bound, ``UNSTEADY`` beyond it.  Two files: ``unresolved`` when either
side spreads wider than the bound, ``REGRESSED`` when NEW's median is
worse than BASE's by more than the bound, ``ok`` otherwise.  Per-layer
metrics have no bound; their rows show the change only.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    """Values of every (workload, metric) across the file's runs."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            for name, m in run["result"]["metrics"].items():
                values[(run["workload"], name)].append(m["value"])
    return values


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread as a share of the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse new is than base, as a share of base (negative: better)."""
    if not base:
        return 0.0
    change = (new - base) / base
    return change if better == "lower" else -change


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load(Path(p)) for p in argv]
    order = {name: i for i, name in enumerate(meta)}
    keys = sorted(set().union(*sides), key=lambda k: (k[0], order.get(k[1], len(order)), k[1]))
    for workload, name in keys:
        m = meta.get(name, {"unit": "?", "better": "lower"})
        bound = m.get("bound")
        cells = []
        spreads = []
        for side in sides:
            vals = side.get((workload, name))
            if not vals:
                cells.append(f"{'-':>34}")
                continue
            med, q1, q3, spread = stats(vals)
            spreads.append(spread)
            cells.append(f"{med:>12.5g} [{q1:.5g}, {q3:.5g}] n={len(vals)}")
        verdict = ""
        if len(sides) == 1 and spreads and bound is not None:
            s = spreads[0]
            verdict = f"spread {s:6.1%}  " + (
                "steady" if s <= bound / 3 else "wide" if s <= bound else "UNSTEADY")
        elif len(sides) == 2 and len(spreads) == 2:
            change = worse_by(stats(sides[0][(workload, name)])[0],
                              stats(sides[1][(workload, name)])[0], m["better"])
            verdict = f"worse by {change:+7.1%}"
            if bound is not None:
                verdict += "  " + ("unresolved" if max(spreads) > bound
                                   else "REGRESSED" if change > bound else "ok")
        print(f"{workload:17} {name:44} {m['unit']:6} {'  '.join(cells)}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
