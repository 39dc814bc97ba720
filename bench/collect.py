"""Run the benchmark over several seeds and workloads into one result file.

    python3 bench/collect.py --out RESULTS.jsonl [--workload NAME ...]
                             [--seeds 0-9] [--trace 0|1]

Each run is ``run.py`` in its own process with the run length from
BENCHMARK.json, appended to --out.  When all runs are done the file is
summarized with compare.py.  Comparing two commits is one result file
per commit, then ``python3 bench/compare.py BASE.jsonl NEW.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=seed_list, default=list(range(10)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for workload in args.workload or names:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace), "--out", str(args.out.resolve())]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {done.returncode} {last[0][:100]}",
                  file=sys.stderr)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
    return compare.main([str(args.out)])


if __name__ == "__main__":
    sys.exit(main())
