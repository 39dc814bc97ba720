"""The slicetower benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout.  Each pass of the workload runs in a
fresh process (client.py): one client, closed loop, every request sent
in-process through ``slicetower.cli.main`` and its response checked.

--trace 0 measures the end-to-end metrics.  A few set-up-only
processes are timed first, then passes run back to back until S
seconds have gone by (at least MIN_PASSES of them).  Reported: the
median set-up time over all processes, the median pass time, the
median and tail of all request latencies pooled, and the median peak
resident set of the pass processes.

--trace 1 measures the per-layer metrics: four passes, untraced,
traced (tracer.py), traced, untraced.  The per-layer metrics come from
the first traced pass; the tracing overhead is the traced passes' wall
time over the untraced passes'.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --out FILE also appends the run, with
its details and the machine it ran on, as one JSON line to FILE; see
compare.py.  README.md documents the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 10
MIN_PASSES = 2
TIME_LIMIT_S = 165.0   # the whole run, child processes included


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten of the samples
    beyond it.  run.py passes the sample count of MIN_PASSES passes, so
    the percentile is fixed per workload however many passes a run makes."""
    return max(50, (100 * (samples - 10)) // samples)


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> tuple[float, dict | None]:
    """Run client.py to the end; returns its set-up seconds and its
    final JSON line (None for a set-up-only process)."""
    ready_r, ready_w = os.pipe()
    cmd = [sys.executable, str(HERE / "client.py"), "--workload", workload,
           "--seed", str(seed), "--ready-fd", str(ready_w), *flags]
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    t0 = perf_counter()
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, pass_fds=(ready_w,),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(ready_w)
    try:
        with os.fdopen(ready_r, "rb") as ready:
            readable, _, _ = select.select([ready], [], [], max(deadline - perf_counter(), 0))
            setup_s = perf_counter() - t0
            ready_line = ready.readline() if readable else b""
        out, err = proc.communicate(timeout=max(deadline - perf_counter(), 0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: pass did not finish within the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready_line != b"ready\n":
        raise BenchError(f"{workload}: client exited {proc.returncode}\n{err}")
    lines = out.splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def timed_run(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    setups = [spawn(workload, seed, deadline, "--setup-only")[0] for _ in range(SETUP_PROBES)]
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        if passes and perf_counter() + passes[-1]["wall_s"] * 1.5 > deadline:
            break   # another pass would not end in time
        setup_s, result = spawn(workload, seed, deadline)
        result["wall_s"] = sum(result["latencies"])
        setups.append(setup_s)
        passes.append(result)

    pooled = sorted(t for p in passes for t in p["latencies"])
    q = tail_percentile(MIN_PASSES * len(passes[0]["latencies"]))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "req_p50_ms": 1000 * statistics.median(pooled),
        "req_tail_ms": 1000 * statistics.quantiles(pooled, n=100, method="inclusive")[q - 1],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {"metrics": metrics, "passes": passes, "detail": {
        "tail_percentile": q,
        "latency_samples": len(pooled),
        "setup_samples": setups,
        "pass_wall_s": [p["wall_s"] for p in passes],
    }}


def traced_run(workload: str, seed: int, deadline: float) -> dict:
    """Passes untraced, traced, traced, untraced: a drift in machine
    speed that is linear over the run cancels out of trace.overhead."""
    passes = [spawn(workload, seed, deadline, *flags)[1]
              for flags in ((), ("--trace",), ("--trace",), ())]
    walls = [sum(p["latencies"]) for p in passes]
    metrics = dict(passes[1]["layers"])
    metrics["trace.wall_s"] = walls[1]
    metrics["trace.overhead"] = (walls[1] + walls[2]) / (walls[0] + walls[3])
    return {"metrics": metrics, "passes": passes, "detail": {"pass_wall_s": walls}}


def environment(seed: int) -> dict:
    """The machine and code a result file entry was measured on."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"seed": seed, "commit": commit, "python": platform.python_version(),
            "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu or platform.processor() or None}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, help="append the run to this result file")
    args = parser.parse_args()
    if not (ROOT / "src" / "slicetower" / "cli.py").is_file():
        print(f"error: no slicetower sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + TIME_LIMIT_S
    try:
        if args.trace:
            run = traced_run(args.workload, args.seed, deadline)
        else:
            run = timed_run(args.workload, args.seed, args.seconds, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    failures = [f for p in run["passes"] for f in p["failures"]]
    attempted = sum(len(p["latencies"]) for p in run["passes"])
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}

    for f in failures[:10]:
        print(f"FAIL {f[1]}: {f[2]}")
    for name, m in metrics.items():
        print(f"{name:48} {m['value']:>14.6g} {m['unit']}")
    if args.out is not None:
        record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                  "env": environment(args.seed), "result": result,
                  "fail_frac": len(failures) / attempted, "failures": failures[:10],
                  "detail": run["detail"]}
        with args.out.open("a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
