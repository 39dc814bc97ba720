"""One pass of a workload, in a fresh process: the closed-loop client.

Run by run.py, never by hand.  The process imports slicetower from the
checkout's src/, generates the workload's request list from the seed
and writes ``ready`` to the pipe passed as --ready-fd (run.py times
set-up up to that write).  Then it sends the requests one at a time
through ``slicetower.cli.main`` with stdout and stderr captured,
checking each response before sending the next.  It ends by writing
one JSON line to stdout: per-request latencies in list order, the
failures, the peak resident set and, when traced, the per-layer
metrics.

    python3 bench/client.py --workload NAME --seed N --ready-fd FD [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import slicetower.cli  # noqa: E402

import workloads  # noqa: E402


def send(argv: tuple[str, ...]) -> tuple[int | None, str, float, str | None]:
    """Serve one request; returns exit code, stdout, seconds, error."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = slicetower.cli.main(list(argv))
    except SystemExit as e:  # argparse rejecting the request
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a crash fails this request, not the run
        code, error = None, f"{type(e).__name__}: {e}"
    elapsed = perf_counter() - t0
    return code, out.getvalue(), elapsed, error


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ready-fd", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    reqs = workloads.requests(args.workload, args.seed)
    os.write(args.ready_fd, b"ready\n")
    os.close(args.ready_fd)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    latencies = []
    failures = []
    for i, req in enumerate(reqs):
        code, out, elapsed, error = send(req.argv)
        latencies.append(elapsed)
        if tracer is not None:
            tracer.end_request()
        reason = error or workloads.check(req, code, out)
        if reason is not None:
            failures.append([i, " ".join(req.argv), reason])

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "latencies": latencies,
        "failures": failures,
        "peak_rss_mb": peak_kb / 1024,
        "layers": tracer.metrics() if tracer is not None else None,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
