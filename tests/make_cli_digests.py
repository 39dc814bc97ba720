"""Regenerate tests/data/cli_digests.json, the CLI's recorded outputs.

    PYTHONPATH=src python tests/make_cli_digests.py

Every request below is sent in-process through ``slicetower.cli.main``;
the file keeps its argv, its exit code and the sha256 of its stdout and
of its stderr.  The requests are the benchmark's (bench/workloads.py,
read only) and a few sizes and errors the benchmark does not reach.
test_cli_digests.py replays the stored argv and asks for the same
digests, so every output stays byte for byte what it was.  Regenerate
only when an output is meant to change, and name every changed request
in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "data" / "cli_digests.json"

EXTRA = (
    ("verify", "--p", "3", "--k", "8", "--n", "3..30", "--format", "json"),
    ("homology", "--p", "3", "--k", "5", "--rep", "L0 - L1", "--format", "json"),
    ("homology", "--p", "101", "--k", "2", "--rep", "L0 - L1", "--format", "json"),
    ("tower", "--p", "3", "--k", "1", "--n", "10000", "--format", "json"),
    ("verify", "--p", "5", "--k", "2", "--n", "3..12"),
    ("tower", "--p", "3", "--k", "2", "--n", "16", "--verify"),
    ("verify", "--p", "2", "--k", "1", "--n", "3"),
    ("verify", "--p", "3", "--k", "1", "--n", "5..3"),
    ("homology", "--p", "3", "--k", "2", "--rep", "3+"),
    ("mackey", "--p", "3", "--k", "2", "--show", "B(2,0)", "--format", "json"),
)


def requests() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    reqs = [r.argv for make in workloads.WORKLOADS.values() for r in make()]
    return [list(argv) for argv in (*reqs, *EXTRA)]


def digest(argv: list[str]) -> dict:
    from slicetower.cli import main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps([digest(argv) for argv in requests()], indent=1) + "\n")
