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

# Every coefficient family over C_3, C_9 and C_27 (k, name): Z, Z*, a few
# Z(i,j) and every B(i,j), 19 in all.  Each is shown in text and JSON,
# and the homology of three spheres with it is read at the top and the
# bottom level, where the torsion family is zero, in degrees -1..1.
COEFFS = tuple((k, name) for k in (1, 2, 3) for name in (
    "Z", "Z*", *{1: (), 2: ("Z(2,1)",), 3: ("Z(2,1)", "Z(3,1)")}[k],
    *(f"B({i},{j})" for i in range(1, k + 1) for j in range(k - i + 1))))
EXTRA += tuple(("mackey", "--p", "3", "--k", str(k), "--show", name, "--format", fmt)
               for k, name in COEFFS for fmt in ("text", "json"))
EXTRA += tuple(("homology", "--p", "3", "--k", str(k), "--rep", rep, "--coeff", name,
                "--degree", str(d), "--level", level)
               for k, name in COEFFS
               for rep in ("L0 - 2" if k == 1 else "L0 - L1", "2L0 - 3", "rho - 1 - L0")
               for level in ("top", "e") for d in (-1, 0, 1))

# The slice terms of the representation grammar over C_3, C_9 and C_27
# (k, n, d): W@n= and every V(a,b)@n= of the tower, in text and JSON,
# with n prime to p, divisible by p, and p^k itself; then the indices
# and the n that are refused.
SLICE_TERMS = ((1, 7, 2), (1, 9, 3), (2, 8, 2), (2, 9, 3), (3, 10, 3), (3, 12, 4), (3, 27, 0))
EXTRA += tuple(("homology", "--p", "3", "--k", str(k), "--rep", rep, "--format", fmt)
               for k, n, d in SLICE_TERMS
               for rep in (f"W@n={n}", *(f"V({a},{b})@n={n}" for a in range(1, k + 1)
                                          for b in range(1, d + 1)))
               for fmt in ("text", "json"))
EXTRA += tuple(("homology", "--p", "3", "--k", str(k), "--rep", rep)
               for k, rep in ((1, "V(0,1)@n=7"), (1, "V(2,1)@n=7"), (1, "V(1,0)@n=7"),
                              (1, "V(1,3)@n=7"), (2, "V(1,1)@n=2"), (2, "W@n=2"),
                              (2, "2(W@n=8) - V(1,2)@n=8 - 3rho")))

# tower as text over the benchmark's four tower-render groups (C_9, C_125,
# C_81, C_49), which it asks only for JSON and LaTeX; then tower --verify
# in every format over C_3, C_9 and C_25.
EXTRA += tuple(("tower", "--p", str(p), "--k", str(k), "--n", str(n))
               for p, k in ((3, 2), (5, 3), (3, 4), (7, 2))
               for n in (0, 1, 2, 3, 7, 16, 30, 60, 120))
EXTRA += tuple(("tower", "--p", str(p), "--k", str(k), "--n", str(n), "--verify", "--format", fmt)
               for p, k in ((3, 1), (3, 2), (5, 2)) for n in range(3, 11)
               for fmt in ("text", "json", "latex"))

# usage errors whose text no request above pins: a --p that is not prime, k = 0, an
# --n that is no range, a negative tower --n, an --level that is no level
# or out of range, and a --rep that ends early or runs on; and an integer
# --level, which no request above gives
EXTRA += (
    ("tower", "--p", "9", "--k", "1", "--n", "7"),
    ("tower", "--p", "3", "--k", "0", "--n", "7"),
    ("verify", "--p", "3", "--k", "1", "--n", "3..x"),
    ("tower", "--p", "3", "--k", "1", "--n", "-1"),
    ("homology", "--p", "3", "--k", "2", "--rep", "L0 - L1", "--level", "x"),
    ("homology", "--p", "3", "--k", "2", "--rep", "L0 - L1", "--level", "3"),
    ("homology", "--p", "3", "--k", "2", "--rep", "V(1"),
    ("homology", "--p", "3", "--k", "2", "--rep", "L0)"),
    ("homology", "--p", "3", "--k", "2", "--rep", "L0 - L1", "--level", "1"),
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
