"""Request lists and expected answers for the benchmark workloads.

A workload is a fixed list of CLI requests (argv lists for
``slicetower.cli.main``), shuffled by the seed.  Every request carries
what it asks for, so its response can be checked against an answer
computed here from closed-form combinatorics and the README goldens,
never by calling the program under test.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# (p, k, lowest n, highest n) for verify-sweep: ROADMAP's four sweeps
# plus C_5^2 and C_3^3.
VERIFY_SWEEPS = ((3, 2, 3, 30), (7, 2, 3, 20), (3, 4, 3, 10), (5, 3, 3, 12),
                 (5, 2, 3, 30), (3, 3, 3, 20))

# (p, k) for homology-anchors: criterion 6b's family S^(λ_a - λ_j),
# 0 <= j < a <= k, over C_3, C_9, C_27, C_5 and C_25.
ANCHOR_GROUPS = ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2))
ANCHOR_DEGREES = (-2, -1, 0, 1, 2)

# (p, k) for tower-render: C_9, C_125, C_81, C_49; n = 0..120 step 3.
RENDER_GROUPS = ((3, 2), (5, 3), (3, 4), (7, 2))
RENDER_NS = tuple(range(0, 121, 3))
# The README's worked examples over C_9, checked against their goldens.
GOLDEN_NS = (7, 16)

# README golden for S^7 over C_9: (dim, printed slice, coefficient, section).
GOLDEN_S7 = (
    (44, "5ρ - 1", "B(1,1)", "7"),
    (26, "3ρ - 1", "B(1,1)", "5 + λ_1"),
    (14, "2 + λ_1", "B(1,0)", "3 + 2λ_1"),
    (8, "ρ - 1", "B(2,0)", "3 + λ_1 + λ_0"),
    (7, "1 + λ_1 + 2λ_0", "Z", "1 + λ_1 + 2λ_0"),
)
GOLDEN_S7_LATEX = (
    "\\xymatrix{\n"
    "S^{5\\rho - 1} \\wedge H\\underline{B}(1,1) \\ar[r] & S^{7} \\wedge H\\underline{\\mathbb{Z}} \\ar[d] \\\\\n"
    "S^{3\\rho - 1} \\wedge H\\underline{B}(1,1) \\ar[r] & S^{5 + \\lambda_{1}} \\wedge H\\underline{\\mathbb{Z}} \\ar[d] \\\\\n"
    "S^{2 + \\lambda_{1}} \\wedge H\\underline{B}(1,0) \\ar[r] & S^{3 + 2\\lambda_{1}} \\wedge H\\underline{\\mathbb{Z}} \\ar[d] \\\\\n"
    "S^{\\rho - 1} \\wedge H\\underline{B}(2,0) \\ar[r] & S^{3 + \\lambda_{1} + \\lambda_{0}} \\wedge H\\underline{\\mathbb{Z}} \\ar[d] \\\\\n"
    "& S^{1 + \\lambda_{1} + 2\\lambda_{0}} \\wedge H\\underline{\\mathbb{Z}}\n"
    "}\n"
)
# README golden for S^16 over C_9: slices that must appear, and the
# number of torsion stages.
GOLDEN_S16_SLICES = (("14ρ - 1", "B(1,1)"), ("4ρ - 1", "B(2,0)"),
                     ("2 + 2λ_1 + 5λ_0", "Z"))
GOLDEN_S16_LATEX = ("S^{14\\rho - 1} \\wedge H\\underline{B}(1,1) \\ar[r]",
                    "S^{4\\rho - 1} \\wedge H\\underline{B}(2,0) \\ar[r]",
                    "& S^{2 + 2\\lambda_{1} + 5\\lambda_{0}} \\wedge H\\underline{\\mathbb{Z}}")
GOLDEN_S16_TORSION = 10


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str          # "verify" | "homology" | "tower-json" | "tower-latex"
    p: int
    k: int
    n: int = 0         # suspension degree (verify, tower)
    degree: int = 0    # homology degree
    level: int = 0     # homology level index asked for


def expected_stages(p: int, k: int, n: int) -> int:
    """Stage count of the tower of S^n over C_{p^k}, counted directly.

    For n >= 3 there are k * d torsion stages, d the number of m with
    the parity of n and n/p <= m <= n - 2; the stage (a, b) = (1, 1)
    is absent when p divides n; one integral stage closes the tower.
    """
    if n <= 2:
        return 1
    d = sum(1 for m in range(1, n - 1) if (n - m) % 2 == 0 and m * p >= n)
    return k * d + (0 if n % p == 0 else 1)


def _gk(p: int, k: int) -> tuple[str, ...]:
    return ("--p", str(p), "--k", str(k))


def verify_sweep() -> list[Request]:
    return [Request(("verify", *_gk(p, k), "--n", str(n), "--format", "json"),
                    "verify", p, k, n=n)
            for p, k, lo, hi in VERIFY_SWEEPS for n in range(lo, hi + 1)]


def homology_anchors() -> list[Request]:
    out = []
    for p, k in ANCHOR_GROUPS:
        for a in range(1, k + 1):
            for j in range(a):
                for d in ANCHOR_DEGREES:
                    top = d % 2 == 0
                    out.append(Request(
                        ("homology", *_gk(p, k), "--rep", f"L{a} - L{j}",
                         "--coeff", "Z", "--degree", str(d),
                         "--level", "top" if top else "e", "--format", "json"),
                        "homology", p, k, degree=d, level=k if top else 0))
    return out


def tower_render() -> list[Request]:
    cases = [(p, k, n) for p, k in RENDER_GROUPS for n in RENDER_NS]
    cases += [(3, 2, n) for n in GOLDEN_NS]
    return [Request(("tower", *_gk(p, k), "--n", str(n), "--format", fmt),
                    f"tower-{fmt}", p, k, n=n)
            for p, k, n in cases for fmt in ("json", "latex")]


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "homology-anchors": homology_anchors,
    "tower-render": tower_render,
}


def requests(workload: str, seed: int) -> list[Request]:
    """The workload's fixed request list, in the order the seed gives."""
    reqs = WORKLOADS[workload]()
    random.Random(seed).shuffle(reqs)
    return reqs


# --- checking responses -------------------------------------------------------

def _check_verify(req: Request, doc: dict) -> str | None:
    want = expected_stages(req.p, req.k, req.n)
    if doc.get("kind") != "verify-report" or doc.get("range") != [req.n, req.n]:
        return "not the verify report asked for"
    if doc.get("all_passed") is not True or doc.get("failed_stages") != 0:
        return f"{doc.get('failed_stages')} stages failed"
    if doc.get("stages") != want:
        return f"{doc.get('stages')} stages, closed form gives {want}"
    return None


def _check_homology(req: Request, doc: dict) -> str | None:
    if doc.get("kind") != "homology" or doc.get("degree") != req.degree \
            or doc.get("level") != req.level:
        return "not the homology group asked for"
    hom = doc.get("homology", {})
    want_rank = 1 if req.degree == 0 else 0
    if hom.get("free_rank") != want_rank or hom.get("torsion") != []:
        return f"H_{req.degree} at level {req.level} is {hom.get('display')}"
    return None


def _check_tower_json(req: Request, doc: dict) -> str | None:
    want = expected_stages(req.p, req.k, req.n)
    stages = doc.get("stages", [])
    if doc.get("n") != req.n or doc.get("stage_count") != want or len(stages) != want:
        return f"{len(stages)} stages, closed form gives {want}"
    dims = [s["slice"]["dim"] for s in stages]
    if any(a <= b for a, b in zip(dims, dims[1:])) or dims[-1] != req.n:
        return f"dimensions {dims} do not decrease strictly to {req.n}"
    if (req.p, req.k) != (3, 2):
        return None
    rows = [(s["slice"]["dim"], s["slice"]["printed"]["display"],
             s["slice"]["coefficient"]["display"], s["section"]["display"])
            for s in stages]
    if req.n == 7 and tuple(rows) != GOLDEN_S7:
        return "S^7 over C_9 differs from the README"
    if req.n == 16:
        shown = {(r[1], r[2]) for r in rows}
        torsion = sum(1 for s in stages if s["slice"]["kind"] == "torsion")
        if torsion != GOLDEN_S16_TORSION or not set(GOLDEN_S16_SLICES) <= shown:
            return "S^16 over C_9 differs from the README"
    return None


def _check_tower_latex(req: Request, out: str) -> str | None:
    want = expected_stages(req.p, req.k, req.n)
    lines = out.split("\n")
    if lines[0] != "\\xymatrix{" or lines[-2:] != ["}", ""]:
        return "not an xymatrix diagram"
    rows = lines[1:-2]
    arrows = sum(1 for r in rows if r.endswith("\\ar[d] \\\\"))
    if len(rows) != want or arrows != want - 1 or not rows[-1].startswith("& S^{"):
        return f"{len(rows)} diagram rows, closed form gives {want}"
    if (req.p, req.k) == (3, 2):
        if req.n == 7 and out != GOLDEN_S7_LATEX:
            return "S^7 over C_9 diagram differs from the golden"
        if req.n == 16 and not all(any(r.startswith(g) for r in rows)
                                   for g in GOLDEN_S16_LATEX):
            return "S^16 over C_9 diagram differs from the README"
    return None


def check(req: Request, code: int, out: str) -> str | None:
    """None when the response is the expected answer, else the reason."""
    if code != 0:
        return f"exit code {code}"
    if req.kind == "tower-latex":
        return _check_tower_latex(req, out)
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not JSON"
    return {"verify": _check_verify, "homology": _check_homology,
            "tower-json": _check_tower_json}[req.kind](req, doc)
