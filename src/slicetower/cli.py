"""Command-line entry points.

Four subcommands: tower (build and render a slice tower), verify
(sweep a range of n and re-check every slice from scratch), homology
(one Bredon homology group of a virtual representation sphere), and
mackey (display a coefficient system).  Exit status is 0 on success
and when every requested verification passes, 1 when a verification
fails or an invariant of the construction breaks (one error line, no
traceback) or when the reader closes stdout early (nothing on stderr),
2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .document import homology_document, mackey_document, tower_document, verify_document
from .group import Group, InvariantError, is_odd_prime
from .homology import sphere_homology
from .mackey import parse_coefficient, render_mackey, restrict_mackey
from .params import stage_count
from .render import render_latex, render_text
from .rep import parse_rep, render_rep, restrict_rep
from .tower import build_tower, verify_tower

RANGE_ENV = "SLICETOWER_VERIFY_RANGE"
MAX_STAGES = 500_000  # per request; the tower of S^1000000 over C_3 has 333,334
# a request builds, checks or prints each of the k + 1 subgroup levels, so its
# work and output grow with k; verify --p 3 --k 64 --n 3 takes about a second
MAX_K = 64

# flags whose values may begin with "-" (e.g. --rep "-(rho)"); they are
# rewritten to the = form so argparse does not mistake them for options
_VALUE_FLAGS = {"--rep", "--coeff", "--show", "--n"}


def _group_from(args: argparse.Namespace) -> Group:
    p, k = args.p, args.k
    if p == 2:
        raise ValueError("p = 2 is not supported; the construction needs an odd prime")
    if p >= 2**31:  # trial division up to sqrt(p) must stay quick
        raise ValueError("--p must be below 2^31")
    if not is_odd_prime(p):
        raise ValueError(f"--p must be an odd prime, got {p}")
    if k < 1:
        raise ValueError(f"--k must be at least 1, got {k}")
    if k > MAX_K:
        raise ValueError(f"--k must be at most {MAX_K}, got {k}")
    return Group(p, k)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValueError(f"expected N or A..B, got {text!r}") from None
    if lo < 0 or hi < lo:
        raise ValueError(f"bad range {text!r}")
    return lo, hi


def _check_stages(group: Group, lo: int, hi: int, spec: str) -> None:
    """Refuse towers for n = lo..hi of more than MAX_STAGES stages in all, before
    building any.  Each n has one stage or more, so a longer range is not summed."""
    total = hi - lo + 1
    if total <= MAX_STAGES:
        total = sum(stage_count(n, group) for n in range(lo, hi + 1))
    if total > MAX_STAGES:
        raise ValueError(f"--n {spec} builds at least {total} stages, over the cap of {MAX_STAGES}")


def cmd_tower(args: argparse.Namespace) -> int:
    group = _group_from(args)
    if args.n < 0:
        raise ValueError(f"--n must be nonnegative, got {args.n}")
    _check_stages(group, args.n, args.n, str(args.n))
    tower = build_tower(args.n, group)
    reports = verify_tower(tower) if args.verify else None
    if args.format == "json":
        print(tower_document(tower, reports))
    elif args.format == "latex":
        print(render_latex(tower, reports), end="")
    else:
        print(render_text(tower, reports), end="")
    if reports is not None and not all(r.passed for r in reports):
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    group = _group_from(args)
    spec = args.n if args.n is not None else os.environ.get(RANGE_ENV)
    if spec is None:
        raise ValueError(f"provide --n N or --n A..B, or set {RANGE_ENV}")
    lo, hi = _parse_range(spec)
    _check_stages(group, lo, hi, spec)

    towers = [build_tower(n, group) for n in range(lo, hi + 1)]
    runs = [(tower, verify_tower(tower)) for tower in towers]
    total = sum(len(reports) for _, reports in runs)
    failed = sum(not r.passed for _, reports in runs for r in reports)

    if args.format == "json":
        sys.stdout.writelines(verify_document(group, lo, hi, total, failed, runs))
    else:
        print(f"verify over {group}, n = {lo}..{hi}")
        for tower, reports in runs:
            bad = sum(not r.passed for r in reports)
            status = "all pass" if bad == 0 else f"{bad} FAIL"
            noun = "stage" if len(reports) == 1 else "stages"
            print(f"  n={tower.n}: {len(reports)} {noun}, {status}")
        if failed == 0:
            print(f"all {total} stages pass")
        else:
            print(f"{failed} of {total} stages FAIL")
    return 0 if failed == 0 else 1


def _level_index(text: str, group: Group) -> int:
    if text == "top":
        return group.k
    if text == "e":
        return 0
    try:
        m = int(text)
    except ValueError:
        raise ValueError(f"--level must be top, e, or an integer, got {text!r}") from None
    if not 0 <= m <= group.k:
        raise ValueError(f"--level {m} out of range 0..{group.k}")
    return m


def cmd_homology(args: argparse.Namespace) -> int:
    group = _group_from(args)
    v = parse_rep(args.rep, group)
    coeff = parse_coefficient(args.coeff, group)
    level = _level_index(args.level, group)
    # level m is the top level of the sphere restricted to C_{p^m}
    d = args.degree
    ab, = sphere_homology(restrict_rep(v, level), restrict_mackey(coeff, level), d, d)
    if args.format == "json":
        print(homology_document(group, v, args.coeff, d, level, ab))
    else:
        print(f"H_{args.degree}(S^({render_rep(v)}); {args.coeff}) at level {level} over {group}: {ab}")
    return 0


def cmd_mackey(args: argparse.Namespace) -> int:
    group = _group_from(args)
    M = parse_coefficient(args.show, group)
    if args.format == "json":
        print(mackey_document(M))
    else:
        print(render_mackey(M), end="")
    return 0


def _add_group_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="odd prime")
    sub.add_argument("--k", type=int, required=True, help="the group is cyclic of order p^k")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parse_args leaves it unchanged
    and gives every call a fresh namespace of defaults, so main reuses
    it across requests."""
    parser = argparse.ArgumentParser(
        prog="slicetower",
        description="slice towers of suspended Eilenberg-MacLane spectra over cyclic p-groups")
    subs = parser.add_subparsers(dest="command", required=True)

    tower = subs.add_parser("tower", help="build and print one slice tower")
    _add_group_flags(tower)
    tower.add_argument("--n", type=int, required=True, help="suspension degree")
    tower.add_argument("--format", choices=("text", "json", "latex"), default="text")
    tower.add_argument("--verify", action="store_true",
                       help="re-check every slice and annotate the output")
    tower.set_defaults(run=cmd_tower)

    verify = subs.add_parser("verify", help="verify every slice over a range of n")
    _add_group_flags(verify)
    verify.add_argument("--n", help=f"N or A..B (falls back to ${RANGE_ENV})")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(run=cmd_verify)

    homology = subs.add_parser("homology", help="one Bredon homology group")
    _add_group_flags(homology)
    homology.add_argument("--rep", required=True,
                          help='virtual representation, e.g. "3+2L1+L0", "5rho-1", "V(1,1)@n=7"')
    homology.add_argument("--coeff", default="Z", help="Z, Z*, Z(i,j), or B(i,j)")
    homology.add_argument("--degree", type=int, default=0)
    homology.add_argument("--level", default="top", help="top, e, or a subgroup level 0..k")
    homology.add_argument("--format", choices=("text", "json"), default="text")
    homology.set_defaults(run=cmd_homology)

    mackey = subs.add_parser("mackey", help="display a coefficient system")
    _add_group_flags(mackey)
    mackey.add_argument("--show", required=True, help="Z, Z*, Z(i,j), or B(i,j)")
    mackey.add_argument("--format", choices=("text", "json"), default="text")
    mackey.set_defaults(run=cmd_mackey)
    return parser


def _join_leading_dash_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_join_leading_dash_values(list(argv)))
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left mid-print or mid-flush; fd 1 on devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvariantError as e:
        print(f"error: invariant violated: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
