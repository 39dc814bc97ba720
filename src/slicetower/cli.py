"""Command-line entry points.

Four subcommands: tower (build and render a slice tower), verify
(sweep a range of n and re-check every slice from scratch), homology
(one Bredon homology group of a virtual representation sphere), and
mackey (display a coefficient system).  Their flags, in COMMANDS, take
--flag value or --flag=value, named exactly; a value may begin with
"-", and a repeated flag keeps its last value.  Exit status is 0 on
success, for --help, and when every requested verification passes, 1
when a verification fails or an invariant breaks (one error line, no
traceback) or when the reader closes stdout early (nothing on stderr),
2 for usage errors (one error line).
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .cells import factor_ranges, window_size
from .document import homology_document, mackey_document, tower_document, verify_document
from .group import Group, InvariantError, is_odd_prime
from .homology import sphere_homology
from .mackey import parse_coefficient, render_mackey, restrict_mackey
from .params import stage_count
from .render import render_latex, render_text
from .rep import parse_rep, render_rep, restrict_rep
from .tower import build_tower, verify_tower

MAX_STAGES = 500_000  # per request; the tower of S^1000000 over C_3 has 333,334
# a request builds, checks or prints each of the k + 1 subgroup levels, so its
# work and output grow with k; verify --p 3 --k 64 --n 3 takes about a second
MAX_K = 64
# cells per homology request, counted before any is built (cells.window_size): 50L0 -
# 50L1 over C_9 has 1,487 (0.3 s), L0 - L1 over C_3^7 2,921 (0.3 s) and over C_3^8 8,753
MAX_CELLS = 3_000


def _group_from(args: SimpleNamespace) -> Group:
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


def cmd_tower(args: SimpleNamespace) -> int:
    group = _group_from(args)
    if args.n < 0:
        raise ValueError(f"--n must be nonnegative, got {args.n}")
    _check_stages(group, args.n, args.n, str(args.n))
    # the writer walks the tower's recipe and writes each stage as it comes,
    # holding no stage and no document, and a broken invariant stops it there;
    # --verify first holds one cached report per stage, for a second walk
    tower = build_tower(args.n, group)
    reports = verify_tower(tower) if args.verify else None
    writer = {"text": render_text, "json": tower_document, "latex": render_latex}[args.format]
    sys.stdout.writelines(writer(tower, reports))
    return 0 if reports is None or all(r.passed for r in reports) else 1


def cmd_verify(args: SimpleNamespace) -> int:
    group = _group_from(args)
    lo, hi = _parse_range(args.n)
    _check_stages(group, lo, hi, args.n)

    runs = [(tower, verify_tower(tower)) for tower in (build_tower(n, group) for n in range(lo, hi + 1))]
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
        print(f"all {total} stages pass" if failed == 0 else f"{failed} of {total} stages FAIL")
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


def cmd_homology(args: SimpleNamespace) -> int:
    group = _group_from(args)
    v = parse_rep(args.rep, group)
    _, coeff = parse_coefficient(args.coeff, group)
    level = _level_index(args.level, group)
    # level m is the top level of the sphere restricted to C_{p^m}
    d, w = args.degree, restrict_rep(v, level)
    # (S + 2)^2 |G| bounds the count, S = sum |planes|: (S + 1)^2 pairs, S odd cells, each |G| at most;
    # each factor cell the count would list lies in a product cell, so a longer factor range is not listed
    if w.group.order * (sum(map(abs, w.planes)) + 2) ** 2 > MAX_CELLS:
        listed = max(map(len, factor_ranges(w, (d - 1, d + 1))))
        cells = f"at least {listed}" if listed > MAX_CELLS else window_size(w, (d - 1, d + 1))
        if listed > MAX_CELLS or cells > MAX_CELLS:
            raise ValueError(f"the sphere has {cells} cells in degrees {d - 1}..{d + 1} at level {level}, "
                             f"over the cap of {MAX_CELLS}")
    ab, = sphere_homology(w, restrict_mackey(coeff, level), d, d)
    if args.format == "json":
        print(homology_document(group, v, args.coeff, d, level, ab))
    else:
        print(f"H_{args.degree}(S^({render_rep(v)}); {args.coeff}) at level {level} over {group}: {ab}")
    return 0


def cmd_mackey(args: SimpleNamespace) -> int:
    group = _group_from(args)
    label, M = parse_coefficient(args.show, group)
    if args.format == "json":
        print(mackey_document(M, label))
    else:
        print(render_mackey(M, label), end="")
    return 0


def _usage() -> int:
    print("usage: slicetower COMMAND --flag VALUE ... (or --flag=VALUE)")
    for command, (_, summary, flags) in COMMANDS.items():
        print(f"\n{command}: {summary}")
        for flag, (kind, value) in {**COMMON_FLAGS, **flags}.items():
            shape = "" if kind is bool else "|".join(kind) if isinstance(kind, tuple) else kind.__name__
            note = "required" if value is REQUIRED else f"default {value}" if shape and value is not None else ""
            print(f"  {flag:9} {shape:17} {note}".rstrip())
    return 0


REQUIRED = object()  # the default of a flag that must be given
COMMON_FLAGS = {"--p": (int, REQUIRED), "--k": (int, REQUIRED), "--format": (("text", "json"), "text")}
_HELP = ("-h", "--help")

# command: (handler, summary, flags beyond COMMON_FLAGS); flag: (kind, default), a kind
# being int, str, a tuple of choices, or bool for a switch that takes no value
COMMANDS = {
    "tower": (cmd_tower, "the slice tower of S^n; --verify re-checks each slice", {
        "--n": (int, REQUIRED), "--format": (("text", "json", "latex"), "text"), "--verify": (bool, False)}),
    "verify": (cmd_verify, "verify every slice for --n N or A..B", {"--n": (str, REQUIRED)}),
    "homology": (cmd_homology, "one Bredon homology group; --rep as 3+2L1+L0, --level top, e or 0..k", {
        "--rep": (str, REQUIRED), "--coeff": (str, "Z"), "--degree": (int, 0), "--level": (str, "top")}),
    "mackey": (cmd_mackey, "show a coefficient system: Z, Z*, Z(i,j) or B(i,j)", {"--show": (str, REQUIRED)}),
}


def dispatch(argv: list[str]) -> int:
    """Run argv's command on a namespace of its flags, each value read
    by its flag's kind; a usage error raises ValueError."""
    command = argv[0] if argv else ""
    if command in _HELP:
        return _usage()
    if command not in COMMANDS:
        raise ValueError(f"expected a command ({', '.join(COMMANDS)}), got {command!r}")
    handler, _, own = COMMANDS[command]
    flags = {**COMMON_FLAGS, **own}
    values = {flag: default for flag, (_, default) in flags.items()}
    rest = iter(argv[1:])
    for arg in rest:
        if arg in _HELP:
            return _usage()
        flag, eq, value = arg.partition("=")
        if flag not in flags:
            raise ValueError(f"unknown argument {arg!r} to {command}")
        kind = flags[flag][0]
        if kind is bool:
            if eq:
                raise ValueError(f"{flag} takes no value")
            value = True
        elif not eq and (value := next(rest, None)) is None:
            raise ValueError(f"{flag} needs a value")
        elif kind is int:
            try:
                value = int(value)
            except ValueError:  # int() also refuses more than 4,300 digits
                shown = value if len(value) <= 40 else value[:40] + "..."
                raise ValueError(f"{flag} expects an integer, got {shown!r}") from None
        elif kind is not str and value not in kind:
            raise ValueError(f"{flag} must be one of {', '.join(kind)}, got {value!r}")
        values[flag] = value
    if REQUIRED in values.values():
        raise ValueError(f"{command} needs {' and '.join(f for f, v in values.items() if v is REQUIRED)}")
    return handler(SimpleNamespace(**{flag[2:]: value for flag, value in values.items()}))


def main(argv: list[str] | None = None) -> int:
    try:
        code = dispatch(sys.argv[1:] if argv is None else argv)
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
