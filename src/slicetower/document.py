"""Structured output: every --format json document, spelled here.

The display rules the document shares with the text and LaTeX
renderers in render.py live here, once: sphere_forms spells the form a
slice's sphere is printed in, once per slice per process, and
coefficient_label names its coefficient.  Each document is one
mechanism: f-strings at its final depth, strings through _quote and
arrays through _array, byte for byte what json.dumps(doc, indent=2)
writes, with no tree.  A tower's stage spells its own fields around its
slice's and its report's text, each encoded once per process
(slice_text, verification_text).  tower_document yields a tower's
document one stage at a time, as the tower's steps come, and
verify_document its report from those parts, so both stream.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence
from json.encoder import encode_basestring_ascii as _quote

from .abelian import AbGroup
from .group import Group
from .mackey import MackeyFunctor
from .params import stage_count
from .rep import Rep, render_forms, render_rep, rho_form
from .tower import SliceDescriptor, Tower, VerificationReport

FORMAT = "slicetower/1"
VERSION = "0.1.0"


def _array(items: Sequence[str], nl: str) -> str:
    """The JSON array of the already spelled items, for an array whose
    line begins with nl (a newline and the array's indentation)."""
    inner = nl + "  "
    return f"[{inner}{(',' + inner).join(items)}{nl}]" if items else "[]"


def rep_payload(group: Group, trivial: int, planes: tuple[int, ...], nl: str = "\n") -> str:
    """The JSON object of the representation of these multiplicities, as
    text at the depth nl gives."""
    display, latex = render_forms(group, trivial, planes)
    i = nl + "  "  # where each field begins
    return (f'{{{i}"trivial": {trivial},{i}"planes": {_array([str(x) for x in planes], i)},'
            f'{i}"dim": {trivial + 2 * sum(planes)},{i}"display": {_quote(display)},'
            f'{i}"latex": {_quote(latex)}{nl}}}')


@functools.lru_cache(maxsize=1 << 12)
def sphere_forms(desc: SliceDescriptor) -> tuple[str, str]:
    """The display and LaTeX forms the slice's sphere is printed as, read
    by the text table, the LaTeX diagram and the document's "printed".

    Torsion coefficients cannot see planes at or below their vanishing
    range, so those summands are stripped from the display unless the
    representation is an exact regular multiple over a group with at
    least two plane levels, where that shorthand is shorter and exact.
    """
    v, planes = desc.rep, desc.rep.planes
    if desc.is_torsion and (v.group.k < 2 or rho_form(v.group, v.trivial, planes) is None):
        below = desc.coeff_j + 1  # with no level-0 planes left, it has no rho form
        planes = (0,) * below + planes[below:]
    return render_forms(v.group, v.trivial, planes)


def coefficient_label(desc: SliceDescriptor, b: str = "B") -> str:
    """B(i,j) for a torsion slice's coefficient, with b spelling the B; else Z."""
    return f"{b}({desc.coeff_i},{desc.coeff_j})" if desc.is_torsion else "Z"


def group_text(group: Group, order: bool = True) -> str:
    """The "group" object of a document, as JSON text at the depth every
    document holds it; the homology and mackey documents leave out the order."""
    order_field = f'\n    "order": {group.order},' if order else ""
    return (f'{{\n    "p": {group.p},\n    "k": {group.k},{order_field}\n'
            f'    "display": {_quote(str(group))}\n  }}')


@functools.lru_cache(maxsize=1 << 12)
def slice_text(desc: SliceDescriptor) -> str:
    """The "slice" object of every stage of this slice, as JSON text at
    the depth a tower document holds it, from its "rep" field to its
    closing brace; the stage spells the fields before it."""
    display, latex = sphere_forms(desc)
    rep = rep_payload(desc.rep.group, desc.rep.trivial, desc.rep.planes, "\n        ")
    coeff = (f'"family": "B",\n          "i": {desc.coeff_i},\n          "j": {desc.coeff_j}'
             if desc.is_torsion else '"family": "Z"')
    return (f'"rep": {rep},\n        "printed": {{\n'
            f'          "display": {_quote(display)},\n          "latex": {_quote(latex)}\n        }},\n'
            f'        "coefficient": {{\n          {coeff},\n'
            f'          "display": "{coefficient_label(desc)}"\n        }}\n      }}')


@functools.lru_cache(maxsize=1 << 12)
def verification_text(report: VerificationReport) -> str:
    """The report's fields, each failure's group as its string, as JSON
    text at the depth a tower document holds it."""
    i = "\n            "  # where each field of a failure begins
    failures = _array([f'{{{i}"level": {f.level},{i}"check": {_quote(f.check)},'
                        f'{i}"epsilon": {"null" if f.epsilon is None else f.epsilon},'
                        f'{i}"t": {"null" if f.t is None else f.t},'
                        f'{i}"group": {"null" if f.group is None else _quote(str(f.group))}\n          }}'
                        for f in report.failures], "\n        ")
    return (f'{{\n        "passed": {"true" if report.passed else "false"},\n'
            f'        "checks": {report.checks},\n        "failures": {failures}\n      }}')


def tower_document(tower: Tower, reports: Sequence[VerificationReport] | None = None) -> Iterator[str]:
    """The tower's JSON document, as json.dumps(doc, indent=2) writes it
    and a newline, in parts: the header, one part per stage as the
    tower's steps come, and the closing brackets.  reports, if given,
    holds each stage's report by its index."""
    group, n = tower.group, tower.n
    yield (f'{{\n  "format": "{FORMAT}",\n  "tool": {{\n    "name": "slicetower",\n'
           f'    "version": "{VERSION}"\n  }},\n  "group": {group_text(group)},\n'
           f'  "n": {n},\n  "stage_count": {stage_count(n, group)},\n  "stages": [')
    sep = "\n    "
    bottom = "zero" if n == 0 else "integral-small" if n <= 2 else "integral"
    for i, (desc, a, b, trivial, planes) in enumerate(tower.steps()):
        a, b, kind = ("null", "null", bottom) if a is None else (a, b, "torsion")
        section = rep_payload(group, trivial, planes, "\n      ")
        verification = "null" if reports is None else verification_text(reports[i])
        yield (f'{sep}{{\n      "index": {i},\n      "slice": {{\n        "dim": {desc.dim},\n        "kind": '
               f'"{kind}",\n        "a": {a},\n        "b": {b},\n        {slice_text(desc)},\n'
               f'      "section": {section},\n      "verification": {verification}\n    }}')
        sep = ",\n    "
    yield "\n  ]\n}\n"  # a tower has at least one stage


def verify_document(group: Group, lo: int, hi: int, total: int, failed: int,
                    runs: list[tuple[Tower, list[VerificationReport]]]) -> Iterator[str]:
    """The verify report's JSON text in parts, ending in a newline: its header,
    each tower's document re-indented a part at a time, and the closing brackets."""
    yield (f'{{\n  "format": "{FORMAT}",\n  "kind": "verify-report",\n  "group": {group_text(group)},\n'
           f'  "range": [\n    {lo},\n    {hi}\n  ],\n  "stages": {total},\n  "failed_stages": {failed},\n'
           f'  "all_passed": {"true" if failed == 0 else "false"},\n  "towers": [')
    for i, (tower, reports) in enumerate(runs):
        part = ",\n" if i else "\n"  # each part is yielded once the next one comes
        for following in tower_document(tower, reports):
            yield part.replace("\n", "\n    ")
            part = following
        yield part[:-1].replace("\n", "\n    ")  # the tower's last part, without its newline
    yield "\n  ]\n}\n"


def homology_document(group: Group, rep: Rep, coefficient: str, degree: int, level: int,
                      ab: AbGroup) -> str:
    """The homology command's JSON document: ab is H_degree(S^rep; coefficient)
    at the level, and coefficient is the text the user gave."""
    torsion = _array([str(x) for x in ab.torsion], "\n    ")
    return (f'{{\n  "format": "{FORMAT}",\n  "kind": "homology",\n  "group": {group_text(group, False)},\n'
            f'  "rep": {_quote(render_rep(rep))},\n  "coefficient": {_quote(coefficient)},\n'
            f'  "degree": {degree},\n  "level": {level},\n  "homology": {{\n    "display": {_quote(str(ab))},\n'
            f'    "free_rank": {ab.free_rank},\n    "torsion": {torsion}\n  }}\n}}')


def _matrix(x: int, rows: int, cols: int) -> str:
    """The rows x cols matrix of x's, at the depth a mackey document holds it."""
    return _array([_array([str(x)] * cols, "\n      ")] * rows, "\n    ")


def mackey_document(M: MackeyFunctor, label: str) -> str:
    """The mackey command's JSON document, named by the label, each map
    as the matrix its levels shape: 1x1, or empty."""
    nl = "\n  "
    size = [len(level) for level in M.levels]
    levels = _array([_array([str(x) for x in level], "\n    ") for level in M.levels], nl)
    res = _array([_matrix(x, size[m], size[m + 1]) for m, x in enumerate(M.res)], nl)
    tr = _array([_matrix(x, size[m + 1], size[m]) for m, x in enumerate(M.tr)], nl)
    return (f'{{\n  "format": "{FORMAT}",\n  "kind": "mackey",\n  "group": {group_text(M.group, False)},\n'
            f'  "name": {_quote(label)},\n  "levels": {levels},\n  "res": {res},\n  "tr": {tr}\n}}')
