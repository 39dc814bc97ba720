"""Structured output: one JSON document per tower.

The display rules the document shares with the text and LaTeX
renderers in render.py live here, once: sphere_forms decides which
form of a slice's sphere gets printed, and spells it once per slice per
process, and coefficient_label names its coefficient.  The renderers
read the tower's stages through these, so they show what the document
says without building it.  Every --format json document is what
json.dumps(doc, indent=2) writes, byte for byte, without the stdlib's
pure-Python encoder.  tower_document spells a tower's document at its
final depth and joins it once, each stage one f-string around its slice
and its report encoded once per process (slice_text, verification_text),
as a stage's "slice" depends on the slice alone and its "verification"
on the report alone.  cli.cmd_verify prints its header (group_text too)
and then each tower's text; dumps_indented writes the other documents.
"""

from __future__ import annotations

import functools
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .group import Group
from .rep import Rep, render_forms, rho_form, strip_planes
from .tower import SliceDescriptor, Tower, VerificationReport

FORMAT = "slicetower/1"
VERSION = "0.1.0"


def dumps_indented(obj: Any) -> str:
    """json.dumps(obj, indent=2) for trees of dicts with str keys, lists,
    str, int, bool and None; anything else raises TypeError."""
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)


def _write(obj: Any, out: list[str], nl: str) -> None:
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None or isinstance(obj, int):
        out.append("null" if obj is None else "true" if obj is True
                   else "false" if obj is False else int.__repr__(obj))
    elif isinstance(obj, (dict, list)):
        is_dict = isinstance(obj, dict)
        sep = inner = nl + "  "
        out.append("{" if is_dict else "[")
        for item in obj:
            # _quote raises TypeError on a key that is not a str
            out.append(sep + _quote(item) + ": " if is_dict else sep)
            _write(obj[item] if is_dict else item, out, inner)
            sep = "," + inner
        out.append((nl if obj else "") + ("}" if is_dict else "]"))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def rep_payload(v: Rep, forms: tuple[str, str] | None = None) -> str:
    """The representation's JSON object, as text at depth 0."""
    display, latex = forms or render_forms(v)  # forms, if given, is render_forms(v)
    planes = "[" + ",".join(f"\n    {x}" for x in v.planes) + ("\n  ]" if v.planes else "]")
    return (f'{{\n  "trivial": {v.trivial},\n  "planes": {planes},\n  "dim": {v.dim},\n'
            f'  "display": {_quote(display)},\n  "latex": {_quote(latex)}\n}}')


@functools.lru_cache(maxsize=1 << 12)
def sphere_forms(desc: SliceDescriptor) -> tuple[tuple[str, str], tuple[str, str]]:
    """The display and LaTeX forms of the slice's sphere, and of what it is printed as.

    Torsion coefficients cannot see planes at or below their vanishing
    range, so those summands are stripped from the display unless the
    representation is an exact regular multiple over a group with at
    least two plane levels, where that shorthand is shorter and exact.
    """
    forms = render_forms(desc.rep)
    if desc.is_torsion and (desc.rep.group.k < 2 or rho_form(desc.rep) is None):
        # a stripped sphere has no level-0 planes, so no rho form
        return forms, render_forms(strip_planes(desc.rep, desc.coeff_j + 1))
    return forms, forms


def coefficient_label(desc: SliceDescriptor, b: str = "B") -> str:
    """B(i,j) for a torsion slice's coefficient, with b spelling the B; else Z."""
    return f"{b}({desc.coeff_i},{desc.coeff_j})" if desc.is_torsion else "Z"


def group_text(group: Group) -> str:
    """The "group" object of a tower document and of a verify report, as
    JSON text at the depth both hold it."""
    return (f'{{\n    "p": {group.p},\n    "k": {group.k},\n    "order": {group.order},\n'
            f'    "display": {_quote(str(group))}\n  }}')


@functools.lru_cache(maxsize=1 << 12)
def slice_text(desc: SliceDescriptor) -> tuple[str, str]:
    """The "slice" object of every stage of this slice, as JSON text at
    the depth a tower document holds it, before and after its "a" and
    "b" values."""
    forms, (display, latex) = sphere_forms(desc)
    rep = rep_payload(desc.rep, forms).replace("\n", "\n        ")
    coeff = (f'"family": "B",\n          "i": {desc.coeff_i},\n          "j": {desc.coeff_j}'
             if desc.is_torsion else '"family": "Z"')
    return (f'{{\n        "dim": {desc.dim},\n        "kind": "{desc.kind.value}",\n        "a": ',
            f',\n        "rep": {rep},\n        "printed": {{\n'
            f'          "display": {_quote(display)},\n          "latex": {_quote(latex)}\n        }},\n'
            f'        "coefficient": {{\n          {coeff},\n'
            f'          "display": "{coefficient_label(desc)}"\n        }}\n      }}')


@functools.lru_cache(maxsize=1 << 12)
def verification_text(report: VerificationReport) -> str:
    """The report's own fields, each failure's group as its string, as
    JSON text at the depth a tower document holds it."""
    failures = [{**vars(f), "group": None if f.group is None else str(f.group)}
                for f in report.failures]
    return dumps_indented({**vars(report), "failures": failures}).replace("\n", "\n      ")


def tower_document(tower: Tower, reports: list[VerificationReport] | None = None) -> str:
    """The tower's JSON document, as json.dumps(doc, indent=2) would write it."""
    parts = [f'{{\n  "format": "{FORMAT}",\n  "tool": {{\n    "name": "slicetower",\n'
             f'    "version": "{VERSION}"\n  }},\n  "group": {group_text(tower.group)},\n'
             f'  "n": {tower.n},\n  "stage_count": {len(tower.stages)},\n  "stages": [']
    sep = "\n    "
    for i, stage in enumerate(tower.stages):
        head, tail = slice_text(stage.descriptor)
        a, b = ("null", "null") if stage.a is None else (stage.a, stage.b)
        section = rep_payload(stage.section).replace("\n", "\n      ")
        verification = "null" if reports is None else verification_text(reports[i])
        parts.append(f'{sep}{{\n      "index": {i},\n      "slice": {head}{a},\n        "b": {b}{tail},\n'
                     f'      "section": {section},\n      "verification": {verification}\n    }}')
        sep = ",\n    "
    parts.append("\n  ]\n}")  # a tower has at least one stage
    return "".join(parts)
