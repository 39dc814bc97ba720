"""Structured output: one JSON-able document per tower.

The display rules the document shares with the text and LaTeX
renderers in render.py live here, once: sphere_forms decides which
form of a slice's sphere gets printed, and spells it once per slice per
process, and coefficient_label names its coefficient.  The renderers
read the tower's stages through these, so they show what the document
says without building it.  dumps_indented writes every --format json
document, byte for byte as json.dumps(doc, indent=2) would, in one pass
that skips the stdlib's pure-Python encoder.
"""

from __future__ import annotations

import functools
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .rep import Rep, render_forms, rho_form, spell_forms, strip_planes
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
            value = obj[item] if is_dict else item
            # _quote raises TypeError on a key that is not a str
            out.append(sep + _quote(item) + ": " if is_dict else sep)
            # plain str, int and None leaves inline, the rest as above
            if type(value) is str:
                out.append(_quote(value))
            elif type(value) is int:
                out.append(int.__repr__(value))
            elif value is None:
                out.append("null")
            else:
                _write(value, out, inner)
            sep = "," + inner
        out.append((nl if obj else "") + ("}" if is_dict else "]"))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def rep_payload(v: Rep, forms: tuple[str, str] | None = None) -> dict[str, Any]:
    display, latex = forms or render_forms(v)  # forms, if given, is render_forms(v)
    return {
        "trivial": v.trivial,
        "planes": list(v.planes),
        "dim": v.dim,
        "display": display,
        "latex": latex,
    }


@functools.lru_cache(maxsize=1 << 12)
def sphere_forms(desc: SliceDescriptor) -> tuple[tuple[str, str], tuple[str, str]]:
    """The display and LaTeX forms of the slice's sphere, and of what it is printed as.

    Torsion coefficients cannot see planes at or below their vanishing
    range, so those summands are stripped from the display unless the
    representation is an exact regular multiple over a group with at
    least two plane levels, where that shorthand is shorter and exact.
    """
    form = rho_form(desc.rep)
    forms = spell_forms(desc.rep, form)
    if desc.is_torsion and (desc.rep.group.k < 2 or form is None):
        # a stripped sphere has no level-0 planes, so no rho form
        return forms, spell_forms(strip_planes(desc.rep, desc.coeff_j + 1), None)
    return forms, forms


def coefficient_label(desc: SliceDescriptor, b: str = "B") -> str:
    """B(i,j) for a torsion slice's coefficient, with b spelling the B; else Z."""
    return f"{b}({desc.coeff_i},{desc.coeff_j})" if desc.is_torsion else "Z"


def tower_document(tower: Tower,
                   reports: list[VerificationReport] | None = None) -> dict[str, Any]:
    group = tower.group
    stages = []
    for i, stage in enumerate(tower.stages):
        desc = stage.descriptor
        coeff: dict[str, Any] = ({"family": "B", "i": desc.coeff_i, "j": desc.coeff_j}
                                 if desc.is_torsion else {"family": "Z"})
        coeff["display"] = coefficient_label(desc)
        forms, (display, latex) = sphere_forms(desc)
        entry: dict[str, Any] = {
            "index": i,
            "slice": {
                "dim": desc.dim,
                "kind": desc.kind.value,
                "a": stage.a,
                "b": stage.b,
                "rep": rep_payload(desc.rep, forms),
                "printed": {"display": display, "latex": latex},
                "coefficient": coeff,
            },
            "section": rep_payload(stage.section),
            "verification": None,
        }
        if reports is not None:  # the report's own fields, each failure's group as its string
            failures = [{**vars(f), "group": None if f.group is None else str(f.group)}
                        for f in reports[i].failures]
            entry["verification"] = {**vars(reports[i]), "failures": failures}
        stages.append(entry)

    return {
        "format": FORMAT,
        "tool": {"name": "slicetower", "version": VERSION},
        "group": {"p": group.p, "k": group.k, "order": group.order,
                  "display": str(group)},
        "n": tower.n,
        "stage_count": len(stages),
        "stages": stages,
    }
