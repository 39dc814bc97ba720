"""Text and LaTeX renderers.

Both read the tower's stages directly.  How a slice's sphere is printed
and how its coefficient is named come from document.py, the one home of
those rules, so the text table and the xymatrix diagram show what the
JSON document holds without building it.
"""

from __future__ import annotations

from .document import coefficient_label, sphere_forms
from .rep import render_forms, render_rep
from .tower import Tower, VerificationReport

_NEEDS_PARENS = set(" +-")


def _sphere(display: str) -> str:
    if any(c in _NEEDS_PARENS for c in display):
        return f"S^({display})"
    return f"S^{display}"


def render_text(tower: Tower, reports: list[VerificationReport] | None = None) -> str:
    count = len(tower.stages)
    noun = "stage" if count == 1 else "stages"
    lines = [f"Slice tower of S^{tower.n} ∧ HZ over {tower.group}   ({count} {noun})", ""]
    rows = [("stage", "dim", "slice", "section", "")]
    for i, stage in enumerate(tower.stages):
        desc = stage.descriptor
        printed, _ = sphere_forms(desc)
        slice_text = f"{_sphere(printed)} ∧ H{coefficient_label(desc)}"
        section_text = _sphere(render_rep(stage.section))
        mark = "" if reports is None else "  [ok]" if reports[i].passed else "  [FAIL]"
        rows.append((str(i), str(desc.dim), slice_text, section_text, mark))

    widths = [max(len(r[i]) for r in rows) for i in range(3)]  # rows[0] is the header
    lines.extend(f"  {idx:>{widths[0]}}  {dim:>{widths[1]}}  {slice_text:<{widths[2]}}  {section_text}{mark}"
                 for idx, dim, slice_text, section_text, mark in rows)

    if reports is not None:
        passed = sum(1 for r in reports if r.passed)
        lines += ["", f"verified: {passed}/{len(reports)} stages pass"]
        lines.extend(f"  stage {i}: {f}" for i, r in enumerate(reports) for f in r.failures)
    return "\n".join(lines) + "\n"


def render_latex(tower: Tower, reports: list[VerificationReport] | None = None) -> str:
    """The xymatrix diagram, then one % comment line per failed check."""
    rows = []
    for stage in tower.stages:
        desc = stage.descriptor
        section = rf"S^{{{render_forms(stage.section)[1]}}} \wedge H\underline{{\mathbb{{Z}}}}"
        if desc.is_torsion:
            _, printed = sphere_forms(desc)
            coeff = coefficient_label(desc, r"\underline{B}")
            rows.append(rf"S^{{{printed}}} \wedge H{coeff} \ar[r] & {section} \ar[d] \\")
        else:
            rows.append(f"& {section}")
    body = "\n".join(rows)
    failed = "".join(f"% stage {i}: {f}\n" for i, r in enumerate(reports or ()) for f in r.failures)
    return f"\\xymatrix{{\n{body}\n}}\n" + failed
