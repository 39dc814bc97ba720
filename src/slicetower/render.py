"""Text and LaTeX renderers.

The text table reads a built tower, since its column widths need every
row; the xymatrix diagram is written a line at a time from the stages
as tower.schedule yields them.  How a slice's sphere is printed and how
its coefficient is named come from document.py, the one home of those
rules, so both show what the JSON document holds without building it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .document import coefficient_label, sphere_forms
from .group import Group
from .rep import render_forms, render_rep
from .tower import Step, Tower, VerificationReport

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


def latex_lines(group: Group, steps: Iterator[Step],
                reports: Sequence[VerificationReport] | None = None) -> Iterator[str]:
    """The xymatrix diagram of the stages steps yields, as tower.schedule
    does, one line at a time, then one % comment line per failed check."""
    yield "\\xymatrix{\n"
    for desc, _, _, trivial, planes in steps:
        section = rf"S^{{{render_forms(group, trivial, planes)[1]}}} \wedge H\underline{{\mathbb{{Z}}}}"
        if desc.is_torsion:
            _, printed = sphere_forms(desc)
            coeff = coefficient_label(desc, r"\underline{B}")
            yield rf"S^{{{printed}}} \wedge H{coeff} \ar[r] & {section} \ar[d] \\" "\n"
        else:
            yield f"& {section}\n"
    yield "}\n"
    for i, r in enumerate(reports or ()):
        for f in r.failures:
            yield f"% stage {i}: {f}\n"


def render_latex(tower: Tower, reports: Sequence[VerificationReport] | None = None) -> str:
    """The xymatrix diagram, then one % comment line per failed check."""
    return "".join(latex_lines(tower.group, tower.steps(), reports))
