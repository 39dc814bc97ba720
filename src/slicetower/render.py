"""Text and LaTeX renderers.

Both take the JSON-able document produced by document.tower_document
and nothing else, so anything the renderers show is also available to
machine consumers of the JSON form.
"""

from __future__ import annotations

from typing import Any

_NEEDS_PARENS = set(" +-")


def _sphere(display: str) -> str:
    if any(c in _NEEDS_PARENS for c in display):
        return f"S^({display})"
    return f"S^{display}"


def render_text(doc: dict[str, Any]) -> str:
    group = doc["group"]["display"]
    count = doc["stage_count"]
    noun = "stage" if count == 1 else "stages"
    lines = [f"Slice tower of S^{doc['n']} ∧ HZ over {group}   ({count} {noun})", ""]
    rows = []
    for stage in doc["stages"]:
        sl = stage["slice"]
        slice_text = f"{_sphere(sl['printed']['display'])} ∧ H{sl['coefficient']['display']}"
        section_text = _sphere(stage["section"]["display"])
        mark = ""
        if stage["verification"] is not None:
            mark = "ok" if stage["verification"]["passed"] else "FAIL"
        rows.append((str(stage["index"]), str(sl["dim"]), slice_text, section_text, mark))

    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    widths[0] = max(widths[0], len("stage"))
    widths[1] = max(widths[1], len("dim"))
    header = (f"  {'stage':>{widths[0]}}  {'dim':>{widths[1]}}  "
              f"{'slice':<{widths[2]}}  section")
    lines.append(header)
    for idx, dim, slice_text, section_text, mark in rows:
        line = (f"  {idx:>{widths[0]}}  {dim:>{widths[1]}}  "
                f"{slice_text:<{widths[2]}}  {section_text}")
        if mark:
            line += f"  [{mark}]"
        lines.append(line.rstrip())

    verifications = [s["verification"] for s in doc["stages"]]
    if all(v is not None for v in verifications) and verifications:
        passed = sum(1 for v in verifications if v["passed"])
        lines.append("")
        lines.append(f"verified: {passed}/{len(verifications)} stages pass")
        for stage in doc["stages"]:
            for f in stage["verification"]["failures"]:
                lines.append(f"  stage {stage['index']}: {f['check']} failed"
                             f" at level {f['level']}"
                             + (f" (epsilon={f['epsilon']}, t={f['t']})"
                                if f["epsilon"] is not None else ""))
    return "\n".join(lines) + "\n"


def _coeff_latex(coeff: dict[str, Any]) -> str:
    if coeff["family"] == "B":
        return rf"H\underline{{B}}({coeff['i']},{coeff['j']})"
    return r"H\underline{\mathbb{Z}}"


def render_latex(doc: dict[str, Any]) -> str:
    rows = []
    for stage in doc["stages"]:
        sl = stage["slice"]
        section = rf"S^{{{stage['section']['latex']}}} \wedge H\underline{{\mathbb{{Z}}}}"
        if sl["kind"] == "torsion":
            left = rf"S^{{{sl['printed']['latex']}}} \wedge {_coeff_latex(sl['coefficient'])}"
            rows.append(rf"{left} \ar[r] & {section} \ar[d] \\")
        else:
            rows.append(f"& {section}")
    body = "\n".join(rows)
    return f"\\xymatrix{{\n{body}\n}}\n"
