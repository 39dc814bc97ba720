"""Text and LaTeX renderers, each writing a tower a line at a time as
its steps come, then one line per failed check.  How a slice's sphere
and coefficient are printed comes from document.py, the one home of
those rules, so both show what the JSON document holds.

The text table's column widths come before its first row, from a few
stages.  The index column is as wide as stage_count - 1 or its header,
the dim column as the first stage's dimension, the largest (schedule
checks that they decrease).  In column a, let e = k - a and v =
min(v_p(m), e) at the base dimension m; v fixes the coefficient B(1 + v,
a - 1), and the form the sphere V = m rho - 1 - lambda(ell), ell = m p^a
(p^e - 1) / 2, prints in: p^k divides ell exactly when v = e, and then
V = (m / p^e) rho - 1, printed so if k >= 2; else, as the planes
of lambda(r), 0 < r < p^k, are a multiple of rho's only at r = (p^k -
1)/2 and p^k - 1, neither a multiple of p, V prints with its planes
below level a stripped.  From m to m + 2, ell grows by p^k - p^a, and
lambda(ell + p^k) = lambda(ell) + 2 rho, so V gains the planes of p^a
weights: no multiplicity falls, and no printed form of nonnegative
multiplicities, nor s rho - 1, gets shorter.  So within one v of a
column the slice cell is widest at the largest m, and the widest cell
is the bottom stage's or one that _widest_slices yields.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .document import coefficient_label, sphere_forms
from .group import Group
from .params import slice_params, stage_count
from .rep import n_slice_rep, render_forms
from .tower import SliceDescriptor, Tower, VerificationReport, torsion_slice


def _sphere(display: str) -> str:
    return f"S^({display})" if any(c in " +-" for c in display) else f"S^{display}"


def _slice_cell(desc: SliceDescriptor) -> str:
    return f"{_sphere(sphere_forms(desc)[0])} ∧ H{coefficient_label(desc)}"


def _widest_slices(group: Group, n: int) -> Iterator[SliceDescriptor]:
    """The bottom slice, then for each column a and v = 0..k - a the slice
    of the column's largest m with min(v_p(m), k - a) = v, if it has one:
    the first stage is among them, and a widest slice cell (see above)."""
    yield SliceDescriptor(n_slice_rep(n, group))
    if n <= 2:
        return
    p, base_dims = group.p, slice_params(n, group)
    for a in range(1, group.k + 1):
        low = base_dims[0] + 2 * (a == 1 and n % p == 0)  # column 1 drops m_1 when p | n
        for v in range(group.k - a + 1):
            c = (n - 2) // p ** v
            c -= (c - n) % 2  # m = c p^v has n's parity, as p is odd
            if v < group.k - a and c % p == 0:
                c -= 2  # so v_p(m) = v, as p does not divide c - 2
            if c * p ** v >= low:
                yield torsion_slice(group, a, c * p ** v)[0]


def render_text(tower: Tower, reports: Sequence[VerificationReport] | None = None) -> Iterator[str]:
    """The text table a line at a time, then, with reports, the count of
    passing stages and one line per failed check."""
    group, n = tower.group, tower.n
    count = stage_count(n, group)
    widest = list(_widest_slices(group, n))
    w_idx, w_dim = max(5, len(str(count - 1))), max(3, *(len(str(desc.dim)) for desc in widest))
    w_slice = max(5, *(len(_slice_cell(desc)) for desc in widest))
    yield f"Slice tower of S^{n} ∧ HZ over {group}   ({count} {'stage' if count == 1 else 'stages'})\n\n"
    yield f"  {'stage':>{w_idx}}  {'dim':>{w_dim}}  {'slice':<{w_slice}}  section\n"
    for i, (desc, _, _, trivial, planes) in enumerate(tower.steps()):
        mark = "" if reports is None else "  [ok]" if reports[i].passed else "  [FAIL]"
        yield (f"  {i:>{w_idx}}  {desc.dim:>{w_dim}}  {_slice_cell(desc):<{w_slice}}  "
               f"{_sphere(render_forms(group, trivial, planes)[0])}{mark}\n")
    if reports is not None:
        yield f"\nverified: {sum(r.passed for r in reports)}/{len(reports)} stages pass\n"
        yield from (f"  stage {i}: {f}\n" for i, r in enumerate(reports) for f in r.failures)


def render_latex(tower: Tower, reports: Sequence[VerificationReport] | None = None) -> Iterator[str]:
    """The xymatrix diagram a line at a time, then one % comment line per
    failed check."""
    yield "\\xymatrix{\n"
    for desc, _, _, trivial, planes in tower.steps():
        section = rf"S^{{{render_forms(tower.group, trivial, planes)[1]}}} \wedge H\underline{{\mathbb{{Z}}}}"
        if desc.is_torsion:
            _, printed = sphere_forms(desc)
            coeff = coefficient_label(desc, r"\underline{B}")
            yield rf"S^{{{printed}}} \wedge H{coeff} \ar[r] & {section} \ar[d] \\" "\n"
        else:
            yield f"& {section}\n"
    yield "}\n"
    yield from (f"% stage {i}: {f}\n" for i, r in enumerate(reports or ()) for f in r.failures)
