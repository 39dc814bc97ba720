"""Equivariant cell structures for spheres of virtual representations.

A structure records, per integer dimension, a list of cells given by
their isotropy level h (stabilizer C_{p^h}), and formal boundary
entries between cells.  An entry is a map {translation: coefficient}
where translations are orbit representatives modulo
p^(k - max(h_src, h_tgt)): the chain map sends the base point of the
source cell's orbit to that combination of translated points of the
target orbit, and extends equivariantly.

Spheres of actual representations get the minimal structure with two
cells per rotation plane, added in decreasing order of isotropy so
that the cells fixed by C_{p^m} form the sphere of the C_{p^m}-fixed
subspace.  Spheres of formal negatives get the mirror image of that
structure in negative dimensions.  Products are formed cellwise, which
is where index classes of points have to be matched up by congruences.
An orbit with isotropy h has Group.index(h) points, and class_images
below is the one place that says which classes of a target orbit a
translation reaches from a class of a source orbit; the realization in
homology uses it too.

The sphere of a virtual representation is the product of the positive
sphere and the mirror, and its trivial summand shifts the mirror, the
second factor.  It cannot shift the first: the product's Leibniz sign
(-1)^dim(a) reads the first factor's dimension, so an odd shift there
would negate every boundary entry coming from the mirror.

A product can be restricted to a dimension window (lo, hi): it then
holds only the cells of dimensions lo..hi, in the same order as in the
whole product, and only the boundaries out of lo+1..hi.  That is all
the homology in degrees lo+1..hi-1 reads, and in the products the
oracle builds most cells lie far outside the degrees it checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .group import Group
from .rep import Rep

Entry = dict[int, int]
DiffKey = tuple[int, int]  # (target cell index, source cell index)


@dataclass
class CellStructure:
    group: Group
    cells: dict[int, tuple[int, ...]] = field(default_factory=dict)
    diffs: dict[int, dict[DiffKey, Entry]] = field(default_factory=dict)

    def dims(self) -> list[int]:
        return sorted(self.cells)

    def max_dim(self) -> int:
        return max(d for d, cs in self.cells.items() if cs)

    def min_dim(self) -> int:
        return min(d for d, cs in self.cells.items() if cs)


def sphere_positive(group: Group, plane_levels: list[int]) -> CellStructure:
    """Sphere of an actual sum of rotation planes.

    One fixed 0-cell, then per plane a pair of cells in dimensions
    2r-1 and 2r whose isotropy is the plane's kernel level.  Levels are
    taken in descending order, so the cells with isotropy >= m span the
    fixed sphere of C_{p^m}; each odd attaching map then sums over the
    index classes of the coarser cell before it.
    """
    k = group.k
    levels = sorted(plane_levels, reverse=True)
    if not all(0 <= j < k for j in levels):
        raise ValueError("plane levels must lie in [0, k)")
    st = CellStructure(group, cells={0: (k,)})
    for r, j in enumerate(levels, start=1):
        st.cells[2 * r - 1] = (j,)
        st.cells[2 * r] = (j,)
        prev = levels[r - 2] if r > 1 else k
        st.diffs[2 * r - 1] = {(0, 0): {c: 1 for c in range(group.index(prev))}}
        st.diffs[2 * r] = {(0, 0): {0: 1, 1: -1}}
    return st


def sphere_negative(group: Group, plane_levels: list[int], trivial: int = 0) -> CellStructure:
    """Dual sphere of a formal negative sum of rotation planes, suspended
    by a trivial summand: the positive structure mirrored, cells in
    dimension d moved to trivial - d and the boundary out of d to the
    one out of trivial + 1 - d.  Every dimension holds a single cell,
    so the entries carry over unchanged."""
    pos = sphere_positive(group, plane_levels)
    return CellStructure(group,
                         cells={trivial - d: cs for d, cs in pos.cells.items()},
                         diffs={trivial + 1 - d: dd for d, dd in pos.diffs.items()})


# --- products ---------------------------------------------------------------

def _pair_class(group: Group, iso_x: int, iso_y: int, u: int, v: int) -> tuple[int, int]:
    """Index class and translation of the point (u, v) in the product
    of two orbits with the given isotropy levels.

    The class is the difference v - u modulo the coarser index group;
    the translation g moves the representative point (0, class) to
    (u, v) and lives modulo the finer index group.
    """
    index = group.index
    w = (v - u) % index(max(iso_x, iso_y))
    if iso_x <= iso_y:
        g = u % index(iso_x)
        if (g + w) % index(iso_y) != v % index(iso_y):
            raise AssertionError("translation misses the second coordinate")
    else:
        g = (v - w) % index(iso_y)
        if g % index(iso_x) != u % index(iso_x):
            raise AssertionError("translation misses the first coordinate")
    return w, g


def class_images(x: int, c: int, s_src: int, s_tgt: int) -> list[int]:
    """Classes of a target orbit with s_tgt index classes that
    translation c reaches from class x of a source orbit with s_src.

    Class counts are powers of p: a class lands in one coarser class,
    and covers s_tgt // s_src finer ones, a step of s_src apart.
    """
    return [(x + c + t * s_src) % s_tgt for t in range(max(1, s_tgt // s_src))]


def tensor(A: CellStructure, B: CellStructure,
           window: tuple[int, int] | None = None) -> CellStructure:
    """Product structure on cells (a, b) -> one cell per index class.

    Boundary entries follow the Leibniz rule with a sign (-1)^dim(a) on
    the second factor; each formal entry is recovered from the multiset
    of image points of the representative point (0, class).  With a
    window (lo, hi) only the cells of dimensions lo..hi and the
    boundaries out of lo+1..hi are built; without one, all of them.
    """
    if A.group != B.group:
        raise ValueError("group mismatch")
    group = A.group
    lo, hi = window or (A.min_dim() + B.min_dim(), A.max_dim() + B.max_dim())

    cells: dict[int, list[int]] = {}
    index: dict[tuple[int, int, int, int, int], int] = {}
    for dA in A.dims():
        for dB in B.dims():
            D = dA + dB
            if not lo <= D <= hi:
                continue
            for iA, a_iso in enumerate(A.cells[dA]):
                for iB, b_iso in enumerate(B.cells[dB]):
                    for w in range(group.index(max(a_iso, b_iso))):
                        lst = cells.setdefault(D, [])
                        index[(dA, iA, iB, w, dB)] = len(lst)
                        lst.append(min(a_iso, b_iso))

    diffs: dict[int, dict[DiffKey, Entry]] = {}

    def record(D: int, measures: dict[int, dict[int, int]], src_idx: int, s_src: int) -> None:
        # the formal entry is the point measure on the classes below
        # s_src; lifting it again must give back the whole measure
        for tgt_idx, measure in measures.items():
            measure = {g: m for g, m in measure.items() if m}
            if not measure:
                continue
            s_tgt = group.index(cells[D - 1][tgt_idx])
            entry = {g: m for g, m in measure.items() if g < s_src}
            lifted = {y: m for c, m in entry.items() for y in class_images(0, c, s_src, s_tgt)}
            if lifted != measure:
                raise AssertionError("boundary is not equivariant")
            diffs.setdefault(D, {})[(tgt_idx, src_idx)] = entry

    for (dA, iA, iB, w, dB), src_idx in index.items():
        D = dA + dB
        if D == lo:
            continue
        a_iso = A.cells[dA][iA]
        b_iso = B.cells[dB][iB]
        s_src = group.index(min(a_iso, b_iso))

        a_diffs = A.diffs.get(dA, {})
        measures: dict[int, dict[int, int]] = {}
        for (tA, sA), entry in a_diffs.items():
            if sA != iA:
                continue
            at_iso = A.cells[dA - 1][tA]
            for c, m_c in entry.items():
                for x in class_images(0, c, group.index(a_iso), group.index(at_iso)):
                    wt, g = _pair_class(group, at_iso, b_iso, x, w)
                    tgt_idx = index[(dA - 1, tA, iB, wt, dB)]
                    bucket = measures.setdefault(tgt_idx, {})
                    bucket[g] = bucket.get(g, 0) + m_c
        if measures:
            record(D, measures, src_idx, s_src)

        b_diffs = B.diffs.get(dB, {})
        sign = -1 if dA % 2 else 1
        measures = {}
        for (tB, sB), entry in b_diffs.items():
            if sB != iB:
                continue
            bt_iso = B.cells[dB - 1][tB]
            for c, m_c in entry.items():
                for y in class_images(w, c, group.index(b_iso), group.index(bt_iso)):
                    wt, g = _pair_class(group, a_iso, bt_iso, 0, y)
                    tgt_idx = index[(dA, iA, tB, wt, dB - 1)]
                    bucket = measures.setdefault(tgt_idx, {})
                    bucket[g] = bucket.get(g, 0) + sign * m_c
        if measures:
            record(D, measures, src_idx, s_src)

    return CellStructure(group,
                         cells={d: tuple(cs) for d, cs in cells.items()},
                         diffs=diffs)


def cell_structure(v: Rep, window: tuple[int, int] | None = None) -> CellStructure:
    """Cells for the sphere of the virtual representation v.

    Planes of positive multiplicity give a positive sphere and those of
    negative multiplicity its mirror, which also carries the trivial
    summands as a dimension shift; the two are multiplied together.  A
    window (lo, hi) keeps the cells of dimensions lo..hi and the
    boundaries out of lo+1..hi, enough for the homology in degrees
    lo+1..hi-1; the cells and entries kept are exactly those of the
    whole structure.
    """
    pos = [j for j, m in enumerate(v.planes) for _ in range(m)]
    neg = [j for j, m in enumerate(v.planes) for _ in range(-m)]
    return tensor(sphere_positive(v.group, pos), sphere_negative(v.group, neg, v.trivial), window)


def max_cell_dim(v: Rep) -> int:
    """Top cell dimension of cell_structure(v), without building it."""
    return v.trivial + 2 * sum(m for m in v.planes if m > 0)
