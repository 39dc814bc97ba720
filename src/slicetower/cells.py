"""Equivariant cell structures for spheres of virtual representations.

A structure records, per integer dimension, a list of cells given by
their isotropy level h (stabilizer C_{p^h}), and formal boundary
entries between cells.  An entry is a map {translation: coefficient}
where translations are orbit representatives modulo
p^(k - max(h_src, h_tgt)): the chain map sends the base point of the
source cell's orbit to that combination of translated points of the
target orbit, and extends equivariantly.

The sphere of an actual sum of rotation planes gets the minimal
structure, one cell in each dimension 0..2r: two per plane, added in
decreasing order of isotropy so that the cells fixed by C_{p^m} form
the sphere of the C_{p^m}-fixed subspace.  The sphere of a formal
negative sum gets the mirror image of that structure, cell d moved to
dimension -d.  The sphere of a virtual representation is the product
of the sphere of its positive planes and the mirror of its negative
ones, and its trivial summand shifts the mirror, the second factor.
It cannot shift the first: the product's Leibniz sign (-1)^dim(a)
reads the first factor's dimension, so an odd shift there would negate
every boundary entry coming from the mirror.

The product is formed cellwise, which is where index classes of points
have to be matched up by congruences.  An orbit with isotropy h has
Group.index(h) points, and class_images below is the one place that
says which classes of a target orbit a translation reaches from a
class of a source orbit; the realization in homology uses it too.

A product can be restricted to a dimension window (lo, hi): it then
holds only the cells of dimensions lo..hi, in the same order as in the
whole product, and only the boundaries out of lo+1..hi.  That is all
the homology in degrees lo+1..hi-1 reads.  The factors' cells are read
one dimension at a time, so only those the window pairs are built: a
mirror of thousands of planes, as in S^(V - t rho) over a large group,
costs only the few dimensions the window reaches.  The factors are
given by their plane counts per level, and a plane's level is found by
bisecting the running counts, so a multiplicity costs no memory.
The factor cells a window pairs are listed by factor_cells as one
hashable value, each cell as three integers: dimension, isotropy, and
the index classes its attaching map sums over, 0 for an even cell.  It
is all that tensor, their product, and window_size read: spheres that
agree on it have one windowed structure, which homology realizes once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

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


class FactorCells(NamedTuple):
    """The positive sphere's and the mirror's cells that the window pairs,
    as (dimension, isotropy, attaching classes) integers.  A tuple, as it
    is a cache key: it hashes and compares at C speed."""

    group: Group
    window: tuple[int, int]
    pos: tuple[tuple[int, int, int], ...]
    mirror: tuple[tuple[int, int, int], ...]


def _sphere_cell(group: Group, cum: list[int], d: int) -> tuple[int, int]:
    """Isotropy of the cell in dimension d of the sphere of planes whose
    counts, from the top level down, have running sums cum = [0, ...],
    and the index classes its boundary entry sums over if d is odd, else 0.

    Plane r lies at level k - bisect_left(cum, r), which is k for r = 0,
    the fixed 0-cell.  It gives the cells in dimensions 2r-1 and 2r with
    that level as isotropy; the odd one attaches by the sum over the
    index classes of the coarser cell before it, the even one by 1 - t.
    """
    r = (d + 1) // 2
    return group.k - bisect_left(cum, r), group.index(group.k - bisect_left(cum, r - 1)) if d % 2 else 0


def _pair_class(group: Group, iso_x: int, iso_y: int, u: int, v: int) -> tuple[int, int]:
    """Index class and translation of the point (u, v) in the product
    of two orbits with the given isotropy levels.

    The class is the difference v - u modulo the coarser index group;
    the translation g moves the representative point (0, class) to
    (u, v) and lives modulo the finer index group.  Orbit sizes p^(k - h)
    are nested powers of p, so g = u (mod p^(k - iso_x)) and g + w = v
    (mod p^(k - iso_y)) hold by construction.
    """
    w = (v - u) % group.index(max(iso_x, iso_y))
    return w, u % group.index(iso_x) if iso_x <= iso_y else (v - w) % group.index(iso_y)


def class_images(x: int, c: int, s_src: int, s_tgt: int) -> list[int]:
    """Classes of a target orbit with s_tgt index classes that
    translation c reaches from class x of a source orbit with s_src.

    Class counts are powers of p: a class lands in one coarser class,
    and covers s_tgt // s_src finer ones, a step of s_src apart.
    """
    return [(x + c + t * s_src) % s_tgt for t in range(max(1, s_tgt // s_src))]


def factor_ranges(v: Rep, window: tuple[int, int]) -> tuple[range, range]:
    """The dimensions of the positive sphere's and the mirror's cells that
    the window (lo, hi) pairs.  Each such cell lies in a product cell of
    the window, so neither range is longer than window_size's count."""
    lo, hi = window
    trivial, top = v.trivial, 2 * sum(m for m in v.planes if m > 0)
    bottom = trivial - 2 * sum(-m for m in v.planes if m < 0)
    return range(max(0, lo - trivial), min(top, hi - bottom) + 1), range(max(bottom, lo - top), min(trivial, hi) + 1)


def factor_cells(v: Rep, window: tuple[int, int] | None = None) -> FactorCells:
    """The factor cells of the sphere of v that the window (lo, hi), by
    default the whole product, pairs.  Planes of positive multiplicity
    give the positive sphere, the others the mirror, which also carries
    the trivial summands as a dimension shift."""
    pos, neg = ([0, *accumulate(max(s * m, 0) for m in reversed(v.planes))] for s in (1, -1))
    group, trivial = v.group, v.trivial
    window = window or (trivial - 2 * neg[-1], trivial + 2 * pos[-1])
    dims_A, dims_B = factor_ranges(v, window)
    return FactorCells(group, window, tuple((dA, *_sphere_cell(group, pos, dA)) for dA in dims_A),
                       tuple((dB, *_sphere_cell(group, neg, trivial - dB)) for dB in dims_B))


def window_size(v: Rep, window: tuple[int, int]) -> int:
    """The cells of the sphere of v in the window, counted from isotropy
    levels alone: the product's index classes, and the attaching classes
    of the odd factor cells, none of which is built."""
    group, (lo, hi), pos, mirror = factor_cells(v, window)
    B = {dB: iso for dB, iso, _ in mirror}
    pairs = (max(iso, B[dB]) for dA, iso, _ in pos for dB in range(lo - dA, hi - dA + 1) if dB in B)
    return sum(map(group.index, pairs)) + sum(n for *_, n in pos + mirror)


def tensor(factors: FactorCells) -> CellStructure:
    """Cells of the product of the given factor cells in dimensions
    lo..hi of their window, and the boundaries out of lo+1..hi.

    A pair (a, b) of factor cells gives one cell per index class.
    Boundary entries follow the Leibniz rule with a sign (-1)^dim(a) on
    the second factor.  A factor cell's entry is written out from its
    attaching classes: an odd cell's is the sum over them, an even cell's
    1 - t, and the 0-cell's is never read.  The image points of the
    representative point (0, class) give a measure on the translations of
    each target class, periodic mod s_src, the source's index: each face
    lifts its factor's entry over that factor cell's stabilizer, which
    holds the product cell's, and _pair_class is equivariant.  So the
    formal entry is the measure below s_src.  As lo <= hi, the mirror's
    window is empty only when the positive one is, both then missing the
    product: B's defaults only keep an empty product from raising.
    """
    group, (lo, hi) = factors.group, factors.window
    index = group.index
    # factor cells by dimension; B[dB] holds the mirror's boundary entry
    # into dB, A[dA] the positive sphere's out of dA
    A, B = ({d: (iso, [(c, 1) for c in range(n)] if n else [(0, 1), (1, -1)]) for d, iso, n in factor}
            for factor in (factors.pos, factors.mirror))
    b_lo, b_hi = min(B, default=0), max(B, default=-1)

    cells: dict[int, list[int]] = {}
    where: dict[tuple[int, int, int], int] = {}  # (dA, dB, class) -> position
    for dA, (a_iso, _) in A.items():
        for dB in range(max(b_lo, lo - dA), min(b_hi, hi - dA) + 1):
            b_iso = B[dB][0]
            lst = cells.setdefault(dA + dB, [])
            for w in range(index(max(a_iso, b_iso))):
                where[(dA, dB, w)] = len(lst)
                lst.append(min(a_iso, b_iso))

    diffs: dict[int, dict[DiffKey, Entry]] = {}
    for (dA, dB, w), src in where.items():
        D = dA + dB
        if D == lo:
            continue
        (a_iso, a_entry), b_iso = A[dA], B[dB][0]
        s_src = index(min(a_iso, b_iso))
        # image points of (0, w) in the faces (dA - 1, dB) and (dA, dB - 1)
        faces = []
        if dA - 1 in A:
            faces += [(dA - 1, dB, m_c, x, w) for c, m_c in a_entry
                      for x in class_images(0, c, index(a_iso), index(A[dA - 1][0]))]
        if dB - 1 in B:
            bt_iso, b_entry = B[dB - 1]
            sign = -1 if dA % 2 else 1
            faces += [(dA, dB - 1, sign * m_c, 0, y) for c, m_c in b_entry
                      for y in class_images(w, c, index(b_iso), index(bt_iso))]
        measures: dict[int, dict[int, int]] = {}
        for tA, tB, m_c, u, v in faces:
            wt, g = _pair_class(group, A[tA][0], B[tB][0], u, v)
            bucket = measures.setdefault(where[(tA, tB, wt)], {})
            bucket[g] = bucket.get(g, 0) + m_c
        for tgt, measure in measures.items():
            entry = {g: m for g, m in measure.items() if m and g < s_src}
            if entry:
                diffs.setdefault(D, {})[(tgt, src)] = entry

    return CellStructure(group,
                         cells={d: tuple(cs) for d, cs in cells.items()},
                         diffs=diffs)


def cell_structure(v: Rep, window: tuple[int, int] | None = None) -> CellStructure:
    """Cells for the sphere of the virtual representation v.  A window
    (lo, hi) keeps exactly the whole structure's cells of dimensions
    lo..hi and boundaries out of lo+1..hi, enough for the homology in
    degrees lo+1..hi-1."""
    return tensor(factor_cells(v, window))


def max_cell_dim(v: Rep) -> int:
    """Top cell dimension of cell_structure(v), without building it."""
    return v.trivial + 2 * sum(m for m in v.planes if m > 0)
