"""Bredon homology of representation spheres from their cell structures.

A cell structure is realized at one subgroup level at a time: a cell
with isotropy level h contributes p^(k - max(m, h)) index classes of
generators at level m, each class carrying the coefficient functor's
value at level min(m, h).  Class counts are powers of p, so for a
boundary entry from a cell with s_s classes to one with s_t classes,
translated by c, one loop x = 0 .. max(s_s, s_t) - 1 pairs source
class x mod s_s with target class (x + c) mod s_t.  The coefficients
act through the functor's composite from level min(m, h_s) to level
min(m, h_t): transfers where a merge raises isotropy, restrictions
where a split lowers it.  The restriction chain map from level m+1 to
level m pairs classes the same way.  Homology of the resulting
presented chain complexes is computed exactly, keeping chain-level
representatives so restriction maps between levels can be expressed
on homology classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .abelian import (AbGroup, Mat, in_diagonal_lattice, kernel_basis,
                      lattice_basis, smith_normal_form, solve_factored)
from .cells import CellStructure, cell_structure
from .mackey import MackeyFunctor
from .rep import Rep


@dataclass
class LevelComplex:
    """Chain complex of one realization level, with presentations.

    orders[d] lists the generator orders of C_d (0 = infinite cyclic);
    boundary[d] maps C_d to C_{d-1} and exists for every d that has
    generators on either side.
    """

    orders: dict[int, tuple[int, ...]]
    boundary: dict[int, Mat]
    layouts: dict[int, list[tuple[int, int, int]]]  # per cell: (iso, classes, gens per class)

    def gens(self, d: int) -> int:
        return len(self.orders.get(d, ()))

    def boundary_or_zero(self, d: int) -> Mat:
        if d in self.boundary:
            return self.boundary[d]
        return Mat(self.gens(d - 1), self.gens(d))


def level_complex(struct: CellStructure, M: MackeyFunctor, m: int) -> LevelComplex:
    """Realize the structure at subgroup level m with coefficients M."""
    p, k = M.group.p, M.group.k
    if not 0 <= m <= k:
        raise ValueError(f"no subgroup at level {m}")
    if struct.group != M.group:
        raise ValueError("group mismatch")

    layouts: dict[int, list[tuple[int, int, int]]] = {}
    orders: dict[int, tuple[int, ...]] = {}
    offsets: dict[int, list[int]] = {}
    for d in struct.dims():
        lay = []
        ords: list[int] = []
        offs = []
        for h in struct.cells[d]:
            s = p ** (k - max(m, h))
            level_orders = M.levels[min(m, h)]
            offs.append(len(ords))
            lay.append((h, s, len(level_orders)))
            ords.extend(level_orders * s)
        layouts[d] = lay
        orders[d] = tuple(ords)
        offsets[d] = offs

    boundary: dict[int, Mat] = {}
    composites: dict[tuple[int, int], Mat] = {}
    for d, entries in struct.diffs.items():
        rows = len(orders.get(d - 1, ()))
        cols = len(orders.get(d, ()))
        B = Mat(rows, cols)
        for (tgt_i, src_i), entry in entries.items():
            h_s, s_s, g_s = layouts[d][src_i]
            h_t, s_t, g_t = layouts[d - 1][tgt_i]
            src_off = offsets[d][src_i]
            tgt_off = offsets[d - 1][tgt_i]
            pair = (min(m, h_s), min(m, h_t))
            if pair not in composites:
                composites[pair] = M.composite(*pair)
            C = composites[pair]
            classes = range(max(s_s, s_t))
            for c, m_c in entry.items():
                for x in classes:
                    col = src_off + x % s_s * g_s
                    row = tgt_off + (x + c) % s_t * g_t
                    for t2 in range(g_t):
                        for t1 in range(g_s):
                            B.a[row + t2][col + t1] += m_c * C.a[t2][t1]
        boundary[d] = B

    cx = LevelComplex(orders=orders, boundary=boundary, layouts=layouts)
    _check_complex(cx)
    return cx


def _entry_kills(value: int, src_order: int, tgt_order: int) -> bool:
    # value * src_order must vanish in Z / tgt_order
    if src_order == 0:
        return True
    scaled = value * src_order
    return scaled == 0 if tgt_order == 0 else scaled % tgt_order == 0


def _check_complex(cx: LevelComplex) -> None:
    for d, B in cx.boundary.items():
        src = cx.orders.get(d, ())
        tgt = cx.orders.get(d - 1, ())
        for i in range(B.r):
            for j in range(B.c):
                if B.a[i][j] and not _entry_kills(B.a[i][j], src[j], tgt[i]):
                    raise AssertionError(f"boundary at dim {d} not well defined")
    for d in list(cx.boundary):
        if d - 1 not in cx.boundary:
            continue
        prod = cx.boundary[d - 1].times(cx.boundary[d])
        tgt = cx.orders.get(d - 2, ())
        for i in range(prod.r):
            for j in range(prod.c):
                v = prod.a[i][j]
                if v and (tgt[i] == 0 or v % tgt[i] != 0):
                    raise AssertionError(f"d^2 != 0 from dim {d}")


@dataclass
class HomologyLevel:
    """One homology group with raw generator bookkeeping.

    raw_orders lists one invariant factor per generator (0 for a free
    one, never 1); the columns of gens are one chain representative per
    generator, and express writes each column of a matrix of cycles in
    those coordinates.
    """

    ab: AbGroup
    raw_orders: tuple[int, ...]
    gens: Mat
    express: Callable[[Mat], Mat]


def _trivial_level(n: int) -> HomologyLevel:
    return HomologyLevel(AbGroup.trivial(), (), Mat(n, 0), lambda X: Mat(0, X.c))


def _with_relations(T: Mat, orders: Sequence[int]) -> Mat:
    """T next to the diagonal relation columns orders[i] * e_i, one for
    each positive order."""
    rel = [(r, o) for r, o in enumerate(orders) if o > 0]
    stack = Mat(T.r, T.c + len(rel))
    for i in range(T.r):
        stack.a[i][: T.c] = T.a[i]
    for j, (r, o) in enumerate(rel):
        stack.a[r][T.c + j] = o
    return stack


def _preimage(T: Mat, orders: Sequence[int]) -> list[list[int]]:
    """Generators of {x : T x in the lattice spanned by orders[i] * e_i},
    read off the kernel of T next to its relation columns."""
    return [vec[: T.c] for vec in kernel_basis(_with_relations(T, orders))]


def homology_at(cx: LevelComplex, d: int) -> HomologyLevel:
    n = cx.gens(d)
    if n == 0:
        return _trivial_level(0)

    # cycles: x whose boundary lies in the relation lattice one dimension down
    cycles = _preimage(cx.boundary_or_zero(d), cx.orders.get(d - 1, ()))
    fb = lattice_basis(cycles, n)
    if fb.rank == 0:
        return _trivial_level(n)
    # the basis Uinv S: S is diagonal, so scale the first rank columns of Uinv
    scale = [fb.diag(j) for j in range(fb.rank)]
    BMat = Mat(n, fb.rank, [[x * s for x, s in zip(row, scale)] for row in fb.Uinv.a])

    Y = solve_factored(fb, _with_relations(cx.boundary_or_zero(d + 1), cx.orders[d]))
    if Y is None:
        raise AssertionError("a boundary or relation is not a cycle")
    fy = smith_normal_form(Y)
    all_orders = [fy.diag(i) for i in range(fb.rank)]
    keep = [i for i, o in enumerate(all_orders) if o != 1]
    raw_orders = tuple(all_orders[i] for i in keep)
    gens = Mat(n, len(keep), [[row[i] for i in keep] for row in BMat.times(fy.Uinv).a])

    def express(X: Mat) -> Mat:
        Z = solve_factored(fb, X)
        if Z is None:
            raise ValueError("chain is not a cycle at this level")
        raw = fy.U.times(Z).a
        return Mat(len(keep), X.c, [[x % o for x in raw[i]] if o else raw[i]
                                    for i, o in zip(keep, raw_orders)])

    return HomologyLevel(AbGroup.from_orders(raw_orders), raw_orders, gens, express)


def chain_restriction(M: MackeyFunctor, m: int, d: int,
                      hi: LevelComplex, lo: LevelComplex) -> Mat:
    """Chain map from the level m+1 realization to the level m one at
    dimension d: index classes split below the cell's isotropy, where
    the coefficients are carried along, and the coefficient restriction
    applies at or above it."""
    R = Mat(lo.gens(d), hi.gens(d))
    if d not in hi.layouts:
        return R
    off_hi = 0
    off_lo = 0
    for (h, s_hi, g_hi), (_, s_lo, g_lo) in zip(hi.layouts[d], lo.layouts[d]):
        C = M.composite(min(m + 1, h), min(m, h))
        for x in range(max(s_hi, s_lo)):
            row = off_lo + x % s_lo * g_lo
            col = off_hi + x % s_hi * g_hi
            for t2 in range(g_lo):
                for t1 in range(g_hi):
                    R.a[row + t2][col + t1] = C.a[t2][t1]
        off_hi += s_hi * g_hi
        off_lo += s_lo * g_lo
    return R


@dataclass
class BredonHomology:
    """H_d at every subgroup level with the connecting restrictions."""

    levels: list[HomologyLevel]  # index = subgroup level, 0 .. k
    res_maps: list[Mat]          # res_maps[m]: level m+1 -> level m, raw coordinates

    def ab(self, m: int) -> AbGroup:
        return self.levels[m].ab


def bredon_homology(v: Rep, M: MackeyFunctor, degree: int) -> BredonHomology:
    struct = cell_structure(v, (degree - 1, degree + 1))
    k = M.group.k
    complexes = [level_complex(struct, M, m) for m in range(k + 1)]
    levels = [homology_at(cx, degree) for cx in complexes]
    res_maps = []
    for m in range(k):
        hi, lo = levels[m + 1], levels[m]
        chain = chain_restriction(M, m, degree, complexes[m + 1], complexes[m])
        res_maps.append(lo.express(chain.times(hi.gens)))
    return BredonHomology(levels, res_maps)


def presented_injective(T: Mat, src_orders: Sequence[int], dst_orders: Sequence[int]) -> bool:
    """Injectivity of the induced map (Z^s / src) -> (Z^t / dst): every
    generator of the preimage of the dst relations must be a src relation."""
    return all(in_diagonal_lattice(v, src_orders) for v in _preimage(T, dst_orders))


def homres_injective(w: Rep, i: int, j: int, h: int) -> bool:
    """Whether restriction from the top level down to level h is
    injective on the homology of S^(-w) with torsion coefficients
    B(i,j), in degrees 0 and -1.  Requires i + j <= h so the
    coefficient functor is already saturated at the target level."""
    from .mackey import B_ij

    if not i + j <= h <= w.group.k:
        raise ValueError(f"need i + j <= h <= k, got i={i}, j={j}, h={h}, k={w.group.k}")
    if not w.is_actual:
        raise ValueError("need an actual representation")
    M = B_ij(i, j, w.group)
    k = w.group.k
    for d in (0, -1):
        bh = bredon_homology(-w, M, d)
        if bh.levels[k].ab.is_trivial:
            continue
        T = Mat.identity(len(bh.levels[k].raw_orders))
        for m in range(k - 1, h - 1, -1):
            T = bh.res_maps[m].times(T)
        if not presented_injective(T, bh.levels[k].raw_orders, bh.levels[h].raw_orders):
            return False
    return True
