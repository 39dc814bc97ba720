"""Bredon homology of representation spheres from their cell structures.

The runtime reads values at the top level only: window_homology takes
them off ranks and invariant factors of the boundaries' top-level lifts
to the integers, with no generator and no transform.  bredon_homology,
the reference at every level with the restrictions between them, builds
generators, and the rest of this docstring is its path.

A cell structure is realized at one subgroup level at a time: a cell
with isotropy level h contributes Group.index(max(m, h)) index classes
of generators at level m, each class carrying the coefficient functor's
value at level min(m, h).  A boundary entry translated by c joins each
source class to the target classes that cells.class_images gives.  The
coefficients act through the functor's composite from level min(m, h_s)
to level min(m, h_t): transfers where a merge raises isotropy,
restrictions where a split lowers it.  The restriction chain map from
level m+1 to level m is the same realization, of identity entries
between the two levels.  Homology of the resulting
presented chain complexes is computed exactly, keeping chain-level
representatives so restriction maps between levels can be expressed
on homology classes.  The cycles are abelian.lattice_basis's basis of
the preimage of the relations one dimension down; the boundaries and
relations are solved against it, and the Smith form of that solution
gives the group, and its U's inverse, built when read, the generators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .abelian import (AbGroup, Mat, SmithForm, divides, invariant_factors, lattice_basis, smith_normal_form,
                      solve_factored, with_relations)
from .cells import CellStructure, DiffKey, Entry, FactorCells, cell_structure, class_images, factor_cells, tensor
from .group import InvariantError
from .mackey import MackeyFunctor
from .rep import Rep

Layout = list[tuple[int, int, int]]  # per cell: (iso, classes, first gen); one gen per class or none
Lifts = dict[int, dict[int, dict[int, int]]]  # dimension -> source -> target -> entry


@dataclass
class LevelComplex:
    """Chain complex of one realization level, with presentations.

    orders[d] lists the generator orders of C_d (0 = infinite cyclic);
    boundary[d] maps C_d to C_{d-1} and exists for every d that has
    generators on either side.
    """

    orders: dict[int, tuple[int, ...]]
    boundary: dict[int, Mat]
    layouts: dict[int, Layout]

    def gens(self, d: int) -> int:
        return len(self.orders.get(d, ()))

    def boundary_or_zero(self, d: int) -> Mat:
        if d in self.boundary:
            return self.boundary[d]
        return Mat(self.gens(d - 1), self.gens(d))


def _realize(M: MackeyFunctor, entries: dict[DiffKey, Entry],
             src: Layout, m_src: int, tgt: Layout, m_tgt: int,
             shape: tuple[int, int]) -> Mat:
    """Matrix of the given shape of the cellular map with the given
    formal entries, from cells laid out as src at level m_src to cells
    laid out as tgt at level m_tgt."""
    R = Mat(*shape)
    for (tgt_i, src_i), entry in entries.items():
        h_s, s_s, src_off = src[src_i]
        h_t, s_t, tgt_off = tgt[tgt_i]
        C = M.composite(min(m_src, h_s), min(m_tgt, h_t))
        if not C:
            continue
        for c, m_c in entry.items():
            for x in range(s_s):
                for y in class_images(x, c, s_s, s_t):
                    R.a[tgt_off + y][src_off + x] += m_c * C
    return R


def level_complex(struct: CellStructure, M: MackeyFunctor, m: int) -> LevelComplex:
    """Realize the structure at subgroup level m with coefficients M."""
    group = M.group
    if not 0 <= m <= group.k:
        raise ValueError(f"no subgroup at level {m}")
    if struct.group != group:
        raise ValueError("group mismatch")

    layouts: dict[int, Layout] = {}
    orders: dict[int, tuple[int, ...]] = {}
    for d in struct.dims():
        lay = []
        ords: list[int] = []
        for h in struct.cells[d]:
            s = group.index(max(m, h))
            level_orders = M.levels[min(m, h)]
            lay.append((h, s, len(ords)))
            ords.extend(level_orders * s)
        layouts[d] = lay
        orders[d] = tuple(ords)

    boundary = {d: _realize(M, entries, layouts.get(d, []), m, layouts.get(d - 1, []), m,
                            (len(orders.get(d - 1, ())), len(orders.get(d, ()))))
                for d, entries in struct.diffs.items()}
    cx = LevelComplex(orders=orders, boundary=boundary, layouts=layouts)
    _check_complex(cx)
    return cx


def _check_complex(cx: LevelComplex) -> None:
    for d, B in cx.boundary.items():
        src = cx.orders.get(d, ())
        tgt = cx.orders.get(d - 1, ())
        for i in range(B.r):
            for j in range(B.c):
                # the entry times the source order must vanish in Z / tgt[i]
                if B.a[i][j] and not divides(tgt[i], B.a[i][j] * src[j]):
                    raise InvariantError(f"boundary at dim {d} not well defined")
    for d in list(cx.boundary):
        if d - 1 not in cx.boundary:
            continue
        prod = cx.boundary[d - 1].times(cx.boundary[d])
        tgt = cx.orders.get(d - 2, ())
        for i in range(prod.r):
            for j in range(prod.c):
                if prod.a[i][j] and not divides(tgt[i], prod.a[i][j]):
                    raise InvariantError(f"d^2 != 0 from dim {d}")


@dataclass
class HomologyLevel:
    """One homology group and the Smith forms its generators come from.

    ab.factors lists one invariant factor per generator (0 for a free
    one, never 1).  fc is the Smith form of the basis of the cycles, fy
    that of the boundaries and relations solved against it, both None
    without cycles; keep lists fy's rows of a factor other than 1.
    """

    ab: AbGroup
    cycles: Mat
    fc: SmithForm | None
    fy: SmithForm | None
    keep: list[int]

    @property
    def gens(self) -> Mat:
        """One chain representative per generator, as the columns: the
        cycles times the kept columns of fy.U's inverse, solved for when read."""
        if not self.keep:
            return Mat(self.cycles.r, 0)
        E = Mat(self.cycles.c, len(self.keep), [[int(i == j) for j in self.keep] for i in range(self.cycles.c)])
        return self.cycles.times(solve_factored(smith_normal_form(self.fy.U), E))

    def express(self, X: Mat) -> Mat:
        """Each column of a matrix of cycles in the coordinates of gens."""
        if self.fc is None:
            return Mat(0, X.c)
        Z = solve_factored(self.fc, X)
        if Z is None:
            raise ValueError("chain is not a cycle at this level")
        raw = Mat(len(self.keep), Z.r, [self.fy.U.a[i] for i in self.keep]).times(Z)
        return Mat(raw.r, X.c, [[x % o for x in row] if o else row for row, o in zip(raw.a, self.ab.factors)])


def homology_at(cx: LevelComplex, d: int) -> HomologyLevel:
    n = cx.gens(d)
    # cycles: x whose boundary lies in the relation lattice one dimension
    # down; without generators there is nothing to factor
    cycles = lattice_basis(cx.boundary_or_zero(d), cx.orders.get(d - 1, ())) if n else Mat(0, 0)
    if cycles.c == 0:
        return HomologyLevel(AbGroup.trivial(), cycles, None, None, [])
    fc = smith_normal_form(cycles)
    Y = solve_factored(fc, with_relations(cx.boundary_or_zero(d + 1), cx.orders[d]))
    if Y is None:
        raise InvariantError("a boundary or relation is not a cycle")
    fy = smith_normal_form(Y)
    keep = [i for i in range(cycles.c) if fy.diag(i) != 1]
    return HomologyLevel(AbGroup(tuple(fy.diag(i) for i in keep)), cycles, fc, fy, keep)


def chain_restriction(M: MackeyFunctor, m: int, d: int,
                      hi: LevelComplex, lo: LevelComplex) -> Mat:
    """Chain map from the level m+1 realization to the level m one at
    dimension d: each cell maps to itself by the identity entry, so
    index classes split below the cell's isotropy, where the
    coefficients are carried along, and the coefficient restriction
    applies at or above it."""
    cells = hi.layouts.get(d, [])
    return _realize(M, {(i, i): {0: 1} for i in range(len(cells))}, cells, m + 1,
                    lo.layouts.get(d, []), m, (lo.gens(d), hi.gens(d)))


@functools.lru_cache(maxsize=1 << 12)
def sphere_homology(v: Rep, M: MackeyFunctor, lo: int, hi: int) -> tuple[AbGroup, ...]:
    """H_lo, ..., H_hi of S^v with coefficients M at the top level of
    v's group, all read off one realization of the dimensions
    lo-1..hi+1.

    One cache per process serves every caller.  Its key is the
    arguments by value: Rep and MackeyFunctor compare by value, so a
    sphere met before under an equal functor, however it was built or
    named, is not looked up again; a miss asks window_homology.  An entry
    takes about 0.3 KB over the verify-sweep benchmark's spheres, as it
    shares its groups with that cache; the cap of 4,096 entries bounds a
    long-lived process, and the least recently used entry goes first."""
    return window_homology(factor_cells(v, (lo - 1, hi + 1)), M)


def _top_lifts(struct: CellStructure, M: MackeyFunctor) -> tuple[dict[int, list[int | None]], Lifts]:
    """The structure realized at the top level with coefficients M, where
    Group.index is 1: the orders by dimension, one generator a cell, of
    its isotropy level's order, or none at a zero level; and the
    boundaries lifted to the integers, an entry {c: m_c} as the sum of
    the m_c times the composite between the two levels.  Each lift must
    be well defined on the orders and compose to exactly 0."""
    orders = {d: [M.levels[h][0] if M.levels[h] else None for h in cells] for d, cells in struct.cells.items()}
    lifts: Lifts = {}
    for d, entries in struct.diffs.items():
        src, tgt, cols = struct.cells[d], struct.cells[d - 1], lifts.setdefault(d, {})
        for (t, s), entry in entries.items():
            x = sum(entry.values()) * M.composite(src[s], tgt[t])
            if x:
                if not divides(orders[d - 1][t], x * orders[d][s]):
                    raise InvariantError(f"boundary at dim {d} not well defined at the top level")
                cols.setdefault(s, {})[t] = x
    for d, cols in lifts.items():
        below = lifts.get(d - 1, {})
        for col in cols.values():
            image: dict[int, int] = {}
            for t, x in col.items():
                for u, y in below.get(t, {}).items():
                    image[u] = image.get(u, 0) + x * y
            if any(image.values()):
                raise InvariantError(f"the lifted boundaries from dim {d} do not compose to 0")
    return orders, lifts


@functools.lru_cache(maxsize=16)
def _product(factors: FactorCells) -> CellStructure:
    """tensor(factors), built once for the coefficients window_homology
    reads it with.  A product comes back within a few slices if at all:
    over the verify-sweep benchmark's ranges, 44 of its 45 returns come
    after fewer than 16 other products, so 16 entries of about 1.6 KB
    keep them, and products asked once are not held."""
    return tensor(factors)


@functools.lru_cache(maxsize=1 << 12)
def window_homology(factors: FactorCells, M: MackeyFunctor) -> tuple[AbGroup, ...]:
    """H_lo+1, ..., H_hi-1 at the top level with coefficients M of the
    product of the factor cells over their window (lo, hi).  The product
    reads nothing else, so spheres that differ only outside the window
    share an entry, of about 0.8 KB over the verify-sweep benchmark's
    spheres, capped as sphere_homology's are."""
    lo, hi = factors.window
    orders, lifts = _top_lifts(_product(factors), M)
    # the chains are the cokernel of the relations R into the free chains
    # F, so H_d is that of the cone of R -> F.  Its torsion is that of the
    # cokernel of the cone's D_d+1, from F_d+1 + R_d to F_d + R_d-1, with
    # R_d-1's rows keyed by ~i.  Its free rank is f_d less rho_d and
    # rho_d+1, the ranks of the boundaries between free generators, as
    # over Q the others vanish; D_d+1 has rank r_d + rho_d+1, as over Q
    # R_d's columns clear its torsion rows of F_d, and, the lifts composing
    # to 0, what that adds in R_d-1 is a combination of its free rows
    free = {d: [i for i, o in enumerate(ords) if o == 0] for d, ords in orders.items()}
    rho = len(invariant_factors({t: x for t, x in lifts.get(lo + 1, {}).get(s, {}).items() if orders[lo][t] == 0}
                                for s in free.get(lo + 1, ())))
    groups = []
    for d in range(lo + 1, hi):
        relations = [(j, o) for j, o in enumerate(orders.get(d, ())) if o]
        cone = list(lifts.get(d + 1, {}).values())
        for j, o in relations:
            boundary = lifts.get(d, {}).get(j, {})
            cone.append({j: o, **{~i: -o * x // orders[d - 1][i] for i, x in boundary.items()}})
        diagonal = invariant_factors(cone)
        below, rho = rho, len(diagonal) - len(relations)
        torsion = [f for f in diagonal if f != 1]
        groups.append(AbGroup((*torsion, *[0] * (len(free.get(d, ())) - below - rho))))
    return tuple(groups)


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
