"""Bredon homology engine: frozen anchor computations, the underlying-
sphere and restriction-compatibility properties, and injectivity of
restriction on torsion coefficients."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from criteria import homres_injective, in_diagonal_lattice, presented_injective
from slicetower.abelian import AbGroup, Mat
from slicetower.group import Group, InvariantError
from slicetower.homology import (LevelComplex, _check_complex, _top_lifts, bredon_homology, homology_at,
                                 level_complex, sphere_homology, window_homology)
from slicetower.cells import CellStructure, cell_structure, factor_cells, tensor
from slicetower.mackey import B_ij, MackeyFunctor, Z_ij, constant_Z, dual_Z, restrict_mackey
from slicetower.params import slice_params
from slicetower.rep import (
    Rep,
    regular_rep,
    restrict_rep,
    rotation_plane,
    slice_rep,
    trivial_rep,
)

C3 = Group(3, 1)
C9 = Group(3, 2)


def top_boundary_scalars(n: int, t: int, group: Group) -> list[int]:
    v = trivial_rep(group, n) - regular_rep(group, t)
    cx = level_complex(cell_structure(v), constant_Z(group), group.k)
    top = n - t
    bottom = n - t - t * (group.order - 1)
    out = []
    for d in range(top, bottom, -1):
        B = cx.boundary_or_zero(d)
        assert (B.r, B.c) == (1, 1)
        out.append(abs(B.a[0][0]))
    return out


@pytest.mark.parametrize("p,n,t", [(3, 3, 1), (3, 5, 2), (5, 6, 1), (7, 8, 1), (3, 4, 4)])
def test_fixed_point_complex_pattern(p, n, t):
    # descending from dimension n - t: Z ->1 Z ->0 Z ->p Z ->0 ...
    g = Group(p, 1)
    scalars = top_boundary_scalars(n, t, g)
    width = t * (p - 1)
    expected = ([1] + [0, p] * width)[:width]
    assert scalars == expected


def test_fixed_point_complex_negative_regular():
    # S^(-rho) over C_3: pattern truncates to [1, 0], leaving a single
    # Z in the bottom dimension -3 and nothing in degree 0
    bh0 = bredon_homology(-regular_rep(C3), constant_Z(C3), 0)
    assert bh0.ab(1).is_trivial
    bh3 = bredon_homology(-regular_rep(C3), constant_Z(C3), -3)
    assert str(bh3.ab(1)) == "Z"


def test_sphere_s0_gives_constant():
    for g in (C3, C9):
        bh = bredon_homology(trivial_rep(g, 0), constant_Z(g), 0)
        for m in range(g.k + 1):
            assert bh.ab(m) == AbGroup((0,))
        for m in range(g.k):
            assert abs(bh.res_maps[m].a[0][0]) == 1


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_plane_difference_realizes_integral_family(p, k):
    g = Group(p, k)
    for a in range(1, k + 1):
        for j in range(0, a):
            v = rotation_plane(g, a) - rotation_plane(g, j)
            expected = Z_ij(a, j, g)
            bh = bredon_homology(v, constant_Z(g), 0)
            for m in range(k + 1):
                assert bh.ab(m) == AbGroup((0,)), (a, j, m)
            for m in range(k):
                assert abs(bh.res_maps[m].a[0][0]) == expected.res[m]
            for d in (-2, -1, 1, 2):
                off = bredon_homology(v, constant_Z(g), d)
                assert all(off.ab(m).is_trivial for m in range(k + 1))


@pytest.mark.parametrize("group", [C3, C9, Group(3, 3)], ids=str)
def test_composed_restrictions_are_the_family_composites(group):
    # criterion 6b's family: the product of res_maps from the top level
    # down to level m is, up to sign, Z(a, j)'s composite from k to m
    k = group.k
    for a in range(1, k + 1):
        for j in range(a):
            bh = bredon_homology(rotation_plane(group, a) - rotation_plane(group, j), constant_Z(group), 0)
            expected = Z_ij(a, j, group)
            down = Mat.identity(1)
            for m in range(k - 1, -1, -1):
                down = bh.res_maps[m].times(down)
                assert (down.r, down.c) == (1, 1), (a, j, m)
                assert abs(down.a[0][0]) == expected.composite(k, m), (a, j, m)


@st.composite
def small_group_reps(draw):
    # as test_cells draws them; level 0 of a sphere over C_27 is far slower
    g = draw(st.sampled_from([C3, C9, Group(5, 1)]))
    return Rep(g, draw(st.integers(0, 2)), tuple(draw(st.integers(-2, 2)) for _ in range(g.k)))


@settings(deadline=None, max_examples=75)
@given(small_group_reps())
@example(trivial_rep(C3, 2) + rotation_plane(C3, 0))
@example(-regular_rep(C3))
@example(rotation_plane(C9, 1) - rotation_plane(C9, 0, 2))
@example(trivial_rep(C9, 1) + rotation_plane(C9, 0))
def test_level_zero_is_underlying_sphere(v):
    # level 0 is the underlying sphere S^(dim v): M(G/e) in degree dim v only
    g = v.group
    for M in (constant_Z(g), dual_Z(g), B_ij(1, 0, g)):
        at_dim = bredon_homology(v, M, v.dim)
        assert at_dim.ab(0) == M.level_group(0), (g, M)
        for d in (v.dim - 1, v.dim + 1):
            assert bredon_homology(v, M, d).ab(0).is_trivial


@pytest.mark.parametrize("group", [C3, C9, Group(3, 3)], ids=str)
def test_sphere_homology_reads_bredon_homology_at_the_top(group):
    # one realization of a two- or three-degree window gives the groups
    # that bredon_homology computes one degree at a time, and level m of
    # a sphere is the top level of its restriction to C_{p^m}, which
    # homology --level m reads
    k = group.k
    reps = [rotation_plane(group, 0) - trivial_rep(group, 1),
            trivial_rep(group, 1) - rotation_plane(group, 0),
            rotation_plane(group, k - 1) - rotation_plane(group, 0)]
    for v in reps:
        for M in (constant_Z(group), dual_Z(group), B_ij(1, 0, group)):
            for lo, hi in ((-1, 0), (0, 1), (-1, 1)):
                whole = [bredon_homology(v, M, d) for d in range(lo, hi + 1)]
                for m in range(k + 1):
                    got = sphere_homology(restrict_rep(v, m), restrict_mackey(M, m), lo, hi)
                    assert list(got) == [h.ab(m) for h in whole], (str(v), M, lo, hi, m)


def test_actual_sphere_closed_form():
    # for an actual V with kernels K_1 >= ... >= K_r,
    # H_2i(S^V; Z)(G/G) = Z/[G : K_(i+1)]
    C27 = Group(3, 3)
    v = rotation_plane(C27, 0) + rotation_plane(C27, 1) + rotation_plane(C27, 2)
    tops = [str(bredon_homology(v, constant_Z(C27), d).ab(3)) for d in (0, 2, 4)]
    assert tops == ["Z/3", "Z/9", "Z/27"]
    # restricted to C_3, λ_0 + λ_1 is 2 + λ_0, which has no H_0
    bh = bredon_homology(rotation_plane(C9, 0) + rotation_plane(C9, 1), constant_Z(C9), 0)
    assert str(bh.ab(2)) == "Z/3"
    assert bh.ab(1).is_trivial


def test_restriction_compatibility():
    # computing over the subgroup directly gives the same groups
    v = trivial_rep(C9, 1) + rotation_plane(C9, 0) - rotation_plane(C9, 1)
    for M in (constant_Z(C9), B_ij(1, 0, C9)):
        for d in (-1, 0, 1, 2, 3):
            big = bredon_homology(v, M, d)
            small = bredon_homology(restrict_rep(v, 1), restrict_mackey(M, 1), d)
            for m in (0, 1):
                assert big.ab(m) == small.ab(m), (M, d, m)


def test_torsion_vanishing_anchors():
    # a second trivial summand kills degrees 0 and -1 entirely
    w = trivial_rep(C9, 2) + rotation_plane(C9, 0)
    for eps in (0, 1):
        bh = bredon_homology(-w, B_ij(1, 0, C9), -eps)
        assert all(bh.ab(m).is_trivial for m in range(3))
    # the slice-membership computation behind the (1,1) stage of S^7
    v11 = slice_rep(C9, 1, slice_params(7, C9)[0])
    bh = bredon_homology(v11 - regular_rep(C9, 2), B_ij(2, 0, C9), 0)
    assert all(bh.ab(m).is_trivial for m in range(3))


def test_presented_injective():
    assert presented_injective(Mat(1, 1, [[1]]), (3,), (9,))
    assert presented_injective(Mat(1, 1, [[3]]), (3,), (9,))
    assert not presented_injective(Mat(1, 1, [[3]]), (9,), (9,))
    assert not presented_injective(Mat(1, 1, [[0]]), (3,), (3,))
    assert presented_injective(Mat(0, 0), (), ())
    assert presented_injective(Mat(1, 0), (), (3,))


def small_orders():
    return st.lists(st.integers(2, 9), min_size=1, max_size=3).filter(lambda os: math.prod(os) <= 200)


@st.composite
def presented_maps(draw):
    src, dst = draw(small_orders()), draw(small_orders())
    # well defined: src[j] * e_j lands in the dst relations, so entry
    # (i, j) is a multiple of dst[i] / gcd(dst[i], src[j])
    rows = [[draw(st.integers(-3, 3)) * (t // math.gcd(t, s)) for s in src] for t in dst]
    return Mat(len(dst), len(src), rows), tuple(src), tuple(dst)


@given(presented_maps())
def test_presented_injective_matches_enumeration(case):
    T, src, dst = case
    kernel = [x for x in itertools.product(*(range(s) for s in src))
              if in_diagonal_lattice(T.times_vec(list(x)), dst)]
    assert presented_injective(T, src, dst) == (kernel == [(0,) * len(src)])


@st.composite
def torsion_cases(draw):
    g = draw(st.sampled_from([C9, Group(5, 2)]))
    v = Rep(g, draw(st.integers(-1, 2)), tuple(draw(st.integers(-1, 1)) for _ in range(g.k)))
    M = draw(st.sampled_from([constant_Z(g), dual_Z(g), B_ij(1, 0, g), B_ij(2, 0, g)]))
    return v, M, draw(st.integers(-2, 2))


@settings(deadline=None, max_examples=40)
@given(torsion_cases())
@example((Rep(C9, 0, (0, 0)), B_ij(2, 0, C9), 0))     # Z/9 -> Z/3
@example((Rep(C9, 0, (-2, 2)), constant_Z(C9), 0))    # Z/3 + Z on top
@example((Rep(C9, -2, (-1, 2)), dual_Z(C9), 0))
def test_res_maps_are_well_defined(case):
    # every generator's order kills its image one level down
    v, M, d = case
    bh = bredon_homology(v, M, d)
    for m, R in enumerate(bh.res_maps):
        hi, lo = bh.levels[m + 1].ab.factors, bh.levels[m].ab.factors
        assert (R.r, R.c) == (len(lo), len(hi))
        for j, o in enumerate(hi):
            assert in_diagonal_lattice([o * row[j] for row in R.a], lo), (m, j)


@st.composite
def suspension_cases(draw):
    g = draw(st.sampled_from([C3, C9, Group(3, 3), Group(5, 1)]))
    v = Rep(g, draw(st.integers(-3, 3)), tuple(draw(st.integers(-2, 2)) for _ in range(g.k)))
    M = draw(st.sampled_from([constant_Z(g), dual_Z(g), *(
        B_ij(i, j, g) for i in range(1, g.k + 1) for j in range(g.k - i + 1))]))
    return v, M, draw(st.integers(-4, 4))


@settings(deadline=None, max_examples=300)
@given(suspension_cases())
@example((Rep(Group(3, 3), -1, (2, -1, 1)), B_ij(1, 1, Group(3, 3)), 2))
@example((Rep(C9, 0, (-2, 1)), dual_Z(C9), -3))
def test_a_trivial_summand_suspends(case):
    # cells.tensor: a trivial summand shifts the mirror, never the positive factor
    v, M, d = case
    assert sphere_homology(v + trivial_rep(v.group), M, d, d) == sphere_homology(v, M, d - 1, d - 1)


@st.composite
def spheres_in_one_window(draw):
    # several small spheres of one group, drawn like test_cells.small_reps,
    # in one window, so that some share their factor cells, under two or
    # three coefficient systems
    g = draw(st.sampled_from([C3, C9, Group(3, 3), Group(5, 2)]))
    reps = draw(st.lists(st.builds(Rep, st.just(g), st.integers(0, 2),
                                   st.tuples(*[st.integers(-2, 2)] * g.k)), min_size=2, max_size=4))
    coeffs = draw(st.lists(st.sampled_from([constant_Z(g), dual_Z(g), *(
        B_ij(i, j, g) for i in range(1, g.k + 1) for j in range(g.k - i + 1))]),
        min_size=2, max_size=3, unique=True))
    lo = draw(st.integers(-5, 5))
    return reps, coeffs, lo, lo + draw(st.integers(0, 2))


@settings(deadline=None, max_examples=60)
@given(spheres_in_one_window())
def test_sphere_homology_is_a_fresh_realization(case):
    # whichever sphere and coefficients filled the window cache first,
    # every sphere gets what realizing its own cells in the window gives
    reps, coeffs, lo, hi = case
    for M in coeffs:
        for v in reps:
            cx = level_complex(cell_structure(v, (lo - 1, hi + 1)), M, v.group.k)
            assert sphere_homology(v, M, lo, hi) == tuple(homology_at(cx, d).ab for d in range(lo, hi + 1))


@pytest.mark.parametrize("group", [C3, C9, Group(3, 3), Group(3, 4), Group(5, 1), Group(5, 2), Group(7, 2)],
                         ids=str)
def test_window_homology_matches_the_generator_path(group):
    # the values path reads the top level off ranks and invariant factors
    # alone; the generator path's Smith forms of one top-level realization
    # must give the same groups in every degree -3..3, for every
    # coefficient family and a fixed seeded draw of spheres
    k = group.k
    rng = random.Random(str(group))
    coeffs = [constant_Z(group), dual_Z(group), *(Z_ij(i, j, group) for i in range(k + 1) for j in range(i + 1)),
              *(B_ij(i, j, group) for i in range(1, k + 1) for j in range(k - i + 1))]
    bound = 2 if k < 4 else 1  # the generator path's dense Smith forms grow fast over C_81
    for M in coeffs:
        for _ in range(2):
            v = Rep(group, rng.randint(-3, 3), tuple(rng.randint(-bound, bound) for _ in range(k)))
            factors = factor_cells(v, (-4, 4))
            cx = level_complex(tensor(factors), M, k)
            expected = tuple(homology_at(cx, d).ab for d in range(-3, 4))
            assert window_homology.__wrapped__(factors, M) == expected, (str(v), M)


def top_structure(cells, diffs, group=C3):
    """A hand-made CellStructure: isotropy levels and boundary entries by dimension."""
    return CellStructure(group, {d: tuple(hs) for d, hs in cells.items()}, diffs)


def test_top_lifts_refuse_an_ill_defined_boundary():
    # a cell of isotropy 0 is one generator of level 0's order at the top
    # level, and an entry realizes as its sum times the composite: from
    # Z/3 into Z/9, twice a transfer of 3 is well defined but twice a
    # transfer of 1 is not, and no nonzero entry is into Z; the quotient
    # Z/9 -> Z/3 is, and so is any entry out of Z
    up, down = {1: [0], 0: [1]}, {1: [1], 0: [0]}
    diffs = {1: {(0, 0): {0: 1, 1: 1}}}
    good, bad = MackeyFunctor(C3, ((3,), (9,)), (1,), (3,)), MackeyFunctor(C3, ((3,), (9,)), (1,), (1,))
    assert _top_lifts(top_structure(up, diffs), good) == ({1: [3], 0: [9]}, {1: {0: {0: 6}}})
    assert _top_lifts(top_structure(down, diffs), bad) == ({1: [9], 0: [3]}, {1: {0: {0: 2}}})
    assert _top_lifts(top_structure(up, diffs), MackeyFunctor(C3, ((0,), (3,)), (1,), (1,)))[1] == {1: {0: {0: 2}}}
    for M in (bad, MackeyFunctor(C3, ((3,), (0,)), (1,), (3,))):
        with pytest.raises(InvariantError, match="boundary at dim 1 not well defined at the top level"):
            _top_lifts(top_structure(up, diffs), M)


def test_top_lifts_refuse_boundaries_that_do_not_compose_to_zero():
    # a 2-cell whose boundary is the difference of two 1-cells on one
    # 0-cell composes to 0; one 1-cell gives 1 in Z, and with Z/3
    # everywhere a boundary of 3 gives 3, zero in Z/3 but not exactly 0
    square = {2: {(0, 0): {0: 1}, (1, 0): {0: -1}}, 1: {(0, 0): {0: 1}, (0, 1): {0: 1}}}
    _top_lifts(top_structure({2: [1], 1: [1, 1], 0: [1]}, square), constant_Z(C3))
    Z3 = B_ij(1, 0, C3)
    for M, diffs in ((constant_Z(C3), {2: {(0, 0): {0: 1}}, 1: {(0, 0): {0: 1}}}),
                     (Z3, {2: {(0, 0): {0: 3}}, 1: {(0, 0): {0: 1}}})):
        with pytest.raises(InvariantError, match="the lifted boundaries from dim 2 do not compose to 0"):
            _top_lifts(top_structure({2: [1], 1: [1], 0: [1]}, diffs), M)


def test_window_cache_is_bounded():
    # the trivial spheres S^n, each read in degree n, pair more distinct
    # factor cells than the window cache holds
    for n in range(4200):
        sphere_homology(trivial_rep(C3, n), constant_Z(C3), n, n)
    info = window_homology.cache_info()
    assert info.misses > info.maxsize >= info.currsize


def complex_of(orders, boundary):
    """A hand-made LevelComplex: generator orders and boundary rows by dimension."""
    return LevelComplex({d: tuple(o) for d, o in orders.items()},
                        {d: Mat(len(rows), len(rows[0]), rows) for d, rows in boundary.items()}, {})


def test_check_complex_refuses_an_ill_defined_boundary():
    # an entry times its source order must vanish modulo its target order:
    # from Z/3, 1 is well defined into Z/3 but not into Z or Z/9, where 3
    # is; from Z/9, 1 is into Z/3 but 2 is not into Z/27; any entry out of
    # Z is, and so is a zero entry
    for src, tgt, entry in ((3, 3, 1), (0, 3, 1), (0, 0, 2), (3, 9, 3), (9, 3, 1), (3, 0, 0)):
        _check_complex(complex_of({1: [src], 0: [tgt]}, {1: [[entry]]}))
    for src, tgt, entry in ((3, 0, 1), (3, 9, 1), (9, 27, 2)):
        with pytest.raises(InvariantError, match="boundary at dim 1 not well defined"):
            _check_complex(complex_of({1: [0, src], 0: [tgt]}, {1: [[0, entry]]}))


def test_check_complex_refuses_a_square_that_is_not_zero():
    # d1 d2 = 3 is zero in Z/3, but 1 is not zero in Z or Z/3, nor 3 in Z/9
    _check_complex(complex_of({2: [0], 1: [0], 0: [3]}, {2: [[3]], 1: [[1]]}))
    for tgt, square in ((0, 1), (3, 1), (9, 3)):
        with pytest.raises(InvariantError, match=r"d\^2 != 0 from dim 2"):
            _check_complex(complex_of({2: [0], 1: [0], 0: [0, tgt]}, {2: [[square]], 1: [[0], [1]]}))


def test_homology_at_refuses_a_boundary_that_is_not_a_cycle():
    # d1 = (1, 0) has the cycles Z e2, and d2 hits e1, which is no cycle;
    # d2 hitting e2 instead gives H_1 = 0
    cx = complex_of({2: [0], 1: [0, 0], 0: [0]}, {2: [[0], [1]], 1: [[1, 0]]})
    assert homology_at(cx, 1).ab == AbGroup.trivial()
    cx = complex_of({2: [0], 1: [0, 0], 0: [0]}, {2: [[1], [0]], 1: [[1, 0]]})
    with pytest.raises(InvariantError, match="a boundary or relation is not a cycle"):
        homology_at(cx, 1)


def test_homres_injective_spec_instance():
    assert homres_injective(regular_rep(C9), 1, 0, 1)


def test_homres_injective_vacuous():
    w = trivial_rep(C9, 2) + rotation_plane(C9, 1)
    assert homres_injective(w, 1, 0, 1)


def test_homres_injective_validation():
    with pytest.raises(ValueError):
        homres_injective(regular_rep(C9), 2, 1, 1)  # i + j > h
    with pytest.raises(ValueError):
        homres_injective(regular_rep(C9), 1, 0, 3)  # h > k
    with pytest.raises(ValueError):
        homres_injective(regular_rep(C9) - trivial_rep(C9, 2), 1, 0, 1)


def test_homres_injective_random_sample():
    rng = random.Random(11)
    groups = [C3, C9, Group(5, 2)]
    for _ in range(12):
        g = rng.choice(groups)
        planes = tuple(rng.randint(0, 2) for _ in range(g.k))
        w = Rep(g, rng.choice([0, 0, 1]), planes)
        pairs = [(i, j) for i in range(1, g.k + 1) for j in range(0, g.k - i + 1)]
        i, j = rng.choice(pairs)
        h = rng.randint(i + j, g.k)
        assert homres_injective(w, i, j, h), (w, i, j, h)
