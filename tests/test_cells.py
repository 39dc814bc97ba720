"""Cell structures of representation spheres and their realizations.

Realizing a structure runs the internal well-definedness and d^2 = 0
checks, so these tests double as boundary-map validation."""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from slicetower import cells
from slicetower.abelian import Mat
from slicetower.cells import cell_structure, class_images, factor_cells, max_cell_dim, tensor, window_size
from slicetower.group import Group
from slicetower.homology import homology_at, level_complex
from slicetower.mackey import B_ij, constant_Z, dual_Z
from slicetower.rep import Rep, rotation_plane, trivial_rep

C3 = Group(3, 1)
C9 = Group(3, 2)


@pytest.mark.parametrize("group", [Group(p, k) for p in (3, 5) for k in range(4)], ids=str)
@settings(max_examples=25, deadline=None)
@given(x=st.integers(-200, 200), c=st.integers(-200, 200))
def test_class_images_match_brute_force(group, x, c):
    # translation c carries every point X of class x to (X + c), read
    # in the target's classes; each class reached is listed once
    for h_s in range(group.k + 1):
        for h_t in range(group.k + 1):
            s_src, s_tgt = group.index(h_s), group.index(h_t)
            got = class_images(x, c, s_src, s_tgt)
            want = {(X + c) % s_tgt for X in range(group.order) if (X - x) % s_src == 0}
            assert len(got) == len(set(got)) and set(got) == want, (h_s, h_t)


def test_sphere_positive_frozen():
    st_ = cell_structure(Rep(C9, 0, (1, 1)))  # planes at levels 1, 0 in that order
    assert st_.cells == {0: (2,), 1: (1,), 2: (1,), 3: (0,), 4: (0,)}
    assert st_.diffs[1] == {(0, 0): {0: 1}}
    assert st_.diffs[2] == {(0, 0): {0: 1, 1: -1}}
    # second plane attaches by the sum over the three index classes of
    # the coarser plane before it
    assert st_.diffs[3] == {(0, 0): {0: 1, 1: 1, 2: 1}}
    assert st_.diffs[4] == {(0, 0): {0: 1, 1: -1}}
    assert max(st_.cells) == 4 and min(st_.cells) == 0


def test_sphere_negative_frozen():
    st_ = cell_structure(Rep(C9, 0, (-1, -1)))
    assert st_.cells == {0: (2,), -1: (1,), -2: (1,), -3: (0,), -4: (0,)}
    assert st_.diffs[0] == {(0, 0): {0: 1}}
    assert st_.diffs[-1] == {(0, 0): {0: 1, 1: -1}}
    assert st_.diffs[-2] == {(0, 0): {0: 1, 1: 1, 2: 1}}
    assert st_.diffs[-3] == {(0, 0): {0: 1, 1: -1}}
    assert min(st_.cells) == -4
    # a trivial summand shifts cells and boundaries alike
    up = cell_structure(Rep(C9, 3, (-1, -1)))
    assert up.cells == {d + 3: cs for d, cs in st_.cells.items()}
    assert up.diffs == {d + 3: dd for d, dd in st_.diffs.items()}
    assert cell_structure(Rep(C9, -1, (0, 0))).cells == {-1: (2,)}


@pytest.mark.parametrize("group", [C3, C9, Group(3, 3), Group(5, 2)], ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fixed_cells_span_the_fixed_sphere(group, data):
    # the cells fixed by C_{p^m} must form the sphere of the fixed
    # subspace, whose dimension is twice the number of planes of level >= m
    levels = data.draw(st.lists(st.integers(0, group.k - 1), max_size=4))
    planes = tuple(levels.count(j) for j in range(group.k))
    pos = cell_structure(Rep(group, 0, planes))
    neg = cell_structure(-Rep(group, 0, planes))
    for m in range(group.k + 1):
        top = 2 * sum(1 for j in levels if j >= m)
        assert {d for d, cs in pos.cells.items() if max(cs) >= m} == set(range(top + 1))
        assert {-d for d, cs in neg.cells.items() if max(cs) >= m} == set(range(top + 1))


def test_cell_structure_dims():
    v = Rep(C9, 2, (1, 0)) - Rep(C9, 0, (0, 2))
    st_ = cell_structure(v)
    assert max(st_.cells) == 4 == max_cell_dim(v)
    assert min(st_.cells) == 2 - 4
    assert cell_structure(trivial_rep(C9, 3)).cells == {3: (2,)}


def test_cell_structure_frozen_odd_trivial_mixed_signs():
    # 1 + λ_0 - λ_1: the trivial summand rides on the negative factor,
    # the second in the product; on the first, the Leibniz sign would
    # flip the entries coming from -λ_1
    st_ = cell_structure(Rep(C9, 1, (1, -1)))
    assert list(st_.cells.items()) == [
        (-1, (1,)), (0, (1, 0, 0, 0)), (1, (2, 0, 0, 0, 0, 0, 0)), (2, (0, 0, 0, 0)), (3, (0,))]
    assert [(d, list(dd.items())) for d, dd in st_.diffs.items()] == [
        (0, [((0, 0), {0: 1, 1: -1}), ((0, 1), {0: 1}), ((0, 2), {1: 1}), ((0, 3), {2: 1})]),
        (1, [((0, 0), {0: 1}), ((0, 1), {0: 1}), ((1, 1), {0: -1}), ((2, 1), {0: 1}),
             ((0, 2), {1: 1}), ((2, 2), {0: -1}), ((3, 2), {0: 1}), ((0, 3), {2: 1}),
             ((3, 3), {0: -1}), ((1, 3), {0: 1}), ((1, 4), {0: 1}), ((3, 4), {1: -1}),
             ((2, 5), {0: 1}), ((1, 5), {1: -1}), ((3, 6), {0: 1}), ((2, 6), {1: -1})]),
        (2, [((0, 0), {0: 1}), ((1, 0), {0: -1}), ((2, 0), {0: -1}), ((3, 0), {0: -1}),
             ((1, 1), {0: 1}), ((3, 1), {1: -1}), ((4, 1), {0: 1}), ((5, 1), {0: -1}),
             ((2, 2), {0: 1}), ((1, 2), {1: -1}), ((5, 2), {0: 1}), ((6, 2), {0: -1}),
             ((3, 3), {0: 1}), ((2, 3), {1: -1}), ((6, 3), {0: 1}), ((4, 3), {0: -1})]),
        (3, [((0, 0), {0: 1, 1: -1}), ((1, 0), {0: 1}), ((2, 0), {0: 1}), ((3, 0), {0: 1})]),
    ]


def test_tensor_cell_classes():
    # S^(λ_0 - λ_1): the free cells of λ_0 against the cells of the
    # mirrored λ_1, fixed by C_3, give one class per point of C_9 / C_3
    # as (dimension, isotropy, attaching classes): each odd cell attaches
    # by the sum over the one class of the fixed 0-cell, and the even
    # cells and the 0-cells count none
    factors = factor_cells(Rep(C9, 0, (1, -1)))
    assert factors.window == (-2, 2)
    assert factors.pos == ((0, 2, 0), (1, 0, 1), (2, 0, 0))
    assert factors.mirror == ((-2, 1, 0), (-1, 1, 1), (0, 2, 0))
    st_ = tensor(factors)
    assert st_.cells == {-2: (1,), -1: (1, 0, 0, 0), 0: (2, 0, 0, 0, 0, 0, 0),
                         1: (0, 0, 0, 0), 2: (0,)}
    assert max(st_.cells) == 2 and min(st_.cells) == -2
    assert st_ == cell_structure(Rep(C9, 0, (1, -1)))


def test_level_complex_frozen_faithful_plane():
    struct = cell_structure(Rep(C3, 0, (1,)))
    top = level_complex(struct, constant_Z(C3), 1)
    assert top.orders == {0: (0,), 1: (0,), 2: (0,)}
    assert top.boundary[1].a == [[3]]
    assert top.boundary[2].a == [[0]]
    bottom = level_complex(struct, constant_Z(C3), 0)
    assert bottom.orders == {0: (0,), 1: (0, 0, 0), 2: (0, 0, 0)}
    assert bottom.boundary[1].a == [[1, 1, 1]]
    assert bottom.boundary[2].a == [[1, 0, -1], [-1, 1, 0], [0, -1, 1]]


def test_level_complex_input_validation():
    struct = cell_structure(Rep(C3, 0, (1,)))
    with pytest.raises(ValueError):
        level_complex(struct, constant_Z(C3), 2)
    with pytest.raises(ValueError):
        level_complex(struct, constant_Z(C9), 1)


@pytest.mark.parametrize("group", [C3, C9, Group(3, 3), Group(5, 2)], ids=str)
def test_pair_classes_and_class_images_match_the_orbits(group):
    # tensor keeps each boundary measure below the source's index only, as
    # the measure is periodic: both functions must be exact on the points.
    # G acts on G/C_{p^x} x G/C_{p^y} by translating both coordinates; the
    # orbit of (0, w), w below the coarser index, meets each point once, at
    # a translation unique modulo the finer index
    for x in range(group.k + 1):
        for y in range(group.k + 1):
            s_x, s_y, s_fine = group.index(x), group.index(y), group.index(min(x, y))
            orbits: dict[tuple[int, int], set[tuple[int, int]]] = {}
            for w in range(group.index(max(x, y))):
                for g in range(group.order):
                    orbits.setdefault((g % s_x, (g + w) % s_y), set()).add((w, g % s_fine))
            assert len(orbits) == s_x * s_y
            for (u, v), found in orbits.items():
                assert found == {cells._pair_class(group, x, y, u, v)}, (x, y, u, v)
            # translation c carries the points of class u of G/C_{p^x} to
            # these classes of G/C_{p^y}, each once
            for u in range(s_x):
                for c in range(group.order):
                    got = class_images(u, c, s_x, s_y)
                    assert sorted(got) == sorted({(X + c) % s_y for X in range(u, group.order, s_x)}), (x, y, u, c)


@pytest.mark.parametrize("group", [C3, C9, Group(5, 2)], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_window_size_counts_the_product(group, data):
    # the cap counts what the product builds: its cells, and the attaching
    # classes of the factor cells, which tensor writes out as entries
    v = Rep(group, data.draw(st.integers(-4, 4)), tuple(data.draw(st.integers(-3, 3)) for _ in range(group.k)))
    lo = data.draw(st.integers(-14, 12))
    window = (lo, lo + data.draw(st.integers(0, 5)))
    factors = factor_cells(v, window)
    product = sum(map(len, tensor(factors).cells.values()))
    assert window_size(v, window) == product + sum(n for *_, n in factors.pos + factors.mirror)


GROUPS = [C3, C9, Group(5, 1)]


def small_reps(group):
    return st.builds(
        Rep,
        st.just(group),
        st.integers(0, 2),
        st.tuples(*[st.integers(-2, 2) for _ in range(group.k)]),
    )


@pytest.mark.parametrize("group", GROUPS, ids=str)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_realizations_are_complexes(group, data):
    # level_complex raises if any boundary fails well-definedness or
    # d^2 = 0, so building one at every level is the assertion
    struct = cell_structure(data.draw(small_reps(group)))
    coeffs = [constant_Z(group), dual_Z(group), B_ij(1, 0, group)]
    M = data.draw(st.sampled_from(coeffs))
    for m in range(group.k + 1):
        cx = level_complex(struct, M, m)
        for d in cx.boundary:
            assert cx.boundary[d].r == cx.gens(d - 1)
            assert cx.boundary[d].c == cx.gens(d)


@pytest.mark.parametrize("group", [C3, C9, Group(3, 3), Group(5, 2)], ids=str)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_window_matches_the_full_structure(group, data):
    # a window keeps exactly the full structure's cells in lo..hi and its
    # boundaries out of lo+1..hi, so homology strictly inside it agrees
    v = data.draw(small_reps(group))
    full = cell_structure(v)
    lo = data.draw(st.integers(min(full.cells) - 2, max(full.cells)))
    hi = lo + data.draw(st.integers(2, 4))
    win = cell_structure(v, (lo, hi))
    assert win.cells == {d: cs for d, cs in full.cells.items() if lo <= d <= hi}
    assert win.diffs == {d: dd for d, dd in full.diffs.items() if lo < d <= hi}
    # realizing the whole structure is the slow side of the comparison,
    # so levels whose full realization is large are left out
    levels = [m for m in range(group.k + 1)
              if sum(group.index(max(m, h)) for cs in full.cells.values() for h in cs) <= 400]
    for M in (constant_Z(group), dual_Z(group), B_ij(1, 0, group)):
        for m in levels:
            cx_full = level_complex(full, M, m)
            cx_win = level_complex(win, M, m)
            for d in range(lo + 1, hi):
                h_full = homology_at(cx_full, d)
                h_win = homology_at(cx_win, d)
                assert h_win.ab == h_full.ab
                assert h_win.gens == h_full.gens
                # express agrees on the generators and on the boundaries
                bd = cx_full.boundary_or_zero(d + 1)
                X = Mat(bd.r, h_full.gens.c + bd.c,
                        [g + b for g, b in zip(h_full.gens.a, bd.a)])
                assert h_win.express(X) == h_full.express(X)


@st.composite
def windows_and_more_faithful_planes(draw):
    v = draw(small_reps(draw(st.sampled_from([C3, C9, Group(3, 3)]))))
    lo = draw(st.integers(-6, 4))
    return v, (lo, lo + draw(st.integers(2, 4))), draw(st.integers(1, 2))


@settings(max_examples=90, deadline=None)
@given(windows_and_more_faithful_planes())
@example((Rep(C9, 1, (-5, -1)), (-2, 1), 1))
def test_equal_factor_cells_give_equal_structures(case):
    # faithful planes come last in the mirror, so more of them often
    # leave the factor cells a window pairs as they were; the product
    # then is the same, and it is the whole structure's cells and
    # boundaries in the window, so the factor cells are an exact key
    v, (lo, hi), extra = case
    w = v - rotation_plane(v.group, 0, extra)
    assume(factor_cells(v, (lo, hi)) == factor_cells(w, (lo, hi)))
    full = cell_structure(w)
    win = cell_structure(v, (lo, hi))
    assert win == cell_structure(w, (lo, hi))
    assert win.cells == {d: cs for d, cs in full.cells.items() if lo <= d <= hi}
    assert win.diffs == {d: dd for d, dd in full.diffs.items() if lo < d <= hi}
