"""Integer linear algebra: Smith normal form invariants, kernel and
lattice computations, and invariant-factor bookkeeping."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from criteria import in_diagonal_lattice
from slicetower.abelian import (
    AbGroup,
    Mat,
    invariant_factors,
    kernel_basis,
    lattice_basis,
    smith_normal_form,
    solve_factored,
)


def matrices(max_dim: int = 5, max_entry: int = 9):
    def build(r, c, flat):
        rows = [flat[i * c:(i + 1) * c] for i in range(r)]
        return Mat(r, c, rows)

    dims = st.tuples(st.integers(0, max_dim), st.integers(0, max_dim))
    return dims.flatmap(
        lambda rc: st.lists(
            st.integers(-max_entry, max_entry),
            min_size=rc[0] * rc[1],
            max_size=rc[0] * rc[1],
        ).map(lambda flat: build(rc[0], rc[1], flat))
    )


def column(v: list[int]) -> Mat:
    return Mat(len(v), 1, [[x] for x in v])


def det(m: Mat) -> Fraction:
    """Determinant of a square matrix by exact Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m.a]
    n = m.r
    out = Fraction(1)
    for t in range(n):
        pivot = next((i for i in range(t, n) if a[i][t] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != t:
            a[t], a[pivot] = a[pivot], a[t]
            out = -out
        out *= a[t][t]
        for i in range(t + 1, n):
            q = a[i][t] / a[t][t]
            a[i] = [x - q * y for x, y in zip(a[i], a[t])]
    return out


@given(matrices())
def test_smith_form_invariants(A):
    f = smith_normal_form(A)
    assert f.U.times(A).times(f.V) == f.S
    assert abs(det(f.U)) == 1
    assert abs(det(f.V)) == 1
    n = min(A.r, A.c)
    for i in range(A.r):
        for j in range(A.c):
            if i != j:
                assert f.S.a[i][j] == 0
    diag = [f.S.a[i][i] for i in range(n)]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0


@given(st.one_of(matrices(), matrices(max_dim=7, max_entry=1), matrices(max_dim=6, max_entry=27)))
def test_invariant_factors_are_the_smith_diagonal(A):
    # the sparse elimination keeps no transform, and gives the Smith form's
    # nonzero diagonal from the rows and from the columns alike, with each
    # caller's vectors left as they were
    f = smith_normal_form(A)
    expected = [d for d in (f.diag(i) for i in range(min(A.r, A.c))) if d]
    rows = [{j: x for j, x in enumerate(row) if x} for row in A.a]
    columns = [{i: A.a[i][j] for i in range(A.r) if A.a[i][j]} for j in range(A.c)]
    before = [dict(v) for v in rows]
    assert invariant_factors(rows) == expected
    assert invariant_factors(iter(columns)) == expected
    assert rows == before


@given(matrices())
def test_kernel_basis_spans_kernel(A):
    basis = kernel_basis(A)
    f = smith_normal_form(A)
    rank = sum(1 for i in range(min(A.r, A.c)) if f.diag(i))
    assert (basis.r, basis.c) == (A.c, A.c - rank)
    for v in zip(*basis.a):
        assert A.times_vec(list(v)) == [0] * A.r


@given(matrices(max_dim=4, max_entry=6), st.data())
def test_solve_round_trip(A, data):
    x = data.draw(st.lists(st.integers(-5, 5), min_size=A.c, max_size=A.c))
    b = A.times_vec(x)
    y = solve_factored(smith_normal_form(A), column(b))
    assert y is not None
    assert A.times_vec([row[0] for row in y.a]) == b
    q = data.draw(st.integers(0, 3))
    X = Mat(A.c, q, [data.draw(st.lists(st.integers(-5, 5), min_size=q, max_size=q))
                     for _ in range(A.c)])
    B = A.times(X)
    Z = solve_factored(smith_normal_form(A), B)
    assert Z is not None
    assert A.times(Z) == B


def test_solve_detects_no_solution():
    for A, b in ((Mat(1, 1, [[2]]), [1]), (Mat(2, 1, [[1], [0]]), [0, 1]),
                 (Mat(1, 2, [[2, 4]]), [3])):
        assert solve_factored(smith_normal_form(A), column(b)) is None


def test_solve_factored_rejects_one_bad_column():
    f = smith_normal_form(Mat(2, 2, [[2, 0], [0, 3]]))
    assert solve_factored(f, Mat(2, 2, [[2, -4], [3, 6]])) == Mat(2, 2, [[1, -2], [1, 2]])
    assert solve_factored(f, Mat(2, 3, [[2, 1, 0], [3, 3, 0]])) is None


@st.composite
def preimage_cases(draw):
    r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    T = Mat(r, c, [draw(st.lists(st.integers(-3, 3), min_size=c, max_size=c)) for _ in range(r)])
    return T, draw(st.lists(st.integers(0, 4), min_size=r, max_size=r))


@given(preimage_cases())
def test_lattice_basis_is_the_preimage_lattice(case):
    T, orders = case
    B = lattice_basis(T, orders)
    assert B.r == T.c
    cols = [list(v) for v in zip(*B.a)]
    assert len(cols) == B.c
    for x in cols:
        assert in_diagonal_lattice(T.times_vec(x), orders)
    f = smith_normal_form(B)
    assert all(f.diag(j) != 0 for j in range(B.c))      # independent columns
    inside = [list(x) for x in itertools.product(range(-3, 4), repeat=T.c)
              if in_diagonal_lattice(T.times_vec(list(x)), orders)]
    X = Mat(T.c, len(inside), [list(row) for row in zip(*inside)])
    Z = solve_factored(f, X)
    assert Z is not None and B.times(Z) == X


def test_det():
    assert det(Mat(2, 2, [[1, 2], [3, 4]])) == -2
    assert det(Mat(2, 2, [[0, 1], [1, 0]])) == -1
    assert det(Mat(2, 2, [[1, 2], [2, 4]])) == 0


def test_in_diagonal_lattice():
    assert in_diagonal_lattice([3, 0], [3, 0])
    assert not in_diagonal_lattice([3, 1], [3, 0])
    assert not in_diagonal_lattice([2, 0], [3, 0])
    assert in_diagonal_lattice([0, 5], [3, 1])
    with pytest.raises(ValueError):
        in_diagonal_lattice([1], [1, 2])


def test_mat_arithmetic():
    a = Mat(2, 2, [[1, 2], [3, 4]])
    b = Mat(2, 2, [[0, 1], [1, 0]])
    assert a.times(b) == Mat(2, 2, [[2, 1], [4, 3]])
    assert a.times_vec([1, 1]) == [3, 7]


def diagonal_group(orders: list[int]) -> AbGroup:
    """The direct sum of cyclic groups of the given orders, its
    invariant factors read off the Smith form of their diagonal."""
    f = smith_normal_form(Mat(len(orders), len(orders),
                              [[d if i == j else 0 for j in range(len(orders))]
                               for i, d in enumerate(orders)]))
    return AbGroup(tuple(d for d in (f.diag(i) for i in range(len(orders))) if d != 1))


def test_abgroup_normalization():
    assert diagonal_group([2, 3]).factors == (6,)
    assert diagonal_group([2, 4]).factors == (2, 4)
    assert diagonal_group([0, 3]).factors == (3, 0)
    assert diagonal_group([1, 1]).is_trivial
    assert diagonal_group([6, 4]).factors == (2, 12)
    assert AbGroup.trivial().is_trivial


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 25, 27, 36]),
                max_size=6))
def test_from_orders_is_the_same_group(orders):
    # a finite abelian group is determined by how many elements each n
    # kills: prod gcd(n, o) over its cyclic summands Z/o
    g = diagonal_group(orders)
    fs = g.factors
    assert all(e == 0 or (d != 0 and e % d == 0) for d, e in zip(fs, fs[1:]))
    assert g.free_rank == orders.count(0)
    torsion = [o for o in orders if o]
    for n in divisors(math.lcm(*torsion)):
        assert math.prod(math.gcd(n, o) for o in torsion) == \
            math.prod(math.gcd(n, d) for d in g.torsion), n


def test_abgroup_str():
    assert str(AbGroup.trivial()) == "0"
    assert str(AbGroup((0,))) == "Z"
    assert str(AbGroup((3, 9, 0, 0))) == "Z^2 + Z/3 + Z/9"
    assert str(AbGroup((5,))) == "Z/5"


def test_abgroup_rejects_bad_factors():
    with pytest.raises(ValueError):
        AbGroup((1,))
    with pytest.raises(ValueError):
        AbGroup((-2,))
    with pytest.raises(ValueError):
        AbGroup((4, 6))
    with pytest.raises(ValueError):
        AbGroup((0, 3))
