"""smith_normal_form against the dense reference elimination: the same
S, U and V bit for bit, on random matrices and on the boundary matrices
of a plane-difference sphere, and the input left untouched.  The
inverse of U, which smith_normal_form does not track, is solved for
through a Smith form of U, as HomologyLevel.gens solves for the columns
it keeps, and must equal the U^-1 the reference tracks, bit for bit; so
must the generators of that sphere's homology, the cycles times the
kept columns of the reference's U^-1."""

import pytest
from hypothesis import given, settings, strategies as st

from reference_snf import reference_smith_normal_form
from slicetower.abelian import Mat, smith_normal_form, solve_factored, with_relations
from slicetower.cells import cell_structure
from slicetower.group import Group
from slicetower.homology import homology_at, level_complex
from slicetower.mackey import constant_Z, dual_Z
from slicetower.rep import rotation_plane


def assert_matches_reference(A: Mat) -> None:
    before = (A.r, A.c, [list(row) for row in A.a])
    f = smith_normal_form(A)
    assert (A.r, A.c, A.a) == before
    g, Uinv = reference_smith_normal_form(A)
    assert f.S == g.S
    assert f.U == g.U
    assert f.V == g.V
    assert solve_factored(smith_normal_form(f.U), Mat.identity(A.r)) == Uinv


@st.composite
def varied_density_matrices(draw, max_dim=8, max_entry=50):
    r, c = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    density = draw(st.integers(1, 10))  # in tenths: the share of entries drawn at random
    entry = st.integers(-max_entry, max_entry)
    rows = [[draw(entry) if draw(st.integers(1, 10)) <= density else 0 for _ in range(c)]
            for _ in range(r)]
    return Mat(r, c, rows)


@settings(max_examples=300, deadline=None)
@given(varied_density_matrices())
def test_smith_form_matches_dense_reference(A):
    assert_matches_reference(A)


C9 = Group(3, 2)


@pytest.mark.parametrize("level", range(C9.k + 1))
@pytest.mark.parametrize("coeff", [constant_Z, dual_Z], ids=["Z", "Z*"])
def test_plane_difference_boundaries_match_dense_reference(coeff, level):
    struct = cell_structure(rotation_plane(C9, 0) - rotation_plane(C9, 1))
    cx = level_complex(struct, coeff(C9), level)
    dims = struct.dims()
    for d in range(dims[0], dims[-1] + 2):
        assert_matches_reference(cx.boundary_or_zero(d))


@pytest.mark.parametrize("level", range(C9.k + 1))
@pytest.mark.parametrize("coeff", [constant_Z, dual_Z], ids=["Z", "Z*"])
def test_plane_difference_generators_match_dense_reference(coeff, level):
    struct = cell_structure(rotation_plane(C9, 0) - rotation_plane(C9, 1))
    cx = level_complex(struct, coeff(C9), level)
    dims = struct.dims()
    for d in range(dims[0], dims[-1] + 1):
        h = homology_at(cx, d)
        if h.fc is None:
            continue
        Y = solve_factored(h.fc, with_relations(cx.boundary_or_zero(d + 1), cx.orders[d]))
        _, Uinv = reference_smith_normal_form(Y)
        full = h.cycles.times(Uinv)
        assert h.gens == Mat(full.r, len(h.keep), [[row[i] for i in h.keep] for row in full.a]), d
