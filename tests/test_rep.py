"""Virtual representations: constructors, the slice and bottom-stage
representations, display forms, and the parser."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from criteria import canonical_lambda, is_subrep
from slicetower import rep
from slicetower.document import sphere_forms
from slicetower.group import Group, InvariantError
from slicetower.params import slice_params
from slicetower.rep import (
    Rep,
    RepParseError,
    lambda_block,
    n_slice_rep,
    parse_rep,
    regular_rep,
    render_forms,
    render_rep,
    restrict_rep,
    rotation_plane,
    slice_rep,
    trivial_rep,
)
from slicetower.tower import SliceDescriptor, build_tower

C9 = Group(3, 2)
C3 = Group(3, 1)

SRC = Path(__file__).resolve().parents[1] / "src"

GROUPS = [C3, C9, Group(5, 1), Group(5, 2), Group(7, 1), Group(3, 3)]


def fields(v):
    """The group and multiplicities the display routines read."""
    return v.group, v.trivial, v.planes


def reps(group):
    return st.builds(
        Rep,
        st.just(group),
        st.integers(-6, 6),
        st.tuples(*[st.integers(-6, 6) for _ in range(group.k)]),
    )


def test_rep_algebra():
    v = Rep(C9, 1, (2, 0))
    w = Rep(C9, 0, (1, 3))
    assert (v + w) == Rep(C9, 1, (3, 3))
    assert (v - w) == Rep(C9, 1, (1, -3))
    assert -v == Rep(C9, -1, (-2, 0))
    assert 3 * v == Rep(C9, 3, (6, 0))
    assert v.dim == 5 and w.dim == 8
    assert v.is_actual and not (v - w).is_actual
    assert v - v == Rep(C9, 0, (0, 0))
    with pytest.raises(ValueError):
        v + Rep(C3, 0, (1,))
    with pytest.raises(ValueError):
        Rep(C9, 0, (1,))


def test_plane_constructors():
    assert rotation_plane(C9, 0) == Rep(C9, 0, (1, 0))
    assert rotation_plane(C9, 1, 4) == Rep(C9, 0, (0, 4))
    # level k is the plane with trivial action
    assert rotation_plane(C9, 2) == trivial_rep(C9, 2)
    with pytest.raises(ValueError):
        rotation_plane(C9, 3)
    # only the p-adic valuation of the weight survives
    assert canonical_lambda(1, C9) == rotation_plane(C9, 0)
    assert canonical_lambda(2, C9) == rotation_plane(C9, 0)
    assert canonical_lambda(3, C9) == rotation_plane(C9, 1)
    assert canonical_lambda(9, C9) == trivial_rep(C9, 2)
    assert canonical_lambda(27, C9) == trivial_rep(C9, 2)


def test_regular_rep_and_lambda_block():
    assert regular_rep(C9) == Rep(C9, 1, (3, 1))
    assert regular_rep(C3) == Rep(C3, 1, (1,))
    assert regular_rep(Group(5, 2)) == Rep(Group(5, 2), 1, (10, 2))
    assert regular_rep(C9).dim == 9
    assert lambda_block(0, C9) == Rep(C9, 0, (0, 0))
    assert lambda_block(4, C9) == Rep(C9, 0, (3, 1))
    # a full period of planes is two regular representations
    assert lambda_block(9, C9) == regular_rep(C9, 2)
    assert lambda_block(27, Group(3, 3)) == regular_rep(Group(3, 3), 2)


def test_slice_rep_frozen():
    p7 = slice_params(7, C9)
    assert slice_rep(C9, 2, p7[1]) == Rep(C9, 4, (15, 5))      # 5*rho - 1
    assert slice_rep(C9, 2, p7[1]).dim == 44
    assert slice_rep(C9, 2, p7[0]).dim == 26
    assert slice_rep(C9, 1, p7[1]) == Rep(C9, 2, (5, 1))
    assert slice_rep(C9, 1, p7[0]) == Rep(C9, 0, (3, 1))       # rho - 1
    p16 = slice_params(16, C9)
    assert slice_rep(C9, 2, p16[4]) == Rep(C9, 13, (42, 14))  # 14*rho - 1
    assert slice_rep(C9, 1, p16[0]) == Rep(C9, 1, (6, 2))     # 2*rho - 1
    assert slice_rep(C9, 1, p16[0]).dim == 17
    for a, m in ((0, 5), (3, 5), (1, 0)):  # a in 1..k and m >= 1
        with pytest.raises(ValueError):
            slice_rep(C9, a, m)


def test_slice_rep_checks_hold_under_python_O():
    # both checks raise, so -O keeps them: with lambda_block mutated,
    # V(2,2) of S^7 over C_9 (5 rho - 1) is refused either way
    script = textwrap.dedent("""
        from slicetower import rep
        from slicetower.group import Group
        from slicetower.params import slice_params
        m = slice_params(7, Group(3, 2))[1]
        lambda_block = rep.lambda_block
        mutants = {
            # one level-0 plane too many takes two dimensions off V
            "dim": lambda c, g: lambda_block(c, g) + rep.rotation_plane(g, 0),
            # a level-0 plane for two trivial summands keeps the dimension
            "trivial": lambda c, g: (lambda_block(c, g) - rep.trivial_rep(g, 2)
                                     + rep.rotation_plane(g, 0)),
        }
        for name, mutant in mutants.items():
            rep.lambda_block = mutant
            try:
                print(name, "passed:", rep.slice_rep(Group(3, 2), 2, m))
            except AssertionError as e:
                print(f"{name}: {e}")
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "dim: V at (a, m) = (2, 5) is not an actual representation of the slice dimension",
        "trivial: V at (a, m) = (2, 5) has the wrong trivial multiplicity",
    ]


def test_n_slice_rep_frozen():
    assert n_slice_rep(7, C9) == Rep(C9, 1, (2, 1))
    assert n_slice_rep(9, C9) == Rep(C9, 3, (2, 1))
    assert n_slice_rep(12, C9) == Rep(C9, 2, (3, 2))
    assert n_slice_rep(16, C9) == Rep(C9, 2, (5, 2))
    assert n_slice_rep(9, C9) == regular_rep(C9) + trivial_rep(C9, 2) - rotation_plane(C9, 0)
    for n in (0, 1, 2):
        assert n_slice_rep(n, C9) == trivial_rep(C9, n)
    with pytest.raises(ValueError):
        n_slice_rep(-1, C9)


@pytest.mark.parametrize("n", [7, 9])
def test_n_slice_rep_refuses_a_bottom_slice_of_another_dimension(monkeypatch, n):
    # a first base dimension one too large, whether p divides n or not,
    # moves the bottom slice off dimension n
    real = slice_params
    monkeypatch.setattr(rep, "slice_params", lambda n, group: [m + 1 for m in real(n, group)])
    with pytest.raises(InvariantError, match=f"the bottom slice representation for n = {n} is not actual of dimension n"):
        n_slice_rep.__wrapped__(n, C9)


def test_identity_suite_over_grid():
    for p in (3, 5):
        for k in (1, 2):
            g = Group(p, k)
            rho = regular_rep(g)
            for n in range(3, 13):
                base_dims = slice_params(n, g)
                for a in range(1, k + 1):
                    for b in range(1, len(base_dims) + 1):
                        assert slice_rep(g, a, base_dims[b - 1]).dim == base_dims[b - 1] * p ** a - 1
                w = n_slice_rep(n, g)
                assert w.dim == n
                assert w.is_actual
                assert w + rho == n_slice_rep(n + g.order, g)
            assert n_slice_rep(g.order, g) == rho + trivial_rep(g, 2) - canonical_lambda(1, g)
            assert lambda_block(g.order, g) == regular_rep(g, 2)


def test_restrict_and_is_subrep():
    v = Rep(C9, 1, (2, 3))
    assert restrict_rep(v, 2) == v
    assert restrict_rep(v, 1) == Rep(C3, 7, (2,))
    assert restrict_rep(v, 0) == Rep(Group(3, 0), 11, ())
    with pytest.raises(ValueError):
        restrict_rep(v, 3)
    assert is_subrep(Rep(C9, 1, (2, 0)), v)
    assert not is_subrep(Rep(C9, 2, (0, 0)), v)


def test_rho_form():
    # the s rho - t shorthand, s >= 1 and 0 <= t <= 2, exactly where it holds
    assert render_rep(regular_rep(C9)) == "ρ"
    assert render_rep(Rep(C9, 4, (15, 5))) == "5ρ - 1"
    assert render_rep(Rep(C9, 0, (3, 1))) == "ρ - 1"
    assert render_rep(Rep(C3, 0, (2,))) == "2ρ - 2"
    assert render_rep(Rep(C9, -2, (3, 1))) == "-2 + λ_1 + 3λ_0"      # t out of range
    assert render_rep(Rep(C9, 1, (3, 2))) == "1 + 2λ_1 + 3λ_0"       # not a regular multiple
    assert render_rep(Rep(C9, 1, (4, 1))) == "1 + λ_1 + 4λ_0"
    assert render_rep(trivial_rep(C9, 5)) == "5"


def test_rho_form_reads_one_regular_rep_per_group():
    # each s rho - t is compared with s times the unit rho, not with a
    # cached s rho per s
    unit = (Rep(C9, 1, (3, 1)), Rep(Group(5, 3), 1, (50, 10, 2)))
    for rho in unit:
        for s in range(1, 51):
            v = Rep(rho.group, s - 1, tuple(s * x for x in rho.planes))
            assert render_forms(*fields(v))[0] == ("ρ - 1" if s == 1 else f"{s}ρ - 1")
    assert regular_rep.cache_info().currsize == len(unit)
    assert [regular_rep(rho.group) for rho in unit] == list(unit)


def test_slice_rep_reads_one_regular_rep_per_group():
    # each slice's m rho is m times the unit rho, not a cached m rho per
    # m: the towers of n = 3..40 over two groups leave one entry each
    groups = (C9, Group(5, 3))
    for group in groups:
        for n in range(3, 41):
            list(build_tower(n, group).steps())
    assert regular_rep.cache_info().currsize == len(groups)
    assert [regular_rep(group) for group in groups] == [Rep(C9, 1, (3, 1)),
                                                        Rep(Group(5, 3), 1, (50, 10, 2))]


def test_strip_planes():
    # sphere_forms prints a torsion slice's sphere without the planes its
    # coefficient B(i, j) cannot see, those below level j + 1
    v = Rep(C9, 2, (5, 2))
    assert sphere_forms(SliceDescriptor(v)) == render_forms(C9, 2, (5, 2))
    assert sphere_forms(SliceDescriptor(v, coeff_i=2, coeff_j=0)) == render_forms(C9, 2, (0, 2))
    assert sphere_forms(SliceDescriptor(v, coeff_i=1, coeff_j=1)) == render_forms(C9, 2, (0, 0))


def test_render_rep():
    assert render_rep(regular_rep(C9)) == "ρ"
    assert render_rep(Rep(C9, 4, (15, 5))) == "5ρ - 1"
    assert render_rep(Rep(C9, 0, (3, 1))) == "ρ - 1"
    assert render_rep(Rep(C9, 3, (1, 2))) == "3 + 2λ_1 + λ_0"
    assert render_rep(Rep(C9, 0, (0, 0))) == "0"
    assert render_rep(Rep(C9, -2, (1, 0))) == "-2 + λ_0"
    assert render_rep(Rep(C9, 1, (-1, 1))) == "1 + λ_1 - λ_0"
    assert render_forms(*fields(Rep(C9, 4, (15, 5))))[1] == r"5\rho - 1"
    assert render_forms(*fields(Rep(C9, 3, (1, 2))))[1] == r"3 + 2\lambda_{1} + \lambda_{0}"
    assert render_forms(*fields(Rep(C9, 0, (0, 0))))[1] == "0"
    assert render_rep(Rep(C9, 1, (2, 1))) == "1 + λ_1 + 2λ_0"
    assert render_forms(*fields(Rep(C9, 0, (0, 1))))[1] == r"\lambda_{1}"


def reference_render(v, latex=False):
    """One form at a time, term by term: the rendering render_forms
    replaced, kept as the reference it must agree with."""
    rho_sym = r"\rho" if latex else "ρ"
    lam = (lambda j: rf"\lambda_{{{j}}}") if latex else (lambda j: f"λ_{j}")
    unit = regular_rep(v.group).planes
    form = [(v.trivial + t, t) for t in range(3)
            if v.trivial + t >= 1 and v.planes == tuple((v.trivial + t) * x for x in unit)]
    if form:
        (s, t), = form
        head = rho_sym if s == 1 else f"{s}{rho_sym}"
        return head if t == 0 else f"{head} - {t}"
    terms = [(v.trivial, "")] if v.trivial else []
    terms += [(v.planes[j], lam(j)) for j in range(v.group.k - 1, -1, -1) if v.planes[j]]
    if not terms:
        return "0"
    out = ""
    for i, (m, sym) in enumerate(terms):
        mag = abs(m)
        body = sym if (mag == 1 and sym) else (f"{mag}{sym}" if sym else f"{mag}")
        if i == 0:
            out = body if m > 0 else f"-{body}"
        else:
            out += f" + {body}" if m > 0 else f" - {body}"
    return out


@pytest.mark.parametrize("group", [C3, C9, Group(3, 3), Group(5, 2)], ids=str)
def test_render_forms_match_the_reference(group):
    exact = st.builds(lambda s, t: regular_rep(group, s) - trivial_rep(group, t),
                      st.integers(1, 8), st.integers(0, 2))

    @given(st.one_of(reps(group), exact))
    def check(v):
        display, latex = render_forms(*fields(v))
        assert (display, latex) == (reference_render(v), reference_render(v, latex=True))
        assert render_rep(v) == display

    check()


def test_parse_grammar():
    assert parse_rep("3+2L1+L0", C9) == Rep(C9, 3, (1, 2))
    assert parse_rep("5rho-1", C9) == Rep(C9, 4, (15, 5))
    assert parse_rep("2(rho - 1)", C9) == Rep(C9, 0, (6, 2))
    assert parse_rep("3 + 2λ_1 + λ_0", C9) == Rep(C9, 3, (1, 2))
    assert parse_rep("14ρ−1", C9) == Rep(C9, 13, (42, 14))
    assert parse_rep("-(rho)", C9) == -regular_rep(C9)
    assert parse_rep("V(1,1)@n=7", C9) == slice_rep(C9, 1, slice_params(7, C9)[0])
    assert parse_rep("W@n=16", C9) == n_slice_rep(16, C9)
    assert parse_rep("L2", C9) == trivial_rep(C9, 2)
    assert parse_rep("7", C9) == trivial_rep(C9, 7)


@pytest.mark.parametrize("counted,grouped", [("2W@n=8", "2(W@n=8)"),
                                              ("3V(1,1)@n=7", "3(V(1,1)@n=7)")])
def test_a_count_before_a_slice_term_multiplies_it(counted, grouped):
    count, term = int(grouped[0]), grouped[2:-1]
    assert parse_rep(counted, C9) == parse_rep(grouped, C9) == count * parse_rep(term, C9)


def test_parse_errors():
    with pytest.raises(RepParseError):
        parse_rep("", C9)
    with pytest.raises(RepParseError):
        parse_rep("3+", C9)
    with pytest.raises(RepParseError):
        parse_rep("L5", C9)
    with pytest.raises(RepParseError):
        parse_rep("rho)", C9)
    with pytest.raises(RepParseError):
        parse_rep("2?", C9)
    err = pytest.raises(RepParseError, parse_rep, "rho + !", C9).value
    assert err.pos == 4  # after normalization strips spaces
    # except between two numbers, which a space never joins
    for text, shown, pos in (("1 2L0", "1 2L0", 2), ("2   3", "2 3", 2), ("L1 2", "L1 2", 3)):
        err = pytest.raises(RepParseError, parse_rep, text, C9).value
        assert (err.text, err.pos) == (shown, pos)
    # '*' only joins a count to the term it multiplies
    for text, pos in (("2*3", 2), ("L*1", 0), ("*L1", 0), ("2 * 3", 2), ("2*", 2)):
        err = pytest.raises(RepParseError, parse_rep, text, C9).value
        assert (err.text, err.pos) == (text.replace(" ", ""), pos)
    assert parse_rep("2*L1", C9) == parse_rep("2L1", C9) == rotation_plane(C9, 1, 2)
    assert parse_rep("2 * rho", C9) == regular_rep(C9, 2)
    assert parse_rep("3*(rho - 1)", C9) == 3 * (regular_rep(C9) - trivial_rep(C9))
    assert parse_rep("2 L1", C9) == rotation_plane(C9, 1, 2)
    assert parse_rep("2 rho", C9) == regular_rep(C9, 2)
    assert parse_rep("L1 - L0", C9) == rotation_plane(C9, 1) - rotation_plane(C9, 0)
    assert parse_rep("V(1, 1)@n = 7", C9) == parse_rep("V(1,1)@n=7", C9)


@pytest.mark.parametrize("text,bad", [("rho + !", "!"), ("ρ + λ_0 + ?", "?"),
                                      ("1 2L0", "2"), ("2 3", "3")])
def test_parse_error_position_points_into_the_quoted_text(text, bad):
    err = pytest.raises(RepParseError, parse_rep, text, C9).value
    shown = ast.literal_eval(str(err).rsplit(" in ", 1)[1])
    assert shown[err.pos] == bad


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_parse_inverts_render(group):
    @given(reps(group))
    def check(v):
        assert parse_rep(render_rep(v), group) == v

    check()

