"""Mackey functor constructors, the norm axioms, restriction, and the
cokernel presentation of the torsion family."""

import dataclasses

import pytest

from criteria import b_as_cokernel, congruent, validate_mackey
from slicetower.group import Group
from slicetower.mackey import (
    B_ij,
    MackeyFunctor,
    Z_ij,
    constant_Z,
    dual_Z,
    parse_coefficient,
    render_mackey,
    restrict_mackey,
)

C9 = Group(3, 2)


def test_constant_and_dual():
    z = constant_Z(C9)
    assert z.levels == ((0,), (0,), (0,))
    assert z.res == (1, 1)
    assert z.tr == (3, 3)
    assert dual_Z(C9) == Z_ij(2, 0, C9)
    # the family degenerates to the constant functor on the diagonal
    for i in range(3):
        assert Z_ij(i, i, C9) == z


@pytest.mark.parametrize("p", [3, 5])
def test_six_frozen_diagrams(p):
    g = Group(p, 2)
    # integral family: restriction scalars (level 1<-2, 0<-1), then transfers
    expected_z = {
        (2, 1): ([1, p], [p, 1]),
        (2, 0): ([p, p], [1, 1]),
        (1, 0): ([p, 1], [1, p]),
    }
    for (i, j), (res_scalars, tr_scalars) in expected_z.items():
        m = Z_ij(i, j, g)
        assert m.levels == ((0,), (0,), (0,))
        assert list(m.res) == res_scalars
        assert list(m.tr) == tr_scalars
    # torsion family: generator orders bottom-up
    assert B_ij(2, 0, g).levels == ((), (p,), (p * p,))
    assert B_ij(1, 0, g).levels == ((), (p,), (p,))
    assert B_ij(1, 1, g).levels == ((), (), (p,))
    b20 = B_ij(2, 0, g)
    assert b20.res[1] == 1 and b20.tr[1] == p
    b10 = B_ij(1, 0, g)
    assert b10.res[1] == 1 and b10.tr[1] == p


def test_b_matches_cokernel():
    for p in (3, 5):
        for k in (1, 2, 3):
            g = Group(p, k)
            for i in range(1, k + 1):
                for j in range(0, k - i + 1):
                    assert B_ij(i, j, g) == b_as_cokernel(i, j, g)


def test_families_satisfy_axioms():
    for p in (3, 5):
        for k in (1, 2, 3):
            g = Group(p, k)
            validate_mackey(constant_Z(g))
            validate_mackey(dual_Z(g))
            for i in range(k + 1):
                for j in range(i + 1):
                    validate_mackey(Z_ij(i, j, g))
            for i in range(1, k + 1):
                for j in range(0, k - i + 1):
                    validate_mackey(B_ij(i, j, g))


def test_index_validation():
    with pytest.raises(ValueError):
        Z_ij(1, 2, C9)
    with pytest.raises(ValueError):
        Z_ij(3, 0, C9)
    with pytest.raises(ValueError):
        B_ij(0, 1, C9)
    with pytest.raises(ValueError):
        B_ij(2, 1, C9)


def test_restrict_mackey():
    z = constant_Z(C9)
    r = restrict_mackey(z, 1)
    assert r.group == Group(3, 1)
    assert r == constant_Z(Group(3, 1))
    validate_mackey(r)


def test_restriction_cache_is_bounded():
    # the constant functors over C_3^k and C_5^k for k <= 64, each
    # restricted to every level, are more pairs than the cache holds
    for p in (3, 5):
        for k in range(1, 65):
            z = constant_Z(Group(p, k))
            for h in range(k + 1):
                restrict_mackey(z, h)
    info = restrict_mackey.cache_info()
    assert info.misses > info.maxsize >= info.currsize


def test_a_restriction_cache_hit_is_a_fresh_functor():
    # each entry is filled by one functor and hit by an equal one built
    # otherwise; the hit holds, field by field, what a functor built
    # afresh over the subgroup holds
    C27 = Group(3, 3)
    fields = [f.name for f in dataclasses.fields(MackeyFunctor)]
    cases = [(Z_ij(1, 1, C9), constant_Z(C9), 1, MackeyFunctor(Group(3, 1), ((0,), (0,)), (1,), (3,))),
             (B_ij(1, 0, C27), b_as_cokernel(1, 0, C27), 2, MackeyFunctor(C9, ((), (3,), (3,)), (0, 1), (0, 3)))]
    for fill, ask, h, fresh in cases:
        restrict_mackey(fill, h)
        hits = restrict_mackey.cache_info().hits
        hit = restrict_mackey(ask, h)
        assert restrict_mackey.cache_info().hits == hits + 1
        assert [getattr(hit, f) for f in fields] == [getattr(fresh, f) for f in fields]


def test_functors_compare_by_value():
    # equal presentations, built apart or restricted from a larger group,
    # are equal and hash alike
    b = B_ij(1, 0, C9)
    same = [B_ij(1, 0, C9), restrict_mackey(B_ij(1, 0, Group(3, 3)), 2)]
    for other in same:
        assert other == b and hash(other) == hash(b)
    assert len({b, *same}) == 1
    # Z and Z* share their levels, not their maps
    assert constant_Z(C9) != dual_Z(C9)
    assert dual_Z(C9) == Z_ij(2, 0, C9)
    # the group counts too, also where the levels and maps agree
    z3 = constant_Z(Group(3, 1))
    assert z3 != dataclasses.replace(z3, group=Group(5, 1))
    assert z3 != constant_Z(Group(5, 1))
    assert b != "B(1,0)"


def test_validate_rejects_broken_functor():
    bad = MackeyFunctor(
        group=Group(3, 1),
        levels=((0,), (0,)),
        res=(1,),
        tr=(1,),  # res.tr = 1, but the norm is p
    )
    with pytest.raises(AssertionError):
        validate_mackey(bad)


@pytest.mark.parametrize("res, tr", [(1, 0), (0, 3), (1, 3)])
def test_nonzero_map_next_to_a_zero_level_is_rejected(res, tr):
    with pytest.raises(ValueError):
        MackeyFunctor(group=Group(3, 1), levels=((), (3,)), res=(res,), tr=(tr,))
    with pytest.raises(ValueError):
        MackeyFunctor(group=Group(3, 1), levels=((3,), ()), res=(res,), tr=(tr,))
    # zero maps there are fine
    MackeyFunctor(group=Group(3, 1), levels=((), (3,)), res=(0,), tr=(0,))


def test_more_than_one_generator_at_a_level_is_rejected():
    with pytest.raises(ValueError):
        MackeyFunctor(group=Group(3, 1), levels=((0,), (0, 0)), res=(1,), tr=(3,))


def all_families(g: Group) -> dict[str, MackeyFunctor]:
    """Every family over g, by a label of how it was built."""
    k = g.k
    return {"Z": constant_Z(g), "Z*": dual_Z(g),
            **{f"Z({i},{j})": Z_ij(i, j, g) for i in range(k + 1) for j in range(i + 1)},
            **{f"B({i},{j})": B_ij(i, j, g) for i in range(1, k + 1) for j in range(k - i + 1)},
            **{f"coker(Z({i + j},{j}) -> Z)": b_as_cokernel(i, j, g)
               for i in range(1, k + 1) for j in range(k - i + 1)}}


FAMILIES = all_families(Group(3, 3))


@pytest.mark.parametrize("M", list(FAMILIES.values()), ids=list(FAMILIES))
def test_composite(M):
    k = M.group.k
    for m in range(k + 1):
        assert M.composite(m, m) == (1 if M.levels[m] else 0)
    for a in range(k + 1):
        for c in range(k + 1):
            if not (M.levels[a] and M.levels[c]):
                assert M.composite(a, c) == 0
            # through any level between them, in either direction
            for b in range(min(a, c), max(a, c) + 1):
                assert M.composite(a, c) == M.composite(b, c) * M.composite(a, b)
    # one step is the stored map, where both levels are nonzero
    for m in range(k):
        if M.levels[m] and M.levels[m + 1]:
            assert M.composite(m + 1, m) == M.res[m]
            assert M.composite(m, m + 1) == M.tr[m]
    with pytest.raises(ValueError):
        M.composite(0, k + 1)


def test_congruent():
    assert congruent((3,), 4, 1)
    assert not congruent((0,), 4, 1)
    assert congruent((0,), 4, 4)
    assert not congruent((9,), 4, 1)
    # every map into a zero level is the zero map
    assert congruent((), 4, 1)


def test_parse_coefficient():
    assert parse_coefficient("Z", C9) == ("Z", constant_Z(C9))
    assert parse_coefficient("Z*", C9) == ("Z*", dual_Z(C9))
    assert parse_coefficient("Z(2,1)", C9) == ("Z(2,1)", Z_ij(2, 1, C9))
    assert parse_coefficient("B( 1 , 1 )", C9) == ("B(1,1)", B_ij(1, 1, C9))
    # equal functors keep the labels they were asked by
    assert parse_coefficient("Z(0,0)", C9) == ("Z(0,0)", constant_Z(C9))
    assert parse_coefficient("Z(2,0)", C9) == ("Z(2,0)", dual_Z(C9))
    # the label is spelled from the integers read, and int() reads the
    # decimal digits of any script
    for text in ("B(01,0)", "B(1,-0)", "B(１,0)"):
        assert parse_coefficient(text, C9) == ("B(1,0)", B_ij(1, 0, C9))
    with pytest.raises(ValueError):
        parse_coefficient("Q", C9)
    with pytest.raises(ValueError):
        parse_coefficient("B(0,1)", C9)
    with pytest.raises(ValueError):
        parse_coefficient("B(2,2)", C9)
    with pytest.raises(ValueError, match="cannot parse coefficient"):
        parse_coefficient("B(--1,0)", C9)


def test_render_golden():
    assert render_mackey(B_ij(2, 0, C9), "B(2,0)") == (
        "B(2,0) over C_3^2\n"
        "  level 2: Z/9\n"
        "    res 2->1: [1]   tr 1->2: [3]\n"
        "  level 1: Z/3\n"
        "    res 1->0: (0x1)   tr 0->1: (1x0)\n"
        "  level 0: 0\n"
    )
    assert render_mackey(constant_Z(Group(3, 1)), "Z") == (
        "Z over C_3\n"
        "  level 1: Z\n"
        "    res 1->0: [1]   tr 0->1: [3]\n"
        "  level 0: Z\n"
    )
