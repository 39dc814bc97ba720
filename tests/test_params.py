"""Tower combinatorics: the count d, the base dimensions m_b, and the
parity and junction identities everything downstream leans on."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from slicetower.group import Group, is_odd_prime, p_adic_val
from slicetower.mackey import constant_Z, restrict_mackey
from slicetower.params import parity_offset, slice_params, stage_count
from slicetower.rep import restrict_rep, trivial_rep
from slicetower.tower import torsion_slice

SRC = Path(__file__).resolve().parents[1] / "src"

GROUPS = [Group(3, 1), Group(3, 2), Group(5, 1), Group(5, 2), Group(7, 1), Group(3, 3)]


def test_is_odd_prime():
    assert [q for q in range(2, 30) if is_odd_prime(q)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)
    assert not is_odd_prime(-3)


def test_p_adic_val():
    assert p_adic_val(1, 3) == 0
    assert p_adic_val(18, 3) == 2
    assert p_adic_val(250, 5) == 3
    with pytest.raises(ValueError):
        p_adic_val(0, 3)


def test_group_basics():
    g = Group(3, 2)
    assert g.order == 9
    assert g.subgroup(1) == Group(3, 1)
    assert g.subgroup(0).order == 1
    assert str(g) == "C_3^2"
    assert str(Group(5, 1)) == "C_5"


def test_equal_subgroups_are_one_object():
    g = Group(3, 3)
    assert g.subgroup(1) is g.subgroup(1)
    assert Group(3, 3).subgroup(2) is Group(3, 4).subgroup(2)
    assert restrict_rep(trivial_rep(g, 1), 1).group is restrict_mackey(constant_Z(g), 1).group
    for m in (-1, 4):
        with pytest.raises(ValueError):
            g.subgroup(m)


def test_parity_offset_cases():
    # n0 = 0 wins over the even test: 0 is even but the offset is 0
    assert parity_offset(9, 3) == 0
    assert parity_offset(7, 3) == 1
    assert parity_offset(8, 3) == 2
    assert parity_offset(10, 5) == 0
    assert parity_offset(12, 5) == 2


@given(st.integers(min_value=3, max_value=400),
       st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]))
def test_count_matches_direct_enumeration(n, pk):
    # d counts the m with the parity of n in [n/p, n-2]; the constructor
    # cross-checks the closed form against this list internally
    params = slice_params(n, Group(*pk))
    p = pk[0]
    direct = [m for m in range(1, n - 1) if (n - m) % 2 == 0 and m * p >= n]
    assert params.count == len(direct)
    assert list(params.base_dims) == direct
    assert params.count >= 1          # m = n - 2 always qualifies
    assert params.base_dims[-1] == n - 2


def valuation(params, a, b):
    """min(v_p(m_b), k - a), the twist level of stage (a, b), read off its slice's coefficient."""
    return torsion_slice(params.group, a, params.base_dim(a, b)).coeff_i - 1


def test_frozen_examples():
    p7 = slice_params(7, Group(3, 2))
    assert tuple(p7.base_dims) == (3, 5)
    assert p7.ell(1, 2) == 15         # ((7-2)*9 - 5*3) / 2
    assert p7.ell(1, 1) == 18
    assert p7.ell(2, 1) == 9
    assert p7.ell(2, 2) == 0
    assert valuation(p7, 2, 1) == 0    # min(v_3(3), k - a) caps at 0
    assert valuation(p7, 1, 1) == 1
    assert valuation(p7, 1, 2) == 0

    p16 = slice_params(16, Group(3, 2))
    assert tuple(p16.base_dims) == (6, 8, 10, 12, 14)
    assert p16.count == 5
    assert p16.ell(2, 5) == 0
    assert p16.ell(1, 5) == 42
    assert [valuation(p16, 1, b) for b in range(1, 6)] == [1, 0, 0, 1, 0]
    assert [valuation(p16, 2, b) for b in range(1, 6)] == [0, 0, 0, 0, 0]


@given(st.integers(min_value=3, max_value=200),
       st.sampled_from([(3, 2), (3, 3), (5, 2)]))
def test_junction_identity(n, pk):
    params = slice_params(n, Group(*pk))
    # connection_gap asserts gap == ell(a, d) - ell(a+1, 1) internally,
    # plus the bound gap <= p^(a+1) with equality iff residue == 2
    for a in range(1, params.group.k):
        gap = params.connection_gap(a)
        assert gap >= 0


@given(st.integers(min_value=3, max_value=200),
       st.sampled_from([(3, 1), (3, 2), (5, 1), (5, 2)]))
def test_ell_is_monotone_in_stage_order(n, pk):
    # stages ordered by (a desc, b desc) have strictly increasing ell,
    # matching strictly decreasing dimensions
    params = slice_params(n, Group(*pk))
    ells = [params.ell(a, b)
            for a in range(params.group.k, 0, -1)
            for b in range(params.count, 0, -1)]
    assert ells == sorted(ells)
    assert len(set(ells)) == len(ells)


def test_stage_count_is_the_tower_length():
    from slicetower.tower import build_tower
    for p, k in ((3, 1), (3, 2), (5, 3), (7, 2)):
        g = Group(p, k)
        assert [stage_count(n, g) for n in range(60)] == [len(build_tower(n, g).stages)
                                                         for n in range(60)]
    # closed form, so it answers at once far past any tower one could build:
    # 10^30 is 1 mod 3, so the offset is 1 and the bottom slice is kept
    n = 10**30
    assert stage_count(n, Group(3, 2)) == 2 * ((n - n // 3 - 1) // 2) + 1


def test_index_validation():
    params = slice_params(7, Group(3, 2))
    with pytest.raises(ValueError):
        params.ell(0, 1)
    with pytest.raises(ValueError):
        params.ell(3, 1)
    with pytest.raises(ValueError):
        params.ell(1, 3)
    with pytest.raises(ValueError):
        slice_params(2, Group(3, 2))


def test_invariants_hold_under_python_O():
    # -O strips assert statements; a wrong parity offset would then give
    # slice_params(8, C_3) the base dimensions (2, 4, 6) without a word
    script = textwrap.dedent("""
        from slicetower import params
        from slicetower.group import Group
        parity_offset = params.parity_offset
        params.parity_offset = lambda n, p: 0
        try:
            params.slice_params(8, Group(3, 1))
        except AssertionError as e:
            print("count:", e)
        params.parity_offset = parity_offset
        try:
            params.SliceParams(Group(3, 1), 8, (3,)).ell(1, 1)
        except AssertionError as e:
            print("ell:", e)
        # S^7 over C_9 has residue 1 and offset 1; offset 2 breaks the gap
        s7 = params.slice_params(7, Group(3, 2))
        params.parity_offset = lambda n, p: 2
        try:
            s7.connection_gap(1)
        except AssertionError as e:
            print("gap:", e)
        params.parity_offset = parity_offset
        from dataclasses import replace
        from slicetower.rep import trivial_rep
        from slicetower.tower import _exchange, build_tower
        group = Group(3, 2)
        tower = build_tower(7, group)
        # the (2, 1) slice trades two trivial summands for a plane at level 1
        try:
            _exchange(replace(tower.stages[1], section=trivial_rep(group, 1)))
        except AssertionError as e:
            print("exchange:", e)
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "count: closed-form count d = 3 for n = 8 over C_3, direct count 2",
        "ell: ell(1, 1) is not a nonnegative integer: 9/2",
        "gap: connection_gap(1) = 10 is not ell(1, 2) - ell(2, 1)",
        "exchange: exchanging planes across V(2,1) leaves no section of dimension n",
    ]
