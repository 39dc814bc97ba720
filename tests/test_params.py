"""Tower combinatorics: the count d, the base dimensions m_b, and the
parity and junction identities everything downstream leans on.  The
runtime defines the m_b once, in slicetower.params; the paper's closed
form for d and the junction bookkeeping live in tests/reference_tower.py."""

import copy
import dataclasses
import os
import pickle
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from reference_tower import base_count, connection_gap, ell, parity_offset
from slicetower.group import Group, is_odd_prime, p_adic_val
from slicetower.mackey import constant_Z, restrict_mackey
from slicetower.params import slice_params, stage_count
from slicetower.rep import parse_rep, restrict_rep, trivial_rep
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


def test_a_group_is_one_object_per_p_and_k(package_caches):
    # groups hash and compare by identity, so every way of getting C_{p^k}
    # gives the one object, emptied caches, copies and pickles included
    g = Group(3, 2)
    assert Group(3, 2) is g and Group(p=3, k=2) is g and Group(3, 4).subgroup(2) is g
    assert hash(g) == object.__hash__(g)
    assert g == Group(3, 2) and g != Group(3, 1) and g != Group(5, 2)
    for cache in package_caches:
        cache.cache_clear()
    assert Group(3, 2) is g
    assert copy.copy(g) is g and copy.deepcopy(g) is g and pickle.loads(pickle.dumps(g)) is g
    assert dataclasses.replace(g, k=1) is Group(3, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.k = 3
    for p, k in ((4, 1), (3, -1)):
        with pytest.raises(ValueError):
            Group(p, k)


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
    # d counts the m with the parity of n in [n/p, n-2]
    dims = slice_params(n, Group(*pk))
    p = pk[0]
    direct = [m for m in range(1, n - 1) if (n - m) % 2 == 0 and m * p >= n]
    assert list(dims) == direct
    assert len(dims) == base_count(n, p)
    assert len(dims) >= 1             # m = n - 2 always qualifies
    assert dims[-1] == n - 2


def assert_junction(n, group, a):
    """The reference gap is ell(a, d) - ell(a+1, 1), at most p^(a+1), and
    equal to it exactly when the residue n mod p is 2."""
    p, d = group.p, base_count(n, group.p)
    gap = connection_gap(n, group, a)
    assert gap == ell(n, group, a, d) - ell(n, group, a + 1, 1), (n, group, a)
    assert 0 <= gap <= p ** (a + 1), (n, group, a)
    assert (gap == p ** (a + 1)) == (n % p == 2), (n, group, a)


@pytest.mark.parametrize("p", [q for q in range(3, 60) if is_odd_prime(q)])
def test_base_dimensions_match_the_closed_form_for_every_n(p):
    """The runtime's range m_1, ..., m_d = n - 2 against the paper's d for
    every n >= 3, from one period of n.

    With r = n mod p, n = p * (n // p) + r and p is odd, so n is
    congruent to n // p + r mod 2; the offset is 0, 2 or 1 as r is 0, even
    or odd, so it is congruent to r.  Hence n - n // p - offset is even,
    d = (n - n // p - offset) / 2 exactly, and m_1 = n - 2d = n // p + offset.
    From n to n + 2p, n // p gains 2 and r and the offset stay, so the
    reference d gains p - 1 and m_1 gains 2; the runtime's m_1, the least
    integer of the parity of n at least n/p, gains 2 as well, so its
    (n - m_1) / 2 also gains p - 1.  Checking 3 <= n < 3 + 2p therefore
    covers every n >= 3.  The junction gap ell(a, d) - ell(a + 1, 1) is
    p^a (m_1 p - n + 2) / 2 = p^a (offset * p - r + 2) / 2, which reads n
    only through r, so one period of n covers its identity and bounds too.
    """
    for k in (2, 3):
        group = Group(p, k)
        for n in range(3, 3 + 2 * p):
            dims, d = slice_params(n, group), base_count(n, p)
            assert (len(dims), dims[0]) == (d, n // p + parity_offset(n, p)), (n, k)
            ahead = slice_params(n + 2 * p, group)
            assert len(ahead) == len(dims) + p - 1 == base_count(n + 2 * p, p), (n, k)
            assert ahead[0] == dims[0] + 2, (n, k)
            for a in range(1, k):
                assert_junction(n, group, a)
                assert connection_gap(n + p, group, a) == connection_gap(n, group, a)


def valuation(group, a, m):
    """min(v_p(m), k - a), the twist level of a stage of column a and base
    dimension m, read off its slice's coefficient."""
    return torsion_slice(group, a, m)[0].coeff_i - 1


def test_frozen_examples():
    g = Group(3, 2)
    p7 = slice_params(7, g)
    assert tuple(p7) == (3, 5)
    assert ell(7, g, 1, 2) == 15      # ((7-2)*9 - 5*3) / 2
    assert ell(7, g, 1, 1) == 18
    assert ell(7, g, 2, 1) == 9
    assert ell(7, g, 2, 2) == 0
    assert valuation(g, 2, p7[0]) == 0    # min(v_3(3), k - a) caps at 0
    assert valuation(g, 1, p7[0]) == 1
    assert valuation(g, 1, p7[1]) == 0

    p16 = slice_params(16, g)
    assert tuple(p16) == (6, 8, 10, 12, 14)
    assert len(p16) == 5
    assert ell(16, g, 2, 5) == 0
    assert ell(16, g, 1, 5) == 42
    assert [valuation(g, 1, m) for m in p16] == [1, 0, 0, 1, 0]
    assert [valuation(g, 2, m) for m in p16] == [0, 0, 0, 0, 0]


@given(st.integers(min_value=3, max_value=200),
       st.sampled_from([(3, 2), (3, 3), (5, 2)]))
def test_junction_identity(n, pk):
    group = Group(*pk)
    for a in range(1, group.k):
        assert_junction(n, group, a)


@given(st.integers(min_value=3, max_value=200),
       st.sampled_from([(3, 1), (3, 2), (5, 1), (5, 2)]))
def test_ell_is_monotone_in_stage_order(n, pk):
    # stages ordered by (a desc, b desc) have strictly increasing ell,
    # matching strictly decreasing dimensions
    group = Group(*pk)
    ells = [ell(n, group, a, b)
            for a in range(group.k, 0, -1)
            for b in range(len(slice_params(n, group)), 0, -1)]
    assert ells == sorted(ells)
    assert len(set(ells)) == len(ells)


def test_stage_count_is_the_tower_length():
    from slicetower.tower import build_tower
    for p, k in ((3, 1), (3, 2), (5, 3), (7, 2)):
        g = Group(p, k)
        assert [stage_count(n, g) for n in range(60)] == [len(list(build_tower(n, g).steps()))
                                                         for n in range(60)]
    # closed form, so it answers at once far past any tower one could build:
    # 10^30 is 1 mod 3, so the offset is 1 and the bottom slice is kept
    n = 10**30
    assert stage_count(n, Group(3, 2)) == 2 * ((n - n // 3 - 1) // 2) + 1


def test_index_validation():
    # the parser's V(a,b)@n= term checks n, then a, then b
    g = Group(3, 2)
    for text, message in (("V(0,1)@n=7", "a must be in 1..2, got 0"),
                          ("V(3,3)@n=7", "a must be in 1..2, got 3"),
                          ("V(1,3)@n=7", "b must be in 1..2, got 3"),
                          ("V(0,1)@n=2", "slice parameters are defined for n >= 3, got 2")):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_rep(text, g)
    with pytest.raises(ValueError):
        slice_params(2, g)


def test_invariants_hold_under_python_O():
    # -O strips assert statements; the crossing check raises instead, so a
    # stage whose section lacks the plane it gives up is still refused
    script = textwrap.dedent("""
        import slicetower.tower as tower
        from slicetower.group import Group
        from slicetower.rep import rotation_plane
        group = Group(3, 2)
        own = tower.torsion_slice
        # column 2 of S^7 trades four trivial summands for two level-1
        # planes, so the (2, 1) stage finds three trivial summands left
        move = rotation_plane(group, 1, 2) - rotation_plane(group, 2, 2)
        tower.torsion_slice = lambda g, a, m: (own(g, a, m)[0], move) if a == 2 else own(g, a, m)
        try:
            list(tower.build_tower(7, group).steps())
        except AssertionError as e:
            print(type(e).__name__ + ":", e)
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "InvariantError: exchanging planes across V(2,1) leaves no section of dimension n",
    ]
