"""The base dimensions of the tower of S^n smashed with HZ.

For a suspension degree n >= 3 the tower is indexed by pairs (a, b)
with 1 <= a <= k and 1 <= b <= d, where d counts the integers of the
same parity as n lying in the closed interval [n/p, n-2].  Those
integers are m_1 < ... < m_d; the (a, b) stage sits in dimension
m_b * p^a - 1.  This module is their one definition: slice_params
gives them as a range, and stage_count counts the stages from m_1 by
exact integer arithmetic, without building a tower.
"""

from __future__ import annotations

import sys

from .group import Group


def _least_m(n: int, p: int) -> int:
    """m_1, the least integer of the parity of n that is at least n/p."""
    least = -(-n // p)
    return least + (n - least) % 2


def stage_count(n: int, group: Group) -> int:
    """The stages of the tower of S^n, for any n, without building it:
    k*d, less one when p divides n, and the integral slice at the bottom."""
    if n <= 2:
        return 1
    return group.k * ((n - _least_m(n, group.p)) // 2) + (n % group.p != 0)


def slice_params(n: int, group: Group) -> range:
    """The base dimensions m_1, m_1 + 2, ..., m_d = n - 2 of S^n over group.

    Requires n >= 3 (towers for smaller n are handled directly by the
    tower module and need none of this), and a d that a range can count.
    """
    if group.k < 1:
        raise ValueError("slice parameters need a nontrivial group")
    if n < 3:
        raise ValueError(f"slice parameters are defined for n >= 3, got {n}")
    least = _least_m(n, group.p)
    d = (n - least) // 2
    if d > sys.maxsize:
        raise ValueError(f"n = {n} is too large: its {d} base dimensions do not fit in a range")
    return range(least, n - 1, 2)
