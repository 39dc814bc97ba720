"""Integer bookkeeping behind the tower of S^n smashed with HZ.

For a suspension degree n >= 3 the tower is indexed by pairs (a, b)
with 1 <= a <= k and 1 <= b <= d, where d counts the integers of the
same parity as n lying in the closed interval [n/p, n-2].  Those
integers are m_1 < ... < m_d; the (a, b) stage sits in dimension
m_b * p^a - 1.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .group import Group


def parity_offset(n: int, p: int) -> int:
    """The correction term making (n - (n - n0)/p - offset)/2 count d.

    0 when p divides n, otherwise 2 or 1 according to whether the
    residue n0 = n mod p is even or odd.  The n0 = 0 test must come
    first since 0 is even.
    """
    n0 = n % p
    if n0 == 0:
        return 0
    return 2 if n0 % 2 == 0 else 1


def base_count(n: int, p: int) -> int:
    """d for n >= 3 by the closed formula (n - (n - n0)/p - offset)/2."""
    return (n - n // p - parity_offset(n, p)) // 2


def stage_count(n: int, group: Group) -> int:
    """The stages of the tower of S^n in closed form, for any n: k*d, less
    one when p divides n, and the integral slice at the bottom."""
    return 1 if n <= 2 else group.k * base_count(n, group.p) + (n % group.p != 0)


@dataclass(frozen=True)
class SliceParams:
    """Value object carrying the tower combinatorics of one (n, group).

    base_dims is the range m_1, m_1 + 2, ..., m_d = n - 2.  The
    stage (a, b) of the tower lives in dimension base_dims[b-1] * p^a - 1.
    """

    group: Group
    n: int
    base_dims: range

    @property
    def count(self) -> int:
        """d, the number of base dimensions."""
        return len(self.base_dims)

    def ell(self, a: int, b: int) -> int:
        """Half the gap between the top stage dimension and stage (a, b):
        ((n-2)p^k - m_b p^a) / 2, always a nonnegative integer."""
        p, k = self.group.p, self.group.k
        num = (self.n - 2) * p**k - self.base_dim(a, b) * p**a
        if num % 2 or num < 0:
            raise AssertionError(f"ell({a}, {b}) is not a nonnegative integer: {num}/2")
        return num // 2

    def connection_gap(self, a: int) -> int:
        """ell(a, d) - ell(a+1, 1): the jump between consecutive a-blocks.

        In closed form, with residue = n mod p, this is
        (p^a / 2)(parity_offset * p - residue + 2): at most p^(a+1), with
        equality exactly when the residue is 2.
        """
        if not 1 <= a <= self.group.k - 1:
            raise ValueError(f"a must be in 1..{self.group.k - 1}, got {a}")
        p, residue = self.group.p, self.n % self.group.p
        gap = (p**a * (parity_offset(self.n, p) * p - residue + 2)) // 2
        if gap != self.ell(a, self.count) - self.ell(a + 1, 1):
            raise AssertionError(f"connection_gap({a}) = {gap} is not "
                                 f"ell({a}, {self.count}) - ell({a + 1}, 1)")
        if gap > p ** (a + 1):
            raise AssertionError(f"connection_gap({a}) = {gap} exceeds p^{a + 1}")
        if (gap == p ** (a + 1)) != (residue == 2):
            raise AssertionError(f"connection_gap({a}) = {gap} against p^{a + 1} with residue "
                                 f"{residue}: they are equal exactly when the residue is 2")
        return gap

    def base_dim(self, a: int, b: int) -> int:
        """m_b, the base dimension of stage (a, b), once a and then b are
        checked."""
        if not 1 <= a <= self.group.k:
            raise ValueError(f"a must be in 1..{self.group.k}, got {a}")
        if not 1 <= b <= self.count:
            raise ValueError(f"b must be in 1..{self.count}, got {b}")
        return self.base_dims[b - 1]


def slice_params(n: int, group: Group) -> SliceParams:
    """Compute d and the m_b list for S^n over group.

    Requires n >= 3 (towers for smaller n are handled directly by the
    tower module and need none of this).  d is computed by the closed
    formula and revalidated by direct counting so a transcription slip
    fails loudly here instead of corrupting towers downstream.
    """
    if group.k < 1:
        raise ValueError("slice parameters need a nontrivial group")
    if n < 3:
        raise ValueError(f"slice parameters are defined for n >= 3, got {n}")
    p = group.p
    d = base_count(n, p)
    if d > sys.maxsize:
        raise ValueError(f"n = {n} is too large: its {d} base dimensions do not fit in a range")
    # Independent count: same parity as n, n/p <= m <= n-2 (lower bound
    # attainable only when p | n), as a range from the least such m.
    least = -(-n // p)
    direct = range(least + (n - least) % 2, n - 1, 2)
    if len(direct) != d:
        raise AssertionError(f"closed-form count d = {d} for n = {n} over {group}, "
                             f"direct count {len(direct)}")
    return SliceParams(group=group, n=n, base_dims=direct)
