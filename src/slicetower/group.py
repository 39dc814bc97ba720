"""The ambient cyclic group C_{p^k}, p-adic valuations, and InvariantError."""

from __future__ import annotations

import weakref
from dataclasses import dataclass


class InvariantError(AssertionError):
    """A broken invariant: raised, not asserted, so python -O keeps the check."""


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def p_adic_val(i: int, p: int) -> int:
    """Largest e with p^e dividing i.  Requires i >= 1."""
    if i < 1:
        raise ValueError(f"p_adic_val needs a positive integer, got {i}")
    e = 0
    while i % p == 0:
        i //= p
        e += 1
    return e


@dataclass(frozen=True, eq=False, init=False)
class Group:
    """The cyclic group C_{p^k} for an odd prime p.

    k = 0 (the trivial group) is permitted so that restriction to
    subgroups bottoms out cleanly; user-facing entry points insist on
    k >= 1.  Group(p, k) returns the process's one object for C_{p^k},
    so groups hash and compare by identity, at C speed; copies and
    pickles come back as that object too.
    """

    p: int
    k: int

    def __new__(cls, p: int, k: int) -> "Group":
        group = _GROUPS.get((p, k))
        if group is None:
            if not is_odd_prime(p):
                raise ValueError(f"p must be an odd prime, got {p}")
            if k < 0:
                raise ValueError(f"k must be nonnegative, got {k}")
            group = super().__new__(cls)
            object.__setattr__(group, "p", p)
            object.__setattr__(group, "k", k)
            _GROUPS[p, k] = group
        return group

    def __reduce__(self) -> tuple:
        return Group, (self.p, self.k)

    @property
    def order(self) -> int:
        return self.p**self.k

    def index(self, h: int) -> int:
        """p^(k - h), the number of points of the orbit G/C_{p^h}."""
        return self.p ** (self.k - h)

    def subgroup(self, m: int) -> "Group":
        """The subgroup C_{p^m}, for 0 <= m <= k."""
        if not 0 <= m <= self.k:
            raise ValueError(f"no subgroup level {m} in C_{self.p}^{self.k}")
        return Group(self.p, m)

    def __repr__(self) -> str:
        return f"C_{self.p}^{self.k}" if self.k != 1 else f"C_{self.p}"


# the live groups by (p, k): a group is dropped once nothing holds it, so the
# table grows only with what is in use, and no value can hold a dropped group
# for a later Group(p, k) to be compared with
_GROUPS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
