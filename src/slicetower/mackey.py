"""Mackey functors for C_{p^k} with at most one generator per level.

A functor is stored by its value at each subgroup level together with
restriction and transfer.  Every coefficient the verifier uses (Z, Z*,
Z(i,j), B(i,j)) has trivial Weyl action, so none is recorded.  Level m
is the value at the orbit G/C_{p^m}, so level 0 is the underlying
abelian group and level k the fixed points.  Each of these families
(Z, Z*, Z(i,j), B(i,j)) is cyclic at each level, so a level is () for
zero or (order,) for one generator of that order (0 meaning infinite
cyclic), and restriction and transfer are integers, 0 next to a zero
level.  They all come from one builder, _cyclic_functor, which takes
the order at each level and the restriction and transfer scalars.  The
CLI still prints each map as a 1x1 matrix, or as an empty one next to
a zero level.

Functors carry no name and compare and hash by value: two are equal
when they have the same group, generator orders and restriction and
transfer scalars.  So B(1,0) over C_27 restricted to C_9 equals B(1,0)
over C_9, and Z equals Z(0,0), while Z and Z* differ.  Z_ij and B_ij
are cached, so every caller shares one functor per (i, j, group).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .abelian import AbGroup
from .group import Group


@dataclass(frozen=True)
class MackeyFunctor:
    group: Group
    levels: tuple[tuple[int, ...], ...]  # () or (order,); levels[m] for G/C_{p^m}
    res: tuple[int, ...]                 # res[m]: level m+1 -> level m
    tr: tuple[int, ...]                  # tr[m]: level m -> level m+1

    def __post_init__(self) -> None:
        k = self.group.k
        if (len(self.levels) != k + 1 or len(self.res) != k or len(self.tr) != k
                or any(len(level) > 1 for level in self.levels)):
            raise ValueError("level, generator or map count mismatch")
        for m in range(k):
            if not (self.levels[m] and self.levels[m + 1]) and (self.res[m] or self.tr[m]):
                raise ValueError(f"res[{m}] and tr[{m}] must be 0 next to a zero level")

    def level_group(self, m: int) -> AbGroup:
        return AbGroup(self.levels[m])

    def composite(self, src: int, dst: int) -> int:
        """Composite map from level src to level dst: transfers going
        up, restrictions going down, 1 when src == dst, and 0 from or
        to a zero level."""
        if not (0 <= src <= self.group.k and 0 <= dst <= self.group.k):
            raise ValueError("bad composite levels")
        out = 1 if self.levels[src] else 0
        for m in range(src, dst):
            out *= self.tr[m]
        for m in range(src - 1, dst - 1, -1):
            out *= self.res[m]
        return out


def _cyclic_functor(group: Group, orders: list[int], res_scalars: list[int],
                    tr_scalars: list[int]) -> MackeyFunctor:
    """One generator of orders[m] at each level m, none where the order
    is 1; restriction and transfer are the given scalars between levels
    that both have a generator, 0 elsewhere."""
    levels = tuple(() if q == 1 else (q,) for q in orders)

    def maps(scalars: list[int]) -> tuple[int, ...]:
        return tuple(x if levels[m] and levels[m + 1] else 0 for m, x in enumerate(scalars))

    return MackeyFunctor(group, levels, maps(res_scalars), maps(tr_scalars))


@functools.lru_cache(maxsize=1 << 12)
def Z_ij(i: int, j: int, group: Group) -> MackeyFunctor:
    """The integral family interpolating between the constant functor
    and its dual: restriction is multiplication by p on levels j..i-1
    and the identity elsewhere, transfer the other way around."""
    if not 0 <= j <= i <= group.k:
        raise ValueError(f"need 0 <= j <= i <= k, got i={i}, j={j}, k={group.k}")
    p = group.p
    res_scalars = [1 if m < j else p if m < i else 1 for m in range(group.k)]
    tr_scalars = [p if m < j else 1 if m < i else p for m in range(group.k)]
    return _cyclic_functor(group, [0] * (group.k + 1), res_scalars, tr_scalars)


def constant_Z(group: Group) -> MackeyFunctor:
    """Z at every level, restriction the identity, transfer by p."""
    return Z_ij(0, 0, group)


def dual_Z(group: Group) -> MackeyFunctor:
    return Z_ij(group.k, 0, group)


@functools.lru_cache(maxsize=1 << 12)
def B_ij(i: int, j: int, group: Group) -> MackeyFunctor:
    """The torsion family: zero through level j, then growing cyclic
    p-groups capped at order p^i from level i+j upward.  Restriction is
    the canonical quotient, transfer multiplication by p."""
    if not (i >= 1 and j >= 0 and i + j <= group.k):
        raise ValueError(f"need i >= 1, j >= 0, i + j <= k, got i={i}, j={j}, k={group.k}")
    p, k = group.p, group.k
    orders = [1 if m <= j else p ** min(m - j, i) for m in range(k + 1)]
    return _cyclic_functor(group, orders, [1] * k, [p] * k)


def parse_coefficient(text: str, group: Group) -> tuple[str, MackeyFunctor]:
    """Names accepted on the command line: Z, Z*, Z(i,j), B(i,j), each
    with the label spelled from what was read: B( 1 , 0 ) is B(1,0)."""
    s = text.replace(" ", "")
    if s == "Z":
        return "Z", constant_Z(group)
    if s == "Z*":
        return "Z*", dual_Z(group)
    for head, ctor in (("Z", Z_ij), ("B", B_ij)):
        if s.startswith(head + "(") and s.endswith(")"):
            body = s[len(head) + 1:-1].split(",")
            if len(body) == 2 and all(x.removeprefix("-").isdecimal() for x in body):
                i, j = int(body[0]), int(body[1])
                return f"{head}({i},{j})", ctor(i, j, group)
    raise ValueError(f"cannot parse coefficient {text!r}; expected Z, Z*, Z(i,j), or B(i,j)")


# --- restriction -------------------------------------------------------------

@functools.lru_cache(maxsize=1 << 12)
def restrict_mackey(M: MackeyFunctor, h: int) -> MackeyFunctor:
    """Restrict to C_{p^h}: keep the bottom h+1 levels."""
    if not 0 <= h <= M.group.k:
        raise ValueError(f"no subgroup at level {h}")
    return MackeyFunctor(
        group=M.group.subgroup(h),
        levels=M.levels[: h + 1],
        res=M.res[:h],
        tr=M.tr[:h],
    )


# --- display -----------------------------------------------------------------

def _fmt_map(x: int, src: tuple[int, ...], dst: tuple[int, ...]) -> str:
    """A map between two levels as the CLI prints it: a 1x1 matrix, or
    the shape of an empty one."""
    return f"[{x}]" if src and dst else f"({len(dst)}x{len(src)})"


def render_mackey(M: MackeyFunctor, label: str) -> str:
    """Text Lewis diagram, fixed points at the top, under the label."""
    lines = [f"{label} over {M.group}"]
    for m in range(M.group.k, -1, -1):
        lines.append(f"  level {m}: {M.level_group(m)}")
        if m > 0:
            hi, lo = M.levels[m], M.levels[m - 1]
            lines.append(f"    res {m}->{m - 1}: {_fmt_map(M.res[m - 1], hi, lo)}"
                         f"   tr {m - 1}->{m}: {_fmt_map(M.tr[m - 1], lo, hi)}")
    return "\n".join(lines) + "\n"
