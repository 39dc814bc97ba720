"""Mackey functors for C_{p^k} with explicit integer matrices.

A functor is stored by its value at each subgroup level together with
restriction and transfer.  Every coefficient the verifier uses (Z, Z*,
Z(i,j), B(i,j)) has trivial Weyl action, so none is recorded.  Level m
is the value at the orbit G/C_{p^m}, so level 0 is the underlying
abelian group and level k the fixed points.  Values are presented by
generator orders (0 meaning an infinite cyclic summand), maps by
integer matrices acting on those generators.

Every named functor (Z, Z*, Z(i,j), B(i,j) and the cokernel
presentation of B(i,j)) has at most one generator per level, so they
all come from one builder, _cyclic_functor, which takes the order at
each level and the restriction and transfer scalars.

Functors compare and hash by value, not by name: two are equal when
they have the same group, generator orders and restriction and
transfer entries.  So B(1,0) over C_27 restricted to C_9 equals B(1,0)
over C_9, while Z and Z* differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .abelian import AbGroup, Mat, divides
from .group import Group


@dataclass(frozen=True, eq=False)
class MackeyFunctor:
    group: Group
    levels: tuple[tuple[int, ...], ...]  # generator orders; levels[m] for G/C_{p^m}
    res: tuple[Mat, ...]                 # res[m]: level m+1 -> level m
    tr: tuple[Mat, ...]                  # tr[m]: level m -> level m+1
    name: str = ""

    def __post_init__(self) -> None:
        k = self.group.k
        if len(self.levels) != k + 1 or len(self.res) != k or len(self.tr) != k:
            raise ValueError("level or map count mismatch")
        for m in range(k):
            lo, hi = len(self.levels[m]), len(self.levels[m + 1])
            if (self.res[m].r, self.res[m].c) != (lo, hi):
                raise ValueError(f"res[{m}] has shape {self.res[m].r}x{self.res[m].c}, expected {lo}x{hi}")
            if (self.tr[m].r, self.tr[m].c) != (hi, lo):
                raise ValueError(f"tr[{m}] has shape {self.tr[m].r}x{self.tr[m].c}, expected {hi}x{lo}")
        # the value equality and hashing read, built once: Mat is mutable
        # and has no hash, so the entries are copied, in one flat tuple
        # that the levels, which fix every shape, make unambiguous
        object.__setattr__(self, "_value", (self.group, self.levels, tuple(
            x for f in self.res + self.tr for row in f.a for x in row)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MackeyFunctor):
            return NotImplemented
        return self._value == other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def gens(self, m: int) -> int:
        return len(self.levels[m])

    def level_group(self, m: int) -> AbGroup:
        return AbGroup.from_orders(self.levels[m])

    def composite(self, src: int, dst: int) -> Mat:
        """Composite map from level src to level dst: transfers going
        up, restrictions going down, the identity when src == dst."""
        if not (0 <= src <= self.group.k and 0 <= dst <= self.group.k):
            raise ValueError("bad composite levels")
        out = Mat.identity(self.gens(src))
        for m in range(src, dst):
            out = self.tr[m].times(out)
        for m in range(src - 1, dst - 1, -1):
            out = self.res[m].times(out)
        return out

    def __str__(self) -> str:
        return render_mackey(self)


def _cyclic_functor(group: Group, orders: list[int], res_scalars: list[int],
                    tr_scalars: list[int], name: str) -> MackeyFunctor:
    """One generator of orders[m] at each level m, none where the order
    is 1; restriction and transfer are the given scalars between levels
    that both have a generator, empty maps elsewhere."""
    levels = tuple(() if q == 1 else (q,) for q in orders)
    res, tr = [], []
    for m in range(group.k):
        lo, hi = len(levels[m]), len(levels[m + 1])
        res.append(Mat(lo, hi, [[res_scalars[m]]] if lo and hi else None))
        tr.append(Mat(hi, lo, [[tr_scalars[m]]] if lo and hi else None))
    return MackeyFunctor(group, levels, tuple(res), tuple(tr), name)


def constant_Z(group: Group) -> MackeyFunctor:
    """Z at every level, restriction the identity, transfer by p."""
    return _cyclic_functor(group, [0] * (group.k + 1), [1] * group.k, [group.p] * group.k, "Z")


def Z_ij(i: int, j: int, group: Group) -> MackeyFunctor:
    """The integral family interpolating between the constant functor
    and its dual: restriction is multiplication by p on levels j..i-1
    and the identity elsewhere, transfer the other way around."""
    if not 0 <= j <= i <= group.k:
        raise ValueError(f"need 0 <= j <= i <= k, got i={i}, j={j}, k={group.k}")
    p = group.p
    res_scalars = [1 if m < j else p if m < i else 1 for m in range(group.k)]
    tr_scalars = [p if m < j else 1 if m < i else p for m in range(group.k)]
    return _cyclic_functor(group, [0] * (group.k + 1), res_scalars, tr_scalars, f"Z({i},{j})")


def dual_Z(group: Group) -> MackeyFunctor:
    return replace(Z_ij(group.k, 0, group), name="Z*")


def B_ij(i: int, j: int, group: Group) -> MackeyFunctor:
    """The torsion family: zero through level j, then growing cyclic
    p-groups capped at order p^i from level i+j upward.  Restriction is
    the canonical quotient, transfer multiplication by p."""
    if not (i >= 1 and j >= 0 and i + j <= group.k):
        raise ValueError(f"need i >= 1, j >= 0, i + j <= k, got i={i}, j={j}, k={group.k}")
    p, k = group.p, group.k
    orders = [1 if m <= j else p ** min(m - j, i) for m in range(k + 1)]
    return _cyclic_functor(group, orders, [1] * k, [p] * k, f"B({i},{j})")


def parse_coefficient(text: str, group: Group) -> MackeyFunctor:
    """Names accepted on the command line: Z, Z*, Z(i,j), B(i,j)."""
    s = text.replace(" ", "")
    if s == "Z":
        return constant_Z(group)
    if s == "Z*":
        return dual_Z(group)
    for head, ctor in (("Z", Z_ij), ("B", B_ij)):
        if s.startswith(head + "(") and s.endswith(")"):
            body = s[len(head) + 1:-1].split(",")
            if len(body) == 2 and all(x.lstrip("-").isdigit() for x in body):
                return ctor(int(body[0]), int(body[1]), group)
    raise ValueError(f"cannot parse coefficient {text!r}; expected Z, Z*, Z(i,j), or B(i,j)")


# --- restriction -------------------------------------------------------------

def restrict_mackey(M: MackeyFunctor, h: int) -> MackeyFunctor:
    """Restrict to C_{p^h}: keep the bottom h+1 levels."""
    if not 0 <= h <= M.group.k:
        raise ValueError(f"no subgroup at level {h}")
    return MackeyFunctor(
        group=M.group.subgroup(h),
        levels=M.levels[: h + 1],
        res=M.res[:h],
        tr=M.tr[:h],
        name=f"res({M.name}, {h})" if M.name else "",
    )


# --- the cokernel presentation of the torsion family ------------------------

def b_as_cokernel(i: int, j: int, group: Group) -> MackeyFunctor:
    """Levelwise cokernel of the map Z(i+j, j) -> Z sending 1 to 1 at
    level 0, extended upward by commuting with restriction."""
    src = Z_ij(i + j, j, group)
    dst = constant_Z(group)
    phi = [1]
    for m in range(group.k):
        r_src = src.res[m].a[0][0]
        r_dst = dst.res[m].a[0][0]
        lifted = phi[m] * r_src
        if lifted % r_dst:
            raise AssertionError(f"the map does not commute with restriction {m + 1} -> {m}")
        phi.append(lifted // r_dst)
        # the same scalar must intertwine the transfers
        if phi[m + 1] * src.tr[m].a[0][0] != dst.tr[m].a[0][0] * phi[m]:
            raise AssertionError(f"the map does not commute with transfer {m} -> {m + 1}")
    return _cyclic_functor(group, phi, [r.a[0][0] for r in dst.res], [t.a[0][0] for t in dst.tr],
                           f"coker(Z({i + j},{j}) -> Z)")


def maps_equal_mod(target_orders: tuple[int, ...], A: Mat, B: Mat) -> bool:
    """Equality of matrices as maps into a group with the given
    generator orders: rows are compared modulo the order (0 = exact)."""
    if (A.r, A.c) != (B.r, B.c) or A.r != len(target_orders):
        return False
    for idx, d in enumerate(target_orders):
        for jdx in range(A.c):
            if not divides(d, A.a[idx][jdx] - B.a[idx][jdx]):
                return False
    return True


def mackey_equal(A: MackeyFunctor, B: MackeyFunctor) -> bool:
    """Same presentation up to congruence of map entries; generator
    counts must agree levelwise."""
    if A.group != B.group or A.levels != B.levels:
        return False
    for m in range(A.group.k):
        if not maps_equal_mod(A.levels[m], A.res[m], B.res[m]):
            return False
        if not maps_equal_mod(A.levels[m + 1], A.tr[m], B.tr[m]):
            return False
    return True


def validate_mackey(M: MackeyFunctor) -> None:
    """Structural checks: with trivial Weyl action the norm is p times
    the identity, so restriction and transfer must compose to p in
    either order."""
    p = M.group.p
    for m in range(M.group.k):
        lo, hi = M.levels[m], M.levels[m + 1]
        if not maps_equal_mod(lo, M.res[m].times(M.tr[m]), Mat.identity(len(lo)).scaled(p)):
            raise AssertionError(f"{M.name}: res.tr at level {m} is not the norm")
        if not maps_equal_mod(hi, M.tr[m].times(M.res[m]), Mat.identity(len(hi)).scaled(p)):
            raise AssertionError(f"{M.name}: tr.res at level {m + 1} is not the norm")


# --- display -----------------------------------------------------------------

def _fmt_mat(mat: Mat) -> str:
    if mat.r == 0 or mat.c == 0:
        return f"({mat.r}x{mat.c})"
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in mat.a) + "]"


def render_mackey(M: MackeyFunctor) -> str:
    """Text Lewis diagram, fixed points at the top."""
    head = f"{M.name or 'Mackey functor'} over {M.group}"
    lines = [head]
    for m in range(M.group.k, -1, -1):
        lines.append(f"  level {m}: {M.level_group(m)}")
        if m > 0:
            lines.append(f"    res {m}->{m - 1}: {_fmt_mat(M.res[m - 1])}"
                         f"   tr {m - 1}->{m}: {_fmt_mat(M.tr[m - 1])}")
    return "\n".join(lines) + "\n"
