"""Exact integer linear algebra and finitely generated abelian groups.

Everything here runs over Python's arbitrary-precision integers; no
floating point, no modular shortcuts.  Where only a group is read,
invariant_factors eliminates sparse rows and keeps no transform.  Smith
normal form, for the generators of homology.bredon_homology, tracks
U and V with U A V = S as well, to solve linear systems and find
kernels.  One list of rows carries all three: [S | U] for each row of
A, then the rows of V.  Row operations act on S | U, column operations
on the first A.c entries of every row, so S and V change in one loop.

Lattice bases are preimage lattices {x : T x in the span of the
orders[i] * e_i}, read off the kernel of T next to those relation
columns, which with_relations alone stacks.

Linear systems are solved in blocks: A is factored once, and every
right-hand side is a column of one matrix B, so the solution is the
two products U B and V Z around a single divisibility pass over the
rows of U B.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence


def divides(d: int, x: int) -> bool:
    """Whether d divides x in Z; 0 divides only 0."""
    return x % d == 0 if d else x == 0


class Mat:
    """Dense integer matrix.  Rows of length c, possibly r = 0 or c = 0."""

    __slots__ = ("r", "c", "a")

    def __init__(self, r: int, c: int, rows: Sequence[Sequence[int]] | None = None):
        self.r = r
        self.c = c
        if rows is None:
            self.a = [[0] * c for _ in range(r)]
        else:
            self.a = [list(row) for row in rows]
            if len(self.a) != r or any(len(row) != c for row in self.a):
                raise ValueError(f"shape mismatch: expected {r}x{c}")

    @classmethod
    def identity(cls, n: int) -> "Mat":
        m = cls(n, n)
        for i in range(n):
            m.a[i][i] = 1
        return m

    def times(self, other: "Mat") -> "Mat":
        if self.c != other.r:
            raise ValueError(f"cannot multiply {self.r}x{self.c} by {other.r}x{other.c}")
        out = Mat(self.r, other.c)
        for i in range(self.r):
            row = self.a[i]
            orow = out.a[i]
            for t in range(self.c):
                x = row[t]
                if x:
                    brow = other.a[t]
                    for j in range(other.c):
                        orow[j] += x * brow[j]
        return out

    def times_vec(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.c:
            raise ValueError("vector length mismatch")
        return [sum(self.a[i][j] * v[j] for j in range(self.c)) for i in range(self.r)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mat) and self.r == other.r and self.c == other.c and self.a == other.a

    def __repr__(self) -> str:
        return f"Mat({self.r}x{self.c}, {self.a})"


@dataclass
class SmithForm:
    """U @ A @ V == S with U, V unimodular."""

    S: Mat
    U: Mat
    V: Mat

    def diag(self, i: int) -> int:
        if i < min(self.S.r, self.S.c):
            return self.S.a[i][i]
        return 0


def smith_normal_form(A: Mat) -> SmithForm:
    """Diagonalize A over Z with a divisibility chain on the diagonal.

    Pivot choice is deterministic (smallest absolute value, then lowest
    row, then lowest column) so downstream generator choices reproduce
    bit for bit.  m holds r rows [S | U], then the rows of V.
    """
    r, c = A.r, A.c
    m = [list(row) + e for row, e in zip(A.a, Mat.identity(r).a)] + Mat.identity(c).a

    def row_add(i: int, j: int, q: int) -> None:
        # row_i += q * row_j on S | U
        mi, mj = m[i], m[j]
        for t in range(c + r):
            x = mj[t]
            if x:
                mi[t] += q * x

    def col_add(i: int, j: int, q: int) -> None:
        # col_i += q * col_j
        for row in m:
            x = row[j]
            if x:
                row[i] += q * x

    for t in range(min(r, c)):
        while True:
            # a unit entry is always an optimal pivot, so stop scanning at one
            pivot = None
            for i in range(t, r):
                row = m[i]
                for j in range(t, c):
                    v = row[j]
                    if v:
                        if v < 0:
                            v = -v
                        if pivot is None or v < pivot[0]:
                            pivot = (v, i, j)
                            if v == 1:
                                break
                if pivot is not None and pivot[0] == 1:
                    break
            if pivot is None:
                break
            _, pi, pj = pivot
            if pi != t:
                m[t], m[pi] = m[pi], m[t]
            if pj != t:
                for row in m:
                    row[t], row[pj] = row[pj], row[t]
            if m[t][t] < 0:
                m[t] = [-x for x in m[t]]
            p = m[t][t]
            dirty = False
            for i in range(t + 1, r):
                if m[i][t]:
                    row_add(i, t, -(m[i][t] // p))
                    if m[i][t]:
                        dirty = True
            for j in range(t + 1, c):
                if m[t][j]:
                    col_add(j, t, -(m[t][j] // p))
                    if m[t][j]:
                        dirty = True
            if dirty:
                continue
            if p == 1:
                break
            # the first row with an entry p does not divide joins row t
            for i in range(t + 1, r):
                if any(x % p for x in m[i][t + 1:c]):
                    row_add(t, i, 1)
                    break
            else:
                break
        if m[t][t] == 0:
            break
    rows = m[:r]
    return SmithForm(S=Mat(r, c, [row[:c] for row in rows]),
                     U=Mat(r, r, [row[c:] for row in rows]),
                     V=Mat(c, c, m[r:]))


def invariant_factors(vectors: Iterable[dict[int, int]]) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ..., units included, so
    as many as the rank, of the matrix with these sparse rows, or columns.

    Each pivot is an entry of least absolute value, the first unit met
    at once.  Row operations clear its column; once its row alone is
    left there, column operations reduce that row modulo the pivot.  A
    remainder is a smaller pivot to come, and without one the pivot is
    on the diagonal, which gcd and lcm then make a divisibility chain."""
    rows = dict(enumerate(dict(v) for v in vectors if v))
    where: dict[int, set[int]] = {}
    for i, row in rows.items():
        for c in row:
            where.setdefault(c, set()).add(i)
    diagonal = []
    while rows:
        best = None
        for i, row in rows.items():
            for c, x in row.items():
                if best is None or abs(x) < best:
                    best, pi, j = abs(x), i, c
            if best == 1:
                break
        prow = rows.pop(pi)
        v = prow[j]
        for c in prow:
            where[c].discard(pi)
        for i in list(where[j]):
            row = rows[i]
            q = row[j] // v
            for c, x in prow.items():
                y = row.get(c, 0) - q * x
                if y:
                    if c not in row:
                        where[c].add(i)
                    row[c] = y
                else:
                    del row[c]
                    where[c].discard(i)
            if not row:
                del rows[i]
        rest = prow if where[j] else {c: r for c, x in prow.items() if (r := x % v)}
        if rest:
            # a smaller pivot is left in its column, or in its row
            # reduced modulo it
            rest[j] = v
            rows[pi] = rest
            for c in rest:
                where[c].add(pi)
        else:
            diagonal.append(best)
    chain = [d for d in diagonal if d != 1]
    for i in range(len(chain)):
        for t in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[t])
            chain[i], chain[t] = g, chain[i] // g * chain[t]
    return [1] * (len(diagonal) - len(chain)) + chain


def kernel_basis(A: Mat) -> Mat:
    """Basis of the integer kernel {x : A x = 0}, as the columns of a
    matrix: the columns of V at the zero diagonal entries of S."""
    f = smith_normal_form(A)
    zero = [i for i in range(A.c) if f.diag(i) == 0]
    return Mat(A.c, len(zero), [[row[i] for i in zero] for row in f.V.a])


def solve_factored(f: SmithForm, B: Mat) -> Mat | None:
    """Integer solutions X of A X = B, column by column, given
    f = smith_normal_form(A); None if some column has no solution.

    Lets callers factor A once and solve every right-hand side in one
    product U B, one divisibility pass by rows and one product V Z.
    """
    r, c = f.S.r, f.S.c
    if B.r != r:
        raise ValueError("rhs length mismatch")
    Y = f.U.times(B)
    Z = Mat(c, B.c)
    for i, row in enumerate(Y.a):
        d = f.diag(i)
        if not all(divides(d, x) for x in row):
            return None
        if d:
            Z.a[i] = [x // d for x in row]
    return f.V.times(Z)


def with_relations(T: Mat, orders: Sequence[int]) -> Mat:
    """T next to the diagonal relation columns orders[i] * e_i, one for
    each positive order."""
    rel = [(r, o) for r, o in enumerate(orders) if o > 0]
    stack = Mat(T.r, T.c + len(rel))
    for i in range(T.r):
        stack.a[i][: T.c] = T.a[i]
    for j, (r, o) in enumerate(rel):
        stack.a[r][T.c + j] = o
    return stack


def lattice_basis(T: Mat, orders: Sequence[int]) -> Mat:
    """Basis, as matrix columns, of {x : T x in the span of the
    orders[i] * e_i}: the top T.c rows of a kernel basis of
    with_relations(T, orders).  Cutting to those rows maps the kernel
    onto the lattice, and injectively, since the relation columns
    orders[r] * e_r are nonzero and sit in distinct rows r."""
    K = kernel_basis(with_relations(T, orders))
    return Mat(T.c, K.c, K.a[: T.c])


@dataclass(frozen=True)
class AbGroup:
    """Finitely generated abelian group in invariant factor form.

    factors is a tuple (d_1, ..., d_t) with d_1 | d_2 | ... where a
    trailing 0 encodes a free summand; no factor equals 1.
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        fs = self.factors
        for i, d in enumerate(fs):
            if d < 0 or d == 1:
                raise ValueError(f"bad invariant factor {d}")
            if i + 1 < len(fs):
                nxt = fs[i + 1]
                if nxt != 0 and (d == 0 or nxt % d != 0):
                    raise ValueError(f"factors not a divisibility chain: {fs}")

    @classmethod
    def trivial(cls) -> "AbGroup":
        return cls(())

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.factors if d == 0)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.factors if d != 0)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts)
