"""Virtual real representations of C_{p^k} built from rotation planes.

A representation is recorded as a multiplicity of the trivial summand
plus one multiplicity per conjugacy family of two-dimensional rotation
planes.  Plane level j means the kernel of the rotation is exactly
C_{p^j}, so level 0 planes are faithful and higher levels have larger
kernels.  Multiplicities may be negative (formal differences); most
operations work with those, and callers that need an honest
representation check is_actual first.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass

from .group import Group, InvariantError
from .params import slice_params


@dataclass(frozen=True, slots=True)
class Rep:
    group: Group
    trivial: int
    planes: tuple[int, ...]  # planes[j] = multiplicity of the level-j rotation plane

    def __post_init__(self) -> None:
        if len(self.planes) != self.group.k:
            raise ValueError(f"expected {self.group.k} plane multiplicities, got {len(self.planes)}")

    @property
    def dim(self) -> int:
        return self.trivial + 2 * sum(self.planes)

    @property
    def is_actual(self) -> bool:
        return self.trivial >= 0 and (not self.planes or min(self.planes) >= 0)

    def __add__(self, other: "Rep") -> "Rep":
        self._same_group(other)
        return Rep(self.group, self.trivial + other.trivial,
                   tuple(map(operator.add, self.planes, other.planes)))

    def __sub__(self, other: "Rep") -> "Rep":
        self._same_group(other)
        return Rep(self.group, self.trivial - other.trivial,
                   tuple(map(operator.sub, self.planes, other.planes)))

    def __neg__(self) -> "Rep":
        return Rep(self.group, -self.trivial, tuple(-m for m in self.planes))

    def __rmul__(self, s: int) -> "Rep":
        return Rep(self.group, s * self.trivial, tuple(s * m for m in self.planes))

    def _same_group(self, other: "Rep") -> None:
        if self.group is not other.group:
            raise ValueError(f"group mismatch: {self.group} vs {other.group}")

    def __str__(self) -> str:
        return render_rep(self)


def trivial_rep(group: Group, count: int = 1) -> Rep:
    return Rep(group, count, (0,) * group.k)


def _level_sum(group: Group, counts: list[int]) -> Rep:
    """The sum of counts[j] planes at level j, for j = 0..k: the one home
    of the rule that a level-k plane, on which the whole group acts
    trivially, is two trivial summands."""
    *planes, top = counts
    return Rep(group, 2 * top, tuple(planes))


def rotation_plane(group: Group, level: int, count: int = 1) -> Rep:
    """count copies of the level-`level` plane; level k is allowed."""
    if not 0 <= level <= group.k:
        raise ValueError(f"plane level {level} out of range for {group}")
    counts = [0] * (group.k + 1)
    counts[level] = count
    return _level_sum(group, counts)


@functools.lru_cache(maxsize=1 << 12)
def regular_rep(group: Group, count: int = 1) -> Rep:
    """count copies of the real regular representation, for the slices, render_forms,
    verify_slice and the parser's rho; the cache is capped like verify_slice's."""
    planes = tuple(count * ((group.index(j) - group.index(j + 1)) // 2) for j in range(group.k))
    return Rep(group, count, planes)


def lambda_block(count: int, group: Group) -> Rep:
    """Sum of the planes with weights 1, 2, ..., count: the weight w
    gives a plane at level min(v_p(w), k)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    p, counts = group.p, []
    for _ in range(group.k):  # count is the original count // p^j at step j
        counts.append(count - count // p)
        count //= p
    counts.append(count)
    return _level_sum(group, counts)


def slice_rep(group: Group, a: int, m: int) -> Rep:
    """The representation m rho - 1 - lambda(m (p^k - p^a) / 2) carrying
    the torsion slice of dimension m p^a - 1 in column a: V(a,b) of
    every S^n whose base dimension m_b is m (see tower.py)."""
    if not 1 <= a <= group.k:
        raise ValueError(f"a must be in 1..{group.k}, got {a}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    rho, lam = regular_rep(group).planes, lambda_block(m * (group.order - group.p ** a) // 2, group)
    return checked_slice(group, a, m, m - 1 - lam.trivial, tuple([m * r - l for r, l in zip(rho, lam.planes)]))


def checked_slice(group: Group, a: int, m: int, trivial: int, planes: tuple[int, ...]) -> Rep:
    """The representation of these multiplicities, once checked to carry
    the torsion slice at (a, m): actual, of dimension m p^a - 1, with
    m - 1 - 2 floor(ell / p^k) trivial summands, ell = m (p^k - p^a) / 2."""
    v, order, pa = Rep(group, trivial, planes), group.order, group.p ** a
    if not (v.is_actual and v.dim == m * pa - 1):
        raise InvariantError(f"V at (a, m) = ({a}, {m}) is not an actual representation of the slice dimension")
    if trivial != m - 1 - 2 * (m * (order - pa) // 2 // order):
        raise InvariantError(f"V at (a, m) = ({a}, {m}) has the wrong trivial multiplicity")
    return v


@functools.lru_cache(maxsize=1 << 12)
def n_slice_rep(n: int, group: Group) -> Rep:
    """The representation whose suspension carries the bottom slice.

    Two closed forms apply depending on whether p divides n; both have
    dimension n and differ from (n-2) copies of the regular
    representation by an initial segment of planes.  Each walk of a
    tower reads it, so it is cached, capped like verify_slice's.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 2:
        return trivial_rep(group, n)
    m, p = slice_params(n, group)[0], group.p
    if n % p != 0:
        v, lam = slice_rep(group, 1, m), lambda_block((m * p - n) // 2, group)
    else:
        # m + 2 = n/p + 2, the second base dimension if there is one; slice_rep(1, m + 2) + 1
        # is (n - 2) rho - lambda(((n - 2) p^k - (m + 2) p) / 2) where that is defined, as
        # n - m - 4 is even; lambda(p - 1) + L0 is p L0; at n = p^k, w is rho + 2 - L0
        v, lam = slice_rep(group, 1, m + 2), rotation_plane(group, 0, p)
    w = Rep(group, v.trivial + 1 - lam.trivial, tuple([x - y for x, y in zip(v.planes, lam.planes)]))
    if not (w.is_actual and w.dim == n):
        raise InvariantError(f"the bottom slice representation for n = {n} is not actual of dimension n")
    return w


def restrict_rep(v: Rep, m: int) -> Rep:
    """Restriction to the subgroup C_{p^m}.

    Planes of level >= m become trivial two-planes; the rest keep their
    level, which still makes sense for the smaller group.
    """
    if not 0 <= m <= v.group.k:
        raise ValueError(f"no subgroup at level {m}")
    sub = v.group.subgroup(m)
    return Rep(sub, v.trivial + 2 * sum(v.planes[m:]), v.planes[:m])


# --- display ---------------------------------------------------------------

def render_forms(group: Group, trivial: int, planes: tuple[int, ...], below: int = 0) -> tuple[str, str]:
    """The display and LaTeX forms of the representation of these
    multiplicities, from one reading of its terms, so none is built to
    be printed.  The s*rho - t shorthand, s >= 1 and 0 <= t <= 2, is used
    when exact: s is read off level k - 1, where rho has (p - 1)/2 planes,
    then level 0 is tried, where it has (p^k - p^(k-1))/2.  Else the terms
    are spelled, without the planes below level below."""
    s, r = divmod(planes[-1], (group.p - 1) // 2) if planes else (0, 0)
    t = s - trivial
    if (not r and s > 0 and 0 <= t <= 2 and 2 * planes[0] == s * (group.order - group.index(1))
            and planes == tuple([s * x for x in regular_rep(group).planes])):
        head = "" if s == 1 else str(s)
        tail = "" if t == 0 else f" - {t}"
        return f"{head}ρ{tail}", rf"{head}\rho{tail}"

    # the trivial term first, then the planes from level k - 1 down
    text = tex = str(trivial) if trivial else ""
    for j in range(group.k - 1, below - 1, -1):
        m = planes[j]
        if m:
            term, tex_term = _plane_term(m, j, not text)
            text += term
            tex += tex_term
    return text or "0", tex or "0"


@functools.lru_cache(maxsize=1 << 12)
def _plane_term(m: int, j: int, first: bool) -> tuple[str, str]:
    """The display and LaTeX terms of m level-j planes, signed as the
    first term or a later one; capped like verify_slice's cache."""
    sign = ("" if m > 0 else "-") if first else (" + " if m > 0 else " - ")
    head = sign if m == 1 or m == -1 else sign + str(abs(m))
    return f"{head}λ_{j}", rf"{head}\lambda_{{{j}}}"


def render_rep(v: Rep) -> str:
    """Canonical display."""
    return render_forms(v.group, v.trivial, v.planes)[0]


# --- parsing ---------------------------------------------------------------

_TOKEN = re.compile(r"\d+|rho|L\d+|[()+\-,*]|V|W|@n=")
_JOINING_SPACES = re.compile(r"(?<=\d) +(?=\d)")


def _normalize(text: str) -> str:
    """The parser's alphabet, without spaces, except that one space is
    kept between two digits, where deleting it would join two numbers."""
    text = text.replace("−", "-").replace("ρ", "rho")
    text = text.replace("λ_", "L").replace("λ", "L")
    text = text.replace("lambda_", "L").replace("lambda", "L")
    return " ".join([part.replace(" ", "") for part in _JOINING_SPACES.split(text)])


_QUOTE_MAX = 60  # characters of the normalized input, or of a message, that a parse error shows


def _quote(src: str, pos: int) -> str:
    """repr of the normalized text src, which pos indexes, cut to the
    _QUOTE_MAX characters around pos when longer, with "..." where it
    is cut."""
    lo = max(min(pos - _QUOTE_MAX // 2, len(src) - _QUOTE_MAX), 0)
    hi = lo + _QUOTE_MAX
    return ("..." if lo else "") + repr(src[lo:hi]) + ("..." if hi < len(src) else "")


class RepParseError(ValueError):
    """text is the input after normalization, which pos indexes.  The
    message shows a bounded part of it, so pos points into what it
    shows, and clips a long message, such as one naming a long token,
    so a huge input gives a short error line."""

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        if len(message) > _QUOTE_MAX:
            message = message[:_QUOTE_MAX] + "..."
        super().__init__(f"{message} at position {pos} in {_quote(text, pos)}")


class _RepParser:
    """Recursive descent over: [-] term ((+|-) term)*

    term := INT | [INT [*]] atom
    atom := rho | L<j> | ( expr ) | V ( INT , INT ) @n= INT | W @n= INT
    """

    def __init__(self, text: str, group: Group):
        self.group = group
        self.src = _normalize(text)
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(self.src):
            if self.src[pos] == " ":  # only a space between two numbers is left
                raise RepParseError(self.src, pos + 1, "a number cannot follow a number")
            m = _TOKEN.match(self.src, pos)
            if not m:
                raise RepParseError(self.src, pos, f"unexpected character {self.src[pos]!r}")
            self.tokens.append((m.group(), pos))
            pos = m.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.src)

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise RepParseError(self.src, self.pos(), "unexpected end of input")
        if expected is not None and tok != expected:
            raise RepParseError(self.src, self.pos(), f"expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    def take_int(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise RepParseError(self.src, self.tokens[self.i - 1][1], f"expected integer, found {tok!r}")
        return int(tok)

    def parse(self) -> Rep:
        v = self.expr()
        if self.peek() is not None:
            raise RepParseError(self.src, self.pos(), f"trailing input {self.peek()!r}")
        return v

    def expr(self) -> Rep:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        v = sign * self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            v = v + t if op == "+" else v - t
        return v

    def term(self) -> Rep:
        tok = self.peek()
        if tok is None:
            raise RepParseError(self.src, self.pos(), "expected a term")
        count = 1
        if tok.isdigit():
            count = self.take_int()
            tok = self.peek()
            if tok == "*":  # joins the count to the term it multiplies, never to a number
                self.take()
                tok = self.peek()
                if tok is None or tok.isdigit():
                    found = "end of input" if tok is None else repr(tok)
                    raise RepParseError(self.src, self.pos(),
                                        f"expected a term after '*', found {found}")
            elif tok is None or tok in ("+", "-", ")", ","):
                return trivial_rep(self.group, count)
        if tok == "V":
            return count * self.slice_term()
        if tok == "W":
            self.take()
            self.take("@n=")
            return count * n_slice_rep(self.take_int(), self.group)
        if tok == "rho":
            self.take()
            return regular_rep(self.group, count)
        if tok is not None and tok.startswith("L"):
            self.take()
            level = int(tok[1:])
            if level > self.group.k:
                raise RepParseError(self.src, self.tokens[self.i - 1][1],
                                    f"plane level {level} out of range for {self.group}")
            return rotation_plane(self.group, level, count)
        if tok == "(":
            self.take()
            v = self.expr()
            self.take(")")
            return count * v
        raise RepParseError(self.src, self.pos(), f"cannot start a term with {tok!r}")

    def slice_term(self) -> Rep:
        self.take("V")
        self.take("(")
        a = self.take_int()
        self.take(",")
        b = self.take_int()
        self.take(")")
        self.take("@n=")
        n = self.take_int()
        base_dims = slice_params(n, self.group)
        if not 1 <= a <= self.group.k:
            raise ValueError(f"a must be in 1..{self.group.k}, got {a}")
        if not 1 <= b <= len(base_dims):
            raise ValueError(f"b must be in 1..{len(base_dims)}, got {b}")
        return slice_rep(self.group, a, base_dims[b - 1])


def parse_rep(text: str, group: Group) -> Rep:
    """Parse the ASCII grammar; also accepts the unicode display form."""
    parser = _RepParser(text, group)
    try:
        return parser.parse()
    except RecursionError:
        raise RepParseError(parser.src, parser.pos(), "expression nested too deeply") from None
