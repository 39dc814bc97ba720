"""The slice tower of S^n smash HZ for cyclic p-groups, p odd.

Every slice is the suspension of an integral Eilenberg-MacLane
spectrum by an explicitly known representation: the torsion slices are
indexed by a column position a (which subgroup scale) and a row
position b (which base dimension), and the single integral slice at
the bottom has dimension n.  Sections interpolate by exchanging one
rotation plane at a time.

verify_slice is the independent check that a descriptor really is a
slice of the claimed dimension: at every subgroup level it tests
containment on integer multiplicities, and connectivity by the Bredon
homology of the relevant virtual spheres, from their cell structures.
Nothing in that path reuses the closed forms above, which is the
point.

A descriptor is the spectrum alone, its sphere and its coefficient;
where it sits in a tower, and so the kind a document gives it, is its
step's business.  The torsion stage at (a, b) of S^n depends only on a
and m = m_b.  Crossing it trades the plane at level out = a + min(v_p(m),
k - a) for one at level in = a - 1, a level-k plane being two trivial
summands (rotation_plane), and that trade is the coefficient,
B(out - in, in).  Its sphere is slice_rep's m rho - 1 - lambda(m (p^k -
p^a) / 2): as lambda(ell + p^k) = lambda(ell) + 2 rho and n - 2 - m is
even, that is (n - 2) rho - 1 - lambda(((n - 2) p^k - m p^a) / 2).  So
the slices are 2 rho-periodic: m + 2p^(k-a) adds 2p^(k-a) rho to m rho
and (p^(k-a) - 1) p^k to lambda's argument, so 2 (p^(k-a) - 1) rho to
lambda, and the trade stays as v_p(m + 2p^(k-a)) and v_p(m) agree when
capped at k - a.  torsion_slice builds each stage's slice and move once
per process, so towers share their slices as objects, from the entry
of its class; a column has at most 2p^(k-a) classes, whatever n is.  A
tower is its recipe, (group, n): each walk runs schedule afresh, and
the writers print its stages as they come.  verify_slice is cached by
the descriptor, and reads its spheres through homology.sphere_homology,
which keys them by value and realizes each distinct window once.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass, field

from .abelian import AbGroup
from .cells import max_cell_dim
from .group import Group, InvariantError, p_adic_val
from .homology import sphere_homology
from .mackey import B_ij, constant_Z, restrict_mackey
from .params import slice_params
from .rep import Rep, n_slice_rep, regular_rep, restrict_rep, rotation_plane, slice_rep


@dataclass(frozen=True, slots=True)
class SliceDescriptor:
    """One slice: S^rep smash an Eilenberg-MacLane spectrum, with
    coefficient B(coeff_i, coeff_j) for the torsion slices, else Z."""

    rep: Rep
    coeff_i: int | None = None
    coeff_j: int | None = None
    dim: int = field(init=False)  # the rep's, which the schedule and the writers read per stage

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", self.rep.dim)

    def __hash__(self) -> int:  # every stage's cache lookups hash it: the rep's fields, read in place
        rep = self.rep
        return hash((rep.group, rep.trivial, rep.planes, self.coeff_i, self.coeff_j))

    @property
    def is_torsion(self) -> bool:
        return self.coeff_i is not None


# one stage as schedule yields it: its slice, its column and row (None for
# the integral slice), and the trivial and plane multiplicities of its section
Step = tuple[SliceDescriptor, int | None, int | None, int, tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class Tower:
    """The tower of S^n as its recipe: each walk runs the schedule afresh."""

    group: Group
    n: int

    def steps(self) -> Iterator[Step]:
        return schedule(self.n, self.group)


@functools.lru_cache(maxsize=1 << 12)
def torsion_slice(group: Group, a: int, m: int) -> tuple[SliceDescriptor, Rep]:
    """The torsion stage in column a of every tower with the base
    dimension m: its slice, of dimension m p^a - 1, and the move that
    crossing it makes on the section: its class's stage plus 2 rho per
    period 2p^(k - a), on integers.  That is slice_rep(group, a, m), so it
    needs no check: s periods add 2s p^(k-a) rho to m rho and
    s p^k (p^(k-a) - 1) to ell = m (p^k - p^a) / 2, so, as lambda(ell +
    p^k) = lambda(ell) + 2 rho, s (p^(k-a) - 1) copies of 2 rho to
    lambda(ell).  Capped like verify_slice's cache."""
    period = 2 * group.index(a)
    shifts = max((m - 1) // period, 0)  # an m below 1 is its own class, which slice_rep refuses
    base, out, in_, move = _slice_class(group, a, m - shifts * period)
    rep = Rep(group, base.trivial + 2 * shifts,
              tuple([x + 2 * shifts * r for x, r in zip(base.planes, regular_rep(group).planes)]))
    return SliceDescriptor(rep, coeff_i=out - in_, coeff_j=in_), move


@functools.lru_cache(maxsize=1 << 12)
def _slice_class(group: Group, a: int, r: int) -> tuple[Rep, int, int, Rep]:
    """The stage in column a at r = (m - 1) mod 2p^(k - a) + 1, the least m
    of its class: slice_rep's representation, and the trade, of the plane
    at level out = a + v_p(r), which is a + min(v_p(m), k - a) across the
    class as r < p^(k - a + 1), for one at level in = a - 1, which is the
    coefficient B(out - in, in), and the move it makes.  Capped as
    verify_slice's."""
    rep = slice_rep(group, a, r)  # checks a and r
    out, in_ = a + p_adic_val(r, group.p), a - 1
    return rep, out, in_, rotation_plane(group, in_) - rotation_plane(group, out)


def schedule(n: int, group: Group) -> Iterator[Step]:
    """The stages of the tower of S^n, top to bottom by decreasing
    dimension, one at a time, each with its section as multiplicities.

    For n >= 3 there are d torsion slices per column a = k..1, except
    that the column a = 1 loses its b = 1 entry when p divides n, and
    one integral slice of dimension n at the bottom.  The top section is
    S^n, and each torsion stage makes its move on the multiplicities, so
    no Rep is built per stage.  Before the stage it concerns is yielded,
    each crossing must leave an actual section, the slice dimensions
    strictly decrease, and the bottom section is the integral slice's.
    """
    base_dims = _base_dims(n, group)
    trivial, planes = n, (0,) * group.k
    above = float("inf")  # the dimension of the slice above; there is none above the first
    for a in range(group.k, 0, -1):
        for b in range(len(base_dims), 0, -1):
            if a == 1 and b == 1 and n % group.p == 0:
                continue
            desc, move = torsion_slice(group, a, base_dims[b - 1])
            if desc.dim >= above:
                raise InvariantError(f"slice dimensions are not strictly decreasing: {above} then {desc.dim}")
            above = desc.dim
            yield desc, a, b, trivial, planes
            trivial, planes = trivial + move.trivial, tuple([x + y for x, y in zip(planes, move.planes)])
            if trivial < 0 or min(planes) < 0:
                raise InvariantError(f"exchanging planes across V({a},{b}) leaves no section of dimension n")
    bottom = SliceDescriptor(n_slice_rep(n, group))
    if bottom.dim >= above:
        raise InvariantError(f"the integral slice, of dimension {bottom.dim}, is not below the slice above, of {above}")
    if (trivial, planes) != (bottom.rep.trivial, bottom.rep.planes):
        raise InvariantError("the bottom section differs from the closed form of the integral slice")
    yield bottom, None, None, trivial, planes


def _base_dims(n: int, group: Group) -> range:
    """The base dimensions of S^n, none for n <= 2, once n is checked."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return slice_params(n, group) if n >= 3 else range(0)


def build_tower(n: int, group: Group) -> Tower:
    """The recipe of the tower of S^n, once n is checked as schedule checks it."""
    _base_dims(n, group)
    return Tower(group, n)


# --- verification ------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Failure:
    level: int
    check: str  # "containment" | "vanishing"
    epsilon: int | None = None
    t: int | None = None
    group: AbGroup | None = None

    def __str__(self) -> str:
        """What the text and LaTeX renderers print after "stage i: "."""
        at = "" if self.epsilon is None else f" (epsilon={self.epsilon}, t={self.t})"
        return f"{self.check} failed at level {self.level}{at}"


@dataclass(frozen=True, slots=True)
class VerificationReport:
    checks: int
    failures: tuple[Failure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@functools.lru_cache(maxsize=1 << 12)
def verify_slice(desc: SliceDescriptor) -> VerificationReport:
    """Check the slice condition for the descriptor, on multiplicities.

    At every subgroup level m, V restricts once to Vm, of V's dimension
    D, as restrict_rep turns each plane of level >= m into two trivial
    summands, and is read against the multiplicities of rho_m, which has
    one trivial summand.  Vm must sit inside wit rho_m minus eps trivial
    lines, wit as many copies as make the fixed subspaces agree: wit =
    Vm.trivial + eps, or 1 with eps = 1 where that sum is 0.  Then wit -
    eps is Vm.trivial, or 0 when Vm.trivial = -eps <= 0, so the fixed
    parts always fit, and containment is one comparison: wit rho_m has at
    least Vm's planes at every level.  The homology of S^(Vm - t rho_m)
    must vanish in degree -eps for every t past (dim V + eps) / p^m.  One
    loop over t builds each sphere once from multiplicities and reads both
    degrees from homology.sphere_homology, which keys spheres by value and
    realizes each distinct window once.  It stops once the top cell
    dimension drops below -1, where both groups are zero for size reasons.
    The report is immutable and cached: a slice is checked once per process.
    """
    V, group, D = desc.rep, desc.rep.group, desc.rep.dim
    M = B_ij(desc.coeff_i, desc.coeff_j, group) if desc.is_torsion else constant_Z(group)
    eps0 = 1 if desc.is_torsion else 0
    failures: list[Failure] = []
    checks = 0

    for m in range(group.k, -1, -1):
        Vm = restrict_rep(V, m)
        sub, trivial, planes = Vm.group, Vm.trivial, Vm.planes
        rho = regular_rep(sub).planes  # and one trivial summand
        Mm = restrict_mackey(M, m)

        wit = trivial + eps0 or 1
        checks += 1
        if any(wit * r < x for r, x in zip(rho, planes)):
            failures.append(Failure(m, "containment"))

        first = [(D + eps) // group.p ** m + 1 for eps in (0, 1)]
        t = first[0]
        while max_cell_dim(w := Rep(sub, trivial - t, tuple([x - t * r for x, r in zip(planes, rho)]))) > -2:
            h_minus1, h_0 = sphere_homology(w, Mm, -1, 0)
            for eps, h in ((0, h_0), (1, h_minus1)):
                if t >= first[eps]:
                    checks += 1
                    if not h.is_trivial:
                        failures.append(Failure(m, "vanishing", epsilon=eps, t=t, group=h))
            t += 1
            if t - first[0] > 2 * D + 8:
                raise InvariantError("vanishing loop failed to stabilize")

    return VerificationReport(checks, tuple(failures))


def verify_tower(tower: Tower) -> list[VerificationReport]:
    """The cached report of each stage, in order, from one walk: one
    pointer per stage, and no slice held past its report."""
    return [verify_slice(desc) for desc, *_ in tower.steps()]
