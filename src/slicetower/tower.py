"""The slice tower of S^n smash HZ for cyclic p-groups, p odd.

Every slice is the suspension of an integral Eilenberg-MacLane
spectrum by an explicitly known representation: the torsion slices are
indexed by a column position a (which subgroup scale) and a row
position b (which base dimension), and the single integral slice at
the bottom has dimension n.  Sections interpolate by exchanging one
rotation plane at a time.

verify_slice is the independent check that a descriptor really is a
slice of the claimed dimension: it restricts to every subgroup level
and tests the containment and connectivity conditions by computing
Bredon homology of the relevant virtual spheres from their cell
structures.  Nothing in that path reuses the closed forms above, which
is the point.

Towers for nearby n share most of their slices, and slices share
spheres, so each slice and each sphere is checked once per process.
verify_slice answers a slice from slice_check, whose cache is keyed by
the spectrum alone, without the slice's place in the tower.
slice_check reads the homology of its spheres through
homology.sphere_homology, whose cache, keyed by the sphere and the
coefficient system by value, realizes each one once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from enum import Enum

from .abelian import AbGroup
from .cells import max_cell_dim
from .group import Group
from .homology import sphere_homology
from .mackey import B_ij, MackeyFunctor, constant_Z, restrict_mackey
from .params import slice_params
from .rep import (Rep, is_subrep, n_slice_rep, regular_rep, restrict_rep,
                  rotation_plane, slice_rep, trivial_rep)

class Kind(str, Enum):
    """What a slice is: TORSION for the B-coefficient slices, INTEGRAL
    for the bottom slice with constant coefficients, INTEGRAL_SMALL for
    the degenerate n = 1, 2 towers, and ZERO for n = 0.  The values are
    the document's "kind" strings."""

    TORSION = "torsion"
    INTEGRAL = "integral"
    INTEGRAL_SMALL = "integral-small"
    ZERO = "zero"


@dataclass(frozen=True)
class SliceDescriptor:
    """One slice: S^rep smash an Eilenberg-MacLane spectrum.

    Torsion slices carry their position (a, b) and coefficient
    parameters (i, j).
    """

    dim: int
    kind: Kind
    rep: Rep
    a: int | None = None
    b: int | None = None
    coeff_i: int | None = None
    coeff_j: int | None = None

    def coefficient(self) -> MackeyFunctor:
        if self.kind == Kind.TORSION:
            return B_ij(self.coeff_i, self.coeff_j, self.rep.group)
        return constant_Z(self.rep.group)

    @property
    def is_torsion(self) -> bool:
        return self.kind == Kind.TORSION


@dataclass(frozen=True)
class Stage:
    descriptor: SliceDescriptor
    section: Rep  # the section this slice maps into; always of dimension n


@dataclass(frozen=True)
class Tower:
    group: Group
    n: int
    stages: tuple[Stage, ...]

    @property
    def slices(self) -> list[SliceDescriptor]:
        return [s.descriptor for s in self.stages]

    @property
    def sections(self) -> list[Rep]:
        return [s.section for s in self.stages]


def slice_list(n: int, group: Group) -> list[SliceDescriptor]:
    """All slices, ordered by decreasing dimension.

    For n >= 3 there are d torsion slices per column a = k..1, except
    that the column a = 1 loses its b = 1 entry when p divides n, and
    one integral slice of dimension n at the bottom.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return [SliceDescriptor(dim=0, kind=Kind.ZERO, rep=trivial_rep(group, 0))]
    if n <= 2:
        return [SliceDescriptor(dim=n, kind=Kind.INTEGRAL_SMALL, rep=trivial_rep(group, n))]

    params = slice_params(n, group)
    p = group.p
    out: list[SliceDescriptor] = []
    for a in range(group.k, 0, -1):
        for b in range(params.count, 0, -1):
            if a == 1 and b == 1 and n % p == 0:
                continue
            nu = params.valuation(a, b)
            out.append(SliceDescriptor(
                dim=params.base_dim(b) * p ** a - 1,
                kind=Kind.TORSION,
                rep=slice_rep(params, a, b),
                a=a, b=b,
                coeff_i=nu + 1, coeff_j=a - 1,
            ))
    out.append(SliceDescriptor(dim=n, kind=Kind.INTEGRAL, rep=n_slice_rep(n, group)))

    dims = [s.dim for s in out]
    if dims != sorted(dims, reverse=True) or len(set(dims)) != len(dims):
        raise AssertionError(f"slice dimensions are not strictly decreasing: {dims}")
    if len(out) != group.k * params.count + (0 if n % p == 0 else 1):
        raise AssertionError(f"{len(out)} slices, not the closed-form count")
    return out


def _exchange(section: Rep, desc: SliceDescriptor) -> Rep:
    """Crossing a torsion slice trades the plane at level nu + a for
    one at level a - 1 (two trivial summands when nu + a reaches k)."""
    nu = desc.coeff_i - 1
    out_level = min(nu + desc.a, section.group.k)
    nxt = section - rotation_plane(section.group, out_level) + rotation_plane(section.group, desc.a - 1)
    if not (nxt.is_actual and nxt.dim == section.dim):
        raise AssertionError(f"exchanging planes across V({desc.a},{desc.b}) leaves no section of dimension n")
    return nxt


def build_tower(n: int, group: Group) -> Tower:
    """The slices with their sections, top to bottom.

    The top section is S^n itself; the bottom one must agree with the
    closed form for the integral slice, which is asserted.
    """
    slices = slice_list(n, group)
    sections = [trivial_rep(group, n)]
    for desc in slices[:-1]:
        if not desc.is_torsion:
            raise AssertionError(f"a {desc.kind.value} slice above the bottom of the tower")
        sections.append(_exchange(sections[-1], desc))
    if sections[-1] != slices[-1].rep:
        raise AssertionError("the bottom section differs from the closed form of the integral slice")
    return Tower(group, n, tuple(Stage(d, s) for d, s in zip(slices, sections)))


@dataclass(frozen=True)
class FiberData:
    """One fiber sequence of the tower: the descriptor's slice is the
    fiber of the map from the source section's sphere to the target's."""

    source: Rep
    target: Rep
    descriptor: SliceDescriptor
    out_level: int  # plane removed from source (k encodes two trivials)
    in_level: int   # plane added to target


def fiber_sequence_data(tower: Tower) -> list[FiberData]:
    """The connecting data between consecutive sections, with the
    internal consistency checks the construction relies on."""
    group = tower.group
    out: list[FiberData] = []
    if tower.n >= 3:
        # scale junctions between consecutive columns line up exactly:
        # connection_gap raises unless ell(a, d) - ell(a + 1, 1) is the gap
        params = slice_params(tower.n, group)
        for a in range(1, group.k):
            params.connection_gap(a)

    for i in range(len(tower.stages) - 1):
        desc = tower.slices[i]
        src, tgt = tower.sections[i], tower.sections[i + 1]
        nu = desc.coeff_i - 1
        out_level = min(nu + desc.a, group.k)
        in_level = desc.a - 1
        if src - rotation_plane(group, out_level) != tgt - rotation_plane(group, in_level):
            raise AssertionError(f"sections {src} and {tgt} differ by more than a plane at "
                                 f"level {out_level} traded for one at level {in_level}")

        # the slice representation exceeds the common part by planes
        # at levels below a only
        common = src - rotation_plane(group, out_level)
        excess = desc.rep - (common - trivial_rep(group))
        if not (excess.is_actual and excess.trivial == 0):
            raise AssertionError(f"the slice {desc.rep} exceeds the common part by {excess}, "
                                 f"not by planes alone")
        if any(excess.planes[desc.a:]):
            raise AssertionError(f"the slice {desc.rep} exceeds the common part by planes "
                                 f"at levels {desc.a} or above")

        out.append(FiberData(src, tgt, desc, out_level, in_level))
    return out


# --- verification ------------------------------------------------------------

@dataclass(frozen=True)
class Failure:
    level: int
    check: str  # "containment" | "vanishing"
    epsilon: int | None = None
    t: int | None = None
    group: AbGroup | None = None


@dataclass
class VerificationReport:
    descriptor: SliceDescriptor
    passed: bool
    checks: int
    failures: list[Failure]


def verify_slice(desc: SliceDescriptor) -> VerificationReport:
    """Check the slice condition for the descriptor.

    The answer depends on the spectrum only, so the check runs on the
    descriptor with its place (a, b) in the tower erased, and a slice
    met before in this process, in any tower, is not checked again.
    The report is new on every call: it carries the caller's descriptor
    and its own list of failures.
    """
    checks, failures = slice_check(replace(desc, a=None, b=None))
    return VerificationReport(desc, not failures, checks, list(failures))


@functools.lru_cache(maxsize=1 << 12)
def slice_check(desc: SliceDescriptor) -> tuple[int, tuple[Failure, ...]]:
    """The checks made and the failures found for the descriptor, from
    scratch.

    At every subgroup level m the restricted representation must sit
    inside copies of the regular representation (minus a trivial line
    for the torsion slices), as many as make the fixed subspaces agree,
    and the homology of S^(V - t rho) must vanish in degree -eps for every t
    past (dim V + eps) / p^m.  One loop over t reads both degrees of
    each sphere from homology.sphere_homology, so a sphere met before in
    this process, under an equal functor however it was built, is not
    realized again.  The loop stops once the top cell dimension drops
    below -1, after which both groups are zero for size reasons alone.
    """
    V = desc.rep
    M = desc.coefficient()
    group = V.group
    eps0 = 1 if desc.is_torsion else 0
    failures: list[Failure] = []
    checks = 0

    for m in range(group.k, -1, -1):
        sub = group.subgroup(m)
        Vm = restrict_rep(V, m)
        Mm = restrict_mackey(M, m)
        if Vm.dim != V.dim:
            raise AssertionError(f"restriction to level {m} changed the dimension of {V}")

        wit = Vm.trivial + eps0
        eps_wit = eps0
        if wit == 0:
            wit, eps_wit = 1, 1
        bound = regular_rep(sub, wit) - trivial_rep(sub, eps_wit)
        checks += 1
        if not is_subrep(Vm, bound):
            failures.append(Failure(m, "containment"))

        D = Vm.dim
        first = [(D + eps) // group.p ** m + 1 for eps in (0, 1)]
        t = first[0]
        while True:
            w = Vm - regular_rep(sub, t)
            if max_cell_dim(w) <= -2:
                break
            h_minus1, h_0 = sphere_homology(w, Mm, -1, 0)
            for eps, h in ((0, h_0), (1, h_minus1)):
                if t >= first[eps]:
                    checks += 1
                    if not h.is_trivial:
                        failures.append(Failure(m, "vanishing", epsilon=eps, t=t, group=h))
            t += 1
            if t - first[0] > 2 * D + 8:
                raise AssertionError("vanishing loop failed to stabilize")

    return checks, tuple(failures)


def verify_tower(tower: Tower) -> list[VerificationReport]:
    return [verify_slice(desc) for desc in tower.slices]
