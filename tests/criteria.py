"""Checks that only tests read: criterion 6d, injectivity of restriction
on torsion coefficients, with the lattice tests it is built from; the
paper's plane λ(w), the reference lambda_block is held to; the Mackey
checks, B(i,j) as the cokernel of Z(i+j,j) -> Z and the norm axiom
tr.res = p; and the oracle's loop as it was written on Rep arithmetic,
containment by is_subrep, the reference tower.verify_slice is held to.
No command reaches them, so they live here rather than in the package.

This is a helper module, not a test module: pytest does not rewrite its
asserts and python -O would strip them, so it raises instead."""

from typing import Sequence

from slicetower.abelian import Mat, divides, lattice_basis
from slicetower.cells import max_cell_dim
from slicetower.group import Group, InvariantError, p_adic_val
from slicetower.homology import bredon_homology, sphere_homology
from slicetower.mackey import B_ij, MackeyFunctor, Z_ij, _cyclic_functor, constant_Z, restrict_mackey
from slicetower.rep import Rep, regular_rep, restrict_rep, rotation_plane, trivial_rep
from slicetower.tower import Failure, SliceDescriptor, VerificationReport


def in_diagonal_lattice(v: Sequence[int], orders: Sequence[int]) -> bool:
    """Membership of v in the lattice spanned by orders[i] * e_i.

    An order of 0 contributes nothing to the lattice (free direction),
    so the corresponding coordinate must vanish.
    """
    if len(v) != len(orders):
        raise ValueError("length mismatch")
    return all(divides(d, x) for x, d in zip(v, orders))


def presented_injective(T: Mat, src_orders: Sequence[int], dst_orders: Sequence[int]) -> bool:
    """Injectivity of the induced map (Z^s / src) -> (Z^t / dst): every
    generator of the preimage of the dst relations must be a src relation."""
    return all(in_diagonal_lattice(v, src_orders) for v in zip(*lattice_basis(T, dst_orders).a))


def homres_injective(w: Rep, i: int, j: int, h: int) -> bool:
    """Whether restriction from the top level down to level h is
    injective on the homology of S^(-w) with torsion coefficients
    B(i,j), in degrees 0 and -1.  Requires i + j <= h so the
    coefficient functor is already saturated at the target level."""
    if not i + j <= h <= w.group.k:
        raise ValueError(f"need i + j <= h <= k, got i={i}, j={j}, h={h}, k={w.group.k}")
    if not w.is_actual:
        raise ValueError("need an actual representation")
    M = B_ij(i, j, w.group)
    k = w.group.k
    for d in (0, -1):
        bh = bredon_homology(-w, M, d)
        if bh.levels[k].ab.is_trivial:
            continue
        top = bh.levels[k].ab.factors
        T = Mat.identity(len(top))
        for m in range(k - 1, h - 1, -1):
            T = bh.res_maps[m].times(T)
        if not presented_injective(T, top, bh.levels[h].ab.factors):
            return False
    return True


def canonical_lambda(weight: int, group: Group) -> Rep:
    """The plane where the generator rotates by weight/p^k of a turn.

    Only the p-adic valuation of the weight matters up to isomorphism
    of the underlying real representation, which is how the planes are
    recorded here.
    """
    if weight < 1:
        raise ValueError("weight must be positive")
    return rotation_plane(group, min(p_adic_val(weight, group.p), group.k))


def b_as_cokernel(i: int, j: int, group: Group) -> MackeyFunctor:
    """Levelwise cokernel of the map Z(i+j, j) -> Z sending 1 to 1 at
    level 0, extended upward by commuting with restriction."""
    src = Z_ij(i + j, j, group)
    dst = constant_Z(group)
    phi = [1]
    for m in range(group.k):
        lifted = phi[m] * src.res[m]
        if lifted % dst.res[m]:
            raise AssertionError(f"the map does not commute with restriction {m + 1} -> {m}")
        phi.append(lifted // dst.res[m])
        # the same scalar must intertwine the transfers
        if phi[m + 1] * src.tr[m] != dst.tr[m] * phi[m]:
            raise AssertionError(f"the map does not commute with transfer {m} -> {m + 1}")
    return _cyclic_functor(group, phi, list(dst.res), list(dst.tr))


def congruent(level: tuple[int, ...], x: int, y: int) -> bool:
    """Whether x and y are the same map into a level: congruent modulo
    its order (0 = exactly equal), and always so into a zero level."""
    return not level or divides(level[0], x - y)


def validate_mackey(M: MackeyFunctor) -> None:
    """Structural checks: with trivial Weyl action the norm is p times
    the identity, so restriction and transfer must compose to p in
    either order."""
    p = M.group.p
    for m in range(M.group.k):
        lo, hi = M.levels[m], M.levels[m + 1]
        if not congruent(lo, M.res[m] * M.tr[m], p):
            raise AssertionError(f"{M}: res.tr at level {m} is not the norm")
        if not congruent(hi, M.tr[m] * M.res[m], p):
            raise AssertionError(f"{M}: tr.res at level {m + 1} is not the norm")


def is_subrep(small: Rep, big: Rep) -> bool:
    d = big - small
    return d.is_actual


def reference_verify_slice(desc: SliceDescriptor) -> VerificationReport:
    """tower.verify_slice as it was written on Rep arithmetic, uncached:
    the containment by is_subrep against wit rho - eps, and each sphere
    of the vanishing loop as Vm - t rho, one subtraction of rho a step."""
    V, group = desc.rep, desc.rep.group
    M = B_ij(desc.coeff_i, desc.coeff_j, group) if desc.is_torsion else constant_Z(group)
    eps0 = 1 if desc.is_torsion else 0
    failures: list[Failure] = []
    checks = 0

    for m in range(group.k, -1, -1):
        rho = regular_rep(group.subgroup(m))
        Vm = restrict_rep(V, m)
        Mm = restrict_mackey(M, m)
        if Vm.dim != V.dim:
            raise InvariantError(f"restriction to level {m} changed the dimension of {V}")

        wit = Vm.trivial + eps0
        eps_wit = eps0
        if wit == 0:
            wit, eps_wit = 1, 1
        bound = wit * rho - trivial_rep(rho.group, eps_wit)
        checks += 1
        if not is_subrep(Vm, bound):
            failures.append(Failure(m, "containment"))

        D = Vm.dim
        first = [(D + eps) // group.p ** m + 1 for eps in (0, 1)]
        t, w = first[0], Vm - first[0] * rho
        while max_cell_dim(w) > -2:
            h_minus1, h_0 = sphere_homology(w, Mm, -1, 0)
            for eps, h in ((0, h_0), (1, h_minus1)):
                if t >= first[eps]:
                    checks += 1
                    if not h.is_trivial:
                        failures.append(Failure(m, "vanishing", epsilon=eps, t=t, group=h))
            t, w = t + 1, w - rho
            if t - first[0] > 2 * D + 8:
                raise InvariantError("vanishing loop failed to stabilize")

    return VerificationReport(checks, tuple(failures))
