"""Checks that only tests read: criterion 6d, injectivity of restriction
on torsion coefficients, with the lattice tests it is built from, and
the paper's plane λ(w), the reference lambda_block is held to.  No
command reaches them, so they live here rather than in the package.

This is a helper module, not a test module: pytest does not rewrite its
asserts and python -O would strip them, so it raises instead."""

from typing import Sequence

from slicetower.abelian import Mat, divides, lattice_basis
from slicetower.group import Group, p_adic_val
from slicetower.homology import bredon_homology
from slicetower.mackey import B_ij
from slicetower.rep import Rep, rotation_plane


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
