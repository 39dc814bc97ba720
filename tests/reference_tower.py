"""Reference tower assembly: build_tower as it stood before its plane
arithmetic was flattened, every slice and every section formed by Rep
addition and subtraction of whole representations.  Only tests import
it; it pins each stage as (descriptor, a, b, section), the shape
stages gives a tower's steps in.

The plane constructors are copied here rather than imported, so a
change to the ones in slicetower.rep cannot move the reference with it.
Likewise the base dimensions come from the paper's closed form for d,
not from slicetower.params, so test_tower_reference checks the
runtime's range against that formula.  ell and connection_gap are the
junction bookkeeping of the columns, for the tests of test_params.
"""

from slicetower.group import Group, p_adic_val
from slicetower.rep import Rep
from slicetower.tower import SliceDescriptor, Tower


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


def base_dims(n: int, p: int) -> range:
    """m_1 < ... < m_d, the d integers of the parity of n ending at n - 2."""
    return range(n - 2 * base_count(n, p), n - 1, 2)


def ell(n: int, group: Group, a: int, b: int) -> int:
    """Half the gap between the top stage dimension and stage (a, b):
    ((n-2)p^k - m_b p^a) / 2, always a nonnegative integer."""
    p, k = group.p, group.k
    num = (n - 2) * p ** k - base_dims(n, p)[b - 1] * p ** a
    if num % 2 or num < 0:
        raise AssertionError(f"ell({a}, {b}) is not a nonnegative integer: {num}/2")
    return num // 2


def connection_gap(n: int, group: Group, a: int) -> int:
    """ell(a, d) - ell(a+1, 1), the jump between consecutive a-blocks, in
    closed form: (p^a / 2)(parity_offset * p - residue + 2) with
    residue = n mod p."""
    p = group.p
    return p ** a * (parity_offset(n, p) * p - n % p + 2) // 2


def trivial_rep(group: Group, count: int = 1) -> Rep:
    return Rep(group, count, (0,) * group.k)


def rotation_plane(group: Group, level: int) -> Rep:
    if level == group.k:
        return trivial_rep(group, 2)
    planes = [0] * group.k
    planes[level] = 1
    return Rep(group, 0, tuple(planes))


def regular_rep(group: Group, count: int) -> Rep:
    p, k = group.p, group.k
    planes = tuple(count * ((p ** (k - j) - p ** (k - j - 1)) // 2) for j in range(k))
    return Rep(group, count, planes)


def lambda_block(count: int, group: Group) -> Rep:
    p, k = group.p, group.k
    planes = tuple(count // p ** j - count // p ** (j + 1) for j in range(k))
    return Rep(group, 2 * (count // p ** k), planes)


def stages(tower: Tower) -> list[tuple[SliceDescriptor, int | None, int | None, Rep]]:
    """The tower's steps, each as (descriptor, a, b, section), the
    section's multiplicities made a Rep."""
    return [(desc, a, b, Rep(tower.group, trivial, planes)) for desc, a, b, trivial, planes in tower.steps()]


def reference_build_tower(n: int, group: Group) -> list[tuple[SliceDescriptor, int | None, int | None, Rep]]:
    if n <= 2:
        rep = trivial_rep(group, n)
        return [(SliceDescriptor(rep), None, None, rep)]

    p, k = group.p, group.k
    dims = base_dims(n, p)
    section = trivial_rep(group, n)
    found = []
    for a in range(k, 0, -1):
        for b in range(len(dims), 0, -1):
            if a == 1 and b == 1 and n % p == 0:
                continue
            m = dims[b - 1]
            rep = (regular_rep(group, n - 2) - trivial_rep(group)
                   - lambda_block(ell(n, group, a, b), group))
            i, j = min(p_adic_val(m, p), k - a) + 1, a - 1
            found.append((SliceDescriptor(rep, coeff_i=i, coeff_j=j), a, b, section))
            section = section - rotation_plane(group, i + j) + rotation_plane(group, j)
    # the bottom integral slice is the last section itself
    found.append((SliceDescriptor(section), None, None, section))
    return found
