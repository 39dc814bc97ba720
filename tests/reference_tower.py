"""Reference tower assembly: build_tower as it stood before its plane
arithmetic was flattened, every slice and every section formed by Rep
addition and subtraction of whole representations.  Only tests import
it; it pins each Stage (descriptor, coefficients, section, a, b).

The plane constructors are copied here rather than imported, so a
change to the ones in slicetower.rep cannot move the reference with it.
"""

from slicetower.group import Group, p_adic_val
from slicetower.params import slice_params
from slicetower.rep import Rep
from slicetower.tower import Kind, SliceDescriptor, Stage, Tower


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


def reference_build_tower(n: int, group: Group) -> Tower:
    if n <= 2:
        rep = trivial_rep(group, n)
        desc = SliceDescriptor(Kind.ZERO if n == 0 else Kind.INTEGRAL_SMALL, rep)
        return Tower(group, n, (Stage(desc, rep),))

    p, k = group.p, group.k
    dims = slice_params(n, group).base_dims
    section = trivial_rep(group, n)
    stages = []
    for a in range(k, 0, -1):
        for b in range(len(dims), 0, -1):
            if a == 1 and b == 1 and n % p == 0:
                continue
            m = dims[b - 1]
            ell = ((n - 2) * p ** k - m * p ** a) // 2
            rep = regular_rep(group, n - 2) - trivial_rep(group) - lambda_block(ell, group)
            i, j = min(p_adic_val(m, p), k - a) + 1, a - 1
            stages.append(Stage(SliceDescriptor(Kind.TORSION, rep, coeff_i=i, coeff_j=j),
                                section, a, b))
            section = section - rotation_plane(group, i + j) + rotation_plane(group, j)
    # the bottom integral slice is the last section itself
    stages.append(Stage(SliceDescriptor(Kind.INTEGRAL, section), section))
    return Tower(group, n, tuple(stages))
