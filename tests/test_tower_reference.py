"""build_tower against the reference assembly of tests/reference_tower.py:
the same stages, descriptor, coefficients, section and place (a, b),
over every n up to 80 for C_{p^k} with p in 3, 5, 7 and k in 1..4."""

import itertools

import pytest

from reference_tower import reference_build_tower, stages
from slicetower.group import Group
from slicetower.tower import build_tower


def stage_fields(stage):
    desc, a, b, section = stage
    return (desc.rep, desc.coeff_i, desc.coeff_j, section, a, b)


@pytest.mark.parametrize("p,k", list(itertools.product((3, 5, 7), range(1, 5))))
def test_build_tower_matches_reference(p, k):
    group = Group(p, k)
    for n in range(81):
        tower, ref = build_tower(n, group), reference_build_tower(n, group)
        assert (tower.group, tower.n) == (group, n)
        built = stages(tower)
        assert len(built) == len(ref), n
        for stage, expected in zip(built, ref):
            assert stage == expected, (n, stage[1], stage[2])
            assert stage_fields(stage) == stage_fields(expected), (n, stage[1], stage[2])
