"""build_tower against the reference assembly of tests/reference_tower.py:
the same stages, descriptor, coefficients, section and place (a, b),
over every n up to 80 for C_{p^k} with p in 3, 5, 7 and k in 1..4."""

import itertools

import pytest

from reference_tower import reference_build_tower
from slicetower.group import Group
from slicetower.tower import build_tower


def stage_fields(stage):
    desc = stage.descriptor
    return (desc.rep, desc.coeff_i, desc.coeff_j, stage.section, stage.a, stage.b)


@pytest.mark.parametrize("p,k", list(itertools.product((3, 5, 7), range(1, 5))))
def test_build_tower_matches_reference(p, k):
    group = Group(p, k)
    for n in range(81):
        tower, ref = build_tower(n, group), reference_build_tower(n, group)
        assert (tower.group, tower.n) == (ref.group, ref.n)
        assert len(tower.stages) == len(ref.stages), n
        for stage, expected in zip(tower.stages, ref.stages):
            assert stage == expected, (n, stage.a, stage.b)
            assert stage_fields(stage) == stage_fields(expected), (n, stage.a, stage.b)
