"""Every test starts with empty caches of torsion slices, of their
display forms, of slice reports and of sphere homology, so check counts
and cache sizes never depend on the order tests run in.  Tests of the
caches warm them themselves."""

import pytest

from slicetower.document import sphere_forms
from slicetower.homology import sphere_homology
from slicetower.tower import torsion_slice, verify_slice


@pytest.fixture(autouse=True)
def empty_caches():
    torsion_slice.cache_clear()
    sphere_forms.cache_clear()
    verify_slice.cache_clear()
    sphere_homology.cache_clear()
