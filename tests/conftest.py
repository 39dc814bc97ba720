"""Every test starts with empty caches of torsion slices, of their
display forms and JSON text, of slice reports and their JSON text, and
of sphere homology, so check counts and cache sizes never depend on the
order tests run in.  Tests of the caches warm them themselves."""

import pytest

from slicetower.document import slice_text, sphere_forms, verification_text
from slicetower.homology import sphere_homology
from slicetower.tower import torsion_slice, verify_slice


@pytest.fixture(autouse=True)
def empty_caches():
    torsion_slice.cache_clear()
    sphere_forms.cache_clear()
    slice_text.cache_clear()
    verify_slice.cache_clear()
    verification_text.cache_clear()
    sphere_homology.cache_clear()
