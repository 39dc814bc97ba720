"""Every test starts with empty slice and sphere homology caches, so
check counts and cache sizes never depend on the order tests run in.
Tests of the caches warm them themselves."""

import pytest

from slicetower.homology import sphere_homology
from slicetower.tower import verify_slice


@pytest.fixture(autouse=True)
def empty_caches():
    verify_slice.cache_clear()
    sphere_homology.cache_clear()
