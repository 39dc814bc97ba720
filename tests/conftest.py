"""Every test starts with an empty sphere homology cache, so check
counts and cache sizes never depend on the order tests run in.  Tests of
the cache warm it themselves."""

import pytest

from slicetower.homology import sphere_homology


@pytest.fixture(autouse=True)
def empty_sphere_homology_cache():
    sphere_homology.cache_clear()
