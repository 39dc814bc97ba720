"""Every test starts with every cache of the package empty: torsion
slices, their display forms and JSON text, slice reports and their JSON
text, sphere homology, regular representations and the rest, found by
scanning the package's modules.  So check counts and cache sizes never
depend on the order tests run in.  Tests of the caches warm them
themselves."""

import importlib
import pkgutil

import pytest

import slicetower

# every module-level functools cache, once, though some modules import others' caches
CACHES = list(dict.fromkeys(
    value
    for info in pkgutil.iter_modules(slicetower.__path__)
    for value in vars(importlib.import_module(f"slicetower.{info.name}")).values()
    if hasattr(value, "cache_clear")))


@pytest.fixture
def package_caches():
    return CACHES


@pytest.fixture(autouse=True)
def empty_caches():
    for cache in CACHES:
        cache.cache_clear()
