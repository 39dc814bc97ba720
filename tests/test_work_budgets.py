"""Work budgets: exact counts of the work a fixed set of requests does,
each at or under the budget committed in data/work_budgets.json.  Wall
time on a shared host cannot resolve a change of a few per cent; these
counts are the same on every host.  A change that cuts work lowers its
budget; raising one needs its reason recorded.

verify-sweep replays, in process and from empty caches, the verify
ranges of the benchmark workload of that name, (p, k, lowest n,
highest n) each, and counts the cache misses of the oracle's layers:
slices checked, spheres looked up afresh, windows realized, products
of factor cells built (homology's binding of cells.tensor, wrapped),
and coefficients restricted to a subgroup; and the bookkeeping around
them, the representations and Mackey functors the sweep constructs,
counted by wrapping Rep.__post_init__ and MackeyFunctor.__post_init__.

tower builds, in process, each from empty caches, the towers of its
requests, each with its own budgets, and counts the torsion slices
built, the classes of stages they are built from, the regular
representations cached and the representations constructed, counted
as the sweep's are.

tower-render replays, through cli.main in JSON and LaTeX and from empty
caches, the towers of the benchmark workload of that name, and counts
the torsion slices built, the entries of the two per-slice document
caches (sphere_forms and slice_text), the strings those entries hold
for the towers' distinct slices, and the representations the requests
construct, counted as the tower's are.

homology asks sphere_homology, in process and from empty caches, for
one degree of each of its spheres at the top level with coefficients
Z, and counts the oracle's linear algebra: the calls of
invariant_factors, the one elimination the top level runs, with the
nonzero entries of the sparse vectors they are handed.  Modules bind
invariant_factors by name, so every binding in the package is wrapped."""

import contextlib
import importlib
import importlib.util
import io
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import slicetower
from reference_tower import tower_slices
from slicetower import homology
from slicetower.abelian import invariant_factors
from slicetower.cells import tensor
from slicetower.cli import main
from slicetower.document import slice_text, sphere_forms
from slicetower.group import Group
from slicetower.homology import sphere_homology, window_homology
from slicetower.mackey import MackeyFunctor, constant_Z, restrict_mackey
from slicetower.params import stage_count
from slicetower.rep import Rep, parse_rep, regular_rep
from slicetower.tower import _slice_class, build_tower, torsion_slice, verify_slice, verify_tower

BUDGETS = json.loads((Path(__file__).parent / "data" / "work_budgets.json").read_text())
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def assert_within_budget(work, budgets):
    assert work.keys() == budgets.keys()
    over = {name: (count, budgets[name]) for name, count in work.items() if count > budgets[name]}
    assert not over, f"(count, budget) over budget: {over}"


def bench_workloads():
    spec = importlib.util.spec_from_file_location("slicetower_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up while building
    spec.loader.exec_module(module)
    return module


def test_verify_sweep_budget_replays_the_benchmark_ranges():
    assert [tuple(r) for r in BUDGETS["verify-sweep"]["ranges"]] == list(bench_workloads().VERIFY_SWEEPS)


def test_verify_sweep_stays_within_its_work_budget(monkeypatch):
    spec = BUDGETS["verify-sweep"]
    reps, functors = count_constructions(monkeypatch, Rep), count_constructions(monkeypatch, MackeyFunctor)
    products = [0]

    def counted_tensor(factors):
        products[0] += 1
        return tensor(factors)

    monkeypatch.setattr(homology, "tensor", counted_tensor)
    for p, k, lo, hi in spec["ranges"]:
        group = Group(p, k)
        for n in range(lo, hi + 1):
            assert all(report.passed for report in verify_tower(build_tower(n, group))), (p, k, n)
    work = {
        "verify_slice misses": verify_slice.cache_info().misses,
        "sphere_homology misses": sphere_homology.cache_info().misses,
        "window_homology misses": window_homology.cache_info().misses,
        "tensor calls": products[0],
        "restrict_mackey misses": restrict_mackey.cache_info().misses,
        "regular_rep entries": regular_rep.cache_info().currsize,
        "Rep constructions": reps[0],
        "MackeyFunctor constructions": functors[0],
    }
    assert_within_budget(work, spec["budgets"])


def count_constructions(monkeypatch, cls):
    """A one-item list that counts the instances of the dataclass cls
    constructed from here on, by wrapping its __post_init__."""
    count = [0]

    def counted_post_init(self):
        count[0] += 1
        post_init(self)

    post_init = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", counted_post_init)
    return count


@pytest.fixture
def rep_constructions(monkeypatch):
    """A one-item list that counts the Reps constructed from here on."""
    return count_constructions(monkeypatch, Rep)


def test_tower_stays_within_its_work_budget(rep_constructions, package_caches):
    for spec in BUDGETS["tower"]["requests"]:
        for cache in package_caches:
            cache.cache_clear()
        rep_constructions[0] = 0
        group, n = Group(spec["p"], spec["k"]), spec["n"]
        assert sum(1 for _ in build_tower(n, group).steps()) == stage_count(n, group), spec
        work = {
            "torsion_slice misses": torsion_slice.cache_info().misses,
            "slice class misses": _slice_class.cache_info().misses,
            "regular_rep entries": regular_rep.cache_info().currsize,
            "Rep constructions": rep_constructions[0],
        }
        assert_within_budget(work, spec["budgets"])


def strings(value) -> int:
    """The str items in value, a string or nested tuples of them."""
    return 1 if isinstance(value, str) else sum(strings(item) for item in value)


def test_tower_render_stays_within_its_work_budget(rep_constructions):
    workloads = bench_workloads()
    cases = [(p, k, n) for p, k in workloads.RENDER_GROUPS for n in workloads.RENDER_NS]
    cases += [(3, 2, n) for n in workloads.GOLDEN_NS]
    with contextlib.redirect_stdout(io.StringIO()):
        for p, k, n in cases:
            for fmt in ("json", "latex"):
                assert main(["tower", "--p", str(p), "--k", str(k), "--n", str(n), "--format", fmt]) == 0
    constructions = rep_constructions[0]  # the requests' alone, not the slices' below
    slices = {desc for p, k, n in cases for desc in tower_slices(build_tower(n, Group(p, k)))}
    work = {
        "torsion_slice misses": torsion_slice.cache_info().misses,
        "document cache entries": sphere_forms.cache_info().currsize + slice_text.cache_info().currsize,
        "document cache strings": sum(strings(sphere_forms(d)) + strings(slice_text(d)) for d in slices),
        "Rep constructions": constructions,
    }
    assert_within_budget(work, BUDGETS["tower-render"]["budgets"])


@pytest.mark.parametrize("spec", BUDGETS["homology"]["requests"],
                         ids=lambda spec: f"{spec['rep']} over C_{spec['p']}^{spec['k']}")
def test_homology_stays_within_its_work_budget(spec, monkeypatch):
    work = {"invariant_factors calls": 0, "invariant_factors nonzeros in": 0}

    def counted_invariant_factors(vectors):
        vectors = list(vectors)
        work["invariant_factors calls"] += 1
        work["invariant_factors nonzeros in"] += sum(map(len, vectors))
        return invariant_factors(vectors)

    for info in pkgutil.iter_modules(slicetower.__path__):
        module = importlib.import_module(f"slicetower.{info.name}")
        if getattr(module, "invariant_factors", None) is invariant_factors:
            monkeypatch.setattr(module, "invariant_factors", counted_invariant_factors)

    group = Group(spec["p"], spec["k"])
    d = spec["degree"]
    ab, = sphere_homology(parse_rep(spec["rep"], group), constant_Z(group), d, d)
    assert str(ab) == spec["group"]
    assert_within_budget(work, spec["budgets"])
