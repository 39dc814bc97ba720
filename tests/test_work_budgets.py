"""Work budgets: exact counts of the work a fixed set of requests does,
each at or under the budget committed in data/work_budgets.json.  Wall
time on a shared host cannot resolve a change of a few per cent; these
counts are the same on every host.  A change that cuts work lowers its
budget; raising one needs its reason recorded.

verify-sweep replays, in process and from empty caches, the verify
ranges of the benchmark workload of that name, (p, k, lowest n,
highest n) each, and counts the cache misses of the oracle's layers:
slices checked, spheres looked up afresh, and windows realized.

tower builds, in process and from empty caches, the towers of its
requests, (p, k, n) each, and counts the torsion slices built and the
regular representations cached."""

import importlib.util
import json
import sys
from pathlib import Path

from slicetower.group import Group
from slicetower.homology import sphere_homology, window_homology
from slicetower.params import stage_count
from slicetower.rep import regular_rep
from slicetower.tower import build_tower, torsion_slice, verify_slice, verify_tower

BUDGETS = json.loads((Path(__file__).parent / "data" / "work_budgets.json").read_text())
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def assert_within_budget(work, budgets):
    assert work.keys() == budgets.keys()
    over = {name: (count, budgets[name]) for name, count in work.items() if count > budgets[name]}
    assert not over, f"(count, budget) over budget: {over}"


def test_verify_sweep_budget_replays_the_benchmark_ranges():
    spec = importlib.util.spec_from_file_location("slicetower_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up while building
    spec.loader.exec_module(module)
    assert [tuple(r) for r in BUDGETS["verify-sweep"]["ranges"]] == list(module.VERIFY_SWEEPS)


def test_verify_sweep_stays_within_its_work_budget():
    spec = BUDGETS["verify-sweep"]
    for p, k, lo, hi in spec["ranges"]:
        group = Group(p, k)
        for n in range(lo, hi + 1):
            assert all(report.passed for report in verify_tower(build_tower(n, group))), (p, k, n)
    work = {
        "verify_slice misses": verify_slice.cache_info().misses,
        "sphere_homology misses": sphere_homology.cache_info().misses,
        "window_homology misses": window_homology.cache_info().misses,
        "regular_rep entries": regular_rep.cache_info().currsize,
    }
    assert_within_budget(work, spec["budgets"])


def test_tower_stays_within_its_work_budget():
    spec = BUDGETS["tower"]
    for p, k, n in spec["requests"]:
        group = Group(p, k)
        assert len(build_tower(n, group).stages) == stage_count(n, group), (p, k, n)
    work = {
        "torsion_slice misses": torsion_slice.cache_info().misses,
        "regular_rep entries": regular_rep.cache_info().currsize,
    }
    assert_within_budget(work, spec["budgets"])
