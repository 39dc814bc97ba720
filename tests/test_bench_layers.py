"""The traced benchmark run looks up its layers by name: every function
it wraps, and the Smith form transforms it measures, must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

from slicetower.abelian import Mat, smith_normal_form
from slicetower.homology import BredonHomology

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("slicetower_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up while building
    spec.loader.exec_module(module)
    return module


def test_tracer_layers_resolve():
    tracer = load_tracer()
    assert tracer.LAYERS
    for mod_name, attr in tracer.LAYERS:
        owner = importlib.import_module(f"slicetower.{mod_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"slicetower.{mod_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner)
    assert callable(BredonHomology.ab)


def test_smith_form_keeps_traced_transforms():
    f = smith_normal_form(Mat(2, 2, [[2, 4], [6, 8]]))
    assert isinstance(f.U, Mat) and isinstance(f.V, Mat)
