"""Outside-in tracing of slicetower's layers.

The tracer times calls into each listed public function by wrapping it
from outside the package: every name that binds the function, in every
loaded slicetower module, is pointed at the wrapper.  Modules import
one another's functions by name (homology and tower bind
smith_normal_form, level_complex, cell_structure and others), and
module-internal callers go through module globals (kernel_basis calls
smith_normal_form), so patching only the defining module would miss
most calls.

Each wrapper keeps aggregate numbers, not per-call records: call count,
total time, and self time, which is the call's time minus the time of
the traced calls it made.  Some functions run 10^5 times a pass
(rep.render_rep on tower-render), so per-call records would cost more
than the work they describe.  Counters that inspect arguments or
results run after the call's clock stops, and their cost is excluded
from the caller's self time too.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

# (module, attribute path) of every traced function, in report order.
LAYERS = (
    ("cli", "main"),
    ("tower", "build_tower"),
    ("tower", "verify_slice"),
    ("params", "slice_params"),
    ("rep", "slice_rep"),
    ("rep", "render_rep"),
    ("document", "tower_document"),
    ("render", "render_text"),
    ("render", "render_latex"),
    ("mackey", "restrict_mackey"),
    ("cells", "cell_structure"),
    ("cells", "tensor"),
    ("homology", "bredon_homology"),
    ("homology", "level_complex"),
    ("homology", "homology_at"),
    ("homology", "chain_restriction"),
    ("abelian", "smith_normal_form"),
    ("abelian", "kernel_basis"),
    ("abelian", "lattice_basis"),
    ("abelian", "solve_factored"),
    ("abelian", "Mat.times"),
    ("abelian", "Mat.times_vec"),
)

# Layers whose inclusive time is reported too: the phases a request
# passes through, each of which calls other traced layers.
INCLUSIVE = ("tower.build_tower", "tower.verify_slice", "document.tower_document",
             "homology.bredon_homology")


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)


def _bits(rows: list[list[int]]) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    """Aggregate spans and counters for the functions in LAYERS."""

    def __init__(self) -> None:
        self.stats = {f"{mod}.{attr}": Stat() for mod, attr in LAYERS}
        self._stack: list[float] = []   # child time of each open span
        self._seen_structures: set[Any] = set()
        self._open_homology: list[tuple[Any, set[int]]] = []

    # counters, keyed by layer name; each gets (stat, args, result)
    def _tensor(self, st: Stat, args: tuple, res: Any) -> None:
        st.add("cells_out", sum(len(cs) for cs in res.cells.values()))

    def _cell_structure(self, st: Stat, args: tuple, res: Any) -> None:
        key = args[0]
        if key in self._seen_structures:
            st.add("repeats", 1)
        self._seen_structures.add(key)

    def _level_complex(self, st: Stat, args: tuple, res: Any) -> None:
        sizes = [len(o) for o in res.orders.values()]
        st.add("gens", sum(sizes))
        st.peak("gens_max", max(sizes, default=0))

    def _bredon_homology(self, st: Stat, args: tuple, res: Any) -> None:
        st.add("levels_built", len(res.levels))
        self._open_homology.append((res, set()))

    def _times_vec(self, st: Stat, args: tuple, res: Any) -> None:
        mat = args[0]
        st.add("entries", mat.r * mat.c)
        st.add("zeros", sum(row.count(0) for row in mat.a))

    def _smith_normal_form(self, st: Stat, args: tuple, res: Any) -> None:
        A = args[0]
        st.add("entries", A.r * A.c)
        st.peak("side_max", max(A.r, A.c))
        st.peak("bits_max", max(_bits(A.a), _bits(res.U.a), _bits(res.V.a)))

    def _verify_slice(self, st: Stat, args: tuple, res: Any) -> None:
        st.add("checks", res.checks)

    def _counter(self, name: str) -> Callable[[Stat, tuple, Any], None] | None:
        return {
            "cells.tensor": self._tensor,
            "cells.cell_structure": self._cell_structure,
            "homology.level_complex": self._level_complex,
            "homology.bredon_homology": self._bredon_homology,
            "abelian.Mat.times_vec": self._times_vec,
            "abelian.smith_normal_form": self._smith_normal_form,
            "tower.verify_slice": self._verify_slice,
        }.get(name)

    def _wrap(self, fn: Callable, stat: Stat, counter: Callable | None) -> Callable:
        stack = self._stack
        clock = perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children
            if counter is not None:
                t1 = clock()
                counter(stat, args, result)
                elapsed += clock() - t1
            if stack:
                stack[-1] += elapsed
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        """Point every binding of every traced function at its wrapper."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "slicetower" or name.startswith("slicetower.")]
        for mod_name, attr in LAYERS:
            owner: Any = importlib.import_module(f"slicetower.{mod_name}")
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            name = f"{mod_name}.{attr}"
            wrapper = self._wrap(original, self.stats[name], self._counter(name))
            if outer:   # a method: one binding, on its class
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

        # which homology levels a request reads, for levels_used_frac
        homology = importlib.import_module("slicetower.homology")
        ab = homology.BredonHomology.ab
        open_homology = self._open_homology

        def traced_ab(bh: Any, m: int) -> Any:
            for obj, levels in open_homology:
                if obj is bh:
                    levels.add(m)
            return ab(bh, m)

        homology.BredonHomology.ab = traced_ab

    def end_request(self) -> None:
        """Close the request: tally the homology levels it read."""
        st = self.stats["homology.bredon_homology"]
        for _, levels in self._open_homology:
            st.add("levels_read", len(levels))
        self._open_homology.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name: calls and self_s for every layer,
        plus the counters and input shares README.md lists."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
        c = {name: st.counters for name, st in self.stats.items()}

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out["cells.tensor.cells_out"] = c["cells.tensor"].get("cells_out", 0)
        out["cells.cell_structure.repeat_frac"] = share(
            c["cells.cell_structure"].get("repeats", 0),
            self.stats["cells.cell_structure"].calls)
        out["homology.level_complex.gens"] = c["homology.level_complex"].get("gens", 0)
        out["homology.level_complex.gens_max"] = c["homology.level_complex"].get("gens_max", 0)
        out["homology.bredon_homology.levels_used_frac"] = share(
            c["homology.bredon_homology"].get("levels_read", 0),
            c["homology.bredon_homology"].get("levels_built", 0))
        out["abelian.Mat.times_vec.zero_frac"] = share(
            c["abelian.Mat.times_vec"].get("zeros", 0),
            c["abelian.Mat.times_vec"].get("entries", 0))
        for key in ("entries", "side_max", "bits_max"):
            out[f"abelian.smith_normal_form.{key}"] = c["abelian.smith_normal_form"].get(key, 0)
        out["tower.verify_slice.checks"] = c["tower.verify_slice"].get("checks", 0)
        # inclusive time of the phases a request goes through
        for name in INCLUSIVE:
            out[f"{name}.total_s"] = self.stats[name].total_s
        return out
