"""The runtime uses the standard library only: every absolute import in
the package names a standard-library module or the package itself, and
the command line does without argparse.  The orbit size p^(k - h) has
one home, Group.index.  No indented JSON goes
through json.dumps: every document is spelled as text in document.py,
the one module that imports json or reads the document's format and
group fields.  Spheres are realized in one module, homology.  The oracle reads none of the tower's
closed forms, and the closed forms read no coefficient back.  The
runtime ships no code that only tests read.  Every cache is bounded,
and every field of a dataclass it may be keyed by takes part in
equality.  And every invariant raises InvariantError, which
python -O keeps and the command line reports, and a tier-1 test fires
each one."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import slicetower

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "slicetower"


def absolute_imports(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module)
    return out


def test_runtime_imports_are_stdlib_only():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for name in absolute_imports(ast.parse(path.read_text(), str(path))):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top == "slicetower", f"{path.name} imports {name}"


def test_the_command_line_does_not_import_argparse():
    # every slicetower process imports cli; its flags are read from one
    # table, so argparse's import and parser build are not paid per process
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", "import sys, slicetower.cli; print('argparse' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def subtracts_from_k(node: ast.AST) -> bool:
    """Whether node is a chain k - ... - ... whose first term is k or *.k."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    while isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        node = node.left
    return (isinstance(node, ast.Name) and node.id == "k"
            or isinstance(node, ast.Attribute) and node.attr == "k")


def test_index_powers_only_in_group():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "group.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and subtracts_from_k(node.right)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"write p ** (k - h) as Group.index(h): {found}"


def test_no_indented_json_dumps():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
                    and any(kw.arg == "indent" for kw in node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"spell indented JSON as text, as document.py does: {found}"


# Runtime names no other runtime code reads, each with the reader it
# has or is waiting for.  A name that gains a runtime reader leaves.
NO_RUNTIME_READER = {
    "Mat.times_vec": "the benchmark tracer wraps it",
    "bredon_homology": "the benchmark tracer wraps it; the tower-level identity check (ROADMAP item 5)",
}


def definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each module-level function
    and class, and of each non-dunder method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item


def references(node: ast.AST) -> list[str]:
    """Names read under node, as variables or as attributes."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]


def test_runtime_names_have_runtime_readers():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    everywhere: dict[str, int] = {}
    for tree in trees.values():
        for name in references(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    unread, stale = [], []
    for file, tree in trees.items():
        for qual, name, node in definitions(tree):
            read = everywhere.get(name, 0) > references(node).count(name)
            if read and qual in NO_RUNTIME_READER:
                stale.append(f"{file}:{qual}")
            elif not read and qual not in NO_RUNTIME_READER:
                unread.append(f"{file}:{qual}")
    assert not unread, f"only tests read these; delete them or give them a reader: {unread}"
    assert not stale, f"these have a runtime reader now; take them off NO_RUNTIME_READER: {stale}"
    defined = {qual for tree in trees.values() for qual, _, _ in definitions(tree)}
    assert set(NO_RUNTIME_READER) <= defined, set(NO_RUNTIME_READER) - defined


# Realization names, with the only modules that may read or import them:
# everyone else asks homology.sphere_homology or bredon_homology.
REALIZATION_READERS = {
    "level_complex": {"homology.py"},
    "homology_at": {"homology.py"},
    "cell_structure": {"homology.py", "cells.py"},
}


def reads(node: ast.AST) -> set[str]:
    """Names read under node, or imported by name there."""
    return set(references(node)) | {alias.name for n in ast.walk(node)
                                    if isinstance(n, ast.ImportFrom) for alias in n.names}


def test_only_homology_realizes_spheres():
    found = []
    for path in sorted(SRC.glob("*.py")):
        names = reads(ast.parse(path.read_text(), str(path)))
        found.extend(f"{path.name} reads {name}" for name, readers in REALIZATION_READERS.items()
                     if name in names and path.name not in readers)
    assert not found, f"ask homology.sphere_homology instead: {found}"


# The JSON format has one home, document.py: no other module imports json
# or reads the format tag or the documents' "group" object.
DOCUMENT_NAMES = {"FORMAT", "group_text"}


def test_only_document_spells_json():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "document.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        found.extend(f"{path.name} imports {name}" for name in absolute_imports(tree)
                     if name.split(".")[0] == "json")
        found.extend(f"{path.name} reads {name}" for name in sorted(reads(tree) & DOCUMENT_NAMES))
    assert not found, f"spell JSON documents in document.py: {found}"


# The closed forms of the tower.  The oracle, which checks a slice from
# its representation and coefficient alone, reads none of them: not in
# its modules, and not in the two functions of tower.py that run it.
CLOSED_FORMS = {"slice_params", "slice_rep", "n_slice_rep",
                "lambda_block", "torsion_slice", "_slice_class", "checked_slice", "build_tower"}
ORACLE_MODULES = ("homology.py", "cells.py", "abelian.py", "mackey.py")
ORACLE_IN_TOWER = {"verify_slice", "verify_tower"}


def test_the_oracle_reads_no_closed_form():
    found = [f"{name} reads {form}" for name in ORACLE_MODULES
             for form in sorted(reads(ast.parse((SRC / name).read_text(), name)) & CLOSED_FORMS)]
    bodies = [node for node in ast.parse((SRC / "tower.py").read_text(), "tower.py").body
              if isinstance(node, ast.FunctionDef) and node.name in ORACLE_IN_TOWER]
    assert {node.name for node in bodies} == ORACLE_IN_TOWER
    found.extend(f"tower.{node.name} reads {form}" for node in bodies
                 for form in sorted(reads(node) & CLOSED_FORMS))
    assert not found, f"the verifier must not reuse the construction: {found}"


def test_the_closed_form_reads_no_coefficient_back():
    # each torsion stage's trade is decided once, and its coefficient is
    # derived from it; a closed form that read the trade back off B(i, j)
    # as (i + j, j) would follow any coefficient it was handed.  Only the
    # oracle reads a coefficient, to check it
    functions = [node for node in ast.parse((SRC / "tower.py").read_text(), "tower.py").body
                 if isinstance(node, ast.FunctionDef) and node.name not in ORACLE_IN_TOWER]
    assert {"torsion_slice", "build_tower"} <= {node.name for node in functions}
    found = [f"tower.{node.name} reads {name}" for node in functions
             for name in sorted(set(references(node)) & {"coeff_i", "coeff_j"})]
    assert not found, f"derive the coefficient from the trade, not the trade from it: {found}"


def test_caches_are_bounded(package_caches):
    # a cache keyed by its arguments gains an entry per distinct request,
    # so a long-lived process would grow without end; only a function of
    # no arguments holds one value and may go uncapped
    assert len(package_caches) >= 9
    unbounded = [f"{cache.__module__}.{cache.__qualname__}" for cache in package_caches
                 if cache.cache_parameters()["maxsize"] is None
                 and inspect.signature(cache.__wrapped__).parameters]
    assert not unbounded, f"give these caches a maxsize: {unbounded}"


def test_every_dataclass_field_takes_part_in_equality():
    # the caches are keyed by these values: a field that equality
    # ignores would let a hit carry what an equal key built otherwise
    # held, so a hit could be told apart from a fresh build
    classes = [value for info in pkgutil.iter_modules(slicetower.__path__)
               for module in [importlib.import_module(f"slicetower.{info.name}")]
               for value in vars(module).values()
               if isinstance(value, type) and dataclasses.is_dataclass(value)
               and value.__module__ == module.__name__]
    assert len(classes) >= 13
    ignored = [f"{cls.__module__}.{cls.__qualname__}.{field.name}"
               for cls in classes for field in dataclasses.fields(cls) if not field.compare]
    assert not ignored, f"these fields are left out of equality: {ignored}"


def test_invariants_raise_invariant_error():
    # python -O drops an assert statement, and cli.main reports a broken
    # invariant in one line only when it is an InvariantError
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = getattr(node, "exc", None)
            if isinstance(exc, ast.Call):
                exc = exc.func
            if (isinstance(node, ast.Assert) or isinstance(node, ast.Raise)
                    and isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raise group.InvariantError here: {found}"


# Every raise InvariantError in the runtime, by its function and message
# (each formatted value written {}), with the tier-1 test that fires it:
# a check that no test fires cannot be told from one that cannot fail.
GUARDS = {
    ("homology._check_complex", "boundary at dim {} not well defined"):
        "test_homology.py::test_check_complex_refuses_an_ill_defined_boundary",
    ("homology._check_complex", "d^2 != 0 from dim {}"):
        "test_homology.py::test_check_complex_refuses_a_square_that_is_not_zero",
    ("homology.homology_at", "a boundary or relation is not a cycle"):
        "test_homology.py::test_homology_at_refuses_a_boundary_that_is_not_a_cycle",
    ("homology._top_lifts", "boundary at dim {} not well defined at the top level"):
        "test_homology.py::test_top_lifts_refuse_an_ill_defined_boundary",
    ("homology._top_lifts", "the lifted boundaries from dim {} do not compose to 0"):
        "test_homology.py::test_top_lifts_refuse_boundaries_that_do_not_compose_to_zero",
    ("rep.checked_slice", "V at (a, m) = ({}, {}) is not an actual representation of the slice dimension"):
        "test_tower.py::test_a_shifted_slice_is_checked_as_slice_rep_checks",
    ("rep.checked_slice", "V at (a, m) = ({}, {}) has the wrong trivial multiplicity"):
        "test_tower.py::test_a_shifted_slice_is_checked_as_slice_rep_checks",
    ("rep.n_slice_rep", "the bottom slice representation for n = {} is not actual of dimension n"):
        "test_rep.py::test_n_slice_rep_refuses_a_bottom_slice_of_another_dimension",
    ("tower.schedule", "exchanging planes across V({},{}) leaves no section of dimension n"):
        "test_tower.py::test_exchange_needs_the_plane_it_gives_up",
    ("tower.schedule", "the bottom section differs from the closed form of the integral slice"):
        "test_tower.py::test_schedule_refuses_a_bottom_section_off_the_closed_form",
    ("tower.schedule", "slice dimensions are not strictly decreasing: {} then {}"):
        "test_tower.py::test_slice_dimensions_must_strictly_decrease",
    ("tower.schedule", "the integral slice, of dimension {}, is not below the slice above, of {}"):
        "test_tower.py::test_slice_dimensions_must_strictly_decrease",
    ("tower.verify_slice", "restriction to level {} changed the dimension of {}"):
        "test_tower.py::test_verify_slice_refuses_a_restriction_that_changes_the_dimension",
    ("tower.verify_slice", "vanishing loop failed to stabilize"):
        "test_tower.py::test_verify_slice_gives_up_on_a_vanishing_loop_that_never_stops",
}


def message(node: ast.expr) -> str:
    """The text of a string or f-string, each formatted value as {}."""
    return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in getattr(node, "values", [node]))


def guard_sites(node: ast.AST, where: str) -> list[tuple[str, str]]:
    """(function, message) of each raise InvariantError under node, the
    function named where, as module.function or module.Class.method."""
    sites = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            sites += guard_sites(child, f"{where}.{child.name}")
            continue
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "InvariantError":
                args = getattr(child.exc, "args", [])
                sites.append((where, message(args[0]) if args else ""))
        sites += guard_sites(child, where)
    return sites


def test_every_invariant_is_fired_by_a_test():
    sites = [site for path in sorted(SRC.glob("*.py"))
             for site in guard_sites(ast.parse(path.read_text(), str(path)), path.stem)]
    assert len(sites) == len(set(sites)), "two guards share a function and a message"
    unlisted, stale = set(sites) - set(GUARDS), set(GUARDS) - set(sites)
    assert not unlisted, f"name the test that fires each of these in GUARDS: {sorted(unlisted)}"
    assert not stale, f"these guards are gone; take them off GUARDS: {sorted(stale)}"
    files = {test.split("::")[0] for test in GUARDS.values()}
    defined = {f"{file}::{node.name}" for file in files
               for node in ast.parse((TESTS / file).read_text(), file).body if isinstance(node, ast.FunctionDef)}
    missing = set(GUARDS.values()) - defined
    assert not missing, f"GUARDS names tests that do not exist: {sorted(missing)}"
