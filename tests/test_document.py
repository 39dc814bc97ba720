"""The tower document: field layout, the printed-form rule for slice
spheres, validity against the shipped schema, its text being what
json.dumps(indent=2) writes, and the indented writer that prints it."""

import itertools
import json
from importlib import resources

import jsonschema
import pytest
from hypothesis import example, given, strategies as st

from slicetower.abelian import AbGroup
from slicetower.cli import main
from slicetower.document import FORMAT, VERSION, Raw, dumps_indented, rep_payload, tower_document
from slicetower.group import Group
from slicetower.rep import Rep
from slicetower.tower import Failure, VerificationReport, build_tower, verify_tower

C3 = Group(3, 1)
C9 = Group(3, 2)


def load_schema():
    text = resources.files("slicetower").joinpath("data/tower.schema.json").read_text()
    return json.loads(text)


def test_top_level_fields():
    doc = json.loads(tower_document(build_tower(7, C9)))
    assert doc["format"] == FORMAT == "slicetower/1"
    assert doc["tool"] == {"name": "slicetower", "version": VERSION}
    assert doc["group"] == {"p": 3, "k": 2, "order": 9, "display": "C_3^2"}
    assert doc["n"] == 7
    assert doc["stage_count"] == 5 == len(doc["stages"])
    assert [s["index"] for s in doc["stages"]] == list(range(5))
    assert all(s["verification"] is None for s in doc["stages"])


def test_rep_payload():
    payload = json.loads(rep_payload(Rep(C9, 2, (5, 1))))
    assert payload == {
        "trivial": 2,
        "planes": [5, 1],
        "dim": 14,
        "display": "2 + λ_1 + 5λ_0",
        "latex": r"2 + \lambda_{1} + 5\lambda_{0}",
    }


def test_printed_rule_regular_shorthand():
    # over a group with two plane levels the exact rho form survives
    doc = json.loads(tower_document(build_tower(7, C9)))
    s0 = doc["stages"][0]["slice"]
    assert s0["rep"]["display"] == "5ρ - 1"
    assert s0["printed"] == {"display": "5ρ - 1", "latex": r"5\rho - 1"}
    s3 = doc["stages"][3]["slice"]
    assert s3["printed"]["display"] == "ρ - 1"
    assert s3["coefficient"] == {"family": "B", "i": 2, "j": 0, "display": "B(2,0)"}


def test_printed_rule_strips_invisible_planes():
    # no rho shorthand: planes below the coefficient's range disappear
    doc = json.loads(tower_document(build_tower(7, C9)))
    s2 = doc["stages"][2]["slice"]
    assert s2["rep"]["display"] == "2 + λ_1 + 5λ_0"
    assert s2["printed"]["display"] == "2 + λ_1"
    # over C_p even an exact regular multiple is printed stripped
    doc3 = json.loads(tower_document(build_tower(7, C3)))
    s0 = doc3["stages"][0]["slice"]
    assert s0["rep"]["display"] == "5ρ - 1"
    assert s0["printed"]["display"] == "4"


def test_integral_stage_prints_exactly():
    doc = json.loads(tower_document(build_tower(16, C9)))
    last = doc["stages"][-1]
    assert last["slice"]["kind"] == "integral"
    assert last["slice"]["coefficient"] == {"family": "Z", "display": "Z"}
    assert last["slice"]["printed"]["display"] == "2 + 2λ_1 + 5λ_0"
    assert last["section"]["display"] == "2 + 2λ_1 + 5λ_0"


def test_verification_payload():
    tower = build_tower(4, C3)
    reports = verify_tower(tower)
    doc = json.loads(tower_document(tower, reports))
    for stage in doc["stages"]:
        v = stage["verification"]
        assert v["passed"] is True
        assert v["checks"] > 0
        assert v["failures"] == []


BAD = VerificationReport(
    passed=False,
    checks=3,
    failures=(Failure(level=1, check="vanishing", epsilon=1, t=2,
                      group=AbGroup((3,))),),
)


def test_failure_payload():
    tower = build_tower(1, C3)
    doc = json.loads(tower_document(tower, [BAD]))
    v = doc["stages"][0]["verification"]
    assert v["passed"] is False
    assert v["failures"] == [
        {"level": 1, "check": "vanishing", "epsilon": 1, "t": 2, "group": "Z/3"}]


@pytest.mark.parametrize("n,group", [
    (7, C9), (16, C9), (9, C9), (0, C3), (1, C3), (2, C3), (5, Group(5, 2)),
])
def test_documents_validate_against_schema(n, group):
    schema = load_schema()
    tower = build_tower(n, group)
    jsonschema.validate(json.loads(tower_document(tower)), schema)
    jsonschema.validate(json.loads(tower_document(tower, verify_tower(tower)
                                                  if n <= 5 else None)), schema)


def canonical(text: str) -> bool:
    """Whether text is what json.dumps(indent=2) writes for the value it holds."""
    return json.dumps(json.loads(text), indent=2) == text


def test_document_round_trips_through_json():
    # the stages are spliced from cached fragments, with and without
    # reports; a failing report also carries a group
    for p, k, n in itertools.product((3, 5, 7), (1, 2, 3), range(41)):
        tower = build_tower(n, Group(p, k))
        for reports in (None, verify_tower(tower), [BAD] * len(tower.stages)):
            assert canonical(tower_document(tower, reports)), (p, k, n, reports)


@pytest.mark.parametrize("p,k,n", [("3", "2", "3..40"), ("5", "1", "0..40"), ("7", "3", "3..12")])
def test_verify_report_is_canonical_json(capsys, p, k, n):
    # the report splices each tower's document into its "towers" list
    assert main(["verify", "--p", p, "--k", k, "--n", n, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and canonical(out[:-1])


# strings mixing arbitrary characters with the ones JSON must escape
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x1f\x7f\ud800é€😀')))
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2 ** 100, 2 ** 100), TEXT)


def json_trees(depth: int):
    """Trees of JSON values nested at most depth containers deep."""
    if depth == 0:
        return LEAVES
    inner = json_trees(depth - 1)
    return st.one_of(LEAVES, st.lists(inner, max_size=4), st.dictionaries(TEXT, inner, max_size=4))


@given(json_trees(4))
@example({"a": [], "b": {}, "c": [[], {}, [[{}]]], "": {"d": []}})
@example([])
@example({})
def test_writer_matches_stdlib_indent(tree):
    assert dumps_indented(tree) == json.dumps(tree, indent=2)


@given(json_trees(3))
@example({"a": [], "b": {"c": "\n"}})
def test_raw_text_is_spliced_reindented(tree):
    assert dumps_indented({"x": [Raw(dumps_indented(tree))]}) == json.dumps({"x": [tree]}, indent=2)


@pytest.mark.parametrize("value", [1.5, (1, 2), {"a": [0.0]}, [{"b": (3,)}], {1: 2}, {"c": {1, 2}}],
                         ids=["float", "tuple", "nested-float", "nested-tuple", "int-key", "set"])
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        dumps_indented(value)
