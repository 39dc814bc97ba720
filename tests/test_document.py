"""The tower document: field layout, the printed-form rule for slice
spheres, validity against the shipped schema, and its text, written
stage by stage, being what json.dumps(indent=2) writes, alone and in a
verify report, passing or failing.  The homology and mackey documents
are what json.dumps(indent=2) writes too."""

import itertools
import json
import re
from importlib import resources

import jsonschema
import pytest

from make_cli_digests import COEFFS
from slicetower import cli
from slicetower.abelian import AbGroup
from slicetower.cli import main
from slicetower.document import FORMAT, VERSION, homology_document, rep_payload, tower_document
from slicetower.group import Group
from slicetower.rep import Rep, parse_rep
from slicetower.tower import Failure, VerificationReport, build_tower, verify_tower

C3 = Group(3, 1)
C9 = Group(3, 2)


def document(tower, reports=None) -> str:
    """The tower's JSON document as one string, less the newline that ends it."""
    text = "".join(tower_document(tower, reports))
    assert text.endswith("}\n")
    return text[:-1]


def load_schema():
    text = resources.files("slicetower").joinpath("data/tower.schema.json").read_text()
    return json.loads(text)


def test_top_level_fields():
    doc = json.loads(document(build_tower(7, C9)))
    assert doc["format"] == FORMAT == "slicetower/1"
    assert doc["tool"] == {"name": "slicetower", "version": VERSION}
    assert doc["group"] == {"p": 3, "k": 2, "order": 9, "display": "C_3^2"}
    assert doc["n"] == 7
    assert doc["stage_count"] == 5 == len(doc["stages"])
    assert [s["index"] for s in doc["stages"]] == list(range(5))
    assert all(s["verification"] is None for s in doc["stages"])


def test_rep_payload():
    payload = json.loads(rep_payload(C9, 2, (5, 1)))
    assert payload == {
        "trivial": 2,
        "planes": [5, 1],
        "dim": 14,
        "display": "2 + λ_1 + 5λ_0",
        "latex": r"2 + \lambda_{1} + 5\lambda_{0}",
    }


def test_printed_rule_regular_shorthand():
    # over a group with two plane levels the exact rho form survives
    doc = json.loads(document(build_tower(7, C9)))
    s0 = doc["stages"][0]["slice"]
    assert s0["rep"]["display"] == "5ρ - 1"
    assert s0["printed"] == {"display": "5ρ - 1", "latex": r"5\rho - 1"}
    s3 = doc["stages"][3]["slice"]
    assert s3["printed"]["display"] == "ρ - 1"
    assert s3["coefficient"] == {"family": "B", "i": 2, "j": 0, "display": "B(2,0)"}


def test_printed_rule_strips_invisible_planes():
    # no rho shorthand: planes below the coefficient's range disappear
    doc = json.loads(document(build_tower(7, C9)))
    s2 = doc["stages"][2]["slice"]
    assert s2["rep"]["display"] == "2 + λ_1 + 5λ_0"
    assert s2["printed"]["display"] == "2 + λ_1"
    # over C_p even an exact regular multiple is printed stripped
    doc3 = json.loads(document(build_tower(7, C3)))
    s0 = doc3["stages"][0]["slice"]
    assert s0["rep"]["display"] == "5ρ - 1"
    assert s0["printed"]["display"] == "4"


def test_integral_stage_prints_exactly():
    doc = json.loads(document(build_tower(16, C9)))
    last = doc["stages"][-1]
    assert last["slice"]["kind"] == "integral"
    assert last["slice"]["coefficient"] == {"family": "Z", "display": "Z"}
    assert last["slice"]["printed"]["display"] == "2 + 2λ_1 + 5λ_0"
    assert last["section"]["display"] == "2 + 2λ_1 + 5λ_0"


def latex_to_display(tex: str) -> str:
    """A LaTeX sphere or coefficient in the text table's spelling."""
    tex = re.sub(r"\\lambda_\{(\d+)\}", r"λ_\1", tex.replace(r"\rho", "ρ"))
    return tex.replace(r"\underline{\mathbb{Z}}", "Z").replace(r"\underline{B}", "B")


@pytest.mark.parametrize("p,k", [(3, 2), (5, 3), (3, 4), (7, 2)])
def test_the_three_formats_print_the_same_slice(capsys, p, k):
    # one cached entry spells each slice's printed sphere for every
    # format: the text row's slice cell, the LaTeX row (for the bottom
    # stage, its section, which is the integral slice) and the JSON
    # "printed" and "coefficient" name the same sphere and coefficient
    group = Group(p, k)
    for n in range(0, 61, 3):
        out = {}
        for fmt in ("text", "latex", "json"):
            assert main(["tower", "--p", str(p), "--k", str(k), "--n", str(n), "--format", fmt]) == 0
            out[fmt] = capsys.readouterr().out
        stages = json.loads(out["json"])["stages"]
        header, *table = out["text"].splitlines()[2:]
        lo, hi = header.index("slice"), header.index("section")
        diagram = out["latex"].splitlines()[1:-1]
        assert len(table) == len(diagram) == len(stages), (p, k, n)
        for stage, line, row in zip(stages, table, diagram):
            printed, coeff = stage["slice"]["printed"], stage["slice"]["coefficient"]["display"]
            sphere, text_coeff = line[lo:hi].rstrip().split(" ∧ H")
            tex, tex_coeff = re.match(r"&? ?S\^\{(.*?)\} \\wedge H(\S+)", row).groups()
            assert sphere.removeprefix("S^") in (printed["display"], f"({printed['display']})"), (n, line)
            assert tex == printed["latex"], (n, row)
            assert text_coeff == latex_to_display(tex_coeff) == coeff, (n, line, row)
            assert parse_rep(latex_to_display(tex), group) == parse_rep(printed["display"], group), (n, row)


def test_verification_payload():
    tower = build_tower(4, C3)
    reports = verify_tower(tower)
    doc = json.loads(document(tower, reports))
    for stage in doc["stages"]:
        v = stage["verification"]
        assert v["passed"] is True
        assert v["checks"] > 0
        assert v["failures"] == []


BAD = VerificationReport(
    checks=3,
    failures=(Failure(level=1, check="vanishing", epsilon=1, t=2,
                      group=AbGroup((3,))),),
)
# a containment failure has no epsilon, t or group: each is spelled null
UNCONTAINED = VerificationReport(
    checks=4,
    failures=(Failure(level=0, check="containment"), *BAD.failures),
)


def test_failure_payload():
    tower = build_tower(1, C3)
    vanishing = {"level": 1, "check": "vanishing", "epsilon": 1, "t": 2, "group": "Z/3"}
    containment = {"level": 0, "check": "containment", "epsilon": None, "t": None, "group": None}
    for report, failures in ((BAD, [vanishing]), (UNCONTAINED, [containment, vanishing])):
        v = json.loads(document(tower, [report]))["stages"][0]["verification"]
        assert v["passed"] is False
        assert v["checks"] == report.checks
        assert v["failures"] == failures


# the stage kinds of S^0..S^4: S^3 over C_3 has no torsion stage, as 3 | n
# drops the one it would have
KINDS = {C3: [["zero"], ["integral-small"], ["integral-small"], ["integral"], ["torsion", "integral"]],
         C9: [["zero"], ["integral-small"], ["integral-small"], ["torsion", "integral"],
              ["torsion", "torsion", "integral"]]}


@pytest.mark.parametrize("group", [C3, C9], ids=str)
def test_document_kinds(group):
    # the document spells each stage's kind: torsion where the stage has
    # a column a, else zero, integral-small or integral by the tower's n
    for n, kinds in enumerate(KINDS[group]):
        stages = json.loads(document(build_tower(n, group)))["stages"]
        assert [s["slice"]["kind"] for s in stages] == kinds, n
        assert [s["slice"]["a"] is not None for s in stages] == [k == "torsion" for k in kinds], n


@pytest.mark.parametrize("n,group", [
    (7, C9), (16, C9), (9, C9), (0, C3), (1, C3), (2, C3), (5, Group(5, 2)),
])
def test_documents_validate_against_schema(n, group):
    schema = load_schema()
    tower = build_tower(n, group)
    jsonschema.validate(json.loads(document(tower)), schema)
    jsonschema.validate(json.loads(document(tower, verify_tower(tower)
                                                  if n <= 5 else None)), schema)


def canonical(text: str) -> bool:
    """Whether text is what json.dumps(indent=2) writes for the value it holds."""
    return json.dumps(json.loads(text), indent=2) == text


def run_json(capsys, *argv: str) -> str:
    """The JSON text a passing request prints, without its final newline."""
    assert main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return out[:-1]


def test_document_round_trips_through_json():
    # the stages are written around cached fragments, with and without
    # reports; a failing report also carries a group, or nulls
    for p, k, n in itertools.product((3, 5, 7), (1, 2, 3), range(41)):
        tower = build_tower(n, Group(p, k))
        count = len(tower.slices)
        for reports in (None, verify_tower(tower), [BAD] * count, [UNCONTAINED] * count):
            assert canonical(document(tower, reports)), (p, k, n, reports)


@pytest.mark.parametrize("p,k,n", [("3", "2", "3..40"), ("5", "1", "0..40"), ("7", "3", "3..12")])
def test_verify_report_is_canonical_json(capsys, p, k, n):
    # the report holds each tower's document in its "towers" list
    assert canonical(run_json(capsys, "verify", "--p", p, "--k", k, "--n", n))


def test_failing_verify_report_is_canonical_json(capsys, monkeypatch):
    # real towers pass, so no digest holds the report's failing branch:
    # here the first stage of each tower fails
    monkeypatch.setattr(cli, "verify_tower", lambda tower: [BAD, *verify_tower(tower)[1:]])
    assert main(["verify", "--p", "3", "--k", "2", "--n", "6..7", "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert out.endswith("\n") and canonical(out[:-1])
    doc = json.loads(out)
    assert doc["all_passed"] is False
    assert doc["failed_stages"] == 2
    assert doc["stages"] == sum(t["stage_count"] for t in doc["towers"]) > 2
    passed = [[s["verification"]["passed"] for s in t["stages"]] for t in doc["towers"]]
    assert passed == [[False] + [True] * (len(row) - 1) for row in passed]


@pytest.mark.parametrize("k,name", COEFFS, ids=[f"C_3^{k}-{name}" for k, name in COEFFS])
def test_mackey_document_is_canonical_json(capsys, k, name):
    text = run_json(capsys, "mackey", "--p", "3", "--k", str(k), "--show", name)
    assert canonical(text)
    doc = json.loads(text)
    assert doc["kind"] == "mackey" and doc["name"] == name
    assert doc["group"] == {"p": 3, "k": k, "display": str(Group(3, k))}
    assert len(doc["levels"]) == k + 1 and len(doc["res"]) == len(doc["tr"]) == k


@pytest.mark.parametrize("k,rep,coeff,degree,level,homology", [
    (2, "2", "Z", 0, "top", {"display": "0", "free_rank": 0, "torsion": []}),
    (2, "2", "Z", -6, "e", {"display": "0", "free_rank": 0, "torsion": []}),
    (2, "2", "Z", 2, "e", {"display": "Z", "free_rank": 1, "torsion": []}),
    (2, "2λ_0 − 2λ_1 − 1", "Z", -1, "top", {"display": "Z", "free_rank": 1, "torsion": []}),
    (2, "L0 - 2", "Z", -2, "top", {"display": "Z/9", "free_rank": 0, "torsion": [9]}),
    (2, "2", "B( 1,0 )", 2, "top", {"display": "Z/3", "free_rank": 0, "torsion": [3]}),
    (2, "2λ_1 − 2λ_0", "Z", 0, "top", {"display": "Z + Z/3", "free_rank": 1, "torsion": [3]}),
    (1, "λ_0 − 2", "Z*", 0, "e", {"display": "Z", "free_rank": 1, "torsion": []}),
])
def test_homology_document_is_canonical_json(capsys, k, rep, coeff, degree, level, homology):
    # zero, free, torsion and mixed groups; the coefficient stays as given
    text = run_json(capsys, "homology", "--p", "3", "--k", str(k), "--rep", rep, "--coeff", coeff,
                    "--degree", str(degree), "--level", level)
    assert canonical(text)
    doc = json.loads(text)
    assert doc["group"] == {"p": 3, "k": k, "display": str(Group(3, k))}
    assert (doc["kind"], doc["coefficient"], doc["degree"]) == ("homology", coeff, degree)
    assert doc["level"] == (k if level == "top" else 0)
    assert doc["homology"] == homology


def test_homology_document_spells_every_factor():
    # no small sphere has two torsion factors; the document spells any group
    ab = AbGroup((3, 9, 0, 0))
    text = homology_document(C9, Rep(C9, -1, (2, 1)), "Z(2,1)", -3, 1, ab)
    assert canonical(text)
    assert json.loads(text)["homology"] == {"display": str(ab), "free_rank": 2, "torsion": [3, 9]}
