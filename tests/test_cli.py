"""Command surface: output goldens, exit codes, argument handling."""

import json
import os
import subprocess
import sys
import textwrap
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from slicetower.abelian import AbGroup
from slicetower import cli, tower
from slicetower.cli import MAX_CELLS, MAX_K, MAX_STAGES, main
from slicetower.group import Group, InvariantError
from slicetower.homology import bredon_homology
from slicetower.mackey import parse_coefficient
from slicetower.params import stage_count
from slicetower.rep import parse_rep, rotation_plane
from slicetower.tower import Failure, VerificationReport

SRC = Path(__file__).resolve().parents[1] / "src"

S7_TEXT = """\
Slice tower of S^7 ∧ HZ over C_3^2   (5 stages)

  stage  dim  slice                    section
      0   44  S^(5ρ - 1) ∧ HB(1,1)     S^7
      1   26  S^(3ρ - 1) ∧ HB(1,1)     S^(5 + λ_1)
      2   14  S^(2 + λ_1) ∧ HB(1,0)    S^(3 + 2λ_1)
      3    8  S^(ρ - 1) ∧ HB(2,0)      S^(3 + λ_1 + λ_0)
      4    7  S^(1 + λ_1 + 2λ_0) ∧ HZ  S^(1 + λ_1 + 2λ_0)
"""

S7_LATEX = r"""\xymatrix{
S^{5\rho - 1} \wedge H\underline{B}(1,1) \ar[r] & S^{7} \wedge H\underline{\mathbb{Z}} \ar[d] \\
S^{3\rho - 1} \wedge H\underline{B}(1,1) \ar[r] & S^{5 + \lambda_{1}} \wedge H\underline{\mathbb{Z}} \ar[d] \\
S^{2 + \lambda_{1}} \wedge H\underline{B}(1,0) \ar[r] & S^{3 + 2\lambda_{1}} \wedge H\underline{\mathbb{Z}} \ar[d] \\
S^{\rho - 1} \wedge H\underline{B}(2,0) \ar[r] & S^{3 + \lambda_{1} + \lambda_{0}} \wedge H\underline{\mathbb{Z}} \ar[d] \\
& S^{1 + \lambda_{1} + 2\lambda_{0}} \wedge H\underline{\mathbb{Z}}
}
"""

B20_TEXT = """\
B(2,0) over C_3^2
  level 2: Z/9
    res 2->1: [1]   tr 1->2: [3]
  level 1: Z/3
    res 1->0: (0x1)   tr 0->1: (1x0)
  level 0: 0
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tower_text_golden(capsys):
    code, out, err = run(capsys, "tower", "--p", "3", "--k", "2", "--n", "7")
    assert code == 0 and err == ""
    assert out == S7_TEXT


def full_scan_table(doc):
    """The text table of a tower's JSON document, each column as wide as
    its widest cell, found by a scan of every row."""
    def sphere(display):
        return f"S^({display})" if set(display) & set(" +-") else f"S^{display}"

    rows = [("stage", "dim", "slice", "section")] + [
        (str(s["index"]), str(s["slice"]["dim"]),
         f'{sphere(s["slice"]["printed"]["display"])} ∧ H{s["slice"]["coefficient"]["display"]}',
         sphere(s["section"]["display"])) for s in doc["stages"]]
    w = [max(len(row[i]) for row in rows) for i in range(3)]
    count = doc["stage_count"]
    head = f'Slice tower of S^{doc["n"]} ∧ HZ over {doc["group"]["display"]}   ({count} stage{"s" * (count != 1)})'
    return head + "\n\n" + "".join(f"  {i:>{w[0]}}  {d:>{w[1]}}  {c:<{w[2]}}  {sec}\n" for i, d, c, sec in rows)


def test_text_widths_match_a_full_scan(capsys):
    # render_text takes its widths from a few stages (render.py proves
    # which); every column is as wide as a scan of all rows makes it,
    # also over C_3^12 and C_5^12, where a coefficient B(i, j) with
    # i >= 10 widens a row whose sphere is not the widest
    cases = [(p, k, n) for p in (3, 5, 7) for k in (1, 2, 3, 4) for n in range(61)]
    cases += [(3, 12, 20), (3, 12, 56), (3, 12, 164), (5, 12, 12), (5, 12, 52)]
    for p, k, n in cases:
        argv = ("tower", "--p", str(p), "--k", str(k), "--n", str(n))
        text, doc = run(capsys, *argv)[1], json.loads(run(capsys, *argv, "--format", "json")[1])
        assert text == full_scan_table(doc), (p, k, n)


def test_tower_latex_golden(capsys):
    code, out, _ = run(capsys, "tower", "--p", "3", "--k", "2", "--n", "7",
                       "--format", "latex")
    assert code == 0
    assert out == S7_LATEX


@pytest.mark.parametrize("verify", [(), ("--verify",)], ids=["plain", "verify"])
@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_text_and_latex_never_build_the_document(capsys, monkeypatch, fmt, verify):
    def refused(*args):
        raise RuntimeError("only --format json builds the document")

    monkeypatch.setattr(cli, "tower_document", refused)
    code, out, err = run(capsys, "tower", "--p", "3", "--k", "2", "--n", "7",
                         "--format", fmt, *verify)
    assert (code, err) == (0, "")
    if not verify:
        assert out == (S7_TEXT if fmt == "text" else S7_LATEX)


def test_tower_json_validates(capsys):
    code, out, _ = run(capsys, "tower", "--p", "3", "--k", "2", "--n", "16",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    schema = json.loads(resources.files("slicetower")
                        .joinpath("data/tower.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["stage_count"] == 11
    assert doc["stages"][0]["slice"]["dim"] == 125


def test_tower_verify_annotates(capsys):
    code, out, _ = run(capsys, "tower", "--p", "3", "--k", "1", "--n", "4",
                       "--verify")
    assert code == 0
    assert "[ok]" in out
    assert "verified: 2/2 stages pass" in out


def test_verify_text_and_exit(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--k", "1", "--n", "3..5")
    assert code == 0
    assert out == (
        "verify over C_3, n = 3..5\n"
        "  n=3: 1 stage, all pass\n"
        "  n=4: 2 stages, all pass\n"
        "  n=5: 2 stages, all pass\n"
        "all 5 stages pass\n"
    )


def test_verify_json_envelope(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--k", "1", "--n", "4",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "verify-report"
    assert doc["range"] == [4, 4]
    assert doc["stages"] == 2
    assert doc["failed_stages"] == 0
    assert doc["all_passed"] is True
    assert len(doc["towers"]) == 1


def test_verify_requires_some_range(capsys):
    code, out, err = run(capsys, "verify", "--p", "3", "--k", "1")
    assert (code, out, err) == (2, "", "error: verify needs --n\n")


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "--p", "3", "--k", "1", "--n", "5..3")
    assert code == 2 and "bad range" in err


def test_exit_one_on_failed_verification(capsys, monkeypatch):
    def doomed(tower):
        return [VerificationReport(1, (Failure(0, "vanishing", 0, 1, AbGroup((3,))),))
                for _ in tower.slices]

    monkeypatch.setattr("slicetower.cli.verify_tower", doomed)
    code, out, _ = run(capsys, "tower", "--p", "3", "--k", "1", "--n", "3",
                       "--verify")
    assert code == 1
    assert "[FAIL]" in out
    code, out, _ = run(capsys, "verify", "--p", "3", "--k", "1", "--n", "3")
    assert code == 1
    assert "1 of 1 stages FAIL" in out


S7_FAILED_TEXT = """\
Slice tower of S^7 ∧ HZ over C_3^2   (5 stages)

  stage  dim  slice                    section
      0   44  S^(5ρ - 1) ∧ HB(1,1)     S^7  [FAIL]
      1   26  S^(3ρ - 1) ∧ HB(1,1)     S^(5 + λ_1)  [ok]
      2   14  S^(2 + λ_1) ∧ HB(1,0)    S^(3 + 2λ_1)  [FAIL]
      3    8  S^(ρ - 1) ∧ HB(2,0)      S^(3 + λ_1 + λ_0)  [ok]
      4    7  S^(1 + λ_1 + 2λ_0) ∧ HZ  S^(1 + λ_1 + 2λ_0)  [ok]

verified: 3/5 stages pass
  stage 0: vanishing failed at level 1 (epsilon=1, t=3)
  stage 2: containment failed at level 0
"""


S7_FAILED_LATEX = S7_LATEX + """\
% stage 0: vanishing failed at level 1 (epsilon=1, t=3)
% stage 2: containment failed at level 0
"""

# a vanishing failure names its epsilon and t; a containment failure has neither
S7_FAILURES = {0: (Failure(1, "vanishing", 1, 3, AbGroup((3,))),),
               2: (Failure(0, "containment"),)}


def s7_doomed(tower):
    return [VerificationReport(4, S7_FAILURES.get(i, ()))
            for i in range(len(tower.slices))]


def test_failed_verification_prints_each_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_tower", s7_doomed)
    code, out, err = run(capsys, "tower", "--p", "3", "--k", "2", "--n", "7", "--verify")
    assert (code, out, err) == (1, S7_FAILED_TEXT, "")


def test_failed_verification_comments_each_failure_under_the_diagram(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_tower", s7_doomed)
    code, out, err = run(capsys, "tower", "--p", "3", "--k", "2", "--n", "7",
                         "--verify", "--format", "latex")
    assert (code, out, err) == (1, S7_FAILED_LATEX, "")


def test_broken_invariant_exits_one_without_traceback(capsys, monkeypatch):
    def broken(n, group):
        raise InvariantError("the bottom section differs from the closed form")

    monkeypatch.setattr(cli, "build_tower", broken)
    for argv in (("tower", "--p", "3", "--k", "1", "--n", "3"),
                 ("verify", "--p", "3", "--k", "1", "--n", "3..4")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: invariant violated: the bottom section differs from the closed form\n"
        assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "latex"])
def test_an_invariant_broken_mid_stream_exits_one_without_traceback(capsys, monkeypatch, fmt):
    # S^7 over C_9 with column 2 trading six trivial summands for three
    # level-1 planes: the (2, 1) stage is written, then its crossing finds
    # one trivial summand left, so the two stages above it stay on stdout
    group = Group(3, 2)
    move = rotation_plane(group, 1, 3) - rotation_plane(group, 2, 3)
    real = tower.torsion_slice
    monkeypatch.setattr(tower, "torsion_slice",
                        lambda g, a, m: (real(g, a, m)[0], move) if a == 2 else real(g, a, m))
    code, out, err = run(capsys, "tower", "--p", "3", "--k", "2", "--n", "7", "--format", fmt)
    assert code == 1
    assert err == "error: invariant violated: exchanging planes across V(2,1) leaves no section of dimension n\n"
    if fmt == "json":
        assert out.startswith('{\n  "format": "slicetower/1",') and out.count('"index": ') == 2
        assert out.endswith('"display": "1 + 3\\u03bb_1",\n        "latex": "1 + 3\\\\lambda_{1}"\n      },\n'
                            '      "verification": null\n    }')
    else:
        assert out.splitlines() == [*S7_LATEX.splitlines()[:2], r"S^{3\rho - 1} \wedge H\underline{B}(1,1) \ar[r]"
                                    r" & S^{1 + 3\lambda_{1}} \wedge H\underline{\mathbb{Z}} \ar[d] \\"]


# a request's own peak memory, in KiB, less its peak after import
PEAK_GROWTH = textwrap.dedent("""
    import sys
    from slicetower.cli import main

    def peak_kib():
        # the high-water mark of this process's memory; ru_maxrss would also
        # carry that of the process it was started from, across exec
        with open("/proc/self/status") as status:
            return int(next(line for line in status if line.startswith("VmHWM:")).split()[1])

    before = peak_kib()
    code = main(sys.argv[1:])
    print(peak_kib() - before, file=sys.stderr)
    sys.exit(code)
""")


def peak_growth_mb(*argv):
    """How far the request's peak memory rises above its peak after import, in MB."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PEAK_GROWTH, *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr) / 1024


@pytest.mark.parametrize("fmt", ["json", "latex", "text"])
def test_a_streamed_tower_holds_memory_flat_in_n(fmt):
    # the tower of S^100000 over C_3 has 33,334 stages, all distinct
    # slices, so every per-slice cache fills to its cap; written a stage
    # at a time, the request grows by what those caches hold, not by its
    # tower or its document (about 100 MB for JSON, 33 MB for LaTeX and
    # 50 MB for text when they were held whole)
    grown_mb = peak_growth_mb("tower", "--p", "3", "--k", "1", "--n", "100000", "--format", fmt)
    assert grown_mb < 16, grown_mb


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_verify_sweep_holds_one_report_pointer_per_stage(fmt):
    # the 100,100 stages of n = 3..600 over C_9 are walked twice, to check
    # and to print, and only a pointer to each cached report is held in
    # between (26 MB as text and 29 MB as JSON when every tower was held)
    grown_mb = peak_growth_mb("verify", "--p", "3", "--k", "2", "--n", "3..600", "--format", fmt)
    assert grown_mb < 16, grown_mb


def test_a_verify_report_streams_its_tower_a_stage_at_a_time():
    # the 10,001 stages of n = 30000 over C_3 are one tower, whose document
    # is re-indented into the report a part at a time (the request grew by
    # 46 MB when each tower's document was joined and re-indented whole)
    grown_mb = peak_growth_mb("verify", "--p", "3", "--k", "1", "--n", "30000", "--format", "json")
    assert grown_mb < 16, grown_mb


def test_homology_text_golden(capsys):
    code, out, _ = run(capsys, "homology", "--p", "3", "--k", "1",
                       "--rep", "-(rho)", "--coeff", "Z",
                       "--degree", "0", "--level", "1")
    assert code == 0
    assert out == "H_0(S^(-1 - λ_0); Z) at level 1 over C_3: 0\n"
    code, out, _ = run(capsys, "homology", "--p", "3", "--k", "1",
                       "--rep", "-(rho)", "--degree", "-3", "--level", "top")
    assert code == 0
    assert out == "H_-3(S^(-1 - λ_0); Z) at level 1 over C_3: Z\n"


def test_homology_json(capsys):
    code, out, _ = run(capsys, "homology", "--p", "3", "--k", "2",
                       "--rep", "V(1,1)@n=7", "--coeff", "B(2,0)",
                       "--degree", "0", "--level", "e", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "homology"
    assert doc["level"] == 0
    assert doc["rep"] == "ρ - 1"
    assert doc["homology"] == {"display": "0", "free_rank": 0, "torsion": []}


@pytest.mark.parametrize("p,k,reps", [(3, 1, ("L0 - 2", "2 - L0")),
                                      (3, 2, ("L1 - L0", "1 + L0 - L1", "L0 + L1", "-L0 - L1"))])
def test_homology_matches_every_level_of_bredon_homology(capsys, p, k, reps):
    # the CLI realizes level m on the sphere restricted to C_{p^m};
    # bredon_homology realizes every level of the full-group sphere, and
    # the two models must agree
    group = Group(p, k)
    levels = {"top": k, "e": 0, **{str(m): m for m in range(k + 1)}}
    for rep in reps:
        for coeff in ("Z", "Z*", "B(1,0)"):
            _, M = parse_coefficient(coeff, group)
            for d in range(-2, 3):
                bh = bredon_homology(parse_rep(rep, group), M, d)
                for text, m in levels.items():
                    code, out, _ = run(capsys, "homology", "--p", str(p), "--k", str(k),
                                       "--rep", rep, "--coeff", coeff, "--degree", str(d),
                                       "--level", text, "--format", "json")
                    assert code == 0
                    doc = json.loads(out)
                    assert doc["level"] == m
                    assert doc["homology"]["display"] == str(bh.ab(m)), (rep, coeff, d, text)


def test_homology_level_validation(capsys):
    code, _, err = run(capsys, "homology", "--p", "3", "--k", "1",
                       "--rep", "rho", "--level", "5")
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, "homology", "--p", "3", "--k", "1",
                       "--rep", "rho", "--level", "middle")
    assert code == 2 and "--level" in err


def test_mackey_text_golden(capsys):
    code, out, _ = run(capsys, "mackey", "--p", "3", "--k", "2",
                       "--show", "B(2,0)")
    assert code == 0
    assert out == B20_TEXT


def test_mackey_json(capsys):
    code, out, _ = run(capsys, "mackey", "--p", "3", "--k", "2",
                       "--show", "B(2,0)", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"] == [[], [3], [9]]
    assert doc["res"] == [[], [[1]]]
    assert doc["tr"] == [[[]], [[3]]]


@pytest.mark.parametrize("shows,label,twin", [
    (["Z"], "Z", "Z(0,0)"),
    (["Z(0,0)"], "Z(0,0)", "Z"),
    (["Z*"], "Z*", "Z(2,0)"),
    (["Z(2,0)"], "Z(2,0)", "Z*"),
    (["B( 1 , 0 )", "B(01,0)", "B(1,-0)"], "B(1,0)", "B(1,0)"),
], ids=["Z", "Z(0,0)", "Z*", "Z(2,0)", "B(1,0)"])
def test_equal_functors_keep_their_own_labels(capsys, shows, label, twin):
    # over C_9, Z equals Z(0,0) and Z* equals Z(2,0): each prints the name
    # it was asked by, spelled canonically, over the levels and maps its
    # equal twin prints, in text and in JSON
    def mackey(show, *fmt):
        code, out, _ = run(capsys, "mackey", "--p", "3", "--k", "2", "--show", show, *fmt)
        assert code == 0, show
        return out

    twin_body = mackey(twin).split("\n", 1)[1]
    twin_doc = json.loads(mackey(twin, "--format", "json"))
    for show in shows:
        assert mackey(show).split("\n", 1) == [f"{label} over C_3^2", twin_body], show
        assert json.loads(mackey(show, "--format", "json")) == {**twin_doc, "name": label}, show


@pytest.mark.parametrize("argv", [
    ("tower", "--p", "3", "--k", "2", "--n", "7"),
    ("tower", "--p", "3", "--k", "2", "--n", "7", "--verify"),
    ("verify", "--p", "3", "--k", "1", "--n", "3..5"),
    ("homology", "--p", "3", "--k", "2", "--rep", "3 + L1 - 2L0", "--level", "1"),
    ("mackey", "--p", "3", "--k", "2", "--show", "B(2,0)"),
], ids=["tower", "tower-verify", "verify", "homology", "mackey"])
def test_json_layout_is_stdlib_indent_two(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "tower", "--p", "2", "--k", "1", "--n", "5")
    assert code == 2
    assert err == "error: p = 2 is not supported; the construction needs an odd prime\n"
    code, _, err = run(capsys, "tower", "--p", "9", "--k", "1", "--n", "5")
    assert code == 2 and "odd prime" in err
    code, _, err = run(capsys, "tower", "--p", "3", "--k", "0", "--n", "5")
    assert code == 2 and "--k" in err
    code, _, err = run(capsys, "tower", "--p", "3", "--k", "1", "--n", "-2")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "homology", "--p", "3", "--k", "1", "--rep", "2?")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "mackey", "--p", "3", "--k", "2", "--show", "B(9,9)")
    assert code == 2
    # a space never joins two numbers, and a coefficient index takes one sign
    code, _, err = run(capsys, "homology", "--p", "3", "--k", "2", "--rep", "1 2L0")
    assert (code, err) == (2, "error: a number cannot follow a number at position 2 in '1 2L0'\n")
    # '*' joins a count to a term, never two numbers, and starts nothing
    for rep, message in (("2*3", "expected a term after '*', found '3' at position 2 in '2*3'"),
                         ("L*1", "unexpected character 'L' at position 0 in 'L*1'"),
                         ("*L1", "cannot start a term with '*' at position 0 in '*L1'")):
        code, _, err = run(capsys, "homology", "--p", "3", "--k", "2", "--rep", rep, "--degree", "23")
        assert (code, err) == (2, f"error: {message}\n")
    code, _, err = run(capsys, "mackey", "--p", "3", "--k", "2", "--show", "B(--1,0)")
    assert code == 2
    assert err == "error: cannot parse coefficient 'B(--1,0)'; expected Z, Z*, Z(i,j), or B(i,j)\n"


def test_unknown_subcommand_exits_two(capsys):
    code, out, err = run(capsys, "untower")
    assert (code, out) == (2, "")
    assert err == "error: expected a command (tower, verify, homology, mackey), got 'untower'\n"


S7 = ("tower", "--p", "3", "--k", "2", "--n", "7")
SUPERSCRIPT = "cannot parse coefficient 'B(²,0)'; expected Z, Z*, Z(i,j), or B(i,j)"


@pytest.mark.parametrize("argv,message", [
    ((), "expected a command (tower, verify, homology, mackey), got ''"),
    (("untower", "--p", "3"), "expected a command (tower, verify, homology, mackey), got 'untower'"),
    ((*S7, "--form", "json"), "unknown argument '--form' to tower"),
    (("homology", "--p", "3", "--k", "1", "--rep"), "--rep needs a value"),
    (S7[:-2], "tower needs --n"),
    (("mackey", "--show", "Z"), "mackey needs --p and --k"),
    (("tower", "--p", "three", "--k", "2", "--n", "7"), "--p expects an integer, got 'three'"),
    ((*S7[:-1], "1" * 5000), f"--n expects an integer, got '{'1' * 40}...'"),
    ((*S7, "--format", "yaml"), "--format must be one of text, json, latex, got 'yaml'"),
    (("verify", "--p", "3", "--k", "1", "--n", "3", "--format", "latex"),
     "--format must be one of text, json, got 'latex'"),
    ((*S7, "--verify=x"), "--verify takes no value"),
    ((*S7, "8"), "unknown argument '8' to tower"),
    # '²'.isdigit() is true, but int('²') raises
    (("mackey", "--p", "3", "--k", "2", "--show", "B(²,0)"), SUPERSCRIPT),
    (("homology", "--p", "3", "--k", "2", "--rep", "rho", "--coeff", "B(²,0)"), SUPERSCRIPT),
], ids=["no-command", "unknown-command", "unknown-flag", "no-value", "missing-flag", "missing-flags",
        "not-an-integer", "5000-digits", "bad-choice", "choice-of-another-command", "switch-value",
        "stray-positional", "superscript-show", "superscript-coeff"])
def test_usage_error_is_one_line_and_exit_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv,name,value", [
    (("homology", "--rep", "-(rho)"), "rep", "-(rho)"),
    (("homology", "--rep=-(rho)"), "rep", "-(rho)"),
    (("homology", "--rep", "-h"), "rep", "-h"),
    (("homology", "--rep", "rho", "--degree", "-3"), "degree", -3),
    (("homology", "--rep", "rho", "--coeff=B(1,0)"), "coeff", "B(1,0)"),
    (("tower", "--n", "-1"), "n", -1),
    (("verify", "--n", "-1"), "n", "-1"),
], ids=["rep", "rep-equals", "rep-help", "degree", "coeff-equals", "tower-n", "verify-n"])
def test_a_value_reaches_the_command_verbatim(capsys, monkeypatch, argv, name, value):
    # a value is the next argument whatever it begins with, or all after the first "="
    seen = []
    command, *flags = argv
    _, summary, own = cli.COMMANDS[command]
    monkeypatch.setitem(cli.COMMANDS, command, (lambda args: seen.append(args) or 0, summary, own))
    assert run(capsys, command, "--p", "3", "--k", "1", *flags) == (0, "", "")
    assert getattr(seen[0], name) == value


def test_a_repeated_flag_keeps_its_last_value(capsys):
    code, out, err = run(capsys, "tower", "--p", "5", "--k", "2", "--n", "7", "--format", "json",
                         "--p", "3", "--format=text")
    assert (code, out, err) == (0, S7_TEXT, "")


@pytest.mark.parametrize("argv", [("--help",), ("-h",), ("tower", "--help"), ("homology", "--p", "3", "-h")])
def test_help_names_every_command_and_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: slicetower COMMAND")
    blocks = out.split("\n\n")[1:]
    assert [block.split(":")[0] for block in blocks] == list(cli.COMMANDS)
    for block, (_, summary, flags) in zip(blocks, cli.COMMANDS.values()):
        head, *lines = block.splitlines()
        assert head.endswith(summary)
        assert [line.split()[0] for line in lines] == list({**cli.COMMON_FLAGS, **flags})


def run_subprocess(*argv, timeout, flags=()):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *flags, "-m", "slicetower.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize("argv,expected", [
    (("verify", "--p", "3", "--k", "1", "--n", "3..6"), "all 7 stages pass"),
    (("verify", "--p", "3", "--k", "6", "--n", "3..3"), "all 6 stages pass"),
    (("homology", "--p", "3", "--k", "2", "--rep", "L1 - L0", "--level", "top"),
     "H_0(S^(λ_1 - λ_0); Z) at level 2 over C_3^2: Z\n"),
    (("tower", "--p", "3", "--k", "2", "--n", "7", "--format", "json"), '"stage_count": 5,'),
], ids=["verify", "verify-windowed", "homology", "tower-json"])
def test_requests_under_python_O(argv, expected):
    # -O strips assert statements; the request path must not rely on them
    proc = run_subprocess(*argv, timeout=60, flags=("-O",))
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout


@pytest.mark.parametrize("argv", [
    ("verify", "--p", "3", "--k", "2", "--n", "3..60", "--format", "json"),
    ("tower", "--p", "3", "--k", "1", "--n", "3000", "--format", "json"),
], ids=["verify", "tower"])
def test_a_reader_that_closes_stdout_early_gets_exit_one_and_no_traceback(argv):
    # as under `| head -1`: each output is far more than a pipe holds, so
    # the request is still writing when the reader goes
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen([sys.executable, "-m", "slicetower.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, "")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("--n", "100000"), ("--n", "10000", "--verify")], ids=["table", "verify"])
def test_a_text_table_whose_reader_leaves_after_one_byte_exits_one(argv, unbuffered):
    # as under `| head -c 1`: each table is far more than a pipe holds
    # (2.4 MB and 229 kB), written a row at a time, so a write after the
    # reader has gone finds no reader
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen([sys.executable, "-m", "slicetower.cli", "tower", "--p", "3", "--k", "1", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"S"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("level,index", [("e", 0), ("1", 1)])
def test_homology_low_level_of_a_large_group_is_quick(level, index):
    # low levels are realized on the restricted sphere, where most planes
    # become trivial; the full-group sphere runs far past the timeout
    proc = run_subprocess("homology", "--p", "3", "--k", "4", "--rep", "L0 - L1",
                          "--level", level, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"H_0(S^(-λ_1 + λ_0); Z) at level {index} over C_3^4: Z\n"


def test_verify_of_a_large_group_is_quick():
    # verify realizes only dimensions -2..1 of each sphere, the ones its
    # degrees 0 and -1 read; the whole product sphere runs past the timeout
    proc = run_subprocess("verify", "--p", "3", "--k", "6", "--n", "3..5", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "all 20 stages pass" in proc.stdout


def test_homology_of_a_large_multiplicity_is_quick():
    # the sphere is read from plane counts, never from a list of planes
    proc = run_subprocess("homology", "--p", "3", "--k", "1", "--rep", "100000000L0",
                          "--degree", "0", timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "H_0(S^(100000000λ_0); Z) at level 1 over C_3: Z/3\n"


def test_homology_of_a_large_n_slice_rep_is_quick():
    # the base dimensions are a range, never a list of the n / 2 of them
    proc = run_subprocess("homology", "--p", "3", "--k", "2", "--rep", "W@n=100000000",
                          "--degree", "0", timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("H_0(S^(11111112 + 11111111λ_1 + 33333333λ_0); Z) "
                           "at level 2 over C_3^2: 0\n")


def test_huge_p_exits_two():
    # the primality test is trial division, which 2^61 - 1 would keep running
    proc = run_subprocess("tower", "--p", str(2**61 - 1), "--k", "1", "--n", "5", timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == "error: --p must be below 2^31\n"


@pytest.mark.parametrize("argv", [
    ("homology", "--rep", "0"),
    ("mackey", "--show", "Z"),
    ("verify", "--n", "3"),
], ids=["homology", "mackey", "verify"])
def test_k_over_the_cap_exits_two_at_once(argv):
    # without the cap, homology --k 10000000 --rep 0 ran for 19 s and
    # mackey --k 3000000 printed 222 MB
    command, *rest = argv
    start = time.perf_counter()
    proc = run_subprocess(command, "--p", "3", "--k", str(MAX_K + 1), *rest, timeout=10)
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: --k must be at most {MAX_K}, got {MAX_K + 1}\n"


@pytest.mark.parametrize("rep", ["W@n=" + "1" + "0" * 20, "V(1,1)@n=" + "1" + "0" * 20])
def test_huge_n_in_a_slice_term_exits_two(rep):
    # the 3...3 base dimensions of S^(10^20) over C_3 are past what a range counts
    proc = run_subprocess("homology", "--p", "3", "--k", "1", "--rep", rep, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: n = {10**20} is too large: its {'3' * 20} base "
                           "dimensions do not fit in a range\n")


@pytest.mark.parametrize("argv,count", [
    (("tower", "--p", "3", "--k", "1", "--n", str(10**12)), 333_333_333_334),
    (("verify", "--p", "3", "--k", "1", "--n", f"0..{10**12}"), 10**12 + 1),
], ids=["tower", "verify"])
def test_huge_request_exits_two_before_building(argv, count):
    # without the cap both would build towers until memory ran out
    proc = run_subprocess(*argv, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: --n {argv[-1]} builds at least {count} stages, "
                           f"over the cap of {MAX_STAGES}\n")


def test_stage_cap(capsys):
    # the README's largest tower fits; a range whose towers together pass
    # the cap is refused with their exact total, before any is built
    g = Group(3, 1)
    assert stage_count(10**6, g) == 333_334 <= MAX_STAGES
    total = sum(stage_count(n, g) for n in range(3001))
    assert total > MAX_STAGES > 3001
    code, out, err = run(capsys, "verify", "--p", "3", "--k", "1", "--n", "0..3000")
    assert (code, out) == (2, "")
    assert err == f"error: --n 0..3000 builds at least {total} stages, over the cap of {MAX_STAGES}\n"


@pytest.mark.parametrize("k,rep,degree,window,cells", [
    (64, "L0-L1", "0", "-1..1", 4 * 3**63 + 5),
    (64, "L0 + L1", "3", "2..4", 3**63 + 3),
    (8, "L0-L1", "0", "-1..1", 8753),
], ids=["product", "attaching", "C_3^8"])
def test_a_homology_request_over_the_cell_cap_exits_two_at_once(k, rep, degree, window, cells):
    # counted from isotropy levels before any cell is built: over C_3^64,
    # the product classes of L0 - L1 and the attaching translations of
    # L0 + L1's 3-cell, each past 3^63, which no machine would build;
    # over C_3^8, a request that would run for minutes
    start = time.perf_counter()
    proc = run_subprocess("homology", "--p", "3", "--k", str(k), "--rep", rep, "--degree", degree, timeout=10)
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: the sphere has {cells} cells in degrees {window} at level {k}, "
                           f"over the cap of {MAX_CELLS}\n")


@pytest.mark.parametrize("depth", [500, 5000])
def test_deeply_nested_rep_exits_two(depth):
    proc = run_subprocess("homology", "--p", "3", "--k", "1",
                          "--rep", "(" * depth + "1" + ")" * depth, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: expression nested too deeply")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("rep", ["L0+" * 3000 + "?", "(" * 5000 + "1" + ")" * 5000],
                         ids=["long", "nested"])
def test_parse_error_of_a_long_rep_is_one_short_line(rep):
    # the message quotes the input around the error, not all of it
    proc = run_subprocess("homology", "--p", "3", "--k", "1", "--rep", rep, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert len(proc.stderr.encode()) <= 200


MIXED_REQUESTS = [
    ("tower", "--p", "3", "--k", "2", "--n", "7", "--format", "json"),
    ("homology", "--p", "3", "--k", "2", "--rep", "L1 - L0", "--coeff", "B(1,0)"),
    ("homology", "--p", "3", "--k", "2", "--rep", "L1 - L0"),
    ("verify", "--p", "3", "--k", "1", "--n", "3..5", "--format", "json"),
    ("verify", "--p", "3", "--k", "1"),
    ("homology", "--p", "3", "--k", "1", "--rep", "2?"),
    ("mackey", "--p", "3", "--k", "2", "--show", "B(2,0)"),
    ("tower", "--p", "3", "--k", "2", "--n", "7", "--verify"),
    ("verify", "--p", "5", "--k", "1", "--n", "4"),
    ("verify", "--p", "3", "--k", "1"),
]


def test_requests_answer_alike_in_either_order(capsys):
    # the reader leaves the flag table unchanged: no value of one request
    # leaks into the defaults of the next
    forwards = [run(capsys, *argv) for argv in MIXED_REQUESTS]
    backwards = [run(capsys, *argv) for argv in reversed(MIXED_REQUESTS)][::-1]
    assert forwards == backwards
    assert forwards[2][1] == "H_0(S^(λ_1 - λ_0); Z) at level 2 over C_3^2: Z\n"
    assert forwards[4][0] == forwards[9][0] == 2


def test_verify_of_a_large_k_is_quick(capsys):
    # the window bounds the factor spheres too: the mirror of t*rho over
    # C_3^8 has thousands of planes, but only the cells of the few
    # dimensions the window reaches are built
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--p", "3", "--k", "8", "--n", "3")
    assert code == 0 and err == ""
    assert out.endswith("all 8 stages pass\n")
    assert time.perf_counter() - start < 5
