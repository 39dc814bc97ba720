"""Acceptance gate: the eight headline requirements, one test each.

Every test prints a single PASS or FAIL line (visible under -s or -v
with output capture off) and enforces its own time budget where one is
part of the requirement.
"""

import json
import random
import time
from contextlib import contextmanager

from criteria import b_as_cokernel, canonical_lambda, homres_injective
from reference_tower import tower_slices
from slicetower.abelian import AbGroup
from slicetower.cells import cell_structure
from slicetower.cli import main
from slicetower.document import tower_document
from slicetower.group import Group
from slicetower.homology import bredon_homology, level_complex
from slicetower.mackey import B_ij, Z_ij, constant_Z, dual_Z
from slicetower.params import slice_params
from slicetower.rep import (
    Rep,
    lambda_block,
    n_slice_rep,
    regular_rep,
    rotation_plane,
    slice_rep,
    trivial_rep,
)
from slicetower.tower import build_tower, verify_slice, verify_tower


@contextmanager
def criterion(label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label} ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_s7_example(capsys):
    with criterion("criterion 1: S^7 over C_9 tower"):
        start = time.perf_counter()
        code = main(["tower", "--p", "3", "--k", "2", "--n", "7",
                     "--format", "json"])
        elapsed = time.perf_counter() - start
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        slices = [s["slice"] for s in doc["stages"]]
        assert [s["dim"] for s in slices] == [44, 26, 14, 8, 7]
        assert [s["coefficient"]["display"] for s in slices] == [
            "B(1,1)", "B(1,1)", "B(1,0)", "B(2,0)", "Z"]
        assert [s["section"]["display"] for s in doc["stages"]] == [
            "7", "5 + λ_1", "3 + 2λ_1", "3 + λ_1 + λ_0", "1 + λ_1 + 2λ_0"]
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_s16_example(capsys):
    with criterion("criterion 2: S^16 over C_9 tower"):
        start = time.perf_counter()
        code = main(["tower", "--p", "3", "--k", "2", "--n", "16"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads("".join(tower_document(build_tower(16, Group(3, 2)))))
        torsion = [s for s in doc["stages"] if s["slice"]["kind"] == "torsion"]
        assert len(torsion) == 10
        assert "S^(14ρ - 1) ∧ HB(1,1)" in out
        assert "S^(4ρ - 1) ∧ HB(2,0)" in out
        assert "S^(2 + 2λ_1 + 5λ_0) ∧ HZ" in out
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_c_p_family():
    with criterion("criterion 3: C_p towers for p in {3,5,7}, n = 3..20"):
        start = time.perf_counter()
        for p in (3, 5, 7):
            g = Group(p, 1)
            for n in range(3, 21):
                if n % p == 0:
                    continue
                doc = json.loads("".join(tower_document(build_tower(n, g))))
                stages = doc["stages"]
                d = len(stages) - 1
                for i, stage in enumerate(stages[:-1], start=1):
                    sl = stage["slice"]
                    assert sl["printed"]["display"] == str(n - 2 * i - 1)
                    assert sl["coefficient"]["display"] == "B(1,0)"
                expected_sections = [str(Rep(g, n - 2 * i, (i,)))
                                     for i in range(d + 1)]
                assert [s["section"]["display"] for s in stages] == expected_sections
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_4_oracle_grid():
    with criterion("criterion 4: verifier grid p in {3,5}, k in {1,2}, n = 3..12"):
        start = time.perf_counter()
        checked = 0
        for p in (3, 5):
            for k in (1, 2):
                g = Group(p, k)
                for n in range(3, 13):
                    reports = verify_tower(build_tower(n, g))
                    assert all(r.passed for r in reports), (p, k, n, [
                        r.failures for r in reports if not r.passed])
                    checked += len(reports)
        elapsed = time.perf_counter() - start
        assert checked > 100
        assert elapsed < 600.0, f"took {elapsed:.2f}s"


def test_criterion_5_mackey_tables():
    with criterion("criterion 5: Mackey diagrams and the cokernel identity"):
        for p in (3, 5):
            g = Group(p, 2)
            for (i, j), (res_s, tr_s) in {
                (2, 1): ([1, p], [p, 1]),
                (2, 0): ([p, p], [1, 1]),
                (1, 0): ([p, 1], [1, p]),
            }.items():
                m = Z_ij(i, j, g)
                assert m.levels == ((0,), (0,), (0,))
                assert list(m.res) == res_s
                assert list(m.tr) == tr_s
            assert B_ij(2, 0, g).levels == ((), (p,), (p * p,))
            assert B_ij(1, 0, g).levels == ((), (p,), (p,))
            assert B_ij(1, 1, g).levels == ((), (), (p,))
            for b in (B_ij(2, 0, g), B_ij(1, 0, g)):
                assert b.res[1] == 1 and b.tr[1] == p
            for k in (1, 2, 3):
                gk = Group(p, k)
                for i in range(1, k + 1):
                    for j in range(0, k - i + 1):
                        assert B_ij(i, j, gk) == b_as_cokernel(i, j, gk)


def test_criterion_6a_fixed_point_pattern():
    with criterion("criterion 6a: fixed-point complex of S^(n - t rho)"):
        for p, n, t in ((3, 3, 1), (3, 5, 2), (3, 4, 4), (5, 6, 1), (7, 8, 1)):
            g = Group(p, 1)
            v = trivial_rep(g, n) - regular_rep(g, t)
            cx = level_complex(cell_structure(v), constant_Z(g), 1)
            scalars = []
            for d in range(n - t, n - t - t * (p - 1), -1):
                B = cx.boundary_or_zero(d)
                assert (B.r, B.c) == (1, 1)
                scalars.append(abs(B.a[0][0]))
            width = t * (p - 1)
            assert scalars == ([1] + [0, p] * width)[:width]


def test_criterion_6b_integral_family_spheres():
    with criterion("criterion 6b: S^(lambda_{i+j} - lambda_j) realizes Z(i+j,j)"):
        for k in (1, 2, 3):
            g = Group(3, k)
            for a in range(1, k + 1):
                for j in range(0, a):
                    v = rotation_plane(g, a) - rotation_plane(g, j)
                    expected = Z_ij(a, j, g)
                    bh = bredon_homology(v, constant_Z(g), 0)
                    for m in range(k + 1):
                        assert bh.ab(m) == AbGroup((0,)), (k, a, j, m)
                    for m in range(k):
                        assert abs(bh.res_maps[m].a[0][0]) == expected.res[m]
                    for d in (-2, -1, 1, 2):
                        off = bredon_homology(v, constant_Z(g), d)
                        assert all(off.ab(m).is_trivial for m in range(k + 1))


def test_criterion_6c_level_zero_homology():
    with criterion("criterion 6c: level-0 homology is the underlying sphere"):
        rng = random.Random(7)
        groups = [Group(3, 1), Group(3, 2), Group(5, 1)]
        for _ in range(40):
            g = rng.choice(groups)
            planes = tuple(rng.randint(-2, 2) for _ in range(g.k))
            v = Rep(g, rng.randint(0, 3), planes)
            dim = v.dim
            M = rng.choice([constant_Z(g), dual_Z(g), B_ij(1, 0, g)])
            assert bredon_homology(v, M, dim).ab(0) == M.level_group(0)
            assert bredon_homology(v, M, dim + 1).ab(0).is_trivial
            assert bredon_homology(v, M, dim - 1).ab(0).is_trivial


def test_criterion_6d_restriction_injectivity():
    with criterion("criterion 6d: homres injectivity on 120 random instances"):
        rng = random.Random(20250819)
        groups = [Group(3, 1), Group(3, 2), Group(3, 3), Group(5, 2)]
        count = 0
        while count < 120:
            g = rng.choice(groups)
            planes = tuple(rng.randint(0, 2) for _ in range(g.k))
            w = Rep(g, rng.choice([0, 0, 0, 1, 1, 2]), planes)
            pairs = [(i, j) for i in range(1, g.k + 1)
                     for j in range(0, g.k - i + 1)]
            i, j = rng.choice(pairs)
            h = rng.randint(i + j, g.k)
            assert homres_injective(w, i, j, h), (w, i, j, h)
            count += 1


def test_criterion_7_identity_suite():
    with criterion("criterion 7: dimension and periodicity identities"):
        for p in (3, 5):
            for k in (1, 2):
                g = Group(p, k)
                rho = regular_rep(g)
                for n in range(3, 13):
                    base_dims = slice_params(n, g)
                    for a in range(1, k + 1):
                        for b in range(1, len(base_dims) + 1):
                            v = slice_rep(g, a, base_dims[b - 1])
                            assert v.dim == base_dims[b - 1] * p ** a - 1
                    w = n_slice_rep(n, g)
                    assert w.dim == n
                    assert w + rho == n_slice_rep(n + g.order, g)
                assert n_slice_rep(g.order, g) == (
                    rho + trivial_rep(g, 2) - canonical_lambda(1, g))
                assert lambda_block(g.order, g) == regular_rep(g, 2)


def test_criterion_8_small_n_towers():
    with criterion("criterion 8: n in {0,1,2} single-stage towers verify"):
        for p, k in ((3, 1), (3, 2), (5, 1), (5, 2)):
            g = Group(p, k)
            for n in (0, 1, 2):
                tower = build_tower(n, g)
                assert len(list(tower.steps())) == 1
                desc = tower_slices(tower)[0]
                assert desc.dim == n
                report = verify_slice(desc)
                assert report.passed, report.failures
