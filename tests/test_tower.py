"""Tower assembly: slice ordering, section bookkeeping, fiber sequences,
and the from-scratch slice verification."""

import dataclasses
import itertools
import json
import re
from pathlib import Path

import pytest

import reference_tower as reference
from criteria import reference_verify_slice
from reference_tower import stages, tower_slices
from slicetower.abelian import AbGroup
from slicetower.document import slice_text, sphere_forms, verification_text
from slicetower.group import Group, InvariantError, is_odd_prime, p_adic_val
from slicetower.homology import sphere_homology
from slicetower.mackey import B_ij, constant_Z, dual_Z, restrict_mackey
from slicetower.params import slice_params, stage_count
from slicetower.rep import Rep, n_slice_rep, regular_rep, restrict_rep, rotation_plane, trivial_rep
from slicetower.tower import (
    Failure,
    SliceDescriptor,
    VerificationReport,
    _slice_class,
    build_tower,
    schedule,
    torsion_slice,
    verify_slice,
    verify_tower,
)

C3 = Group(3, 1)
C9 = Group(3, 2)
# (p, k, lowest n, highest n) of each range of the benchmark's verify-sweep
SWEEP_RANGES = json.loads((Path(__file__).parent / "data" / "work_budgets.json").read_text())[
    "verify-sweep"]["ranges"]


def test_s7_tower_frozen():
    tower = build_tower(7, C9)
    assert [s.dim for s in tower_slices(tower)] == [44, 26, 14, 8, 7]
    assert [s.is_torsion for s in tower_slices(tower)] == [True] * 4 + [False]
    assert [(s.coeff_i, s.coeff_j) for s in tower_slices(tower)[:-1]] == [
        (1, 1), (1, 1), (1, 0), (2, 0)]
    sections = [section for *_, section in stages(tower)]
    assert [(a, b) for _, a, b, _ in stages(tower)[:-1]] == [(2, 2), (2, 1), (1, 2), (1, 1)]
    assert sections[0] == trivial_rep(C9, 7)
    assert [str(section) for section in sections] == [
        "7", "5 + λ_1", "3 + 2λ_1", "3 + λ_1 + λ_0", "1 + λ_1 + 2λ_0"]
    assert sections[-1] == tower_slices(tower)[-1].rep


def test_s16_tower_frozen():
    tower = build_tower(16, C9)
    assert [s.dim for s in tower_slices(tower)] == [
        125, 107, 89, 71, 53, 41, 35, 29, 23, 17, 16]
    assert [(s.coeff_i, s.coeff_j) for s in tower_slices(tower)[:-1]] == [
        (1, 1)] * 5 + [(1, 0), (2, 0), (1, 0), (1, 0), (2, 0)]
    assert str(tower_slices(tower)[0].rep) == "14ρ - 1"
    assert str(tower_slices(tower)[6].rep) == "4ρ - 1"
    *_, bottom = stages(tower)[-1]
    assert bottom == Rep(C9, 2, (5, 2))
    assert str(bottom) == "2 + 2λ_1 + 5λ_0"


def test_multiple_of_p_drops_last_torsion_slice():
    # p | n: the (a, b) = (1, 1) slot is absent and the bottom integral
    # slice takes over directly
    tower = build_tower(9, C9)
    assert all((a, b) != (1, 1) for _, a, b, _ in stages(tower)[:-1])
    # d = 3 (base dims 3, 5, 7) and the dropped slot leaves k*d stages
    assert len(stages(tower)) == 6
    assert not tower_slices(tower)[-1].is_torsion
    assert tower_slices(tower)[-1].dim == 9


def test_c_p_family_closed_form():
    # over C_p the i-th slice prints as a trivial sphere of dimension
    # n - 2i - 1 and the section below it is (n - 2i) + i lambda_0
    for p in (3, 5, 7):
        g = Group(p, 1)
        for n in range(3, 21):
            if n % p == 0:
                continue
            tower = build_tower(n, g)
            torsion = tower_slices(tower)[:-1]
            d = len(torsion)
            for i, s in enumerate(torsion, start=1):
                assert (s.coeff_i, s.coeff_j) == (1, 0)
                assert s.rep.trivial == n - 2 * i - 1
            sections = [section for *_, section in stages(tower)]
            for i, section in enumerate(sections):
                assert section == Rep(g, n - 2 * i, (i,))
            assert sections[-1] == Rep(g, n - 2 * d, (d,))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_small_n_single_stage(n):
    for g in (C3, C9):
        tower = build_tower(n, g)
        assert len(list(tower.steps())) == 1
        desc = tower_slices(tower)[0]
        assert not desc.is_torsion
        assert desc.dim == n
        assert desc.rep == trivial_rep(g, n)
        report = verify_slice(desc)
        assert report.passed, report.failures


def test_counts_and_monotone_dims():
    for g in (C3, C9, Group(5, 2), Group(3, 3)):
        for n in range(3, 16):
            slices = tower_slices(build_tower(n, g))
            dims = [s.dim for s in slices]
            assert dims == sorted(dims, reverse=True)
            assert len(set(dims)) == len(dims)
            assert dims[-1] == n
            for s in slices[:-1]:
                assert s.is_torsion
                assert 1 <= s.coeff_i and s.coeff_j >= 0
                assert s.coeff_i + s.coeff_j <= g.k
    with pytest.raises(ValueError):
        build_tower(-1, C9)


def test_fiber_sequences():
    # each torsion slice is the fiber of the map from its section's
    # sphere to the next one's: the two sections differ by one plane at
    # level i + j traded for one at level j, and the slice exceeds their
    # common part by planes at levels below its column a only
    for p, k, n in itertools.product((3, 5, 7), (1, 2, 3), range(3, 31)):
        g = Group(p, k)
        tower = stages(build_tower(n, g))
        for (desc, a, b, section), (*_, below) in zip(tower, tower[1:]):
            i, j = desc.coeff_i, desc.coeff_j
            assert desc.is_torsion
            assert j == a - 1 and 1 <= i and i + j <= g.k, (n, g, a, b)
            common = section - rotation_plane(g, i + j)
            assert common == below - rotation_plane(g, j), (n, g, a, b)
            excess = desc.rep - (common - trivial_rep(g))
            assert excess.is_actual and excess.trivial == 0, (n, g, a, b, excess)
            assert not any(excess.planes[a:]), (n, g, a, b, excess)


def test_exchange_at_level_k_trades_two_trivial_summands():
    # S^7 over C_9: B(1,1) at (2, 2) and B(2,0) at (1, 1) trade out the
    # level-k plane, so crossing them gives up two trivial summands for a
    # level-j plane
    sections = [section for *_, section in stages(build_tower(7, C9))]
    assert torsion_slice(C9, 2, 5)[1] == Rep(C9, -2, (0, 1))
    assert torsion_slice(C9, 1, 3)[1] == Rep(C9, -2, (1, 0))
    assert sections[0] + torsion_slice(C9, 2, 5)[1] == Rep(C9, 5, (0, 1))
    assert sections[3] + torsion_slice(C9, 1, 3)[1] == Rep(C9, 1, (2, 1))
    for p, k, n in itertools.product((3, 5), (1, 2, 3), range(3, 25)):
        g = Group(p, k)
        tower = stages(build_tower(n, g))
        for (own, a, b, section), (*_, below) in zip(tower, tower[1:]):
            desc, move = torsion_slice(g, a, slice_params(n, g)[b - 1])
            assert desc is own
            i, j = desc.coeff_i, desc.coeff_j
            if i + j != k:
                continue
            nxt = section + move
            assert nxt == below
            assert nxt.trivial == section.trivial - 2, (n, g, a, b)
            assert nxt.planes == tuple(m + (level == j) for level, m in enumerate(section.planes))


def test_a_tower_holds_only_its_recipe(monkeypatch):
    # a Tower is (group, n): building it builds no stage, and each walk of
    # its steps runs the schedule afresh; the schedule itself builds no Rep
    # per stage: with its torsion slices cached, it builds the bottom
    # slice's few, whatever the tower's length
    assert [f.name for f in dataclasses.fields(build_tower(7, C9))] == ["group", "n"]
    for g in (C3, C9, Group(5, 2), Group(3, 3)):
        for n in range(0, 30):
            tower = build_tower(n, g)
            assert (tower.group, tower.n) == (g, n)
            assert list(tower.steps()) == list(tower.steps()) == list(schedule(n, g)), (g, n)
    built = []
    post_init = Rep.__post_init__
    monkeypatch.setattr(Rep, "__post_init__", lambda self: built.append(post_init(self)))
    counts = []
    for n in (301, 3001):
        list(schedule(n, C3))
        built.clear()
        tower = build_tower(n, C3)
        assert not built
        assert sum(1 for _ in tower.steps()) == stage_count(n, C3)
        counts.append(len(built))
    assert counts[0] == counts[1] < 10, counts


def doctor_column(monkeypatch, a, move):
    """Make every stage of column a move the section by move in place of its own trade."""
    real = torsion_slice
    monkeypatch.setattr("slicetower.tower.torsion_slice",
                        lambda group, col, m: (real(group, col, m)[0], move) if col == a else real(group, col, m))


def test_exchange_needs_the_plane_it_gives_up(monkeypatch):
    # S^7 over C_9 with column 2 trading six trivial summands for three
    # level-1 planes: the (2, 1) stage finds one trivial summand left
    doctor_column(monkeypatch, 2, rotation_plane(C9, 1, 3) - rotation_plane(C9, 2, 3))
    with pytest.raises(AssertionError, match=r"exchanging planes across V\(2,1\) leaves no section"):
        list(build_tower(7, C9).steps())
    # with column 2 moving its planes to level 0, the (1, 2) slice's
    # B(1,0) finds no level-1 plane to give up
    desc, _ = torsion_slice(C9, 1, 5)
    assert desc.coeff_i + desc.coeff_j == 1
    doctor_column(monkeypatch, 2, rotation_plane(C9, 0) - rotation_plane(C9, 2))
    with pytest.raises(AssertionError, match=r"exchanging planes across V\(1,2\) leaves no section"):
        list(build_tower(7, C9).steps())


def test_schedule_refuses_a_bottom_section_off_the_closed_form(monkeypatch):
    # the integral slice of S^7 over C_9 with a level-0 plane in place of
    # two trivial summands keeps its dimension, so only the bottom
    # section's comparison with it can tell
    real = n_slice_rep
    monkeypatch.setattr("slicetower.tower.n_slice_rep",
                        lambda n, group: real(n, group) + rotation_plane(group, 0) - trivial_rep(group, 2))
    with pytest.raises(InvariantError, match="the bottom section differs from the closed form of the integral slice"):
        list(schedule(7, C9))


def test_slice_dimensions_must_strictly_decrease(monkeypatch):
    # S^7 over C_9 has slices of dimensions 44, 26, 14 and 8 above its
    # integral slice of dimension 7.  Column 1 given column 2's slices
    # climbs back to 44, or repeats 26; an integral slice of dimension 8
    # or 9 is not below the last torsion slice
    real_slice, real_bottom = torsion_slice, n_slice_rep
    for m, dims in ((None, "26 then 44"), (3, "26 then 26")):
        monkeypatch.setattr("slicetower.tower.torsion_slice",
                            lambda group, a, own: real_slice(group, 2 if a == 1 else a, m or own))
        with pytest.raises(InvariantError, match=f"slice dimensions are not strictly decreasing: {dims}"):
            list(schedule(7, C9))
    monkeypatch.setattr("slicetower.tower.torsion_slice", real_slice)
    for extra in (1, 2):
        monkeypatch.setattr("slicetower.tower.n_slice_rep",
                            lambda n, group: real_bottom(n, group) + trivial_rep(group, extra))
        with pytest.raises(InvariantError, match=f"the integral slice, of dimension {7 + extra}, "
                                                 "is not below the slice above, of 8"):
            list(schedule(7, C9))


def test_verify_slice_passes_on_real_slices():
    reports = verify_tower(build_tower(7, C9))
    assert all(r.passed and not r.failures for r in reports)
    assert [r.checks for r in reports] == [6, 6, 9, 6, 12]
    reports = verify_tower(build_tower(4, C3))
    assert all(r.passed for r in reports)


def failure_list(report):
    return [(f.level, f.epsilon, f.t, str(f.group)) for f in report.failures]


def test_verify_slice_flags_non_slice():
    # a plane with the wrong kernel level passes the cheap structural
    # checks but leaves nonvanishing homology where a slice has none
    fake = SliceDescriptor(rep=rotation_plane(C9, 1), coeff_i=1, coeff_j=0)
    report = verify_slice(fake)
    assert not report.passed
    assert all(f.check == "vanishing" for f in report.failures)
    assert report.checks == 11
    assert failure_list(report) == [(2, 1, 1, "Z/3"), (1, 0, 2, "Z/3"), (1, 1, 3, "Z/3")]


def mutants(desc):
    """The descriptor's sphere under every other coefficient its group
    has, B(i, j) or Z; then its coefficient on the sphere with one plane
    moved a level up or down, a level-k plane being two trivial summands."""
    v, group, k = desc.rep, desc.rep.group, desc.rep.group.k
    for i, j in [(None, None), *((i, j) for i in range(1, k + 1) for j in range(k - i + 1))]:
        if (i, j) != (desc.coeff_i, desc.coeff_j):
            yield SliceDescriptor(v, i, j)
    counts = [*v.planes, v.trivial // 2]
    for out in range(k + 1):
        for in_ in (out - 1, out + 1):
            if counts[out] > 0 and 0 <= in_ <= k:
                moved = v + rotation_plane(group, in_) - rotation_plane(group, out)
                yield SliceDescriptor(moved, desc.coeff_i, desc.coeff_j)


def test_verify_slice_matches_the_reference_loop_on_passes_and_failures():
    # every slice of the verify-sweep towers, which pass, and then mutants
    # of the towers' slices over C_9, C_27 and C_25, which fail both ways:
    # the loop on multiplicities gives the Rep loop's report, failure for failure
    for p, k, lo, hi in SWEEP_RANGES:
        for desc in {desc for n in range(lo, hi + 1) for desc in tower_slices(build_tower(n, Group(p, k)))}:
            assert verify_slice(desc) == reference_verify_slice(desc), desc
    checks = set()
    for group in (C9, Group(3, 3), Group(5, 2)):
        slices = {desc for n in range(3, 25) for desc in tower_slices(build_tower(n, group))}
        for desc in {mutant for desc in slices for mutant in mutants(desc)}:
            report = verify_slice(desc)
            assert report == reference_verify_slice(desc), desc
            checks.update(f.check for f in report.failures)
    assert checks == {"containment", "vanishing"}


def test_verify_slice_reports_both_degrees_in_t_order():
    # the dimension-5 stage of S^4 over C_9 with B(1,1) in place of its
    # B(1,0) fails in degree 0 at t = 1 and in degree -1 at t = 2
    stage = next(d for d in tower_slices(build_tower(4, C9)) if d.dim == 5)
    assert stage.rep == Rep(C9, 1, (2, 0))
    report = verify_slice(dataclasses.replace(stage, coeff_i=1, coeff_j=1))
    assert not report.passed
    assert report.checks == 9
    assert failure_list(report) == [(2, 0, 1, "Z/3"), (2, 1, 2, "Z/3")]
    # 2λ_1 is no slice of dimension 4: at t = 1 both degrees fail on one
    # complex, degree 0 first
    fake = SliceDescriptor(rep=Rep(C9, 0, (0, 2)), coeff_i=1, coeff_j=0)
    report = verify_slice(fake)
    assert report.checks == 14
    assert report.failures[0].check == "containment"
    assert failure_list(report)[1:] == [(2, 0, 1, "Z/3"), (2, 1, 1, "Z/3"),
                                        (1, 0, 4, "Z/3"), (1, 1, 5, "Z/3")]


@pytest.mark.parametrize("planes", [-1, 1])
def test_verify_slice_refuses_a_restriction_that_changes_the_dimension(monkeypatch, planes):
    # a restriction that drops or adds a level-0 plane moves Vm two
    # dimensions off V, which the top level already shows
    real = restrict_rep

    def off_by_a_plane(v, m):
        w = real(v, m)
        return Rep(w.group, w.trivial, (w.planes[0] + planes, *w.planes[1:]))

    monkeypatch.setattr("slicetower.tower.restrict_rep", off_by_a_plane)
    desc = SliceDescriptor(n_slice_rep(7, C9))
    with pytest.raises(InvariantError, match=re.escape(f"restriction to level 2 changed the dimension of {desc.rep}")):
        verify_slice.__wrapped__(desc)


def test_verify_slice_gives_up_on_a_vanishing_loop_that_never_stops(monkeypatch):
    # with the top cell dimension stuck above -2 the loop would run
    # forever; at the top level of S^2 over C_3, where degree 0 starts at
    # t = 1 and degree -1 at t = 2, it reads 2 dim V + 9 spheres from the
    # first, t = 1..13, and then gives up
    seen = []
    monkeypatch.setattr("slicetower.tower.max_cell_dim", lambda w: seen.append(w.trivial) or 0)
    with pytest.raises(InvariantError, match="vanishing loop failed to stabilize"):
        verify_slice.__wrapped__(SliceDescriptor(trivial_rep(C3, 2)))
    assert seen == [2 - t for t in range(1, 14)]


def outcome(report):
    return report.passed, report.checks, report.failures


def empty_caches():
    verify_slice.cache_clear()
    sphere_homology.cache_clear()


@pytest.mark.parametrize("group,top", [(C9, 12), (Group(5, 3), 8)], ids=str)
def test_warm_memo_gives_the_cold_reports(group, top):
    # one verify_slice call never meets a sphere twice, so emptying both
    # caches before each call gives the reports of the plain realization
    slices = [d for n in range(3, top + 1) for d in tower_slices(build_tower(n, group))]
    cold = []
    for desc in slices:
        empty_caches()
        cold.append(outcome(verify_slice(desc)))
    empty_caches()
    first = [outcome(verify_slice(desc)) for desc in slices]
    filled = sphere_homology.cache_info().currsize
    checked = verify_slice.cache_info().currsize
    # with the slices forgotten, every sphere comes from the sphere cache
    verify_slice.cache_clear()
    warm_spheres = [outcome(verify_slice(desc)) for desc in slices]
    assert sphere_homology.cache_info().currsize == filled > 0
    # and with both warm, every slice comes from the slice cache
    misses = verify_slice.cache_info().misses
    warm = [outcome(verify_slice(desc)) for desc in slices]
    assert first == cold and warm_spheres == cold and warm == cold
    assert sphere_homology.cache_info().currsize == filled  # every sphere came from the cache
    assert verify_slice.cache_info().currsize == checked < len(slices)
    assert verify_slice.cache_info().misses == misses


def test_a_slice_is_checked_once_wherever_it_sits():
    # the check reads the spectrum only: a slice met at several places
    # (n, a, b) in the towers of C_9 takes one cache miss
    places = {}
    for n in range(3, 13):
        for desc, a, b, *_ in build_tower(n, C9).steps():
            places.setdefault(desc, []).append((a, b))
    moved = [(desc, met) for desc, met in places.items() if len(set(met)) > 1]
    assert moved
    for desc, met in moved:
        empty_caches()
        reports = [verify_slice(desc) for _ in met]
        assert all(r is reports[0] for r in reports)
        assert verify_slice.cache_info()[:2] == (len(met) - 1, 1)  # hits, misses


def test_reports_share_no_state_with_the_cache():
    stage = next(d for d in tower_slices(build_tower(4, C9)) if d.dim == 5)
    mutant = dataclasses.replace(stage, coeff_i=1, coeff_j=1)
    report = verify_slice(mutant)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.failures = ()
    with pytest.raises(AttributeError):
        report.failures.append(Failure(0, "containment"))
    again = verify_slice(mutant)
    assert again is report
    assert again.checks == 9
    assert failure_list(again) == [(2, 0, 1, "Z/3"), (2, 1, 2, "Z/3")]
    assert verify_slice.cache_info().hits == 1


def test_slice_cache_is_bounded(monkeypatch):
    # more distinct spheres, and then slices, than either cache holds:
    # trivial spheres over C_3, and the zero slices of 4,200 groups C_p,
    # which read a constant answer in place of their spheres' homology
    # (the cap does not depend on it), so filling stays quick
    for n in range(4200):
        sphere_homology(trivial_rep(C3, n), constant_Z(C3), 0, 0)
    monkeypatch.setattr("slicetower.tower.sphere_homology", lambda w, M, lo, hi: (AbGroup(()),) * 2)
    primes = [p for p in range(3, 50000, 2) if is_odd_prime(p)][:4200]
    for p in primes:
        verify_slice(SliceDescriptor(trivial_rep(Group(p, 1), 0)))
    for cache in (sphere_homology, verify_slice):
        info = cache.cache_info()
        assert info.misses > info.maxsize >= info.currsize


def test_torsion_slice_and_form_caches_are_bounded():
    # the column-1 slices over C_3 of 4,200 base dimensions, each spelled
    # and encoded once, and as many distinct reports, are more than any
    # of these caches holds
    for m in range(1, 4201):
        slice_text(torsion_slice(C3, 1, m)[0])
        verification_text(VerificationReport(m, ()))
    for cache in (torsion_slice, sphere_forms, slice_text, verification_text):
        info = cache.cache_info()
        assert info.misses > info.maxsize >= info.currsize


def test_a_torsion_slice_depends_on_its_dimension_only():
    # V(a,b) of S^n is the slice at (a, m_b): every (a, b) of the towers
    # of n = 3..60 over C_p^k, p in {3, 5, 7, 11} and k = 1..3, against
    # the slice built from the numbers of S^n itself with the reference
    # constructors, (n - 2) rho - 1 - lambda(ell) with coefficient
    # B(min(v_p(m_b), k - a) + 1, a - 1), whose stage trades the plane
    # at level a + min(v_p(m_b), k - a) for one at level a - 1
    checked = 0
    for p, k in itertools.product((3, 5, 7, 11), (1, 2, 3)):
        group = Group(p, k)
        for n in range(3, 61):
            base_dims = slice_params(n, group)
            for a, b in itertools.product(range(1, k + 1), range(1, len(base_dims) + 1)):
                m = base_dims[b - 1]
                ell = ((n - 2) * p ** k - m * p ** a) // 2
                rep = (reference.regular_rep(group, n - 2) - reference.trivial_rep(group)
                       - reference.lambda_block(ell, group))
                out = a + min(p_adic_val(m, p), k - a)
                own = SliceDescriptor(rep, coeff_i=out - a + 1, coeff_j=a - 1)
                move = reference.rotation_plane(group, a - 1) - reference.rotation_plane(group, out)
                assert torsion_slice(group, a, m) == (own, move), (group, n, a, b)
                checked += 1
    assert checked == 17160


def reference_torsion_slice(group, a, m):
    """The stage at (a, m) from the reference constructors: the slice
    m rho - 1 - lambda(m (p^k - p^a) / 2) with coefficient
    B(min(v_p(m), k - a) + 1, a - 1), and the move trading the plane at
    level a + min(v_p(m), k - a) for one at level a - 1."""
    p, k = group.p, group.k
    rep = (reference.regular_rep(group, m) - reference.trivial_rep(group)
           - reference.lambda_block(m * (p ** k - p ** a) // 2, group))
    out = a + min(p_adic_val(m, p), k - a)
    move = reference.rotation_plane(group, a - 1) - reference.rotation_plane(group, out)
    return SliceDescriptor(rep, coeff_i=out - a + 1, coeff_j=a - 1), move


def test_torsion_slices_are_2rho_periodic():
    # tower.py derives that the stage at m + 2p^(k-a) is the stage at m
    # plus 2 rho, with the same trade, and torsion_slice builds each
    # stage from its class's so: every a and m = 1..4 * 2p^(k-a) over
    # C_3, C_9, C_27, C_81, C_25 and C_7^2, against the reference
    # constructors, with one class built per residue reached
    checked = classes = 0
    for p, k in ((3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)):
        group = Group(p, k)
        for a in range(1, k + 1):
            period = 2 * p ** (k - a)
            two_rho = reference.regular_rep(group, 2)
            for m in range(1, 4 * period + 1):
                (own, move), (low, low_move) = torsion_slice(group, a, m), reference_torsion_slice(group, a, m)
                assert (own, move) == (low, low_move), (group, a, m)
                high, high_move = reference_torsion_slice(group, a, m + period)
                assert high == dataclasses.replace(low, rep=low.rep + two_rho), (group, a, m)
                assert high_move == low_move, (group, a, m)
                checked += 1
            classes += period
    assert checked == 4 * classes == 576
    assert _slice_class.cache_info().misses == classes


def test_torsion_slices_past_the_cap_come_from_their_classes():
    # m = 1..9,000 over C_3, more base dimensions than torsion_slice's
    # cache holds, are built from C_3's two classes, m odd and m even
    for m in range(1, 9001):
        assert torsion_slice(C3, 1, m) == reference_torsion_slice(C3, 1, m), m
    info = torsion_slice.cache_info()
    assert info.misses == 9000 > info.maxsize >= info.currsize
    assert _slice_class.cache_info().misses == 2


def test_a_shifted_slice_is_checked_as_slice_rep_checks(monkeypatch):
    # with its class's slice mutated, the stage at (2, 5) over C_9, 4 rho
    # above its class's rho - 1, is refused either way
    real = _slice_class
    mutants = {
        # one level-0 plane too many adds two dimensions to V
        "is not an actual representation of the slice dimension": rotation_plane(C9, 0),
        # a level-0 plane for two trivial summands keeps the dimension
        "has the wrong trivial multiplicity": rotation_plane(C9, 0) - trivial_rep(C9, 2),
    }
    for message, mutant in mutants.items():
        monkeypatch.setattr("slicetower.tower._slice_class",
                            lambda group, a, r: (real(group, a, r)[0] + mutant, *real(group, a, r)[1:]))
        assert real(C9, 2, 1)[0] == regular_rep(C9) - trivial_rep(C9)
        with pytest.raises(InvariantError, match=re.escape(f"V at (a, m) = (2, 5) {message}")):
            torsion_slice(C9, 2, 5)


def test_towers_share_their_torsion_slices():
    # a slice met in several towers is one object, so the caches keyed
    # by it hit on identity
    for n in range(3, 31):
        for desc, a, b, *_ in list(build_tower(n, C9).steps())[:-1]:
            m = slice_params(n, C9)[b - 1]
            assert desc is torsion_slice(C9, a, m)[0]
    info = torsion_slice.cache_info()
    assert info.hits > info.misses == info.currsize


def test_regular_rep_cache_stays_under_its_cap():
    # each tower asks for its group's regular representation, once: the
    # towers of S^3 over 4,200 groups ask for more distinct entries than
    # the cap holds
    primes = [p for p in range(3, 50000, 2) if is_odd_prime(p)][:4200]
    regular_rep.cache_clear()
    for p in primes:
        list(build_tower(3, Group(p, 1)).steps())
    info = regular_rep.cache_info()
    assert info.misses > info.maxsize >= info.currsize


def test_a_huge_n_is_refused_before_any_stage():
    # d of S^(10^20) over C_3 is past what a range can count
    with pytest.raises(ValueError, match=r"n = 10{20} is too large: its 3{20} base dimensions"):
        build_tower(10**20, C3)


def test_memo_tells_coefficients_apart():
    # the dimension-5 stage of S^4 over C_9 passes with its B(1,0); its
    # B(1,1) mutant meets the same spheres and must still fail
    stage = next(d for d in tower_slices(build_tower(4, C9)) if d.dim == 5)
    assert verify_slice(stage).passed
    report = verify_slice(dataclasses.replace(stage, coeff_i=1, coeff_j=1))
    assert report.checks == 9
    assert failure_list(report) == [(2, 0, 1, "Z/3"), (2, 1, 2, "Z/3")]


def test_memo_is_keyed_by_value():
    w = Rep(C9, 1, (2, 0)) - regular_rep(C9, 1)

    def low(M):
        return sphere_homology(w, M, -1, 0)[::-1]  # H_0, H_-1

    def entries(M):
        low(M)
        return sphere_homology.cache_info().currsize

    # equal functors built apart share an entry, also under another name
    assert entries(B_ij(1, 0, C9)) == 1
    assert entries(B_ij(1, 0, C9)) == 1
    assert entries(restrict_mackey(B_ij(1, 0, Group(3, 3)), 2)) == 1
    # other functors do not, also where only the maps differ
    assert entries(B_ij(1, 1, C9)) == 2
    assert entries(constant_Z(C9)) == 3
    assert entries(dual_Z(C9)) == 4
    assert [str(h) for h in low(B_ij(1, 0, C9))] == ["0", "0"]
    assert [str(h) for h in low(B_ij(1, 1, C9))] == ["Z/3", "0"]
