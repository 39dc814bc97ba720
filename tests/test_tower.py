"""Tower assembly: slice ordering, section bookkeeping, fiber sequences,
and the from-scratch slice verification."""

import dataclasses
import itertools

import pytest

from slicetower.abelian import AbGroup
from slicetower.document import slice_text, sphere_forms, verification_text
from slicetower.group import Group, is_odd_prime
from slicetower.homology import sphere_homology
from slicetower.mackey import B_ij, constant_Z, dual_Z, restrict_mackey
from slicetower.params import slice_params
from slicetower.rep import Rep, regular_rep, rotation_plane, slice_rep, trivial_rep
from slicetower.tower import (
    Failure,
    Kind,
    SliceDescriptor,
    VerificationReport,
    _exchange,
    build_tower,
    torsion_slice,
    verify_slice,
    verify_tower,
)

C3 = Group(3, 1)
C9 = Group(3, 2)


def test_s7_tower_frozen():
    tower = build_tower(7, C9)
    assert [s.dim for s in tower.slices] == [44, 26, 14, 8, 7]
    assert [s.kind for s in tower.slices] == [Kind.TORSION] * 4 + [Kind.INTEGRAL]
    assert [(s.coeff_i, s.coeff_j) for s in tower.slices[:-1]] == [
        (1, 1), (1, 1), (1, 0), (2, 0)]
    assert [(s.a, s.b) for s in tower.stages[:-1]] == [(2, 2), (2, 1), (1, 2), (1, 1)]
    assert tower.stages[0].section == trivial_rep(C9, 7)
    assert [str(s.section) for s in tower.stages] == [
        "7", "5 + λ_1", "3 + 2λ_1", "3 + λ_1 + λ_0", "1 + λ_1 + 2λ_0"]
    assert tower.stages[-1].section == tower.slices[-1].rep


def test_s16_tower_frozen():
    tower = build_tower(16, C9)
    assert [s.dim for s in tower.slices] == [
        125, 107, 89, 71, 53, 41, 35, 29, 23, 17, 16]
    assert [(s.coeff_i, s.coeff_j) for s in tower.slices[:-1]] == [
        (1, 1)] * 5 + [(1, 0), (2, 0), (1, 0), (1, 0), (2, 0)]
    assert str(tower.slices[0].rep) == "14ρ - 1"
    assert str(tower.slices[6].rep) == "4ρ - 1"
    assert tower.stages[-1].section == Rep(C9, 2, (5, 2))
    assert str(tower.stages[-1].section) == "2 + 2λ_1 + 5λ_0"


def test_multiple_of_p_drops_last_torsion_slice():
    # p | n: the (a, b) = (1, 1) slot is absent and the bottom integral
    # slice takes over directly
    tower = build_tower(9, C9)
    assert all((s.a, s.b) != (1, 1) for s in tower.stages[:-1])
    # d = 3 (base dims 3, 5, 7) and the dropped slot leaves k*d stages
    assert len(tower.stages) == 6
    assert tower.slices[-1].kind == Kind.INTEGRAL
    assert tower.slices[-1].dim == 9


def test_c_p_family_closed_form():
    # over C_p the i-th slice prints as a trivial sphere of dimension
    # n - 2i - 1 and the section below it is (n - 2i) + i lambda_0
    for p in (3, 5, 7):
        g = Group(p, 1)
        for n in range(3, 21):
            if n % p == 0:
                continue
            tower = build_tower(n, g)
            torsion = tower.slices[:-1]
            d = len(torsion)
            for i, s in enumerate(torsion, start=1):
                assert (s.coeff_i, s.coeff_j) == (1, 0)
                assert s.rep.trivial == n - 2 * i - 1
            for i, stage in enumerate(tower.stages):
                assert stage.section == Rep(g, n - 2 * i, (i,))
            assert tower.stages[-1].section == Rep(g, n - 2 * d, (d,))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_small_n_single_stage(n):
    for g in (C3, C9):
        tower = build_tower(n, g)
        assert len(tower.stages) == 1
        desc = tower.slices[0]
        assert desc.kind == (Kind.ZERO if n == 0 else Kind.INTEGRAL_SMALL)
        assert desc.dim == n
        assert desc.rep == trivial_rep(g, n)
        report = verify_slice(desc)
        assert report.passed, report.failures


def test_counts_and_monotone_dims():
    for g in (C3, C9, Group(5, 2), Group(3, 3)):
        for n in range(3, 16):
            slices = build_tower(n, g).slices
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
        tower = build_tower(n, g)
        for stage, below in zip(tower.stages, tower.stages[1:]):
            desc, a = stage.descriptor, stage.a
            i, j = desc.coeff_i, desc.coeff_j
            assert desc.is_torsion
            assert j == a - 1 and 1 <= i and i + j <= g.k, (n, g, a, stage.b)
            common = stage.section - rotation_plane(g, i + j)
            assert common == below.section - rotation_plane(g, j), (n, g, a, stage.b)
            excess = desc.rep - (common - trivial_rep(g))
            assert excess.is_actual and excess.trivial == 0, (n, g, a, stage.b, excess)
            assert not any(excess.planes[a:]), (n, g, a, stage.b, excess)


def test_exchange_at_level_k_trades_two_trivial_summands():
    # S^7 over C_9: B(1,1) at (2, 2) and B(2,0) at (1, 1) have i + j = k,
    # so crossing them gives up two trivial summands for a level-j plane
    tower = build_tower(7, C9)
    assert _exchange(tower.stages[0]) == Rep(C9, 5, (0, 1))
    assert _exchange(tower.stages[3]) == Rep(C9, 1, (2, 1))
    for p, k, n in itertools.product((3, 5), (1, 2, 3), range(3, 25)):
        g = Group(p, k)
        for stage in build_tower(n, g).stages[:-1]:
            i, j = stage.descriptor.coeff_i, stage.descriptor.coeff_j
            if i + j != k:
                continue
            nxt = _exchange(stage)
            assert nxt.trivial == stage.section.trivial - 2, (n, g, stage.a, stage.b)
            assert nxt.planes == tuple(m + (level == j) for level, m in enumerate(stage.section.planes))


def test_exchange_needs_the_plane_it_gives_up():
    tower = build_tower(7, C9)
    # the (2, 1) slice's B(1,1) gives up two trivial summands, and S^1 has one
    with pytest.raises(AssertionError, match=r"exchanging planes across V\(2,1\) leaves no section"):
        _exchange(dataclasses.replace(tower.stages[1], section=trivial_rep(C9, 1)))
    # the (1, 2) slice's B(1,0) gives up a level-1 plane, and S^7 has none
    assert tower.stages[2].descriptor.coeff_i + tower.stages[2].descriptor.coeff_j == 1
    with pytest.raises(AssertionError, match=r"exchanging planes across V\(1,2\) leaves no section"):
        _exchange(dataclasses.replace(tower.stages[2], section=trivial_rep(C9, 7)))


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
    fake = SliceDescriptor(kind=Kind.TORSION, rep=rotation_plane(C9, 1), coeff_i=1, coeff_j=0)
    report = verify_slice(fake)
    assert not report.passed
    assert all(f.check == "vanishing" for f in report.failures)
    assert report.checks == 11
    assert failure_list(report) == [(2, 1, 1, "Z/3"), (1, 0, 2, "Z/3"), (1, 1, 3, "Z/3")]


def test_verify_slice_reports_both_degrees_in_t_order():
    # the dimension-5 stage of S^4 over C_9 with B(1,1) in place of its
    # B(1,0) fails in degree 0 at t = 1 and in degree -1 at t = 2
    stage = next(d for d in build_tower(4, C9).slices if d.dim == 5)
    assert stage.rep == Rep(C9, 1, (2, 0))
    report = verify_slice(dataclasses.replace(stage, coeff_i=1, coeff_j=1))
    assert not report.passed
    assert report.checks == 9
    assert failure_list(report) == [(2, 0, 1, "Z/3"), (2, 1, 2, "Z/3")]
    # 2λ_1 is no slice of dimension 4: at t = 1 both degrees fail on one
    # complex, degree 0 first
    fake = SliceDescriptor(kind=Kind.TORSION, rep=Rep(C9, 0, (0, 2)), coeff_i=1, coeff_j=0)
    report = verify_slice(fake)
    assert report.checks == 14
    assert report.failures[0].check == "containment"
    assert failure_list(report)[1:] == [(2, 0, 1, "Z/3"), (2, 1, 1, "Z/3"),
                                        (1, 0, 4, "Z/3"), (1, 1, 5, "Z/3")]


def outcome(report):
    return report.passed, report.checks, report.failures


def empty_caches():
    verify_slice.cache_clear()
    sphere_homology.cache_clear()


@pytest.mark.parametrize("group,top", [(C9, 12), (Group(5, 3), 8)], ids=str)
def test_warm_memo_gives_the_cold_reports(group, top):
    # one verify_slice call never meets a sphere twice, so emptying both
    # caches before each call gives the reports of the plain realization
    slices = [d for n in range(3, top + 1) for d in build_tower(n, group).slices]
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
        for stage in build_tower(n, C9).stages:
            places.setdefault(stage.descriptor, []).append(stage)
    moved = [met for met in places.values() if len({(s.a, s.b) for s in met}) > 1]
    assert moved
    for met in moved:
        empty_caches()
        reports = [verify_slice(stage.descriptor) for stage in met]
        assert all(r is reports[0] for r in reports)
        assert verify_slice.cache_info()[:2] == (len(met) - 1, 1)  # hits, misses


def test_reports_share_no_state_with_the_cache():
    stage = next(d for d in build_tower(4, C9).slices if d.dim == 5)
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
        verify_slice(SliceDescriptor(Kind.ZERO, trivial_rep(Group(p, 1), 0)))
    for cache in (sphere_homology, verify_slice):
        info = cache.cache_info()
        assert info.misses > info.maxsize >= info.currsize


def test_torsion_slice_and_form_caches_are_bounded():
    # the column-1 slices over C_3 of 4,200 base dimensions, each spelled
    # and encoded once, and as many distinct reports, are more than any
    # of these caches holds
    for m in range(1, 4201):
        slice_text(torsion_slice(C3, 1, m))
        verification_text(VerificationReport(True, m, ()))
    for cache in (torsion_slice, sphere_forms, slice_text, verification_text):
        info = cache.cache_info()
        assert info.misses > info.maxsize >= info.currsize


def test_a_torsion_slice_depends_on_its_dimension_only():
    # V(a,b) of S^n is V(a,d) of S^(m_b + 2): every (a, b) of the towers
    # of n = 3..60 over C_p^k, p in {3, 5, 7, 11} and k = 1..3, against
    # the slice built from the parameters of S^n itself
    checked = 0
    for p, k in itertools.product((3, 5, 7, 11), (1, 2, 3)):
        group = Group(p, k)
        for n in range(3, 61):
            params = slice_params(n, group)
            for a, b in itertools.product(range(1, k + 1), range(1, params.count + 1)):
                own = SliceDescriptor(Kind.TORSION, slice_rep(params, a, b),
                                      coeff_i=params.valuation(a, b) + 1, coeff_j=a - 1)
                assert torsion_slice(group, a, params.base_dims[b - 1]) == own, (group, n, a, b)
                checked += 1
    assert checked == 17160


def test_towers_share_their_torsion_slices():
    # a slice met in several towers is one object, so the caches keyed
    # by it hit on identity
    for n in range(3, 31):
        for stage in build_tower(n, C9).stages[:-1]:
            m = slice_params(n, C9).base_dims[stage.b - 1]
            assert stage.descriptor is torsion_slice(C9, stage.a, m)
    info = torsion_slice.cache_info()
    assert info.hits > info.misses == info.currsize


def test_regular_rep_cache_stays_under_its_cap():
    # each tower of S^n asks for n - 2 copies of its group's regular
    # representation: the towers of n = 3..12 over 420 groups ask for
    # more distinct entries than the cap holds
    primes = [p for p in range(3, 3000) if is_odd_prime(p)][:420]
    regular_rep.cache_clear()
    for p in primes:
        for n in range(3, 13):
            build_tower(n, Group(p, 1))
    info = regular_rep.cache_info()
    assert info.misses > info.maxsize >= info.currsize


def test_a_huge_n_is_refused_before_any_stage():
    # d of S^(10^20) over C_3 is past what a range can count
    with pytest.raises(ValueError, match=r"n = 10{20} is too large: its 3{20} base dimensions"):
        build_tower(10**20, C3)


def test_memo_tells_coefficients_apart():
    # the dimension-5 stage of S^4 over C_9 passes with its B(1,0); its
    # B(1,1) mutant meets the same spheres and must still fail
    stage = next(d for d in build_tower(4, C9).slices if d.dim == 5)
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
