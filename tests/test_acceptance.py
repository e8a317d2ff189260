"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every numeric claim is
checked with exact arithmetic (int/Fraction); the stated wall-time budgets
are asserted too.
"""
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from vcbundle import (
    BundleFamily,
    GoodsUniverse,
    TieBreak,
    balanced_family,
    check_semi_balanced,
    classify_family,
    closed_form_ratio,
    deviation_gap,
    equilibrium_counterexample,
    feasible_family_bound,
    field_of_partition,
    is_quasi_field,
    lower_bound_profile,
    max_feasible_family,
    max_surplus,
    partition_from_sizes,
    phi,
    plane_family,
    projective_plane,
    random_quasi_field,
    ratio_oracle,
    sigma_optimal_surplus,
    singleton_profile,
    unanimity_profile,
    verify_plane_axioms,
)
from vcbundle.core import exact_ratio
from vcbundle.equilibrium import (
    disjoint_unanimity_families,
    disjoint_unanimity_profiles,
    max_profile_gap,
    random_monotone_profiles,
)
from vcbundle.sigma import enumerate_families

POOL_SEED = 20260810


def _report(criterion: int, label: str, elapsed: float, budget: float) -> None:
    print(f"ACCEPTANCE {criterion:2d}: PASS - {label} ({elapsed:.2f}s of {budget:.0f}s budget)")


def _partition_shapes(m: int, max_k: int):
    def rec(remaining, max_part, parts):
        if remaining == 0:
            yield tuple(parts)
            return
        if len(parts) == max_k:
            return
        for size in range(min(remaining, max_part), 0, -1):
            parts.append(size)
            yield from rec(remaining - size, size, parts)
            parts.pop()

    yield from rec(m, m, [])


def _quasi_field_pool():
    """200 closure-generated random quasi fields over 2..6 goods."""
    rng = random.Random(POOL_SEED)
    pool = []
    for m in (2, 3, 4, 5, 6):
        universe = GoodsUniverse.of_size(m)
        for _ in range(40):
            pool.append((universe, random_quasi_field(universe, rng)))
    return pool


def test_criterion_01_example1_gap():
    started = time.monotonic()
    universe = GoodsUniverse.of_size(4)
    family = BundleFamily.of(
        universe, (universe.parse_bundle(s) for s in ("a", "d", "bcd", "abc", "abcd"))
    )
    cls = classify_family(family)
    assert not cls.is_quasi_field
    assert cls.missing_complement is not None or cls.missing_union is not None
    profile = unanimity_profile(
        universe,
        [universe.parse_bundle("bc"), universe.parse_bundle("a"), universe.parse_bundle("d")],
    )
    gap = deviation_gap(family, profile, 0)
    assert gap == 1 and isinstance(gap, int)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, "deviation gap exactly 1, family not a quasi field", elapsed, 1)


def test_criterion_02_quasi_field_soundness_and_completeness():
    started = time.monotonic()
    pool = _quasi_field_pool()
    assert len(pool) == 200
    swept = 0
    for universe, family in pool:
        for profile in disjoint_unanimity_profiles(universe):
            assert max_profile_gap(family, profile) == 0  # the gap under every tie rule
            swept += 1
    non_quasi = 0
    for m in (1, 2, 3, 4):
        universe = GoodsUniverse.of_size(m)
        for family in enumerate_families(universe, max_bundles=8):
            if is_quasi_field(family):
                continue
            non_quasi += 1
            witness = equilibrium_counterexample(family)
            assert deviation_gap(family, witness.profile, witness.deviator) >= 1
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _report(
        2,
        f"zero gap on {swept} quasi-field sweeps; witness gap >= 1 on {non_quasi} families",
        elapsed,
        120,
    )


def test_criterion_03_solver_matches_oracle():
    started = time.monotonic()
    shapes = 0
    for m in range(1, 10):
        for sizes in _partition_shapes(m, 4):
            part = partition_from_sizes(list(sizes))
            assert max_feasible_family(part).s == ratio_oracle(part).ratio
            shapes += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300
    _report(3, f"solver equals the profile-sweep oracle on {shapes} partition shapes", elapsed, 300)


def test_criterion_04_closed_forms_and_minima():
    started = time.monotonic()
    for m in range(1, 11):
        for sizes in _partition_shapes(m, 3):
            part = partition_from_sizes(list(sizes))
            assert max_feasible_family(part).s == closed_form_ratio(part)
    for m in range(2, 11):
        best_two = min(
            closed_form_ratio(partition_from_sizes([a, m - a])) for a in range(1, m // 2 + 1)
        )
        assert best_two == math.ceil(m / 2)
    for m in range(3, 11):
        best_three = min(
            closed_form_ratio(partition_from_sizes([a, b, m - a - b]))
            for a in range(1, m - 1)
            for b in range(a, m - a)
            if m - a - b >= b
        )
        assert best_three == m // 2
    elapsed = time.monotonic() - started
    assert elapsed < 60
    _report(4, "closed forms match the solver; split minima are ceil/floor of m/2", elapsed, 60)


def test_criterion_05_upper_bound_soundness():
    started = time.monotonic()
    tested = 0
    for m in range(1, 10):
        for sizes in _partition_shapes(m, 4):
            part = partition_from_sizes(list(sizes))
            assert max_feasible_family(part).s <= feasible_family_bound(part)
            tested += 1
    for m in range(1, 11):
        for sizes in _partition_shapes(m, 3):
            part = partition_from_sizes(list(sizes))
            assert max_feasible_family(part).s <= feasible_family_bound(part)
            tested += 1
    part = partition_from_sizes([3] * 7)
    assert max_feasible_family(part).s <= feasible_family_bound(part)
    tested += 1
    for k in range(1, 101):
        val = phi(k)
        assert val * val <= k
    elapsed = time.monotonic() - started
    assert elapsed < 60
    _report(5, f"bound holds on {tested} partitions; phi(k) <= sqrt(k) up to 100", elapsed, 60)


def test_criterion_06_projective_plane_witnesses():
    started = time.monotonic()
    for q in (0, 1, 2, 3, 5):
        plane = projective_plane(q)
        assert verify_plane_axioms(plane.n_points, plane.lines, q) == []
    part = partition_from_sizes([3] * 7)
    result = max_feasible_family(part)
    assert result.s == 7
    profile = lower_bound_profile(result.family, part)
    s_max = max_surplus(profile)
    _, s_pi = sigma_optimal_surplus(profile, field_of_partition(part))
    assert exact_ratio(s_max, s_pi) == 7
    # the plane's own line family is feasible and witnesses the same ratio
    fano = plane_family(projective_plane(2))
    profile = lower_bound_profile(fano, part)
    assert max_surplus(profile) == 7
    _, s_pi = sigma_optimal_surplus(profile, field_of_partition(part))
    assert s_pi == 1
    elapsed = time.monotonic() - started
    assert elapsed < 600
    _report(6, "planes q in {0,1,2,3,5} verified; q=2 ratio 7 via solver and engine", elapsed, 600)


def test_criterion_07_mixed_partition_of_21_goods():
    started = time.monotonic()
    result = max_feasible_family(partition_from_sizes([2, 4, 3, 3, 3, 3, 3]))
    assert result.s == 6
    assert 7 in result.exhausted
    profile = lower_bound_profile(result.family, partition_from_sizes([2, 4, 3, 3, 3, 3, 3]))
    assert max_surplus(profile) == 6
    elapsed = time.monotonic() - started
    assert elapsed < 900
    _report(7, "maximum family size 6 found and 7 exhausted on sizes (2,4,3,3,3,3,3)", elapsed, 900)


def test_criterion_08_balanced_family():
    started = time.monotonic()
    for m in (4, 6, 8):
        universe = GoodsUniverse.of_size(m)
        family = balanced_family(universe)
        assert is_quasi_field(family)
        assert len(family) == math.comb(m, m // 2)
        half_mask = (1 << (m // 2)) - 1
        pair = unanimity_profile(universe, [half_mask, universe.full_mask ^ half_mask])
        _, s_sigma = sigma_optimal_surplus(pair, family)
        assert exact_ratio(max_surplus(pair), s_sigma) == 2  # equality attained
        worst = Fraction(0)
        for profile in disjoint_unanimity_profiles(universe):
            _, s_sig = sigma_optimal_surplus(profile, family)
            worst = max(worst, exact_ratio(max_surplus(profile), s_sig))
        assert worst == 2
        for profile in random_monotone_profiles(universe, n=3, count=200, seed=POOL_SEED):
            _, s_sig = sigma_optimal_surplus(profile, family)
            assert max_surplus(profile) <= 2 * s_sig

    # m = 10: certify the sweep with greedy restricted allocations (sound
    # lower bounds on the restricted optimum), falling back to the exact
    # count when greedy does not certify; spot-check against the engine.
    universe = GoodsUniverse.of_size(10)
    family = balanced_family(universe)
    assert is_quasi_field(family)
    assert len(family) == math.comb(10, 5) == 252 < 2**8
    members = family.sorted_bundles
    minimal_supersets = {}
    for atom in range(1, universe.full_mask + 1):
        sups = [c for c in members if c & atom == atom]
        minimal_supersets[atom] = [
            c for c in sups if not any(o is not c and o & c == o for o in sups)
        ]

    def greedy_served(masks):
        used = 0
        served = 0
        for b in masks:
            for c in minimal_supersets[b]:
                if c & used == 0:
                    used |= c
                    served += 1
                    break
        return served

    def exact_served(masks):
        best = 0

        def rec(i, used, served):
            nonlocal best
            if served + (len(masks) - i) <= best:
                return
            if i == len(masks):
                best = max(best, served)
                return
            for c in minimal_supersets[masks[i]]:
                if c & used == 0:
                    rec(i + 1, used | c, served + 1)
            rec(i + 1, used, served)

        rec(0, 0, 0)
        return best

    index = 0
    for masks in disjoint_unanimity_families(universe):
        index += 1
        s = len(masks)  # unit weights on pairwise-disjoint wanted bundles
        if s > 2 * greedy_served(masks):
            assert s <= 2 * exact_served(masks), masks
        if index % 20000 == 0:  # engine agreement spot-checks
            profile = unanimity_profile(universe, masks)
            assert max_surplus(profile) == s
            _, s_sigma = sigma_optimal_surplus(profile, family)
            assert s_sigma == exact_served(masks)
    half_mask = (1 << 5) - 1
    pair = unanimity_profile(universe, [half_mask, universe.full_mask ^ half_mask])
    _, s_sigma = sigma_optimal_surplus(pair, family)
    assert exact_ratio(max_surplus(pair), s_sigma) == 2
    for profile in random_monotone_profiles(universe, n=2, count=200, seed=POOL_SEED):
        _, s_sig = sigma_optimal_surplus(profile, family)
        assert max_surplus(profile) <= 2 * s_sig
    elapsed = time.monotonic() - started
    assert elapsed < 300
    _report(8, "balanced family: sizes, quasi field, ratio <= 2 with equality", elapsed, 300)


def test_criterion_09_two_good_outcomes():
    started = time.monotonic()
    from vcbundle import run_vc
    from vcbundle.sigma import project_profile

    universe = GoodsUniverse.of_size(2)
    profile = unanimity_profile(universe, [1, 2])
    trivial = field_of_partition(partition_from_sizes([2], universe))
    truthful = run_vc(profile)
    assert (truthful.surplus, truthful.revenue) == (2, 0)
    bundled = run_vc(project_profile(profile, trivial), true_profile=profile)
    assert (bundled.surplus, bundled.revenue) == (1, 1)
    profile4 = unanimity_profile(universe, [1, 2, 1, 2])
    truthful4 = run_vc(profile4)
    assert (truthful4.surplus, truthful4.revenue) == (2, 2)
    bundled4 = run_vc(project_profile(profile4, trivial), true_profile=profile4)
    assert (bundled4.surplus, bundled4.revenue) == (1, 1)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(9, "surplus/revenue pairs (2,0), (1,1), (2,2), (1,1) exact", elapsed, 1)


def test_criterion_10_buyer_count_bound_and_size_lower_bound():
    started = time.monotonic()
    # every generated profile obeys S_max <= n * S_Sigma
    pool = _quasi_field_pool()
    checked = 0
    for universe, family in pool:
        for profile in disjoint_unanimity_profiles(universe):
            _, s_sigma = sigma_optimal_surplus(profile, family)
            assert max_surplus(profile) <= profile.n * s_sigma
            checked += 1

    # enumerated quasi fields: restricted surplus k on the singleton profile
    # forces k pairwise-disjoint members and at least 2^k bundles
    def max_disjoint(family):
        members = [b for b in family.sorted_bundles if b]

        def rec(i, used):
            if i == len(members):
                return 0
            best = rec(i + 1, used)
            if members[i] & used == 0:
                best = max(best, 1 + rec(i + 1, used | members[i]))
            return best

        return rec(0, 0)

    fields = 0
    for m in (1, 2, 3, 4):
        universe = GoodsUniverse.of_size(m)
        base = singleton_profile(universe)
        nonempty = list(range(1, universe.full_mask + 1))
        for r in range(len(nonempty) + 1):
            for extras in itertools.combinations(nonempty, r):
                family = BundleFamily.of(universe, extras)
                if not is_quasi_field(family):
                    continue
                fields += 1
                _, s_sigma = sigma_optimal_surplus(base, family)
                k = int(s_sigma)
                assert s_sigma == k
                assert max_disjoint(family) >= k
                assert len(family) >= 2**k
    rng = random.Random(POOL_SEED + 1)
    for m in (5, 6):
        universe = GoodsUniverse.of_size(m)
        base = singleton_profile(universe)
        for _ in range(40):
            family = random_quasi_field(universe, rng)
            fields += 1
            _, s_sigma = sigma_optimal_surplus(base, family)
            k = int(s_sigma)
            assert s_sigma == k
            assert max_disjoint(family) >= k
            assert len(family) >= 2**k
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _report(
        10,
        f"buyer-count bound on {checked} profiles; size bound on {fields} quasi fields",
        elapsed,
        120,
    )
