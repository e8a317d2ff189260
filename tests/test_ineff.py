import math
import random
from fractions import Fraction

import pytest

from vcbundle import (
    BudgetExceededError,
    FeasibleFamily,
    GoodsUniverse,
    InvalidInputError,
    balanced_family,
    check_semi_balanced,
    classify_family,
    closed_form_ratio,
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
    ratio_oracle,
    sigma_optimal_surplus,
    verify_plane_axioms,
)

# The first nontrivial plane, as a frozen reference: seven points, each line
# of the cyclic family {1,2,4} + i (mod 7).
FANO_LINES = [
    frozenset(s) for s in [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3)]
]


class TestPhi:
    def test_small_values(self):
        assert phi(1) == 1
        assert phi(4) == 2  # enumerating j = 1..4 gives max 2 at j = 2
        assert phi(7) == Fraction(7, 3)

    def test_at_most_sqrt_k(self):
        for k in range(1, 101):
            val = phi(k)
            assert val * val <= k

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            phi(0)


class TestBound:
    def test_seven_triples(self):
        part = partition_from_sizes([3] * 7)
        assert feasible_family_bound(part) == 7

    def test_mixed_sizes(self):
        part = partition_from_sizes([2, 4, 3, 3, 3, 3, 3])
        assert feasible_family_bound(part) == Fraction(28, 3)

    def test_equal_parts_below_m_over_sqrt_k(self):
        for k in [2, 3, 4, 5]:
            for size in [1, 2, 3]:
                part = partition_from_sizes([size] * k)
                bound = feasible_family_bound(part)
                m = size * k
                assert bound * bound <= Fraction(m * m, k)


class TestClosedForm:
    def test_single_part(self):
        assert closed_form_ratio(partition_from_sizes([4])) == 4

    def test_two_parts(self):
        assert closed_form_ratio(partition_from_sizes([3, 3])) == 3
        assert closed_form_ratio(partition_from_sizes([2, 3])) == 3

    def test_three_parts(self):
        assert closed_form_ratio(partition_from_sizes([2, 2, 2])) == 3

    def test_rejects_more_parts(self):
        with pytest.raises(InvalidInputError):
            closed_form_ratio(partition_from_sizes([1, 1, 1, 1]))

    def test_minima_over_shapes(self):
        # best two-part split is the even one; three parts gain nothing for even m
        for m in range(2, 11):
            two = min(
                closed_form_ratio(partition_from_sizes([a, m - a]))
                for a in range(1, m // 2 + 1)
            )
            assert two == math.ceil(m / 2)
        for m in range(3, 11):
            three = min(
                closed_form_ratio(partition_from_sizes([a, b, m - a - b]))
                for a in range(1, m)
                for b in range(1, m - a)
                if m - a - b >= 1
            )
            assert three == m // 2


class TestFeasibleFamily:
    def test_validation(self):
        FeasibleFamily((2, 2), (0b01, 0b01))
        with pytest.raises(InvalidInputError):
            FeasibleFamily((2, 2), (0b01, 0b10))  # disjoint sets
        with pytest.raises(InvalidInputError):
            FeasibleFamily((1, 2), (0b01, 0b01))  # cap exceeded
        with pytest.raises(InvalidInputError):
            FeasibleFamily((2, 2), (0b11, 0b01))  # not sorted

    def test_index_sets(self):
        fam = FeasibleFamily((2, 2, 2), (0b011, 0b101, 0b110))
        assert fam.index_sets() == ((1, 2), (1, 3), (2, 3))


class TestSolver:
    def test_single_part(self):
        res = max_feasible_family(partition_from_sizes([5]))
        assert res.s == 5

    def test_seven_triples_reach_the_bound(self):
        res = max_feasible_family(partition_from_sizes([3] * 7))
        assert res.s == 7
        assert res.exhausted == ()

    def test_closed_forms_k_le_3(self):
        for sizes in [(1,), (4,), (1, 1), (2, 3), (4, 4), (1, 2, 3), (2, 2, 2), (3, 3, 3)]:
            part = partition_from_sizes(list(sizes))
            assert max_feasible_family(part).s == closed_form_ratio(part)

    def test_example_partition_of_21_goods(self):
        res = max_feasible_family(partition_from_sizes([2, 4, 3, 3, 3, 3, 3]))
        assert res.s == 6
        assert 7 in res.exhausted

    def test_bound_soundness(self):
        rng = random.Random(5)
        for _ in range(25):
            k = rng.randint(1, 5)
            sizes = [rng.randint(1, 4) for _ in range(k)]
            part = partition_from_sizes(sizes)
            res = max_feasible_family(part)
            assert res.s <= feasible_family_bound(part)

    def test_certificate_duality(self):
        # the uniform 1/beta vector over any solver witness is semi-balanced
        for sizes in [(2, 3), (2, 2, 2), (3, 3, 3), (1, 2, 3, 4)]:
            part = partition_from_sizes(list(sizes))
            res = max_feasible_family(part)
            beta = max(sizes)
            report = check_semi_balanced(
                res.family.sets, res.family.k, [Fraction(1, beta)] * res.s
            )
            assert report.valid and report.bound_ok

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            max_feasible_family(partition_from_sizes([1] * 9))


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "sizes",
        [(1,), (3,), (6,), (1, 1), (2, 3), (3, 3), (2, 2, 2), (1, 2, 3), (1, 1, 2, 2), (2, 2, 2, 1)],
    )
    def test_solver_matches_profile_sweep(self, sizes):
        part = partition_from_sizes(list(sizes))
        assert max_feasible_family(part).s == ratio_oracle(part).ratio

    def test_oracle_budget(self):
        with pytest.raises(BudgetExceededError):
            ratio_oracle(partition_from_sizes([13]))

    def test_five_and_six_part_shapes(self):
        # beyond the k <= 4 acceptance sweep; oracle still exact at m <= 12
        for sizes in [(1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (2, 2, 1, 1, 1), (2, 2, 2, 2, 1),
                      (1, 1, 1, 1, 1, 1), (2, 2, 1, 1, 1, 1), (2, 2, 2, 1, 1, 1)]:
            part = partition_from_sizes(list(sizes))
            assert max_feasible_family(part).s == ratio_oracle(part).ratio


class TestSemiBalanced:
    def test_fano_uniform_third(self):
        masks = []
        for line in FANO_LINES:
            mask = 0
            for p in line:
                mask |= 1 << (p - 1)
            masks.append(mask)
        report = check_semi_balanced(masks, 7, [Fraction(1, 3)] * 7)
        assert report.valid
        assert report.total == Fraction(7, 3) == report.phi_k
        assert report.bound_ok

    def test_zero_vector(self):
        report = check_semi_balanced([0b11, 0b01], 2, [0, 0])
        assert report.valid and report.total == 0 and report.bound_ok

    def test_single_set(self):
        report = check_semi_balanced([0b001], 3, [1])
        assert report.valid and report.total == 1 <= phi(3)

    def test_overloaded_vector_invalid(self):
        report = check_semi_balanced([0b01, 0b01], 2, [1, 1])
        assert not report.valid

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            check_semi_balanced([0b01], 2, [1, 1])


def _plane_problems_by_scan(n_points, lines, q):
    """The plane-axiom problems in the order verify_plane_axioms lists them,
    found by testing every point against every line, every line pair and
    every point pair against every line."""
    problems = []
    expected = q * q + q + 1
    if n_points != expected:
        problems.append(f"expected {expected} points, got {n_points}")
    if len(lines) != expected:
        problems.append(f"expected {expected} lines, got {len(lines)}")
    for line in lines:
        if len(line) != q + 1:
            problems.append(f"line {sorted(line)} has {len(line)} points, expected {q + 1}")
        if any(not 1 <= p <= n_points for p in line):
            problems.append(f"line {sorted(line)} mentions unknown points")
    points = range(1, n_points + 1)
    for p in points:
        deg = sum(p in line for line in lines)
        if deg != q + 1:
            problems.append(f"point {p} lies on {deg} lines, expected {q + 1}")
    for i, a in enumerate(lines):
        for b in lines[i + 1:]:
            if len(a & b) != 1:
                problems.append(f"lines {sorted(a)} and {sorted(b)} meet in {len(a & b)} points")
    for p in points:
        for r in range(p + 1, n_points + 1):
            count = sum(p in line and r in line for line in lines)
            if count != 1:
                problems.append(f"points {p},{r} lie on {count} common lines")
    return problems


class TestPlanes:
    @pytest.mark.parametrize("q", [0, 1, 2, 3, 5])
    def test_constructed_planes_satisfy_axioms(self, q):
        plane = projective_plane(q)
        assert plane.n_points == q * q + q + 1
        assert len(plane.lines) == plane.n_points
        assert verify_plane_axioms(plane.n_points, plane.lines, q) == []

    def test_fano_parameters(self):
        plane = projective_plane(2)
        assert plane.n_points == 7
        assert all(len(line) == 3 for line in plane.lines)

    def test_reference_fano_lines_form_a_plane(self):
        assert verify_plane_axioms(7, FANO_LINES, 2) == []

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_corrupted_planes_report_as_a_full_scan_does(self, q):
        plane = projective_plane(q)
        lines = list(plane.lines)
        n = plane.n_points
        a, b = lines[0], lines[1]
        extra = min(a - b)
        corrupted = {
            "dropped point": (n, [lines[0] - {min(lines[0])}, *lines[1:]]),
            "last point gone": (n - 1, lines),
            "duplicated line": (n, [*lines[:2], lines[0], *lines[3:]]),
            "lines meeting twice": (n, [a, (b - {max(b - a)}) | {extra}, *lines[2:]]),
        }
        for name, (n_points, bad) in corrupted.items():
            problems = verify_plane_axioms(n_points, bad, q)
            assert problems, name
            assert problems == _plane_problems_by_scan(n_points, bad, q), name

    def test_triangle(self):
        plane = projective_plane(1)
        assert plane.n_points == 3
        assert set(plane.lines) == {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}

    def test_prime_powers_rejected(self):
        for q in [4, 8, 9]:
            with pytest.raises(InvalidInputError):
                projective_plane(q)
        with pytest.raises(InvalidInputError):
            projective_plane(6)

    def test_plane_family_is_feasible(self):
        fam = plane_family(projective_plane(2))
        assert fam.s == 7
        assert fam.caps == (3,) * 7


class TestLowerBoundProfile:
    def test_single_part_all_goods(self):
        part = partition_from_sizes([4])
        fam = FeasibleFamily((4,), (1, 1, 1, 1))
        profile = lower_bound_profile(fam, part)
        assert max_surplus(profile) == 4
        _, s_pi = sigma_optimal_surplus(profile, field_of_partition(part))
        assert s_pi == 1

    def test_two_part_example_checked_through_the_engine(self):
        part = partition_from_sizes([1, 2])
        fam = FeasibleFamily((1, 2), (0b10, 0b11))
        profile = lower_bound_profile(fam, part)
        assert max_surplus(profile) == 2
        _, s_pi = sigma_optimal_surplus(profile, field_of_partition(part))
        assert s_pi == 1

    def test_fano_family_on_triples(self):
        part = partition_from_sizes([3] * 7)
        fam = plane_family(projective_plane(2))
        profile = lower_bound_profile(fam, part)
        assert max_surplus(profile) == 7
        _, s_pi = sigma_optimal_surplus(profile, field_of_partition(part))
        assert s_pi == 1

    def test_caps_must_match(self):
        part = partition_from_sizes([2, 2])
        fam = FeasibleFamily((1, 2), (0b10, 0b11))
        with pytest.raises(InvalidInputError):
            lower_bound_profile(fam, part)

    def test_solver_witness_end_to_end(self):
        for sizes in [(2, 3), (2, 2, 2), (1, 2, 3)]:
            part = partition_from_sizes(list(sizes))
            res = max_feasible_family(part)
            profile = lower_bound_profile(res.family, part)
            s_max = max_surplus(profile)
            _, s_pi = sigma_optimal_surplus(profile, field_of_partition(part))
            assert s_max / s_pi == res.s


class TestBalancedFamily:
    def test_two_goods(self, u2):
        fam = balanced_family(u2)
        assert fam.bundles == {0, 3}

    def test_four_goods(self, u4):
        fam = balanced_family(u4)
        assert len(fam) == 6
        cls = classify_family(fam)
        assert cls.is_quasi_field and not cls.is_field

    def test_sizes_are_central_binomials(self):
        from math import comb

        for m in [2, 4, 6, 8, 10]:
            fam = balanced_family(GoodsUniverse.of_size(m))
            assert len(fam) == comb(m, m // 2)
            assert is_quasi_field(fam)

    def test_ten_goods_beats_the_partition_benchmark(self):
        fam = balanced_family(GoodsUniverse.of_size(10))
        assert len(fam) == 252 < 2**8

    def test_odd_size_rejected(self):
        with pytest.raises(InvalidInputError):
            balanced_family(GoodsUniverse.of_size(3))
