import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vcbundle import (
    BundleFamily,
    GoodsUniverse,
    InvalidInputError,
    Profile,
    TieBreak,
    Valuation,
    balanced_family,
    check_bundling_equilibrium,
    deviation_gap,
    disjoint_unanimity_families,
    disjoint_unanimity_profiles,
    empirical_ratio,
    equilibrium_counterexample,
    field_of_partition,
    is_quasi_field,
    partition_from_sizes,
    project_profile,
    random_monotone_profiles,
    random_quasi_field,
    run_vc,
    sigma_optimal_surplus,
    singleton_profile,
    unanimity_profile,
    unanimity_valuation,
)
from conftest import brute_force_gap, bundle_families, small_profiles


def example_family(u4):
    return BundleFamily.of(u4, (u4.parse_bundle(s) for s in ["a", "d", "bcd", "abc", "abcd"]))


def example_profile(u4):
    return unanimity_profile(
        u4, [u4.parse_bundle("bc"), u4.parse_bundle("a"), u4.parse_bundle("d")]
    )


class TestDeviationGap:
    def test_example_gap_is_exactly_one(self, u4):
        assert deviation_gap(example_family(u4), example_profile(u4), 0) == 1

    def test_power_set_gap_is_zero(self, u4):
        fam = BundleFamily.full(u4)
        assert deviation_gap(fam, example_profile(u4), 0) == 0

    def test_quasi_field_gap_is_zero_for_all_buyers_and_modes(self, u4):
        fam = BundleFamily.of(
            u4, (u4.parse_bundle(s) for s in ["ab", "cd", "ac", "bd", "abcd"])
        )
        assert is_quasi_field(fam)
        prof = example_profile(u4)
        for buyer in range(prof.n):
            assert deviation_gap(fam, prof, buyer) == 0

    @settings(max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_random_quasi_fields_have_zero_gap_on_sweeps(self, seed):
        rng = random.Random(seed)
        universe = GoodsUniverse.of_size(rng.randint(2, 4))
        fam = random_quasi_field(universe, rng)
        for profile in disjoint_unanimity_profiles(universe):
            for buyer in range(profile.n):
                assert deviation_gap(fam, profile, buyer) == 0

    @settings(max_examples=15)
    @given(seed=st.integers(0, 10_000))
    def test_random_quasi_fields_have_zero_gap_on_dense_profiles(self, seed):
        rng = random.Random(seed)
        universe = GoodsUniverse.of_size(rng.randint(2, 4))
        fam = random_quasi_field(universe, rng)
        for profile in random_monotone_profiles(universe, n=2, count=5, seed=seed):
            for buyer in range(profile.n):
                assert deviation_gap(fam, profile, buyer) == 0

    def test_non_monotone_dense_valuation_is_rejected(self, u2):
        from vcbundle.equilibrium import max_profile_gap

        # v(ab) = 1 < v(b) = 3: the gap would depend on the tie rule.
        bad = Valuation(u2, table=(0, 2, 3, 1))
        profile = Profile(u2, (bad, unanimity_valuation(u2, u2.parse_bundle("b"))))
        fam = BundleFamily.of(u2, [u2.parse_bundle("a")])
        with pytest.raises(InvalidInputError, match="monotonicity"):
            deviation_gap(fam, profile, 0)
        with pytest.raises(InvalidInputError, match="monotonicity"):
            max_profile_gap(fam, profile)


class TestSweepHelperAgreement:
    @settings(max_examples=15)
    @given(seed=st.integers(0, 10_000))
    def test_max_profile_gap_equals_per_buyer_maximum(self, seed):
        from vcbundle.equilibrium import max_profile_gap

        rng = random.Random(seed)
        universe = GoodsUniverse.of_size(rng.randint(2, 4))
        k = rng.randint(1, 5)
        fam = BundleFamily.of(
            universe, (rng.randint(1, universe.full_mask) for _ in range(k))
        )
        profiles = list(disjoint_unanimity_profiles(universe))[:15]
        profiles += list(random_monotone_profiles(universe, n=2, count=3, seed=seed))
        for profile in profiles:
            expected = max(deviation_gap(fam, profile, buyer) for buyer in range(profile.n))
            assert max_profile_gap(fam, profile) == expected

    @settings(max_examples=100)
    @given(data=st.data())
    def test_gaps_match_the_brute_force_oracle(self, data):
        from vcbundle.equilibrium import max_profile_gap

        # On monotone valuations each tie rule's pick can be shrunk to family
        # bundles, where the projection is exact, so the one library gap must
        # equal the oracle's gap under every rule; the tie rules themselves
        # are checked in test_auction.
        profile = data.draw(small_profiles(max_m=3, max_n=3))
        fam = data.draw(bundle_families(profile.universe))
        gaps = [deviation_gap(fam, profile, buyer) for buyer in range(profile.n)]
        for name in ("adversarial", "canonical", "seller"):
            assert gaps == [brute_force_gap(fam, profile, buyer, name) for buyer in range(profile.n)]
        assert max_profile_gap(fam, profile) == max(gaps)


class TestCheckEquilibrium:
    def test_partition_fields_are_consistent(self, u4):
        fam = field_of_partition(partition_from_sizes([2, 2], u4))
        verdict = check_bundling_equilibrium(fam, disjoint_unanimity_profiles(u4))
        assert verdict.consistent
        assert verdict.profiles_checked > 0

    def test_example_family_is_violated(self, u4):
        verdict = check_bundling_equilibrium(example_family(u4), iter(()))
        assert not verdict.consistent
        assert verdict.witness_gap == 1
        masks = [v.atoms[0][0] for v in verdict.witness.profile.valuations]
        assert masks == [u4.parse_bundle("bc"), u4.parse_bundle("a"), u4.parse_bundle("d")]

    def test_quasi_field_example_is_consistent(self, u4):
        fam = BundleFamily.of(
            u4, (u4.parse_bundle(s) for s in ["ab", "cd", "ac", "bd", "abcd"])
        )
        verdict = check_bundling_equilibrium(fam, disjoint_unanimity_profiles(u4))
        assert verdict.consistent

    def test_non_monotone_profile_on_a_quasi_field_is_rejected(self, u2):
        fam = BundleFamily.full(u2)
        bad = Profile(u2, (Valuation(u2, table=(0, 2, 3, 1)),))
        with pytest.raises(InvalidInputError, match="monotonicity"):
            check_bundling_equilibrium(fam, [bad])


class TestCompleteness:
    def test_every_non_quasi_field_on_three_goods_has_a_positive_witness(self):
        import itertools

        universe = GoodsUniverse.of_size(3)
        nonempty = list(range(1, universe.full_mask + 1))
        for r in range(len(nonempty) + 1):
            for extra in itertools.combinations(nonempty, r):
                fam = BundleFamily.of(universe, extra)
                if is_quasi_field(fam):
                    continue
                cx = equilibrium_counterexample(fam)
                assert deviation_gap(fam, cx.profile, cx.deviator) >= 1

    def test_sampled_non_quasi_fields_on_five_goods(self):
        rng = random.Random(11)
        universe = GoodsUniverse.of_size(5)
        found = 0
        while found < 60:
            k = rng.randint(1, 7)
            fam = BundleFamily.of(
                universe, (rng.randint(1, universe.full_mask) for _ in range(k))
            )
            if is_quasi_field(fam):
                continue
            found += 1
            cx = equilibrium_counterexample(fam)
            assert deviation_gap(fam, cx.profile, cx.deviator) >= 1

    def test_counterexample_allocation_certifies_the_deviation(self):
        """Re-run the mechanism on each witness: the adversarial pick against
        the projections is the certificate allocation, where the deviator gets
        0, while reporting the truth gets them 1."""
        from vcbundle.sigma import enumerate_families

        for m in (1, 2, 3):
            for fam in enumerate_families(GoodsUniverse.of_size(m)):
                if is_quasi_field(fam):
                    continue
                cx = equilibrium_counterexample(fam)
                i = cx.deviator
                reported = project_profile(cx.profile, fam)
                outcome = run_vc(reported, TieBreak.adversarial_to(i), true_profile=cx.profile)
                assert outcome.allocation == cx.allocation
                assert outcome.utilities[i] == 0
                truthful = reported.replace(i, cx.profile.valuations[i])
                assert run_vc(truthful, true_profile=cx.profile).utilities[i] == 1


class TestCommunicationComplexity:
    def test_partition_field(self):
        part = partition_from_sizes([2, 1, 2])
        assert len(field_of_partition(part)) == 8

    def test_trivial(self, u2):
        assert len(BundleFamily.of(u2, [u2.full_mask])) == 2

    def test_balanced_four_goods(self, u4):
        assert len(balanced_family(u4)) == 6


class TestEmpiricalRatio:
    def test_power_set_ratio_is_one(self, u4):
        est = empirical_ratio(BundleFamily.full(u4), 4, disjoint_unanimity_profiles(u4))
        assert est.ratio == 1

    def test_trivial_partition_ratio_is_m(self, u4):
        fam = field_of_partition(partition_from_sizes([4], u4))
        est = empirical_ratio(fam, 4, disjoint_unanimity_profiles(u4))
        assert est.ratio == 4

    def test_balanced_six_goods_reaches_two(self):
        universe = GoodsUniverse.of_size(6)
        fam = balanced_family(universe)
        left = universe.parse_bundle("abc")
        right = universe.parse_bundle("def")
        profile = unanimity_profile(universe, [left, right])
        est = empirical_ratio(fam, 2, [profile])
        assert est.ratio >= 2

    def test_requires_full_bundle(self, u2):
        fam = BundleFamily.of(u2, [1, 2])
        with pytest.raises(InvalidInputError):
            empirical_ratio(fam, 2, iter(()))

    def test_scaling_invariance(self, u4):
        fam = field_of_partition(partition_from_sizes([2, 2], u4))
        base = unanimity_profile(u4, [u4.parse_bundle("ab"), u4.parse_bundle("c")])
        scaled = Profile(
            u4,
            (
                unanimity_valuation(u4, u4.parse_bundle("ab"), Fraction(7, 2)),
                unanimity_valuation(u4, u4.parse_bundle("c"), Fraction(7, 2)),
            ),
        )
        r1 = empirical_ratio(fam, 2, [base]).ratio
        r2 = empirical_ratio(fam, 2, [scaled]).ratio
        assert r1 == r2


class TestMonotonicity:
    def test_family_growth_never_hurts_surplus(self, u4):
        rng = random.Random(3)
        small = BundleFamily.of(u4, [rng.randint(1, 15) for _ in range(3)])
        big = BundleFamily(u4, small.bundles | {rng.randint(1, 15) for _ in range(3)})
        for profile in disjoint_unanimity_profiles(u4):
            _, s_small = sigma_optimal_surplus(profile, small)
            _, s_big = sigma_optimal_surplus(profile, big)
            assert s_small <= s_big


class TestRemarkTwo:
    def test_quasi_fields_with_low_singleton_ratio_contain_partitions(self):
        """On four goods, every quasi field whose singleton-profile restricted
        surplus is at least k must contain k disjoint bundles and 2^k members."""
        import itertools

        universe = GoodsUniverse.of_size(4)
        base = singleton_profile(universe)
        nonempty = list(range(1, universe.full_mask + 1))
        pool = []
        for r in range(len(nonempty) + 1):
            for extra in itertools.combinations(nonempty, r):
                fam = BundleFamily.of(universe, extra)
                if is_quasi_field(fam):
                    pool.append(fam)
        assert pool
        for fam in pool:
            _, s_sigma = sigma_optimal_surplus(base, fam)
            k = int(s_sigma)
            assert Fraction(universe.m) / s_sigma <= Fraction(universe.m, k)
            # independent check: k pairwise-disjoint nonempty members exist
            assert _max_disjoint(fam) >= k
            assert len(fam) >= 2**k

    def test_generator_counts(self):
        # Bell numbers: number of unanimity support families over m goods
        universe = GoodsUniverse.of_size(4)
        count = sum(1 for _ in disjoint_unanimity_families(universe))
        assert count == 51  # Bell(5) - 1 empty family


def _max_disjoint(family) -> int:
    members = [b for b in family.sorted_bundles if b]

    def rec(i: int, used: int) -> int:
        if i == len(members):
            return 0
        best = rec(i + 1, used)
        if members[i] & used == 0:
            best = max(best, 1 + rec(i + 1, used | members[i]))
        return best

    return rec(0, 0)
