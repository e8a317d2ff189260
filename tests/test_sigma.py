import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from vcbundle import (
    BundleFamily,
    GoodsUniverse,
    InvalidInputError,
    classify_family,
    deviation_gap,
    equilibrium_counterexample,
    field_of_partition,
    is_quasi_field,
    partition_from_sizes,
    partition_of_family,
    project_valuation,
    quasi_field_closure,
    unanimity_valuation,
)
from vcbundle.sigma import enumerate_families
from conftest import bundle_families, dense_valuations


def family_of(universe, *bundle_strings):
    return BundleFamily.of(universe, (universe.parse_bundle(s) for s in bundle_strings))


class TestClassification:
    def test_example_family_is_not_a_quasi_field(self, u4):
        fam = family_of(u4, "a", "d", "bcd", "abc", "abcd")
        cls = classify_family(fam)
        assert not cls.is_quasi_field and not cls.is_field
        # complements all present, so the first failure is the disjoint pair (a, d)
        assert cls.missing_complement is None
        assert cls.missing_union == (u4.parse_bundle("a"), u4.parse_bundle("d"))

    def test_quasi_field_that_is_not_a_field(self, u4):
        fam = family_of(u4, "ab", "cd", "ac", "bd", "abcd")
        cls = classify_family(fam)
        assert cls.is_quasi_field and not cls.is_field
        assert cls.missing_complement is None and cls.missing_union is None

    def test_power_set_is_a_field(self, u4):
        cls = classify_family(BundleFamily.full(u4))
        assert cls.is_quasi_field and cls.is_field

    def test_missing_complement_witness_is_minimal(self, u4):
        fam = family_of(u4, "a", "b", "abcd")  # bcd and acd both missing; a fails first
        cls = classify_family(fam)
        assert cls.missing_complement == u4.parse_bundle("a")
        # without the full bundle, the empty bundle is already the first failure
        cls0 = classify_family(family_of(u4, "a", "b"))
        assert cls0.missing_complement == 0

    def test_family_must_contain_empty(self, u4):
        with pytest.raises(InvalidInputError):
            BundleFamily(u4, frozenset({1}))


class TestFieldOfPartition:
    def test_two_parts(self, u4):
        fam = field_of_partition(partition_from_sizes([2, 2], u4))
        assert fam.bundles == {0, u4.parse_bundle("ab"), u4.parse_bundle("cd"), u4.full_mask}

    def test_trivial_partition(self, u4):
        fam = field_of_partition(partition_from_sizes([4], u4))
        assert fam.bundles == {0, u4.full_mask}

    def test_size_is_two_to_the_k(self):
        part = partition_from_sizes([2, 1, 3])
        assert len(field_of_partition(part)) == 8

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_partition_fields_are_fields(self, data):
        m = data.draw(st.integers(1, 6))
        universe = GoodsUniverse.of_size(m)
        cuts = data.draw(st.sets(st.integers(1, m - 1)) if m > 1 else st.just(set()))
        bounds = [0] + sorted(cuts) + [m]
        sizes = [b - a for a, b in zip(bounds, bounds[1:]) if b > a]
        fam = field_of_partition(partition_from_sizes(sizes, universe))
        cls = classify_family(fam)
        assert cls.is_quasi_field and cls.is_field

    def test_partition_recovery(self, u4):
        part = partition_from_sizes([1, 3], u4)
        fam = field_of_partition(part)
        assert partition_of_family(fam) == part
        # balanced-style family is not a partition field
        fam2 = family_of(u4, "ab", "cd", "ac", "bd", "abcd")
        assert partition_of_family(fam2) is None


class TestProjection:
    def test_projection_in_example_family(self, u4):
        fam = family_of(u4, "a", "d", "bcd", "abc", "abcd")
        v = unanimity_valuation(u4, u4.parse_bundle("bc"))
        proj = project_valuation(v, fam)
        ones = {u4.parse_bundle("bcd"), u4.parse_bundle("abc"), u4.full_mask}
        for mask in u4.all_bundles():
            assert proj.value(mask) == (1 if mask in ones else 0)

    def test_family_valuation_is_fixed(self, u4):
        fam = family_of(u4, "a", "d", "bcd", "abc", "abcd")
        v = unanimity_valuation(u4, u4.parse_bundle("a"))
        proj = project_valuation(v, fam)
        for mask in u4.all_bundles():
            assert proj.value(mask) == v.value(mask)

    def test_trivial_family(self, u4):
        fam = BundleFamily.of(u4, [u4.full_mask])
        v = unanimity_valuation(u4, u4.parse_bundle("b"), 7)
        proj = project_valuation(v, fam)
        assert proj.value(u4.full_mask) == 7
        for mask in range(u4.full_mask):
            assert proj.value(mask) == 0

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_idempotent_dominated_monotone(self, data):
        m = data.draw(st.integers(1, 4))
        universe = GoodsUniverse.of_size(m)
        v = data.draw(dense_valuations(universe))
        fam1 = data.draw(bundle_families(universe))
        fam2 = BundleFamily(universe, fam1.bundles | data.draw(bundle_families(universe)).bundles)
        p1 = project_valuation(v, fam1)
        p11 = project_valuation(p1, fam1)
        p2 = project_valuation(v, fam2)
        for mask in universe.all_bundles():
            assert p11.value(mask) == p1.value(mask)  # idempotent
            assert p1.value(mask) <= v.value(mask)  # dominated
            assert p1.value(mask) <= p2.value(mask)  # monotone in the family

    def test_multi_atom_projection_goes_dense(self, u4):
        fam = family_of(u4, "ab", "cd", "abcd")
        from vcbundle import Valuation

        v = Valuation.from_atoms(u4, [(u4.parse_bundle("a"), 1), (u4.parse_bundle("c"), 2)])
        proj = project_valuation(v, fam)
        assert proj.value(u4.parse_bundle("ab")) == 1
        assert proj.value(u4.parse_bundle("abc")) == 1
        assert proj.value(u4.full_mask) == 3


class TestClosure:
    def test_hand_closed_example(self, u2):
        fam = BundleFamily.of(u2, [1])
        closed = quasi_field_closure(fam)
        assert closed.bundles == {0, 1, 2, 3}

    def test_fixed_point(self, u4):
        fam = family_of(u4, "ab", "cd", "ac", "bd", "abcd")
        assert quasi_field_closure(fam).bundles == fam.bundles

    def test_empty_family_closes_to_trivial(self, u4):
        fam = BundleFamily.of(u4, [])
        assert quasi_field_closure(fam).bundles == {0, u4.full_mask}

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_closure_is_a_quasi_field(self, data):
        m = data.draw(st.integers(1, 5))
        universe = GoodsUniverse.of_size(m)
        fam = data.draw(bundle_families(universe))
        closed = quasi_field_closure(fam)
        assert fam.bundles <= closed.bundles
        assert is_quasi_field(closed)


class TestSmallUniverseCoincidence:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_quasi_fields_coincide_with_fields(self, m):
        universe = GoodsUniverse.of_size(m)
        nonempty = range(1, universe.full_mask + 1)
        for r in range(len(list(nonempty)) + 1):
            for extra in itertools.combinations(nonempty, r):
                cls = classify_family(BundleFamily.of(universe, extra))
                if cls.is_quasi_field:
                    assert cls.is_field

    def test_field_status_matches_pairwise_closure_up_to_four_goods(self):
        # From m = 4 on, some quasi fields are not fields, e.g. {ab, cd, ac,
        # bd} with their complements and the empty and full bundles.
        quasi, fields = [], []
        for m in range(1, 5):
            counts = [0, 0]
            for fam in enumerate_families(GoodsUniverse.of_size(m)):
                cls = classify_family(fam)
                if cls.is_quasi_field:
                    members = fam.bundles
                    closed = all(b | c in members and b & c in members for b in members for c in members)
                    assert cls.is_field == closed, sorted(members)
                    counts[0] += 1
                    counts[1] += closed
            quasi.append(counts[0])
            fields.append(counts[1])
        assert quasi == [1, 2, 5, 19]
        assert fields == [1, 2, 5, 15]


class TestCounterexample:
    def test_example_family_witness(self, u4):
        fam = family_of(u4, "a", "d", "bcd", "abc", "abcd")
        cx = equilibrium_counterexample(fam)
        masks = [v.atoms[0][0] for v in cx.profile.valuations]
        assert masks == [u4.parse_bundle("bc"), u4.parse_bundle("a"), u4.parse_bundle("d")]
        assert cx.deviator == 0
        assert cx.allocation.buyer_bundles == (0, u4.parse_bundle("a"), u4.parse_bundle("d"))
        assert cx.allocation.seller_bundle == u4.parse_bundle("bc")

    def test_missing_complement_gap_is_one(self, u2):
        fam = BundleFamily.of(u2, [1, 3])  # complement of a is missing
        cx = equilibrium_counterexample(fam)
        masks = [v.atoms[0][0] for v in cx.profile.valuations]
        assert masks == [2, 1]  # (w_b, w_a)
        assert cx.deviator == 0
        assert deviation_gap(fam, cx.profile, cx.deviator) == 1

    def test_quasi_field_rejected(self, u4):
        fam = field_of_partition(partition_from_sizes([2, 2], u4))
        with pytest.raises(InvalidInputError):
            equilibrium_counterexample(fam)


class TestRandomQuasiFields:
    def test_seeded_pool_is_closed(self):
        from vcbundle import random_quasi_field

        rng = random.Random(7)
        for _ in range(25):
            universe = GoodsUniverse.of_size(rng.randint(2, 6))
            fam = random_quasi_field(universe, rng)
            assert is_quasi_field(fam)
