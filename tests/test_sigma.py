import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vcbundle import (
    BundleFamily,
    GoodsUniverse,
    InvalidInputError,
    Valuation,
    classify_family,
    deviation_gap,
    equilibrium_counterexample,
    field_of_partition,
    is_quasi_field,
    partition_from_sizes,
    partition_of_family,
    project_valuation,
    quasi_field_closure,
    sigma_optimal_surplus,
    unanimity_profile,
    unanimity_valuation,
    zero_valuation,
)
from vcbundle import sigma
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
    @settings(max_examples=30)
    def test_partition_fields_are_fields(self, data):
        m = data.draw(st.integers(1, 6))
        universe = GoodsUniverse.of_size(m)
        cuts = data.draw(st.sets(st.integers(1, m - 1)) if m > 1 else st.just(set()))
        bounds = [0] + sorted(cuts) + [m]
        sizes = [b - a for a, b in zip(bounds, bounds[1:]) if b > a]
        part = partition_from_sizes(sizes, universe)
        fam = field_of_partition(part)
        cls = classify_family(fam)
        assert cls.is_quasi_field and cls.is_field
        assert len(part.unions) == 1 << part.k
        for meta, union in enumerate(part.unions):
            expected = 0
            for j, p in enumerate(part.parts):
                if meta >> j & 1:
                    expected |= p
            assert union == expected

    def test_partition_recovery(self, u4):
        part = partition_from_sizes([1, 3], u4)
        fam = field_of_partition(part)
        assert partition_of_family(fam) == part
        # balanced-style family is not a partition field
        fam2 = family_of(u4, "ab", "cd", "ac", "bd", "abcd")
        assert partition_of_family(fam2) is None

    def test_partition_recovery_matches_the_set_partition_definition(self):
        # Every family on <= 4 goods, quasi field or not, against the fields
        # of all Bell(m) set partitions, each built by its own loop.
        for m in range(1, 5):
            universe = GoodsUniverse.of_size(m)
            fields = {}
            for blocks in itertools.product(range(m), repeat=m):
                # Restricted growth strings: each good joins an open block or
                # opens the next one, so the parts ascend by lowest good.
                if any(b > max(blocks[:g], default=-1) + 1 for g, b in enumerate(blocks)):
                    continue
                parts = tuple(
                    sum(1 << g for g in range(m) if blocks[g] == j) for j in range(max(blocks) + 1)
                )
                members = frozenset(
                    sum(p for j, p in enumerate(parts) if meta >> j & 1) for meta in range(1 << len(parts))
                )
                fields[members] = parts
            assert len(fields) == [1, 2, 5, 15][m - 1]
            for fam in enumerate_families(universe):
                got = partition_of_family(fam)
                assert (None if got is None else got.parts) == fields.get(fam.bundles), sorted(fam.bundles)


def _assert_same_valuation(built, canonical):
    # repr tells 2 from Fraction(2, 1), which == and hash do not.
    assert built == canonical and hash(built) == hash(canonical)
    assert repr(built.atoms) == repr(canonical.atoms)


_WEIGHTS = st.one_of(
    st.integers(0, 6),
    st.builds(Fraction, st.integers(0, 12), st.integers(1, 4)),
)


class TestLibraryBuiltValuations:
    """Valuations the library builds itself equal ``Valuation.from_atoms``
    of the same atoms, so equality with a projection is decided as before."""

    @given(data=st.data())
    @settings(max_examples=150)
    def test_unanimity_and_zero(self, data):
        universe = GoodsUniverse.of_size(data.draw(st.integers(1, 6)))
        bundle = data.draw(st.integers(0, universe.full_mask))
        weight = data.draw(st.one_of(_WEIGHTS, _WEIGHTS.map(str)))
        atoms = () if bundle == 0 or Fraction(weight) == 0 else ((bundle, weight),)
        _assert_same_valuation(unanimity_valuation(universe, bundle, weight), Valuation.from_atoms(universe, atoms))
        unit = ((bundle, 1),) if bundle else ()
        _assert_same_valuation(unanimity_valuation(universe, bundle), Valuation.from_atoms(universe, unit))
        _assert_same_valuation(zero_valuation(universe), Valuation.from_atoms(universe, ()))

    @given(data=st.data())
    @settings(max_examples=200)
    def test_single_atom_projection(self, data):
        universe = GoodsUniverse.of_size(data.draw(st.integers(1, 5)))
        full = universe.full_mask
        atom = data.draw(st.integers(1, full))
        weight = data.draw(_WEIGHTS.filter(bool))
        dead = data.draw(st.lists(st.sampled_from([(0, 3), (atom, 0), (full, 0)]), max_size=2))
        v = Valuation.from_atoms(universe, [(atom, weight)] + dead)
        members = set(data.draw(st.lists(st.integers(1, full), max_size=8)))
        if data.draw(st.booleans()):
            members.add(full)
        else:
            members = {c for c in members if c & atom != atom}
        family = BundleFamily.of(universe, members)
        above = [c for c in family.bundles if c & atom == atom]
        minimal = [c for c in above if not any(d != c and d & c == d for d in above)]
        expected = Valuation.from_atoms(universe, [(c, weight) for c in minimal])
        _assert_same_valuation(project_valuation(v, family), expected)


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
    @settings(max_examples=40)
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
        v = Valuation.from_atoms(u4, [(u4.parse_bundle("a"), 1), (u4.parse_bundle("c"), 2)])
        proj = project_valuation(v, fam)
        assert proj.value(u4.parse_bundle("ab")) == 1
        assert proj.value(u4.parse_bundle("abc")) == 1
        assert proj.value(u4.full_mask) == 3

    @given(data=st.data())
    @settings(max_examples=60)
    def test_tables_neither_monotone_nor_normalised(self, data):
        # v^Σ(B) = max(0, max{v(C) : C ∈ Σ, C ⊆ B}), whatever the table.
        m = data.draw(st.integers(1, 4))
        universe = GoodsUniverse.of_size(m)
        size = universe.full_mask + 1
        table = data.draw(st.lists(st.integers(-4, 6), min_size=size, max_size=size))
        fam = data.draw(bundle_families(universe))
        proj = project_valuation(Valuation(universe, table=tuple(table)), fam)
        for mask in universe.all_bundles():
            inside = [table[c] for c in fam.bundles if c & mask == c]
            assert proj.value(mask) == max([0] + inside)


@st.composite
def family_and_atom(draw):
    """(family, atom) over m <= 6 goods.  Besides free draws, make atoms that
    no member contains, and families whose supersets of the atom are
    K = atom+x, N = atom+x+w and M = atom+y with x < w < y: M is minimal with
    a larger mask than the non-minimal N, so popcount order is not mask
    order and minimality cannot be read off a bundle's position."""
    m = draw(st.integers(1, 6))
    full = (1 << m) - 1
    extras = draw(st.sets(st.integers(0, full), max_size=12))
    shape = draw(st.sampled_from(["free", "uncovered", "crossed"] if m >= 4 else ["free", "uncovered"]))
    if shape == "crossed":
        x, w, y = sorted(draw(st.sets(st.integers(0, m - 1), min_size=3, max_size=3)))
        outside = full & ~(1 << x | 1 << w | 1 << y)
        atom = draw(st.integers(1, full).map(lambda a: a & outside).filter(bool))
        extras = {c for c in extras if c & atom != atom}
        extras |= {atom | 1 << x, atom | 1 << x | 1 << w, atom | 1 << y}
    else:
        atom = draw(st.integers(1, full))
        if shape == "uncovered":
            extras = {c for c in extras if c & atom != atom}
    return BundleFamily.of(GoodsUniverse.of_size(m), extras), atom, shape


class TestFamilyStructure:
    @given(case=family_and_atom())
    @settings(max_examples=200)
    def test_minimal_supersets_match_the_quadratic_definition(self, case):
        fam, atom, shape = case
        sups = [c for c in fam.bundles if c & atom == atom]
        expected = sorted(c for c in sups if not any(o != c and o & c == o for o in sups))
        got = sigma._minimal_supersets(atom, fam.sorted_bundles)
        assert got == expected
        if shape == "uncovered":
            assert got == []
        if shape == "crossed":
            assert max(got) > min(set(sups) - set(got))

    def test_partition_recovery_runs_once_per_family(self, monkeypatch):
        calls = []
        recover = sigma._recover_partition

        def counting(family):
            calls.append(family)
            return recover(family)

        monkeypatch.setattr(sigma, "_recover_partition", counting)
        universe = GoodsUniverse.of_size(5)
        field = field_of_partition(partition_from_sizes([2, 1, 2], universe))
        pairs = family_of(universe, "ab", "cde", "ac", "bde", "abcde")
        profile = unanimity_profile(universe, (universe.parse_bundle("ab"), universe.parse_bundle("c")))
        for fam in (field, pairs):
            calls.clear()
            fam.sorted_bundles  # the family's own cached field, filled before the snapshot
            keys = set(vars(fam))
            first = partition_of_family(fam)
            for _ in range(3):
                assert partition_of_family(fam) == first
                classify_family(fam)
                sigma_optimal_surplus(profile, fam)
            assert calls == [fam]
            twin = BundleFamily(universe, frozenset(fam.bundles))
            assert twin is not fam and partition_of_family(twin) == first
            assert set(vars(fam)) == keys
        assert partition_of_family(field) == partition_from_sizes([2, 1, 2], universe)
        assert partition_of_family(pairs) is None

        twin = BundleFamily(universe, frozenset(pairs.bundles))
        alive = weakref.ref(pairs)
        calls.clear()
        del pairs, fam
        gc.collect()
        assert alive() is None
        assert partition_of_family(twin) is None
        assert calls == [twin]  # the entry went with its family


    def test_partition_recovery_is_shared_by_equal_universes(self, monkeypatch):
        calls = []
        recover = sigma._recover_partition

        def counting(family):
            calls.append(family)
            return recover(family)

        monkeypatch.setattr(sigma, "_recover_partition", counting)
        universe, other = GoodsUniverse.of_size(5), GoodsUniverse.of_size(5)
        field = field_of_partition(partition_from_sizes([2, 1, 2], universe))
        pairs = family_of(universe, "ab", "cde", "ac", "bde", "abcde")
        for fam in (field, pairs):
            calls.clear()
            first = partition_of_family(fam)
            twin = BundleFamily(other, frozenset(fam.bundles))
            assert twin.universe is not fam.universe and twin == fam and hash(twin) == hash(fam)
            assert partition_of_family(twin) == first
            assert calls == [fam]


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
    @settings(max_examples=40)
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
