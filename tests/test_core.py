import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from vcbundle import (
    Allocation,
    BundleFamily,
    GoodsUniverse,
    InvalidInputError,
    Partition,
    Profile,
    Valuation,
    max_surplus,
    partition_from_sizes,
    project_valuation,
    unanimity_valuation,
    validate_valuation,
    zero_valuation,
)
from conftest import brute_force_packing, dense_valuations, sparse_valuations


def _parses(text, labels) -> int:
    """How many label sequences spell ``text``."""
    ways = [1] + [0] * len(text)
    for end in range(1, len(text) + 1):
        ways[end] = sum(ways[end - len(lab)] for lab in labels if text.endswith(lab, 0, end))
    return ways[-1]


class TestUniverse:
    def test_labels_unique(self):
        with pytest.raises(InvalidInputError):
            GoodsUniverse(("a", "a"))

    def test_needs_a_good(self):
        with pytest.raises(InvalidInputError):
            GoodsUniverse(())

    @pytest.mark.parametrize("labels, message", [
        ((1, 2), "good labels must be nonempty strings"),
        (("a", 2), "good labels must be nonempty strings"),
        ((None, "a"), "good labels must be nonempty strings"),
        (("a", ""), "good labels must be nonempty strings"),
        ((1, 1), "good labels must be distinct"),
        (("", ""), "good labels must be distinct"),
    ])
    def test_labels_must_be_nonempty_strings_checked_after_distinct(self, labels, message):
        with pytest.raises(InvalidInputError) as exc:
            GoodsUniverse(labels)
        assert str(exc.value) == message

    def test_parse_and_format_roundtrip(self, u4):
        for mask in u4.all_bundles():
            assert u4.parse_bundle(u4.format_bundle(mask)) == mask

    @given(data=st.data())
    @settings(max_examples=200)
    def test_format_then_parse_is_the_identity(self, data):
        universe = data.draw(st.sampled_from([
            GoodsUniverse(("b", "a", "c", "d", "e")),
            GoodsUniverse.of_size(30),
            GoodsUniverse(("a", "ab", "bb")),
        ]))
        mask = data.draw(st.integers(0, universe.full_mask))
        text = universe.format_bundle(mask)
        assert text == "".join(lab for i, lab in enumerate(universe.labels) if mask >> i & 1)
        assert universe.parse_bundle(text) == mask
        bad = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=universe.full_mask + 1)))
        with pytest.raises(InvalidInputError) as checked:
            universe.check_bundle(bad)
        with pytest.raises(InvalidInputError) as formatted:
            universe.format_bundle(bad)
        assert str(formatted.value) == str(checked.value) == f"bundle {bad:#x} outside universe of {universe.m} goods"

    def test_derived_fields_stay_out_of_eq_hash_and_repr(self):
        u, twin = GoodsUniverse(("a", "bc")), GoodsUniverse(("a", "bc"))
        assert (u.full_mask, u._bits, u._label_lengths) == (0b11, {"a": 1, "bc": 2}, (2, 1))
        assert repr(u) == "GoodsUniverse(labels=('a', 'bc'))"
        object.__setattr__(twin, "full_mask", 0)
        object.__setattr__(twin, "_bits", {})
        assert u == twin and hash(u) == hash(twin) == hash(GoodsUniverse(("a", "bc")))

    def test_parse_rejects_garbage(self, u4):
        with pytest.raises(InvalidInputError):
            u4.parse_bundle("ax")

    def test_parse_rejects_repeated_label(self, u4):
        for text in ("aa", "aba", "abcdd"):
            with pytest.raises(InvalidInputError, match="'[ad]' twice"):
                u4.parse_bundle(text)
        wide = GoodsUniverse.of_size(30)
        with pytest.raises(InvalidInputError, match="'g27' twice"):
            wide.parse_bundle("g27g3g27")

    @given(data=st.data())
    @settings(max_examples=300)
    def test_single_character_labels_parse_as_longest_match(self, data):
        # Universes of one-character labels; the text mixes labels, repeats
        # and characters outside the universe.  The parse, or its error
        # message, equals a longest-match parse written out here.
        alphabet = "abcdxyz0 \u00e9\u00df"
        labels = data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=8, unique=True))
        universe = GoodsUniverse(tuple(labels))
        text = "".join(data.draw(st.lists(st.sampled_from(alphabet), max_size=9)))

        def longest_match():
            mask = pos = 0
            while pos < len(text):
                matches = [lab for lab in labels if text.startswith(lab, pos)]
                if not matches:
                    return f"cannot parse bundle string {text!r}"
                label = max(matches, key=len)
                bit = 1 << labels.index(label)
                if mask & bit:
                    return f"bundle string {text!r} names {label!r} twice"
                mask |= bit
                pos += len(label)
            return mask

        try:
            got = universe.parse_bundle(text)
        except InvalidInputError as exc:
            got = str(exc)
        assert got == longest_match()

    def test_parse_backs_up_where_the_longest_match_dead_ends(self):
        u = GoodsUniverse(("a", "ab", "bb"))
        assert u.parse_bundle("abb") == u.parse_bundle("bba") == 0b101
        assert u.parse_bundle("abbab") == 0b111
        with pytest.raises(InvalidInputError, match="^bundle string 'abba' names 'a' twice$"):
            u.parse_bundle("abba")
        with pytest.raises(InvalidInputError, match="^bundle string 'abbbb' names 'bb' twice$"):
            u.parse_bundle("abbbb")
        with pytest.raises(InvalidInputError, match="^bundle string 'abab' names 'ab' twice$"):
            u.parse_bundle("abab")
        with pytest.raises(InvalidInputError, match="^cannot parse bundle string 'bab'$"):
            u.parse_bundle("bab")

    @given(data=st.data())
    @settings(max_examples=300)
    def test_multi_character_labels_parse_as_their_one_spelling(self, data):
        # Uniquely decodable labels over a two-letter alphabet.  Text spelled
        # by distinct labels parses to their mask.  Any other text keeps the
        # longest-match parse, or its message, wherever that parse finishes
        # or no label sequence spells the text; otherwise the one spelling
        # decides.
        word = st.text("01", min_size=1, max_size=4)
        labels = data.draw(st.lists(word, min_size=2, max_size=6, unique=True))
        try:
            universe = GoodsUniverse(tuple(labels))
        except InvalidInputError:
            assume(False)
        picked = data.draw(st.permutations(range(len(labels))))[: data.draw(st.integers(0, len(labels)))]
        assert universe.parse_bundle("".join(labels[i] for i in picked)) == sum(1 << i for i in picked)
        text = data.draw(st.text("01", max_size=10))

        def longest_match():
            mask = pos = 0
            while pos < len(text):
                matches = [lab for lab in labels if text.startswith(lab, pos)]
                if not matches:
                    return f"cannot parse bundle string {text!r}", False
                label = max(matches, key=len)
                bit = 1 << labels.index(label)
                if mask & bit:
                    return f"bundle string {text!r} names {label!r} twice", False
                mask |= bit
                pos += len(label)
            return mask, True

        try:
            got = universe.parse_bundle(text)
        except InvalidInputError as exc:
            got = str(exc)
        def spelling(pos=0):
            if pos == len(text):
                return []
            for lab in labels:
                if text.startswith(lab, pos) and (rest := spelling(pos + len(lab))) is not None:
                    return [lab, *rest]
            return None

        want, finished = longest_match()
        spelled = spelling()
        if not finished and spelled is not None:
            twice = [lab for k, lab in enumerate(spelled) if lab in spelled[:k]]
            want = f"bundle string {text!r} names {twice[0]!r} twice" if twice else sum(
                1 << labels.index(lab) for lab in spelled)
        assert got == want

    def test_bundle_names_are_the_canonical_strings(self):
        u = GoodsUniverse(("b", "a", "c", "d"))
        assert u.bundle_names == {u.format_bundle(mask): mask for mask in u.all_bundles()}
        assert GoodsUniverse(("a", "b", "cd")).bundle_names is None
        assert GoodsUniverse.of_size(15).bundle_names is None

    @pytest.mark.parametrize("labels, text", [
        (("a", "b", "ab"), "ab"),
        (("a", "aa"), "aa"),
        (("0", "01", "10"), "010"),
        (("1", "011", "01110", "1110", "10011"), "01110011"),
    ])
    def test_labels_with_two_parses_are_rejected(self, labels, text):
        assert _parses(text, labels) >= 2
        with pytest.raises(InvalidInputError, match=f"{text!r} has two parses"):
            GoodsUniverse(labels)

    def test_uniquely_decodable_labels_are_accepted(self):
        # Neither prefix-free nor suffix-free, yet uniquely decodable: the
        # dangling-suffix search runs and finds no second parse.
        assert GoodsUniverse(("0", "01", "110")).m == 3
        assert GoodsUniverse(("a", "ab", "bb")).m == 3
        # Labels that each begin with a character found nowhere else in
        # them need no search.
        assert GoodsUniverse(("xa", "xab", "yb")).m == 3
        assert GoodsUniverse.of_size(100_000).labels[-1] == "g99999"

    @given(labels=st.lists(st.text("ab", min_size=1, max_size=3), min_size=2, max_size=5, unique=True))
    @settings(max_examples=150)
    def test_decodability_against_counted_parses(self, labels):
        try:
            GoodsUniverse(tuple(labels))
        except InvalidInputError as exc:
            text = re.search(r"'(\w+)' has two parses", str(exc)).group(1)
            assert _parses(text, labels) >= 2
        else:
            for length in range(1, 9):
                for chars in itertools.product("ab", repeat=length):
                    assert _parses("".join(chars), labels) < 2

    def test_large_universe_labels(self):
        u = GoodsUniverse.of_size(30)
        assert u.labels[26] == "g26"

    def test_equality_and_hash_follow_the_labels(self):
        u, twin = GoodsUniverse(("a", "b")), GoodsUniverse(("a", "b"))
        assert u is not twin
        assert u == twin and not u != twin and hash(u) == hash(twin)
        assert {u: 1}[twin] == 1
        assert u == u and not u != u
        for other in (GoodsUniverse(("b", "a")), GoodsUniverse(("a",)), GoodsUniverse(("a", "b", "c"))):
            assert u != other and not u == other
        for other in (("a", "b"), "ab", 2, None):
            assert u != other and not u == other and other != u


class TestUnanimity:
    def test_superset_gets_weight(self, u4):
        v = unanimity_valuation(u4, u4.parse_bundle("ab"))
        assert v.value(u4.parse_bundle("ab")) == 1
        assert v.value(u4.parse_bundle("abc")) == 1
        assert v.value(u4.full_mask) == 1
        assert v.value(u4.parse_bundle("a")) == 0
        assert v.value(u4.parse_bundle("cd")) == 0

    def test_empty_bundle_gives_zero_valuation(self, u4):
        v = unanimity_valuation(u4, 0, 5)
        assert all(v.value(b) == 0 for b in u4.all_bundles())

    def test_scaled(self, u4):
        v = unanimity_valuation(u4, u4.parse_bundle("a"), 2)
        assert v.value(u4.parse_bundle("a")) == 2
        assert v.value(0) == 0
        assert v.value(u4.parse_bundle("bcd")) == 0

    def test_negative_weight_rejected(self, u4):
        with pytest.raises(InvalidInputError):
            unanimity_valuation(u4, 1, -1)


class TestEval:
    def test_unanimity_at_superset(self, u4):
        v = unanimity_valuation(u4, u4.parse_bundle("bc"))
        assert v.value(u4.parse_bundle("bcd")) == 1

    def test_anything_at_empty(self, u4):
        v = unanimity_valuation(u4, u4.parse_bundle("bd"), 3)
        assert v.value(0) == 0
        assert zero_valuation(u4).value(u4.full_mask) == 0

    def test_two_disjoint_atoms_add(self, u2):
        # brute force over sub-collections agrees and gives 3
        atoms = ((1, 1), (2, 2))
        v = Valuation.from_atoms(u2, atoms)
        assert brute_force_packing(atoms, 3) == 3
        assert v.value(3) == 3

    def test_disjoint_atoms_past_the_atom_cap_add(self):
        # Pairwise-disjoint atoms need no packing instance, so the atom cap
        # does not apply to them.
        u = GoodsUniverse.of_size(70)
        v = Valuation.from_atoms(u, [(1 << g, 1) for g in range(70)])
        assert v.value(u.full_mask) == 70
        assert v.value(u.full_mask ^ 1) == 69

    @given(data=st.data())
    @settings(max_examples=60)
    def test_packing_matches_brute_force(self, data):
        m = data.draw(st.integers(1, 4))
        universe = GoodsUniverse.of_size(m)
        v = data.draw(sparse_valuations(universe))
        for mask in universe.all_bundles():
            assert v.value(mask) == brute_force_packing(v.atoms, mask)

    def test_packing_matches_brute_force_on_seeded_larger_sets(self):
        # 6-12 overlapping atoms, where the packing memo is reused across
        # branches; errors in its key show on a fraction of a percent of sets.
        rng = random.Random(2024)
        for _ in range(1000):
            universe = GoodsUniverse.of_size(rng.randint(5, 8))
            atoms = [
                (sum(1 << g for g in rng.sample(range(universe.m), rng.randint(1, 3))), rng.randint(1, 3))
                for _ in range(rng.randint(6, 12))
            ]
            v = Valuation.from_atoms(universe, atoms)
            for mask in (universe.full_mask, rng.randint(0, universe.full_mask)):
                assert v.value(mask) == brute_force_packing(atoms, mask)


class TestValidation:
    def test_monotonicity_violation_reported_with_witness(self, u2):
        # v(a)=1 but v(ab)=0
        v = Valuation.dense(u2, [0, 1, 0, 0])
        report = validate_valuation(v)
        assert not report.ok
        assert report.witness == (1, 3)

    def test_unanimity_and_zero_pass(self, u4):
        assert validate_valuation(unanimity_valuation(u4, 5, 2)).ok
        dense_zero = Valuation.dense(u4, [0] * 16)
        assert validate_valuation(dense_zero).ok

    def test_normalization(self, u2):
        v = Valuation.dense(u2, [1, 1, 1, 1])
        report = validate_valuation(v)
        assert not report.ok and "normalization" in report.reason

    def test_negative_value(self, u2):
        v = Valuation.dense(u2, [0, -1, 0, 0])
        report = validate_valuation(v)
        assert not report.ok

    @given(data=st.data())
    @settings(max_examples=40)
    def test_accepted_valuations_are_monotone(self, data):
        m = data.draw(st.integers(1, 4))
        universe = GoodsUniverse.of_size(m)
        v = data.draw(dense_valuations(universe))
        assert validate_valuation(v).ok
        for mask in universe.all_bundles():
            for i in range(m):
                if not mask & (1 << i):
                    assert v.value(mask) <= v.value(mask | (1 << i))

    def test_validating_twice_around_a_dense_solve(self, u4):
        # The monotonicity check is kept with the valuation: a dense solve
        # reads it in between, and the second report equals the first.
        counts = Valuation.dense(u4, [bin(s).count("1") for s in range(16)])
        dip = Valuation.dense(u4, [0, 2, 1, 1, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4])
        for v, expected in ((counts, (True, "", None)), (dip, (False, "monotonicity violated", (1, 3)))):
            reports = []
            for _ in range(2):
                report = validate_valuation(v)
                reports.append((report.ok, report.reason, report.witness))
                surplus = max_surplus(Profile(u4, (counts, v)))
                assert surplus == max(counts.value(s) + v.value(15 ^ s) for s in range(16))
            assert reports == [expected, expected]

    @given(data=st.data())
    @settings(max_examples=200)
    def test_report_matches_a_bundle_by_bundle_scan(self, data):
        # Monotone tables with a few entries moved, some of them below zero
        # or at the empty bundle: the report (verdict, reason and first
        # witness in bitmask order) equals a plain scan's.  On the strictly
        # increasing 3 * |T| table, one raised entry breaks only the steps
        # just above it.
        m = data.draw(st.integers(1, 7))
        universe = GoodsUniverse.of_size(m)
        if data.draw(st.booleans()):
            table = list(data.draw(dense_valuations(universe)).table)
        else:
            table = [3 * bin(mask).count("1") for mask in universe.all_bundles()]
        for _ in range(data.draw(st.integers(0, 3))):
            table[data.draw(st.integers(0, universe.full_mask))] += data.draw(st.sampled_from([-4, -1, 1, 4]))
        if data.draw(st.booleans()):
            table[data.draw(st.integers(1, universe.full_mask))] += Fraction(data.draw(st.integers(-2, 2)), 3)
        if table[0] != 0:
            expected = (False, "normalization: v(empty) != 0", (0, 0))
        elif any(x < 0 for x in table):
            first = next(mask for mask, x in enumerate(table) if x < 0)
            expected = (False, "negative value", (first, first))
        else:
            pairs = [
                (mask, mask | 1 << i)
                for mask in range(len(table))
                for i in range(m)
                if not mask >> i & 1 and table[mask] > table[mask | 1 << i]
            ]
            expected = (False, "monotonicity violated", pairs[0]) if pairs else (True, "", None)
        report = validate_valuation(Valuation(universe, table=tuple(table)))
        assert (report.ok, report.reason, report.witness) == expected

class TestRepresentations:
    @given(data=st.data())
    @settings(max_examples=50)
    def test_sparse_to_dense_agrees_everywhere(self, data):
        m = data.draw(st.integers(1, 6))
        universe = GoodsUniverse.of_size(m)
        v = data.draw(sparse_valuations(universe))
        dense = v.to_dense()
        for mask in universe.all_bundles():
            assert dense.value(mask) == v.value(mask)

    def test_agreement_at_twelve_goods(self):
        universe = GoodsUniverse.of_size(12)
        atoms = [(0b000000000111, 2), (0b000000111000, 3), (0b111000000000, 1), (0b000000000110, 4)]
        v = Valuation.from_atoms(universe, atoms)
        dense = v.to_dense()
        for mask in universe.all_bundles():
            assert dense.table[mask] == v.value(mask)

    def test_exactly_one_representation(self, u2):
        with pytest.raises(InvalidInputError):
            Valuation(u2)
        with pytest.raises(InvalidInputError):
            Valuation(u2, table=(Fraction(0),) * 4, atoms=())

    def test_dead_atoms_are_checked_then_dropped(self, u4):
        # An atom with an empty bundle or a zero weight must still pass the
        # input checks, and is then not stored.
        live = Valuation.from_atoms(u4, [(3, 2)])
        for dead in ([(0, 5)], [(1, 0)], [(0, 0), (1, Fraction(0))]):
            v = Valuation.from_atoms(u4, [(3, 2), *dead])
            assert v == live and hash(v) == hash(live) and v.atoms == ((3, 2),)
        assert Valuation(u4, atoms=((0, 1), (4, 0))) == zero_valuation(u4)
        with pytest.raises(InvalidInputError, match="^atom weights must be nonnegative$"):
            Valuation(u4, atoms=((0, -1),))
        with pytest.raises(InvalidInputError, match="outside universe"):
            Valuation(u4, atoms=((1 << 4, 0),))


def _raises_exactly(message: str):
    return pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$")


class TestBoundaryMessages:
    """Each check keeps its exception class and its exact message."""

    def test_atom_mask_outside_the_universe(self, u4):
        with _raises_exactly("bundle 0x10 outside universe of 4 goods"):
            Valuation(u4, atoms=((1, 1), (16, 1)))
        with _raises_exactly("bundle -0x1 outside universe of 4 goods"):
            Valuation(u4, atoms=((-1, 1),))
        with _raises_exactly("bundle 0x20 outside universe of 4 goods"):
            Valuation.from_atoms(u4, [(0x20, 2)])

    def test_negative_atom_weight(self, u4):
        with _raises_exactly("atom weights must be nonnegative"):
            Valuation(u4, atoms=((1, 1), (2, -1)))
        with _raises_exactly("atom weights must be nonnegative"):
            Valuation.from_atoms(u4, [(3, Fraction(-1, 2))])

    def test_valuation_universe_differs_from_the_profile_universe(self, u4):
        twin = GoodsUniverse.of_size(4)
        assert Profile(u4, (zero_valuation(twin), unanimity_valuation(u4, 1))).n == 2
        for other in (GoodsUniverse.of_size(3), GoodsUniverse(("a", "b", "c", "e"))):
            with _raises_exactly("all valuations must share the profile's universe"):
                Profile(u4, (unanimity_valuation(u4, 1), unanimity_valuation(other, 1)))

    def test_projection_onto_a_family_of_another_universe(self, u4):
        family = BundleFamily.of(GoodsUniverse.of_size(3), [1])
        for v in (unanimity_valuation(u4, 1), Valuation.dense(u4, range(16)), zero_valuation(u4)):
            with _raises_exactly("valuation and family universes differ"):
                project_valuation(v, family)

    def test_unanimity_with_a_bad_bundle_or_weight(self, u4):
        with _raises_exactly("bundle 0x10 outside universe of 4 goods"):
            unanimity_valuation(u4, 16)
        with _raises_exactly("bundle -0x2 outside universe of 4 goods"):
            unanimity_valuation(u4, -2)
        for weight, message in (
            (-1, "weight must be nonnegative"),
            ("-1/2", "weight must be nonnegative"),
            (True, "boolean is not a value"),
            ("x", "cannot parse value 'x'"),
            (float("nan"), "value nan is not finite"),
            ([1], "unsupported value type list"),
        ):
            with _raises_exactly(message):
                unanimity_valuation(u4, 1, weight)


class TestAllocationAndPartition:
    def test_overlap_rejected(self, u4):
        with pytest.raises(InvalidInputError):
            Allocation(u4, (3, 1))

    def test_seller_gets_remainder(self, u4):
        alloc = Allocation(u4, (1, 2))
        assert alloc.seller_bundle == u4.parse_bundle("cd")

    def test_partition_must_cover(self, u4):
        with pytest.raises(InvalidInputError):
            Partition(u4, (1, 2))
        with pytest.raises(InvalidInputError):
            Partition(u4, (3, 3, 12))
        with pytest.raises(InvalidInputError):
            Partition(u4, (0, u4.full_mask))

    def test_partition_from_sizes(self):
        part = partition_from_sizes([2, 3])
        assert part.sizes == (2, 3)
        assert part.parts == (0b00011, 0b11100)
        with pytest.raises(InvalidInputError):
            partition_from_sizes([0, 2])
