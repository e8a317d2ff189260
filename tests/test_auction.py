import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from vcbundle import (
    BudgetExceededError,
    BundleFamily,
    GoodsUniverse,
    Profile,
    TieBreak,
    Valuation,
    clarke_payment,
    field_of_partition,
    max_surplus,
    optimal_allocation,
    partition_from_sizes,
    partition_of_family,
    project_profile,
    run_vc,
    sigma_optimal_surplus,
    unanimity_profile,
    unanimity_valuation,
)
from vcbundle.core import AtomPacking
from conftest import (
    brute_force_least_sigma_tuple,
    brute_force_optima,
    brute_force_packing,
    brute_force_sigma_surplus,
    small_profiles,
    sparse_valuations,
)


def w(universe, text, weight=1):
    return unanimity_valuation(universe, universe.parse_bundle(text), weight)


class TestOptimalAllocation:
    def test_two_singleton_buyers(self, u2):
        prof = Profile(u2, (w(u2, "a"), w(u2, "b")))
        alloc, s_max = optimal_allocation(prof)
        assert s_max == 2
        assert alloc.buyer_bundles == (1, 2)

    def test_single_buyer_gets_optimal_value(self, u4):
        v = w(u4, "ab", 3)
        alloc, s_max = optimal_allocation(Profile(u4, (v,)))
        assert s_max == v.value(u4.full_mask) == 3
        # canonical keeps surplus-irrelevant goods with the seller
        assert alloc.buyer_bundles == (u4.parse_bundle("ab"),)
        assert alloc.seller_bundle == u4.parse_bundle("cd")

    def test_three_buyers_brute_force_value(self, u4):
        prof = unanimity_profile(
            u4, [u4.parse_bundle("bc"), u4.parse_bundle("a"), u4.parse_bundle("d")]
        )
        best, _ = brute_force_optima(prof)
        assert best == 3
        assert max_surplus(prof) == 3
        alloc, s_max = optimal_allocation(prof)
        assert s_max == 3 and alloc.surplus(prof) == 3

    @given(profile=small_profiles())
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_and_canonical_is_lex_min(self, profile):
        best, optima = brute_force_optima(profile)
        alloc, s_max = optimal_allocation(profile)
        assert s_max == best
        assert alloc.buyer_bundles == min(optima)

    @given(profile=small_profiles(sparse_only=True))
    @settings(max_examples=40, deadline=None)
    def test_sparse_and_dense_routes_agree(self, profile):
        dense = Profile(profile.universe, tuple(v.to_dense() for v in profile.valuations))
        for tie in (TieBreak.canonical(), TieBreak.seller_favoring()):
            a1, s1 = optimal_allocation(profile, tie)
            a2, s2 = optimal_allocation(dense, tie)
            assert s1 == s2
            assert a1.buyer_bundles == a2.buyer_bundles

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_adversarial_routes_agree_with_independent_reference(self, data):
        profile = data.draw(small_profiles(max_m=3, sparse_only=True))
        universe = profile.universe
        from conftest import sparse_valuations

        reference = Profile(
            universe,
            tuple(data.draw(sparse_valuations(universe)) for _ in range(profile.n)),
        )
        dense = Profile(universe, tuple(v.to_dense() for v in profile.valuations))
        tie = TieBreak.adversarial_to(0)
        a1, s1 = optimal_allocation(profile, tie, reference=reference)
        a2, s2 = optimal_allocation(dense, tie, reference=reference)
        assert s1 == s2
        assert a1.buyer_bundles == a2.buyer_bundles
        # brute force: minimal reference surplus among optima, then lex order
        best, optima = brute_force_optima(profile)
        assert s1 == best

        def key(masks):
            ref = sum(
                (v.value(b) for v, b in zip(reference.valuations, masks)), Fraction(0)
            )
            return (ref, masks)

        assert a1.buyer_bundles == min(optima, key=key)

    @given(profile=small_profiles(), buyer=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_tie_rules_pick_from_the_optimal_set(self, profile, buyer):
        buyer %= profile.n
        best, optima = brute_force_optima(profile)
        canonical = min(optima)
        alloc, _ = optimal_allocation(profile, TieBreak.canonical())
        assert alloc.buyer_bundles == canonical

        def seller_key(masks):
            used = 0
            for b in masks:
                used |= b
            return (bin(used).count("1"), masks)

        alloc, _ = optimal_allocation(profile, TieBreak.seller_favoring())
        assert alloc.buyer_bundles == min(optima, key=seller_key)

        def adversarial_key(masks):
            ref = sum(
                (v.value(b) for v, b in zip(profile.valuations, masks)), Fraction(0)
            )
            return (ref, masks)

        alloc, _ = optimal_allocation(
            profile, TieBreak.adversarial_to(buyer), reference=profile
        )
        assert alloc.buyer_bundles == min(optima, key=adversarial_key)

    def test_dense_budget(self):
        universe = GoodsUniverse.of_size(15)
        with pytest.raises(BudgetExceededError):
            Valuation.dense(universe, [0] * (1 << 15))

    def test_atom_budget(self):
        universe = GoodsUniverse.of_size(10)
        atoms = [(1 << (i % 10), 1) for i in range(70)]
        prof = Profile(universe, (Valuation.from_atoms(universe, atoms),))
        with pytest.raises(BudgetExceededError):
            max_surplus(prof)


_TIED_WEIGHTS = st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(3, 2)])


@st.composite
def tied_atom_valuations(draw, universe: GoodsUniverse) -> Valuation:
    """1-3 atoms on 1-3 goods each; the few small weights make tied optima
    common."""
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        goods = draw(st.lists(st.integers(0, universe.m - 1), min_size=1, max_size=3))
        atoms.append((sum(1 << g for g in set(goods)), draw(_TIED_WEIGHTS)))
    return Valuation.from_atoms(universe, atoms)


@st.composite
def block_atoms(draw) -> list:
    """1-10 atoms of 1-3 goods, each inside one of up to four consecutive
    blocks of m <= 9 goods, so the overlap graph has several components."""
    m = draw(st.integers(1, 9))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=3)) if m > 1 else [])
    blocks = [range(lo, hi) for lo, hi in zip([0, *cuts], [*cuts, m])]
    goods = st.sampled_from(blocks).flatmap(lambda b: st.sets(st.sampled_from(b), min_size=1, max_size=3))
    atom = st.tuples(goods.map(lambda gs: sum(1 << g for g in gs)), _TIED_WEIGHTS)
    return draw(st.lists(atom, min_size=1, max_size=10))


class TestPackingKernel:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_larger_sparse_profiles_match_dense_route_and_brute_force(self, data):
        universe = GoodsUniverse.of_size(data.draw(st.integers(5, 8)))
        n = data.draw(st.integers(1, 5))
        buyers = st.lists(tied_atom_valuations(universe), min_size=n, max_size=n)
        profile = Profile(universe, tuple(data.draw(buyers)))
        reference = Profile(universe, tuple(data.draw(buyers)))
        dense = Profile(universe, tuple(v.to_dense() for v in profile.valuations))
        buyer = data.draw(st.integers(0, n - 1))
        for tie, ref in (
            (TieBreak.canonical(), None),
            (TieBreak.seller_favoring(), None),
            (TieBreak.adversarial_to(buyer), reference),
        ):
            a1, s1 = optimal_allocation(profile, tie, ref)
            a2, s2 = optimal_allocation(dense, tie, ref)
            assert s1 == s2
            assert a1.buyer_bundles == a2.buyer_bundles
        atoms = [atom for v in profile.valuations for atom in v.atoms]
        assert max_surplus(profile) == brute_force_packing(atoms, universe.full_mask)
        merged = Valuation.from_atoms(universe, atoms)
        for mask in universe.all_bundles():
            assert merged.value(mask) == brute_force_packing(atoms, mask)
        masks = data.draw(st.lists(st.integers(0, universe.full_mask), min_size=1, max_size=4))
        for mask in masks:
            for v in profile.valuations:
                assert v.value(mask) == brute_force_packing(v.atoms, mask)

    @given(atoms=block_atoms(), frees=st.lists(st.integers(0, 511), min_size=1, max_size=4))
    @example(atoms=[(0b1001, 1), (0b0110, 1), (0b1100, 1)], frees=[0b1111])
    @settings(max_examples=200, deadline=None)
    def test_breadth_first_order_packs_as_brute_force(self, atoms, frees):
        packing = AtomPacking(atoms)
        assert sorted(packing.order) == list(range(len(atoms)))
        assert packing.masks == [atoms[i][0] for i in packing.order]
        assert packing.weights == [atoms[i][1] for i in packing.order]
        # Components are contiguous, each starts at its least atom by
        # (lowest good, mask), and every later atom of it overlaps an
        # earlier one.
        runs = []  # [goods, masks] per component, in order
        seen = 0
        for mask in packing.masks:
            if mask & seen:
                goods = runs[-1][0]
                assert mask & goods and not mask & (seen ^ goods)
                runs[-1][0] |= mask
                runs[-1][1].append(mask)
            else:
                runs.append([mask, [mask]])
            seen |= mask
        for _, masks in runs:
            assert masks[0] == min(masks, key=lambda x: (x & -x, x))
        for free in frees:
            assert packing.best(0, free) == brute_force_packing(atoms, free)

    def test_breadth_first_order_memo_entries(self):
        # Work pin: memo entries after one full solve each of 200 seeded
        # atom sets shaped like the benchmark's sparse auctions.  Ordering
        # by lowest good within a component instead gives 12,215.
        rng = random.Random(2024)
        total = 0
        for _ in range(200):
            m = rng.randint(20, 30)
            atoms = [
                (sum(1 << g for g in rng.sample(range(m), rng.randint(1, 3))), rng.randint(1, 12))
                for _ in range(rng.randint(16, 20))
            ]
            packing = AtomPacking(atoms)
            packing.best(0, (1 << m) - 1)
            total += len(packing._memo)
        assert total == 6_791

    def test_sparse_solves_leave_no_cyclic_garbage(self):
        universe = GoodsUniverse.of_size(6)
        a, b, c, d, e, f = (1 << i for i in range(6))
        profile = Profile(universe, (
            Valuation.from_atoms(universe, [(a | b, 2), (c, 1), (d | e, 2)]),
            Valuation.from_atoms(universe, [(b | c, 2), (e | f, 1)]),
            Valuation.from_atoms(universe, [(a, 1), (f, 1)]),
        ))
        calls = {
            "optimal_allocation": lambda: optimal_allocation(
                profile, TieBreak.adversarial_to(0), reference=profile),
            "max_surplus": lambda: max_surplus(profile),
            "run_vc": lambda: run_vc(profile, TieBreak.seller_favoring()),
            "Valuation.value": lambda: profile.valuations[0].value(universe.full_mask),
            "sigma_optimal_surplus": lambda: sigma_optimal_surplus(
                profile, BundleFamily.of(universe, [a | b, c, b | c, d | e, e | f, a, f])),
        }
        enabled = gc.isenabled()
        gc.disable()
        try:
            for name, call in calls.items():
                gc.collect()
                call()
                assert gc.collect() == 0, name
        finally:
            if enabled:
                gc.enable()


@st.composite
def raw_tables(draw, universe: GoodsUniverse) -> Valuation:
    """A dense table with v(empty) = 0 and other entries drawn freely, so it
    is usually not monotone (API-built valuations skip that check)."""
    size = universe.full_mask + 1
    rest = draw(st.lists(st.integers(0, 6), min_size=size - 1, max_size=size - 1))
    return Valuation(universe, table=(0, *rest))


@st.composite
def raw_mixed_profiles(draw) -> Profile:
    """m <= 4 goods, 1-4 buyers: raw dense tables and atom valuations, with at
    least one raw table so the dense route runs."""
    universe = GoodsUniverse.of_size(draw(st.integers(1, 4)))
    n = draw(st.integers(1, 4))
    dense_at = draw(st.integers(0, n - 1))
    vals = []
    for i in range(n):
        if i == dense_at or draw(st.booleans()):
            vals.append(draw(raw_tables(universe)))
        else:
            vals.append(draw(sparse_valuations(universe)))
    return Profile(universe, tuple(vals))


class TestNonMonotoneTables:
    """The dense DP (one-, two- and many-buyer paths) against brute force on
    tables that are not monotone."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_dense_route_matches_brute_force(self, data):
        profile = data.draw(raw_mixed_profiles())
        universe = profile.universe
        n = profile.n
        reference = Profile(universe, tuple(data.draw(raw_tables(universe)) for _ in range(n)))
        best, optima = brute_force_optima(profile)
        assert max_surplus(profile) == best

        def surplus_of(prof, masks):
            return sum((v.value(b) for v, b in zip(prof.valuations, masks)), Fraction(0))

        def goods_used(masks):
            used = 0
            for b in masks:
                used |= b
            return bin(used).count("1")

        canonical = min(optima)
        expected = {
            "canonical": canonical,
            "seller": min(optima, key=lambda masks: (goods_used(masks), masks)),
            "adversarial": min(optima, key=lambda masks: (surplus_of(reference, masks), masks)),
        }
        buyer = data.draw(st.integers(0, n - 1))
        for tie in (TieBreak.canonical(), TieBreak.seller_favoring(), TieBreak.adversarial_to(buyer)):
            alloc, s_max = optimal_allocation(profile, tie, reference)
            assert s_max == best
            assert alloc.buyer_bundles == expected[tie.kind]

            # run_vc's adversarial reference is the reported profile, on which
            # every optimum ties, so it picks the canonical optimum.
            outcome = run_vc(profile, tie)
            chosen = outcome.allocation.buyer_bundles
            assert chosen == (canonical if tie.kind == "adversarial" else expected[tie.kind])
            assert outcome.surplus == best
            for i in range(n):
                rest = profile.drop(i)
                without_i = 0 if rest is None else brute_force_optima(rest)[0]
                others_at = surplus_of(profile, chosen) - profile.valuations[i].value(chosen[i])
                assert outcome.payments[i] == without_i - others_at


# Coprime denominators, and sums that meet (1/2 + 1/3 = 5/6, 1/2 + 2/5 =
# 9/10), so that fractional optima tie.
_COPRIME_WEIGHTS = st.sampled_from(
    [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(5, 6), Fraction(9, 10)]
)
# Reference entries, drawn for every bundle including the empty one, so a
# reference is usually neither monotone nor normalised, and ref(a) - ref(empty)
# is often negative.
_REFERENCE_VALUES = st.sampled_from([-1, Fraction(-1, 2), 0, Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), 1])


@st.composite
def fractional_tie_cases(draw):
    """m <= 4 goods, 1-3 buyers: an atom profile (one atom per buyer or 1-2),
    a raw dense profile with fractional entries, and a reference profile."""
    universe = GoodsUniverse.of_size(draw(st.integers(1, 4)))
    n = draw(st.integers(1, 3))
    size = universe.full_mask + 1
    # One atom per buyer (the additive adversarial key) draws from fewer
    # weights, so that its optima tie more often.
    one_atom = draw(st.booleans())
    atoms_each = st.just(1) if one_atom else st.integers(1, 2)
    weights = st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)]) if one_atom else _COPRIME_WEIGHTS
    sparse = []
    for _ in range(n):
        atoms = [
            (draw(st.integers(1, universe.full_mask)), draw(weights))
            for _ in range(draw(atoms_each))
        ]
        sparse.append(Valuation.from_atoms(universe, atoms))
    tables = st.lists(st.sampled_from([0, Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(5, 6)]),
                      min_size=size - 1, max_size=size - 1)
    dense = [Valuation(universe, table=(0, *draw(tables))) for _ in range(n)]
    references = st.lists(_REFERENCE_VALUES, min_size=size, max_size=size)
    reference = [Valuation(universe, table=tuple(draw(references))) for _ in range(n)]
    return (Profile(universe, tuple(sparse)), Profile(universe, tuple(dense)),
            Profile(universe, tuple(reference)), draw(st.integers(0, n - 1)))


def _atom_exact(profile, masks) -> bool:
    """Each buyer's bundle is the union of disjoint atoms of its own whose
    weights add up to its value: the allocations a packing can produce."""
    for v, mask in zip(profile.valuations, masks):
        live = [(a, w) for a, w in v.atoms if a and w > 0 and a & mask == a]
        if not any(
            sum(a for a, _ in combo) == mask
            and sum((w for _, w in combo), Fraction(0)) == v.value(mask)
            and all(x & y == 0 for x, y in itertools.combinations([a for a, _ in combo], 2))
            for r in range(len(live) + 1)
            for combo in itertools.combinations(live, r)
        ):
            return False
    return True


def _two_buyers_one_good():
    """Two buyers worth 1/2 for one good.  Their reference gains from it, 2/5
    and 1/2, order them the opposite way to the gains' numerators and to the
    reference values at the good, 7/5 (from 1 at the empty bundle) and 1/2."""
    universe = GoodsUniverse.of_size(1)
    half = Valuation.from_atoms(universe, [(1, Fraction(1, 2))])
    tables = Profile(universe, (half.to_dense(), half.to_dense()))
    reference = Profile(universe, (
        Valuation(universe, table=(1, Fraction(7, 5))),
        Valuation(universe, table=(0, Fraction(1, 2))),
    ))
    return Profile(universe, (half, half)), tables, reference, 0


class TestExactTieObjective:
    """Both routes maximise one exact integer per tie rule: value first, tie
    cost second, bundle tuple last."""

    @given(case=fractional_tie_cases())
    @example(case=_two_buyers_one_good())
    @settings(max_examples=200, deadline=None)
    def test_fractional_tie_rules_match_brute_force(self, case):
        sparse, dense_raw, reference, buyer = case

        def keys(masks):
            used = 0
            for b in masks:
                used |= b
            ref = sum((v.value(b) for v, b in zip(reference.valuations, masks)), Fraction(0))
            return {"canonical": masks, "seller": (bin(used).count("1"), masks), "adversarial": (ref, masks)}

        dense_of_sparse = Profile(sparse.universe, tuple(v.to_dense() for v in sparse.valuations))
        runs = (
            (sparse, lambda masks: _atom_exact(sparse, masks), brute_force_optima(sparse)),
            (dense_of_sparse, lambda masks: True, brute_force_optima(sparse)),
            (dense_raw, lambda masks: True, brute_force_optima(dense_raw)),
        )
        for profile, admissible, (best, optima) in runs:
            candidates = [masks for masks in optima if admissible(masks)]
            for tie in (TieBreak.canonical(), TieBreak.seller_favoring(), TieBreak.adversarial_to(buyer)):
                alloc, value = optimal_allocation(profile, tie, reference)
                assert value == best
                assert alloc.buyer_bundles == min(candidates, key=lambda masks: keys(masks)[tie.kind])

    def test_tied_instance_at_the_atom_cap(self):
        # 32 goods; buyers 2g and 2g + 1 each hold a unit atom on good g: 64
        # atoms and 2^32 optima.  The reference of run_vc's adversarial rule
        # is the reported profile, on which every optimum ties.
        universe = GoodsUniverse.of_size(32)
        profile = Profile(universe, tuple(
            Valuation.from_atoms(universe, [(1 << (b // 2), 1)]) for b in range(64)
        ))
        for tie in (TieBreak.canonical(), TieBreak.seller_favoring(), TieBreak.adversarial_to(5)):
            outcome = run_vc(profile, tie)
            assert outcome.surplus == 32 and outcome.revenue == 32
            for g in range(32):
                assert outcome.allocation.buyer_bundles[2 * g : 2 * g + 2] == (0, 1 << g)
                assert outcome.payments[2 * g : 2 * g + 2] == (0, 1)

    def test_additive_rules_skip_the_walk_on_multi_atom_buyers(self):
        # Two buyers each hold a unit atom on every one of 32 goods (2^32
        # optima); only adversarial walks them, and its walk is budgeted
        # (test_budgets).
        universe = GoodsUniverse.of_size(32)
        buyer = Valuation.from_atoms(universe, [(1 << g, 1) for g in range(32)])
        profile = Profile(universe, (buyer, buyer))
        for tie in (TieBreak.canonical(), TieBreak.seller_favoring()):
            outcome = run_vc(profile, tie)
            assert outcome.surplus == 32
            assert outcome.allocation.buyer_bundles == (0, universe.full_mask)

    def test_walk_values_each_reference_bundle_once(self, monkeypatch):
        # Three buyers with a unit atom on each of 5 goods: 3^5 optima, and
        # the leaves repeat each buyer's bundles many times over.
        universe = GoodsUniverse.of_size(5)
        profile = Profile(universe, tuple(
            Valuation.from_atoms(universe, [(1 << g, 1) for g in range(5)]) for _ in range(3)
        ))
        buyer_of = {id(v): i for i, v in enumerate(profile.valuations)}
        calls = []
        value = Valuation.value

        def counted(self, mask):
            calls.append((buyer_of[id(self)], mask))
            return value(self, mask)

        monkeypatch.setattr(Valuation, "value", counted)
        alloc, surplus = optimal_allocation(profile, TieBreak.adversarial_to(0), profile)
        assert surplus == 5 and alloc.buyer_bundles == (0, 0, universe.full_mask)
        assert calls and len(calls) == len(set(calls))


class TestSparsePayments:
    """All-sparse run_vc reads every drop-one optimum from one shared packing."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_payments_match_brute_force_drop_one_optima(self, data):
        universe = GoodsUniverse.of_size(data.draw(st.integers(1, 6)))
        n = data.draw(st.integers(1, 5))
        weights = st.sampled_from([0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(5, 3)])

        def draw_profile():
            return Profile(universe, tuple(
                Valuation.from_atoms(universe, [
                    (data.draw(st.integers(0, universe.full_mask)), data.draw(weights))
                    for _ in range(data.draw(st.integers(1, 3)))
                ])
                for _ in range(n)
            ))

        reported = draw_profile()
        true = draw_profile() if data.draw(st.booleans()) else None
        atoms = [v.atoms for v in reported.valuations]
        full = universe.full_mask
        without = [
            brute_force_packing([a for k, own in enumerate(atoms) if k != i for a in own], full)
            for i in range(n)
        ]
        for tie in (TieBreak.canonical(), TieBreak.seller_favoring(),
                    TieBreak.adversarial_to(data.draw(st.integers(0, n - 1)))):
            outcome = run_vc(reported, tie, true)
            values = [brute_force_packing(own, b) for own, b in zip(atoms, outcome.allocation.buyer_bundles)]
            for i in range(n):
                assert outcome.payments[i] == without[i] - (sum(values) - values[i])

    def test_one_packing_for_the_allocation_and_one_for_all_payments(self, monkeypatch):
        universe = GoodsUniverse.of_size(4)
        profile = Profile(universe, tuple(
            unanimity_valuation(universe, mask, weight)
            for mask, weight in [(0b0011, 3), (0b0110, 4), (0b1100, 3), (0b0001, 2), (0b1000, 2), (0b0100, 1)]
        ))
        built = []
        init = AtomPacking.__init__

        def counted(self, atoms):
            built.append(len(atoms))
            init(self, atoms)

        monkeypatch.setattr(AtomPacking, "__init__", counted)
        outcome = run_vc(profile)
        assert built == [6, 6]
        assert outcome.allocation.buyer_bundles == (0, 0b0110, 0, 0b0001, 0b1000, 0)
        assert outcome.payments == (0, 2, 0, 0, 0, 0)


class TestSigmaOptimalSurplus:
    def test_trivial_family_serves_one_buyer(self, u2):
        prof = Profile(u2, (w(u2, "a"), w(u2, "b")))
        fam = BundleFamily.of(u2, [u2.full_mask])
        alloc, s = sigma_optimal_surplus(prof, fam)
        assert s == 1
        assert all(b in fam.bundles for b in alloc.buyer_bundles)

    def test_power_set_recovers_s_max(self, u4):
        prof = unanimity_profile(u4, [u4.parse_bundle("bc"), u4.parse_bundle("a")])
        fam = BundleFamily.full(u4)
        _, s = sigma_optimal_surplus(prof, fam)
        assert s == max_surplus(prof)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cross_check_identity_and_direct_recursion(self, data):
        profile = data.draw(small_profiles(max_m=3))
        universe = profile.universe
        extras = data.draw(
            st.lists(st.integers(0, universe.full_mask), min_size=0, max_size=4)
        )
        fam = BundleFamily.of(universe, extras)
        alloc, s = sigma_optimal_surplus(profile, fam)
        assert all(b in fam.bundles for b in alloc.buyer_bundles)
        assert alloc.surplus(profile) == s
        # independent recursion over family bundles
        assert s == brute_force_sigma_surplus(profile, fam.bundles)
        if partition_of_family(fam) is None:
            # the partition route orders by meta-goods, so only the family
            # search promises the least optimal tuple
            assert (s, alloc.buyer_bundles) == brute_force_least_sigma_tuple(profile, fam.bundles)
        # identity: restricted optimum equals the optimum of the projections
        projected = project_profile(profile, fam)
        assert s == max_surplus(projected)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_remark_upper_bound_by_buyer_count(self, data):
        profile = data.draw(small_profiles(max_m=3, max_n=4))
        universe = profile.universe
        extras = data.draw(
            st.lists(st.integers(0, universe.full_mask), min_size=0, max_size=3)
        )
        fam = BundleFamily.of(universe, extras + [universe.full_mask])
        _, s_sigma = sigma_optimal_surplus(profile, fam)
        assert max_surplus(profile) <= profile.n * s_sigma

    def test_partition_route_matches_generic(self, u4):
        part = partition_from_sizes([2, 2], u4)
        fam = field_of_partition(part)
        prof = Profile(u4, (w(u4, "ab"), w(u4, "c"), w(u4, "ad", 2)))
        _, s = sigma_optimal_surplus(prof, fam)
        assert s == brute_force_sigma_surplus(prof, fam.bundles)


class TestPayments:
    def test_disjoint_buyers_pay_nothing(self, u2):
        prof = Profile(u2, (w(u2, "a"), w(u2, "b")))
        assert clarke_payment(prof, 0) == 0
        assert clarke_payment(prof, 1) == 0

    def test_both_want_everything(self, u2):
        prof = Profile(u2, (w(u2, "ab"), w(u2, "ab")))
        out = run_vc(prof)
        winner = next(i for i, b in enumerate(out.allocation.buyer_bundles) if b)
        loser = 1 - winner
        assert out.payments[winner] == 1
        assert out.payments[loser] == 0

    def test_single_buyer_pays_nothing(self, u4):
        assert clarke_payment(Profile(u4, (w(u4, "abcd", 9),)), 0) == 0


class TestRunVC:
    def test_truthful_outcome(self, u2):
        out = run_vc(Profile(u2, (w(u2, "a"), w(u2, "b"))))
        assert (out.surplus, out.revenue) == (2, 0)

    def test_projection_reporting_onto_trivial_partition(self, u2):
        prof = Profile(u2, (w(u2, "a"), w(u2, "b")))
        fam = field_of_partition(partition_from_sizes([2], u2))
        out = run_vc(project_profile(prof, fam), true_profile=prof)
        assert (out.surplus, out.revenue) == (1, 1)

    def test_four_buyer_variant(self, u2):
        prof = Profile(u2, (w(u2, "a"), w(u2, "b"), w(u2, "a"), w(u2, "b")))
        out = run_vc(prof)
        assert (out.surplus, out.revenue) == (2, 2)
        fam = field_of_partition(partition_from_sizes([2], u2))
        out_pi = run_vc(project_profile(prof, fam), true_profile=prof)
        assert (out_pi.surplus, out_pi.revenue) == (1, 1)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_truth_dominates_and_is_individually_rational(self, data):
        profile = data.draw(small_profiles(max_m=3))
        buyer = data.draw(st.integers(0, profile.n - 1))
        from conftest import dense_valuations, sparse_valuations

        if data.draw(st.booleans()):
            alt = data.draw(dense_valuations(profile.universe))
        else:
            alt = data.draw(sparse_valuations(profile.universe))
        ties = [TieBreak.canonical(), TieBreak.seller_favoring(), TieBreak.adversarial_to(buyer)]
        truthful_utilities = []
        for tie in ties:
            out_truth = run_vc(profile, tie, true_profile=profile)
            assert out_truth.utilities[buyer] >= 0  # participation constraint
            out_alt = run_vc(profile.replace(buyer, alt), tie, true_profile=profile)
            assert out_truth.utilities[buyer] >= out_alt.utilities[buyer]
            truthful_utilities.append(out_truth.utilities)
        # truthful utility does not depend on the tie-break rule
        assert truthful_utilities[0] == truthful_utilities[1] == truthful_utilities[2]

    @given(profile=small_profiles(max_m=3))
    @settings(max_examples=30, deadline=None)
    def test_truthful_accounting_identities(self, profile):
        out = run_vc(profile)
        assert out.revenue == sum(out.payments, Fraction(0))
        assert out.revenue <= out.surplus
        assert out.surplus == max_surplus(profile)
        assert all(p >= 0 for p in out.payments)

    def test_truth_dominates_on_six_goods(self):
        import random

        from vcbundle.equilibrium import random_monotone_profiles, random_monotone_valuation

        universe = GoodsUniverse.of_size(6)
        rng = random.Random(99)
        for profile in random_monotone_profiles(universe, n=3, count=8, seed=7):
            for buyer in range(profile.n):
                truth = run_vc(profile, true_profile=profile)
                assert truth.utilities[buyer] >= 0
                alt = random_monotone_valuation(universe, rng)
                lied = run_vc(profile.replace(buyer, alt), true_profile=profile)
                assert truth.utilities[buyer] >= lied.utilities[buyer]
