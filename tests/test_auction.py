import gc
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vcbundle import (
    BudgetExceededError,
    BundleFamily,
    GoodsUniverse,
    InvalidInputError,
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
from vcbundle import auction, jsonio
from vcbundle.core import AtomPacking, max_packing, submask_max
from conftest import (
    brute_force_least_sigma_tuple,
    brute_force_optima,
    brute_force_packing,
    brute_force_sigma_surplus,
    dense_valuations,
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
    @settings(max_examples=50)
    def test_matches_brute_force_and_canonical_is_lex_min(self, profile):
        best, optima = brute_force_optima(profile)
        alloc, s_max = optimal_allocation(profile)
        assert s_max == best
        assert alloc.buyer_bundles == min(optima)

    @given(profile=small_profiles(sparse_only=True))
    @settings(max_examples=40)
    def test_sparse_and_dense_routes_agree(self, profile):
        dense = Profile(profile.universe, tuple(v.to_dense() for v in profile.valuations))
        for tie in (TieBreak.canonical(), TieBreak.seller_favoring()):
            a1, s1 = optimal_allocation(profile, tie)
            a2, s2 = optimal_allocation(dense, tie)
            assert s1 == s2
            assert a1.buyer_bundles == a2.buyer_bundles

    @given(data=st.data())
    @settings(max_examples=40)
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
    @settings(max_examples=40)
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
    @settings(max_examples=60)
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
    @settings(max_examples=200)
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

    def test_drop_one_pass_visits_the_plain_states(self):
        # Work pin: the drop-one pass on the atom sets above memoises
        # exactly the states of one plain solve, and each entry is the
        # plain optimum of the atoms outside its slot.
        rng = random.Random(2024)
        layout = random.Random(23)
        total = 0
        for _ in range(200):
            m = rng.randint(20, 30)
            atoms = [
                (sum(1 << g for g in rng.sample(range(m), rng.randint(1, 3))), rng.randint(1, 12))
                for _ in range(rng.randint(16, 20))
            ]
            groups = [None if i % 5 == 4 else i % 3 for i in range(len(atoms))]
            packing = AtomPacking(atoms)
            optima = packing.best_without(groups, (1 << m) - 1, 3)
            total += len(packing._drop_memo)
            assert optima == [
                AtomPacking([a for a, g in zip(atoms, groups) if g != slot]).best(0, (1 << m) - 1)
                for slot in range(3)
            ]
            # The same atoms over 4-10 buyers' slots plus one that holds no
            # atom: each state keeps only the slots that lose, and
            # ``without`` reads V itself.
            slots = layout.randint(4, 10)
            groups = [layout.randrange(slots) for _ in atoms]
            packing = AtomPacking(atoms)
            optima = packing.best_without(groups, (1 << m) - 1, slots + 1)
            assert optima == [
                AtomPacking([a for a, g in zip(atoms, groups) if g != slot]).best(0, (1 << m) - 1)
                for slot in range(slots + 1)
            ]
            assert packing.without(0, (1 << m) - 1) == optima[slots]
            assert all(loss < best for best, losses in packing._drop_memo.values() for loss in losses.values())
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
    @settings(max_examples=80)
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
    @settings(max_examples=200)
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

    @given(data=st.data())
    @settings(max_examples=150)
    def test_adversarial_against_the_reports_is_canonical(self, data):
        # The reports' own surplus is the optimum at every surplus-optimal
        # allocation, so that tie cost never separates two optima: dense,
        # sparse (multi-atom buyers walk), mixed and non-monotone profiles.
        profile = data.draw(st.one_of(
            small_profiles(), small_profiles(max_m=5, sparse_only=True), raw_mixed_profiles()
        ))
        canonical = optimal_allocation(profile)
        outcome = run_vc(profile)
        for i in range(profile.n):
            tie = TieBreak.adversarial_to(i)
            assert optimal_allocation(profile, tie, reference=profile) == canonical
            assert run_vc(profile, tie) == outcome


def _unanimity_table(m, atoms):
    return tuple(sum((w for a, w in atoms if a & s == a), 0) for s in range(1 << m))


@st.composite
def strict_kind_tables(draw, m: int) -> tuple:
    """One dense table on m goods of a drawn kind: few strict bundles (a
    unanimity sum), many (3|T| plus noise), all (additive, positive weights),
    non-monotone, or fractional."""
    size = 1 << m
    kind = draw(st.sampled_from(["few", "many", "additive", "raw", "fractional"]))
    if kind == "few":
        atoms = [(draw(st.integers(1, size - 1)), draw(st.integers(1, 4))) for _ in range(draw(st.integers(1, 3)))]
        return _unanimity_table(m, atoms)
    if kind == "many":
        noise = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
        return tuple(0 if s == 0 else 3 * s.bit_count() + noise[s] for s in range(size))
    if kind == "additive":
        weights = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
        return tuple(sum(weights[g] for g in range(m) if s >> g & 1) for s in range(size))
    if kind == "raw":
        return (0, *draw(st.lists(st.integers(0, 6), min_size=size - 1, max_size=size - 1)))
    thirds = st.sampled_from([Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), 1])
    atoms = [(draw(st.integers(1, size - 1)), draw(thirds)) for _ in range(draw(st.integers(1, 3)))]
    return _unanimity_table(m, atoms)


class TestStrictRows:
    """The middle rows of the dense DP push over each buyer's strict
    bundles when that is cheaper than the 3^m pass."""

    def test_strict_options_of_additive_and_unanimity_tables(self):
        m = 5
        additive = tuple(s.bit_count() for s in range(1 << m))
        assert auction._strict_options(additive) is None
        # Atoms closed under union: the strict bundles are the atoms.
        atoms = [(0b00011, 2), (0b00110, 1), (0b00111, 3), (0b11111, 1)]
        assert auction._strict_options(_unanimity_table(m, atoms)) == [0b00011, 0b00110, 0b00111, 0b11111]
        assert auction._strict_options(_unanimity_table(m, [])) == []

    @given(data=st.data())
    @settings(max_examples=60)
    def test_rows_are_the_same_with_and_without_lists(self, data):
        m = data.draw(st.integers(1, 5))
        tables = [data.draw(strict_kind_tables(m)) for _ in range(data.draw(st.integers(3, 5)))]
        options = auction._middle_options(tables)
        assert auction._dense_rows(tables, options) == auction._dense_rows(tables)

    @given(data=st.data())
    @settings(max_examples=40)
    def test_dense_solves_match_brute_force(self, data):
        m = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(3, 4))
        universe = GoodsUniverse.of_size(m)

        def draw_profile():
            return Profile(universe, tuple(
                Valuation(universe, table=data.draw(strict_kind_tables(m))) for _ in range(n)
            ))

        profile = draw_profile()
        reference = draw_profile()
        assume(reference != profile)
        best, optima = brute_force_optima(profile)
        assert max_surplus(profile) == best

        def surplus_of(prof, masks):
            return sum((v.value(b) for v, b in zip(prof.valuations, masks)), Fraction(0))

        def goods_used(masks):
            return bin(sum(masks)).count("1")

        expected = {
            "canonical": min(optima),
            "seller": min(optima, key=lambda masks: (goods_used(masks), masks)),
            "adversarial": min(optima, key=lambda masks: (surplus_of(reference, masks), masks)),
        }
        without = [brute_force_optima(profile.drop(i))[0] for i in range(n)]
        buyer = data.draw(st.integers(0, n - 1))
        for tie in (TieBreak.canonical(), TieBreak.seller_favoring(), TieBreak.adversarial_to(buyer)):
            alloc, s_max = optimal_allocation(profile, tie, reference)
            assert s_max == best
            assert alloc.buyer_bundles == expected[tie.kind]
            outcome = run_vc(profile, tie, reference if tie.kind == "adversarial" else None)
            chosen = outcome.allocation.buyer_bundles
            assert chosen == expected[tie.kind]
            for i in range(n):
                others_at = surplus_of(profile, chosen) - profile.valuations[i].value(chosen[i])
                assert outcome.payments[i] == without[i] - others_at


def _dense_doc(labels: str, tables) -> dict:
    return {"goods": list(labels), "valuations": [
        {"kind": "dense", "values": {
            "".join(lab for g, lab in enumerate(labels) if s >> g & 1): v for s, v in enumerate(t) if s
        }}
        for t in tables
    ]}


class TestMonotoneLastRow:
    """A monotone last table is its own submask maximum, so the dense DP
    takes it as its last row; folded weights, meta tables and tables not
    known to be monotone are swept."""

    def test_only_tables_not_known_monotone_are_swept(self, monkeypatch):
        rng = random.Random(3)
        tables = [submask_max([0] + [rng.randint(0, 9) for _ in range(31)]) for _ in range(3)]
        profile = jsonio.parse_instance(_dense_doc("abcde", tables))
        sweep = auction.submask_max
        swept = []

        def counted(vals):
            swept.append(len(vals))
            return sweep(vals)

        monkeypatch.setattr(auction, "submask_max", counted)
        run_vc(profile)  # the allocation and three payment re-solves
        assert swept == []
        for tie in (TieBreak.seller_favoring(), TieBreak.adversarial_to(0)):
            swept.clear()
            run_vc(profile, tie, profile if tie.kind == "adversarial" else None)
            assert swept == [32]  # the folded weights of the allocation solve
        # An API-built last table that is not monotone is swept in the
        # allocation solve and in the two re-solves that keep it last.
        raw = Valuation(profile.universe, table=(*tables[2][:-1], 0))
        swept.clear()
        outcome = run_vc(Profile(profile.universe, (*profile.valuations[:2], raw)))
        assert swept == [32] * 3
        monkeypatch.undo()
        best, _ = brute_force_optima(Profile(profile.universe, (*profile.valuations[:2], raw)))
        assert outcome.surplus == best

    @given(data=st.data())
    @settings(max_examples=80)
    def test_monotone_shortcut_rows_equal_the_swept_rows(self, data):
        m = data.draw(st.integers(1, 5))
        universe = GoodsUniverse.of_size(m)
        tables = [data.draw(dense_valuations(universe)).table for _ in range(data.draw(st.integers(2, 5)))]
        options = auction._middle_options(tables)
        rows = auction._dense_rows(tables, options, tables[-1])
        assert [rows[0], *map(list, rows[1:])] == auction._dense_rows(tables, options)
        # The cached check holds exactly for tables equal to their sweep.
        raw = data.draw(raw_tables(universe))
        assert raw._monotone == (submask_max(raw.table) == list(raw.table))
        assert Valuation(universe, table=tables[-1])._monotone


def _fold_as_documented(tables, cost_tables):
    d = math.lcm(*(Fraction(x).denominator for t in (*tables, *cost_tables) for x in t))
    k = 1 + sum((max(c) - min(c)) * d for c in cost_tables)
    return [[int(v * d * k - c * d) for v, c in zip(t, ct)] for t, ct in zip(tables, cost_tables)]


@pytest.mark.parametrize("kind", ["int", "fractional", "mixed"])
def test_folded_weights_are_the_documented_ints(kind):
    rng = random.Random(8)
    values = _WEIGHT_KINDS[kind]
    for _ in range(50):
        size = 1 << rng.randint(1, 4)
        tables = [[0] + [rng.choice(values) for _ in range(size - 1)] for _ in range(rng.randint(1, 3))]
        costs = [[rng.choice(values) - rng.choice(values) for _ in range(size)] for _ in tables]
        folded = auction._folded(tables, costs)
        assert folded == _fold_as_documented(tables, costs)
        assert all(type(x) is int for row in folded for x in row)


_WEIGHT_KINDS = {
    "int": [0, 1, 2, 3],
    "fractional": [Fraction(1, 2), Fraction(3, 2), Fraction(1, 3), Fraction(2, 3)],
    "mixed": [0, 1, 2, Fraction(1, 2), Fraction(3, 2), Fraction(5, 3)],
}


@st.composite
def sparse_auctions(draw):
    """(reported, true or None, buyer): atom profiles on 1-6 goods with up to
    three atoms a buyer, of int, fractional or mixed weights; weight-0
    atoms leave buyers with no atom."""
    universe = GoodsUniverse.of_size(draw(st.integers(1, 6)))
    n = draw(st.integers(1, 5))
    weights = st.sampled_from(_WEIGHT_KINDS[draw(st.sampled_from(sorted(_WEIGHT_KINDS)))])
    atom = st.tuples(st.integers(1, universe.full_mask), weights)

    def profile():
        return Profile(universe, tuple(
            Valuation.from_atoms(universe, draw(st.lists(atom, max_size=3))) for _ in range(n)
        ))

    reported = profile()
    true = profile() if draw(st.booleans()) else None
    return reported, true, draw(st.integers(0, n - 1))


def _three_rules(buyer):
    return TieBreak.canonical(), TieBreak.seller_favoring(), TieBreak.adversarial_to(buyer)


def _atom_profile(universe, *buyers):
    return Profile(universe, tuple(Valuation.from_atoms(universe, atoms) for atoms in buyers))


class TestSparsePayments:
    """All-sparse run_vc takes its allocation and every buyer's drop-one
    optimum from one pass over one packing, which keeps one value per
    buyer and one for the whole profile."""

    @given(case=sparse_auctions())
    @example(case=(
        # Buyer 0 holds two atoms, so adversarial walks, and it picks the
        # optimum that the canonical order puts last: the truth is worth
        # less there.
        _atom_profile(GoodsUniverse.of_size(2), [(1, 1), (2, 1)], [(3, 2)], []),
        _atom_profile(GoodsUniverse.of_size(2), [(1, 1)], [(3, 5)], [(2, 1)]),
        0,
    ))
    @settings(max_examples=200)
    def test_run_vc_allocates_as_optimal_allocation(self, case):
        reported, true, buyer = case
        for tie in _three_rules(buyer):
            reference = (true or reported) if tie.kind == "adversarial" else None
            assert run_vc(reported, tie, true).allocation == optimal_allocation(reported, tie, reference)[0]

    @given(case=sparse_auctions(), dense=st.booleans())
    @example(case=(_atom_profile(GoodsUniverse.of_size(2), [(1, Fraction(1, 2))], [(2, Fraction(1, 2))]), None, 0),
             dense=True)
    @settings(max_examples=150)
    def test_outcome_values_are_int_exactly_when_integral(self, case, dense):
        # On the sparse routes (keyed and walk) and, with the reports as
        # tables, on the dense route; the solvers' surpluses too, with the
        # partition route on the full family and the family route on
        # {a, all goods}.
        reported, true, buyer = case
        if dense:
            reported = Profile(reported.universe, tuple(v.to_dense() for v in reported.valuations))
        universe = reported.universe
        families = (BundleFamily.full(universe), BundleFamily.of(universe, [1, universe.full_mask]))
        values = [max_surplus(reported), *(sigma_optimal_surplus(reported, f)[1] for f in families)]
        for tie in _three_rules(buyer):
            outcome = run_vc(reported, tie, true)
            values += [*outcome.payments, *outcome.utilities, outcome.surplus, outcome.revenue]
            values.append(optimal_allocation(reported, tie, true or reported)[1])
        for x in values:
            assert type(x) is (int if x.denominator == 1 else Fraction)

    def test_keyed_pass_under_a_reference_that_is_not_monotone(self):
        # Reference tables worth more on the empty bundle than on an atom
        # give tie terms below 0; the drop-one optima still convert back
        # exactly.
        universe = GoodsUniverse.of_size(2)
        reported = _atom_profile(universe, [(1, Fraction(3, 2))], [(3, 2)], [(2, Fraction(1, 2))])
        reference = Profile(universe, (
            Valuation(universe, table=(3, 0, 3, 3)),
            Valuation(universe, table=(0, 0, 0, 7)),
            Valuation(universe, table=(2, 2, Fraction(1, 3), 2)),
        ))
        atoms = [v.atoms for v in reported.valuations]
        without = [brute_force_packing([a for k, own in enumerate(atoms) if k != i for a in own], 3) for i in range(3)]
        for tie in _three_rules(1):
            outcome = run_vc(reported, tie, reference if tie.kind == "adversarial" else None)
            values = [brute_force_packing(own, b) for own, b in zip(atoms, outcome.allocation.buyer_bundles)]
            assert outcome.payments == tuple(without[i] - (sum(values) - values[i]) for i in range(3))
        assert outcome.allocation.buyer_bundles == (0b01, 0, 0b10)

    def test_run_vc_pass_visits_the_keyed_solve_states(self, monkeypatch):
        # Work pin: on the atom sets of test_drop_one_pass_visits_the_plain_states,
        # dealt to four buyers, run_vc's one packing memoises exactly the
        # states of optimal_allocation's keyed solve, and no plain solve.
        rng = random.Random(2024)
        built = []
        init = AtomPacking.__init__

        def kept(self, atoms):
            built.append(self)
            init(self, atoms)

        monkeypatch.setattr(AtomPacking, "__init__", kept)
        total = 0
        for _ in range(200):
            m = rng.randint(20, 30)
            atoms = [
                (sum(1 << g for g in rng.sample(range(m), rng.randint(1, 3))), rng.randint(1, 12))
                for _ in range(rng.randint(16, 20))
            ]
            universe = GoodsUniverse.of_size(m)
            profile = Profile(universe, tuple(Valuation.from_atoms(universe, atoms[i::4]) for i in range(4)))
            built.clear()
            optimal_allocation(profile)
            run_vc(profile)
            solve, passed = built
            assert passed._memo == {} and set(passed._drop_memo) == set(solve._memo)
            total += len(passed._drop_memo)
        assert total == 6_791

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_payments_match_brute_force_drop_one_optima(self, data):
        m = data.draw(st.integers(1, 10))
        universe = GoodsUniverse.of_size(m)
        n = data.draw(st.integers(1, 8))
        weights = st.sampled_from([0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(5, 3)])
        few_goods = st.sets(st.integers(0, m - 1), max_size=3).map(lambda gs: sum(1 << g for g in gs))
        masks = st.one_of(few_goods, st.integers(0, universe.full_mask))

        def draw_profile():
            left = 14  # atoms in all, so the brute force stays small
            valuations = []
            for _ in range(n):
                count = data.draw(st.integers(0, min(3, left)))
                left -= count
                valuations.append(Valuation.from_atoms(
                    universe, [(data.draw(masks), data.draw(weights)) for _ in range(count)]
                ))
            return Profile(universe, tuple(valuations))

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

    def test_payments_on_benchmark_shaped_profiles(self):
        # Profiles shaped like the benchmark's sparse auctions, with int and
        # Fraction weights: each payment against one plain packing of the
        # other buyers' atoms in value, and an int exactly when integral.
        rng = random.Random(19)
        weights = [1, 2, 3, 5, 12, Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]
        paying = 0
        for _ in range(200):
            m = rng.randint(20, 30)
            universe = GoodsUniverse.of_size(m)
            left = rng.randint(16, 20)
            buyers = []
            while left:
                count = min(left, rng.randint(1, 3))
                buyers.append([
                    (sum(1 << g for g in rng.sample(range(m), rng.randint(1, 3))), rng.choice(weights))
                    for _ in range(count)
                ])
                left -= count
            profile = Profile(universe, tuple(Valuation.from_atoms(universe, a) for a in buyers))
            outcome = run_vc(profile, TieBreak(rng.choice(["canonical", "seller"])))
            values = [v.value(b) for v, b in zip(profile.valuations, outcome.allocation.buyer_bundles)]
            total = sum(values)
            for i, value in enumerate(values):
                others = [a for k, v in enumerate(profile.valuations) if k != i for a in v.atoms]
                expected = max_packing(others, universe.full_mask) - (total - value)
                assert outcome.payments[i] == expected
                assert type(outcome.payments[i]) is (int if expected.denominator == 1 else Fraction)
                if value:
                    paying += 1
        assert paying > 1000

    def test_no_payment_pass_without_a_paying_buyer(self, monkeypatch):
        universe = GoodsUniverse.of_size(3)
        passes = []
        monkeypatch.setattr(AtomPacking, "best_without", lambda *args: passes.append(args))
        outcome = run_vc(Profile(universe, (Valuation.from_atoms(universe, []),) * 2))
        assert passes == [] and outcome.payments == (0, 0)

    def test_one_packing_for_the_allocation_and_all_payments(self, monkeypatch):
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
        assert built == [6]
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
    @settings(max_examples=40)
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
    @settings(max_examples=30)
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

    @given(data=st.data())
    @settings(max_examples=40)
    def test_partition_route_picks_least_meta_tuple_on_interleaved_parts(self, data):
        m = data.draw(st.integers(3, 5))
        universe = GoodsUniverse.of_size(m)
        # A restricted growth string: good g joins one of the blocks opened
        # so far or opens the next, so the parts ascend by lowest good.
        blocks = [0]
        for _ in range(1, m):
            blocks.append(data.draw(st.integers(0, max(blocks) + 1)))
        parts = [sum(1 << g for g, b in enumerate(blocks) if b == j) for j in range(max(blocks) + 1)]
        # Some part has a gap: shifted down to bit 0 it is not of the form 2^j - 1.
        assume(any((q := p // (p & -p)) & (q + 1) for p in parts))
        n = data.draw(st.integers(1, 3))
        valuations = tuple(
            data.draw(st.one_of(dense_valuations(universe), sparse_valuations(universe)))
            for _ in range(n)
        )
        profile = Profile(universe, valuations)
        k = len(parts)
        bundle_of = []
        for meta in range(1 << k):
            bundle = 0
            for j in range(k):
                if meta >> j & 1:
                    bundle |= parts[j]
            bundle_of.append(bundle)
        fam = BundleFamily.of(universe, bundle_of)
        assert partition_of_family(fam).parts == tuple(parts)
        tables = [[v.value(b) for b in bundle_of] for v in valuations]
        best, least = None, None
        for metas in itertools.product(range(1 << k), repeat=n):
            union = 0
            for meta in metas:
                if union & meta:
                    break
                union |= meta
            else:
                surplus = sum((t[meta] for t, meta in zip(tables, metas)), Fraction(0))
                if best is None or surplus > best:
                    best, least = surplus, metas
        alloc, s = sigma_optimal_surplus(profile, fam)
        assert s == best
        assert alloc.buyer_bundles == tuple(bundle_of[meta] for meta in least)


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

    @pytest.mark.parametrize("kind", ["dense", "sparse", "mixed"])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_clarke_payment_matches_brute_force_optima(self, kind, data):
        # The others' brute-force optimum without buyer i, minus their value
        # at the optimum the tie rule picks among all brute-force optima.
        # A mixed profile has a dense buyer 0 and a sparse buyer 1.
        universe = GoodsUniverse.of_size(data.draw(st.integers(1, 3)))
        n = data.draw(st.integers(2 if kind == "mixed" else 1, 3))

        def draw_profile():
            kinds = [kind == "dense"] * n
            if kind == "mixed":
                kinds = [True, False, *data.draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))]
            return Profile(universe, tuple(
                data.draw(dense_valuations(universe) if dense else sparse_valuations(universe)) for dense in kinds
            ))

        profile = draw_profile()
        reference = draw_profile()
        _, optima = brute_force_optima(profile)

        def surplus_of(prof, masks):
            return sum((v.value(b) for v, b in zip(prof.valuations, masks)), Fraction(0))

        picks = {
            "canonical": min(optima),
            "seller": min(optima, key=lambda masks: (bin(sum(masks)).count("1"), masks)),
            "adversarial": min(optima, key=lambda masks: (surplus_of(reference, masks), masks)),
        }
        for i in range(n):
            rest = profile.drop(i)
            without = 0 if rest is None else brute_force_optima(rest)[0]

            def expected(masks):
                return without - (surplus_of(profile, masks) - profile.valuations[i].value(masks[i]))

            for tie in _three_rules(i):
                assert clarke_payment(profile, i, tie, reference) == expected(picks[tie.kind])
            # Without a reference, adversarial measures the reports, which
            # are worth the same at every optimum.
            assert clarke_payment(profile, i, TieBreak.adversarial_to(i)) == expected(picks["canonical"])

    def test_clarke_payment_reference_shape_is_checked(self, u2):
        profile = Profile(u2, (w(u2, "a"), w(u2, "b")))
        u3 = GoodsUniverse.of_size(3)
        for reference in (Profile(u2, (w(u2, "a"),)), Profile(u3, (w(u3, "a"), w(u3, "b")))):
            with pytest.raises(InvalidInputError, match="^true profile shape mismatch$"):
                clarke_payment(profile, 0, TieBreak.adversarial_to(0), reference)


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

    @pytest.mark.parametrize("tie", [TieBreak.canonical(), TieBreak.adversarial_to(0)],
                             ids=["canonical", "adversarial"])
    def test_true_profile_shape_is_checked_before_any_solve(self, u2, monkeypatch, tie):
        reported = Profile(u2, (w(u2, "a"), w(u2, "b")))
        u3 = GoodsUniverse.of_size(3)
        wrong_count = Profile(u2, (w(u2, "a"),))
        wrong_universe = Profile(u3, (w(u3, "a"), w(u3, "b")))

        def no_solve(*args):
            raise AssertionError("solved before the shape check")

        monkeypatch.setattr(auction, "optimal_allocation", no_solve)
        for truth in (wrong_count, wrong_universe):
            with pytest.raises(InvalidInputError, match="^true profile shape mismatch$"):
                run_vc(reported, tie, true_profile=truth)

    @pytest.mark.parametrize("dense_weight", [0, 30])
    def test_mixed_profile_past_the_atom_cap_values_from_tables(self, dense_weight):
        # A buyer of 100 overlapping atoms beside one or two dense buyers:
        # more atoms than one packing may hold, on profiles the dense route
        # solves, so each outcome is that of the same profile as tables,
        # the payment re-solve without the only dense buyer included.
        universe = GoodsUniverse.of_size(10)
        rng = random.Random(7)
        many = Valuation.from_atoms(universe, [
            (sum(1 << g for g in rng.sample(range(10), 2)), rng.randint(1, 9)) for _ in range(100)
        ])
        dense = unanimity_valuation(universe, 0b11, dense_weight).to_dense()
        for others in ((dense, dense), (dense,)):
            tables = Profile(universe, (*others, many.to_dense()))
            for tie in _three_rules(0):
                outcome = run_vc(Profile(universe, (*others, many)), tie)
                assert outcome == run_vc(tables, tie)
                assert (sum(outcome.payments) > 0) == (dense_weight > 0)
        # An all-sparse profile keeps the cap.
        with pytest.raises(BudgetExceededError, match="64 atoms, got 100"):
            run_vc(Profile(universe, (many,)))

    def test_one_dense_buyer_beside_sparse_buyers_past_the_atom_cap(self):
        # 80 atoms across four sparse buyers: the re-solve without the
        # dense buyer runs on tables, as every solve of the profile does.
        universe = GoodsUniverse.of_size(12)
        rng = random.Random(12)
        sparse = [
            Valuation.from_atoms(universe, [
                (sum(1 << g for g in rng.sample(range(12), rng.randint(1, 3))), rng.randint(1, 9))
                for _ in range(20)
            ])
            for _ in range(4)
        ]
        profile = Profile(universe, (unanimity_valuation(universe, 0b111, 12).to_dense(), *sparse))
        tables = Profile(universe, tuple(v.to_dense() for v in profile.valuations))
        for tie in _three_rules(0):
            assert run_vc(profile, tie) == run_vc(tables, tie)

    def test_all_sparse_truth_past_the_atom_cap_values_from_tables(self):
        # Reports projected onto a family are tables, so the true profile is
        # tabulated as well, even with no dense valuation: its buyer of 100
        # overlapping atoms is valued as the same truth given as tables.
        universe = GoodsUniverse.of_size(10)
        rng = random.Random(7)
        many = Valuation.from_atoms(universe, [
            (sum(1 << g for g in rng.sample(range(10), 2)), rng.randint(1, 9)) for _ in range(100)
        ])
        truth = Profile(universe, (Valuation.from_atoms(universe, []), many))
        reports = project_profile(truth, BundleFamily.of(universe, [universe.full_mask, 0b11111, 0b1111100000]))
        assert not reports.all_sparse
        tables = Profile(universe, tuple(v.to_dense() for v in truth.valuations))
        for tie in _three_rules(1):
            assert run_vc(reports, tie, truth) == run_vc(reports, tie, tables)

    def test_mixed_profile_tabulates_each_sparse_valuation_once(self, monkeypatch):
        # The allocation, the values at it and every payment re-solve read
        # one table per sparse buyer.
        universe = GoodsUniverse.of_size(8)
        rng = random.Random(40)
        dense = [unanimity_valuation(universe, mask, 4).to_dense() for mask in (0b11, 0b1100)]
        sparse = [
            Valuation.from_atoms(universe, [
                (sum(1 << g for g in rng.sample(range(8), 2)), rng.randint(1, 9)) for _ in range(20)
            ])
            for _ in range(3)
        ]
        profile = Profile(universe, (*dense, *sparse))
        tables = Profile(universe, tuple(v.to_dense() for v in profile.valuations))
        calls = []
        to_dense = Valuation.to_dense

        def counted(self):
            if self.atoms is not None:
                calls.append(id(self))
            return to_dense(self)

        for tie in _three_rules(0):
            expected = run_vc(tables, tie)
            with monkeypatch.context() as patch:
                patch.setattr(Valuation, "to_dense", counted)
                calls.clear()
                assert run_vc(profile, tie) == expected
            assert sorted(calls) == sorted(map(id, sparse))
        # A true profile with a dense valuation is tabulated once as well,
        # and the same tables are the adversarial reference.
        universe = GoodsUniverse.of_size(10)
        reports = Profile(universe, tuple(
            unanimity_valuation(universe, mask, 5).to_dense() for mask in (0b11, 0b110, 0b1100)
        ))
        sparse = [
            Valuation.from_atoms(universe, [
                (sum(1 << g for g in rng.sample(range(10), 2)), rng.randint(1, 9)) for _ in range(12)
            ])
            for _ in range(2)
        ]
        truth = Profile(universe, (unanimity_valuation(universe, 0b111, 6).to_dense(), *sparse))
        truth_tables = Profile(universe, tuple(v.to_dense() for v in truth.valuations))
        for tie in _three_rules(0):
            expected = run_vc(reports, tie, truth_tables)
            with monkeypatch.context() as patch:
                patch.setattr(Valuation, "to_dense", counted)
                calls.clear()
                assert run_vc(reports, tie, truth) == expected
            assert sorted(calls) == sorted(map(id, sparse))

    @given(data=st.data())
    @settings(max_examples=40)
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
    @settings(max_examples=30)
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
