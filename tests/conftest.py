"""Shared independent oracles and hypothesis strategies for the suite."""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from vcbundle import GoodsUniverse, Profile, Valuation

# Exact-arithmetic examples vary widely in run time, so no per-example
# deadline; each test keeps its own max_examples.
settings.register_profile("vcbundle", deadline=None)
settings.load_profile("vcbundle")

ZERO = Fraction(0)


def brute_force_optima(profile: Profile):
    """All surplus-optimal allocations, by enumerating every assignment of
    each good to a buyer or the seller ((n+1)^m cases).  Independent of the
    engine's dynamic programs; only usable on tiny instances.
    """
    universe = profile.universe
    n = profile.n
    best = None
    optima: list[tuple[int, ...]] = []
    for assign in itertools.product(range(n + 1), repeat=universe.m):
        masks = [0] * n
        for g, who in enumerate(assign):
            if who:
                masks[who - 1] |= 1 << g
        surplus = ZERO
        for v, mask in zip(profile.valuations, masks):
            surplus += v.value(mask)
        if best is None or surplus > best:
            best = surplus
            optima = [tuple(masks)]
        elif surplus == best:
            optima.append(tuple(masks))
    return best, optima


def brute_force_gap(family, profile: Profile, buyer: int, tie: str) -> Fraction:
    """Deviation gap of ``buyer`` from first principles: the others report
    their projections (the best family bundle inside each bundle, found by
    scanning the family), and the mechanism picks among the projected
    profile's brute-force optima.  ``tie`` is "adversarial" (the optimum
    worst for the buyer's true valuation), "canonical" (the least bundle
    tuple) or "seller" (fewest goods allocated, then the least tuple).
    """
    universe = profile.universe
    projected = []
    for v in profile.valuations:
        table = []
        for mask in range(universe.full_mask + 1):
            inside = [v.value(c) for c in family.bundles if c & mask == c]
            table.append(max([ZERO] + inside))
        projected.append(Valuation(universe, table=tuple(table)))
    hybrid = list(projected)
    hybrid[buyer] = profile.valuations[buyer]

    def surplus(masks) -> Fraction:
        return sum((v.value(b) for v, b in zip(hybrid, masks)), ZERO)

    _, optima = brute_force_optima(Profile(universe, tuple(projected)))
    if tie == "adversarial":
        picked = min(surplus(masks) for masks in optima)
    elif tie == "canonical":
        picked = surplus(min(optima))
    else:
        picked = surplus(min(optima, key=lambda masks: (sum(bin(b).count("1") for b in masks), masks)))
    return brute_force_optima(Profile(universe, tuple(hybrid)))[0] - picked


def brute_force_sigma_surplus(profile: Profile, bundles) -> Fraction:
    """Best surplus over assignments of family bundles to buyers, by direct
    recursion over the family (no meta-good reduction, no projections)."""
    members = sorted(set(bundles))

    def rec(i: int, used: int) -> Fraction:
        if i == profile.n:
            return ZERO
        best = None
        for c in members:
            if c & used == 0:
                cand = profile.valuations[i].value(c) + rec(i + 1, used | c)
                if best is None or cand > best:
                    best = cand
        return best

    return rec(0, 0)


def brute_force_least_sigma_tuple(profile: Profile, bundles):
    """(best surplus, least optimal bundle tuple) over every assignment of
    pairwise-disjoint family bundles to the buyers, the empty bundle
    included, by trying each one in lexicographic order."""
    members = sorted(set(bundles) | {0})
    best, least = None, None
    for masks in itertools.product(members, repeat=profile.n):
        union = 0
        for mask in masks:
            if union & mask:
                break
            union |= mask
        else:
            surplus = sum((v.value(b) for v, b in zip(profile.valuations, masks)), ZERO)
            if best is None or surplus > best:
                best, least = surplus, masks
    return best, least


def brute_force_packing(atoms, mask: int) -> Fraction:
    """Max-weight pairwise-disjoint sub-collection inside mask, by trying
    every sub-collection."""
    inside = [(a, Fraction(w)) for a, w in atoms if a and a & mask == a]
    best = ZERO
    for r in range(len(inside) + 1):
        for combo in itertools.combinations(inside, r):
            union = 0
            ok = True
            for a, _ in combo:
                if union & a:
                    ok = False
                    break
                union |= a
            if ok:
                total = sum((w for _, w in combo), ZERO)
                if total > best:
                    best = total
    return best


def monotone_table(universe: GoodsUniverse, raw: list[int]) -> Valuation:
    table = [Fraction(x) for x in raw]
    table[0] = ZERO
    for i in range(universe.m):
        bit = 1 << i
        for mask in range(len(table)):
            if mask & bit and table[mask ^ bit] > table[mask]:
                table[mask] = table[mask ^ bit]
    return Valuation(universe, table=tuple(table))


@st.composite
def dense_valuations(draw, universe: GoodsUniverse, max_value: int = 8) -> Valuation:
    size = universe.full_mask + 1
    raw = draw(st.lists(st.integers(0, max_value), min_size=size, max_size=size))
    return monotone_table(universe, raw)


@st.composite
def sparse_valuations(draw, universe: GoodsUniverse, max_atoms: int = 4) -> Valuation:
    n_atoms = draw(st.integers(0, max_atoms))
    atoms = []
    for _ in range(n_atoms):
        mask = draw(st.integers(1, universe.full_mask))
        weight = draw(st.integers(0, 6))
        atoms.append((mask, Fraction(weight)))
    return Valuation.from_atoms(universe, atoms)


@st.composite
def small_profiles(draw, max_m: int = 4, max_n: int = 3, sparse_only: bool = False) -> Profile:
    m = draw(st.integers(1, max_m))
    universe = GoodsUniverse.of_size(m)
    n = draw(st.integers(1, max_n))
    vals = []
    for _ in range(n):
        if sparse_only or draw(st.booleans()):
            vals.append(draw(sparse_valuations(universe)))
        else:
            vals.append(draw(dense_valuations(universe)))
    return Profile(universe, tuple(vals))


@st.composite
def bundle_families(draw, universe: GoodsUniverse, max_extra: int = 5):
    from vcbundle import BundleFamily

    n_extra = draw(st.integers(0, max_extra))
    extras = draw(
        st.lists(st.integers(0, universe.full_mask), min_size=n_extra, max_size=n_extra)
    )
    return BundleFamily.of(universe, extras)


@pytest.fixture
def u2() -> GoodsUniverse:
    return GoodsUniverse.of_size(2)


@pytest.fixture
def u4() -> GoodsUniverse:
    return GoodsUniverse.of_size(4)
