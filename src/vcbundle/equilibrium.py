"""Deviation-gap analysis for projection-reporting, plus the profile
generators that drive the property sweeps and the empirical worst-case
inefficiency ratio.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .core import (
    Bundle,
    BundleFamily,
    GoodsUniverse,
    InternalInvariantError,
    InvalidInputError,
    Profile,
    Valuation,
    Value,
    exact_ratio,
    submask_max,
    unanimity_valuation,
)
from .sigma import (
    EquilibriumCounterexample,
    classify_family,
    equilibrium_counterexample,
    project_profile,
    quasi_field_closure,
)
from .auction import TieBreak, max_surplus, optimal_allocation, sigma_optimal_surplus

_ZERO = 0


def deviation_gap(
    family: BundleFamily,
    profile: Profile,
    buyer: int,
    tie: TieBreak | None = None,
) -> Value:
    """Utility a buyer forgoes by projection-reporting instead of the truth.

    Everyone else reports their projection onto the family.  With ``tie``
    None the mechanism breaks ties adversarially against the buyer (the
    worst mechanism for them); otherwise the fixed rule decides.  The gap is
    the buyer's truthful utility minus their projection-reporting utility,
    which reduces to a difference of two surpluses; it is nonnegative because
    truth-telling dominates.
    """
    if not 0 <= buyer < profile.n:
        raise InvalidInputError("buyer index out of range")
    return _max_gap(family, profile, (buyer,), (tie,))


def max_profile_gap(
    family: BundleFamily,
    profile: Profile,
    ties: tuple[TieBreak | None, ...] = (None, TieBreak.canonical()),
) -> Value:
    """Largest deviation gap over all buyers and the given tie-break modes
    (None or adversarial: against each buyer in turn)."""
    return _max_gap(family, profile, range(profile.n), ties)


def _max_gap(family: BundleFamily, profile: Profile, buyers, ties) -> Value:
    """Largest deviation gap over ``buyers`` and ``ties``.

    The projection and each fixed-tie winner determination are shared across
    buyers.  A buyer whose valuation equals its own projection has the
    truthful best-reply surplus equal to the restricted optimum, so its gap
    is 0 once a shared solve confirms that the mechanism's pick is
    restricted-optimal.
    """
    projected = project_profile(profile, family)
    deviators = [i for i in buyers if projected.valuations[i] != profile.valuations[i]]
    worst = _ZERO
    for tie in ties:
        if tie is not None and tie.kind == "adversarial":
            tie = None
        if tie is not None or len(deviators) < len(buyers):
            if tie is None:
                fixed_alloc, value = optimal_allocation(
                    projected, TieBreak.adversarial_to(0), reference=projected
                )
            else:
                fixed_alloc, value = optimal_allocation(projected, tie)
            if fixed_alloc.surplus(projected) != value:
                raise InternalInvariantError("mechanism pick lost restricted optimality")
        for i in deviators:
            hybrid = projected.replace(i, profile.valuations[i])
            truthful_best = max_surplus(hybrid)
            if tie is None:
                alloc, _ = optimal_allocation(
                    projected, TieBreak.adversarial_to(i), reference=hybrid
                )
            else:
                alloc = fixed_alloc
            gap = truthful_best - alloc.surplus(hybrid)
            if gap < 0:
                raise InternalInvariantError("deviation gap must be nonnegative")
            if gap > worst:
                worst = gap
    return worst


@dataclass(frozen=True)
class EquilibriumVerdict:
    consistent: bool
    profiles_checked: int
    witness: EquilibriumCounterexample | None = None
    witness_gap: Value | None = None


def check_bundling_equilibrium(
    family: BundleFamily,
    profiles: Iterable[Profile],
    ties: tuple[TieBreak | None, ...] = (None, TieBreak.canonical()),
) -> EquilibriumVerdict:
    """Decide whether projection-reporting onto the family is stable.

    Quasi fields must show a zero gap on every generated profile for every
    buyer in every requested tie-break mode (None = adversarial); any nonzero
    gap there is an implementation error, not a counterexample.  For other
    families the constructed witness is returned together with its (strictly
    positive) adversarial gap.
    """
    classification = classify_family(family)
    if classification.is_quasi_field:
        checked = 0
        for profile in profiles:
            if max_profile_gap(family, profile, ties) != 0:
                raise InternalInvariantError("nonzero gap on a quasi field: engine bug")
            checked += 1
        return EquilibriumVerdict(consistent=True, profiles_checked=checked)
    witness = equilibrium_counterexample(family)
    gap = deviation_gap(family, witness.profile, witness.deviator, tie=None)
    if gap <= 0:
        raise InternalInvariantError("constructed counterexample has no gap")
    return EquilibriumVerdict(
        consistent=False, profiles_checked=0, witness=witness, witness_gap=gap
    )


# ---------------------------------------------------------------------------
# Profile generators


def disjoint_unanimity_families(
    universe: GoodsUniverse, max_buyers: int | None = None
) -> Iterator[tuple[Bundle, ...]]:
    """All unordered families of pairwise-disjoint nonempty bundles.

    Yields tuples of bundle masks, ordered by each bundle's lowest good; a
    good may also stay unused.  These are the supports of the unit-weight
    unanimity sweep.
    """
    m = universe.m
    blocks: list[int] = []

    def rec(g: int) -> Iterator[tuple[Bundle, ...]]:
        if g == m:
            yield tuple(blocks)
            return
        bit = 1 << g
        # good g stays with the seller
        yield from rec(g + 1)
        # good g joins an existing block
        for idx in range(len(blocks)):
            blocks[idx] |= bit
            yield from rec(g + 1)
            blocks[idx] ^= bit
        # good g opens a new block
        if max_buyers is None or len(blocks) < max_buyers:
            blocks.append(bit)
            yield from rec(g + 1)
            blocks.pop()

    for fam in rec(0):
        if fam:
            yield fam


def unanimity_profile(universe: GoodsUniverse, masks: Iterable[Bundle]) -> Profile:
    return Profile(
        universe, tuple(unanimity_valuation(universe, mask) for mask in masks)
    )


def disjoint_unanimity_profiles(
    universe: GoodsUniverse, max_buyers: int | None = None
) -> Iterator[Profile]:
    for masks in disjoint_unanimity_families(universe, max_buyers):
        yield unanimity_profile(universe, masks)


def singleton_profile(universe: GoodsUniverse) -> Profile:
    """m buyers, each wanting exactly one distinct good at unit value."""
    return unanimity_profile(universe, (1 << g for g in range(universe.m)))


def random_monotone_valuation(
    universe: GoodsUniverse, rng: random.Random, max_value: int = 9
) -> Valuation:
    """Dense valuation from random integer values, monotonized upward."""
    size = universe.full_mask + 1
    table = [rng.randint(0, max_value) for _ in range(size)]
    table[0] = _ZERO
    return Valuation(universe, table=tuple(submask_max(table)))


def random_monotone_profiles(
    universe: GoodsUniverse, n: int, count: int, seed: int
) -> Iterator[Profile]:
    rng = random.Random(seed)
    for _ in range(count):
        yield Profile(
            universe,
            tuple(random_monotone_valuation(universe, rng) for _ in range(n)),
        )


def random_quasi_field(universe: GoodsUniverse, rng: random.Random) -> BundleFamily:
    """Closure of a few random bundles: a random quasi field for the suites."""
    n_seeds = rng.randint(1, 3)
    seeds = {rng.randint(1, universe.full_mask) for _ in range(n_seeds)}
    return quasi_field_closure(BundleFamily.of(universe, seeds))


# ---------------------------------------------------------------------------
# Empirical inefficiency ratio


@dataclass(frozen=True)
class RatioEstimate:
    """A certified lower bound on the worst-case S_max/S_Sigma ratio."""

    ratio: Fraction
    profile: Profile | None


def empirical_ratio(
    family: BundleFamily, n: int, profiles: Iterable[Profile]
) -> RatioEstimate:
    """Max of S_max/S_Sigma over the generated profiles with <= n buyers.

    Exact for partition fields when the disjoint-unanimity sweep runs with
    n >= m; a lower bound otherwise.  All-zero profiles are skipped.
    """
    if family.universe.full_mask not in family.bundles:
        raise InvalidInputError("the ratio needs the all-goods bundle in the family")
    best = RatioEstimate(Fraction(1), None)
    for profile in profiles:
        if profile.n > n:
            continue
        if not any(v.nonzero() for v in profile.valuations):
            continue
        _, s_sigma = sigma_optimal_surplus(profile, family)
        if s_sigma == 0:
            raise InternalInvariantError(
                "nonzero profile with zero family surplus despite A in the family"
            )
        ratio = exact_ratio(max_surplus(profile), s_sigma)
        if ratio > best.ratio:
            best = RatioEstimate(ratio, profile)
    return best
