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
    validate_valuation,
)
from .sigma import (
    EquilibriumCounterexample,
    classify_family,
    equilibrium_counterexample,
    project_profile,
    quasi_field_closure,
)
from .auction import max_surplus, sigma_optimal_surplus


def deviation_gap(family: BundleFamily, profile: Profile, buyer: int) -> Value:
    """Utility a buyer forgoes by projection-reporting instead of the truth,
    while everyone else reports their projection onto the family.

    Under pivot payments that is S(hybrid) - S(the mechanism's pick), the
    hybrid being the projected profile with the buyer's true valuation.  On
    monotone valuations every tie rule's pick can be shrunk to family
    bundles, where the projection is exact, so under every tie rule the gap
    is S(hybrid) - S(projected) >= 0.  A dense valuation that fails
    ``validate_valuation`` is invalid input.
    """
    if not 0 <= buyer < profile.n:
        raise InvalidInputError("buyer index out of range")
    return _max_gap(family, profile, (buyer,))


def max_profile_gap(family: BundleFamily, profile: Profile) -> Value:
    """Largest deviation gap over all buyers (see ``deviation_gap``)."""
    return _max_gap(family, profile, range(profile.n))


def _max_gap(family: BundleFamily, profile: Profile, buyers) -> Value:
    """Largest S(hybrid) - S(projected) over ``buyers``; a buyer whose
    valuation equals its projection has gap 0 without a solve."""
    for i, v in enumerate(profile.valuations):
        report = validate_valuation(v)
        if not report.ok:
            raise InvalidInputError(f"the deviation gap needs valid valuations; buyer {i + 1}: {report.reason}")
    projected = project_profile(profile, family)
    restricted = max_surplus(projected)
    worst = 0
    for i in buyers:
        if projected.valuations[i] == profile.valuations[i]:
            continue
        gap = max_surplus(projected.replace(i, profile.valuations[i])) - restricted
        if gap < 0:
            raise InternalInvariantError("deviation gap must be nonnegative")
        worst = max(worst, gap)
    return worst


@dataclass(frozen=True)
class EquilibriumVerdict:
    consistent: bool
    profiles_checked: int
    witness: EquilibriumCounterexample | None = None
    witness_gap: Value | None = None


def check_bundling_equilibrium(
    family: BundleFamily, profiles: Iterable[Profile]
) -> EquilibriumVerdict:
    """Decide whether projection-reporting onto the family is stable.

    Quasi fields must show a zero gap (which no tie rule changes, see
    ``deviation_gap``) on every generated profile for every buyer; any
    nonzero gap there is an implementation error, not a counterexample.  For
    other families the constructed witness, whose ``allocation`` is the
    certifying adversarial tie-break outcome, is returned together with its
    (strictly positive) gap.
    """
    classification = classify_family(family)
    if classification.is_quasi_field:
        checked = 0
        for profile in profiles:
            if max_profile_gap(family, profile) != 0:
                raise InternalInvariantError("nonzero gap on a quasi field: engine bug")
            checked += 1
        return EquilibriumVerdict(consistent=True, profiles_checked=checked)
    witness = equilibrium_counterexample(family)
    gap = deviation_gap(family, witness.profile, witness.deviator)
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
    table[0] = 0
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
