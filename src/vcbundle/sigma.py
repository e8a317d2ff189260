"""Algebra of bundle families: quasi-field/field predicates, the projection
of valuations onto a family, partition fields, closure, and the equilibrium
counterexample construction for families that are not quasi fields.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

from .core import (
    Allocation,
    Bundle,
    BundleFamily,
    BudgetExceededError,
    GoodsUniverse,
    InvalidInputError,
    Partition,
    Profile,
    Valuation,
    as_value,
    submask_max,
    unanimity_valuation,
    FAMILY_ENUM_GOODS_CAP,
)


@dataclass(frozen=True)
class FamilyClassification:
    is_quasi_field: bool
    is_field: bool
    # Exactly one of the two witnesses is set when is_quasi_field is False:
    # a bundle whose complement is missing, or a disjoint pair whose union is.
    missing_complement: Bundle | None = None
    missing_union: tuple[Bundle, Bundle] | None = None

    def __post_init__(self) -> None:
        if self.is_field and not self.is_quasi_field:
            raise InvalidInputError("a field is in particular a quasi field")
        has_witness = self.missing_complement is not None or self.missing_union is not None
        if has_witness == self.is_quasi_field:
            raise InvalidInputError("witness present iff the family is not a quasi field")


def classify_family(family: BundleFamily) -> FamilyClassification:
    """Check complement- and disjoint-union-closure, plus full field status
    (a partition field, recovered by ``partition_of_family``).

    The witness is minimal in canonical order: complements are scanned over
    bundles in ascending bitmask order first, then disjoint pairs (B, C) with
    B < C in lexicographic (B, C) order.
    """
    full = family.universe.full_mask
    bundles = family.sorted_bundles
    members = family.bundles
    for b in bundles:
        if (full ^ b) not in members:
            return FamilyClassification(False, False, missing_complement=b)
    for i, b in enumerate(bundles):
        for c in bundles[i + 1 :]:
            if b & c == 0 and (b | c) not in members:
                return FamilyClassification(False, False, missing_union=(b, c))
    # A finite family closed under complements, unions and intersections is
    # the field of the partition into its atoms.
    return FamilyClassification(True, partition_of_family(family) is not None)


def is_quasi_field(family: BundleFamily) -> bool:
    return classify_family(family).is_quasi_field


def field_of_partition(partition: Partition) -> BundleFamily:
    """All 2^k unions of parts, including the empty bundle and all goods."""
    return BundleFamily(partition.universe, frozenset(partition.unions))


# partition_of_family's results, None included.  Keys are held weakly, so an
# entry goes with its family; values must not refer to the family.
_PARTITIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_UNKNOWN = object()


def partition_of_family(family: BundleFamily) -> Partition | None:
    """Recover the generating partition if the family is a partition field.

    Recovery runs once per family; later calls on it, or on an equal family,
    read the result from a weakly keyed cache.
    """
    partition = _PARTITIONS.get(family, _UNKNOWN)
    if partition is _UNKNOWN:
        partition = _PARTITIONS[family] = _recover_partition(family)
    return partition


def _recover_partition(family: BundleFamily) -> Partition | None:
    """The candidate part of good g is the intersection of all members
    containing g; the family is a partition field iff those candidates are
    pairwise disjoint, every member is a union of them, and the family holds
    all 2^k unions.
    """
    universe = family.universe
    candidates = set()
    for g in range(universe.m):
        bit = 1 << g
        inter = None
        for b in family.bundles:
            if b & bit:
                inter = b if inter is None else inter & b
        if inter is None:
            return None  # no member contains g, so unions cannot cover A
        candidates.add(inter)
    parts = sorted(candidates, key=lambda p: p & -p)
    union = 0
    for part in parts:
        if union & part:
            return None
        union |= part
    # Good g's candidate holds g and lies inside every member holding g, so
    # the candidates cover all goods and every member is a union of them.
    if len(family) != 1 << len(parts):
        return None
    return Partition(universe, tuple(parts))


def _minimal_supersets(atom: Bundle, bundles) -> list[Bundle]:
    """The inclusion-minimal members of ``bundles`` that contain ``atom``;
    ``bundles`` must ascend, and so does the result.

    One pass: a proper subset has a smaller mask, so it comes first, and a
    superset is minimal iff no superset kept before it lies inside it.
    """
    kept = []
    for c in bundles:
        if c & atom == atom:
            for k in kept:
                if k & c == k:
                    break
            else:
                kept.append(c)
    return kept


def project_valuation(v: Valuation, family: BundleFamily) -> Valuation:
    """v^Σ(B) = max(0, max{v(C) : C ∈ Σ, C ⊆ B}).

    This holds as stated for any table, monotone and normalised or not; the
    table is not validated.  Dense in, dense out.  A single-atom (scaled
    unanimity) valuation projects losslessly to atoms on the minimal family
    supersets of its bundle, which works at any m.  Multi-atom sparse
    valuations go through a dense table.
    """
    if v.universe is not family.universe and v.universe != family.universe:
        raise InvalidInputError("valuation and family universes differ")
    if v.atoms is not None and len(v.atoms) < 2:
        # The minimal supersets ascend, so these atoms need no sort; an int
        # weight is already its own value.
        return Valuation(v.universe, atoms=tuple([
            (c, w if type(w) is int else as_value(w))
            for a, w in v.atoms for c in _minimal_supersets(a, family.sorted_bundles)
        ]))
    v = v.to_dense()
    # Seed the family members with their own values (at least 0), then take
    # submask maxima.
    table = [0] * (v.universe.full_mask + 1)
    for c in family.bundles:
        val = v.table[c]
        if val > table[c]:
            table[c] = val
    return Valuation(v.universe, table=tuple(submask_max(table)))


def project_profile(profile: Profile, family: BundleFamily) -> Profile:
    return Profile(
        profile.universe, tuple(project_valuation(v, family) for v in profile.valuations)
    )


def quasi_field_closure(family: BundleFamily) -> BundleFamily:
    """Smallest quasi field containing the family.

    Fixed point of alternately adding complements and disjoint unions; every
    added bundle is forced, so the result is minimal.
    """
    full = family.universe.full_mask
    current = set(family.bundles)
    changed = True
    while changed:
        changed = False
        for b in list(current):
            comp = full ^ b
            if comp not in current:
                current.add(comp)
                changed = True
        members = sorted(current)
        for i, b in enumerate(members):
            for c in members[i + 1 :]:
                if b & c == 0 and (b | c) not in current:
                    current.add(b | c)
                    changed = True
    return BundleFamily(family.universe, frozenset(current))


@dataclass(frozen=True)
class EquilibriumCounterexample:
    """Witness that a family fails to make projection-reporting stable.

    ``profile`` is built from unit unanimity valuations, ``deviator`` is the
    buyer (0-based) with a profitable deviation to truth, and ``allocation``
    is the adversarial tie-break outcome under which the deviator's utility
    from projection-reporting is 0 while truthful reporting yields 1.
    """

    family: BundleFamily
    profile: Profile
    deviator: int
    allocation: Allocation


def equilibrium_counterexample(family: BundleFamily) -> EquilibriumCounterexample:
    """Construct the deviation witness for a family that is not a quasi field.

    Complement failure at B: two buyers (w_{B^c}, w_B); the adversarial
    mechanism hands B to buyer 2 and leaves B^c with the seller.  Disjoint
    union failure at (B, C): three buyers (w_{(B|C)^c}, w_B, w_C); the
    mechanism serves buyers 2 and 3 and leaves the rest with the seller.
    """
    classification = classify_family(family)
    if classification.is_quasi_field:
        raise InvalidInputError("quasi fields admit no counterexample")
    universe = family.universe
    full = universe.full_mask
    if classification.missing_complement is not None:
        b = classification.missing_complement
        profile = Profile(
            universe,
            (
                unanimity_valuation(universe, full ^ b),
                unanimity_valuation(universe, b),
            ),
        )
        allocation = Allocation(universe, (0, b))
        return EquilibriumCounterexample(family, profile, 0, allocation)
    b, c = classification.missing_union
    profile = Profile(
        universe,
        (
            unanimity_valuation(universe, full ^ (b | c)),
            unanimity_valuation(universe, b),
            unanimity_valuation(universe, c),
        ),
    )
    allocation = Allocation(universe, (0, b, c))
    return EquilibriumCounterexample(family, profile, 0, allocation)


def enumerate_families(universe: GoodsUniverse, max_bundles: int | None = None):
    """All bundle families over the universe (optionally capped in size).

    Exponential in 2^m; intended for m <= 4 test sweeps.
    """
    m = universe.m
    if m > FAMILY_ENUM_GOODS_CAP:
        raise BudgetExceededError(
            f"family enumeration capped at m <= {FAMILY_ENUM_GOODS_CAP} goods, got m = {m}"
        )
    nonempty = list(range(1, universe.full_mask + 1))
    limit = len(nonempty) if max_bundles is None else min(max_bundles - 1, len(nonempty))

    def rec(start: int, chosen: list[Bundle]):
        yield BundleFamily.of(universe, chosen)
        if len(chosen) == limit:
            return
        for idx in range(start, len(nonempty)):
            chosen.append(nonempty[idx])
            yield from rec(idx + 1, chosen)
            chosen.pop()

    yield from rec(0, [])
