"""Pivot-payment auction engine.

Winner determination is exact and deterministic: a dense dynamic program over
(buyer suffix, remaining-goods subset) for table-backed profiles, and the
memoised atom-packing kernel of ``core.AtomPacking`` when every valuation is
sparse.
Tie-breaking among surplus-optimal allocations is an explicit, deterministic
rule because the equilibrium analysis needs "there exists a mechanism that
picks this optimum" as an operation.  Both routes fold the rule into one
exact integer objective, value first and tie key second; only adversarial
with a multi-atom buyer walks the optimal packings, under a node budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from operator import add, getitem

from .core import (
    Allocation,
    AtomPacking,
    Bundle,
    BundleFamily,
    BudgetExceededError,
    GoodsUniverse,
    InternalInvariantError,
    InvalidInputError,
    Partition,
    Profile,
    Valuation,
    Value,
    max_packing,
    submask_max,
    DENSE_GOODS_CAP,
    TIE_WALK_NODES_CAP,
)
from .sigma import _minimal_supersets, partition_of_family


@dataclass(frozen=True)
class TieBreak:
    """Deterministic selection among surplus-optimal allocations.

    * canonical: lexicographically smallest (buyer_1, ..., buyer_n) bundle
      tuple; surplus-irrelevant goods stay with the seller.
    * seller: first maximize the goods the seller retains, then canonical.
    * adversarial(i): first minimize the surplus of a reference profile
      (the analysis passes buyer i's true-valuation profile), then canonical.
    """

    kind: str = "canonical"
    buyer: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("canonical", "seller", "adversarial"):
            raise InvalidInputError(f"unknown tie-break kind {self.kind!r}")
        if (self.kind == "adversarial") != (self.buyer is not None):
            raise InvalidInputError("adversarial tie-break needs a buyer index")

    @staticmethod
    def canonical() -> "TieBreak":
        return TieBreak("canonical")

    @staticmethod
    def seller_favoring() -> "TieBreak":
        return TieBreak("seller")

    @staticmethod
    def adversarial_to(buyer: int) -> "TieBreak":
        return TieBreak("adversarial", buyer)


def _tie_costs(profile: Profile, tie: TieBreak, reference: Profile | None):
    """Per-buyer tie cost of a bundle, minimized among surplus-optimal
    allocations before the canonical order decides.

    None when the tie rule has no cost (canonical).  Summed over the buyers'
    disjoint bundles, seller's cost is the number of goods allocated and
    adversarial's is the reference profile's surplus.
    """
    if tie.kind == "canonical":
        return None
    if tie.kind == "seller":
        return [int.bit_count] * profile.n
    if reference is None:
        raise InvalidInputError("adversarial tie-break needs a reference profile")
    if reference.n != profile.n or reference.universe != profile.universe:
        raise InvalidInputError("reference profile shape mismatch")
    return [v.value for v in reference.valuations]


def _dense_tables(profile: Profile) -> list:
    return [v.to_dense().table for v in profile.valuations]


def _dense_rows(tables):
    """Subset DP over (buyer suffix, goods subset) (Rothkopf, Pekec & Harstad
    1998) on per-buyer tables indexed by bundle mask: ``rows[i][S]`` is the
    best buyers i.. achieve on goods S.

    Only the middle rows take the 3^m pass.  The last buyer's row is a
    submask maximum (m * 2^m steps), and row 0 is needed at the full goods
    set only (2^m steps), so it is the one-entry mapping ``{full: best}``.
    """
    size = len(tables[0])
    rows = [[0] * size]
    if len(tables) > 1:
        rows.insert(0, submask_max(tables[-1]))
    for vals in tables[-2:0:-1]:
        nxt = rows[0]
        cur = []
        for s in range(size):
            best = vals[0] + nxt[s]  # buyer takes nothing
            t = s
            while t:
                cand = vals[t] + nxt[s ^ t]
                if cand > best:
                    best = cand
                t = (t - 1) & s
            cur.append(best)
        rows.insert(0, cur)
    # Buyer 0 takes T and the rest share full ^ T, which is index T of the
    # reversed row.
    rows.insert(0, {size - 1: max(map(add, tables[0], reversed(rows[0])))})
    return rows


def _folded(tables, cost_tables):
    """Each table as the exact integers v(T)*D*K - c(T)*D: D clears every
    value and cost denominator and K exceeds the spread of any total cost
    times D, so one plain maximisation ranks value first, tie cost second."""
    d = math.lcm(*{x.denominator for table in (*tables, *cost_tables) for x in table})
    dk = d * (1 + sum((max(c) - min(c)) * d for c in cost_tables))
    return [[(v * dk).numerator - (c * d).numerator for v, c in zip(t, ct)] for t, ct in zip(tables, cost_tables)]


def _dense_solve(profile: Profile, tie: TieBreak, reference: Profile | None):
    costs = _tie_costs(profile, tie, reference)
    tables = _dense_tables(profile)
    weights = tables
    if costs is not None:
        # A reference profile is tabulated whole, one pass per buyer.
        if tie.kind == "adversarial":
            cost_tables = _dense_tables(reference)
        else:
            cost_tables = [list(map(cost, range(len(tables[0])))) for cost in costs]
        weights = _folded(tables, cost_tables)
    rows = _dense_rows(weights)
    full = profile.universe.full_mask

    # Reconstruct: per buyer in order, the smallest bundle preserving the optimum.
    masks = []
    s = full
    for vals, target_row, nxt in zip(weights, rows, rows[1:]):
        target = target_row[s]
        t = 0
        while vals[t] + nxt[s ^ t] != target:  # submasks of s in ascending order
            if t == s:
                raise InternalInvariantError("dense reconstruction lost the optimum")
            t = (t - s) & s
        masks.append(t)
        s ^= t
    value = rows[0][full] if costs is None else sum(map(getitem, tables, masks))
    return Allocation(profile.universe, tuple(masks)), value


def _atom_list(profile: Profile):
    atoms = []
    for i, v in enumerate(profile.valuations):
        for mask, weight in v.atoms:
            if mask and weight > 0:
                atoms.append((i, mask, weight))
    return atoms


def _keyed_atoms(atoms, n: int, costs) -> list[tuple[Bundle, int]]:
    """(mask, w*D*K - key) per atom, where the keys of a packing add up to a
    number that orders packings as the tie rule does: the tie cost
    c_i(a) - c_i(empty), cleared of denominators, above the canonical
    digits.  Buyer i's digit, as wide as the highest good its atoms cover,
    holds their masks as they are, with buyer 0's digit highest.  The tie
    cost is additive: seller's is the goods count, and adversarial comes
    here only when no buyer has two live atoms.  D clears the weights'
    denominators and K exceeds the difference between any two packings'
    keys."""
    covers = [0] * n
    for i, mask, _ in atoms:
        covers[i] |= mask
    offsets = [0] * n
    width = 0
    for i in range(n - 1, -1, -1):
        offsets[i] = width
        width += covers[i].bit_length()
    ties = [0] * len(atoms)
    if costs is not None:
        extra = [costs[i](mask) - costs[i](0) for i, mask, _ in atoms]
        d = math.lcm(*{x.denominator for x in extra})
        ties = [(x * d).numerator << width for x in extra]
    dk = math.lcm(*{w.denominator for _, _, w in atoms}) * ((1 << width) + sum(map(abs, ties)))
    return [(mask, (w * dk).numerator - tie - (mask << offsets[i])) for (i, mask, w), tie in zip(atoms, ties)]


def _sparse_solve(profile: Profile, tie: TieBreak, reference: Profile | None):
    atoms = _atom_list(profile)
    costs = _tie_costs(profile, tie, reference)
    full = profile.universe.full_mask
    if tie.kind == "adversarial" and len({i for i, _, _ in atoms}) < len(atoms):
        # A multi-atom buyer's reference value is not additive over its atoms.
        packing = AtomPacking([(mask, w) for _, mask, w in atoms])
        buyers = [atoms[i][0] for i in packing.order]
        costs = [cache(cost) for cost in costs]  # leaves repeat (buyer, bundle) pairs
        optimum = packing.best(0, full)
        _, masks = _least_optimum(packing, buyers, costs, 0, full, optimum, [0] * profile.n, [0])
        return Allocation(profile.universe, masks), optimum

    # Read the one optimal bundle tuple back in a forward pass: an atom is
    # taken exactly when it fits and the optimum stays reachable.
    packing = AtomPacking(_keyed_atoms(atoms, profile.n, costs))
    need = packing.best(0, full)
    free = full
    masks = [0] * profile.n
    value = 0
    for j, (mask, weight, index) in enumerate(zip(packing.masks, packing.weights, packing.order)):
        if mask & free == mask and need:
            rest = packing.best(j + 1, free ^ mask)
            if weight + rest == need:
                i, _, w = atoms[index]
                masks[i] |= mask
                value += w
                free ^= mask
                need = rest
    return Allocation(profile.universe, tuple(masks)), value


def _least_optimum(packing: AtomPacking, buyers, costs, j: int, free: int, need: Value, masks, nodes):
    """(key, buyer masks) of the optimal leaf below atom j that is least in
    key = (reference surplus, bundle tuple).

    ``need`` is the weight atoms j.. must still add inside ``free``; a child
    is entered only when its exact value V meets it, so every leaf reached
    is optimal.  Once ``need`` is 0 the remaining (positive) atoms are all
    left out.  A leaf's key is None until it meets another leaf, so a walk
    with one optimum computes none.  ``nodes[0]`` counts the nodes entered.
    """
    nodes[0] += 1
    if nodes[0] > TIE_WALK_NODES_CAP:
        raise BudgetExceededError(
            f"adversarial tie walk capped at {TIE_WALK_NODES_CAP} nodes, reached {nodes[0]}"
        )
    if not need:
        return None, tuple(masks)
    best = None
    mask = packing.masks[j]
    weight = packing.weights[j]
    if mask & free == mask and weight + packing.best(j + 1, free ^ mask) == need:
        buyer = buyers[j]
        masks[buyer] |= mask
        best = _least_optimum(packing, buyers, costs, j + 1, free ^ mask, need - weight, masks, nodes)
        masks[buyer] ^= mask
    if packing.best(j + 1, free) == need:
        leaf = _least_optimum(packing, buyers, costs, j + 1, free, need, masks, nodes)
        if best is not None:
            best, leaf = _keyed(costs, best), _keyed(costs, leaf)
        if best is None or leaf[0] < best[0]:
            best = leaf
    return best


def _keyed(costs, leaf):
    """A walk leaf with its key (reference surplus, bundle tuple) filled in."""
    key, masks = leaf
    return key or (sum(cost(b) for cost, b in zip(costs, masks)), masks), masks


def max_surplus(profile: Profile) -> Value:
    """Optimal surplus over all allocations (value only, tie-break free)."""
    if profile.all_sparse:
        atoms = _atom_list(profile)
        return max_packing([(mask, w) for _, mask, w in atoms], profile.universe.full_mask)
    return _dense_rows(_dense_tables(profile))[0][profile.universe.full_mask]


def optimal_allocation(
    profile: Profile,
    tie: TieBreak | None = None,
    reference: Profile | None = None,
) -> tuple[Allocation, Value]:
    """A surplus-maximizing allocation chosen by the tie rule, plus S_max."""
    tie = tie or TieBreak.canonical()
    if profile.all_sparse:
        return _sparse_solve(profile, tie, reference)
    return _dense_solve(profile, tie, reference)


def _expand_parts(meta_mask: int, parts: tuple[Bundle, ...]) -> Bundle:
    union = 0
    rest = meta_mask
    while rest:
        low = rest & -rest
        union |= parts[low.bit_length() - 1]
        rest ^= low
    return union


def _meta_valuation(v: Valuation, parts: tuple[Bundle, ...], meta_universe: GoodsUniverse) -> Valuation:
    table = tuple(v.value(_expand_parts(meta, parts)) for meta in range(1 << len(parts)))
    return Valuation(meta_universe, table=table)


def _partition_surplus(profile: Profile, partition: Partition) -> tuple[Allocation, Value]:
    parts = partition.parts
    if partition.k > DENSE_GOODS_CAP:
        raise BudgetExceededError(
            f"meta-good reduction capped at k <= {DENSE_GOODS_CAP} parts, got k = {partition.k}"
        )
    meta_universe = GoodsUniverse.of_size(partition.k)
    meta_profile = Profile(
        meta_universe,
        tuple(_meta_valuation(v, parts, meta_universe) for v in profile.valuations),
    )
    meta_alloc, value = _dense_solve(meta_profile, TieBreak.canonical(), None)
    masks = tuple(_expand_parts(meta, parts) for meta in meta_alloc.buyer_bundles)
    return Allocation(profile.universe, masks), value


def sigma_optimal_surplus(profile: Profile, family: BundleFamily) -> tuple[Allocation, Value]:
    """Best surplus over allocations whose buyer bundles all lie in the family.

    The seller's remainder is unconstrained (padding with the empty bundle
    and free disposal make it surplus-irrelevant).  Partition-generated
    families reduce to a k-meta-good winner determination; other families run
    one memoised search over family bundles that keeps the least optimal
    bundle tuple.
    """
    if family.universe != profile.universe:
        raise InvalidInputError("profile and family universes differ")
    partition = partition_of_family(family)
    if partition is not None:
        return _partition_surplus(profile, partition)

    bundles = [b for b in family.sorted_bundles if b]
    options = []
    for v in profile.valuations:
        # A single-atom buyer never needs more than the inclusion-minimal
        # family supersets of the atom: any available superset contains an
        # available minimal one of no larger mask, so the optimum and the
        # least optimal tuple are both unchanged.  A buyer with no live atom
        # is worth 0 everywhere.
        candidates = bundles
        if v.atoms is not None:
            live = [a for a, w in v.atoms if a and w]
            if len(live) < 2:
                candidates = _minimal_supersets(live[0], bundles) if live else []
        # A bundle worth 0 or less never beats the empty bundle, because the
        # search is monotone in ``free``.
        options.append([(c, w) for c in candidates if (w := v.value(c)) > 0])
    total, masks = _family_search(0, profile.universe.full_mask, options, {})
    return Allocation(profile.universe, masks), total


def _family_search(i: int, free: Bundle, options, memo) -> tuple[Value, tuple[Bundle, ...]]:
    """(best surplus of buyers i.. on family bundles inside ``free``, the
    least bundle tuple that reaches it).

    ``options[i]`` lists buyer i's (bundle, value) pairs in ascending mask
    order.  The empty bundle is tried first and an option is taken only when
    it is strictly better, so the first bundle that reaches the optimum
    wins, followed by the least tuple of the state it leaves.
    """
    if i == len(options):
        return 0, ()
    key = (i, free)
    got = memo.get(key)
    if got is None:
        best, tail = _family_search(i + 1, free, options, memo)
        pick = 0
        for c, w in options[i]:
            if c & free == c:
                value, rest = _family_search(i + 1, free ^ c, options, memo)
                cand = w + value
                if cand > best:
                    best, pick, tail = cand, c, rest
        got = memo[key] = best, (pick, *tail)
    return got


@dataclass(frozen=True)
class AuctionOutcome:
    allocation: Allocation
    payments: tuple[Value, ...]
    surplus: Value
    revenue: Value
    utilities: tuple[Value, ...]

    def __post_init__(self) -> None:
        if any(p < 0 for p in self.payments):
            raise InternalInvariantError("pivot payments must be nonnegative")
        if self.revenue != sum(self.payments):
            raise InternalInvariantError("revenue must equal total payments")


def _payment(without: Value, others_at: Value) -> Value:
    """A pivot payment: ``without``, the best surplus the others achieve
    among themselves, minus ``others_at``, their value at the allocation."""
    payment = without - others_at
    if payment < 0:
        raise InternalInvariantError("pivot payment came out negative")
    return payment


def _payment_at(profile: Profile, i: int, others_at: Value) -> Value:
    rest = profile.drop(i)
    return _payment(0 if rest is None else max_surplus(rest), others_at)


def _sparse_payments(profile: Profile, values, total: Value) -> tuple[Value, ...]:
    """Every buyer's pivot payment on an all-sparse profile, with the
    drop-one optima read from one packing whose memo all of them share.

    Atom j carries a private tag bit above the goods, so leaving buyer i's
    tags out of ``free`` packs the others only, and past the dropped
    buyers' last atoms the solves meet the same memo keys.  A buyer valued
    0 at the allocation pays 0 with no solve: a sparse valuation is 0 on
    the empty bundle and never negative, so the others' best without it is
    the total.
    """
    atoms = _atom_list(profile)
    m = profile.universe.m
    tags = [0] * profile.n
    for j, (i, _, _) in enumerate(atoms):
        tags[i] |= 1 << (m + j)
    packing = AtomPacking([(mask | 1 << (m + j), w) for j, (_, mask, w) in enumerate(atoms)])
    free = profile.universe.full_mask | sum(tags)
    return tuple(
        _payment(packing.best(0, free ^ tag) if value else total, total - value)
        for tag, value in zip(tags, values)
    )


def _values_at(profile: Profile, allocation: Allocation) -> tuple[Value, ...]:
    return tuple(
        v.value(mask) for v, mask in zip(profile.valuations, allocation.buyer_bundles)
    )


def clarke_payment(
    profile: Profile,
    i: int,
    tie: TieBreak | None = None,
    reference: Profile | None = None,
) -> Value:
    """Externality payment of buyer i at the tie-chosen optimal allocation."""
    allocation, _ = optimal_allocation(profile, tie, reference)
    values = _values_at(profile, allocation)
    return _payment_at(profile, i, sum(values) - values[i])


def run_vc(
    reported: Profile,
    tie: TieBreak | None = None,
    true_profile: Profile | None = None,
) -> AuctionOutcome:
    """Full outcome of the mechanism on the reported profile.

    Utilities (and the surplus field) are measured against ``true_profile``
    when supplied, else against the reports themselves.
    """
    tie = tie or TieBreak.canonical()
    reference = None
    if tie.kind == "adversarial":
        reference = true_profile if true_profile is not None else reported
    allocation, reported_surplus = optimal_allocation(reported, tie, reference)
    values = _values_at(reported, allocation)
    total = sum(values)
    if reported.all_sparse:
        payments = _sparse_payments(reported, values, total)
    else:
        payments = tuple(_payment_at(reported, i, total - v) for i, v in enumerate(values))
    if true_profile is not None:
        if true_profile.n != reported.n or true_profile.universe != reported.universe:
            raise InvalidInputError("true profile shape mismatch")
        values = _values_at(true_profile, allocation)
    surplus = sum(values)
    revenue = sum(payments)
    utilities = tuple(val - pay for val, pay in zip(values, payments))
    if true_profile is None:
        if surplus != reported_surplus:
            raise InternalInvariantError("chosen allocation is not surplus-optimal")
        if revenue > surplus:
            raise InternalInvariantError("truthful revenue exceeded surplus")
    return AuctionOutcome(allocation, payments, surplus, revenue, utilities)
