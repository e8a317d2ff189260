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
from fractions import Fraction
from operator import add, getitem

from .core import (
    Allocation,
    AtomPacking,
    Bundle,
    BundleFamily,
    BudgetExceededError,
    InternalInvariantError,
    InvalidInputError,
    Partition,
    Profile,
    Value,
    as_value,
    max_packing,
    submask_max,
    table_size,
    FAMILY_SEARCH_STEPS_CAP,
    TIE_WALK_NODES_CAP,
)
from .sigma import _minimal_supersets, partition_of_family


@dataclass(frozen=True)
class TieBreak:
    """Deterministic selection among surplus-optimal allocations.

    * canonical: lexicographically smallest (buyer_1, ..., buyer_n) bundle
      tuple; surplus-irrelevant goods stay with the seller.
    * seller: first maximize the goods the seller retains, then canonical.
    * adversarial(i): first minimize the surplus of a reference profile,
      then canonical.  The index i does not enter the rule; the CLI only
      checks that it names a buyer.  Without a true profile the reference
      is the reports themselves, whose surplus is the optimum at every
      surplus-optimal allocation, so the outcome is the canonical one.
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
    if reference.n != profile.n or reference.universe is not profile.universe and reference.universe != profile.universe:
        raise InvalidInputError("reference profile shape mismatch")
    return [v.value for v in reference.valuations]


def _dense_tables(profile: Profile) -> tuple[list, tuple | None]:
    """Per-buyer tables, and the last buyer's table again when it is
    monotone: it is then its own submask maximum, the DP's last row."""
    dense = [v.to_dense() for v in profile.valuations]
    return [v.table for v in dense], dense[-1].table if dense[-1]._monotone else None


def _strict_options(vals):
    """The nonempty bundles T with ``vals[T] > vals[T - g]`` for every good g
    in T, in ascending mask order, or None when the push pass over them
    (2^(m - |T|) steps each) would not take under half the 3^m pull pass.

    They include every bundle worth more than all of its proper subsets,
    the support of an XOR bid (Nisan 2000).  Against a monotone row, any
    bundle is matched by such a subset of it, so a DP row maximised over
    them alone is unchanged.
    """
    size = len(vals)
    limit = (3 ** (size.bit_length() - 1) + 1) // 2
    cost = 0
    options = []
    for t in range(1, size):
        v = vals[t]
        rest = t
        while rest:
            low = rest & -rest
            if vals[t ^ low] >= v:
                break
            rest ^= low
        else:
            cost += size >> t.bit_count()
            if cost >= limit:
                return None
            options.append(t)
    return options


def _dense_rows(tables, options=None, last=None):
    """Subset DP over (buyer suffix, goods subset) (Rothkopf, Pekec & Harstad
    1998) on per-buyer tables indexed by bundle mask: ``rows[i][S]`` is the
    best buyers i.. achieve on goods S.

    Only the middle rows take more than O(m * 2^m) steps.  The last buyer's
    row is a submask maximum (m * 2^m steps) unless the caller passes it as
    ``last``, and row 0 is needed at the full goods set only (2^m steps),
    so it is the one-entry mapping ``{full: best}``.
    ``options`` holds one ``_strict_options`` result per middle buyer, in
    buyer order: with a list, the middle row pushes each listed bundle T
    into every S = T | U for U inside the goods outside T; with None (or no
    ``options``), it pulls over all 3^m pairs of S and its submasks.  Every
    row is monotone, so both passes give the same row.
    """
    size = len(tables[0])
    full = size - 1
    rows = [[0] * size]
    if len(tables) > 1:
        rows.insert(0, submask_max(tables[-1]) if last is None else last)
    options = options or [None] * (len(tables) - 2)
    for vals, opts in zip(tables[-2:0:-1], options[::-1]):
        nxt = rows[0]
        if opts is None:
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
        else:
            empty = vals[0]
            cur = [empty + x for x in nxt]  # buyer takes nothing
            for t in opts:
                v = vals[t]
                rest = full ^ t
                u = rest
                while True:
                    cand = v + nxt[u]
                    if cand > cur[t | u]:
                        cur[t | u] = cand
                    if not u:
                        break
                    u = (u - 1) & rest
        rows.insert(0, cur)
    # Buyer 0 takes T and the rest share full ^ T, which is index T of the
    # reversed row.
    rows.insert(0, {full: max(map(add, tables[0], reversed(rows[0])))})
    return rows


def _folded(tables, cost_tables):
    """Each table as the exact integers v(T)*D*K - c(T)*D: D clears every
    value and cost denominator and K exceeds the spread of any total cost
    times D, so one plain maximisation ranks value first, tie cost second."""
    d = math.lcm(*{x.denominator for table in (*tables, *cost_tables) for x in table})
    dk = d * (1 + sum((max(c) - min(c)) * d for c in cost_tables))
    return [[(v * dk).numerator - (c * d).numerator for v, c in zip(t, ct)] for t, ct in zip(tables, cost_tables)]


def _least_tuple(tables, options=None, last=None) -> list[Bundle]:
    """The least bundle tuple that maximises the sum of the per-buyer
    tables: per buyer in order, the smallest bundle preserving the optimum
    of ``_dense_rows`` (which ``options`` and ``last`` are passed to)."""
    rows = _dense_rows(tables, options, last)
    masks = []
    s = len(tables[0]) - 1
    for vals, target_row, nxt in zip(tables, rows, rows[1:]):
        target = target_row[s]
        t = 0
        while vals[t] + nxt[s ^ t] != target:  # submasks of s in ascending order
            if t == s:
                raise InternalInvariantError("dense reconstruction lost the optimum")
            t = (t - s) & s
        masks.append(t)
        s ^= t
    return masks


def _dense_solve(profile: Profile, tie: TieBreak, reference: Profile | None):
    costs = _tie_costs(profile, tie, reference)
    tables, last = _dense_tables(profile)
    weights = tables
    if costs is not None:
        # A reference profile is tabulated whole, one pass per buyer.
        if tie.kind == "adversarial":
            cost_tables = [v.to_dense().table for v in reference.valuations]
        else:
            cost_tables = [list(map(cost, range(len(tables[0])))) for cost in costs]
        weights, last = _folded(tables, cost_tables), None  # folded weights are swept
    masks = _least_tuple(weights, [_strict_options(vals) for vals in weights[1:-1]], last)
    return Allocation(profile.universe, tuple(masks)), as_value(sum(map(getitem, tables, masks)))


def _keyed_atoms(atoms, n: int, costs):
    """(mask, w*D*K - key) per atom, where the keys of a packing add up to a
    number that orders packings as the tie rule does: the tie cost
    c_i(a) - c_i(empty), cleared of denominators, above the canonical
    digits.  Buyer i's digit, as wide as the highest good its atoms cover,
    holds their masks as they are, with buyer 0's digit highest.  The tie
    cost is additive: seller's is the goods count, and adversarial comes
    here only when no buyer has two live atoms.  D clears the weights'
    denominators and K exceeds the difference between any two packings'
    keys.

    Also returns ``plain``, which maps a keyed packing total back to the
    packing's plain weight W exactly: the keys of any packing lie in
    [-N, K - N), N the sum of the negative tie terms (0 unless a reference
    is not monotone), so W*D = ceil((total - N) / K)."""
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
    d = math.lcm(*{w.denominator for _, _, w in atoms})
    k = (1 << width) + sum(map(abs, ties))
    dk = d * k
    low = -sum(tie for tie in ties if tie < 0)

    def plain(total):
        wd = -((low - total) // k)
        return wd if d == 1 else as_value(Fraction(wd, d))

    keyed = [(mask, (w * dk).numerator - tie - (mask << offsets[i])) for (i, mask, w), tie in zip(atoms, ties)]
    return keyed, plain


def _sparse_solve(profile: Profile, tie: TieBreak, reference: Profile | None, drop_one: bool = False):
    """(allocation, each buyer's value at it, drop-one optima) from one
    packing of the profile's atoms.  A buyer's value at an optimal packing
    is the sum of its taken atoms, or a better packing inside its bundle
    would beat it.

    With ``drop_one``, one ``best_without`` pass over the packing gives
    entry i the best surplus without buyer i, and entry n, a slot that
    holds no atom, S_max; the reconstruction's ``best`` then reads V(j,
    free) from that pass's states.  Otherwise the entries are all 0.
    """
    atoms = [(i, mask, weight) for i, v in enumerate(profile.valuations) for mask, weight in v.atoms]
    costs = _tie_costs(profile, tie, reference)
    n = profile.n
    full = profile.universe.full_mask
    # A multi-atom buyer's reference value is not additive over its atoms.
    walk = tie.kind == "adversarial" and len({i for i, _, _ in atoms}) < len(atoms)
    if walk:
        packing = AtomPacking([(mask, w) for _, mask, w in atoms])
        plain = as_value
    else:
        keyed, plain = _keyed_atoms(atoms, n, costs)
        packing = AtomPacking(keyed)
    without = [0] * (n + 1)  # every optimum of a profile with no atom
    if drop_one and atoms:
        without = list(map(plain, packing.best_without([i for i, _, _ in atoms], full, n + 1)))
    need = packing.best(0, full)
    if walk:
        buyers = [atoms[k][0] for k in packing.order]
        _, masks, values = _least_optimum(
            packing, buyers, costs, {}, 0, full, need, [0] * n, [0] * n, [0]
        )
    else:
        # Read the one optimal bundle tuple back in a forward pass: an atom
        # is taken exactly when it fits and the optimum stays reachable.
        free = full
        masks = [0] * n
        values = [0] * n
        for j, (mask, weight, index) in enumerate(zip(packing.masks, packing.weights, packing.order)):
            if mask & free == mask and need:
                rest = packing.best(j + 1, free ^ mask)
                if weight + rest == need:
                    i, _, w = atoms[index]
                    masks[i] |= mask
                    values[i] += w
                    free ^= mask
                    need = rest
    return Allocation(profile.universe, tuple(masks)), values, without


def _least_optimum(
    packing: AtomPacking, buyers, costs, seen, j: int, free: int, need: Value, masks, worth, nodes
):
    """(key, buyer masks, buyer values) of the optimal leaf below atom j
    that is least in key = (reference surplus, bundle tuple).

    ``packing.best(j, free)`` is V; ``need`` is the weight atoms j.. must
    still add inside ``free``, and a child is entered only when its exact V
    meets it, so every leaf reached is optimal.  Once ``need``
    is 0 the remaining (positive) atoms are all left out.  ``masks`` and
    ``worth`` hold each buyer's taken atoms so far.  A leaf's key is None
    until it meets another leaf, so a walk with one optimum computes none;
    ``seen`` holds each (buyer, bundle) cost computed.  ``nodes[0]`` counts
    the nodes entered.
    """
    nodes[0] += 1
    if nodes[0] > TIE_WALK_NODES_CAP:
        raise BudgetExceededError(
            f"adversarial tie walk capped at {TIE_WALK_NODES_CAP} nodes, reached {nodes[0]}"
        )
    if not need:
        return None, tuple(masks), tuple(worth)
    best = None
    mask = packing.masks[j]
    weight = packing.weights[j]
    args = packing, buyers, costs, seen, j + 1
    if mask & free == mask and weight + packing.best(j + 1, free ^ mask) == need:
        buyer = buyers[j]
        masks[buyer] |= mask
        worth[buyer] += weight
        best = _least_optimum(*args, free ^ mask, need - weight, masks, worth, nodes)
        masks[buyer] ^= mask
        worth[buyer] -= weight
    if packing.best(j + 1, free) == need:
        leaf = _least_optimum(*args, free, need, masks, worth, nodes)
        if best is not None:
            best, leaf = _keyed(costs, seen, best), _keyed(costs, seen, leaf)
        if best is None or leaf[0] < best[0]:
            best = leaf
    return best


def _keyed(costs, seen, leaf):
    """A walk leaf with its key (reference surplus, bundle tuple) filled in;
    leaves repeat (buyer, bundle) pairs, so ``seen`` keeps their costs."""
    key, masks, worth = leaf
    if key is None:
        total = 0
        for pair in enumerate(masks):
            cost = seen.get(pair)
            if cost is None:
                cost = seen[pair] = costs[pair[0]](pair[1])
            total += cost
        key = total, masks
    return key, masks, worth


def max_surplus(profile: Profile) -> Value:
    """Optimal surplus over all allocations (value only, tie-break free)."""
    if profile.all_sparse:
        atoms = [atom for v in profile.valuations for atom in v.atoms]
        return as_value(max_packing(atoms, profile.universe.full_mask))
    tables, last = _dense_tables(profile)
    rows = _dense_rows(tables, [_strict_options(vals) for vals in tables[1:-1]], last)
    return as_value(rows[0][profile.universe.full_mask])


def optimal_allocation(
    profile: Profile,
    tie: TieBreak | None = None,
    reference: Profile | None = None,
) -> tuple[Allocation, Value]:
    """A surplus-maximizing allocation chosen by the tie rule, plus S_max."""
    tie = tie or TieBreak.canonical()
    if profile.all_sparse:
        allocation, values, _ = _sparse_solve(profile, tie, reference)
        return allocation, as_value(sum(values))
    return _dense_solve(profile, tie, reference)


def _partition_surplus(profile: Profile, partition: Partition) -> tuple[Allocation, Value]:
    """Winner determination over the k meta-goods, one per part; meta-mask
    M stands for the bundle ``unions[M]``."""
    table_size(partition.k)  # the 2^k budget, checked before any table is built
    unions = partition.unions
    tables = [tuple(map(v.value, unions)) for v in profile.valuations]
    masks = _least_tuple(tables)
    surplus = as_value(sum(map(getitem, tables, masks)))
    return Allocation(profile.universe, tuple(unions[meta] for meta in masks)), surplus


def sigma_optimal_surplus(profile: Profile, family: BundleFamily) -> tuple[Allocation, Value]:
    """Best surplus over allocations whose buyer bundles all lie in the family.

    The seller's remainder is unconstrained (padding with the empty bundle
    and free disposal make it surplus-irrelevant).  Partition-generated
    families reduce to a k-meta-good winner determination; other families run
    one memoised search over family bundles that keeps the least optimal
    bundle tuple.
    """
    if family.universe is not profile.universe and family.universe != profile.universe:
        raise InvalidInputError("profile and family universes differ")
    partition = partition_of_family(family)
    if partition is not None:
        return _partition_surplus(profile, partition)

    bundles = family.sorted_bundles[1:]
    options = []
    tabled = []  # buyers whose options are every family bundle of positive value
    for v in profile.valuations:
        # A single-atom buyer never needs more than the inclusion-minimal
        # family supersets of the atom, each worth the atom's weight: any
        # available superset contains an available minimal one of no larger
        # mask, so the optimum and the least optimal tuple are both
        # unchanged.  A buyer with no atom is worth 0 everywhere.
        if v.atoms is not None and len(v.atoms) < 2:
            options.append([(c, w) for a, w in v.atoms for c in _minimal_supersets(a, bundles)])
            continue
        # A bundle worth 0 or less never beats the empty bundle, because the
        # search is monotone in ``free``.
        tabled.append(len(options))
        options.append([(c, w) for c in bundles if (w := v.value(c)) > 0])
    # Buyer i meets at most min(2^m, prod over j < i of (|options_j| + 1))
    # free sets and tries each of its options on every one.
    steps, states = 0, 1
    for opts in options:
        steps += len(opts) * states
        states = min(states * (len(opts) + 1), profile.universe.full_mask + 1)
    if steps > FAMILY_SEARCH_STEPS_CAP:
        raise BudgetExceededError(
            f"family search capped at {FAMILY_SEARCH_STEPS_CAP} option steps, bound {steps}"
        )
    # Keep only the strict options of such a buyer, when that pass (at most
    # |options|^2 steps) costs no more than the search's own bound.
    for i in tabled:
        if len(options[i]) ** 2 <= steps:
            options[i] = _strict_family_options(options[i])
    total, masks = _family_search(0, profile.universe.full_mask, options, {})
    return Allocation(profile.universe, masks), as_value(total)


def _strict_family_options(options):
    """The ascending (bundle, value) options without each C that a kept C'
    inside it matches in value: C' frees more goods and has the smaller mask,
    so the least optimal tuple never takes C.  One pass, as in
    ``_minimal_supersets``: an option dropped for a kept C' inside it leaves
    C' to match every option that it would have matched."""
    kept = []
    for c, w in options:
        for k, x in kept:
            if x >= w and k & c == k:
                break
        else:
            kept.append((c, w))
    return kept


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
    return as_value(payment)


def run_vc(
    reported: Profile,
    tie: TieBreak | None = None,
    true_profile: Profile | None = None,
) -> AuctionOutcome:
    """Full outcome of the mechanism on the reported profile.

    Utilities (and the surplus field) are measured against ``true_profile``
    when supplied, else against the reports themselves.  Each of the two
    profiles that holds a dense valuation is tabulated once, and so is a
    true profile beside tabulated reports; a true profile is also the
    adversarial reference.  All-sparse reports take the
    allocation and every drop-one optimum from one packing pass, tables
    re-solve without each buyer, and one rule then gives every payment.
    """
    tie = tie or TieBreak.canonical()
    if true_profile is not None and (
        true_profile.n != reported.n
        or true_profile.universe is not reported.universe and true_profile.universe != reported.universe
    ):
        raise InvalidInputError("true profile shape mismatch")
    sparse = reported.all_sparse
    reported, true_profile = (
        p if p is None or sparse and p.all_sparse else Profile(p.universe, tuple(v.to_dense() for v in p.valuations))
        for p in (reported, true_profile)
    )
    reference = None
    if tie.kind == "adversarial":
        reference = reported if true_profile is None else true_profile
    if sparse:
        allocation, values, without = _sparse_solve(reported, tie, reference, drop_one=True)
        reported_surplus = without.pop()
    else:
        allocation, reported_surplus = optimal_allocation(reported, tie, reference)
        values = [v.value(mask) for v, mask in zip(reported.valuations, allocation.buyer_bundles)]
        without = [0 if (rest := reported.drop(i)) is None else max_surplus(rest) for i in range(reported.n)]
    total = sum(values)
    payments = tuple(_payment(best, total - value) for best, value in zip(without, values))
    if true_profile is not None:
        values = [v.value(mask) for v, mask in zip(true_profile.valuations, allocation.buyer_bundles)]
    surplus = as_value(sum(values))
    revenue = as_value(sum(payments))
    utilities = tuple(as_value(val - pay) for val, pay in zip(values, payments))
    if true_profile is None:
        if surplus != reported_surplus:
            raise InternalInvariantError("chosen allocation is not surplus-optimal")
        if revenue > surplus:
            raise InternalInvariantError("truthful revenue exceeded surplus")
    return AuctionOutcome(allocation, payments, surplus, revenue, utilities)


def clarke_payment(
    profile: Profile,
    i: int,
    tie: TieBreak | None = None,
    reference: Profile | None = None,
) -> Value:
    """Externality payment of buyer i at the tie-chosen optimal allocation:
    buyer i's entry of ``run_vc``'s payments."""
    adversarial = tie is not None and tie.kind == "adversarial"
    return run_vc(profile, tie, reference if adversarial else None).payments[i]
