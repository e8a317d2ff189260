"""Ground data model: goods, bundles, valuations, profiles, allocations.

Bundles are bitmask ints over the goods universe (bit i = good i).  All
values are exact rationals (`fractions.Fraction`); surplus comparisons
downstream rely on exact equality, so nothing in this module may introduce
floating point.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import gt
from typing import Iterable, Iterator, Sequence

Bundle = int  # bitmask over the goods universe; 0 is the empty bundle

# Exact value: a plain int when integral, a Fraction otherwise.  Mixed
# arithmetic promotes exactly; division must always go through Fraction.
Value = int | Fraction

# Size budgets.  Each exponential computation checks one of these and raises
# BudgetExceededError (CLI exit code 2), naming the limit and the size.
DENSE_GOODS_CAP = 14  # goods of 2^m-bundle tables and enumeration; table_size checks it
UNIVERSE_GOODS_CAP = 100_000  # goods of a universe built from its size (GoodsUniverse.of_size)
SPARSE_ATOMS_CAP = 64  # atoms in one packing-kernel instance
MAX_EXACT_PARTS = 8  # parts in the exact feasible-family search
FAMILY_TARGET_CAP = 800  # sets in the first target of that search: one recursion frame per set
MAX_ORACLE_GOODS = 12  # goods in the ratio_oracle profile sweep
SWEEP_GOODS_CAP = 8  # goods in the CLI's disjoint-unanimity sweep
FIELD_PARTS_CAP = 20  # parts of a partition whose 2^k union table is built (Partition.unions)
FAMILY_ENUM_GOODS_CAP = 4  # goods in the exhaustive bundle-family enumeration
TIE_WALK_NODES_CAP = 50_000  # nodes of the adversarial walk over optimal packings
FAMILY_SEARCH_STEPS_CAP = 20_000_000  # option steps of sigma_optimal_surplus's search over family bundles

MAX_DECIMAL_EXPONENT = 4300  # |exponent| of a decimal value string: the int-string digit limit

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class InvalidInputError(ValueError):
    """Malformed instance, family, or flag (CLI exit code 1)."""


class BudgetExceededError(RuntimeError):
    """Instance exceeds a configured size budget (CLI exit code 2)."""


class InternalInvariantError(AssertionError):
    """A mathematically guaranteed invariant failed (CLI exit code 3)."""


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def table_size(m: int) -> int:
    """2^m, the length of a table over m goods, within ``DENSE_GOODS_CAP``."""
    if m > DENSE_GOODS_CAP:
        raise BudgetExceededError(
            f"bundle tables and enumeration capped at m <= {DENSE_GOODS_CAP} goods, got m = {m}"
        )
    return 1 << m


def submask_max(vals) -> list:
    """``row[S]`` = the max over T inside S of ``vals[T]``, by a bit-by-bit
    sweep (m * 2^m steps) over a table indexed by bundle mask."""
    row = list(vals)
    size = len(row)
    bit = 1
    while bit < size:
        for high in range(bit, size, bit << 1):
            for s in range(high, high + bit):
                lower = row[s ^ bit]
                if lower > row[s]:
                    row[s] = lower
        bit <<= 1
    return row


def _two_parses(labels: Sequence[str]) -> str | None:
    """A string that two different label sequences spell, or None when the
    labels are uniquely decodable (Sardinas & Patterson 1953).

    Labels whose first characters occur nowhere else in them, such as the
    ``of_size`` labels g0, g1, ..., split any text at those characters, so
    one count over the joined labels settles them.  Otherwise each dangling
    suffix x (what is left of a label after a shorter label or suffix) is
    kept with a text that one label sequence spells, x longer than another;
    an x that is itself a label completes the second parse.
    """
    if sum(map("".join(labels).count, {lab[0] for lab in labels})) == len(labels):
        return None
    words = set(labels)
    ordered = sorted(words)
    lengths = sorted({len(lab) for lab in words})
    frontier = {}
    for lab in ordered:
        for k in lengths:
            if k >= len(lab):
                break
            if lab[:k] in words:
                frontier.setdefault(lab[k:], lab)
    seen = set(frontier)
    while frontier:
        grown = {}
        for x, text in sorted(frontier.items()):
            if x in words:
                return text
            # A label that continues past x leaves the other sequence ahead...
            i = bisect_left(ordered, x)
            while i < len(ordered) and ordered[i].startswith(x):
                y = ordered[i][len(x):]
                if y and y not in seen:
                    seen.add(y)
                    grown[y] = text + y
                i += 1
            # ...and a label inside x leaves this one ahead by less.
            for k in lengths:
                if k >= len(x):
                    break
                if x[:k] in words and x[k:] not in seen:
                    seen.add(x[k:])
                    grown[x[k:]] = text
        frontier = grown
    return None


@dataclass(frozen=True)
class GoodsUniverse:
    """An ordered set of m distinct, nonempty good labels that are uniquely
    decodable: no string is spelled by two different label sequences."""

    labels: tuple[str, ...]
    # Filled by the one validation pass below; outside ==, hash and repr.
    full_mask: int = field(init=False, repr=False, compare=False)
    _bits: dict[str, int] = field(init=False, repr=False, compare=False)
    _label_lengths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = self.labels
        m = len(labels)
        if m < 1:
            raise InvalidInputError("universe needs at least one good")
        bits = {lab: 1 << i for i, lab in enumerate(labels)}
        if len(bits) != m:
            raise InvalidInputError("good labels must be distinct")
        lengths = set()
        for lab in labels:
            if not isinstance(lab, str) or not lab:
                raise InvalidInputError("good labels must be nonempty strings")
            lengths.add(len(lab))
        if len(lengths) > 1:  # labels of one length decode uniquely
            text = _two_parses(labels)
            if text is not None:
                raise InvalidInputError(f"good labels are not uniquely decodable: {text!r} has two parses")
        object.__setattr__(self, "full_mask", (1 << m) - 1)
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_label_lengths", tuple(sorted(lengths, reverse=True)))

    def __eq__(self, other) -> bool:
        # Valuations and profiles nearly always share one universe object.
        if self is other:
            return True
        return self.labels == other.labels if other.__class__ is self.__class__ else NotImplemented

    @staticmethod
    def of_size(m: int) -> "GoodsUniverse":
        """Universe with default labels a, b, c, ... (g0, g1, ... past 26)."""
        if m < 1:
            raise InvalidInputError("universe needs at least one good")
        if m > UNIVERSE_GOODS_CAP:
            raise BudgetExceededError(f"goods universe capped at m <= {UNIVERSE_GOODS_CAP} goods, got m = {m}")
        if m <= len(_LETTERS):
            return GoodsUniverse(tuple(_LETTERS[:m]))
        return GoodsUniverse(tuple(f"g{i}" for i in range(m)))

    @property
    def m(self) -> int:
        return len(self.labels)

    @cached_property
    def bundle_names(self) -> dict[str, Bundle] | None:
        """Each bundle's canonical string (``format_bundle``) to its mask,
        when every label is one character and m <= ``DENSE_GOODS_CAP``;
        None otherwise."""
        if self._label_lengths != (1,) or self.m > DENSE_GOODS_CAP:
            return None
        names = [""]
        for lab in self.labels:
            names += [name + lab for name in names]
        return dict(zip(names, range(len(names))))

    def parse_bundle(self, text: str) -> Bundle:
        """Parse concatenated labels ("abc"); "" is the empty bundle.

        At each position the longest label that matches is taken.  Only when
        that dead-ends, or names a good twice, does the parse back up to
        shorter labels.  A string that names a good twice is rejected.
        """
        bits = self._bits
        if self._label_lengths == (1,):
            # One character per label: the bits add up to the mask unless a
            # character is unknown or repeated, which the loop below reports.
            try:
                mask = sum(map(bits.__getitem__, text))
            except KeyError:
                pass
            else:
                if mask.bit_count() == len(text):
                    return mask
        mask = 0
        pos = 0
        while pos < len(text):
            # Labels are distinct, so at most one of each length matches here.
            # A slice cut short by the end of the text matches only a label
            # equal to the rest of the text, which is then the longest match.
            for length in self._label_lengths:
                label = text[pos : pos + length]
                bit = bits.get(label)
                if bit is not None:
                    break
            else:
                return self._parse_backing_up(text, f"cannot parse bundle string {text!r}")
            if mask & bit:
                return self._parse_backing_up(text, f"bundle string {text!r} names {label!r} twice")
            mask |= bit
            pos += length
        return mask

    def _parse_backing_up(self, text: str, failure: str) -> Bundle:
        """The mask of the label sequence that spells ``text``, found from
        the end; ``failure``, the longest match's message, when none does.
        The labels are uniquely decodable, so at most one sequence does."""
        bits = self._bits
        size = len(text)
        # steps[pos]: the length of the label that starts a parse of
        # text[pos:], 0 when none does; -1 marks the end of the text.
        steps = [0] * size + [-1]
        for pos in range(size - 1, -1, -1):
            for length in self._label_lengths:
                if pos + length <= size and steps[pos + length] and text[pos : pos + length] in bits:
                    steps[pos] = length
                    break
        if not steps[0]:
            raise InvalidInputError(failure)
        mask = 0
        pos = 0
        while pos < size:
            label = text[pos : pos + steps[pos]]
            bit = bits[label]
            if mask & bit:
                raise InvalidInputError(f"bundle string {text!r} names {label!r} twice")
            mask |= bit
            pos += len(label)
        return mask

    def format_bundle(self, mask: Bundle) -> str:
        if not 0 <= mask <= self.full_mask:
            self.check_bundle(mask)
        labels = self.labels
        names = []
        while mask:
            low = mask & -mask
            names.append(labels[low.bit_length() - 1])
            mask ^= low
        return "".join(names)

    def check_bundle(self, mask: Bundle) -> None:
        if not 0 <= mask <= self.full_mask:
            raise InvalidInputError(f"bundle {mask:#x} outside universe of {self.m} goods")

    def all_bundles(self) -> range:
        return range(table_size(self.m))


def as_value(value) -> Value:
    """Exact conversion: int, Fraction, or a numeric string like "7/3".

    Integral results come back as plain ints (int arithmetic is exact and
    much faster than Fraction); everything else is a Fraction.
    """
    if isinstance(value, bool):
        raise InvalidInputError("boolean is not a value")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        exponent = value.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
        if exponent.isdecimal() and (len(exponent) > 4 or int(exponent) > MAX_DECIMAL_EXPONENT):
            raise InvalidInputError(f"value {value!r} has a decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
        try:
            return as_value(Fraction(value))
        except (ValueError, ZeroDivisionError):
            raise InvalidInputError(f"cannot parse value {value!r}") from None
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvalidInputError(f"value {value} is not finite")
        # str() gives the shortest round-trip decimal, so 0.1 -> 1/10.
        return as_value(Fraction(str(value)))
    raise InvalidInputError(f"unsupported value type {type(value).__name__}")


def exact_ratio(numerator: Value, denominator: Value) -> Fraction:
    """Division that never touches floating point."""
    return Fraction(numerator) / Fraction(denominator)


@dataclass(frozen=True)
class Valuation:
    """A monotone set function v with v(empty) = 0.

    Exactly one representation is populated:

    * ``table``: value per bundle mask, length 2^m (m <= 14);
    * ``atoms``: (mask, weight) pairs; v(C) is the maximum total weight of a
      sub-collection of pairwise-disjoint atoms contained in C.  A single
      atom (B, w) is the scaled unanimity valuation: w on supersets of B.
      Only live atoms, with a nonempty bundle and a positive weight, are
      stored: the others are dropped once every atom has passed the checks.
    """

    universe: GoodsUniverse
    table: tuple[Value, ...] | None = None
    atoms: tuple[tuple[Bundle, Value], ...] | None = None

    def __post_init__(self) -> None:
        if (self.table is None) == (self.atoms is None):
            raise InvalidInputError("valuation needs exactly one representation")
        if self.table is not None:
            if len(self.table) != len(self.universe.all_bundles()):
                raise InvalidInputError("dense table must cover all 2^m bundles")
        else:
            full = self.universe.full_mask
            live = True
            for mask, weight in self.atoms:
                if not 0 < mask <= full:
                    self.universe.check_bundle(mask)
                    live = False
                if weight <= 0:
                    if weight < 0:
                        raise InvalidInputError("atom weights must be nonnegative")
                    live = False
            if not live:
                object.__setattr__(self, "atoms", tuple([(a, w) for a, w in self.atoms if a and w]))

    @staticmethod
    def dense(universe: GoodsUniverse, values: Sequence) -> "Valuation":
        return Valuation(universe, table=tuple(as_value(v) for v in values))

    @staticmethod
    def from_atoms(universe: GoodsUniverse, atoms: Iterable[tuple[Bundle, object]]) -> "Valuation":
        canon = tuple(sorted((mask, as_value(w)) for mask, w in atoms))
        return Valuation(universe, atoms=canon)

    def value(self, mask: Bundle) -> Value:
        self.universe.check_bundle(mask)
        if self.table is not None:
            return self.table[mask]
        atoms = self.atoms
        if len(atoms) == 1:
            atom, weight = atoms[0]
            return weight if atom & mask == atom else 0
        return max_packing([(a, w) for a, w in atoms if a & mask == a], mask)

    def to_dense(self) -> "Valuation":
        if self.table is not None:
            return self
        bundles = self.universe.all_bundles()
        table = [0] * len(bundles)
        # Max-weight packing obeys table[C] = max(table[C - atom] + w) over
        # atoms inside C, seeded upward from the empty bundle.
        for mask in bundles:
            best = 0
            for atom, weight in self.atoms:
                if atom & mask == atom:
                    cand = table[mask ^ atom] + weight
                    if cand > best:
                        best = cand
            table[mask] = best
        return Valuation(self.universe, table=tuple(table))

    def nonzero(self) -> bool:
        if self.table is not None:
            return any(v != 0 for v in self.table)
        return bool(self.atoms)

    @cached_property
    def _monotone(self) -> bool:
        """Whether v(B) <= v(C) whenever B is inside C, checked once along
        single-bit extensions, which implies it on all chains: each bit's
        (without, with) entries are compared as slices, strided or
        contiguous, whichever are fewer.  Atom valuations are monotone."""
        table = self.table
        if table is None:
            return True
        size = len(table)
        for i in range(self.universe.m):
            bit = 1 << i
            step = bit << 1
            if bit <= size // step:
                pairs = ((table[r::step], table[r + bit :: step]) for r in range(bit))
            else:
                pairs = ((table[s : s + bit], table[s + bit : s + step]) for s in range(0, size, step))
            if any(any(map(gt, lo, hi)) for lo, hi in pairs):
                return False
        return True


class AtomPacking:
    """Exact max-weight packing of (mask, weight) atoms.

    ``best(j, free)`` is V(j, free): the largest total weight of pairwise
    disjoint atoms among ``masks[j:]`` that fit inside ``free``.  The atoms
    are reordered one connected component of the goods-overlap graph at a
    time, breadth-first within a component; ``order[j]`` is the input
    index of the j-th atom.  V(j, free) depends only on ``free & cover[j]``,
    where ``cover[j]`` is the union of atoms j.., so the memo is keyed on
    that: once a component's atoms are past, its goods drop out of the key
    and independent components are solved independently.  Every mask must be
    nonzero and every weight positive.  The memo lives and dies with the
    instance, which holds no reference cycle.  The recursion goes one level
    deeper per atom, so the atom count is capped at ``SPARSE_ATOMS_CAP``.

    One recursion answers both plain solves and drop-one optima: each memo
    entry holds V and the slots that lose at that state.  The slots start
    all None, so a plain solve keeps no losses; ``best_without`` sets them
    and starts the memo afresh, and ``best`` then reads V from its states.
    """

    __slots__ = ("order", "masks", "weights", "_cover", "_memo", "_slots")

    def __init__(self, atoms: Sequence[tuple[Bundle, Value]]) -> None:
        if len(atoms) > SPARSE_ATOMS_CAP:
            raise BudgetExceededError(
                f"atom packing capped at {SPARSE_ATOMS_CAP} atoms, got {len(atoms)}"
            )
        # Breadth-first over the goods-overlap graph, one component at a
        # time from its least atom by (lowest good, mask): few goods are
        # shared between placed and unplaced atoms, so the memo keys vary
        # in few bits.
        pending = sorted((mask & -mask, mask, i) for i, (mask, _) in enumerate(atoms))
        order = []
        while pending:
            queue = [pending.pop(0)]
            for _, mask, i in queue:  # the queue grows while it is read
                order.append(i)
                rest = []
                for item in pending:
                    (queue if item[1] & mask else rest).append(item)
                pending = rest
        self.order = order
        self.masks = masks = [atoms[i][0] for i in order]
        self.weights = [atoms[i][1] for i in order]
        cover = [0] * (len(order) + 1)
        for j in range(len(order) - 1, -1, -1):
            cover[j] = cover[j + 1] | masks[j]
        self._cover = cover
        self._memo = {}
        self._slots = [None] * len(order)

    def best(self, j: int, free: Bundle) -> Value:
        return _pack(j, free, self.masks, self.weights, self._slots, self._cover, self._memo)[0]

    def best_without(self, groups: Sequence[int | None], free: Bundle, slots: int) -> list[Value]:
        """Entry g is V(0, free) over the atoms outside group g, for each of
        ``slots`` slots; ``groups`` holds each input atom's slot or None,
        and a slot that holds no atom gets V(0, free) itself.  The pass
        visits the states of ``best(0, free)`` once each: all the drop-one
        optima of pivot payments for about the work of one solve
        (Hershberger & Suri 2001).  The pass replaces the memo, and ``best``
        reads V from the same states until the next pass.
        """
        self._slots = [groups[i] for i in self.order]
        self._memo = {}
        best, losses = _pack(0, free, self.masks, self.weights, self._slots, self._cover, self._memo)
        return [losses.get(g, best) for g in range(slots)]


_NO_LOSSES = (0, {})  # a state with no atom; its mapping is never written


def _pack(j: int, free: Bundle, masks, weights, slots, cover, memo) -> tuple[Value, dict]:
    # (V, losses) of a state: losses maps each slot worth less than V; the
    # others are worth V.  Atoms that no longer fit are skipped; they cannot
    # change either.  Taking atom j raises every entry but its own slot's,
    # and a tie keeps the skip value, so only j's slot and the chosen
    # branch's losers lose.
    while True:
        free &= cover[j]
        if not free:
            return _NO_LOSSES
        atom = masks[j]
        if atom & free == atom:
            break
        j += 1
    key = (j, free)
    got = memo.get(key)
    if got is None:
        skip, skip_losses = _pack(j + 1, free, masks, weights, slots, cover, memo)
        take, take_losses = _pack(j + 1, free ^ atom, masks, weights, slots, cover, memo)
        weight = weights[j]
        slot = slots[j]
        losses = {}
        if (taken := weight + take) > skip:
            best = taken
            for g, t in take_losses.items():
                s = skip_losses.get(g, skip)
                losses[g] = cand if (cand := weight + t) > s else s
            if slot is not None:
                losses[slot] = skip_losses.get(slot, skip)
        else:
            best = skip
            for g, s in skip_losses.items():
                if g != slot and (cand := weight + take_losses.get(g, take)) > s:
                    s = cand
                if s < best:
                    losses[g] = s
        memo[key] = got = best, losses
    return got


def max_packing(atoms: Sequence[tuple[Bundle, Value]], free: Bundle) -> Value:
    """Largest total weight of pairwise-disjoint atoms inside ``free``
    (nonzero masks, positive weights).  Atoms pairwise disjoint inside
    ``free`` all fit at once, so they need no packing instance."""
    total = union = 0
    for mask, weight in atoms:
        if mask & free == mask:
            if union & mask:
                return AtomPacking(atoms).best(0, free)
            union |= mask
            total += weight
    return total


def unanimity_valuation(universe: GoodsUniverse, bundle: Bundle, weight=1) -> Valuation:
    """weight on every superset of ``bundle``, 0 elsewhere; zero if bundle is empty."""
    if not 0 <= bundle <= universe.full_mask:
        universe.check_bundle(bundle)
    w = weight if type(weight) is int else as_value(weight)
    if w < 0:
        raise InvalidInputError("weight must be nonnegative")
    return Valuation(universe, atoms=((bundle, w),))


def zero_valuation(universe: GoodsUniverse) -> Valuation:
    return Valuation(universe, atoms=())


@dataclass(frozen=True)
class ValuationReport:
    ok: bool
    reason: str = ""
    witness: tuple[Bundle, Bundle] | None = None


_VALID = ValuationReport(ok=True)  # shared: the report is frozen


def validate_valuation(v: Valuation) -> ValuationReport:
    """Check normalization, nonnegativity, and monotonicity.

    Reports the first violated invariant in canonical (bitmask) order with a
    witness pair (B, C).  Sparse valuations are structurally valid, which the
    constructor already enforced.
    """
    if v.atoms is not None:
        return _VALID
    table = v.table
    if table[0] != 0:
        return ValuationReport(False, "normalization: v(empty) != 0", (0, 0))
    if min(table) < 0:
        for mask, val in enumerate(table):
            if val < 0:
                return ValuationReport(False, "negative value", (mask, mask))
    if v._monotone:
        return _VALID
    # Only a violation pays for the scan that finds its first witness.
    for mask in range(len(table)):
        for i in range(v.universe.m):
            if not mask & (1 << i):
                sup = mask | (1 << i)
                if table[mask] > table[sup]:
                    return ValuationReport(False, "monotonicity violated", (mask, sup))
    raise InternalInvariantError("a table that is not monotone has no witness")


@dataclass(frozen=True)
class Profile:
    """One valuation per buyer over a shared universe."""

    universe: GoodsUniverse
    valuations: tuple[Valuation, ...]

    def __post_init__(self) -> None:
        if len(self.valuations) < 1:
            raise InvalidInputError("profile needs at least one buyer")
        universe = self.universe
        for v in self.valuations:
            # Identity first: valuations nearly always share the profile's object.
            if v.universe is not universe and v.universe != universe:
                raise InvalidInputError("all valuations must share the profile's universe")

    @property
    def n(self) -> int:
        return len(self.valuations)

    @property
    def all_sparse(self) -> bool:
        for v in self.valuations:
            if v.atoms is None:
                return False
        return True

    def drop(self, i: int) -> "Profile | None":
        rest = self.valuations[:i] + self.valuations[i + 1 :]
        if not rest:
            return None
        return Profile(self.universe, rest)

    def replace(self, i: int, v: Valuation) -> "Profile":
        vals = list(self.valuations)
        vals[i] = v
        return Profile(self.universe, tuple(vals))


@dataclass(frozen=True)
class Allocation:
    """Ordered partition of the goods: buyer bundles plus the seller's rest."""

    universe: GoodsUniverse
    buyer_bundles: tuple[Bundle, ...]

    def __post_init__(self) -> None:
        full = self.universe.full_mask
        union = 0
        for mask in self.buyer_bundles:
            if not 0 <= mask <= full:
                self.universe.check_bundle(mask)
            if union & mask:
                raise InvalidInputError("buyer bundles overlap")
            union |= mask

    @property
    def seller_bundle(self) -> Bundle:
        return self.universe.full_mask & ~self.allocated_mask

    @property
    def allocated_mask(self) -> Bundle:
        mask = 0
        for b in self.buyer_bundles:
            mask |= b
        return mask

    def surplus(self, profile: Profile) -> Value:
        if profile.n != len(self.buyer_bundles):
            raise InvalidInputError("profile and allocation sizes differ")
        if profile.universe is not self.universe and profile.universe != self.universe:
            raise InvalidInputError("profile and allocation universes differ")
        total = 0
        for v, mask in zip(profile.valuations, self.buyer_bundles):
            total += v.value(mask)
        return total


@dataclass(frozen=True)
class Partition:
    """Nonempty, pairwise-disjoint parts covering the whole universe."""

    universe: GoodsUniverse
    parts: tuple[Bundle, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise InvalidInputError("partition needs at least one part")
        union = 0
        for mask in self.parts:
            self.universe.check_bundle(mask)
            if mask == 0:
                raise InvalidInputError("partition parts must be nonempty")
            if union & mask:
                raise InvalidInputError("partition parts overlap")
            union |= mask
        if union != self.universe.full_mask:
            raise InvalidInputError("partition parts must cover every good")

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(p.bit_count() for p in self.parts)

    @cached_property
    def unions(self) -> tuple[Bundle, ...]:
        """``unions[meta]`` = the union of the parts on meta's bits, for all
        2^k meta-masks, built by doubling."""
        if self.k > FIELD_PARTS_CAP:
            raise BudgetExceededError(
                f"partition field capped at k <= {FIELD_PARTS_CAP} parts, got k = {self.k}"
            )
        unions = [0]
        for part in self.parts:
            unions += [u | part for u in unions]
        return tuple(unions)


def partition_from_sizes(sizes: Sequence[int], universe: GoodsUniverse | None = None) -> Partition:
    """Consecutive blocks of the given sizes, e.g. (2, 3) -> ab | cde."""
    if not sizes or any(s < 1 for s in sizes):
        raise InvalidInputError("part sizes must be positive")
    m = sum(sizes)
    if universe is None:
        universe = GoodsUniverse.of_size(m)
    elif universe.m != m:
        raise InvalidInputError("part sizes must sum to the universe size")
    parts = []
    start = 0
    for s in sizes:
        parts.append(((1 << s) - 1) << start)
        start += s
    return Partition(universe, tuple(parts))


@dataclass(frozen=True)
class BundleFamily:
    """A set of bundles containing the empty bundle."""

    universe: GoodsUniverse
    bundles: frozenset[Bundle] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        full = self.universe.full_mask
        for mask in self.bundles:
            if not 0 <= mask <= full:
                self.universe.check_bundle(mask)
        if 0 not in self.bundles:
            raise InvalidInputError("a bundle family must contain the empty bundle")

    @staticmethod
    def of(universe: GoodsUniverse, bundles: Iterable[Bundle]) -> "BundleFamily":
        return BundleFamily(universe, frozenset(bundles) | {0})

    @staticmethod
    def full(universe: GoodsUniverse) -> "BundleFamily":
        return BundleFamily(universe, frozenset(universe.all_bundles()))

    @cached_property
    def sorted_bundles(self) -> tuple[Bundle, ...]:
        return tuple(sorted(self.bundles))

    def __contains__(self, mask: Bundle) -> bool:
        return mask in self.bundles

    def __len__(self) -> int:
        return len(self.bundles)
