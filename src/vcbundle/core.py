"""Ground data model: goods, bundles, valuations, profiles, allocations.

Bundles are bitmask ints over the goods universe (bit i = good i).  All
values are exact rationals (`fractions.Fraction`); surplus comparisons
downstream rely on exact equality, so nothing in this module may introduce
floating point.
"""
from __future__ import annotations

import math
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
DENSE_GOODS_CAP = 14  # dense tables and the 3^m dynamic program hold 2^m values
SPARSE_ATOMS_CAP = 64  # atoms in one packing-kernel instance
MAX_EXACT_PARTS = 8  # parts in the exact feasible-family search
MAX_ORACLE_GOODS = 12  # goods in the ratio_oracle profile sweep
SWEEP_GOODS_CAP = 8  # goods in the CLI's disjoint-unanimity sweep
FIELD_PARTS_CAP = 20  # parts of a partition whose 2^k-bundle field is built
FAMILY_ENUM_GOODS_CAP = 4  # goods in the exhaustive bundle-family enumeration
TIE_WALK_NODES_CAP = 50_000  # nodes of the adversarial walk over optimal packings

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


@dataclass(frozen=True)
class GoodsUniverse:
    """An ordered set of m distinct good labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) < 1:
            raise InvalidInputError("universe needs at least one good")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidInputError("good labels must be distinct")
        if any(not lab for lab in self.labels):
            raise InvalidInputError("good labels must be nonempty strings")

    @staticmethod
    def of_size(m: int) -> "GoodsUniverse":
        """Universe with default labels a, b, c, ... (g0, g1, ... past 26)."""
        if m < 1:
            raise InvalidInputError("universe needs at least one good")
        if m <= len(_LETTERS):
            return GoodsUniverse(tuple(_LETTERS[:m]))
        return GoodsUniverse(tuple(f"g{i}" for i in range(m)))

    @property
    def m(self) -> int:
        return len(self.labels)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    @cached_property
    def _bits(self) -> dict[str, int]:
        return {lab: 1 << i for i, lab in enumerate(self.labels)}

    @cached_property
    def _label_lengths(self) -> tuple[int, ...]:
        return tuple(sorted({len(lab) for lab in self.labels}, reverse=True))

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

        At each position the longest label that matches is taken.  A
        string that names a good twice is rejected.
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
                bit = bits.get(text[pos : pos + length])
                if bit is not None:
                    if mask & bit:
                        label = text[pos : pos + length]
                        raise InvalidInputError(f"bundle string {text!r} names {label!r} twice")
                    mask |= bit
                    pos += length
                    break
            else:
                raise InvalidInputError(f"cannot parse bundle string {text!r}")
        return mask

    def format_bundle(self, mask: Bundle) -> str:
        self.check_bundle(mask)
        return "".join(self.labels[i] for i in iter_bits(mask))

    def check_bundle(self, mask: Bundle) -> None:
        if not 0 <= mask <= self.full_mask:
            raise InvalidInputError(f"bundle {mask:#x} outside universe of {self.m} goods")

    def all_bundles(self) -> range:
        if self.m > DENSE_GOODS_CAP:
            raise BudgetExceededError(
                f"bundle enumeration capped at m <= {DENSE_GOODS_CAP} goods, got m = {self.m}"
            )
        return range(self.full_mask + 1)


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
    """

    universe: GoodsUniverse
    table: tuple[Value, ...] | None = None
    atoms: tuple[tuple[Bundle, Value], ...] | None = None

    def __post_init__(self) -> None:
        if (self.table is None) == (self.atoms is None):
            raise InvalidInputError("valuation needs exactly one representation")
        if self.table is not None:
            if self.universe.m > DENSE_GOODS_CAP:
                raise BudgetExceededError(
                    f"dense tables capped at m <= {DENSE_GOODS_CAP}, got m = {self.universe.m}"
                )
            if len(self.table) != self.universe.full_mask + 1:
                raise InvalidInputError("dense table must cover all 2^m bundles")
        else:
            for mask, weight in self.atoms:
                self.universe.check_bundle(mask)
                if weight < 0:
                    raise InvalidInputError("atom weights must be nonnegative")

    @staticmethod
    def dense(universe: GoodsUniverse, values: Sequence) -> "Valuation":
        return Valuation(universe, table=tuple(as_value(v) for v in values))

    @staticmethod
    def from_atoms(universe: GoodsUniverse, atoms: Iterable[tuple[Bundle, object]]) -> "Valuation":
        canon = tuple(sorted((mask, as_value(w)) for mask, w in atoms))
        return Valuation(universe, atoms=canon)

    @property
    def is_sparse(self) -> bool:
        return self.atoms is not None

    def value(self, mask: Bundle) -> Value:
        self.universe.check_bundle(mask)
        if self.table is not None:
            return self.table[mask]
        atoms = self.atoms
        if len(atoms) == 1:
            atom, weight = atoms[0]
            return weight if atom and atom & mask == atom else 0
        return max_packing([(a, w) for a, w in atoms if a and w and a & mask == a], mask)

    def to_dense(self) -> "Valuation":
        if self.table is not None:
            return self
        table = [0] * (self.universe.full_mask + 1)
        # Max-weight packing obeys table[C] = max(table[C - atom] + w) over
        # atoms inside C, seeded upward from the empty bundle.
        for mask in self.universe.all_bundles():
            best = 0
            for atom, weight in self.atoms:
                if atom and atom & mask == atom:
                    cand = table[mask ^ atom] + weight
                    if cand > best:
                        best = cand
            table[mask] = best
        return Valuation(self.universe, table=tuple(table))

    def nonzero(self) -> bool:
        if self.table is not None:
            return any(v != 0 for v in self.table)
        return any(w != 0 and mask for mask, w in self.atoms)


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
    """

    __slots__ = ("order", "masks", "weights", "_cover", "_memo")

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

    def best(self, j: int, free: Bundle) -> Value:
        return _pack(j, free, self.masks, self.weights, self._cover, self._memo)


def _pack(j: int, free: Bundle, masks, weights, cover, memo) -> Value:
    # Skip atoms that no longer fit; they cannot change V.
    while True:
        free &= cover[j]
        if not free:
            return 0
        atom = masks[j]
        if atom & free == atom:
            break
        j += 1
    key = (j, free)
    best = memo.get(key)
    if best is None:
        best = _pack(j + 1, free, masks, weights, cover, memo)
        cand = weights[j] + _pack(j + 1, free ^ atom, masks, weights, cover, memo)
        if cand > best:
            best = cand
        memo[key] = best
    return best


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
    universe.check_bundle(bundle)
    w = as_value(weight)
    if w < 0:
        raise InvalidInputError("weight must be nonnegative")
    if bundle == 0 or w == 0:
        return Valuation.from_atoms(universe, ())
    return Valuation.from_atoms(universe, ((bundle, w),))


def zero_valuation(universe: GoodsUniverse) -> Valuation:
    return Valuation.from_atoms(universe, ())


@dataclass(frozen=True)
class ValuationReport:
    ok: bool
    reason: str = ""
    witness: tuple[Bundle, Bundle] | None = None


def validate_valuation(v: Valuation) -> ValuationReport:
    """Check normalization, nonnegativity, and monotonicity.

    Reports the first violated invariant in canonical (bitmask) order with a
    witness pair (B, C).  Sparse valuations are structurally valid, which the
    constructor already enforced.
    """
    if v.atoms is not None:
        return ValuationReport(ok=True)
    table = v.table
    if table[0] != 0:
        return ValuationReport(False, "normalization: v(empty) != 0", (0, 0))
    for mask, val in enumerate(table):
        if val < 0:
            return ValuationReport(False, "negative value", (mask, mask))
    # Monotonicity along single-bit extensions implies it on all chains.  Each
    # bit's (without, with) entries are compared as slices, strided or
    # contiguous, whichever are fewer; only a violation pays for the scan
    # that finds the first witness in bitmask order.
    size = len(table)
    for i in range(v.universe.m):
        bit = 1 << i
        step = bit << 1
        if bit <= size // step:
            pairs = ((table[r::step], table[r + bit :: step]) for r in range(bit))
        else:
            pairs = ((table[s : s + bit], table[s + bit : s + step]) for s in range(0, size, step))
        if any(any(map(gt, lo, hi)) for lo, hi in pairs):
            break
    else:
        return ValuationReport(ok=True)
    for mask in range(size):
        for i in range(v.universe.m):
            if not mask & (1 << i):
                sup = mask | (1 << i)
                if table[mask] > table[sup]:
                    return ValuationReport(False, "monotonicity violated", (mask, sup))
    return ValuationReport(ok=True)


@dataclass(frozen=True)
class Profile:
    """One valuation per buyer over a shared universe."""

    universe: GoodsUniverse
    valuations: tuple[Valuation, ...]

    def __post_init__(self) -> None:
        if len(self.valuations) < 1:
            raise InvalidInputError("profile needs at least one buyer")
        for v in self.valuations:
            if v.universe != self.universe:
                raise InvalidInputError("all valuations must share the profile's universe")

    @property
    def n(self) -> int:
        return len(self.valuations)

    @property
    def all_sparse(self) -> bool:
        return all(v.is_sparse for v in self.valuations)

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
        union = 0
        for mask in self.buyer_bundles:
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
        for mask in self.bundles:
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
