"""Exact worst-case inefficiency of partition-restricted bidding.

The central object is a feasible family for a partition: a multiset of
pairwise-intersecting subsets of part indices whose per-part multiplicities
are capped by the part sizes.  The maximum family size equals the worst-case
surplus ratio of the partition, so the solver here is the combinatorial side
of a dual route whose other side is the profile-sweep oracle driven through
the auction engine.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    BundleFamily,
    BudgetExceededError,
    GoodsUniverse,
    InternalInvariantError,
    InvalidInputError,
    MAX_EXACT_PARTS,
    MAX_ORACLE_GOODS,
    Partition,
    Profile,
    as_value,
    exact_ratio,
    iter_bits,
)
from .sigma import field_of_partition
from .auction import max_surplus, sigma_optimal_surplus
from .equilibrium import RatioEstimate, disjoint_unanimity_families, unanimity_profile


def phi(k: int) -> Fraction:
    """max over j = 1..k of min(j, k/j); at most sqrt(k)."""
    if k < 1:
        raise InvalidInputError("phi needs k >= 1")
    return max(min(Fraction(j), Fraction(k, j)) for j in range(1, k + 1))


def feasible_family_bound(partition: Partition) -> Fraction:
    """Upper bound beta * phi(k) on the size of any feasible family."""
    return max(partition.sizes) * phi(partition.k)


def closed_form_ratio(partition: Partition) -> int:
    """Exact worst-case ratio for partitions with at most three parts."""
    sizes = partition.sizes
    k = partition.k
    m = sum(sizes)
    if k == 1:
        return m
    if k == 2:
        return max(sizes)
    if k == 3:
        return max(max(sizes), m // 2)
    raise InvalidInputError("closed form only covers k <= 3")


def _check_intersecting(sets: Sequence[int], k: int) -> None:
    """Reject sets that are not pairwise-intersecting nonempty subsets of k parts."""
    for h in sets:
        if not 0 < h < (1 << k):
            raise InvalidInputError("sets must be nonempty subsets of the parts")
    for i, a in enumerate(sets):
        for b in sets[i + 1 :]:
            if a & b == 0:
                raise InvalidInputError("family sets must pairwise intersect")


@dataclass(frozen=True)
class FeasibleFamily:
    """Pairwise-intersecting multiset of part-index sets under size caps."""

    caps: tuple[int, ...]
    sets: tuple[int, ...]  # bitmasks over k = len(caps) parts, sorted

    def __post_init__(self) -> None:
        k = len(self.caps)
        if k < 1 or any(c < 1 for c in self.caps):
            raise InvalidInputError("caps must be positive part sizes")
        if tuple(sorted(self.sets)) != self.sets:
            raise InvalidInputError("sets must be sorted (canonical multiset order)")
        _check_intersecting(self.sets, k)
        for l in range(k):
            load = sum(1 for h in self.sets if h >> l & 1)
            if load > self.caps[l]:
                raise InvalidInputError(f"part {l + 1} multiplicity {load} exceeds its cap")

    @property
    def k(self) -> int:
        return len(self.caps)

    @property
    def s(self) -> int:
        return len(self.sets)

    def index_sets(self) -> tuple[tuple[int, ...], ...]:
        """1-based part indices per set, for display."""
        return tuple(tuple(i + 1 for i in iter_bits(h)) for h in self.sets)


@dataclass(frozen=True)
class FamilySearchResult:
    s: int
    family: FeasibleFamily
    upper_bound: Fraction
    exhausted: tuple[int, ...]  # larger targets proven infeasible


def _equal_cap_runs(caps: Sequence[int]) -> list[tuple[int, int]]:
    runs = []
    start = 0
    for i in range(1, len(caps) + 1):
        if i == len(caps) or caps[i] != caps[start]:
            runs.append((start, i - start))
            start = i
    return runs


def _search_with_target(caps: tuple[int, ...], target: int) -> tuple[int, ...] | None:
    """First family of exactly ``target`` sets in canonical order, or None.

    caps must be sorted descending.  Candidates are scanned by (size, mask);
    the family's first (minimal) set is restricted to masks whose bits form a
    prefix inside every equal-cap run, which every family can be relabeled
    into, cutting the part-permutation symmetry.
    """
    k = len(caps)
    candidates = sorted(range(1, 1 << k), key=lambda msk: (msk.bit_count(), msk))
    sizes = [c.bit_count() for c in candidates]
    bits_of = [tuple(iter_bits(c)) for c in candidates]
    runs = _equal_cap_runs(caps)

    def prefix_form(mask: int) -> bool:
        for start, length in runs:
            gap = False
            for i in range(start, start + length):
                if mask >> i & 1:
                    if gap:
                        return False
                else:
                    gap = True
        return True

    first_ok = [prefix_form(c) for c in candidates]
    rem = list(caps)
    chosen: list[int] = []

    def dfs(pos: int) -> tuple[int, ...] | None:
        if len(chosen) == target:
            return tuple(chosen)
        need = target - len(chosen)
        rem_total = sum(rem)
        if chosen:
            for h in chosen:
                if sum(rem[l] for l in iter_bits(h)) < need:
                    return None
        for idx in range(pos, len(candidates)):
            if rem_total < need * sizes[idx]:
                return None  # later candidates are at least this large
            c = candidates[idx]
            if not chosen and not first_ok[idx]:
                continue
            if any(rem[l] == 0 for l in bits_of[idx]):
                continue
            if any(c & h == 0 for h in chosen):
                continue
            for l in bits_of[idx]:
                rem[l] -= 1
            chosen.append(c)
            found = dfs(idx)
            chosen.pop()
            for l in bits_of[idx]:
                rem[l] += 1
            if found is not None:
                return found
        return None

    return dfs(0)


def max_feasible_family(partition: Partition) -> FamilySearchResult:
    """Exact maximum family size with a witness, by iterative deepening.

    Targets run downward from the floor of beta * phi(k) (family sizes are
    integral); every target above the answer is exhausted, which is the
    optimality proof.
    """
    k = partition.k
    if k > MAX_EXACT_PARTS:
        raise BudgetExceededError(
            f"exact family search capped at k <= {MAX_EXACT_PARTS} parts, got k = {k}"
        )
    sizes = partition.sizes
    order = sorted(range(k), key=lambda l: (-sizes[l], l))
    caps_sorted = tuple(sizes[l] for l in order)
    bound = feasible_family_bound(partition)
    upper = int(bound) if bound.denominator == 1 else bound.numerator // bound.denominator
    exhausted = []
    for target in range(upper, 0, -1):
        found = _search_with_target(caps_sorted, target)
        if found is None:
            exhausted.append(target)
            continue
        remapped = []
        for mask in found:
            orig = 0
            for j in iter_bits(mask):
                orig |= 1 << order[j]
            remapped.append(orig)
        family = FeasibleFamily(tuple(sizes), tuple(sorted(remapped)))
        return FamilySearchResult(target, family, bound, tuple(exhausted))
    raise InternalInvariantError("even a single-set family was not found")


def ratio_oracle(partition: Partition) -> RatioEstimate:
    """Worst S_max/S_pi over all unit-weight disjoint-unanimity profiles.

    Independent brute-force oracle for max_feasible_family, driven through
    the auction engine.  Profiles that provably cannot beat the running best
    (certified by a greedy part-cover, a valid restricted allocation) skip
    the exact computation.
    """
    universe = partition.universe
    if universe.m > MAX_ORACLE_GOODS:
        raise BudgetExceededError(
            f"oracle sweep capped at m <= {MAX_ORACLE_GOODS} goods, got m = {universe.m}"
        )
    parts = partition.parts
    family = field_of_partition(partition)
    best = RatioEstimate(Fraction(1), None)
    for masks in disjoint_unanimity_families(universe, max_buyers=universe.m):
        s = len(masks)
        if s <= best.ratio:
            continue
        supports = []
        for b in masks:
            sup = 0
            for l, part in enumerate(parts):
                if b & part:
                    sup |= 1 << l
            supports.append(sup)
        used = 0
        greedy = 0
        for sup in supports:
            if sup & used == 0:
                used |= sup
                greedy += 1
        if exact_ratio(s, greedy) <= best.ratio:
            continue
        profile = unanimity_profile(universe, masks)
        s_max = max_surplus(profile)
        _, s_pi = sigma_optimal_surplus(profile, family)
        ratio = exact_ratio(s_max, s_pi)
        if ratio > best.ratio:
            best = RatioEstimate(ratio, profile)
    return best


@dataclass(frozen=True)
class SemiBalancedReport:
    valid: bool
    total: Fraction
    phi_k: Fraction
    bound_ok: bool


def check_semi_balanced(sets: Sequence[int], k: int, delta: Sequence) -> SemiBalancedReport:
    """Check per-part loads <= 1 and the total against phi(k).

    ``sets`` are part-index bitmasks that must pairwise intersect (that is
    the hypothesis of the bound); ``delta`` are nonnegative weights aligned
    with them.
    """
    if len(sets) != len(delta):
        raise InvalidInputError("weight vector length must match the family size")
    weights = [as_value(d) for d in delta]
    if any(w < 0 for w in weights):
        raise InvalidInputError("weights must be nonnegative")
    _check_intersecting(sets, k)
    valid = True
    for l in range(k):
        load = sum(w for h, w in zip(sets, weights) if h >> l & 1)
        if load > 1:
            valid = False
            break
    total = sum(weights)
    phi_k = phi(k)
    return SemiBalancedReport(valid, total, phi_k, bound_ok=total <= phi_k)


# ---------------------------------------------------------------------------
# Projective planes


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def verify_plane_axioms(n_points: int, lines: Sequence[frozenset[int]], q: int) -> list[str]:
    """All violations of the three plane axioms (empty list when valid)."""
    problems = []
    expected = q * q + q + 1
    if n_points != expected:
        problems.append(f"expected {expected} points, got {n_points}")
    if len(lines) != expected:
        problems.append(f"expected {expected} lines, got {len(lines)}")
    points = range(1, n_points + 1)
    for line in lines:
        if len(line) != q + 1:
            problems.append(f"line {sorted(line)} has {len(line)} points, expected {q + 1}")
        if not all(1 <= p <= n_points for p in line):
            problems.append(f"line {sorted(line)} mentions unknown points")
    for p in points:
        deg = sum(1 for line in lines if p in line)
        if deg != q + 1:
            problems.append(f"point {p} lies on {deg} lines, expected {q + 1}")
    for i, a in enumerate(lines):
        for b in lines[i + 1 :]:
            if len(a & b) != 1:
                problems.append(f"lines {sorted(a)} and {sorted(b)} meet in {len(a & b)} points")
    for p in points:
        for r in range(p + 1, n_points + 1):
            count = sum(1 for line in lines if p in line and r in line)
            if count != 1:
                problems.append(f"points {p},{r} lie on {count} common lines")
    return problems


@dataclass(frozen=True)
class ProjectivePlane:
    q: int
    n_points: int
    lines: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        problems = verify_plane_axioms(self.n_points, self.lines, self.q)
        if problems:
            raise InvalidInputError("not a projective plane: " + "; ".join(problems[:3]))


def projective_plane(q: int) -> ProjectivePlane:
    """Plane of order q for q = 0, q = 1, or q prime.

    Prime powers p^l with l > 1 would need general finite-field arithmetic
    and are rejected.  The prime construction uses the one-dimensional
    subspaces of the three-dimensional vector space over the integers mod q;
    the axioms are re-verified on the result.
    """
    if q == 0:
        return ProjectivePlane(0, 1, (frozenset({1}),))
    if q == 1:
        return ProjectivePlane(
            1, 3, (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}))
        )
    if q < 0 or not _is_prime(q):
        raise InvalidInputError(
            f"unsupported plane order {q}: only 0, 1, and prime orders are constructed"
        )
    reps = (
        [(1, y, z) for y in range(q) for z in range(q)]
        + [(0, 1, z) for z in range(q)]
        + [(0, 0, 1)]
    )
    index = {rep: i + 1 for i, rep in enumerate(reps)}
    lines = []
    for a, b, c in reps:
        line = frozenset(
            index[(x, y, z)] for (x, y, z) in reps if (a * x + b * y + c * z) % q == 0
        )
        lines.append(line)
    lines.sort(key=lambda ln: tuple(sorted(ln)))
    return ProjectivePlane(q, len(reps), tuple(lines))


def plane_family(plane: ProjectivePlane) -> FeasibleFamily:
    """The plane's lines as a feasible family for q+1-sized parts."""
    caps = tuple([plane.q + 1] * plane.n_points)
    sets = []
    for line in plane.lines:
        mask = 0
        for p in line:
            mask |= 1 << (p - 1)
        sets.append(mask)
    return FeasibleFamily(caps, tuple(sorted(sets)))


# ---------------------------------------------------------------------------
# Witness profiles and the balanced family


def lower_bound_profile(family: FeasibleFamily, partition: Partition) -> Profile:
    """Single-minded buyers witnessing the family's ratio.

    Buyer i wants one good from each part indexed by their set, and the
    multiplicity caps make the wanted bundles pairwise disjoint, so the
    unrestricted optimum serves everyone while the partition-restricted one
    serves exactly one buyer.
    """
    if family.caps != partition.sizes:
        raise InvalidInputError("family caps must equal the partition's part sizes")
    goods_per_part = [list(iter_bits(part)) for part in partition.parts]
    next_good = [0] * partition.k
    masks = []
    for h in family.sets:
        bundle = 0
        for l in iter_bits(h):
            bundle |= 1 << goods_per_part[l][next_good[l]]
            next_good[l] += 1
        masks.append(bundle)
    return unanimity_profile(partition.universe, masks)


def balanced_family(universe: GoodsUniverse) -> BundleFamily:
    """Bundles meeting the two halves of the goods in equally many elements."""
    m = universe.m
    if m % 2 != 0:
        raise InvalidInputError("the balanced family needs an even number of goods")
    half = m // 2
    left = (1 << half) - 1
    right = universe.full_mask ^ left
    members = [
        d
        for d in universe.all_bundles()
        if (d & left).bit_count() == (d & right).bit_count()
    ]
    return BundleFamily(universe, frozenset(members))
