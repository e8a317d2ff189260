"""Exact worst-case inefficiency of partition-restricted bidding.

The central object is a feasible family for a partition: a multiset of
pairwise-intersecting subsets of part indices whose per-part multiplicities
are capped by the part sizes.  The maximum family size equals the worst-case
surplus ratio of the partition, so the solver here is the combinatorial side
of a dual route whose other side is the profile-sweep oracle driven through
the auction engine.
"""
from __future__ import annotations

from collections import Counter, defaultdict
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
    FAMILY_TARGET_CAP,
    MAX_ORACLE_GOODS,
    UNIVERSE_GOODS_CAP,
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


def _family_search(caps: tuple[int, ...]):
    """The search of one partition: a function of ``target`` that returns
    the first family of exactly ``target`` sets in canonical order, or None.

    caps must be sorted descending.  Candidates are scanned by (size, mask);
    the family's first (minimal) set is restricted to masks whose bits form a
    prefix inside every equal-cap run, which every family can be relabeled
    into, cutting the part-permutation symmetry.  These tables depend on the
    caps alone, so they are built once for every target.
    """
    k = len(caps)
    candidates = sorted(range(1, 1 << k), key=lambda msk: (msk.bit_count(), msk))
    sizes = [c.bit_count() for c in candidates]
    bits_of = [tuple(iter_bits(c)) for c in candidates]
    runs = []  # the mask of each run of equal caps
    for i, cap in enumerate(caps):
        if i and cap == caps[i - 1]:
            runs[-1] |= 1 << i
        else:
            runs.append(1 << i)
    # Shifted down to its run's lowest part, a prefix is 2^j - 1.
    first_ok = [all((x := (c & r) // (r & -r)) & (x + 1) == 0 for r in runs) for c in candidates]
    rem = list(caps)  # each return restores these, so every target shares them
    chosen: list[int] = []
    chosen_bits: list[tuple[int, ...]] = []

    def dfs(pos: int, target: int) -> tuple[int, ...] | None:
        if len(chosen) == target:
            return tuple(chosen)
        need = target - len(chosen)
        rem_total = sum(rem)
        for bits in chosen_bits:
            if sum(map(rem.__getitem__, bits)) < need:
                return None
        for idx in range(pos, len(candidates)):
            if rem_total < need * sizes[idx]:
                return None  # later candidates are at least this large
            c = candidates[idx]
            if not chosen and not first_ok[idx]:
                continue
            bits = bits_of[idx]
            if not all(map(rem.__getitem__, bits)):
                continue  # a part of c is at its cap
            if any(c & h == 0 for h in chosen):
                continue
            for l in bits:
                rem[l] -= 1
            chosen.append(c)
            chosen_bits.append(bits)
            found = dfs(idx, target)
            chosen.pop()
            chosen_bits.pop()
            for l in bits:
                rem[l] += 1
            if found is not None:
                return found
        return None

    return lambda target: dfs(0, target)


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
    upper = bound.numerator // bound.denominator
    if upper > FAMILY_TARGET_CAP:
        raise BudgetExceededError(
            f"exact family search capped at {FAMILY_TARGET_CAP} sets, first target {upper}"
        )
    search = _family_search(caps_sorted)
    exhausted = []
    for target in range(upper, 0, -1):
        found = search(target)
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
    for masks in disjoint_unanimity_families(universe):
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


def _uneven_meetings(members, index, ids: range):
    """(a, b, k) for each pair a < b in ``ids`` where k, the number of x in
    ``members[a]`` with b in ``index[x]``, is not 1; in order of a, then b.

    One pass over each x's ``index`` entries per a: O(sum over x of
    |index[x]|^2 + |ids|^2) steps in all.
    """
    for a in ids:
        meets = Counter(b for x in members[a] for b in index[x] if b > a)
        once = {b for b, k in meets.items() if k == 1}
        for b in sorted(set(range(a + 1, ids.stop)).difference(once)):
            yield a, b, meets[b]


def verify_plane_axioms(n_points: int, lines: Sequence[frozenset[int]], q: int) -> list[str]:
    """All violations of the three plane axioms (empty list when valid).

    Pairs of lines meet through their shared points and pairs of points
    through their common lines, so a plane of order q takes O(q^4) steps.
    """
    problems = []
    expected = q * q + q + 1
    if n_points != expected:
        problems.append(f"expected {expected} points, got {n_points}")
    if len(lines) != expected:
        problems.append(f"expected {expected} lines, got {len(lines)}")
    on = defaultdict(list)  # each point, known or not, to the lines through it
    for i, line in enumerate(lines):
        if len(line) != q + 1:
            problems.append(f"line {sorted(line)} has {len(line)} points, expected {q + 1}")
        if not all(1 <= p <= n_points for p in line):
            problems.append(f"line {sorted(line)} mentions unknown points")
        for p in line:
            on[p].append(i)
    for p in range(1, n_points + 1):
        if len(on[p]) != q + 1:
            problems.append(f"point {p} lies on {len(on[p])} lines, expected {q + 1}")
    for i, j, k in _uneven_meetings(lines, on, range(len(lines))):
        problems.append(f"lines {sorted(lines[i])} and {sorted(lines[j])} meet in {k} points")
    for p, r, k in _uneven_meetings(on, lines, range(1, n_points + 1)):
        problems.append(f"points {p},{r} lie on {k} common lines")
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
    unsupported = f"unsupported plane order {q}: only 0, 1, and prime orders are constructed"
    if q < 0:
        raise InvalidInputError(unsupported)
    # Budgeted before any point is built: the count of point-line
    # incidences is the count of goods of the plane's Theorem 4 witness.
    incidences = (q + 1) * (q * q + q + 1)
    if incidences > UNIVERSE_GOODS_CAP:
        raise BudgetExceededError(
            f"projective plane capped at {UNIVERSE_GOODS_CAP} point-line incidences, got {incidences} at q = {q}"
        )
    if not _is_prime(q):
        raise InvalidInputError(unsupported)
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
