"""Independent references for the benchmark's output checks.

Nothing here imports vcbundle: inputs are plain lists of masks and exact
numbers, so a solver defect cannot hide behind a helper the check shares.
"""
from __future__ import annotations

from itertools import combinations


def max_surplus_dense(tables: list[list]) -> object:
    """Best total value of disjoint bundles, one per buyer, by subset DP.

    ``tables[i][S]`` is buyer i's value for bundle mask S; every table has
    length 2^m.  Cost n * 3^m, so callers keep m small.
    """
    size = len(tables[0])
    best = [0] * size  # best[S]: optimum of the buyers seen so far on goods S
    for table in tables:
        nxt = [0] * size
        for s in range(size):
            top = table[0] + best[s]
            sub = s
            while sub:
                cand = table[sub] + best[s & ~sub]
                if cand > top:
                    top = cand
                sub = (sub - 1) & s
            nxt[s] = top
        best = nxt
    return best[size - 1]


def packing_value(atoms: list[tuple[int, object]], mask: int) -> object:
    """Largest total weight of pairwise-disjoint atoms inside ``mask``.

    Brute force over atom subsets; callers pass a few atoms per buyer.
    """
    inside = [(a, w) for a, w in atoms if a and a & mask == a]
    best = 0
    for r in range(1, len(inside) + 1):
        for pick in combinations(inside, r):
            used = 0
            total = 0
            for a, w in pick:
                if used & a:
                    break
                used |= a
                total += w
            else:
                if total > best:
                    best = total
    return best


def feasible_family_problems(sets: tuple[int, ...], caps: tuple[int, ...]) -> list[str]:
    """Why ``sets`` is not a feasible family for part sizes ``caps`` (empty if it is).

    Feasible: nonempty subsets of the k parts, pairwise intersecting, and no
    part used by more sets than its size.
    """
    k = len(caps)
    problems = []
    if any(not 0 < h < 1 << k for h in sets):
        problems.append("a set is empty or names a part that does not exist")
    for a, b in combinations(sets, 2):
        if a & b == 0:
            problems.append(f"sets {a:#x} and {b:#x} are disjoint")
    for part, cap in enumerate(caps):
        load = sum(1 for h in sets if h >> part & 1)
        if load > cap:
            problems.append(f"part {part} carries {load} sets, above its size {cap}")
    return problems
