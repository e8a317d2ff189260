#!/usr/bin/env python3
"""Worst-case surplus ratio over all k-part shapes of m goods.

With --k, prints the minimum ratio over every k-part shape.  The interesting
configuration is m=21, k=7: the equal split into triples has ratio 7, while
(2,4,3,3,3,3,3) achieves 6, and this sweep confirms 6 is the minimum.

Without --k, prints the communication/efficiency frontier: for each part
count k, reporting on a partition field costs 2^k numbers per buyer, next to
the best worst-case ratio over all k-part shapes.

Per-shape progress goes to stderr.

Usage: python scripts/partition_shapes.py --m 21 [--k 7]
"""
import argparse
import sys
import time

from vcbundle import feasible_family_bound, max_feasible_family, partition_from_sizes
from vcbundle.core import MAX_EXACT_PARTS


def shapes(m: int, k: int):
    """Part sizes in non-increasing order, each multiset of k sizes summing to m once."""
    def rec(remaining, max_part, parts):
        if len(parts) == k:
            if remaining == 0:
                yield tuple(parts)
            return
        slots_left = k - len(parts) - 1
        for size in range(min(remaining - slots_left, max_part), 0, -1):
            parts.append(size)
            yield from rec(remaining - size, size, parts)
            parts.pop()

    yield from rec(m, m, [])


def best_shape(m: int, k: int):
    """(minimum ratio, first shape attaining it, shapes searched)."""
    best = None
    total = 0
    for sizes in shapes(m, k):
        total += 1
        started = time.monotonic()
        r = max_feasible_family(partition_from_sizes(list(sizes))).s
        print(f"{sizes}: r = {r}  ({time.monotonic() - started:.2f}s)", file=sys.stderr, flush=True)
        if best is None or r < best[0]:
            best = (r, sizes)
    return best[0], best[1], total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, required=True, help="number of goods")
    parser.add_argument("--k", type=int, help="part count (default: every k <= min(m, MAX_EXACT_PARTS))")
    args = parser.parse_args(argv)

    if args.k is not None:
        started = time.monotonic()
        r, sizes, total = best_shape(args.m, args.k)
        print(f"minimum ratio over {total} shapes: {r}, attained at {sizes}")
        print(f"total time {time.monotonic() - started:.1f}s")
        return 0
    print(f"{'k':>2} {'2^k':>5} {'best r':>7} {'best shape':<20} {'bound at best':>13} {'secs':>6}")
    for k in range(1, min(args.m, MAX_EXACT_PARTS) + 1):
        started = time.monotonic()
        r, sizes, _ = best_shape(args.m, k)
        bound = feasible_family_bound(partition_from_sizes(list(sizes)))
        elapsed = time.monotonic() - started
        print(f"{k:>2} {2 ** k:>5} {r:>7} {str(sizes):<20} {str(bound):>13} {elapsed:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
