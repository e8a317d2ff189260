"""A fixed piece of pure-Python work that samples the machine's speed.

The host's speed drifts by tens of percent within seconds and over minutes.
``run.py`` takes a sample of this probe about every ``EVERY_S`` seconds,
between tasks and outside their timing, and scales each round's times by
(``REFERENCE_S`` / the median of the samples taken during that round) **
``SENSITIVITY``, so that runs made at different host speeds compare.  The
probe is a subset DP and some object churn, about 34 ms together.  Nothing
here imports vcbundle, so no change to the library moves it.
"""
from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

import reference

REFERENCE_S = 0.034  # the probe's time at the reference machine speed
EVERY_S = 0.5  # time between two samples
# How far the workloads' speed follows the probe's, as a power.  The probe's
# data fit in the core's caches and the workloads' do not, so when the host
# speeds up or slows down the workloads move less.  On the 2-vCPU Xeon VM
# the log-log slope of a round's wall time on the probe's median ranged from
# 0.5 (a 1.5x faster probe, a 1.22x faster round) to 0.9 between periods of
# a few minutes; 0.5 cut the ten-seed spread of every end-to-end time in
# both periods, a power of 1 over-corrected in the first.
SENSITIVITY = 0.5


def _tables() -> list[list[int]]:
    rng = random.Random(0)
    return [[0] + [rng.randrange(1, 100) for _ in range(511)] for _ in range(3)]


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key: tuple[int, ...], weight: int):
        self.key = key
        self.weight = weight


def _object_churn() -> int:
    """Small frozensets, tuples, dict updates, objects and a sort: the kind
    of work vcbundle's families, profiles and searches do."""
    rng = random.Random(1)
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(1500):
        a = frozenset(rng.sample(range(12), 4))
        b = frozenset(rng.sample(range(12), 3))
        key = tuple(sorted(a | b))
        counts[key] = counts.get(key, 0) + len(a & b)
    cells = [_Cell(k, w) for k, w in counts.items()]
    cells.sort(key=lambda c: (c.weight, c.key))
    total = sum(sum(c.key) * c.weight for c in cells)
    buckets: dict[int, list[tuple[int, str]]] = {}
    for i in range(3000):
        buckets.setdefault(i % 97, []).append((i, str(i)))
    return total + len(buckets)


class SpeedProbe:
    """Samples of the probe's time; ``scale`` converts a time measured while
    the samples were taken to the reference speed."""

    def __init__(self):
        self.tables = _tables()
        self.samples: list[float] = []
        self.due = perf_counter()

    def sample(self) -> None:
        gc.disable()  # so that the probe's garbage does not move the workload's collections
        try:
            started = perf_counter()
            reference.max_surplus_dense(self.tables)
            _object_churn()
            self.samples.append(perf_counter() - started)
        finally:
            gc.enable()
        self.due = perf_counter() + EVERY_S

    def maybe_sample(self) -> None:
        if perf_counter() >= self.due:
            self.sample()

    def scale(self, since: int = 0) -> float:
        """Reference time over the median of the samples from ``since`` on,
        to the power ``SENSITIVITY``."""
        return (REFERENCE_S / statistics.median(self.samples[since:])) ** SENSITIVITY
