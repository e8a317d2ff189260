"""Span tracing of vcbundle's layers, applied from outside the package.

``install`` wraps the public functions of each vcbundle module and rebinds
every name in every vcbundle module (and the package itself) that refers to
an original, so internal calls such as ``auction.max_surplus`` from
``ineff.ratio_oracle`` are seen too.  ``uninstall`` restores the originals.

A span records its metric key, start, end, parent span and task id.  Self
time is a span's duration minus the part of it that its child spans cover.
Functions called far more than 10^5 times per run (``Valuation.value``) only
count calls: a span's own cost would swamp theirs.
"""
from __future__ import annotations

import inspect
import json
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("core", "jsonio", "sigma", "auction", "equilibrium", "ineff", "reproduce")

# Names of the per-layer metrics a traced run reports, with their units.
METRICS = (
    ("auction.dense.calls", "count"),
    ("auction.dense.self_s", "s"),
    ("auction.dense.cells_computed", "count"),
    ("auction.payment_solves.calls", "count"),
    ("auction.sparse.calls", "count"),
    ("auction.sparse.self_s", "s"),
    ("auction.sparse.atoms_max", "count"),
    ("core.value.calls", "count"),
    ("auction.partition_route.calls", "count"),
    ("auction.partition_route.self_s", "s"),
    ("sigma.partition_of_family.calls", "count"),
    ("sigma.partition_of_family.self_s", "s"),
    ("ineff.family_search.calls", "count"),
    ("ineff.family_search.self_s", "s"),
    ("ineff.family_search.exhausted_targets", "count"),
    ("ineff.oracle.self_s", "s"),
    ("ineff.oracle.profiles_enumerated", "count"),
    ("ineff.oracle.profiles_solved", "count"),
    ("ineff.oracle.solve_ratio", "1"),
    ("sigma.project.calls", "count"),
    ("sigma.project.self_s", "s"),
    ("sigma.classify.self_s", "s"),
    ("equilibrium.gap.calls", "count"),
    ("equilibrium.gap.self_s", "s"),
    ("auction.family_route.calls", "count"),
    ("auction.family_route.self_s", "s"),
    ("equilibrium.generators.self_s", "s"),
    ("jsonio.parse.self_s", "s"),
    ("jsonio.emit.self_s", "s"),
    ("reproduce.run_target.self_s", "s"),
) + tuple((f"{layer}.errors", "count") for layer in LAYERS)

# Metrics counted at call time rather than read off the span tree.
_COUNTED = {
    "core.value.calls",
    "auction.payment_solves.calls",
    "auction.dense.cells_computed",
    "auction.sparse.atoms_max",
    "ineff.family_search.exhausted_targets",
    "ineff.oracle.profiles_enumerated",
    "ineff.oracle.profiles_solved",
}

# module -> {function name: metric key}.  The key "route" picks
# auction.dense or auction.sparse from the profile argument.
_SPANS = {
    "jsonio": {
        **dict.fromkeys(("parse_instance", "parse_family", "parse_single_valuation"), "jsonio.parse"),
        **dict.fromkeys(
            ("dumps", "outcome_payload", "allocation_payload", "profile_payload",
             "family_payload", "valuation_payload", "classification_payload", "flatten_csv"),
            "jsonio.emit",
        ),
    },
    "sigma": {
        "classify_family": "sigma.classify",
        "is_quasi_field": "sigma.classify",
        "project_valuation": "sigma.project",
        "project_profile": "sigma.project",
        "partition_of_family": "sigma.partition_of_family",
        "field_of_partition": "sigma.field_of_partition",
        "quasi_field_closure": "sigma.quasi_field_closure",
        "equilibrium_counterexample": "sigma.counterexample",
        "enumerate_families": "sigma.enumerate_families",
    },
    "auction": {
        "optimal_allocation": "route",
        "max_surplus": "route",
        # Renamed to auction.partition_route when partition_of_family,
        # called inside it, finds a partition.
        "sigma_optimal_surplus": "auction.family_route",
        "run_vc": "auction.run_vc",
        "clarke_payment": "auction.clarke_payment",
    },
    "equilibrium": {
        "max_profile_gap": "equilibrium.gap",
        "deviation_gap": "equilibrium.gap",
        "check_bundling_equilibrium": "equilibrium.check",
        "empirical_ratio": "equilibrium.empirical_ratio",
        **dict.fromkeys(
            ("disjoint_unanimity_families", "disjoint_unanimity_profiles", "unanimity_profile",
             "singleton_profile", "random_monotone_valuation", "random_monotone_profiles",
             "random_quasi_field"),
            "equilibrium.generators",
        ),
    },
    "ineff": {
        "max_feasible_family": "ineff.family_search",
        "ratio_oracle": "ineff.oracle",
        **dict.fromkeys(
            ("lower_bound_profile", "balanced_family", "projective_plane", "plane_family",
             "verify_plane_axioms", "check_semi_balanced", "closed_form_ratio",
             "feasible_family_bound"),
            "ineff.constructions",
        ),
    },
    "reproduce": {"run_target": "reproduce.run_target", "run_all": "reproduce.run_all"},
}


class Span:
    __slots__ = ("key", "start", "end", "parent", "task", "error")

    def __init__(self, key: str, start: float, end: float, parent: int, task: int, error: bool = False):
        self.key = key
        self.start = start
        self.end = end
        self.parent = parent  # index into the span list, -1 for a root
        self.task = task
        self.error = error


class Tracer:
    """In-memory spans and counters of one traced round."""

    def __init__(self) -> None:
        self.task = -1
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # bound by the wrappers: clear, never replace

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.counts.clear()

    def parent_key(self) -> str | None:
        return self.spans[self.stack[-1]].key if self.stack else None

    def open(self, key: str) -> Span:
        span = Span(key, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.task)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()

    def metrics(self) -> dict[str, float]:
        """The METRICS of this round, from its spans and counters."""
        spans = self.spans
        own = self_times(spans)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        errors: Counter = Counter()
        for span, t in zip(spans, own):
            parent = spans[span.parent] if span.parent >= 0 else None
            self_s[span.key] += t
            if parent is None or parent.key != span.key:
                calls[span.key] += 1
            layer = span.key.split(".")[0]
            if span.error and (parent is None or parent.key.split(".")[0] != layer):
                errors[layer] += 1
        counts = self.counts
        out = {}
        for name, _ in METRICS:
            key, _, field = name.rpartition(".")
            if name in _COUNTED:
                out[name] = counts[name]
            elif field == "calls":
                out[name] = calls[key]
            elif field == "self_s":
                out[name] = self_s[key]
            elif field == "errors":
                out[name] = errors[key] + counts[name]
            elif name == "ineff.oracle.solve_ratio":
                enumerated = counts["ineff.oracle.profiles_enumerated"]
                out[name] = counts["ineff.oracle.profiles_solved"] / enumerated if enumerated else 0.0
        return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _route(args) -> str:
    return "auction.sparse" if args[0].all_sparse else "auction.dense"


def _on_open(tracer: Tracer, key: str, fn, args) -> None:
    """Counters derived from call arguments and the calling span."""
    counts = tracer.counts
    if key == "auction.dense":
        profile = args[0]
        counts["auction.dense.cells_computed"] += profile.n * 3 ** profile.universe.m
    elif key == "auction.sparse":
        atoms = sum(1 for v in args[0].valuations for a, w in v.atoms if a and w > 0)
        counts["auction.sparse.atoms_max"] = max(counts["auction.sparse.atoms_max"], atoms)
    if fn.__name__ == "max_surplus":
        parent = tracer.parent_key()
        if parent == "auction.run_vc":
            counts["auction.payment_solves.calls"] += 1
        elif parent == "ineff.oracle":
            counts["ineff.oracle.profiles_solved"] += 1


def _on_return(tracer: Tracer, key: str, span: Span, result) -> None:
    if key == "ineff.family_search":
        tracer.counts["ineff.family_search.exhausted_targets"] += len(result.exhausted)
    elif key == "sigma.partition_of_family" and result is not None and span.parent >= 0:
        parent = tracer.spans[span.parent]
        if parent.key == "auction.family_route":
            parent.key = "auction.partition_route"


def _span_wrapper(tracer: Tracer, key: str, fn):
    def wrapper(*args, **kwargs):
        name = _route(args) if key == "route" else key
        _on_open(tracer, name, fn, args)
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            span.error = True
            raise
        finally:
            tracer.close(span)
        _on_return(tracer, name, span, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _generator_wrapper(tracer: Tracer, key: str, fn):
    """Each resume of the generator is one span, so time spent by the
    consumer between items is not charged to it."""

    counts_oracle_yields = fn.__name__ == "disjoint_unanimity_families"

    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            span = tracer.open(key)
            try:
                item = next(items)
            except StopIteration:
                return
            except Exception:
                span.error = True
                raise
            finally:
                tracer.close(span)
            if counts_oracle_yields and span.parent >= 0:
                if tracer.spans[span.parent].key == "ineff.oracle":
                    tracer.counts["ineff.oracle.profiles_enumerated"] += 1
            yield item

    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(tracer: Tracer, key: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[key + ".calls"] += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            counts[key.split(".")[0] + ".errors"] += 1
            raise

    wrapper.__wrapped__ = fn
    return wrapper


def _package_modules() -> list[types.ModuleType]:
    return [mod for name, mod in sorted(sys.modules.items()) if name == "vcbundle" or name.startswith("vcbundle.")]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function; returns the patches for ``uninstall``."""
    import vcbundle.core

    modules = _package_modules()
    patches = []
    for mod_name, functions in _SPANS.items():
        home = sys.modules[f"vcbundle.{mod_name}"]
        for fn_name, key in functions.items():
            fn = getattr(home, fn_name)
            make = _generator_wrapper if inspect.isgeneratorfunction(fn) else _span_wrapper
            wrapper = make(tracer, key, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
    value = vcbundle.core.Valuation.value
    patches.append((vcbundle.core.Valuation, "value", value))
    vcbundle.core.Valuation.value = _count_wrapper(tracer, "core.value", value)
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for obj, attr, original in reversed(patches):
        setattr(obj, attr, original)


def dump_spans(spans: list[Span], path) -> None:
    """Write spans as one JSON document: times in microseconds from the first span."""
    origin = spans[0].start if spans else 0.0
    rows = [
        [s.key, round((s.start - origin) * 1e6, 1), round((s.end - origin) * 1e6, 1), s.parent, s.task, s.error]
        for s in spans
    ]
    with open(path, "w") as out:
        json.dump({"fields": ["key", "start_us", "end_us", "parent", "task", "error"], "spans": rows}, out)
