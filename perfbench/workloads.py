"""The two benchmark workloads: seeded inputs, tasks, and output checks.

A workload is a fixed list of tasks built from a seed, in two phases:
``auction`` is auction-dense then auction-sparse, ``analysis`` is
partition-ratio then stability-sweep.  A task is one top-level call into
vcbundle (or, where noted, one pair of calls whose results check each
other); ``run`` is timed, ``check`` is not.  ``check`` verifies
seed-independent invariants, raising ``CheckFailed`` on a violation, and
returns the task's canonical output text, whose digest the runner compares
across rounds and, for the default seed, against ``digests.json``.

Tasks reach vcbundle through module attributes (``vb.run_vc``, not a name
imported here) so that the traced run's wrappers see every call.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import vcbundle as vb
from vcbundle import jsonio, reproduce
from vcbundle import equilibrium as eq

import reference

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_TIES = ("canonical", "seller", "adversarial")


class CheckFailed(Exception):
    """A task's output broke an invariant or disagreed with a reference."""


@dataclass(frozen=True)
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _labels(m: int) -> list[str]:
    return list(_LETTERS[:m]) if m <= len(_LETTERS) else [f"g{i}" for i in range(m)]


def _bundle(labels: list[str], mask: int) -> str:
    return "".join(lab for i, lab in enumerate(labels) if mask >> i & 1)


def _tie(kind: str, buyer: int):
    return vb.TieBreak.adversarial_to(buyer) if kind == "adversarial" else vb.TieBreak(kind)


# ---------------------------------------------------------------------------
# Input generators (benchmark-side, so the library sees only their output)


def monotone_table(m: int, rng: random.Random, top: int) -> list[int]:
    """Random integer values, normalised and made monotone by a subset-max sweep."""
    size = 1 << m
    table = [rng.randint(0, top) for _ in range(size)]
    table[0] = 0
    for i in range(m):
        bit = 1 << i
        for s in range(size):
            if s & bit and table[s ^ bit] > table[s]:
                table[s] = table[s ^ bit]
    return table


def quasi_field_members(m: int, seeds: set[int]) -> frozenset[int]:
    """Smallest set holding the seeds, 0 and all goods that is closed under
    complements and disjoint unions."""
    full = (1 << m) - 1
    members = set(seeds) | {0, full}
    changed = True
    while changed:
        changed = False
        for b in list(members):
            if full ^ b not in members:
                members.add(full ^ b)
                changed = True
        for b, c in combinations(sorted(members), 2):
            if b & c == 0 and b | c not in members:
                members.add(b | c)
                changed = True
    return frozenset(members)


def is_quasi_field(members: frozenset[int], full: int) -> bool:
    return all(full ^ b in members for b in members) and all(
        b | c in members for b, c in combinations(members, 2) if b & c == 0
    )


def disjoint_families(m: int) -> list[tuple[int, ...]]:
    """Every nonempty family of pairwise-disjoint nonempty bundles over m goods
    (goods may stay unsold): the supports of the unit unanimity sweep."""
    out = []
    blocks: list[int] = []

    def rec(g: int) -> None:
        if g == m:
            if blocks:
                out.append(tuple(blocks))
            return
        bit = 1 << g
        rec(g + 1)
        for i in range(len(blocks)):
            blocks[i] |= bit
            rec(g + 1)
            blocks[i] ^= bit
        blocks.append(bit)
        rec(g + 1)
        blocks.pop()

    rec(0)
    return out


def partition_shapes(m: int, max_parts: int, max_size: int):
    """Part-size tuples (descending) summing to m with bounded count and size."""

    def rec(rest: int, cap: int, parts: list[int]):
        if rest == 0:
            yield tuple(parts)
            return
        if len(parts) == max_parts:
            return
        for size in range(min(rest, cap), 0, -1):
            parts.append(size)
            yield from rec(rest - size, size, parts)
            parts.pop()

    yield from rec(m, max_size, [])


# ---------------------------------------------------------------------------
# auction-dense and auction-sparse: JSON instance in, JSON outcome out


def _instance_task(
    doc: str,
    tie_kind: str,
    tie_buyer: int,
    call: str,
    m: int,
    buyer_values: Callable[[int, int], object],
    known_surplus=None,
    family_doc: str | None = None,
) -> Task:
    """One auction task on a serialised instance.

    ``buyer_values(i, mask)`` evaluates buyer i's true valuation without
    vcbundle; ``known_surplus`` is the optimum when the instance fixes it.
    With ``family_doc`` the reports are the projection of the true profile
    onto that family, and the truth is passed as ``true_profile``.
    """
    tie = _tie(tie_kind, tie_buyer)

    def run():
        true = jsonio.parse_instance(json.loads(doc))
        if call == "optimal_allocation":
            reference_profile = true if tie.kind == "adversarial" else None
            allocation, value = vb.optimal_allocation(true, tie, reference_profile)
            payload = {
                "allocation": jsonio.allocation_payload(allocation),
                "surplus": jsonio.fraction_repr(value),
            }
            return jsonio.dumps(payload), true, true, (allocation, value)
        if family_doc is None:
            outcome = vb.run_vc(true, tie)
            return jsonio.dumps(jsonio.outcome_payload(outcome)), true, true, outcome
        reported = vb.project_profile(true, jsonio.parse_family(json.loads(family_doc)))
        outcome = vb.run_vc(reported, tie, true_profile=true)
        return jsonio.dumps(jsonio.outcome_payload(outcome)), true, reported, outcome

    def check(result) -> str:
        text, true, reported, got = result
        n = true.n
        if call == "optimal_allocation":
            allocation, value = got
            bundles = allocation.buyer_bundles
            _require(
                value == sum(buyer_values(i, b) for i, b in enumerate(bundles)),
                "returned surplus differs from the allocation's value",
            )
            optimum = value
        else:
            bundles = got.allocation.buyer_bundles
            _require(all(p >= 0 for p in got.payments), "negative payment")
            _require(got.revenue == sum(got.payments), "revenue is not the sum of payments")
            true_values = [buyer_values(i, b) for i, b in enumerate(bundles)]
            _require(got.surplus == sum(true_values), "surplus differs from the true values")
            if family_doc is None:
                _require(got.revenue <= got.surplus, "truthful revenue exceeds surplus")
                _require(
                    all(v - p >= 0 for v, p in zip(true_values, got.payments)),
                    "truthful buyer has negative utility",
                )
                optimum = got.surplus
            else:
                optimum = sum(v.table[b] for v, b in zip(reported.valuations, bundles))
        used = 0
        for b in bundles:
            _require(b & used == 0, "buyer bundles overlap")
            used |= b
        if known_surplus is not None and family_doc is None:
            _require(optimum == known_surplus, f"surplus {optimum} != known optimum {known_surplus}")
        if m <= 8:
            if family_doc is None:
                tables = [[buyer_values(i, s) for s in range(1 << m)] for i in range(n)]
            else:
                tables = [list(v.table) for v in reported.valuations]
            _require(
                optimum == reference.max_surplus_dense(tables),
                "optimum differs from the reference subset DP",
            )
        return text

    return Task(call, run, check)


def _table_values(tables: list[list[int]]) -> Callable[[int, int], int]:
    return lambda i, mask: tables[i][mask]


def _atom_values(buyers: list[list[tuple[int, int]]]) -> Callable[[int, int], int]:
    return lambda i, mask: reference.packing_value(buyers[i], mask)


# (goods, buyers, tasks) per group; costs grow as buyers * 3^goods.
DENSE_GROUPS = {
    "full": ((8, 2, 12), (8, 3, 12), (8, 4, 12), (9, 3, 12), (10, 3, 8), (10, 4, 2), (11, 3, 1), (12, 2, 1)),
    "tiny": ((3, 2, 3), (4, 3, 3)),
}


def auction_dense(seed: int, size: str = "full") -> list[Task]:
    """run_vc on random monotone dense tables under every tie rule; every
    third task reports the projection onto a random quasi field."""
    rng = random.Random(seed)
    tasks = []
    j = 0
    for m, n, count in DENSE_GROUPS[size]:
        labels = _labels(m)
        for _ in range(count):
            tables = [monotone_table(m, rng, 20) for _ in range(n)]
            doc = json.dumps(
                {
                    "goods": labels,
                    "valuations": [
                        {
                            "kind": "dense",
                            "values": {_bundle(labels, s): v for s, v in enumerate(t) if v},
                        }
                        for t in tables
                    ],
                }
            )
            family_doc = None
            if j // 3 % 3 == 2:
                seeds = {rng.randint(1, (1 << m) - 1) for _ in range(rng.randint(1, 3))}
                members = quasi_field_members(m, seeds)
                family_doc = json.dumps(
                    {"goods": labels, "bundles": [_bundle(labels, b) for b in sorted(members)]}
                )
            tasks.append(
                _instance_task(
                    doc,
                    _TIES[j % 3],
                    rng.randrange(n),
                    "run_vc",
                    m,
                    _table_values(tables),
                    family_doc=family_doc,
                )
            )
            j += 1
    return tasks


def _atoms_doc(labels: list[str], buyers: list[list[tuple[int, int]]]) -> str:
    return json.dumps(
        {
            "goods": labels,
            "valuations": [
                {
                    "kind": "atoms",
                    "atoms": [
                        {"bundle": _bundle(labels, a), "weight": w} for a, w in atoms
                    ],
                }
                for atoms in buyers
            ],
        }
    )


SPARSE_SIZES = {
    # tied: goods of the two-unit-buyers-per-good instance (2m atoms, 2^m
    # tied optima); random: (instances, goods range, atoms range).  The
    # search cost of one random instance varies several-fold, so there are
    # hundreds of small ones: p50 and their total then vary little from seed
    # to seed.
    "full": {"tied": (10, 11), "random": (1200, (20, 30), (16, 20))},
    "tiny": {"tied": (3, 4), "random": (4, (6, 8), (5, 7))},
}


def auction_sparse(seed: int, size: str = "full") -> list[Task]:
    """run_vc and optimal_allocation on atom profiles under every tie rule."""
    rng = random.Random(seed)
    sizes = SPARSE_SIZES[size]
    tasks = []
    for m in sizes["tied"]:
        labels = _labels(m)
        goods = [g for g in range(m) for _ in range(2)]
        rng.shuffle(goods)
        buyers = [[(1 << g, 1)] for g in goods]
        doc = _atoms_doc(labels, buyers)
        values = _atom_values(buyers)
        for call in ("run_vc", "optimal_allocation"):
            for kind in _TIES:
                tasks.append(
                    _instance_task(doc, kind, rng.randrange(2 * m), call, m, values, known_surplus=m)
                )
    count, (lo_m, hi_m), (lo_a, hi_a) = sizes["random"]
    for j in range(count):
        m = rng.randint(lo_m, hi_m)
        left = rng.randint(lo_a, hi_a)
        buyers = []
        while left:
            atoms = []
            for _ in range(min(left, rng.randint(1, 3))):
                mask = sum(1 << g for g in rng.sample(range(m), rng.randint(1, 3)))
                atoms.append((mask, rng.randint(1, 12)))
            buyers.append(atoms)
            left -= len(atoms)
        values = _atom_values(buyers)
        call = ("run_vc", "optimal_allocation")[j % 2]
        tasks.append(
            _instance_task(
                _atoms_doc(_labels(m), buyers), _TIES[j // 2 % 3], rng.randrange(len(buyers)), call, m, values
            )
        )
    return tasks


# ---------------------------------------------------------------------------
# partition-ratio


def _family_search_task(sizes: tuple[int, ...]) -> Task:
    def run():
        return vb.max_feasible_family(vb.partition_from_sizes(list(sizes)))

    def check(res) -> str:
        fam = res.family
        _require(fam.caps == sizes, "family caps differ from the part sizes")
        problems = reference.feasible_family_problems(fam.sets, fam.caps)
        _require(not problems, "; ".join(problems[:2]))
        try:
            vb.FeasibleFamily(fam.caps, fam.sets)
        except vb.InvalidInputError as exc:
            raise CheckFailed(f"FeasibleFamily rejects the result: {exc}") from None
        _require(res.s == len(fam.sets) >= 1, "size disagrees with the family")
        top = res.upper_bound.numerator // res.upper_bound.denominator
        _require(res.exhausted == tuple(range(top, res.s, -1)), "exhausted targets are not the ones above s")
        return json.dumps({"s": res.s, "sets": fam.sets, "exhausted": res.exhausted})

    return Task("max_feasible_family", run, check)


def _oracle_task(sizes: tuple[int, ...]) -> Task:
    def run():
        part = vb.partition_from_sizes(list(sizes))
        return vb.max_feasible_family(part).s, vb.ratio_oracle(part)

    def check(result) -> str:
        s, estimate = result
        _require(estimate.ratio == s, f"oracle ratio {estimate.ratio} != solver {s}")
        witness = None if estimate.profile is None else [v.atoms for v in estimate.profile.valuations]
        return json.dumps({"s": s, "witness": witness})

    return Task("ratio_oracle", run, check)


def _thm4_task(q: int) -> Task:
    def run():
        return reproduce.run_target("thm4", q=q)

    def check(report) -> str:
        _require(report["passed"], "thm4 reports a failed check")
        return json.dumps(report, sort_keys=True)

    return Task("run_target", run, check)


PARTITION_SIZES = {
    # (parts, largest part) for the family search; largest m for the oracle;
    # plane order for thm4.
    "full": {"search": ((7, 4), (8, 3)), "oracle_goods": 7, "q": 3},
    "tiny": {"search": ((3, 2),), "oracle_goods": 4, "q": 2},
}


def partition_ratio(seed: int, size: str = "full") -> list[Task]:
    """Family search on 7- and 8-part shapes, solver against oracle on small
    shapes, and the thm4 plane check; the seed orders the family search's parts."""
    rng = random.Random(seed)
    sizes = PARTITION_SIZES[size]

    def shuffled(shape: tuple[int, ...]) -> tuple[int, ...]:
        parts = list(shape)
        rng.shuffle(parts)
        return tuple(parts)

    tasks = []
    for k, top in sizes["search"]:
        for m in range(k, k * top + 1):
            for shape in partition_shapes(m, k, top):
                if len(shape) == k:
                    tasks.append(_family_search_task(shuffled(shape)))
    # The oracle's skip test depends on part order, so its shapes keep the
    # canonical order and its cost does not change with the seed.
    for m in range(1, sizes["oracle_goods"] + 1):
        tasks.extend(_oracle_task(shape) for shape in partition_shapes(m, 4, m))
    tasks.append(_thm4_task(sizes["q"]))
    return tasks


# ---------------------------------------------------------------------------
# stability-sweep


def _gap_task(family, profile) -> Task:
    def run():
        return eq.max_profile_gap(family, profile)

    def check(gap) -> str:
        _require(gap == 0, f"quasi field shows deviation gap {gap}")
        return str(gap)

    return Task("max_profile_gap", run, check)


def _witness_task(family) -> Task:
    def run():
        witness = vb.equilibrium_counterexample(family)
        return witness, vb.deviation_gap(family, witness.profile, witness.deviator)

    def check(result) -> str:
        witness, gap = result
        _require(gap >= 1, f"witness gap {gap} < 1")
        return f"{witness.deviator} {witness.allocation.buyer_bundles} {gap}"

    return Task("deviation_gap", run, check)


def _balanced_task(universe, family, members: frozenset[int], masks: tuple[int, ...]) -> Task:
    def run():
        return vb.sigma_optimal_surplus(vb.unanimity_profile(universe, masks), family)

    def check(result) -> str:
        allocation, value = result
        bundles = allocation.buyer_bundles
        _require(all(b in members for b in bundles), "a buyer bundle is outside the family")
        used = 0
        for b in bundles:
            _require(b & used == 0, "buyer bundles overlap")
            used |= b
        served = sum(1 for want, got in zip(masks, bundles) if want & got == want)
        _require(value == served, "restricted surplus differs from the allocation's value")
        # Disjoint unanimity profile: the unrestricted optimum serves everyone,
        # and the balanced family loses at most a factor 2.
        _require(len(masks) <= 2 * value <= 2 * len(masks), f"ratio {len(masks)}/{value} outside [1, 2]")
        return f"{bundles} {value}"

    return Task("sigma_optimal_surplus", run, check)


STABILITY_SIZES = {
    # quasi fields per goods count; largest goods count and bundle count of
    # the non-quasi-field families; goods and sampled profiles for the
    # balanced family.
    "full": {"pool": {4: 4, 5: 4, 6: 3}, "families": (4, 8), "balanced": (8, 3000)},
    "tiny": {"pool": {3: 2}, "families": (2, 3), "balanced": (4, 10)},
}


def stability_sweep(seed: int, size: str = "full") -> list[Task]:
    """Zero gaps on random quasi fields, witnesses on every small non-quasi
    field, and the balanced family through the non-partition route."""
    rng = random.Random(seed)
    sizes = STABILITY_SIZES[size]
    tasks = []
    for m, count in sizes["pool"].items():
        universe = vb.GoodsUniverse.of_size(m)
        profiles = [vb.unanimity_profile(universe, masks) for masks in disjoint_families(m)]
        for _ in range(count):
            seeds = {rng.randint(1, (1 << m) - 1) for _ in range(rng.randint(1, 3))}
            family = vb.BundleFamily.of(universe, quasi_field_members(m, seeds))
            tasks.extend(_gap_task(family, p) for p in profiles)

    max_goods, max_bundles = sizes["families"]
    for m in range(1, max_goods + 1):
        universe = vb.GoodsUniverse.of_size(m)
        full = (1 << m) - 1
        relabel = list(range(m))
        rng.shuffle(relabel)

        def moved(mask: int) -> int:
            return sum(1 << relabel[g] for g in range(m) if mask >> g & 1)

        for r in range(max_bundles):
            for extra in combinations(range(1, full + 1), r):
                members = frozenset(moved(b) for b in extra) | {0}
                if not is_quasi_field(members, full):
                    tasks.append(_witness_task(vb.BundleFamily(universe, members)))

    m, sample = sizes["balanced"]
    universe = vb.GoodsUniverse.of_size(m)
    left = (1 << m // 2) - 1
    members = frozenset(
        d for d in range(1 << m) if bin(d & left).count("1") == bin(d & ~left).count("1")
    )
    family = vb.BundleFamily(universe, members)
    profiles = disjoint_families(m)
    tasks.extend(
        _balanced_task(universe, family, members, masks)
        for masks in rng.sample(profiles, min(sample, len(profiles)))
    )
    return tasks


# ``auction`` exercises JSON parsing, the dense DP, the sparse search and the
# payment re-solves, and bypasses the oracle, the family search and sigma;
# ``analysis`` does the reverse, and reaches the sparse search only through
# tens of thousands of tiny solves.
WORKLOADS = {
    "auction": (auction_dense, auction_sparse),
    "analysis": (partition_ratio, stability_sweep),
}


def build(name: str, seed: int, size: str = "full") -> list[Task]:
    return [task for phase in WORKLOADS[name] for task in phase(seed, size)]
