"""Named reference scenarios with their expected results.

Each target rebuilds a scenario from scratch through the public API, compares
the computed numbers against the claimed ones, and reports one PASS/FAIL line
per check.  The CLI exposes these as `reproduce <target>` and `reproduce all`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import (
    MAX_EXACT_PARTS, BundleFamily, GoodsUniverse, InvalidInputError, exact_ratio, partition_from_sizes
)
from .sigma import classify_family, enumerate_families, field_of_partition, project_profile
from .auction import TieBreak, max_surplus, run_vc, sigma_optimal_surplus
from .jsonio import fraction_repr
from .equilibrium import (
    deviation_gap,
    disjoint_unanimity_profiles,
    empirical_ratio,
    random_monotone_profiles,
    singleton_profile,
    unanimity_profile,
)
from .ineff import (
    balanced_family,
    closed_form_ratio,
    feasible_family_bound,
    lower_bound_profile,
    max_feasible_family,
    phi,
    plane_family,
    projective_plane,
    verify_plane_axioms,
)

MAX_ENGINE_ORDER = 3  # largest plane order whose ratio runs through the engine


@dataclass(frozen=True)
class Check:
    name: str
    claimed: str
    computed: str

    @property
    def passed(self) -> bool:
        return self.claimed == self.computed


def _report(target: str, checks: list[Check]) -> dict:
    return {
        "target": target,
        "passed": all(c.passed for c in checks),
        "checks": [
            {
                "name": c.name,
                "claimed": c.claimed,
                "computed": c.computed,
                "status": "PASS" if c.passed else "FAIL",
            }
            for c in checks
        ],
    }


def _frac(x: Fraction) -> str:
    return str(fraction_repr(x))


def _example1() -> dict:
    universe = GoodsUniverse.of_size(4)
    family = BundleFamily.of(
        universe, (universe.parse_bundle(s) for s in ("a", "d", "bcd", "abc", "abcd"))
    )
    profile = unanimity_profile(
        universe,
        [universe.parse_bundle("bc"), universe.parse_bundle("a"), universe.parse_bundle("d")],
    )
    cls = classify_family(family)
    gap = deviation_gap(family, profile, 0)
    projected = project_profile(profile, family)
    worst = run_vc(projected, TieBreak.adversarial_to(0), true_profile=profile)
    truthful = run_vc(projected.replace(0, profile.valuations[0]), true_profile=profile)
    checks = [
        Check("family_is_quasi_field", "false", str(cls.is_quasi_field).lower()),
        Check("adversarial_gap_buyer_1", "1", _frac(gap)),
        Check("projection_utility_buyer_1_worst_case", "0", _frac(worst.utilities[0])),
        Check("truthful_utility_buyer_1", "1", _frac(truthful.utilities[0])),
    ]
    return _report("example1", checks)


def _example2() -> dict:
    universe = GoodsUniverse.of_size(2)
    profile = unanimity_profile(universe, [1, 2])
    trivial = field_of_partition(partition_from_sizes([2], universe))
    truthful = run_vc(profile)
    bundled = run_vc(project_profile(profile, trivial), true_profile=profile)
    profile4 = unanimity_profile(universe, [1, 2, 1, 2])
    truthful4 = run_vc(profile4)
    bundled4 = run_vc(project_profile(profile4, trivial), true_profile=profile4)
    checks = [
        Check("truthful_surplus_and_revenue", "(2, 0)",
              f"({_frac(truthful.surplus)}, {_frac(truthful.revenue)})"),
        Check("trivial_partition_surplus_and_revenue", "(1, 1)",
              f"({_frac(bundled.surplus)}, {_frac(bundled.revenue)})"),
        Check("four_buyer_truthful_surplus_and_revenue", "(2, 2)",
              f"({_frac(truthful4.surplus)}, {_frac(truthful4.revenue)})"),
        Check("four_buyer_trivial_partition_surplus_and_revenue", "(1, 1)",
              f"({_frac(bundled4.surplus)}, {_frac(bundled4.revenue)})"),
    ]
    return _report("example2", checks)


def _example3() -> dict:
    mixed = max_feasible_family(partition_from_sizes([2, 4, 3, 3, 3, 3, 3]))
    equi = max_feasible_family(partition_from_sizes([3] * 7))
    checks = [
        Check("mixed_partition_ratio", "6", str(mixed.s)),
        Check("seven_set_family_exhausted", "true", str(7 in mixed.exhausted).lower()),
        Check("equal_triples_ratio", "7", str(equi.s)),
    ]
    return _report("example3", checks)


def _example4() -> dict:
    checks = []
    for m in (4, 6):
        universe = GoodsUniverse.of_size(m)
        family = balanced_family(universe)
        cls = classify_family(family)
        checks.append(Check(f"m{m}_quasi_field", "true", str(cls.is_quasi_field).lower()))
        checks.append(Check(f"m{m}_size", str(comb(m, m // 2)), str(len(family))))
        half = (1 << (m // 2)) - 1
        pair = unanimity_profile(universe, [half, universe.full_mask ^ half])
        _, s_sigma = sigma_optimal_surplus(pair, family)
        checks.append(
            Check(f"m{m}_half_pair_ratio", "2", _frac(exact_ratio(max_surplus(pair), s_sigma)))
        )
        worst = empirical_ratio(family, m, disjoint_unanimity_profiles(universe)).ratio
        checks.append(Check(f"m{m}_sweep_ratio_at_most_2", "true", str(worst <= 2).lower()))
    ten = balanced_family(GoodsUniverse.of_size(10))
    checks.append(Check("m10_size_beats_2_to_m_minus_2", "252 < 256", f"{len(ten)} < {2 ** 8}"))
    return _report("example4", checks)


def _prop1_table() -> dict:
    checks = []
    for m in (4, 5, 6):
        part = partition_from_sizes([m])
        checks.append(
            Check(f"m{m}_one_part", str(m), str(max_feasible_family(part).s))
        )
        two = []
        for a in range(1, m // 2 + 1):
            part = partition_from_sizes([a, m - a])
            res = max_feasible_family(part)
            if res.s != closed_form_ratio(part):
                checks.append(Check(f"m{m}_two_parts_{a}", str(closed_form_ratio(part)), str(res.s)))
            two.append(res.s)
        checks.append(Check(f"m{m}_two_part_minimum", str(-(-m // 2)), str(min(two))))
        three = []
        for a in range(1, m - 1):
            for b in range(a, m - a):
                c = m - a - b
                if c < b:
                    continue
                part = partition_from_sizes([a, b, c])
                res = max_feasible_family(part)
                if res.s != closed_form_ratio(part):
                    checks.append(
                        Check(f"m{m}_three_parts_{a}_{b}_{c}", str(closed_form_ratio(part)), str(res.s))
                    )
                three.append(res.s)
        checks.append(Check(f"m{m}_three_part_minimum", str(m // 2), str(min(three))))
    return _report("prop1-table", checks)


def _thm4(q: int) -> dict:
    plane = projective_plane(q)
    k = q * q + q + 1
    checks = [
        Check("plane_axioms", "ok", "ok" if verify_plane_axioms(plane.n_points, plane.lines, q) == [] else "violated"),
        Check("phi_matches_plane_ratio", _frac(Fraction(k, q + 1)), _frac(phi(k))),
    ]
    family = plane_family(plane)
    checks.append(Check("lines_feasible_with_size", str(k), str(family.s)))
    part = partition_from_sizes([q + 1] * k)
    checks.append(Check("upper_bound_equals_k", str(k), _frac(feasible_family_bound(part))))
    if k <= MAX_EXACT_PARTS:
        res = max_feasible_family(part)
        checks.append(Check("solver_ratio", str(k), str(res.s)))
        family = res.family
    if q <= MAX_ENGINE_ORDER:
        profile = lower_bound_profile(family, part)
        s_max = max_surplus(profile)
        _, s_pi = sigma_optimal_surplus(profile, field_of_partition(part))
        checks.append(Check("engine_ratio_on_witness_profile", str(k), _frac(exact_ratio(s_max, s_pi))))
    return _report(f"thm4-q{q}", checks)


def _remark1(seed: int) -> dict:
    cases = []
    u3 = GoodsUniverse.of_size(3)
    u4 = GoodsUniverse.of_size(4)
    cases.append(("power_set_m3", BundleFamily.full(u3)))
    cases.append(("trivial_field_m4", field_of_partition(partition_from_sizes([4], u4))))
    cases.append(("two_part_field_m4", field_of_partition(partition_from_sizes([2, 2], u4))))
    cases.append(("balanced_m4", balanced_family(u4)))
    checks = []
    for name, family in cases:
        universe = family.universe
        worst = Fraction(0)
        profiles = list(disjoint_unanimity_profiles(universe))
        profiles += list(random_monotone_profiles(universe, n=3, count=25, seed=seed))
        for profile in profiles:
            _, s_sigma = sigma_optimal_surplus(profile, family)
            if s_sigma == 0:
                continue
            worst = max(worst, exact_ratio(max_surplus(profile), profile.n * s_sigma))
        checks.append(Check(f"{name}_surplus_at_most_n_times_restricted", "true", str(worst <= 1).lower()))
    return _report("remark1", checks)


def _remark2() -> dict:
    universe = GoodsUniverse.of_size(4)
    base = singleton_profile(universe)
    quasi_fields = 0
    failures = 0
    for family in enumerate_families(universe):
        if not classify_family(family).is_quasi_field:
            continue
        quasi_fields += 1
        _, s_sigma = sigma_optimal_surplus(base, family)
        k = int(s_sigma)
        members = [b for b in family.sorted_bundles if b]
        if _max_disjoint(members) < k or len(family) < 2**k:
            failures += 1
    checks = [
        Check("quasi_fields_enumerated_m4", "nonzero", "nonzero" if quasi_fields else "zero"),
        Check("partition_and_size_bound_failures", "0", str(failures)),
    ]
    return _report("remark2", checks)


def _max_disjoint(members: list[int]) -> int:
    def rec(i: int, used: int) -> int:
        if i == len(members):
            return 0
        best = rec(i + 1, used)
        if members[i] & used == 0:
            best = max(best, 1 + rec(i + 1, used | members[i]))
        return best

    return rec(0, 0)


_TARGETS = {
    "example1": lambda q, seed: _example1(),
    "example2": lambda q, seed: _example2(),
    "example3": lambda q, seed: _example3(),
    "example4": lambda q, seed: _example4(),
    "prop1-table": lambda q, seed: _prop1_table(),
    "thm4": lambda q, seed: _thm4(q),
    "remark1": lambda q, seed: _remark1(seed),
    "remark2": lambda q, seed: _remark2(),
}
TARGETS = tuple(_TARGETS)


def run_target(target: str, q: int = 2, seed: int = 0) -> dict:
    if target not in _TARGETS:
        raise InvalidInputError(f"unknown reproduce target {target!r}")
    return _TARGETS[target](q, seed)


def run_all(seed: int = 0, q: int = 2) -> dict:
    reports = [run_target(t, q=q, seed=seed) for t in TARGETS]
    return {"passed": all(r["passed"] for r in reports), "targets": reports}
