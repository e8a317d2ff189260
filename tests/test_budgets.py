import pathlib
import re
import types

import pytest

import vcbundle
from vcbundle import core
from vcbundle import (
    BudgetExceededError,
    BundleFamily,
    GoodsUniverse,
    Profile,
    TieBreak,
    Valuation,
    field_of_partition,
    max_feasible_family,
    max_surplus,
    optimal_allocation,
    partition_from_sizes,
    project_valuation,
    ratio_oracle,
    run_vc,
    sigma_optimal_surplus,
    unanimity_profile,
)
from vcbundle.jsonio import parse_instance
from vcbundle.sigma import enumerate_families


def singleton_atoms(m: int, count: int) -> Valuation:
    universe = GoodsUniverse.of_size(m)
    return Valuation.from_atoms(universe, [(1 << (i % m), 1) for i in range(count)])


def atom_profile(count: int) -> Profile:
    v = singleton_atoms(10, count)
    return Profile(v.universe, (v,))


def two_atoms(m: int) -> Valuation:
    universe = GoodsUniverse.of_size(m)
    return Valuation.from_atoms(universe, [(1, 1), (2, 1)])


def unit_atoms_on_every_good(m: int) -> Profile:
    """Two buyers, each with a unit atom on every good: 2^m optimal packings."""
    universe = GoodsUniverse.of_size(m)
    buyer = Valuation.from_atoms(universe, [(1 << g, 1) for g in range(m)])
    return Profile(universe, (buyer, buyer))


def counting_buyers(m: int, n: int) -> Profile:
    """n buyers, each valuing a bundle at its number of goods."""
    universe = GoodsUniverse.of_size(m)
    v = Valuation.dense(universe, [mask.bit_count() for mask in range(1 << m)])
    return Profile(universe, (v,) * n)


# (entry point, limit, size): each call exceeds one budget by a known size.
BUDGET_CASES = {
    "dense-table": (lambda: Valuation.dense(GoodsUniverse.of_size(15), [0] * (1 << 15)), 14, 15),
    "all-bundles": (lambda: GoodsUniverse.of_size(15).all_bundles(), 14, 15),
    "json-dense": (
        lambda: parse_instance({
            "goods": [f"g{i}" for i in range(15)],
            "valuations": [{"kind": "dense", "values": {}}],
        }),
        14,
        15,
    ),
    "max-surplus-atoms": (lambda: max_surplus(atom_profile(70)), 64, 70),
    "optimal-allocation-atoms": (lambda: optimal_allocation(atom_profile(65)), 64, 65),
    # Deep enough to overflow the recursion limit without the cap.
    "valuation-value-atoms": (lambda: singleton_atoms(40, 1500).value((1 << 40) - 1), 64, 1500),
    "project-multi-atom": (
        lambda: project_valuation(two_atoms(15), BundleFamily.of(GoodsUniverse.of_size(15), [1])),
        14,
        15,
    ),
    "meta-good-parts": (
        lambda: sigma_optimal_surplus(
            unanimity_profile(GoodsUniverse.of_size(15), [1]),
            field_of_partition(partition_from_sizes([1] * 15)),
        ),
        14,
        15,
    ),
    "partition-field": (lambda: field_of_partition(partition_from_sizes([1] * 21)), 20, 21),
    "partition-unions": (lambda: partition_from_sizes([1] * 21).unions, 20, 21),
    "universe-goods": (lambda: GoodsUniverse.of_size(100_001), 100_000, 100_001),
    "family-search": (lambda: max_feasible_family(partition_from_sizes([1] * 9)), 8, 9),
    # One part of 1200 goods: the first target is 1200 sets, one frame each.
    "family-target": (lambda: max_feasible_family(partition_from_sizes([1200])), 800, 1200),
    # Every bundle but {a}, not a partition field: each buyer has K = 4094
    # options, and the bound is K * (1 + (K + 1) + 2^12) = 4094 * 8192.
    "sigma-family-search": (
        lambda: sigma_optimal_surplus(
            counting_buyers(12, 3), BundleFamily.of(GoodsUniverse.of_size(12), range(2, 1 << 12))
        ),
        core.FAMILY_SEARCH_STEPS_CAP,
        4094 * 8192,
    ),
    "oracle": (lambda: ratio_oracle(partition_from_sizes([13])), 12, 13),
    "family-enumeration": (lambda: next(enumerate_families(GoodsUniverse.of_size(5))), 4, 5),
    "adversarial-tie-walk": (
        lambda: run_vc(unit_atoms_on_every_good(32), TieBreak.adversarial_to(0)),
        core.TIE_WALK_NODES_CAP,
        core.TIE_WALK_NODES_CAP + 1,
    ),
}


@pytest.mark.parametrize("name", sorted(BUDGET_CASES))
def test_budget_errors_name_limit_and_size(name):
    call, limit, size = BUDGET_CASES[name]
    with pytest.raises(BudgetExceededError) as info:
        call()
    numbers = re.findall(r"\d+", str(info.value))
    assert str(limit) in numbers and str(size) in numbers, str(info.value)


def test_family_search_at_its_target_cap_solves():
    # The search takes one recursion frame per set, under the test runner's
    # own stack as well.
    cap = core.FAMILY_TARGET_CAP
    assert max_feasible_family(partition_from_sizes([cap])).s == cap
    assert max_feasible_family(partition_from_sizes([600, 600])).s == 600


def test_public_names_are_explicit_and_resolve():
    assert len(set(vcbundle.__all__)) == len(vcbundle.__all__)
    for name in vcbundle.__all__:
        assert not isinstance(getattr(vcbundle, name), types.ModuleType), name


def test_readme_size_budgets_list_every_core_cap():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Size budgets", 1)[1].split("\n## ", 1)[0]
    listed = {
        name: int(cap.replace(",", ""))
        for name, cap in re.findall(r"^\| `(\w+)` \| ([\d,]+) ", table, re.MULTILINE)
    }
    caps = {
        name: value
        for name, value in vars(core).items()
        if name.endswith("_CAP") or name.startswith("MAX_")
    }
    # The decimal exponent limit is documented with the input format instead.
    assert f"exceeds {caps.pop('MAX_DECIMAL_EXPONENT')} in magnitude" in readme
    assert listed == caps
