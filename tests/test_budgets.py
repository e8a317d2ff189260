import re
import types

import pytest

import vcbundle
from vcbundle import (
    BudgetExceededError,
    BundleFamily,
    GoodsUniverse,
    Profile,
    Valuation,
    field_of_partition,
    max_feasible_family,
    max_surplus,
    optimal_allocation,
    partition_from_sizes,
    project_valuation,
    ratio_oracle,
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
    "family-search": (lambda: max_feasible_family(partition_from_sizes([1] * 9)), 8, 9),
    "oracle": (lambda: ratio_oracle(partition_from_sizes([13])), 12, 13),
    "family-enumeration": (lambda: next(enumerate_families(GoodsUniverse.of_size(5))), 4, 5),
}


@pytest.mark.parametrize("name", sorted(BUDGET_CASES))
def test_budget_errors_name_limit_and_size(name):
    call, limit, size = BUDGET_CASES[name]
    with pytest.raises(BudgetExceededError) as info:
        call()
    numbers = re.findall(r"\d+", str(info.value))
    assert str(limit) in numbers and str(size) in numbers, str(info.value)


def test_public_names_are_explicit_and_resolve():
    assert len(set(vcbundle.__all__)) == len(vcbundle.__all__)
    for name in vcbundle.__all__:
        assert not isinstance(getattr(vcbundle, name), types.ModuleType), name
