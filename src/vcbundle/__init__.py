"""Exact analysis toolkit for pivot-payment combinatorial auctions with
bundle-restricted bidding: mechanism runs, stability of projection-reporting
onto a bundle family, and worst-case efficiency-loss ratios for
partition-restricted bidding.
"""

from .core import (
    Allocation,
    Bundle,
    BundleFamily,
    BudgetExceededError,
    GoodsUniverse,
    InternalInvariantError,
    InvalidInputError,
    Partition,
    Profile,
    Valuation,
    ValuationReport,
    as_value,
    exact_ratio,
    partition_from_sizes,
    unanimity_valuation,
    validate_valuation,
    zero_valuation,
)
from .sigma import (
    EquilibriumCounterexample,
    FamilyClassification,
    classify_family,
    equilibrium_counterexample,
    field_of_partition,
    is_quasi_field,
    partition_of_family,
    project_profile,
    project_valuation,
    quasi_field_closure,
)
from .auction import (
    AuctionOutcome,
    TieBreak,
    clarke_payment,
    max_surplus,
    optimal_allocation,
    run_vc,
    sigma_optimal_surplus,
)
from .equilibrium import (
    EquilibriumVerdict,
    RatioEstimate,
    check_bundling_equilibrium,
    deviation_gap,
    disjoint_unanimity_families,
    disjoint_unanimity_profiles,
    empirical_ratio,
    random_monotone_profiles,
    random_quasi_field,
    singleton_profile,
    unanimity_profile,
)
from .ineff import (
    FamilySearchResult,
    FeasibleFamily,
    ProjectivePlane,
    SemiBalancedReport,
    balanced_family,
    check_semi_balanced,
    closed_form_ratio,
    feasible_family_bound,
    lower_bound_profile,
    max_feasible_family,
    phi,
    plane_family,
    projective_plane,
    ratio_oracle,
    verify_plane_axioms,
)

__all__ = [
    "Allocation", "Bundle", "BundleFamily", "BudgetExceededError", "GoodsUniverse",
    "InternalInvariantError", "InvalidInputError", "Partition", "Profile", "Valuation",
    "ValuationReport", "as_value", "exact_ratio", "partition_from_sizes", "unanimity_valuation",
    "validate_valuation", "zero_valuation",
    "EquilibriumCounterexample", "FamilyClassification", "classify_family",
    "equilibrium_counterexample", "field_of_partition", "is_quasi_field", "partition_of_family",
    "project_profile", "project_valuation", "quasi_field_closure",
    "AuctionOutcome", "TieBreak", "clarke_payment", "max_surplus", "optimal_allocation",
    "run_vc", "sigma_optimal_surplus",
    "EquilibriumVerdict", "RatioEstimate", "check_bundling_equilibrium", "deviation_gap",
    "disjoint_unanimity_families", "disjoint_unanimity_profiles", "empirical_ratio",
    "random_monotone_profiles", "random_quasi_field", "singleton_profile", "unanimity_profile",
    "FamilySearchResult", "FeasibleFamily", "ProjectivePlane", "SemiBalancedReport",
    "balanced_family", "check_semi_balanced", "closed_form_ratio", "feasible_family_bound",
    "lower_bound_profile", "max_feasible_family", "phi", "plane_family", "projective_plane",
    "ratio_oracle", "verify_plane_axioms",
]
