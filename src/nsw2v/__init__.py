"""Two-value Nash-welfare toolkit: solver, exhaustive oracle, diagnostics, hardness builders."""

from .balance import (
    GoodsFewerThanAgentsError,
    LocalSearchInvariantError,
    ZeroSmallValueError,
    phase2_assign_small,
    phase3_local_search,
    two_value_approx,
)
from .core import (
    Allocation,
    Instance,
    NswValue,
    ParseError,
    ValidationReport,
    ValuationProfile,
    canonicalize,
    nsw_product,
    parse_allocation,
    parse_instance,
    serialize_allocation,
    serialize_instance,
    validate_allocation,
    valuation_profile,
)
from .dichotomous import balance_loads, initial_nonwasteful, solve_dichotomous
from .oracle import (
    BudgetExceededError,
    PathReport,
    RatioReport,
    TransEdge,
    TransGraph,
    build_trans_graph,
    classify_paths,
    closest_optimum,
    exact_optimum,
    ratio,
    state_count,
)
from .reductions import (
    LpCertificate,
    LpReport,
    PdmInstance,
    ReductionError,
    coprime_solutions,
    find_perfect_matching,
    hardness_constants,
    matching_to_allocation,
    optimal_certificate,
    parse_certificate,
    parse_pdm,
    reduce_gap4dm,
    reduce_pdm,
    serialize_certificate,
    serialize_pdm,
    verify_apx_lp,
)

__version__ = "0.1.0"
