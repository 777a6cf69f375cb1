"""Certified upper bounds for permutation codes in the Kendall tau metric.

Submodules: perms (metric, codes, exhaustive oracle), young (tabloids, coset
action matrices, seminormal representations), exactlp (one-phase simplex
on integer data, exact), ilp (coset integer programs and bound reports),
perfect (mod-p invertibility certificates and 1-perfect-code obstructions),
cli.
"""

from kendall_codes.perms import (
    Code,
    EnumerationLimitError,
    ball,
    compose,
    exhaustive_max_code,
    greedy_code,
    identity,
    inverse,
    kendall_distance,
    min_distance,
    sphere_packing_bound,
    verify_code,
)
from kendall_codes.young import (
    ActionMatrix,
    DimensionLimitError,
    build_action_matrix,
    constituents_dominating,
    hook_length_dimension,
    irrep_T_matrix,
    published_s15_list,
    tridiagonal_reference,
)
from kendall_codes.ilp import (
    IlpModel,
    IlpResult,
    analytic_prime_bound,
    bound_report,
    build_coset_ilp,
    code_projection,
    export_lp,
    feasible,
    ilp_solve,
    lp_relax,
    systemineq_check,
)
from kendall_codes.perfect import (
    ModPMatrix,
    ObstructionReport,
    conjecture_check,
    divisibility_precondition,
    invertible_mod_p,
    obstruction_coset,
    obstruction_irreps,
    perfect_counting_condition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
