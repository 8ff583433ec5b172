"""Exact-arithmetic construction and verification of dual Hahn / Racah
parameter arrays and their Leonard-pair matrix representations."""

from .hyper import (
    RationalFormatError,
    SeriesDivisionError,
    format_rational,
    hypergeom_terminating,
    parse_rational,
)
from .leonard import (
    BasisOrdering,
    InternalInconsistencyError,
    LeonardPairReport,
    SearchGrid,
    SearchRecord,
    candidate_orderings,
    canonical_shift,
    d2_condition,
    is_dual_almost_bipartite,
    lstar_shift_square,
    lstar_shift_square_closed_form,
    search_square_preserving,
    theorem_conditions,
    verify_leonard_pair_square,
)
from .matrices import RationalMatrix, poly_from_roots, tridiagonal_charpoly
from .params import (
    ParameterArray,
    ParameterDomainError,
    build_astar_sums,
    build_params,
    check_closed_forms,
)
from .racah import build_racah_params, eval_table_4F3
from .representations import (
    ValueTable,
    check_basis_consistency,
    check_degree_invariant,
    check_difference_eq,
    check_orthogonality,
    check_top_row,
    eval_table_hypergeometric,
    eval_table_recurrence,
    matrix_L_u_basis,
    matrix_L_ustar_basis,
    matrix_Lstar_u_basis,
    matrix_Lstar_ustar_basis,
)
from .scan import SCAN_BACKEND, scan_tridiagonal_orderings
from .sl2mod import (
    EvenModule,
    build_even_module,
    example_pair,
    terwilliger_catalog,
    verify_example_match,
)

__version__ = "0.1.0"
