"""Exact coefficient statistics of recurrence-exponent binomial products,
grouped triangles and their posets, free monoids of equal-weight words, and
rational generating-function fitting, all in exact arithmetic."""

from .catalog import CATALOG_NAMES, MULTI_INDEX_ALPHAS, closed_form
from .checks import SCAN_CHECKS, VERIFY_CHECKS, CheckReport, run_check
from .errors import InvariantError, ResourceLimitError
from .guess import RationalFunc, check_drx_pattern, guess_rational
from .monoid import (
    MonoidWord,
    free_factorize,
    generators,
    move_connectivity,
    transfer_series,
    word_classes,
)
from .polynomials import (
    CoeffPoly,
    GoldenSeries,
    ProductSpec,
    TPoly,
    build_product,
    fibonacci_product_spec,
    golden_series,
    kbonacci_product_spec,
    partial_products,
    run_decomposition,
    stern_product_spec,
)
from .poset import PosetSlice, flag_vectors, frontier_grow, frontier_poset, sigma_labels, upho_check
from .sequences import (
    GoldenInt,
    RecurrentSeq,
    fibonacci,
    kbonacci,
    phi_power_reduce,
    prec_compare,
    zeckendorf,
)
from .stats import CorrSpec, corr_series, corr_sum, residue_series
from .symfun import SymExpansion, ep_monomial, tilde_q, verify_forgotten_expansion, verify_powersum_expansion
from .triangle import GroupedRow, a_vector, first_row, next_row, triangle_rows, verify_m_recurrence

__version__ = "0.1.0"

__all__ = [
    "CATALOG_NAMES",
    "MULTI_INDEX_ALPHAS",
    "CheckReport",
    "CoeffPoly",
    "CorrSpec",
    "GoldenInt",
    "GoldenSeries",
    "GroupedRow",
    "InvariantError",
    "MonoidWord",
    "PosetSlice",
    "ProductSpec",
    "RationalFunc",
    "RecurrentSeq",
    "ResourceLimitError",
    "SCAN_CHECKS",
    "SymExpansion",
    "TPoly",
    "VERIFY_CHECKS",
    "a_vector",
    "build_product",
    "check_drx_pattern",
    "closed_form",
    "corr_series",
    "corr_sum",
    "ep_monomial",
    "fibonacci",
    "fibonacci_product_spec",
    "first_row",
    "flag_vectors",
    "free_factorize",
    "frontier_grow",
    "frontier_poset",
    "generators",
    "golden_series",
    "guess_rational",
    "kbonacci",
    "kbonacci_product_spec",
    "move_connectivity",
    "next_row",
    "partial_products",
    "phi_power_reduce",
    "prec_compare",
    "residue_series",
    "run_check",
    "run_decomposition",
    "sigma_labels",
    "stern_product_spec",
    "tilde_q",
    "transfer_series",
    "triangle_rows",
    "upho_check",
    "verify_forgotten_expansion",
    "verify_m_recurrence",
    "verify_powersum_expansion",
    "word_classes",
    "zeckendorf",
]
