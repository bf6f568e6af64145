"""Symbolic engine for deciding identities among products and linear
combinations of multiple zeta functions over shared symbolic arguments."""

from .algebra import (
    CanonicalForm,
    Expression,
    LegalityError,
    is_partition_identity,
    normalize,
    stuffle_product,
    stuffle_size,
    validate_legal_term,
)
from .identities import (
    IdentityReport,
    hoffman_identity,
    stuffle_identity,
    verify,
)
from .indexsets import full_universe, indices_of, mask_of
from .numeric import eval_expression, eval_zeta_truncated, residual_report
from .parsing import ParseError, parse, parse_arglist, serialize
from .partitions import (
    bell_count,
    fubini_count,
    ordered_set_partitions,
    unordered_set_partitions,
)
from .ratfun import is_zero_combination, rational_term_of

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "Expression",
    "IdentityReport",
    "LegalityError",
    "ParseError",
    "bell_count",
    "eval_expression",
    "eval_zeta_truncated",
    "fubini_count",
    "full_universe",
    "hoffman_identity",
    "indices_of",
    "is_partition_identity",
    "is_zero_combination",
    "mask_of",
    "normalize",
    "ordered_set_partitions",
    "parse",
    "parse_arglist",
    "rational_term_of",
    "residual_report",
    "serialize",
    "stuffle_identity",
    "stuffle_product",
    "stuffle_size",
    "unordered_set_partitions",
    "validate_legal_term",
    "verify",
]
