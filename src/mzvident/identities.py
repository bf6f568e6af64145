"""Named identity generators and the multi-method verification driver.

Generators return expressions that vanish identically by construction:
the stuffle expansion of a product of two zeta factors, and Hoffman's
symmetric-sum identity relating all permutations of depth-n arguments
to products of depth-1 factors over unordered partitions.
"""

from __future__ import annotations

import itertools
from math import factorial, prod
from typing import Iterable, Optional

from .algebra import (
    Block,
    Expression,
    ZetaAtom,
    _Frozen,
    _add_pairs,
    atom_support,
    canonical_atoms,
    is_partition_identity,
    stuffle_product,
)
from .indexsets import full_universe
from .numeric import residual_report
from .partitions import unordered_set_partitions
from .ratfun import is_zero_combination, rational_terms_of_expression

HOFFMAN_CAP = 8

METHODS = ("canonical", "rational", "numeric")


class IdentityReport(_Frozen):
    """What `verify` observed; the verdict and agreement derive from it.

    The canonical route's `witness` (None when every canonical coefficient
    vanishes) settles the verdict.  `per_method` holds the vote of each
    requested method, in METHODS order; `verify` fills that dict after
    construction, so a report is unhashable.
    """

    __slots__ = ("witness", "per_method")
    __hash__ = None

    def __init__(
        self,
        witness: Optional[tuple[tuple[Block, ...], int]],
        per_method: Optional[dict[str, bool]] = None,
    ) -> None:
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "per_method", {} if per_method is None else per_method)

    @property
    def is_identity(self) -> bool:
        return self.witness is None

    @property
    def verdict(self) -> str:
        return "identity" if self.is_identity else "not-identity"

    @property
    def agreement(self) -> bool:
        """Every vote matches the verdict."""
        return all(vote == self.is_identity for vote in self.per_method.values())


def stuffle_identity(u: ZetaAtom, v: ZetaAtom) -> Expression:
    """zeta(u)*zeta(v) minus its stuffle expansion (zero by construction).
    `stuffle_product` checks both operands, so the terms are legal by
    construction and summed without validation: the product term with its
    atoms sorted by smallest index, then each word."""
    if not u and not v:
        return Expression(0, {})
    product = stuffle_product(u, v)
    words = (((w,), -mult) for w, mult in product.items())
    terms = _add_pairs({canonical_atoms(filter(None, (u, v))): 1}, words)
    return Expression(atom_support(u) | atom_support(v), terms)


def hoffman_identity(n: int) -> Expression:
    """Symmetric-sum identity: n! permutation terms minus the
    signed products of depth-1 factors over unordered partitions.  The
    terms are legal by construction (parts come sorted by smallest index),
    so they are summed without validation."""
    if n < 1 or n > HOFFMAN_CAP:
        raise ValueError(f"n must be in 1..{HOFFMAN_CAP}")
    universe = full_universe(n)
    terms = dict.fromkeys(zip(itertools.permutations([1 << j for j in range(n)])), 1)
    pairs = []
    for parts in unordered_set_partitions(universe):
        coeff = (-1) ** (n - len(parts)) * prod(factorial(p.bit_count() - 1) for p in parts)
        pairs.append((tuple((p,) for p in parts), -coeff))
    return Expression(universe, _add_pairs(terms, pairs))


def verify(
    expr: Expression,
    methods: Iterable[str] = METHODS,
    seed: int = 0,
) -> IdentityReport:
    """Run the requested verification methods and collate a report.

    The canonical method is authoritative for the verdict; if it was not
    requested it is run anyway to decide.  The rational and numeric methods
    are seeded Schwartz-Zippel votes that never override it: the rational
    method evaluates the rational-function combination mod a prime at a
    point, the numeric method the expression at integer weights, both drawn
    from `seed`, and each votes identity iff its value is 0.
    Methods run in METHODS order whatever the order requested.

    Both votes refute exactly: a nonzero value means the canonical
    coefficients do not all vanish.  So a vote that refutes a canonical
    identity is a defect, never chance, and raises RuntimeError naming the
    method and the seed.
    """
    if isinstance(methods, str):  # a str would iterate into one-letter names
        raise TypeError(f"methods must be an iterable of method names, not the string {methods!r}")
    methods = tuple(methods)  # validated once, then tested for membership
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    if not methods:
        raise ValueError(f"no method requested; choose from {', '.join(METHODS)}")

    ok, witness = is_partition_identity(expr)
    report = IdentityReport(witness)
    if "canonical" in methods:
        report.per_method["canonical"] = ok

    if "rational" in methods:
        rats = rational_terms_of_expression(expr.terms.items())
        report.per_method["rational"] = is_zero_combination(rats, seed)

    if "numeric" in methods:
        report.per_method["numeric"] = residual_report(expr, seed) == 0
    for method, vote in report.per_method.items():
        if ok and not vote:
            raise RuntimeError(f"the {method} vote refuted a canonical identity at seed {seed}")
    return report
