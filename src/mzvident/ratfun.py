"""Exact rational-function reduction for legal expressions.

Each legal term maps to a product of reciprocals of factors of the form
(prod_{j in S} x_j - 1), one factor per prefix-union of blocks within each
atom.  A linear combination of such terms vanishes identically iff, after
clearing the least common denominator, the numerator polynomial is zero.

The exact test packs that numerator into a single integer by Kronecker
substitution (D. Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", J. Symbolic Comput. 44, 2009): x_j -> 2^(k*stride_j)
with mixed-radix strides from the LCD degrees, and a digit width k that
bounds every coefficient, so the integer is 0 iff the polynomial is.
The numerator is evaluated in factored form, by Horner's rule: terms are
grouped by the factors they lack, and a group shares each multiply.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

from .algebra import LegalTerm
from .indexsets import indices_of

# A rational term is a product of denominator factors: support mask -> power.
RationalTermRep = Counter

# Largest packed numerator, in bits, the exact zero test will build.  It
# admits Hoffman n=5 (about 5.7e7 bits) and refuses n=6 (about 9.7e10).
# The factored pass holds one partial sum per open factor level, each below
# the packed estimate, plus the operands of one shift-subtract: on Hoffman
# n=5 its traced peak is about 5.2 times estimate / 8 bytes (37 MB).
KRONECKER_BUDGET_BITS = 1 << 28


class ZeroTestTooLarge(ValueError):
    """The packed numerator would exceed KRONECKER_BUDGET_BITS."""

    def __init__(self, estimate: int, budget: int):
        self.estimate = estimate
        self.budget = budget
        self.reason = f"estimate {estimate} bits > budget {budget} bits"
        super().__init__(f"rational zero test refused: {self.reason}")


def rational_term_of(term: LegalTerm) -> RationalTermRep:
    """Denominator factorization of the rational function of a legal term.

    For each atom, the b-th factor's support is the union of the atom's
    first b blocks; multiplicities accumulate across atoms.
    """
    factors: RationalTermRep = Counter()
    for atom in term:
        prefix = 0
        for block in atom:
            prefix |= block
            factors[prefix] += 1
    return factors


def _lcd(terms: Sequence[tuple[int, Mapping[int, int]]]) -> Counter:
    lcd: Counter = Counter()
    for _, factors in terms:
        for support, mult in factors.items():
            if mult > lcd[support]:
                lcd[support] = mult
    return lcd


def kronecker_layout(
    terms: Sequence[tuple[int, Mapping[int, int]]], nvars: int
) -> tuple[list[tuple[int, int, int]], int]:
    """(support, LCD power, shift) per LCD factor, and the size estimate in
    bits of the packed numerator.

    The cleared numerator has degree at most d_j in x_j, where d_j is the
    sum of lcd[S] over the supports S containing j, so x_j -> 2^(k*stride_j)
    with stride_j = prod_{i<j} (d_i + 1) sends distinct monomials to
    distinct base-2^k digits.  A term with total deficit D contributes coefficients
    of absolute value at most |c| * 2^D, so with
    k = bits(sum |c|) + max D + 2 every coefficient lies below 2^(k-1) and
    the signed digits are unique.  The packed integer has at most
    k * prod (d_j + 1) bits.  Factors come in ascending shift order.
    """
    lcd = _lcd(terms)
    degrees = [0] * nvars
    for support, mult in lcd.items():
        for j in indices_of(support):
            degrees[j - 1] += mult
    strides = []
    slots = 1
    for d in degrees:
        strides.append(slots)
        slots *= d + 1
    total = sum(lcd.values())
    max_deficit = max((total - sum(f.values()) for _, f in terms), default=0)
    k = sum(abs(c) for c, _ in terms).bit_length() + max_deficit + 2
    factors = [
        (s, m, k * sum(strides[j - 1] for j in indices_of(s))) for s, m in lcd.items()
    ]
    factors.sort(key=lambda f: f[2])
    return factors, k * slots


def is_zero_combination(
    terms: Sequence[tuple[int, Mapping[int, int]]], nvars: int
) -> bool:
    """Exact zero test of the cleared numerator, packed into one integer.

    `terms` are (integer coefficient, denominator factorization) pairs over
    the same nvars-variable universe.  Each factor x^S - 1 acts on the
    packed value v as (v << shift_S) - v, applied once per group of terms
    that lack it and agree on every factor of larger shift (see
    _packed_numerator).  Raises ZeroTestTooLarge, before any packing, when
    the size estimate exceeds KRONECKER_BUDGET_BITS.
    """
    layout, estimate = kronecker_layout(terms, nvars)
    if estimate > KRONECKER_BUDGET_BITS:
        raise ZeroTestTooLarge(estimate, KRONECKER_BUDGET_BITS)
    return _packed_numerator(terms, layout) == 0


def _packed_numerator(
    terms: Sequence[tuple[int, Mapping[int, int]]], layout: Sequence[tuple[int, int, int]]
) -> int:
    """The cleared numerator, sum_T c_T prod_S (x^S - 1)^e_T[S], packed.

    e_T[S] = lcd[S] - factors_T[S] is the term's exponent vector over the
    layout's factors, largest shift first (level 0).  Terms sorted by that
    vector are summed by Horner's rule: sums[l + 1] collects the terms that
    agree with the previous one on levels 0..l, with the factors of levels
    > l applied.  When the next term first differs at level l, levels
    depth-1 down to l are closed: each partial sum is multiplied by its
    factor as often as the previous term's exponent says and added one
    level up.  So each multiply runs once per group of terms that agree on
    every outer factor, and the large-shift multiplies run on group sums.
    Descending order keeps fewer large partial sums open at once than
    ascending order: on Hoffman n=5 the traced peak is 5.2 against 8.4
    times estimate / 8 bytes.
    """
    outer = layout[::-1]
    depth = len(outer)
    shifts = [shift for _, _, shift in outer]
    rows = sorted(
        (
            (tuple(mult - factors.get(support, 0) for support, mult, _ in outer), coeff)
            for coeff, factors in terms
        ),
        reverse=True,
    )
    sums = [0] * (depth + 1)
    prev: tuple[int, ...] = rows[0][0] if rows else ()

    def close(level: int) -> None:
        for i in range(depth - 1, level - 1, -1):
            v = sums[i + 1]
            if v:
                sums[i + 1] = 0
                shift = shifts[i]
                for _ in range(prev[i]):
                    v = (v << shift) - v
                sums[i] += v

    for vec, coeff in rows:
        level = 0
        while level < depth and vec[level] == prev[level]:
            level += 1
        close(level)
        sums[depth] += coeff
        prev = vec
    close(0)
    return sums[0]


def rational_terms_of_expression(
    terms: Iterable[tuple[LegalTerm, int]]
) -> list[tuple[int, RationalTermRep]]:
    """Convenience: (coeff, denominator factorization) list for an expression."""
    return [(coeff, rational_term_of(term)) for term, coeff in terms]
