"""Rational-function reduction for legal expressions, and its zero tests.

Each legal term maps to a product of reciprocals of factors of the form
(prod_{j in S} x_j - 1), one factor per prefix-union of blocks within each
atom.  A linear combination of such terms vanishes identically iff, after
clearing the least common denominator, the numerator polynomial is zero.

`is_zero_combination`, the vote `verify` takes, evaluates the combination
modulo a seeded random prime p at a seeded random point: a Schwartz-Zippel
test (J. T. Schwartz, J. ACM 27, 1980; R. Zippel, EUROSAM 1979) that costs
one pass over the terms at every size.  Nothing of the point depends on the
expression: the prime and the points are drawn once per process and seed
(`modular_points`, at most SEED_TABLE_SIZE seeds), each factor's inverse at a
point is computed once (`_inverse`, SEED_TABLE_SIZE * BLOCK_TABLE_SIZE
entries), and a vote reads them.

`kronecker_zero_test`, the exact test, packs the numerator into a single
integer by Kronecker substitution (D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44, 2009): x_j -> 2^(k*stride_j) with mixed-radix strides from the LCD
degrees, and a digit width k that bounds every coefficient, so the integer
is 0 iff the polynomial is.  The numerator is evaluated in factored form,
by Horner's rule as a recursion: terms are grouped by the factors they
lack, and a group shares each multiply.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import accumulate, groupby
from operator import or_
from typing import Iterable, Mapping, Sequence

from .algebra import LegalTerm
from .indexsets import BLOCK_TABLE_SIZE, MAX_INDEX, SEED_TABLE_SIZE, indices_of

# A rational term is a product of denominator factors: support mask -> power.
RationalTermRep = dict[int, int]

# Largest packed numerator, in bits, the exact zero test will build.  It
# admits Hoffman n=5 (about 5.7e7 bits) and refuses n=6 (about 9.7e10).
# The recursive Horner pass holds one partial sum per factor level, each below
# the packed estimate, plus the operands of one shift-subtract: on Hoffman
# n=5 its traced peak is about 5.2 times estimate / 8 bytes (37 MB).
KRONECKER_BUDGET_BITS = 1 << 28


class ZeroTestTooLarge(ValueError):
    """The packed numerator would exceed KRONECKER_BUDGET_BITS."""

    def __init__(self, estimate: int, budget: int):
        self.estimate = estimate
        self.budget = budget
        super().__init__(f"rational zero test refused: estimate {estimate} bits"
                         f" > budget {budget} bits")


def rational_term_of(term: LegalTerm) -> RationalTermRep:
    """Denominator factorization of the rational function of a legal term.

    For each atom, the b-th factor's support is the union of the atom's
    first b blocks, to power 1: a legal term's unions are all distinct.
    """
    return {prefix: 1 for atom in term for prefix in accumulate(atom, or_)}


def _lcd(terms: Sequence[tuple[int, Mapping[int, int]]]) -> dict[int, int]:
    lcd: dict[int, int] = {}
    for _, factors in terms:
        for support, mult in factors.items():
            if mult > lcd.get(support, 0):
                lcd[support] = mult
    return lcd


def kronecker_layout(
    terms: Sequence[tuple[int, Mapping[int, int]]]
) -> tuple[list[tuple[int, int, int]], int]:
    """(support, LCD power, shift) per LCD factor, and the size estimate in
    bits of the packed numerator.

    The variables are x_1..x_n, n the highest index in any LCD support.  The
    cleared numerator has degree at most d_j in x_j, where d_j is the sum of
    lcd[S] over the supports S containing j, so x_j -> 2^(k*stride_j) with
    stride_j = prod_{i<j} (d_i + 1) sends distinct monomials to distinct
    base-2^k digits.  A term with total deficit D contributes coefficients
    of absolute value at most |c| * 2^D, so with
    k = bits(sum |c|) + max D + 2 every coefficient lies below 2^(k-1) and
    the signed digits are unique.  The packed integer has at most
    k * prod (d_j + 1) bits.  Factors come largest shift first.
    """
    lcd = _lcd(terms)
    degrees = [0] * max(map(int.bit_length, lcd), default=0)
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
    factors.sort(key=lambda f: f[2], reverse=True)
    return factors, k * slots


def kronecker_zero_test(terms: Sequence[tuple[int, Mapping[int, int]]]) -> bool:
    """Exact zero test of the cleared numerator, packed into one integer.

    `terms` are (integer coefficient, denominator factorization) pairs.
    Each factor x^S - 1 acts on the packed value v as (v << shift_S) - v,
    applied once per group of terms that lack it and agree on every factor
    of larger shift (see _packed_numerator).  Raises ZeroTestTooLarge,
    before any packing, when the size estimate exceeds
    KRONECKER_BUDGET_BITS.
    """
    layout, estimate = kronecker_layout(terms)
    if estimate > KRONECKER_BUDGET_BITS:
        raise ZeroTestTooLarge(estimate, KRONECKER_BUDGET_BITS)
    return _packed_numerator(terms, layout) == 0


def _packed_numerator(
    terms: Sequence[tuple[int, Mapping[int, int]]], layout: Sequence[tuple[int, int, int]]
) -> int:
    """The cleared numerator, sum_T c_T prod_S (x^S - 1)^e_T[S], packed.

    e_T[S] = lcd[S] - factors_T[S] is the term's exponent vector over the
    layout's factors, largest shift first (level 0).  Horner's rule by
    recursion on the vectors in descending order: a level groups its terms
    by their exponent e there, sums each group over the deeper levels,
    multiplies that sum by the level's factor e times and adds it to the
    level's total.  So each multiply runs once per group of terms that agree
    on every outer factor, and one partial per level is open at a time
    (fewer large ones than in ascending order: 5.2 against 8.4 times
    estimate / 8 bytes traced on Hoffman n=5).  The recursion is one frame
    per LCD factor, 31 on Hoffman n=5, the largest input admitted.
    """
    rows = [(tuple(m - factors.get(s, 0) for s, m, _ in layout), c) for c, factors in terms]

    def horner(rows: list, level: int) -> int:
        if level == len(layout):
            return sum(coeff for _, coeff in rows)
        shift = layout[level][2]
        total = 0
        for e, group in groupby(rows, lambda row: row[0][level]):
            v = horner(list(group), level + 1)
            for _ in range(e):
                v = (v << shift) - v
            total += v
            del v  # not held while the next group descends
        return total

    return horner(sorted(rows, reverse=True), 0)


# Miller-Rabin bases: the first twelve primes.  No composite below 3.18e23
# is a strong pseudoprime to all of them (J. Sorenson and J. Webster, Math.
# Comp. 86, 2017), so `is_prime` is exact on every 64-bit integer.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The vote's prime lies in [2^(MODULUS_BITS-1), 2^MODULUS_BITS).
MODULUS_BITS = 61

# Points a vote tries before it gives up.  A point is skipped only where a
# factor vanishes, which a random point does with probability at most
# deg(LCD) / p, so reaching the cap means the point stream is broken, not
# unlucky.
MAX_POINTS = 32


def is_prime(n: int) -> bool:
    """Miller-Rabin test on PRIME_BASES (G. L. Miller, J. Comput. Syst. Sci.
    13, 1976; M. O. Rabin, J. Number Theory 12, 1980); exact below 2^64."""
    if n < 2:
        return False
    for q in PRIME_BASES:
        if n % q == 0:
            return n == q
    r = ((n - 1) & (1 - n)).bit_length() - 1  # 2^r exactly divides n - 1
    d = (n - 1) >> r
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ModularPoints:
    """The vote's prime p and its evaluation points for one seed.

    Both come from their own stream, random.Random("ratfun:<seed>"), apart
    from the numeric vote's weights: first p, uniform among the primes of
    MODULUS_BITS bits, then point 0, 1, ..., each (x_1, ..., x_63) uniform
    mod p and drawn on first use.  Point i is the same whichever vote draws
    it first, so one cached object serves every vote of the seed.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(f"ratfun:{seed}")
        p = 0
        while not is_prime(p):
            p = self._rng.randrange(1 << (MODULUS_BITS - 1), 1 << MODULUS_BITS)
        self.p = p
        self.points: list[tuple[int, ...]] = []

    def point(self, i: int) -> tuple[int, ...]:
        while len(self.points) <= i:
            self.points.append(tuple(self._rng.randrange(self.p) for _ in range(MAX_INDEX)))
        return self.points[i]


@lru_cache(maxsize=SEED_TABLE_SIZE)
def modular_points(seed: int) -> ModularPoints:
    """The prime search (under 1 ms) runs once per seed, not once per vote."""
    return ModularPoints(seed)


@lru_cache(maxsize=SEED_TABLE_SIZE * BLOCK_TABLE_SIZE)
def _inverse(seed: int, i: int, support: int) -> int:
    """(prod_{j in S} x_j - 1)^-1 mod p at point i of `modular_points(seed)`,
    or 0 where that factor is 0 (no inverse is)."""
    points = modular_points(seed)
    x, p = points.point(i), points.p
    v = (math.prod(x[j - 1] for j in indices_of(support)) - 1) % p
    return pow(v, -1, p) if v else 0


def is_zero_combination(terms: Sequence[tuple[int, Mapping[int, int]]], seed: int = 0) -> bool:
    """Seeded modular vote: sum_T c_T prod_S (x^S - 1)^(-m_T[S]) == 0 mod p,
    with p and the point x from `modular_points(seed)`.

    `terms` are (integer coefficient, denominator factorization) pairs, as
    for kronecker_zero_test; the point covers every index 1..63.  The value
    is N(x) / LCD(x) for the cleared numerator N, so a nonzero value refutes
    exactly.  A zero is wrong only if p divides every coefficient of N, or
    else with probability at most deg(LCD) / (p - deg(LCD)) (Schwartz-Zippel,
    given LCD(x) != 0).  When some factor vanishes at the point, the next
    point of the seed's stream is taken; RuntimeError past MAX_POINTS points.
    """
    supports = {s for _, factors in terms for s in factors}
    for i in range(MAX_POINTS):
        inverse = {s: _inverse(seed, i, s) for s in supports}
        if all(inverse.values()):
            break
    else:
        raise RuntimeError(f"modular vote: a factor vanishes at all {MAX_POINTS} points of seed {seed}")
    total = 0
    for coeff, factors in terms:
        for support, mult in factors.items():
            coeff *= inverse[support] ** mult
        total += coeff
    return total % modular_points(seed).p == 0


def rational_terms_of_expression(
    terms: Iterable[tuple[LegalTerm, int]]
) -> list[tuple[int, RationalTermRep]]:
    """Convenience: (coeff, denominator factorization) list for an expression."""
    return [(coeff, rational_term_of(term)) for term, coeff in terms]
