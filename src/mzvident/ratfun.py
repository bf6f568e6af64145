"""Rational-function reduction for legal expressions, and its zero tests.

Each legal term maps to a product of reciprocals of factors of the form
(prod_{j in S} x_j - 1), one factor per prefix-union of blocks within each
atom.  A linear combination of such terms vanishes identically iff, after
clearing the least common denominator, the numerator polynomial is zero.

`is_zero_combination`, the vote `verify` takes, evaluates the combination
modulo a seeded random prime p at a seeded random point: a Schwartz-Zippel
test (J. T. Schwartz, J. ACM 27, 1980; R. Zippel, EUROSAM 1979) that costs
one pass over the terms at every size.

`kronecker_zero_test`, the exact test, packs the numerator into a single
integer by Kronecker substitution (D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44, 2009): x_j -> 2^(k*stride_j) with mixed-radix strides from the LCD
degrees, and a digit width k that bounds every coefficient, so the integer
is 0 iff the polynomial is.  The numerator is evaluated in factored form,
by Horner's rule: terms are grouped by the factors they lack, and a group
shares each multiply.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .algebra import LegalTerm
from .indexsets import MAX_INDEX, indices_of

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


def kronecker_zero_test(
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


# Miller-Rabin bases: the first twelve primes.  No composite below 3.18e23
# is a strong pseudoprime to all of them (J. Sorenson and J. Webster, Math.
# Comp. 86, 2017), so `is_prime` is exact on every 64-bit integer.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The vote's prime lies in [2^(MODULUS_BITS-1), 2^MODULUS_BITS).
MODULUS_BITS = 61


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


@lru_cache(maxsize=8)
def modular_points(seed: int) -> ModularPoints:
    """The prime search (under 1 ms) runs once per seed, not once per vote."""
    return ModularPoints(seed)


def _inverses(supports: list[int], x: Sequence[int], p: int) -> dict[int, int] | None:
    """(prod_{j in S} x_j - 1)^-1 mod p for each support S, with one modular
    inversion for all of them (batch inversion); None when a factor is 0."""
    values = [(math.prod(x[j - 1] for j in indices_of(s)) - 1) % p for s in supports]
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % p)
    if not prefix[-1]:
        return None
    acc = pow(prefix[-1], -1, p)  # the inverse of prefix[i + 1] in step i
    inverse = {}
    for i in range(len(values) - 1, -1, -1):
        inverse[supports[i]] = acc * prefix[i] % p
        acc = acc * values[i] % p
    return inverse


def is_zero_combination(
    terms: Sequence[tuple[int, Mapping[int, int]]], nvars: int, seed: int = 0
) -> bool:
    """Seeded modular vote: sum_T c_T prod_S (x^S - 1)^(-m_T[S]) == 0 mod p,
    with p and the point x from `modular_points(seed)`.

    `terms` are (integer coefficient, denominator factorization) pairs, as
    for kronecker_zero_test; the point covers every index 1..63, so `nvars`
    does not enter.  The value is N(x) / LCD(x) for the cleared numerator N,
    so a nonzero value refutes exactly.  A zero is wrong only if p divides
    every coefficient of N, or else with probability at most
    deg(LCD) / (p - deg(LCD)) (Schwartz-Zippel, given LCD(x) != 0).  When
    some factor vanishes at the point, the next point of the seed's stream
    is taken; the vote never refuses.
    """
    points = modular_points(seed)
    p = points.p
    supports = list({s for _, factors in terms for s in factors})
    attempt = 0
    while (inverse := _inverses(supports, points.point(attempt), p)) is None:
        attempt += 1
    total = 0
    for coeff, factors in terms:
        for support, mult in factors.items():
            coeff *= inverse[support] ** mult
        total += coeff
    return total % p == 0


def rational_terms_of_expression(
    terms: Iterable[tuple[LegalTerm, int]]
) -> list[tuple[int, RationalTermRep]]:
    """Convenience: (coeff, denominator factorization) list for an expression."""
    return [(coeff, rational_term_of(term)) for term, coeff in terms]
