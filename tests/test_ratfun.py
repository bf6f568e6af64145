import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzvident.algebra import Expression, is_partition_identity
from mzvident.identities import hoffman_identity, random_expression, stuffle_identity
from mzvident.indexsets import full_universe, indices_of, mask_of
from mzvident.parsing import parse
from mzvident.partitions import ordered_set_partitions
import mzvident.ratfun
from mzvident.ratfun import (
    KRONECKER_BUDGET_BITS,
    MODULUS_BITS,
    ModularPoints,
    ZeroTestTooLarge,
    _inverses,
    _packed_numerator,
    is_prime,
    is_zero_combination,
    kronecker_layout,
    kronecker_zero_test,
    modular_points,
    rational_term_of,
    rational_terms_of_expression,
)


def blk(*idx):
    return mask_of(idx)


# --- rational term construction -------------------------------------------


def test_rational_term_prefix_unions():
    term = next(iter(parse("zeta(s1+s2,s3)").terms))
    assert rational_term_of(term) == Counter({blk(1, 2): 1, blk(1, 2, 3): 1})


def test_rational_term_product():
    term = next(iter(parse("zeta(s2)*zeta(s1+s3)").terms))
    assert rational_term_of(term) == Counter({blk(2): 1, blk(1, 3): 1})


def test_rational_term_depth_one():
    term = next(iter(parse("zeta(s1)").terms))
    assert rational_term_of(term) == Counter({blk(1): 1})


def test_factor_count_is_total_atom_length():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 5)
        expr = random_expression(full_universe(n), rng, max_terms=1, coeff_range=(1, 1))
        (term,) = expr.terms
        total = sum(len(atom) for atom in term)
        assert sum(rational_term_of(term).values()) == total


# --- zero tests ------------------------------------------------------------

# The exact test and the seeded modular vote must agree wherever the exact
# test runs.
ZERO_TESTS = (kronecker_zero_test, is_zero_combination)

SEVEN_TERM = [
    (2, Counter({blk(1, 2, 3): 1})),
    (-1, Counter({blk(2): 1, blk(1, 3): 1})),
    (-1, Counter({blk(3): 1, blk(1, 2): 1})),
    (1, Counter({blk(1, 2): 1, blk(1, 2, 3): 1})),
    (1, Counter({blk(2): 1, blk(1, 2, 3): 1})),
    (1, Counter({blk(1, 3): 1, blk(1, 2, 3): 1})),
    (1, Counter({blk(3): 1, blk(1, 2, 3): 1})),
]


def test_seven_term_rational_combination_is_zero():
    for zero_test in ZERO_TESTS:
        assert zero_test(SEVEN_TERM, 3)


def test_single_term_not_zero():
    for zero_test in ZERO_TESTS:
        assert not zero_test([(1, Counter({blk(1): 1}))], 1)


def test_cancelling_pair_is_zero():
    t = Counter({blk(1): 2, blk(1, 2): 1})
    for zero_test in ZERO_TESTS:
        assert zero_test([(1, t), (-1, t)], 2)


def test_repeated_factor_multiplicity():
    # 1/(x1-1)^2 - 1/(x1-1)^2 is zero; 1/(x1-1)^2 - 1/(x1-1) is not.
    sq = Counter({blk(1): 2})
    lin = Counter({blk(1): 1})
    for zero_test in ZERO_TESTS:
        assert zero_test([(1, sq), (-1, sq)], 1)
        assert not zero_test([(1, sq), (-1, lin)], 1)


def test_theorem_agreement_random():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(1, 4)
        expr = random_expression(full_universe(n), rng)
        terms = rational_terms_of_expression(expr.terms.items())
        for zero_test in ZERO_TESTS:
            assert zero_test(terms, n) == is_partition_identity(expr)[0]


# --- Kronecker packing -----------------------------------------------------


def rats_of(expr):
    return rational_terms_of_expression(expr.terms.items())


def sympy_is_zero(terms, n):
    """Test-only oracle: put the sum over a common denominator with sympy."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x1:{n + 1}")
    total = 0
    for coeff, factors in terms:
        term = sympy.Integer(coeff)
        for support, mult in factors.items():
            term /= (sympy.Mul(*(xs[j - 1] for j in indices_of(support))) - 1) ** mult
        total += term
    return sympy.cancel(sympy.together(total)) == 0


def random_identity(n, rng):
    """A stuffle identity zeta(u)*zeta(v) - expansion over s1..sn, or Hoffman's."""
    if n == 1 or rng.random() < 0.25:
        return hoffman_identity(n)
    parts = rng.choice(ordered_set_partitions(full_universe(n)))
    cut = rng.randint(1, len(parts) - 1) if len(parts) > 1 else 1
    return stuffle_identity(parts[:cut], parts[cut:])


def test_agrees_with_sympy_oracle():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 3)
        expr = random_expression(full_universe(n), rng)
        if rng.random() < 0.5:
            expr = random_identity(n, rng).scale(rng.randint(1, 5)) + expr.scale(
                rng.randint(0, 1)
            )
        terms = rats_of(expr)
        assert kronecker_zero_test(terms, n) == sympy_is_zero(terms, n)


def test_budget_separates_hoffman_five_and_six():
    estimates = {n: kronecker_layout(rats_of(hoffman_identity(n)), n)[1] for n in (4, 5, 6)}
    assert estimates[4] < estimates[5] <= KRONECKER_BUDGET_BITS < estimates[6]


def test_over_budget_refused_before_packing():
    terms = rats_of(hoffman_identity(6))
    tracemalloc.start()
    try:
        with pytest.raises(ZeroTestTooLarge) as info:
            kronecker_zero_test(terms, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.estimate > KRONECKER_BUDGET_BITS == info.value.budget
    assert str(info.value.estimate) in str(info.value)
    # The packed numerator alone would take estimate / 8 bytes (about 12 GB).
    assert peak < 1 << 20


def flat_packed_numerator(terms, layout):
    """Test-only reference: every term walked through each factor it lacks."""
    total = 0
    for coeff, factors in terms:
        v = coeff
        for support, mult, shift in layout:
            for _ in range(mult - factors.get(support, 0)):
                v = (v << shift) - v
        total += v
    return total


def assert_same_packing(terms, n):
    layout, _ = kronecker_layout(terms, n)
    assert _packed_numerator(terms, layout) == flat_packed_numerator(terms, layout)


def test_factored_packing_matches_flat_random():
    rng = random.Random(37)
    for i in range(200):
        n = rng.randint(1, 4)
        expr = random_expression(full_universe(n), rng)
        if i % 2:
            expr = expr + random_identity(n, rng).scale(rng.choice([-3, -1, 2, 5]))
        assert_same_packing(rats_of(expr), n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_factored_packing_matches_flat_hoffman(n):
    assert_same_packing(rats_of(hoffman_identity(n)), n)


def test_factored_packing_matches_flat_edge_cases():
    full = Counter({blk(1): 1, blk(1, 2): 1, blk(2): 1})
    a = Counter({blk(1): 2, blk(1, 2): 1})
    b = Counter({blk(2): 1})
    cases = [
        [],
        [(7, b)],
        # The first term lacks no factor of the common denominator.
        [(3, full), (-1, b), (2, Counter({blk(1): 1}))],
        # Equal factorizations, apart in input order, with others between.
        [(1, a), (4, b), (-2, a), (5, full), (1, a), (-4, b)],
    ]
    for terms in cases:
        assert_same_packing(terms, 2)
    for zero_test in ZERO_TESTS:
        assert zero_test([], 2)


def test_factored_pass_memory_on_hoffman_five():
    # The pass holds one partial sum per open factor level, each below the
    # packed estimate.  It reads 5.2 times estimate / 8 bytes here; summing
    # the terms in ascending order instead would read 8.4.
    terms = rats_of(hoffman_identity(5))
    _, estimate = kronecker_layout(terms, 5)
    tracemalloc.start()
    try:
        assert kronecker_zero_test(terms, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * estimate // 8


def test_no_false_zero_from_digit_overflow():
    # a/(x-1) + b/(x-1)^2 has numerator a*x + (b - a), which a too narrow
    # digit width B would send to 0 whenever b = a*(1 - B).
    for j in range(200):
        for a in (1, -3):
            terms = [(a, Counter({blk(1): 1})), (a * (1 - 2**j), Counter({blk(1): 2}))]
            for zero_test in ZERO_TESTS:
                assert not zero_test(terms, 1)


EXTREME = st.one_of(
    st.integers(-(10**40), 10**40),
    st.integers(0, 140).map(lambda e: 2**e),
    st.integers(0, 140).map(lambda e: -(2**e)),
)


@given(
    st.integers(1, 4),
    st.integers(0, 2**32),
    st.lists(EXTREME, min_size=1, max_size=3),
    st.integers(-1, 1),
)
@settings(max_examples=60, deadline=None)
def test_extreme_coefficients_match_canonical(n, seed, coeffs, bump):
    rng = random.Random(seed)
    expr = Expression(full_universe(n), {})
    for c in coeffs:
        expr = expr + random_identity(n, rng).scale(c)
    term = next(iter(random_expression(full_universe(n), rng, max_terms=1, coeff_range=(1, 1)).terms))
    expr = expr + Expression(expr.universe, {term: bump})
    for zero_test in ZERO_TESTS:
        assert zero_test(rats_of(expr), n) == is_partition_identity(expr)[0]
    # c*T - c*T + T, kept as separate rational terms, is T.
    t = rational_term_of(term)
    for c in coeffs:
        for zero_test in ZERO_TESTS:
            assert zero_test([(c, t), (-c, t)], n)
            assert not zero_test([(c, t), (-c, t), (1, t)], n)


@given(st.integers(1, 4), st.integers(0, 2**32), EXTREME)
@settings(max_examples=60, deadline=None)
def test_vote_unchanged_by_adding_identity(n, seed, k):
    rng = random.Random(seed)
    expr = random_expression(full_universe(n), rng)
    shifted = expr + random_identity(n, rng).scale(k)
    for zero_test in ZERO_TESTS:
        assert zero_test(rats_of(shifted), n) == zero_test(rats_of(expr), n)


# --- modular vote ------------------------------------------------------------


def test_vote_primes_in_range():
    sympy = pytest.importorskip("sympy")
    for seed in range(200):
        p = modular_points(seed).p
        assert 1 << (MODULUS_BITS - 1) <= p < 1 << MODULUS_BITS
        assert sympy.isprime(p)


def test_is_prime_rejects_strong_pseudoprimes():
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5, 7
    # A strong pseudoprime to every base 2..31: only base 37 rejects it.
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    for n in [*range(-2, 5000), *(rng.randrange(2**64) | 1 for _ in range(2000))]:
        assert is_prime(n) == sympy.isprime(n), n


def test_vote_matches_exact_test_and_canonical():
    rng = random.Random(43)
    for i in range(320):
        n = rng.randint(1, 5)
        expr = random_expression(full_universe(n), rng)
        terms = rats_of(expr)
        vote = is_zero_combination(terms, n, i)
        assert vote == kronecker_zero_test(terms, n) == is_partition_identity(expr)[0]
        shifted = expr + hoffman_identity(n).scale(rng.choice([-5, -1, 2, 10**30]))
        assert is_zero_combination(rats_of(shifted), n, i) == vote


@pytest.mark.parametrize("n", [6, 7, 8])
def test_vote_past_the_exact_budget(n):
    expr = hoffman_identity(n)
    assert is_zero_combination(rats_of(expr), n)
    rng = random.Random(n)
    term = next(iter(random_expression(full_universe(n), rng, max_terms=1, coeff_range=(1, 1)).terms))
    assert not is_zero_combination(rats_of(expr + Expression(expr.universe, {term: 1})), n)


def test_vote_redraws_when_a_factor_vanishes(monkeypatch):
    points = ModularPoints(47)
    x = points.point(0)
    points.points[0] = (x[0], 1, *x[2:])  # x_2 = 1, so the factor x_2 - 1 is 0
    assert _inverses([blk(2)], points.points[0], points.p) is None
    monkeypatch.setattr(mzvident.ratfun, "modular_points", lambda seed: points)
    assert is_zero_combination(SEVEN_TERM, 3)
    assert len(points.points) == 2  # one redraw
    assert points.points[1] == ModularPoints(47).point(1)  # the stream's next point
    assert not is_zero_combination(SEVEN_TERM + [(1, Counter({blk(2): 1}))], 3)
    assert len(points.points) == 2
