"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import random
import time
from collections import Counter

import pytest

from mzvident.algebra import (
    Expression,
    is_partition_identity,
    normalize,
    stuffle_product,
    stuffle_size,
)
from mzvident.identities import (
    hoffman_identity,
    random_expression,
    stuffle_identity,
    verify,
)
from mzvident.indexsets import full_universe, mask_of
from mzvident.numeric import eval_zeta_truncated, random_assignment, residuals, term_values
from mzvident.parsing import parse
from mzvident.partitions import (
    bell_count,
    fubini_count,
    ordered_set_partitions,
    unordered_set_partitions,
)
from mzvident.ratfun import (
    is_zero_combination,
    kronecker_zero_test,
    rational_terms_of_expression,
)


def blk(*idx):
    return mask_of(idx)


def report(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


EXAMPLE_TEXT = (
    "2*zeta(s1+s2+s3) - zeta(s2)*zeta(s1+s3) - zeta(s3)*zeta(s1+s2)"
    " + zeta(s1+s2,s3) + zeta(s2,s1+s3) + zeta(s1+s3,s2) + zeta(s3,s1+s2)"
)

THIRTEEN = {
    (blk(1), blk(2), blk(3), blk(4)),
    (blk(1), blk(2, 3), blk(4)),
    (blk(1), blk(3), blk(2), blk(4)),
    (blk(1), blk(3), blk(2, 4)),
    (blk(1), blk(3), blk(4), blk(2)),
    (blk(3), blk(1), blk(2), blk(4)),
    (blk(3), blk(1), blk(2, 4)),
    (blk(3), blk(1), blk(4), blk(2)),
    (blk(3), blk(1, 4), blk(2)),
    (blk(3), blk(4), blk(1), blk(2)),
    (blk(1, 3), blk(2), blk(4)),
    (blk(1, 3), blk(2, 4)),
    (blk(1, 3), blk(4), blk(2)),
}


def test_criterion_1_stuffle_expansion_fidelity():
    start = time.perf_counter()
    result = stuffle_product((blk(1), blk(2)), (blk(3), blk(4)))
    elapsed = time.perf_counter() - start
    ok = dict(result) == {w: 1 for w in THIRTEEN} and elapsed < 1e-3
    report(1, "depth-2 by depth-2 stuffle gives the thirteen tuples, < 1 ms", ok)


def test_criterion_2_size_formula_law():
    start = time.perf_counter()
    ok = True
    rng = random.Random(2)
    for m in range(6):
        for n in range(6):
            indices = list(range(1, m + n + 1))
            rng.shuffle(indices)
            u = tuple(blk(i) for i in indices[:m])
            v = tuple(blk(i) for i in indices[m:])
            total = sum(stuffle_product(u, v).values())
            ok = ok and total == stuffle_size(m, n)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(2, "stuffle multiset size matches the closed form for m,n <= 5, < 1 s", ok)


def test_criterion_3_example_verifies_three_ways():
    start = time.perf_counter()
    expr = parse(EXAMPLE_TEXT)
    rep = verify(expr, methods=("canonical", "rational"))
    ok = rep.verdict == "identity" and rep.agreement
    rng = random.Random(3)
    for _ in range(20):
        assign = random_assignment(expr.universe, rng)
        _, rel = residuals(term_values(expr, assign, 50))
        ok = ok and rel <= 1e-10
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(3, "seven-term example: identity by all three methods, residual <= 1e-10", ok)


def test_criterion_4_rational_identity():
    start = time.perf_counter()
    terms = [
        (2, Counter({blk(1, 2, 3): 1})),
        (-1, Counter({blk(2): 1, blk(1, 3): 1})),
        (-1, Counter({blk(3): 1, blk(1, 2): 1})),
        (1, Counter({blk(1, 2): 1, blk(1, 2, 3): 1})),
        (1, Counter({blk(2): 1, blk(1, 2, 3): 1})),
        (1, Counter({blk(1, 3): 1, blk(1, 2, 3): 1})),
        (1, Counter({blk(3): 1, blk(1, 2, 3): 1})),
    ]
    ok = kronecker_zero_test(terms)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(4, "seven-term rational combination is exactly zero, < 1 s", ok)


def test_criterion_5_hoffman_identity():
    ok = True
    for n in range(1, 6):
        ok = ok and is_partition_identity(hoffman_identity(n))[0]
    start = time.perf_counter()
    h6 = hoffman_identity(6)
    lhs = [t for t in h6.terms if len(t) == 1 and len(t[0]) == 6]
    rhs = [t for t in h6.terms if all(len(a) == 1 for a in t)]
    ok = ok and len(lhs) == 720 and len(rhs) == 203 == bell_count(6)
    ok = ok and is_partition_identity(h6)[0]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(5, "symmetric-sum identity verifies for n = 1..6, n=6 under 60 s", ok)


def test_criterion_6_cross_method_agreement():
    rng = random.Random(6)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 4)
        expr = random_expression(full_universe(n), rng)
        canonical = is_partition_identity(expr)[0]
        rational = is_zero_combination(rational_terms_of_expression(expr.terms.items()))
        ok = ok and canonical == rational
    report(6, "canonical and rational verdicts agree on 100 random expressions", ok)


def test_criterion_7_perturbation_refutation():
    rng = random.Random(7)
    identities = [hoffman_identity(n) for n in range(2, 6)]
    for total in range(2, 6):
        for m in range(1, total):
            u = tuple(blk(i) for i in range(1, m + 1))
            v = tuple(blk(i) for i in range(m + 1, total + 1))
            identities.append(stuffle_identity(u, v))
    identities.append(parse(EXAMPLE_TEXT))
    identities.append(stuffle_identity((blk(2), blk(1)), (blk(3),)))
    identities.append(stuffle_identity((blk(1, 2),), (blk(3),)))
    identities.append(stuffle_identity((blk(1, 3), blk(2)), (blk(4),)))
    identities.append(stuffle_identity((blk(1),), (blk(2, 3), blk(4))))
    identities.append(stuffle_identity((blk(2, 4), blk(1)), (blk(3), blk(5))))
    assert len(identities) >= 20
    ok = True
    for expr in identities[:20]:
        ok = ok and is_partition_identity(expr)[0]
        parts = rng.choice(ordered_set_partitions(expr.universe))
        perturbed = expr + Expression(expr.universe, {(parts,): 1})
        verdict, witness = is_partition_identity(perturbed)
        ok = ok and not verdict and witness is not None
        if witness is not None:
            wparts, wcoeff = witness
            ok = ok and normalize(perturbed).coeffs.get(wparts) == wcoeff != 0
    report(7, "unit perturbation of 20 identities flips the verdict with a witness", ok)


def test_criterion_8_combinatorial_counts():
    ordered = [len(ordered_set_partitions(full_universe(n))) for n in range(1, 6)]
    ok = ordered == [1, 3, 13, 75, 541]
    ok = ok and ordered == [fubini_count(n) for n in range(1, 6)]
    for n in range(1, 8):
        ok = ok and len(unordered_set_partitions(full_universe(n))) == bell_count(n)
    report(8, "ordered counts are 1,3,13,75,541 and unordered match Bell up to n=7", ok)


def test_criterion_9_truncated_stuffle_law():
    rng = random.Random(9)
    ok = True
    for _ in range(50):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        indices = list(range(1, m + n + 1))
        rng.shuffle(indices)
        u = tuple(blk(i) for i in indices[:m])
        v = tuple(blk(i) for i in indices[m:])
        assign = random_assignment(full_universe(m + n), rng)
        n_trunc = rng.choice([10, 50])

        def ev(atom):
            exps = [
                sum(assign[j] for j in range(1, m + n + 1) if b & (1 << (j - 1)))
                for b in atom
            ]
            return eval_zeta_truncated(exps, n_trunc)

        expansion = stuffle_product(u, v)
        lhs = ev(u) * ev(v)
        rhs = sum(mult * ev(w) for w, mult in expansion.items())
        magnitude = abs(lhs) + sum(mult * abs(ev(w)) for w, mult in expansion.items())
        ok = ok and abs(lhs - rhs) <= 1e-10 * magnitude
    report(9, "truncated sums obey the stuffle law to rounding on 50 seeded cases", ok)
