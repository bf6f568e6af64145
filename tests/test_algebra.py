import copy
import pickle
import random
import tracemalloc
from collections import Counter
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mzvident.algebra
from mzvident.algebra import (
    CANONICAL_BUDGET_WORDS,
    CanonicalForm,
    Expression,
    LegalityError,
    _stuffle_words,
    is_partition_identity,
    normalize,
    stuffle_product,
    stuffle_size,
    validate_legal_term,
)
from mzvident.identities import hoffman_identity, random_expression, stuffle_identity
from mzvident.indexsets import full_universe, mask_of
from mzvident.partitions import unordered_set_partitions
from mzvident.parsing import parse

def blk(*idx):
    return mask_of(idx)


# --- validation ------------------------------------------------------------


def test_validate_ten_variable_product():
    atoms = [
        (blk(6), blk(2, 5), blk(1, 8, 9)),
        (blk(3, 4), blk(10)),
        (blk(7),),
    ]
    term = validate_legal_term(atoms, full_universe(10))
    # canonical order: by smallest index occurring in the atom
    assert term == (
        (blk(6), blk(2, 5), blk(1, 8, 9)),
        (blk(3, 4), blk(10)),
        (blk(7),),
    )


def test_validate_missing_variable():
    with pytest.raises(LegalityError, match="variable missing"):
        validate_legal_term([((blk(1)),)], full_universe(2))


def test_validate_reused_variable():
    with pytest.raises(LegalityError, match="variable reused"):
        validate_legal_term([(blk(1),), (blk(1, 2),)], full_universe(2))


def test_validate_empty_term():
    with pytest.raises(LegalityError, match="empty term"):
        validate_legal_term((), 0)
    with pytest.raises(LegalityError, match="empty term"):
        Expression.build(0, [(3, ())])
    with pytest.raises(LegalityError, match="empty term"):
        Expression.build(full_universe(1), [(1, ((blk(1),),)), (3, ())])


def test_validate_empty_block():
    with pytest.raises(LegalityError, match="empty"):
        validate_legal_term([(0,)], full_universe(1))
    with pytest.raises(LegalityError, match="empty"):
        validate_legal_term([()], full_universe(1))


# --- value types -----------------------------------------------------------


def test_values_survive_copy_and_pickle():
    expr = parse("3*zeta(s1,s2) - zeta(s1)*zeta(s2)")
    for value in (expr, normalize(expr), Expression(0), CanonicalForm(0)):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value) and clone == value
            assert hash(clone) == hash(value)
    assert pickle.loads(pickle.dumps(expr, protocol=0)) == expr


def test_values_are_immutable():
    expr = parse("zeta(s1,s2)")
    canon = normalize(expr)
    for value, name in ((expr, "universe"), (expr, "terms"), (canon, "universe"), (canon, "coeffs")):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, {})
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        expr.extra = 1  # no __dict__ either


def test_value_constructors_and_repr():
    for cls, name in ((Expression, "terms"), (CanonicalForm, "coeffs")):
        a, b = cls(3), cls(3)
        assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)
        assert cls(universe=3, **{name: {(1,): 2}}) == cls(3, {(1,): 2})
    expr = Expression(3, {((1,), (2,)): 2})
    assert repr(expr) == "Expression(universe=3, terms={((1,), (2,)): 2})"
    assert repr(CanonicalForm(1, {(1,): -1})) == "CanonicalForm(universe=1, coeffs={(1,): -1})"
    assert Expression(1, {}) != CanonicalForm(1, {})


# --- stuffle product -------------------------------------------------------

# (s,u)*(t,v) with s,u,t,v as variables 1..4: the thirteen tuples of the
# depth-2-by-depth-2 expansion, frozen from the recursion's definition.
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


def test_stuffle_two_by_two_expansion():
    result = stuffle_product((blk(1), blk(2)), (blk(3), blk(4)))
    assert dict(result) == {w: 1 for w in THIRTEEN}


def test_stuffle_initial_conditions():
    u = (blk(1), blk(2))
    assert stuffle_product(u, ()) == Counter({u: 1})
    assert stuffle_product((), u) == Counter({u: 1})


def test_stuffle_depth_one():
    result = stuffle_product((blk(1),), (blk(2),))
    assert dict(result) == {
        (blk(1), blk(2)): 1,
        (blk(2), blk(1)): 1,
        (blk(1, 2),): 1,
    }


def test_stuffle_rejects_shared_variable():
    with pytest.raises(LegalityError, match="share"):
        stuffle_product((blk(1),), (blk(1, 2),))


def test_stuffle_rejects_illegal_operand():
    for u, v in (((blk(1), blk(1)), (blk(2),)), ((blk(3),), (blk(1), blk(1, 2)))):
        with pytest.raises(LegalityError, match="variable reused: s1"):
            stuffle_product(u, v)
        with pytest.raises(LegalityError, match="variable reused: s1"):
            stuffle_product(v, u)
    with pytest.raises(LegalityError, match="variable reused: s1"):
        stuffle_product((blk(1), blk(1)), ())
    with pytest.raises(LegalityError, match="empty block"):
        stuffle_product((blk(1), 0), (blk(2),))


def test_canonical_expansion_over_budget_refused_before_building():
    u = tuple(blk(j) for j in range(1, 13))
    v = tuple(blk(j) for j in range(13, 25))
    expr = Expression.build(full_universe(24), [(1, (u, v))])
    want = f"estimate {stuffle_size(12, 12) * 24} slots > budget {CANONICAL_BUDGET_WORDS} slots"
    tracemalloc.start()
    try:
        for expand in (lambda: stuffle_product(u, v), lambda: normalize(expr)):
            with pytest.raises(ValueError, match="canonical expansion refused") as info:
                expand()
            assert want in str(info.value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The 251,595,969 words would take tens of GB.
    assert peak < 1 << 20


def test_canonical_budget_boundary(monkeypatch):
    # A bound counts word slots: the word count times the word length bound.
    u, v = (blk(1), blk(2)), (blk(3), blk(4))
    monkeypatch.setattr(mzvident.algebra, "CANONICAL_BUDGET_WORDS", 52)
    assert len(stuffle_product(u, v)) == stuffle_size(2, 2) == 13  # 13 * 4 slots
    with pytest.raises(ValueError, match="estimate 125 slots > budget 52 slots"):
        stuffle_product(u, v + (blk(5),))
    # normalize adds the term bounds: 52 for the two-atom fold term, and
    # each single word's length, 44 over the 13 words.
    expr = stuffle_identity(u, v)
    monkeypatch.setattr(mzvident.algebra, "CANONICAL_BUDGET_WORDS", 96)
    assert normalize(expr).is_zero()
    monkeypatch.setattr(mzvident.algebra, "CANONICAL_BUDGET_WORDS", 95)
    with pytest.raises(ValueError, match="estimate 96 slots > budget 95 slots"):
        normalize(expr)
    # A product of k = 3 depth-1 atoms adds Bell(3) * 3 = 15 for its
    # coarsenings of up to 3 blocks, then r! * r for each coarsening of r
    # blocks before its orderings are built: 1 + 3 * 4 + 18 = 31, for the
    # 13 words of zeta(s1)*zeta(s2)*zeta(s3).
    triple = parse("zeta(s1)*zeta(s2)*zeta(s3)")
    monkeypatch.setattr(mzvident.algebra, "CANONICAL_BUDGET_WORDS", 46)
    assert len(normalize(triple).coeffs) == 13
    monkeypatch.setattr(mzvident.algebra, "CANONICAL_BUDGET_WORDS", 45)
    with pytest.raises(ValueError, match="estimate 46 slots > budget 45 slots"):
        normalize(triple)
    monkeypatch.setattr(mzvident.algebra, "CANONICAL_BUDGET_WORDS", 4)
    with pytest.raises(ValueError, match="estimate 15 slots > budget 4 slots"):
        normalize(triple)


def test_one_atom_terms_count_their_slots(monkeypatch):
    # Each one-atom term is its own word and adds its depth to the running
    # total: the six orderings of zeta(s1,s2,s3) and zeta(s1+s2+s3) add 19.
    orderings = ["zeta(" + ",".join(f"s{j}" for j in p) + ")" for p in permutations((1, 2, 3))]
    expr = parse(" + ".join(orderings) + " - 5*zeta(s1+s2+s3)")
    monkeypatch.setattr(mzvident.algebra, "CANONICAL_BUDGET_WORDS", 19)
    assert normalize(expr).coeffs == {t[0]: c for t, c in expr.terms.items()}
    monkeypatch.setattr(mzvident.algebra, "CANONICAL_BUDGET_WORDS", 18)
    with pytest.raises(ValueError, match="estimate 19 slots > budget 18 slots"):
        normalize(expr)


def _stirling2(n, r):
    if n == 0 or r == 0:
        return int(n == r)
    return r * _stirling2(n - 1, r) + _stirling2(n - 1, r - 1)


def test_long_depth_one_product_refused_before_its_orderings():
    # zeta(s1)...zeta(s10) has Bell(10) = 115,975 coarsenings of up to 10
    # blocks, whose 102,247,563 orderings would take tens of GB.
    expr = parse("*".join(f"zeta(s{j})" for j in range(1, 11)))
    orderings = sum(_stirling2(10, r) * factorial(r) * r for r in range(1, 11))
    want = f"estimate {115975 * 10 + orderings} slots > budget {CANONICAL_BUDGET_WORDS} slots"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="canonical expansion refused") as info:
            normalize(expr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert want in str(info.value)
    assert peak < 64 << 20


def test_eleven_depth_one_factors_refused_before_their_coarsenings():
    # Bell(11) * 11 = 7,464,270 slots exceed the budget, so none of the
    # 678,570 coarsenings is built.
    expr = parse("*".join(f"zeta(s{j})" for j in range(1, 12)))
    want = f"estimate {678570 * 11} slots > budget {CANONICAL_BUDGET_WORDS} slots"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="canonical expansion refused") as info:
            normalize(expr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert want in str(info.value)
    assert peak < 1 << 20


def test_hoffman_seven_within_canonical_budget():
    assert normalize(hoffman_identity(7)).is_zero()


def test_hoffman_eight_within_canonical_budget():
    assert normalize(hoffman_identity(8)).is_zero()


def test_stuffle_size_values():
    assert stuffle_size(1, 1) == 3
    assert stuffle_size(2, 2) == 13
    assert stuffle_size(0, 5) == 1
    assert stuffle_size(4, 0) == 1


def _random_disjoint_tuples(rng, m, n):
    indices = list(range(1, m + n + 1))
    rng.shuffle(indices)
    u = tuple(blk(i) for i in indices[:m])
    v = tuple(blk(i) for i in indices[m:])
    return u, v


def test_size_law_random():
    rng = random.Random(7)
    for _ in range(30):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        u, v = _random_disjoint_tuples(rng, m, n)
        assert sum(stuffle_product(u, v).values()) == stuffle_size(m, n)


def test_stuffle_commutative():
    rng = random.Random(11)
    for _ in range(20):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        u, v = _random_disjoint_tuples(rng, m, n)
        assert stuffle_product(u, v) == stuffle_product(v, u)


def test_multiplicities_stay_one_for_symbolic_blocks():
    # At the block level no two outcome tuples collide; checked, not assumed.
    rng = random.Random(13)
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        u, v = _random_disjoint_tuples(rng, m, n)
        assert all(mult == 1 for mult in stuffle_product(u, v).values())


def reference_stuffle(u, v):
    """Head-first three-branch recursion, kept here as the reference."""
    if not u:
        return Counter({v: 1})
    if not v:
        return Counter({u: 1})
    out = Counter()
    for w, m in reference_stuffle(u[1:], v).items():
        out[(u[0],) + w] += m
    for w, m in reference_stuffle(u, v[1:]).items():
        out[(v[0],) + w] += m
    for w, m in reference_stuffle(u[1:], v[1:]).items():
        out[(u[0] | v[0],) + w] += m
    return out


def test_stuffle_words_match_reference_for_all_small_shapes():
    for m in range(6):
        for n in range(6):
            # Single-variable blocks on the left, two-variable blocks on the right.
            u = tuple(blk(i) for i in range(1, m + 1))
            v = tuple(blk(m + 2 * i + 1, m + 2 * i + 2) for i in range(n))
            words = _stuffle_words(u, v)
            assert len(set(words)) == len(words) == stuffle_size(m, n)
            assert Counter(words) == reference_stuffle(u, v) == stuffle_product(u, v)


def _reference_normalize(expr):
    acc = Counter()
    for term, coeff in expr.terms.items():
        folded = Counter({term[0]: 1})
        for atom in term[1:]:
            nxt = Counter()
            for w, m in folded.items():
                for w2, m2 in reference_stuffle(w, atom).items():
                    nxt[w2] += m * m2
            folded = nxt
        for parts, mult in folded.items():
            acc[parts] += coeff * mult
    return {parts: c for parts, c in acc.items() if c}


def test_normalize_matches_reference_fold():
    rng = random.Random(53)
    for _ in range(40):
        expr = random_expression(full_universe(rng.randint(1, 5)), rng)
        assert dict(normalize(expr).coeffs) == _reference_normalize(expr)


def _expansion_identity(atoms):
    """The product of `atoms` minus each word of its expansion."""
    universe = 0
    for atom in atoms:
        for b in atom:
            universe |= b
    entries = [(1, atoms)]
    entries += [(-c, (w,)) for w, c in _reference_normalize(Expression.build(universe, entries)).items()]
    return Expression.build(universe, entries)


def _mixed_expression(rng):
    """Products of up to 6 depth-1 factors mixed with deeper terms."""
    universe = full_universe(rng.randint(1, 7))
    flat = [p for p in unordered_set_partitions(universe) if len(p) <= 6]
    entries = []
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.6:
            atoms = tuple((p,) for p in rng.choice(flat))
        else:
            atoms = _random_atom_partition(rng, universe)
        entries.append((rng.randint(-3, 3), atoms))
    expr = Expression.build(universe, entries)
    if rng.random() < 0.5:
        # Cancellation across the two paths: the product's own words are
        # single atoms, all deeper than 1 but the one of a single block.
        atoms = tuple((p,) for p in rng.choice(flat))
        expr = expr + _expansion_identity(atoms).scale(rng.randint(-5, 5))
    return expr


def test_normalize_mixed_paths_match_reference_fold():
    rng = random.Random(71)
    for _ in range(60):
        expr = _mixed_expression(rng)
        assert dict(normalize(expr).coeffs) == _reference_normalize(expr)
    for text in (
        "zeta(s1)*zeta(s2) - zeta(s1,s2) - zeta(s2,s1) - zeta(s1+s2)",
        "zeta(s1)*zeta(s2)*zeta(s3) - zeta(s1,s2)*zeta(s3) - zeta(s2,s1)*zeta(s3)"
        " - zeta(s1+s2)*zeta(s3)",
    ):
        assert normalize(parse(text)).is_zero()
    u = (blk(1), blk(2), blk(3), blk(4), blk(5), blk(6))
    assert normalize(_expansion_identity(tuple((b,) for b in u))).is_zero()


@given(st.integers(1, 5), st.integers(0, 10_000), st.integers(-(10**6), 10**6))
@settings(max_examples=60, deadline=None)
def test_adding_hoffman_identity_keeps_canonical_form(n, seed, k):
    expr = random_expression(full_universe(n), random.Random(seed))
    assert normalize(expr + hoffman_identity(n).scale(k)) == normalize(expr)


# --- normalization ---------------------------------------------------------


def test_normalize_product_of_two():
    expr = parse("zeta(s2)*zeta(s1+s3)")
    canon = normalize(expr)
    assert dict(canon.coeffs) == {
        (blk(2), blk(1, 3)): 1,
        (blk(1, 3), blk(2)): 1,
        (blk(1, 2, 3),): 1,
    }


def test_normalize_single_atom_is_canonical():
    canon = normalize(parse("zeta(s1,s2)"))
    assert dict(canon.coeffs) == {(blk(1), blk(2)): 1}


EXAMPLE_TEXT = (
    "2*zeta(s1+s2+s3) - zeta(s2)*zeta(s1+s3) - zeta(s3)*zeta(s1+s2)"
    " + zeta(s1+s2,s3) + zeta(s2,s1+s3) + zeta(s1+s3,s2) + zeta(s3,s1+s2)"
)


def test_seven_term_example_normalizes_to_zero():
    canon = normalize(parse(EXAMPLE_TEXT))
    assert canon.is_zero()


def test_is_partition_identity_on_example():
    ok, witness = is_partition_identity(parse(EXAMPLE_TEXT))
    assert ok and witness is None


def test_is_partition_identity_missing_term():
    ok, witness = is_partition_identity(
        parse("zeta(s1)*zeta(s2) - zeta(s1,s2) - zeta(s2,s1)")
    )
    assert not ok
    # The expansion contributes +zeta(s1+s2) and nothing cancels it.
    assert witness == ((blk(1, 2),), 1)
    # The witness is the first key in partition order: s1 sorts before s1+s2.
    ok, witness = is_partition_identity(parse("zeta(s1+s2,s3) + 4*zeta(s1,s2+s3)"))
    assert witness == ((blk(1), blk(2, 3)), 4)


def test_zero_expression_is_identity():
    ok, witness = is_partition_identity(Expression(full_universe(2), {}))
    assert ok and witness is None


def _random_atom_partition(rng, universe):
    from mzvident.partitions import ordered_set_partitions, unordered_set_partitions

    parts = rng.choice(unordered_set_partitions(universe))
    return tuple(rng.choice(ordered_set_partitions(p)) for p in parts)


def test_fold_order_associativity():
    # Normalizing {A,B,C} must not depend on the pairing order.
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(3, 6)
        universe = full_universe(n)
        atoms = _random_atom_partition(rng, universe)
        if len(atoms) < 3:
            continue
        a, b, c = atoms[0], atoms[1], atoms[2]
        rest = atoms[3:]

        def fold(first_pair_left):
            acc = Counter()
            if first_pair_left:
                ab = stuffle_product(a, b)
                for w, m in ab.items():
                    for w2, m2 in stuffle_product(w, c).items():
                        acc[w2] += m * m2
            else:
                bc = stuffle_product(b, c)
                for w, m in bc.items():
                    for w2, m2 in stuffle_product(a, w).items():
                        acc[w2] += m * m2
            for atom in rest:
                nxt = Counter()
                for w, m in acc.items():
                    for w2, m2 in stuffle_product(w, atom).items():
                        nxt[w2] += m * m2
                acc = nxt
            return acc

        assert fold(True) == fold(False)


def test_normalize_linearity():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 4)
        universe = full_universe(n)
        e1 = Expression.build(
            universe, [(rng.randint(-3, 3), _random_atom_partition(rng, universe))]
        )
        e2 = Expression.build(
            universe, [(rng.randint(-3, 3), _random_atom_partition(rng, universe))]
        )
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        lhs = normalize(e1.scale(a) + e2.scale(b))
        c1, c2 = normalize(e1), normalize(e2)
        combo = {}
        for parts, c in c1.coeffs.items():
            combo[parts] = combo.get(parts, 0) + a * c
        for parts, c in c2.coeffs.items():
            combo[parts] = combo.get(parts, 0) + b * c
        combo = {k: v for k, v in combo.items() if v}
        assert dict(lhs.coeffs) == combo


def test_canonical_keys_are_ordered_partitions():
    from mzvident.partitions import check_partition

    rng = random.Random(37)
    for _ in range(10):
        n = rng.randint(2, 5)
        universe = full_universe(n)
        expr = Expression.build(
            universe, [(1, _random_atom_partition(rng, universe))]
        )
        for parts in normalize(expr).coeffs:
            check_partition(parts, universe)


@given(st.integers(0, 8), st.integers(0, 8))
def test_stuffle_size_nonnegative_and_symmetric(m, n):
    assert stuffle_size(m, n) == stuffle_size(n, m) >= 1
