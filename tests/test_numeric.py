import itertools
import math
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mzvident.numeric
from mzvident.algebra import Expression, is_partition_identity, normalize, stuffle_product
from mzvident.identities import hoffman_identity, random_expression, stuffle_identity
from mzvident.indexsets import full_universe, indices_of, mask_of
from mzvident.numeric import (
    NUMERIC_BUDGET_FLOATS,
    atom_values,
    eval_expression,
    eval_zeta_truncated,
    random_assignment,
    residual_report,
    residuals,
    term_values,
)
from mzvident.parsing import parse


def blk(*idx):
    return mask_of(idx)


def brute_truncated(exponents, n_trunc):
    """Oracle: explicit loop over all strictly decreasing index tuples."""
    depth = len(exponents)
    total = 0.0
    for ks in itertools.combinations(range(n_trunc - 1, 0, -1), depth):
        total += math.prod(k ** (-s) for k, s in zip(ks, exponents))
    return total


def test_depth_one_small():
    assert eval_zeta_truncated([2], 3) == pytest.approx(1.25, abs=1e-15)


def test_depth_two_small():
    # only admissible pair below 3 is k1=2, k2=1
    assert eval_zeta_truncated([2, 2], 3) == pytest.approx(0.25, abs=1e-15)


def test_converges_to_basel():
    # tail of sum k^-2 beyond N-1 is below 1/(N-1)
    val = eval_zeta_truncated([2], 1000)
    assert abs(val - math.pi**2 / 6) < 1 / 999


def test_matches_brute_force():
    rng = random.Random(3)
    for _ in range(15):
        depth = rng.randint(1, 3)
        exps = [1.1 + 1.9 * rng.random() for _ in range(depth)]
        n = rng.randint(depth + 1, 12)
        assert eval_zeta_truncated(exps, n) == pytest.approx(
            brute_truncated(exps, n), rel=1e-12
        )


def test_truncation_too_small():
    with pytest.raises(ValueError, match="truncation too small"):
        eval_zeta_truncated([2, 2, 2], 3)
    with pytest.raises(ValueError):
        eval_zeta_truncated([], 5)
    with pytest.raises(ValueError):
        eval_zeta_truncated([2], 1)


def test_monotone_in_truncation():
    exps = [1.5, 2.0]
    prev = 0.0
    for n in range(3, 40):
        cur = eval_zeta_truncated(exps, n)
        assert cur >= prev
        prev = cur


def test_eval_single_term():
    expr = parse("zeta(s1)")
    assert eval_expression(expr, {1: 2.0}, 3) == pytest.approx(1.25)


def test_eval_zero_expression():
    expr = Expression(full_universe(2), {})
    assert eval_expression(expr, {1: 2.0, 2: 2.0}, 10) == 0.0
    assert residuals(term_values(expr, {1: 2.0, 2: 2.0}, 10)) == (0.0, 0.0)
    with pytest.raises(ValueError, match="truncation level must be >= 2"):
        eval_expression(expr, {1: 2.0, 2: 2.0}, 1)


def test_assignment_validation():
    expr = parse("zeta(s1,s2)")
    with pytest.raises(ValueError, match="no value"):
        eval_expression(expr, {1: 2.0}, 10)
    with pytest.raises(ValueError, match="exceed 1"):
        eval_expression(expr, {1: 2.0, 2: 0.5}, 10)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            term_values(expr, {1: 2.0, 2: bad}, 10)


EXAMPLE_TEXT = (
    "2*zeta(s1+s2+s3) - zeta(s2)*zeta(s1+s3) - zeta(s3)*zeta(s1+s2)"
    " + zeta(s1+s2,s3) + zeta(s2,s1+s3) + zeta(s1+s3,s2) + zeta(s3,s1+s2)"
)


def test_identity_residual_is_rounding_only():
    expr = parse(EXAMPLE_TEXT)
    rng = random.Random(41)
    for _ in range(10):
        assign = random_assignment(expr.universe, rng)
        _, rel = residuals(term_values(expr, assign, 50))
        assert rel <= 1e-10


def test_non_identity_residual_is_large():
    expr = parse("zeta(s1)*zeta(s2) - zeta(s1,s2) - zeta(s2,s1)")
    _, rel = residuals(term_values(expr, {1: 2.0, 2: 2.0}, 100))
    assert rel > 1e-6


def test_truncated_stuffle_law():
    # Exact in real arithmetic at every truncation level; only rounding remains.
    rng = random.Random(43)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        indices = list(range(1, m + n + 1))
        rng.shuffle(indices)
        u = tuple(blk(i) for i in indices[:m])
        v = tuple(blk(i) for i in indices[m:])
        universe = full_universe(m + n)
        assign = random_assignment(universe, rng)
        n_trunc = rng.choice([10, 50])

        def ev(atom):
            exps = [sum(assign[j] for j in range(1, m + n + 1) if b & (1 << (j - 1))) for b in atom]
            return eval_zeta_truncated(exps, n_trunc)

        lhs = ev(u) * ev(v)
        rhs = sum(mult * ev(w) for w, mult in stuffle_product(u, v).items())
        magnitude = abs(lhs) + sum(
            mult * abs(ev(w)) for w, mult in stuffle_product(u, v).items()
        )
        assert abs(lhs - rhs) <= 1e-10 * magnitude


def test_empty_canonical_form_means_tiny_residual():
    rng = random.Random(47)
    found = 0
    for _ in range(200):
        n = rng.randint(2, 3)
        expr = random_expression(full_universe(n), rng)
        if not normalize(expr).is_zero():
            continue
        found += 1
        assign = random_assignment(expr.universe, rng)
        _, rel = residuals(term_values(expr, assign, rng.choice([10, 50])))
        assert rel <= 1e-10
        if found >= 5:
            break


# --- the shared atom-value pass against the per-atom reference --------------


def reference_term_values(expr, assign, n_trunc):
    """Each term evaluated atom by atom with `eval_zeta_truncated`."""
    out = []
    for term, coeff in expr.terms.items():
        value = 1.0
        for atom in term:
            exps = [sum(assign[j] for j in indices_of(b)) for b in atom]
            value *= eval_zeta_truncated(exps, n_trunc)
        out.append(coeff * value)
    return out


@st.composite
def legal_expressions(draw):
    n = draw(st.integers(1, 7))
    entries = []
    for _ in range(draw(st.integers(1, 6))):
        order = draw(st.permutations(range(1, n + 1)))
        # Before each further variable: 0 joins the current block,
        # 1 starts a new block, 2 starts a new atom.
        cuts = draw(st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1))
        atoms = [[blk(order[0])]]
        for j, cut in zip(order[1:], cuts):
            if cut == 0:
                atoms[-1][-1] |= blk(j)
            elif cut == 1:
                atoms[-1].append(blk(j))
            else:
                atoms.append([blk(j)])
        coeff = draw(st.integers(-(10**6), 10**6))
        entries.append((coeff, [tuple(a) for a in atoms]))
    return Expression.build(full_universe(n), entries)


@given(
    legal_expressions(),
    st.lists(st.floats(1.01, 4.0), min_size=7, max_size=7),
    st.sampled_from([8, 10, 20, 50]),
)
@settings(max_examples=150, deadline=None)
def test_term_values_equal_per_atom_reference(expr, values, n_trunc):
    assign = dict(enumerate(values, start=1))
    assert term_values(expr, assign, n_trunc) == reference_term_values(expr, assign, n_trunc)


def test_term_values_equal_reference_on_shared_suffixes():
    # Hoffman terms share most suffixes between their depth-n atoms.
    expr = hoffman_identity(5)
    assign = random_assignment(expr.universe, random.Random(59))
    for n_trunc in (6, 50):
        assert term_values(expr, assign, n_trunc) == reference_term_values(expr, assign, n_trunc)


def full_row_values(atoms, block_row, n_trunc, total):
    """Atom values by the full-row recurrence: every row holds all N - 1
    entries, k = 1..N-1, and level by level entry k takes the previous
    row's sum over the indices below k."""
    values = {}
    for atom in set(atoms):
        row = block_row(atom[-1])
        for block in reversed(atom[:-1]):
            row = list(map(operator.mul, block_row(block), itertools.accumulate(row[:-1], initial=0)))
        values[atom] = total(row)
    return values


def window_cases(n):
    """Atom lists over s1..sn, n >= 2: depth n (rows of width 1 at N = n + 1),
    depth n - 1, and mixed depths sharing suffixes."""
    singles = [blk(j) for j in range(1, n + 1)]
    deepest = list(itertools.permutations(singles))
    merged = [(blk(1, 2),) + p for p in itertools.permutations(singles[2:])]
    merged += [p[:-1] for p in deepest]  # n - 1 of the n variables
    mixed = [a for d in range(1, n + 1) for a in itertools.permutations(singles, d)]
    mixed.append((blk(*range(1, n + 1)),))
    return {"depth n": deepest, "depth n-1": merged, "mixed": mixed}


def test_windowed_rows_exact_at_vote_truncation():
    # N = n + 1, integer weights: the depth-n rows hold one entry each.
    rng = random.Random(151)
    for n in (2, 3, 5):
        weights = {j: [rng.randrange(1, 2**64) for _ in range(n)] for j in range(1, n + 1)}

        def row(block):
            return list(map(math.prod, zip(*map(weights.get, indices_of(block)))))

        for name, atoms in window_cases(n).items():
            want = full_row_values(atoms, row, n + 1, sum)
            assert atom_values(atoms, row, n + 1, total=sum) == want, (n, name)


def test_windowed_rows_float_identical():
    assign = random_assignment(full_universe(5), random.Random(152))

    def row(block):
        s = sum(assign[j] for j in indices_of(block))
        return [k**-s for k in range(1, 50)]

    for name, atoms in window_cases(5).items():
        assert atom_values(atoms, row, 50) == full_row_values(atoms, row, 50, math.fsum), name


def test_one_entry_rows_equal_direct_product():
    # At N = n + 1 a depth-n atom has the one index tuple k_i = n + 1 - i,
    # so its value is prod_i f_{b_i}(n + 1 - i), with no sum to take.
    rng = random.Random(153)
    for n in range(2, 8):
        weights = {j: [rng.randrange(1, 2**64) for _ in range(n)] for j in range(1, n + 1)}

        def row(block):
            return list(map(math.prod, zip(*map(weights.get, indices_of(block)))))

        atoms = list(itertools.permutations([blk(j) for j in range(1, n + 1)]))
        values = atom_values(atoms, row, n + 1, total=sum)
        assert values == {
            atom: math.prod(weights[j][n - 1 - i] for i, b in enumerate(atom) for j in indices_of(b))
            for atom in atoms
        }, n
        # The values are keyed by the atoms passed in, not by copies.
        keys = {key: key for key in values}
        assert all(keys[atom] is atom for atom in atoms), n


def test_term_values_errors():
    expr = parse("zeta(s1,s2,s3) - zeta(s1)*zeta(s2,s3)")
    assign = {1: 2.0, 2: 2.5, 3: 3.0}
    with pytest.raises(ValueError, match="truncation too small"):
        term_values(expr, assign, 3)
    with pytest.raises(ValueError, match="truncation level must be >= 2"):
        term_values(expr, assign, 1)
    with pytest.raises(ValueError, match="no value assigned to s3"):
        term_values(expr, {1: 2.0, 2: 2.5}, 10)
    with pytest.raises(ValueError, match="s2 must exceed 1"):
        term_values(expr, {1: 2.0, 2: 1.0, 3: 3.0}, 10)
    with pytest.raises(ValueError, match="s1 must be finite"):
        term_values(expr, {1: math.inf, 2: 2.5, 3: 3.0}, 10)
    assert term_values(expr, assign, 4) == reference_term_values(expr, assign, 4)


def test_truncation_over_budget_refused_before_allocating():
    expr = parse("zeta(s1,s2,s3)")
    n_trunc = 10**8
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated evaluation refused") as info:
            term_values(expr, {1: 2.0, 2: 2.0, 3: 2.0}, n_trunc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Refused at the first power table: (1 block + depth 3 + 1) * (N - 1).
    assert f"estimate {5 * (n_trunc - 1)} floats" in str(info.value)
    assert f"budget {NUMERIC_BUDGET_FLOATS} floats" in str(info.value)
    # One power table alone would take (N - 1) floats, about 3 GB.
    assert peak < 1 << 20


def test_truncation_budget_boundary(monkeypatch):
    # The estimate is (distinct blocks + deepest atom's depth + 1) * (N - 1),
    # checked as each power table is added.
    monkeypatch.setattr(mzvident.numeric, "NUMERIC_BUDGET_FLOATS", 1000)

    def ones(n_trunc):  # a weight row of the right length for every block
        return lambda block: [1.0] * (n_trunc - 1)

    deep = [(blk(1), blk(2), blk(3))]  # 7 * (N - 1) floats at the third table
    assert deep[0] in atom_values(deep, ones(143), 143)
    with pytest.raises(ValueError, match="estimate 1001 floats > budget 1000"):
        atom_values(deep, ones(144), 144)
    shallow = [(blk(j),) for j in range(1, 21)]  # (t + 2) * (N - 1) at the t-th table
    assert len(atom_values(shallow[:8], ones(101), 101)) == 8
    with pytest.raises(ValueError, match="estimate 1100 floats > budget 1000"):
        atom_values(shallow, ones(101), 101)


# --- the exact integer vote ---------------------------------------------------


def brute_exact(expr, seed):
    """Oracle: draw the weights f_j(k), k = 1..n, variable by variable, then
    sum every term's coeff * prod of atoms, each atom summed over all index
    tuples n >= k_1 > ... > k_r >= 1 of prod f_j(k_i)."""
    n, rng = expr.universe.bit_count(), random.Random(seed)
    weights = {j: [rng.randrange(1, 2**64) for _ in range(n)] for j in indices_of(expr.universe)}

    def z(atom):
        return sum(
            math.prod(weights[j][k - 1] for k, b in zip(ks, atom) for j in indices_of(b))
            for ks in itertools.combinations(range(n, 0, -1), len(atom))
        )

    return sum(c * math.prod(map(z, term)) for term, c in expr.terms.items())


def test_exact_value_equals_brute_force():
    rng = random.Random(61)
    universes = [full_universe(n) for n in range(1, 6)] + [mask_of([2, 5, 7])]
    for seed in range(60):
        expr = random_expression(rng.choice(universes), rng, max_terms=5)
        assert residual_report(expr, seed) == brute_exact(expr, seed)


def test_exact_vote_sees_a_prime_multiple():
    # The value is p * (an integer), so modulo the fixed prime p = 2^61 - 1
    # H_n - p*T would pass as an identity.
    p = (1 << 61) - 1
    for n in range(3, 8):
        h = hoffman_identity(n)
        top = parse("zeta(" + "+".join(f"s{j}" for j in range(1, n + 1)) + ")")
        value = residual_report(h - top.scale(p), n)
        assert value != 0 and value % p == 0


def test_exact_vote_on_no_variables():
    assert residual_report(Expression(0, {}), 0) == 0


@st.composite
def known_identities(draw, n):
    """k * (a stuffle identity splitting {1..n}, plus H_n for n <= 5)."""
    order = draw(st.permutations(range(1, n + 1)))
    cut = draw(st.integers(0, n))
    identity = stuffle_identity(
        tuple(blk(j) for j in order[:cut]), tuple(blk(j) for j in order[cut:])
    )
    if n <= 5:
        identity = identity + hoffman_identity(n)
    k = draw(st.integers(-(10**40), 10**40))
    return identity.scale(k)


@given(st.data(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_exact_vote_unchanged_by_adding_an_identity(data, seed):
    expr = data.draw(legal_expressions())
    identity = data.draw(known_identities(expr.universe.bit_count()))
    value = residual_report(expr, seed)
    assert residual_report(expr + identity, seed) == value
    assert (value == 0) == is_partition_identity(expr)[0]
