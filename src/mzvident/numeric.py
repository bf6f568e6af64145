"""Truncated nested sums Z(b_1..b_r) over N > k_1 > ... > k_r > 0 of
prod_i prod_{j in b_i} f_j(k_i), which obey the stuffle rule over any
commutative ring (Hoffman, "Quasi-shuffle products", 2000).  `eval` takes
f_j(k) = k^(-s_j) in floats.  The numeric vote takes seeded integers in
[1, 2^64) and N = n + 1, where each index tuple lies in exactly one ordered
partition, so an expression's value is a degree-n polynomial in the weights
with its canonical coefficients: a nonzero value refutes exactly, and a zero
errs with probability at most n / 2^64 (Schwartz-Zippel).
"""

from __future__ import annotations

import math
import random
from itertools import accumulate
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .algebra import Block, Expression, ZetaAtom
from .indexsets import indices_of

DEFAULT_TRUNCATION = 50

# Most floats `atom_values` will hold at once (about 32 bytes each in
# CPython, so about 0.5 GB).  It admits zeta(s1,s2,s3) at N = 10^6 (an
# estimate of 7e6 floats) and refuses N = 10^8.
NUMERIC_BUDGET_FLOATS = 1 << 24

Assignment = Mapping[int, float]  # variable index -> value > 1


def check_assignment(assign: Assignment, universe: int) -> None:
    for j in indices_of(universe):
        if j not in assign:
            raise ValueError(f"no value assigned to s{j}")
        if not math.isfinite(assign[j]):
            raise ValueError(f"s{j} must be finite")
        if assign[j] <= 1:
            raise ValueError(f"s{j} must exceed 1")


def eval_zeta_truncated(exponents: Sequence[float], n_trunc: int) -> float:
    """Sum over N > k_1 > ... > k_d > 0 of prod k_j^(-s_j).

    Dynamic program over suffixes, O(N * depth).  Summation runs
    largest-k-first to limit cancellation growth.
    """
    depth = len(exponents)
    if depth == 0:
        raise ValueError("empty exponent tuple")
    if n_trunc < 2:
        raise ValueError("truncation level must be >= 2")
    if depth >= n_trunc:
        raise ValueError("truncation too small")
    # tail[k] = sum over suffix tuples whose leading index is k.
    tail = [0.0] * n_trunc
    for level in range(depth - 1, -1, -1):
        s = exponents[level]
        is_last = level == depth - 1
        new = [0.0] * n_trunc
        below = 0.0  # sum of tail[1:k], built incrementally
        for k in range(1, n_trunc):
            new[k] = k ** (-s) * (1.0 if is_last else below)
            below += tail[k]
        tail = new
    # Largest k contributes the smallest magnitude; add those first.
    return math.fsum(tail[n_trunc - 1 : 0 : -1])


def atom_values(
    atoms: Iterable[ZetaAtom], block_row: Callable[[Block], list], n_trunc: int, total=math.fsum
) -> dict:
    """Truncated value of every distinct atom in one pass.

    `block_row(block)`, the weights [f(1), ..., f(N-1)] of a block, is taken
    once per block: k^(-s) makes each value bit-identical to
    `eval_zeta_truncated`, and integers with `total=sum` make it exact.  In
    a depth-d atom the index at level L, counted from the atom's end, has L
    smaller indices below it and d-1-L larger ones above it, so only
    k = L+1 .. N-d+L can reach the sum: a row holds those N-d entries.  A
    row depends only on the atom's depth and suffix, so the atoms are
    visited by depth, then sorted by their reversed block tuples, and a
    stack keeps the rows of the suffix shared with the previous atom: every
    distinct suffix of each depth is computed once, and only the rows on
    the current path stay alive.

    Raises ValueError, before a weight row would cross it, when the live
    entries (distinct blocks + live rows + 1) * (N - 1), with the deepest
    atom's depth standing for the live rows, exceed NUMERIC_BUDGET_FLOATS.
    """
    atoms = {atom[::-1]: atom for atom in atoms}  # reversed blocks -> atom
    if not atoms:
        return {}
    order = sorted(sorted(atoms), key=len)  # by depth, then reversed blocks
    depth = len(order[-1])
    if depth >= n_trunc:
        raise ValueError("truncation too small")
    tables: dict[Block, list] = {}  # block -> block_row(block)
    values = {}
    path: tuple = ()  # reversed blocks of the rows on the stack
    rows: list = []  # rows[L]: the suffix of length L + 1
    for rev in order:
        width = n_trunc - len(rev)
        shared = 0
        if len(path) == len(rev):  # distinct atoms of one depth differ somewhere
            while path[shared] == rev[shared]:
                shared += 1
        del rows[shared:]
        for level in range(shared, len(rev)):
            block = rev[level]
            table = tables.get(block)
            if table is None:
                estimate = (len(tables) + 1 + depth + 1) * (n_trunc - 1)
                if estimate > NUMERIC_BUDGET_FLOATS:
                    raise ValueError(
                        f"truncated evaluation refused: estimate {estimate} floats"
                        f" > budget {NUMERIC_BUDGET_FLOATS} floats"
                    )
                table = tables[block] = block_row(block)
            row = table[level : level + width] if width > 1 else table[level]
            if level:
                # Entry k takes the previous row's sum over the indices below k;
                # a row of one index tuple is one entry, held as a scalar.
                row = list(map(mul, row, accumulate(rows[-1]))) if width > 1 else row * rows[-1]
            rows.append(row)
        path = rev
        values[atoms[rev]] = rows[-1] if width == 1 else total(rows[-1])
    return values


def term_values(expr: Expression, assign: Assignment, n_trunc: int) -> list[float]:
    """Value of each term, coefficient included, at a truncation level."""
    if n_trunc < 2:
        raise ValueError("truncation level must be >= 2")
    check_assignment(assign, expr.universe)

    def powers(block: Block) -> list[float]:
        s = sum(assign[j] for j in indices_of(block))
        return [k ** -s for k in range(1, n_trunc)]

    values = atom_values((atom for term in expr.terms for atom in term), powers, n_trunc)
    out = []
    for term, coeff in expr.terms.items():
        value = 1.0
        for atom in term:
            value *= values[atom]
        out.append(coeff * value)
    return out


def eval_expression(expr: Expression, assign: Assignment, n_trunc: int) -> float:
    """Evaluate a legal expression at a truncation level."""
    return math.fsum(term_values(expr, assign, n_trunc))


def residuals(values: Sequence[float]) -> tuple[float, float]:
    """(absolute residual, residual relative to the sum of term magnitudes)
    of the term values `values`."""
    magnitude = math.fsum(abs(v) for v in values)
    if magnitude == 0.0:
        return 0.0, 0.0
    total = abs(math.fsum(values))
    return total, total / magnitude


def residual_report(expr: Expression, seed: int) -> int:
    """Exact value of `expr` truncated at N = n + 1, at integer weights f_j(k)
    in [1, 2^64), k = 1..n, drawn from `seed` variable by variable in index
    order; zero for every identity."""
    rng, n = random.Random(seed), expr.universe.bit_count()
    weights = {j: [rng.randrange(1, 2**64) for _ in range(n)] for j in indices_of(expr.universe)}
    values = atom_values(
        (atom for term in expr.terms for atom in term),
        lambda block: list(map(math.prod, zip(*map(weights.get, indices_of(block))))),
        n + 1,
        total=sum,
    )
    return sum(coeff * math.prod(map(values.get, term)) for term, coeff in expr.terms.items())


def random_assignment(universe: int, rng: random.Random) -> dict[int, float]:
    """Seeded draw of exponents from (1.1, 3.0] for every universe variable."""
    return {j: 1.1 + 1.9 * rng.random() for j in indices_of(universe)}
