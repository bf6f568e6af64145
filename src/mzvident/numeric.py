"""Truncated nested sums Z(b_1..b_r) over N > k_1 > ... > k_r > 0 of
prod_i prod_{j in b_i} f_j(k_i), which obey the stuffle rule over any
commutative ring (Hoffman, "Quasi-shuffle products", 2000).  `eval` takes
f_j(k) = k^(-s_j) in floats.  The numeric vote takes seeded integers in
[1, 2^64) and N = n + 1, where each index tuple lies in exactly one ordered
partition, so an expression's value is a degree-n polynomial in the weights
with its canonical coefficients: a nonzero value refutes exactly, and a zero
errs with probability at most n / 2^64 (Schwartz-Zippel).  There a
full-depth atom's value is one product of two shared halves (meet in the
middle, Horowitz and Sahni 1974).  The weights, and so each term's value,
depend only on the seed and the universe: each process draws the weights
of the last SEED_TABLE_SIZE (seed, universe) pairs once, and keeps the first
TERM_TABLE_SIZE term values it meets, coefficient excluded, never emptied.
A vote reads the values it finds there and computes only the rest.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache, partial
from itertools import accumulate, chain, compress, islice, repeat
from operator import getitem, itemgetter, mul, not_
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .algebra import Block, Expression, ZetaAtom
from .indexsets import SEED_TABLE_SIZE, TERM_TABLE_SIZE, indices_of

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


def atom_values(
    atoms: Iterable[ZetaAtom], block_row: Callable[[Block], Sequence], n_trunc: int, total=math.fsum
) -> dict:
    """Truncated value of every distinct atom in one pass.

    `block_row(block)`, the weights [f(1), ..., f(N-1)] of a block, is taken
    once per block: k^(-s) makes each value bit-identical to the test
    reference `eval_zeta_truncated` (tests/_references.py), and integers
    with `total=sum` make it exact.  In a depth-d atom the index at level L,
    counted from the atom's end, has L smaller indices below it and d-1-L
    larger ones above it, so only k = L+1 .. N-d+L can reach the sum: a row
    holds those N-d entries.  A row depends only on the atom's depth and
    suffix, so the atoms are visited by depth, then sorted by their reversed
    block tuples, and a stack keeps the rows of the suffix shared with the
    previous atom: every distinct suffix of each depth is computed once, and
    only the rows on the current path stay alive.

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
            row = table[level : level + width]
            if level:
                # Entry k takes the previous row's sum over the indices below k.
                row = list(map(mul, row, accumulate(rows[-1])))
            rows.append(row)
        path = rev
        values[atoms[rev]] = total(rows[-1])
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
    return [coeff * math.prod(map(values.get, term)) for term, coeff in expr.terms.items()]


def residuals(values: Sequence[float]) -> tuple[float, float]:
    """(absolute residual, residual relative to the sum of term magnitudes)
    of the term values `values`."""
    magnitude = math.fsum(abs(v) for v in values)
    if magnitude == 0.0:
        return 0.0, 0.0
    total = abs(math.fsum(values))
    return total, total / magnitude


@lru_cache(maxsize=SEED_TABLE_SIZE)
def _columns(seed: int, universe: int) -> tuple[Mapping[int, int], ...]:
    """The numeric vote's weights over `universe` (n variables): f_j(k) in
    [1, 2^64), k = 1..n, drawn from random.Random(seed) variable by variable
    in index order.  Entry i maps each one-variable block {j} to f_j(n - i)."""
    rng, n = random.Random(seed), universe.bit_count()
    weights = {1 << j - 1: [rng.randrange(1, 2**64) for _ in range(n)] for j in indices_of(universe)}
    return tuple(MappingProxyType({b: w[n - 1 - i] for b, w in weights.items()}) for i in range(n))


def _block_row(columns: Sequence[Mapping[int, int]], block: Block) -> tuple[int, ...]:
    """(f_B(1), ..., f_B(n)) of `block` B, f_B(k) = prod_{j in B} f_j(k)."""
    singletons = [1 << j - 1 for j in indices_of(block)]
    return tuple(math.prod(map(column.__getitem__, singletons)) for column in reversed(columns))


# The numeric vote's term values: (seed, universe) -> {term: its exact value
# at `_columns(seed, universe)`'s weights, coefficient excluded}.  All tables
# together keep the first TERM_TABLE_SIZE values met and are never emptied;
# a pair has a table only once it stores a value.
_TERM_VALUES: dict[tuple[int, int], dict] = {}


def residual_report(expr: Expression, seed: int) -> int:
    """Exact value of `expr` truncated at N = n + 1, at the integer weights
    of `_columns(seed, expr.universe)`; zero for every identity.

    A term's value, coefficient excluded, is read from `_TERM_VALUES` at
    (seed, universe), so the vote is the sum of coefficient * value.  Only
    the terms it misses are computed, each shape in one pass.  At this N a
    full-depth atom zeta(a_0, ..., a_{n-1}) has one index tuple, k_i = n - i,
    so its value is one product; each distinct half before and after block
    n // 2 is multiplied out once.  Other terms take their atoms' values
    from `atom_values`, with each block's row built once.  The missed values
    are stored, full-depth terms first and each shape in term order, while
    the tables hold fewer than TERM_TABLE_SIZE values; the rest are summed
    as they come.
    """
    n, terms, pair = expr.universe.bit_count(), expr.terms, (seed, expr.universe)
    table = _TERM_VALUES.get(pair)
    if table:
        # A missed term reads 0, which no value is: every weight is at least
        # 1, and an atom of depth <= n has an index tuple at N = n + 1.
        known = list(map(table.get, terms, repeat(0)))
        value = sum(map(mul, terms.values(), known))
        if 0 not in known:
            return value
        missed = list(map(not_, known))
        keys, coeffs = list(compress(terms, missed)), list(compress(terms.values(), missed))
    else:  # without a table, every term misses
        value, keys, coeffs = 0, terms, terms.values()
    columns = _columns(*pair)
    # Masks, not (term, coefficient) pairs: a list of new tuples would wake
    # the cyclic garbage collector on a large input.
    full = [len(term[0]) == n for term in keys]
    rest = list(map(not_, full))
    atoms = [term[0] for term in compress(keys, full)]
    first, second = itemgetter(slice(n // 2)), itemgetter(slice(n // 2, None))
    heads = {half: math.prod(map(getitem, columns, half)) for half in set(map(first, atoms))}
    tails = {half: math.prod(map(getitem, columns[n // 2 :], half)) for half in set(map(second, atoms))}
    rest_atoms = (atom for term in compress(keys, rest) for atom in term)
    values = atom_values(rest_atoms, partial(_block_row, columns), n + 1, total=sum)
    computed = chain(
        map(mul, map(heads.__getitem__, map(first, atoms)), map(tails.__getitem__, map(second, atoms))),
        (math.prod(map(values.get, term)) for term in compress(keys, rest)),
    )
    kept = list(islice(computed, TERM_TABLE_SIZE - sum(map(len, _TERM_VALUES.values()))))
    if kept:
        _TERM_VALUES.setdefault(pair, {}).update(zip(chain(compress(keys, full), compress(keys, rest)), kept))
    return value + sum(map(mul, chain(compress(coeffs, full), compress(coeffs, rest)), chain(kept, computed)))
