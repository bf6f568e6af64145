"""Reference implementations that only the tests use.

Each is a slow, direct statement of something the engine computes another
way: the one-factor nested sum, the partition order, the ordered set
partitions and their count, a partition check, and seeded random
assignments and legal expressions.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache
from math import comb
from typing import Sequence

from mzvident.algebra import Expression, ZetaAtom
from mzvident.indexsets import indices_of
from mzvident.numeric import Assignment, term_values
from mzvident.partitions import unordered_set_partitions


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


def eval_expression(expr: Expression, assign: Assignment, n_trunc: int) -> float:
    """Evaluate a legal expression at a truncation level."""
    return math.fsum(term_values(expr, assign, n_trunc))


def random_assignment(universe: int, rng: random.Random) -> dict[int, float]:
    """Seeded draw of exponents from (1.1, 3.0] for every universe variable."""
    return {j: 1.1 + 1.9 * rng.random() for j in indices_of(universe)}


def partition_sort_key(parts: tuple[int, ...]):
    """The fixed enumeration order: part count, then index tuples."""
    return (len(parts), tuple(indices_of(m) for m in parts))


def ordered_set_partitions(ground: int) -> list[tuple[int, ...]]:
    """All ordered set partitions of `ground`, each exactly once."""
    return sorted(
        (
            order
            for parts in unordered_set_partitions(ground)
            for order in itertools.permutations(parts)
        ),
        key=partition_sort_key,
    )


@lru_cache(maxsize=None)
def fubini_count(n: int) -> int:
    """Number of ordered set partitions of an n-element set (exact)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # F(n) = sum_k C(n,k) F(n-k), F(0) = 1: choose the first part, recurse.
    f = [1] * (n + 1)
    for m in range(1, n + 1):
        f[m] = sum(comb(m, k) * f[m - k] for k in range(1, m + 1))
    return f[n]


def check_partition(parts: tuple[int, ...], ground: int) -> None:
    """Raise unless `parts` are non-empty, disjoint and cover `ground`."""
    seen = 0
    for part in parts:
        if not part:
            raise ValueError("empty part")
        if seen & part:
            raise ValueError("overlapping parts")
        seen |= part
    if seen != ground:
        raise ValueError("parts do not cover the ground set")


def random_legal_term(universe: int, rng: random.Random) -> tuple[ZetaAtom, ...]:
    """Seeded uniform-ish legal term: pick an unordered partition, then an
    ordered subpartition of each part."""
    parts = rng.choice(unordered_set_partitions(universe))
    atoms = tuple(rng.choice(ordered_set_partitions(p)) for p in parts)
    return atoms


def random_expression(
    universe: int,
    rng: random.Random,
    max_terms: int = 4,
    coeff_range: tuple[int, int] = (-3, 3),
) -> Expression:
    """Seeded random legal expression used by cross-method agreement tests."""
    entries = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = rng.randint(*coeff_range)
        entries.append((coeff, random_legal_term(universe, rng)))
    return Expression.build(universe, entries)
