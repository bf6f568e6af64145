"""Enumeration of set partitions of index sets, and their exact count.

Ground sets are bitmasks (see indexsets).  An unordered partition is a tuple
of non-empty pairwise-disjoint masks covering the ground set, with parts
sorted by smallest element.

Enumeration order is fixed: part-count major, then lexicographic on the
tuple-of-index-tuples serialization, so golden outputs are stable.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Callable, Iterable

from .indexsets import indices_of

UnorderedPartition = tuple[int, ...]  # parts sorted by smallest element


def partition_sort_key(parts: tuple[int, ...]):
    """The fixed enumeration order: part count, then index tuples."""
    return (len(parts), tuple(indices_of(m) for m in parts))


def partition_order(
    partitions: Iterable[tuple[int, ...]],
) -> tuple[Callable[[tuple[int, ...]], tuple[int, ...]], dict[int, int]]:
    """A sort key that orders `partitions` as `partition_sort_key` does.

    Returns the key and the rank of each distinct block of `partitions`:
    its position when those blocks are sorted by index tuple.  The rank is
    strictly monotone in `indices_of`, so a key of part count then ranks
    compares as part count then index tuples do, but it is one flat tuple of
    small ints, from one `indices_of` per distinct block, not one per
    occurrence.  The rank's keys are the distinct blocks.
    """
    rank = {b: r for r, b in enumerate(sorted(set().union(*partitions), key=indices_of))}
    ranked = rank.__getitem__
    return (lambda parts: (len(parts), *map(ranked, parts))), rank


def unordered_set_partitions(ground: int) -> list[UnorderedPartition]:
    """All unordered set partitions of `ground`, parts sorted by min element."""
    if not ground:
        raise ValueError("empty ground set")
    singles = [1 << (i - 1) for i in indices_of(ground)]
    return sorted(coarsenings(singles), key=partition_sort_key)


def coarsenings(blocks: Iterable[int]) -> list[UnorderedPartition]:
    """Every unordered partition whose blocks are unions of `blocks`.

    Each block in turn joins one block of every partition built so far
    or starts a new one.  Given `blocks` sorted by smallest index, every
    partition lists its blocks sorted by smallest index too.
    """
    sigmas: list[tuple[int, ...]] = [()]
    for b in blocks:
        sigmas = [s + (b,) for s in sigmas] + [
            s[:j] + (s[j] | b,) + s[j + 1 :] for s in sigmas for j in range(len(s))
        ]
    return sigmas


@lru_cache(maxsize=None)
def bell_count(n: int) -> int:
    """Number of unordered set partitions of an n-element set (exact)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # B(n+1) = sum_k C(n,k) B(k), B(0) = 1.
    b = [1] * (n + 1)
    for m in range(1, n + 1):
        b[m] = sum(comb(m - 1, k) * b[k] for k in range(m))
    return b[n]


__all__ = [
    "UnorderedPartition",
    "partition_sort_key",
    "partition_order",
    "unordered_set_partitions",
    "coarsenings",
    "bell_count",
]
