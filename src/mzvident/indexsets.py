"""Index sets as integer bitmasks.

A set of positive variable indices {i1, i2, ...} is stored as an int with
bit (i-1) set for each member i.  This gives constant-time disjointness and
union checks and a canonical (ascending) ordering for free.  Universes are
limited to indices 1..63.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

MAX_INDEX = 63


def mask_of(indices: Iterable[int]) -> int:
    """Build a bitmask from an iterable of positive indices."""
    m = 0
    for i in indices:
        if i < 1 or i > MAX_INDEX:
            raise ValueError(f"index {i} out of range 1..{MAX_INDEX}")
        bit = 1 << (i - 1)
        if m & bit:
            raise ValueError(f"duplicate index {i}")
        m |= bit
    return m


@lru_cache(maxsize=1 << 12)
def indices_of(mask: int) -> tuple[int, ...]:
    """Members of a bitmask in ascending order.

    Cached, because sort keys and renderers ask for the same blocks many
    times; 2^12 entries hold every block over n <= 12 variables.
    """
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def min_index(mask: int) -> int:
    """Smallest member of a non-empty mask."""
    if not mask:
        raise ValueError("empty index set has no minimum")
    return (mask & -mask).bit_length()


def full_universe(n: int) -> int:
    """The mask for {1, ..., n}."""
    if n < 1 or n > MAX_INDEX:
        raise ValueError(f"universe size {n} out of range 1..{MAX_INDEX}")
    return (1 << n) - 1

