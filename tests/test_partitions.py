import itertools
import random

import pytest

from _references import check_partition, fubini_count, ordered_set_partitions
from mzvident.indexsets import full_universe, indices_of, mask_of, min_index
from mzvident.partitions import (
    bell_count,
    coarsenings,
    unordered_set_partitions,
)


def brute_unordered_partitions(elements):
    """Oracle: enumerate via restricted-growth strings."""
    elements = list(elements)
    n = len(elements)
    out = set()
    for labels in itertools.product(range(n), repeat=n):
        # restricted growth: first occurrence of label k comes after k-1
        seen = []
        ok = True
        for l in labels:
            if l not in seen:
                if l != len(seen):
                    ok = False
                    break
                seen.append(l)
        if not ok:
            continue
        groups = {}
        for e, l in zip(elements, labels):
            groups.setdefault(l, []).append(e)
        out.add(frozenset(frozenset(g) for g in groups.values()))
    return out


def brute_ordered_partitions(elements):
    out = set()
    for unordered in brute_unordered_partitions(elements):
        for perm in itertools.permutations(unordered):
            out.add(tuple(perm))
    return out


def test_single_element():
    assert ordered_set_partitions(mask_of([1])) == [(1,)]


def test_empty_ground_rejected():
    with pytest.raises(ValueError, match="empty ground set"):
        ordered_set_partitions(0)
    with pytest.raises(ValueError, match="empty ground set"):
        unordered_set_partitions(0)


def test_ordered_counts_match_fubini():
    # 13 for n=3 anchors the thirteen-coefficient canonical display.
    assert [len(ordered_set_partitions(full_universe(n))) for n in (1, 2, 3, 4)] == [
        1,
        3,
        13,
        75,
    ]
    for n in range(1, 8):
        assert len(ordered_set_partitions(full_universe(n))) == fubini_count(n)


def test_ordered_matches_brute_force():
    for n in (1, 2, 3, 4):
        got = {
            tuple(frozenset(indices_of(p)) for p in parts)
            for parts in ordered_set_partitions(full_universe(n))
        }
        assert got == brute_ordered_partitions(range(1, n + 1))


def test_unordered_pair():
    got = unordered_set_partitions(mask_of([1, 2]))
    assert got == [(mask_of([1, 2]),), (mask_of([1]), mask_of([2]))] or got == [
        (mask_of([1]), mask_of([2])),
        (mask_of([1, 2]),),
    ]
    assert len(got) == 2


def test_unordered_counts_match_bell():
    assert len(unordered_set_partitions(full_universe(3))) == 5
    assert len(unordered_set_partitions(full_universe(5))) == 52
    for n in range(1, 8):
        assert len(unordered_set_partitions(full_universe(n))) == bell_count(n)


def test_unordered_matches_brute_force():
    for n in (1, 2, 3, 4):
        got = {
            frozenset(frozenset(indices_of(p)) for p in parts)
            for parts in unordered_set_partitions(full_universe(n))
        }
        assert got == brute_unordered_partitions(range(1, n + 1))


def test_forgetting_order_gives_unordered():
    for n in range(1, 6):
        ground = full_universe(n)
        forgot = {frozenset(p) for p in ordered_set_partitions(ground)}
        unord = {frozenset(p) for p in unordered_set_partitions(ground)}
        assert forgot == unord


def test_every_partition_satisfies_invariants():
    ground = mask_of([2, 3, 5])
    for parts in ordered_set_partitions(ground) + unordered_set_partitions(ground):
        check_partition(parts, ground)


def test_check_partition_refusals():
    ground = mask_of([1, 2, 3])
    for parts, message in [
        ((mask_of([1]), 0, mask_of([2, 3])), "empty part"),
        ((mask_of([1, 2]), mask_of([2, 3])), "overlapping parts"),
        ((mask_of([1]), mask_of([2])), "parts do not cover the ground set"),
        ((mask_of([1]), mask_of([2, 3, 4])), "parts do not cover the ground set"),
    ]:
        with pytest.raises(ValueError, match=message):
            check_partition(parts, ground)


def test_no_duplicates_emitted():
    for n in range(1, 6):
        ordered = ordered_set_partitions(full_universe(n))
        assert len(ordered) == len(set(ordered))
        unordered = unordered_set_partitions(full_universe(n))
        assert len(unordered) == len({frozenset(p) for p in unordered})


def assert_coarsenings_match_brute_force(blocks):
    """`coarsenings(blocks)`, for blocks sorted by smallest index, lists once
    each unordered partition of their union that keeps every block whole,
    parts sorted by smallest index."""
    got = coarsenings(blocks)
    union = mask_of(i for b in blocks for i in indices_of(b))
    whole = [frozenset(indices_of(b)) for b in blocks]
    expected = {
        sigma
        for sigma in brute_unordered_partitions(indices_of(union))
        if all(any(block <= part for part in sigma) for block in whole)
    }
    assert {frozenset(frozenset(indices_of(p)) for p in parts) for parts in got} == expected
    assert len(got) == len(set(got))
    for parts in got:
        check_partition(parts, union)
        mins = [indices_of(p)[0] for p in parts]
        assert mins == sorted(mins)


def test_coarsenings_of_multi_variable_blocks():
    blocks = [mask_of([1, 2]), mask_of([3]), mask_of([4, 5])]
    assert_coarsenings_match_brute_force(blocks)
    assert len(coarsenings(blocks)) == bell_count(3)


def test_coarsenings_of_random_disjoint_blocks():
    for seed in range(12):
        rng = random.Random(seed)
        elements = rng.sample(range(1, 10), rng.randint(1, 6))
        cuts = sorted(rng.sample(range(1, len(elements)), rng.randint(0, len(elements) - 1)))
        groups = [elements[i:j] for i, j in zip([0] + cuts, cuts + [len(elements)])]
        blocks = sorted((mask_of(g) for g in groups), key=lambda b: indices_of(b)[0])
        assert_coarsenings_match_brute_force(blocks)
        assert len(coarsenings(blocks)) == bell_count(len(blocks))


def test_fubini_values():
    assert fubini_count(2) == 3
    assert fubini_count(3) == 13
    assert fubini_count(5) == 541
    with pytest.raises(ValueError):
        fubini_count(0)


def test_fubini_no_silent_wrap():
    # Fubini(20) exceeds 64 bits; exact integers must carry it.
    assert fubini_count(20) > 2**63


def test_index_set_bounds():
    with pytest.raises(ValueError, match="^empty index set has no minimum$"):
        min_index(0)
    for n in (0, 64):
        with pytest.raises(ValueError, match=rf"^universe size {n} out of range 1\.\.63$"):
            full_universe(n)


def test_bell_values():
    assert [bell_count(n) for n in range(1, 8)] == [1, 2, 5, 15, 52, 203, 877]
    with pytest.raises(ValueError):
        bell_count(0)


def test_deterministic_order():
    a = ordered_set_partitions(full_universe(3))
    b = ordered_set_partitions(full_universe(3))
    assert a == b
    # part-count major
    sizes = [len(p) for p in a]
    assert sizes == sorted(sizes)
