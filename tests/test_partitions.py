import time
from collections import Counter

import pytest

from pustat.cli import _partition_line
from pustat.partitions import (
    MAX_GROUP_SIZE,
    _class_partitions,
    check_order,
    contraction_classes,
    count_partitions,
    enumerate_partitions,
)

from oracles import (
    all_rgs,
    all_rgs_array,
    brute_force_partitions,
    brute_force_partitions_multi,
    walk_partitions,
)


def _canonical(parts):
    return {frozenset(frozenset(block) for block in p) for p in parts}


def test_one_one_single_partition():
    parts = tuple(enumerate_partitions(1, 1))
    assert len(parts) == 1
    assert len(parts[0]) == 1
    assert set(parts[0][0]) == {(1, 1), (2, 1), (3, 1), (4, 1)}


def test_small_cases_match_brute_force():
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
        expected = brute_force_partitions(i, j)
        got = tuple(enumerate_partitions(i, j))
        assert len(got) == len(expected)
        assert _canonical(got) == expected
        assert count_partitions(i, j) == len(expected)


def test_array_oracle_matches_python_walk():
    # the column-wise oracle against the string-by-string walk, for n <= 10
    for n in range(1, 11):
        assert all_rgs_array(n).tolist() == [list(a) for a in all_rgs(n)]
    cases = [(i, j) for i in range(1, 5) for j in range(1, 5) if 2 * i + 2 * j <= 10]
    fast = brute_force_partitions_multi(cases)
    for i, j in cases:
        assert fast[(i, j)] == walk_partitions(i, j)
        assert len(fast[(i, j)]) > 0


def test_classes_expand_to_their_partitions():
    # each class gives exactly ``weight`` distinct partitions of its own
    # masks, and the classes together give every valid partition
    cases = [(i, j) for i in range(1, 5) for j in range(1, 5) if 2 * i + 2 * j <= 10]
    expected = brute_force_partitions_multi(cases)
    for i, j in cases:
        union = set()
        for masks, weight in contraction_classes((i, i, j, j)):
            parts = list(_class_partitions(masks, (i, i, j, j)))
            canon = _canonical(parts)
            assert len(parts) == len(canon) == weight
            assert {_block_masks(p) for p in parts} == {masks}
            union |= canon
        assert union == expected[(i, j)]


def test_counts_symmetric():
    # the group relabeling (1,2) <-> (3,4) is a bijection between the classes
    for i in range(1, MAX_GROUP_SIZE + 1):
        for j in range(1, MAX_GROUP_SIZE + 1):
            assert count_partitions(i, j) == count_partitions(j, i)


def test_block_sizes_bounded():
    # a block holds at most one variable per group
    for i, j in ((2, 2), (1, 4), (3, 2)):
        for p in enumerate_partitions(i, j):
            for block in p:
                assert 2 <= len(block) <= 4


def test_deterministic_ordering():
    a = list(enumerate_partitions(2, 3))
    b = list(enumerate_partitions(2, 3))
    assert a == b


def test_size_cap():
    # refused at the call, before the first partition is asked for
    with pytest.raises(ValueError):
        enumerate_partitions(5, 1)
    with pytest.raises(ValueError):
        enumerate_partitions(1, 0)
    with pytest.raises(ValueError):
        count_partitions(5, 1)


def test_largest_case_streams():
    # M_44's count comes from its 130 classes; its first partition needs
    # none of the other 18,365,183
    assert count_partitions(4, 4) == 18_365_184
    start = time.perf_counter()
    parts = enumerate_partitions(4, 4)
    first = next(parts)
    assert time.perf_counter() - start < 1.0
    assert iter(parts) is parts
    assert first == tuple(tuple((g, s) for g in (1, 2, 3, 4)) for s in (1, 2, 3, 4))


def test_partition_rendering():
    (p,) = enumerate_partitions(1, 1)
    assert p == (((1, 1), (2, 1), (3, 1), (4, 1)),)
    assert _partition_line(p) == "{1:1, 2:1, 3:1, 4:1}"


# ---------------------------------------------------------------------------
# contraction classes
# ---------------------------------------------------------------------------

SMALL_CASES = [(i, j) for i in range(1, 5) for j in range(1, 5) if 2 * i + 2 * j <= 12]


def _block_masks(p):
    return tuple(sorted(sum(1 << (g - 1) for g, _ in block) for block in p))


@pytest.mark.parametrize("i, j", SMALL_CASES)
def test_classes_group_the_partitions(i, j):
    grouped = Counter(_block_masks(p) for p in enumerate_partitions(i, j))
    classes = contraction_classes((i, i, j, j))
    assert len({masks for masks, _ in classes}) == len(classes)  # each class once
    assert {masks: w for masks, w in classes} == dict(grouped)


@pytest.mark.parametrize(
    "i, j, n_classes, weight_sum",
    [
        (1, 1, 1, 1),
        (1, 2, 4, 16),
        (2, 2, 13, 200),
        (2, 3, 20, 2_160),
        (3, 3, 46, 41_364),
        (3, 4, 65, 687_168),
        (4, 4, 130, 18_365_184),
        # j None: the two groups (i, i) of Var F, one class of i blocks
        (1, None, 1, 1),
        (2, None, 1, 2),
        (3, None, 1, 6),
        (4, None, 1, 24),
    ],
)
def test_class_counts_and_weight_sums(i, j, n_classes, weight_sum):
    classes = contraction_classes((i, i) if j is None else (i, i, j, j))
    assert len(classes) == n_classes
    assert sum(w for _, w in classes) == weight_sum
    if j is None:
        assert classes == (((0b11,) * i, weight_sum),)


def test_class_weight_sums_symmetric():
    for i in range(1, MAX_GROUP_SIZE + 1):
        for j in range(1, MAX_GROUP_SIZE + 1):
            assert sum(w for _, w in contraction_classes((i, i, j, j))) == sum(
                w for _, w in contraction_classes((j, j, i, i))
            )


def test_class_masks_obey_the_rules():
    for i in range(1, MAX_GROUP_SIZE + 1):
        for j in range(i, MAX_GROUP_SIZE + 1):
            for masks, weight in contraction_classes((i, i, j, j)):
                assert all(bin(m).count("1") >= 2 for m in masks)
                assert [sum(m >> g & 1 for m in masks) for g in range(4)] == [i, i, j, j]
                assert list(masks) == sorted(masks)
                assert len(masks) <= 2 * j and weight >= 1


def test_class_size_cap():
    for sizes in (
        (MAX_GROUP_SIZE + 1, MAX_GROUP_SIZE + 1, 1, 1),
        (1, 1, 0, 0),
        (0, 0),
        (MAX_GROUP_SIZE + 1, 1),
        (1,),
        (1, 1, 1, 1, 1),
    ):
        with pytest.raises(ValueError):
            contraction_classes(sizes)
    check_order(MAX_GROUP_SIZE)
    with pytest.raises(ValueError, match="capped"):
        check_order(MAX_GROUP_SIZE + 1)
