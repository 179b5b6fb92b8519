from collections import Counter

import pytest

from pustat.partitions import (
    MAX_GROUP_SIZE,
    Partition,
    PartitionVariable,
    check_order,
    contraction_classes,
    count_partitions,
    enumerate_partitions,
    is_valid,
    variables,
)

from oracles import (
    all_rgs,
    all_rgs_array,
    brute_force_partitions,
    brute_force_partitions_multi,
    walk_partitions,
)


def _canonical(parts):
    return {frozenset(frozenset((v.group, v.slot) for v in block) for block in p.blocks) for p in parts}


def test_one_one_single_partition():
    parts = enumerate_partitions(1, 1)
    assert len(parts) == 1
    assert parts[0].num_blocks == 1
    assert set(parts[0].blocks[0]) == set(variables(1, 1))


def test_small_cases_match_brute_force():
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3)):
        expected = brute_force_partitions(i, j)
        got = enumerate_partitions(i, j)
        assert len(got) == len(expected)
        assert _canonical(got) == expected


def test_array_oracle_matches_python_walk():
    # the column-wise oracle against the string-by-string walk, for n <= 10
    for n in range(1, 11):
        assert all_rgs_array(n).tolist() == [list(a) for a in all_rgs(n)]
    cases = [(i, j) for i in range(1, 5) for j in range(1, 5) if 2 * i + 2 * j <= 10]
    fast = brute_force_partitions_multi(cases)
    for i, j in cases:
        assert fast[(i, j)] == walk_partitions(i, j)
        assert len(fast[(i, j)]) > 0


def test_every_output_is_valid():
    for i, j in ((1, 2), (2, 2), (3, 1)):
        for p in enumerate_partitions(i, j):
            assert is_valid(p, i, j)


def test_counts_symmetric():
    # the group relabeling (1,2) <-> (3,4) is a bijection between the classes;
    # sizes with 2i+2j > 12 are reachable but too slow for routine testing
    for i in range(1, 5):
        for j in range(1, 5):
            if 2 * i + 2 * j <= 12:
                assert count_partitions(i, j) == count_partitions(j, i)


def test_block_sizes_bounded():
    # a block holds at most one variable per group
    for i, j in ((2, 2), (1, 4), (3, 2)):
        for p in enumerate_partitions(i, j):
            for block in p.blocks:
                assert 2 <= len(block) <= 4


def test_deterministic_ordering():
    a = enumerate_partitions(2, 3)
    b = enumerate_partitions(2, 3)
    assert [str(p) for p in a] == [str(p) for p in b]


def test_size_cap():
    with pytest.raises(ValueError):
        enumerate_partitions(5, 1)
    with pytest.raises(ValueError):
        enumerate_partitions(1, 0)


def _p(*blocks):
    return Partition(tuple(tuple(PartitionVariable(g, s) for g, s in b) for b in blocks))


def test_is_valid_explicit_cases():
    # all four singleton-group variables in one block: valid
    assert is_valid(_p(((1, 1), (2, 1), (3, 1), (4, 1))), 1, 1)
    # split into {1,2} x {3,4}: disconnected
    assert not is_valid(_p(((1, 1), (2, 1)), ((3, 1), (4, 1))), 1, 1)
    # same group twice in one block
    bad = _p(((1, 1), (3, 1), (3, 2)), ((2, 1), (4, 1), (4, 2)))
    assert not is_valid(bad, 1, 2)
    # a singleton block
    assert not is_valid(_p(((1, 1), (2, 1), (3, 1)), ((4, 1),)), 1, 1)


def test_is_valid_rejects_malformed():
    with pytest.raises(ValueError):
        is_valid(_p(((1, 1), (2, 1))), 1, 1)  # missing variables
    with pytest.raises(ValueError):
        is_valid(
            _p(((1, 1), (2, 1), (3, 1), (4, 1)), ((1, 1), (2, 1))), 1, 1
        )  # duplicated variable


def test_partition_rendering():
    (p,) = enumerate_partitions(1, 1)
    assert str(p) == "{1:1, 2:1, 3:1, 4:1}"


# ---------------------------------------------------------------------------
# contraction classes
# ---------------------------------------------------------------------------

SMALL_CASES = [(i, j) for i in range(1, 5) for j in range(1, 5) if 2 * i + 2 * j <= 12]


def _block_masks(p):
    return tuple(sorted(sum(1 << (v.group - 1) for v in block) for block in p.blocks))


@pytest.mark.parametrize("i, j", SMALL_CASES)
def test_classes_group_the_partitions(i, j):
    grouped = Counter(_block_masks(p) for p in enumerate_partitions(i, j))
    classes = contraction_classes(i, j)
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
    ],
)
def test_class_counts_and_weight_sums(i, j, n_classes, weight_sum):
    classes = contraction_classes(i, j)
    assert len(classes) == n_classes
    assert sum(w for _, w in classes) == weight_sum


def test_class_weight_sums_symmetric():
    for i in range(1, MAX_GROUP_SIZE + 1):
        for j in range(1, MAX_GROUP_SIZE + 1):
            assert sum(w for _, w in contraction_classes(i, j)) == sum(
                w for _, w in contraction_classes(j, i)
            )


def test_class_masks_obey_the_rules():
    for i in range(1, MAX_GROUP_SIZE + 1):
        for j in range(i, MAX_GROUP_SIZE + 1):
            for masks, weight in contraction_classes(i, j):
                assert all(bin(m).count("1") >= 2 for m in masks)
                assert [sum(m >> g & 1 for m in masks) for g in range(4)] == [i, i, j, j]
                assert list(masks) == sorted(masks)
                assert len(masks) <= 2 * j and weight >= 1


def test_class_size_cap():
    with pytest.raises(ValueError):
        contraction_classes(MAX_GROUP_SIZE + 1, 1)
    with pytest.raises(ValueError):
        contraction_classes(1, 0)
    check_order(MAX_GROUP_SIZE)
    with pytest.raises(ValueError, match="capped"):
        check_order(MAX_GROUP_SIZE + 1)
