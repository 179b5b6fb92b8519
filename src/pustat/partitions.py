"""Connected partitions of variable groups, and their contraction classes.

Four groups with sizes (i, i, j, j), written g:s for group g in 1..4 and
slot s, index the partitions of all 2i + 2j variables such that

  * no block contains two variables from the same group,
  * every block has at least two variables,
  * no proper bipartition of the groups separates the blocks: there is
    no split {A1, A2} of the groups with every block drawn entirely from
    A1 or entirely from A2.

These partitions index the contracted-product integrals of the bound terms:
each block becomes one integration variable shared by its members.

A partition's contracted integral depends only on the multiset of its
blocks' group masks (bit g-1 set when the block holds a variable of group
g), because the chaos kernels are symmetric and the blocks are exchangeable
integration variables.  ``contraction_classes`` lists these multisets for
2 to 4 groups, each with the number of partitions it stands for, without
building any partition: (i, i, j, j) gives the classes of M_ij, and (i, i)
the one class of i! ||f_i||^2 in Var F.

``enumerate_partitions`` lists the partitions themselves by expanding the
classes of (i, i, j, j) one at a time: each group's slots go to the blocks
whose mask holds it, in every order, once per relabelling of blocks with
equal masks.  The output comes class by class, in the order of
``contraction_classes``, and is deterministic.  Only one class is expanded
at a time, so memory does not grow with the count (18,365,184 for (4, 4)).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import factorial, prod
from typing import Iterator, Tuple

__all__ = [
    "enumerate_partitions",
    "count_partitions",
    "contraction_classes",
    "check_order",
    "MAX_GROUP_SIZE",
]

# the largest group size, and so the largest kernel order the bound terms take
MAX_GROUP_SIZE = 4


def _check_sizes(sizes: Tuple[int, ...]):
    if not 2 <= len(sizes) <= 4:
        raise ValueError(f"contraction classes join 2 to 4 groups, got {len(sizes)}")
    if not all(1 <= s <= MAX_GROUP_SIZE for s in sizes):
        raise ValueError(f"group sizes must lie in 1..{MAX_GROUP_SIZE}, got {sizes}")


def check_order(k: int):
    """Raise ValueError for a kernel order the contraction classes do not cover."""
    if k > MAX_GROUP_SIZE:
        raise ValueError(
            f"chaos and bound machinery is capped at kernel order {MAX_GROUP_SIZE}, got {k}"
        )


def _connected(masks, n_groups: int) -> bool:
    """No proper bipartition of the ``n_groups`` groups splits the blocks.
    Each bipartition is tried once, as its side holding group 1 (bit 0)."""
    for sep in range(1, (1 << n_groups) - 1, 2):
        if all((m & sep) == m or (m & sep) == 0 for m in masks):
            return False
    return True


def enumerate_partitions(i: int, j: int) -> Iterator[Tuple[Tuple[Tuple[int, int], ...], ...]]:
    """The valid partitions for group sizes (i, i, j, j), one at a time,
    class by class.  A partition is a tuple of blocks sorted by their first
    variable, and a block a tuple of (group, slot) pairs in variable order.
    The sizes are checked at the call, before the first partition is asked
    for."""
    sizes = (i, i, j, j)
    return (p for masks, _ in contraction_classes(sizes) for p in _class_partitions(masks, sizes))


def _class_partitions(masks: Tuple[int, ...], sizes: Tuple[int, ...]):
    """The ``weight`` partitions of one class: group g's slots assigned to
    the blocks whose mask holds bit g, in every order, keeping along each
    run of equal masks the one order in which the slots of the mask's
    lowest group increase."""
    per_group = []
    for g, size in enumerate(sizes):
        holders = [b for b, m in enumerate(masks) if m >> g & 1]
        runs = [[h for h, b in enumerate(holders) if masks[b] == m]
                for m in set(masks) if m & -m == 1 << g]
        per_group.append([
            [(b, (g + 1, s)) for b, s in zip(holders, slots)]
            for slots in permutations(range(1, size + 1))
            if all(slots[a] < slots[b] for run in runs for a, b in zip(run, run[1:]))
        ])
    for placements in product(*per_group):
        blocks = [[] for _ in masks]
        for placed in placements:
            for b, var in placed:
                blocks[b].append(var)
        yield tuple(sorted(map(tuple, blocks)))


@lru_cache(maxsize=None)
def contraction_classes(sizes: Tuple[int, ...]) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """The contraction classes for a tuple of 2 to 4 group sizes, as
    (block_masks, weight) pairs.

    ``block_masks`` is a nondecreasing tuple of group masks, one per block:
    every mask has at least two bits, bit g lies in exactly sizes[g]
    masks, and no group bipartition splits them.  ``weight`` counts the
    partitions of the class, prod size_g! / prod (multiplicity of each
    mask)!, so for (i, i, j, j) the weights sum to ``count_partitions(i, j)``
    and (i, i) has the one class (0b11,) * i of weight i!.
    """
    _check_sizes(sizes)
    # group masks a block can carry: at least two groups
    block_masks = [m for m in range(1, 1 << len(sizes)) if bin(m).count("1") >= 2]
    numerator = prod(factorial(s) for s in sizes)
    out = []

    # take 0, 1, ... copies of each block mask in turn while every group
    # still needs that many slots
    def _rec(pos: int, need: Tuple[int, ...], chosen: Tuple[int, ...]):
        if not any(need):
            if _connected(chosen, len(sizes)):
                mult = prod(factorial(chosen.count(m)) for m in set(chosen))
                out.append((chosen, numerator // mult))
            return
        if pos == len(block_masks):
            return
        m = block_masks[pos]
        for copies in range(min(n for g, n in enumerate(need) if m >> g & 1) + 1):
            rest = tuple(n - copies if m >> g & 1 else n for g, n in enumerate(need))
            _rec(pos + 1, rest, chosen + (m,) * copies)

    _rec(0, sizes, ())
    return tuple(out)


def count_partitions(i: int, j: int) -> int:
    """The number of valid partitions: the weight sum of the contraction classes."""
    return sum(weight for _, weight in contraction_classes((i, i, j, j)))
