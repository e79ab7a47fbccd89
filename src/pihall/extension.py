"""Class-count calculators for wreath-type extensions.

A group with k classes of Hall subgroups, wreathed by a cyclic top of
prime order p (p outside pi), has (k^p + (p-1)k)/p classes.  A direct
Burnside orbit counter over explicitly generated permutation groups
cross-checks it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from pihall.arith import is_prime
from pihall.bruteforce import _closure, _perm_mul, _perm_mul_all

DEFAULT_CLOSURE_BUDGET = 10_000


def kpi_wreath_cyclic(k: int, p: int) -> int:
    """(k^p + (p-1)k) / p, the class count under a cyclic top of prime order p."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = k**p + (p - 1) * k
    # divisibility is Fermat's little theorem; a failure means a bug
    assert total % p == 0, f"k^p + (p-1)k not divisible by p for k={k}, p={p}"
    return total // p


def close_permutations(
    perms: Sequence[Tuple[int, ...]], budget: int = DEFAULT_CLOSURE_BUDGET
) -> List[Tuple[int, ...]]:
    """Close a set of permutations of {0..n-1}, n <= 256, under composition.

    The closure runs on bytes elements, as the census's permutation groups
    do; the result is the sorted list of the group's elements as tuples.
    """
    if not perms:
        raise ValueError("need at least one permutation")
    n = len(perms[0])
    for g in perms:
        if sorted(g) != list(range(n)):
            raise ValueError(f"{g} is not a permutation of 0..{n - 1}")
    elements = _closure([bytes(g) for g in perms], _perm_mul, bytes(range(n)), budget,
                        _perm_mul_all)
    return [tuple(x) for x in elements]


def cycle_count(perm: Tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def burnside_orbits(
    k: int,
    perms: Sequence[Tuple[int, ...]],
    budget: int = DEFAULT_CLOSURE_BUDGET,
) -> int:
    """Orbits of the group generated by perms on k-colorings of the points.

    Direct Burnside sum: average of k^(number of cycles of g) over the
    whole generated group.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    group = close_permutations(perms, budget)
    total = sum(k ** cycle_count(g) for g in group)
    assert total % len(group) == 0
    return total // len(group)


def cyclic_perm(n: int) -> Tuple[int, ...]:
    """The n-cycle (0 1 ... n-1) as a permutation tuple."""
    return tuple((i + 1) % n for i in range(n))
