from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pihall.bruteforce import BudgetExceeded
from pihall.extension import (
    burnside_orbits,
    close_permutations,
    cyclic_perm,
    kpi_wreath_cyclic,
)


def kpi_wreath_orbits(k, t):
    """k^t: the class count under a Hall top with t orbits."""
    if k < 1 or t < 1:
        raise ValueError("k and t must be >= 1")
    return k**t


def enumerate_orbits_directly(k, perms, budget=10_000):
    """Count coloring orbits by explicit enumeration: the oracle for burnside_orbits."""
    group = close_permutations(perms, budget)
    n = len(group[0])
    if k**n > budget * 100:
        raise BudgetExceeded("too many colorings to enumerate")
    seen = set()
    orbits = 0
    for coloring in product(range(k), repeat=n):
        if coloring in seen:
            continue
        orbits += 1
        for g in group:
            seen.add(tuple(coloring[g[i]] for i in range(n)))
    return orbits


def test_wreath_cyclic_examples():
    assert kpi_wreath_cyclic(2, 7) == 20
    assert kpi_wreath_cyclic(1, 5) == 1
    assert kpi_wreath_cyclic(2, 3) == 4
    assert kpi_wreath_cyclic(3, 3) == 11


def test_wreath_cyclic_rejects_nonprime():
    with pytest.raises(ValueError):
        kpi_wreath_cyclic(2, 6)


def test_wreath_orbits_examples():
    assert kpi_wreath_orbits(3, 2) == 9
    assert kpi_wreath_orbits(1, 5) == 1
    assert kpi_wreath_orbits(2, 2) == 4


def test_burnside_examples():
    assert burnside_orbits(2, [cyclic_perm(3)]) == 4
    assert burnside_orbits(2, [cyclic_perm(7)]) == 20
    assert burnside_orbits(5, [(0, 1, 2)]) == 125


def test_burnside_matches_formula():
    for k in range(1, 7):
        for p in (2, 3, 5, 7):
            assert kpi_wreath_cyclic(k, p) == burnside_orbits(k, [cyclic_perm(p)])


def test_burnside_matches_direct_enumeration():
    for k in (2, 3):
        for p in (2, 3, 5):
            perms = [cyclic_perm(p)]
            assert burnside_orbits(k, perms) == enumerate_orbits_directly(k, perms)
    # a non-cyclic group: Sym(3) generated by a transposition and a 3-cycle
    perms = [(1, 0, 2), (1, 2, 0)]
    assert burnside_orbits(3, perms) == enumerate_orbits_directly(3, perms)


def test_trivial_action_matches_orbit_power():
    # k-colorings of t fixed points under the trivial group: k^t
    for k in (1, 2, 3):
        for t in (1, 2, 3):
            assert kpi_wreath_orbits(k, t) == burnside_orbits(k, [tuple(range(t))])


@given(k=st.integers(min_value=1, max_value=6), p=st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=40, deadline=None)
def test_integrality_and_monotonicity(k, p):
    val = kpi_wreath_cyclic(k, p)  # internal divisibility assertion must hold
    assert (k**p + (p - 1) * k) % p == 0
    if k >= 2:
        assert val > k


def test_closure_budget():
    with pytest.raises(BudgetExceeded):
        close_permutations([cyclic_perm(9), (1, 0) + tuple(range(2, 9))], budget=100)


def test_closure_group_axioms():
    group = close_permutations([(1, 0, 2), (1, 2, 0)])
    assert len(group) == 6
    members = set(group)
    for a in group:
        for b in group:
            c = tuple(a[b[i]] for i in range(3))
            assert c in members
