import pytest

from pihall import bruteforce
from pihall.arith import pi_part


def _is_conjugate_into(g, k, hall):
    """Does some conjugate of k land inside hall?  Exhaustive over g."""
    if len(hall) % len(k) != 0:
        return False
    mul = g.mul
    for c in g.elements:
        cinv = g.inverse(c)
        if all(mul(mul(cinv, x), c) in hall for x in k):
            return True
    return False


@pytest.fixture
def is_conjugate_into():
    """The exhaustive conjugacy test, independent of the census's classes."""
    return _is_conjugate_into


def _reference_generator_witness(g, subgroup):
    """The generator witness search by closure alone, for subgroups of any order.

    The elements are ranked by descending order; the witness is the first
    element if it generates, else the first generating pair (a, b) with a
    among the 40 first, else the first generating triple with a and b among
    the 20 first, else the whole subgroup.
    """
    if len(subgroup) == 1:
        return ()
    members = sorted(subgroup)
    by_order = sorted(members, key=lambda x: -g.element_order(x))
    head = by_order[0]
    if g.element_order(head) == len(subgroup):
        return (head,)
    limit = len(subgroup)
    for a in by_order[:40]:
        cyclic = frozenset(bruteforce._extend(g.mul, g.products, (g.identity,), (), (a,), limit))
        for b in by_order:
            if bruteforce.subgroup_closure(g, [b], limit, cyclic, (a,), subgroup) == subgroup:
                return (a, b)
    for a in by_order[:20]:
        for b in by_order[:20]:
            for c in by_order:
                if bruteforce.subgroup_closure(g, [a, b, c], limit,
                                               admissible=subgroup) == subgroup:
                    return (a, b, c)
    return tuple(members)


@pytest.fixture
def reference_generator_witness():
    """The closure search, the reference for the witnesses of p-groups from P/Phi(P)."""
    return _reference_generator_witness


def _reference_census(g, pi, budget=bruteforce.DEFAULT_BUDGET):
    """The census with one extension candidate per left coset x*H of the current subgroup H.

    Each left coset's least element is a candidate, so more candidates
    reach the same join than with one per double coset H*x*H.  The Sylow
    seed is grown again and its witness found by closures on every call.
    Closures go through bruteforce.subgroup_closure, so a test that wraps
    it counts this search's closures too.
    """
    pi = tuple(sorted(set(pi)))
    hall_order = pi_part(g.order, pi)
    if hall_order == 1:
        trivial = bruteforce.SubgroupHandle(frozenset({g.identity}), ())
        return bruteforce.CensusReport(g, pi, 1, [trivial], [[trivial]], True)
    relevant = [r for r in pi if g.order % r == 0]
    seed = bruteforce.sylow_subgroup(g, relevant[0])
    pi_elems = bruteforce._orders_dividing(g, hall_order)
    admissible = frozenset(pi_elems)
    pi_elems.remove(g.identity)
    found = {seed: _reference_generator_witness(g, seed)}
    frontier = [seed]
    steps = 0
    exhaustive = True
    while frontier and exhaustive:
        nxt = []
        for current in frontier:
            if len(current) == hall_order or not exhaustive:
                continue
            gens = found[current]
            seen = set(current)
            coset_reps = []
            for x in pi_elems:
                if x in seen:
                    continue
                coset = list(g.products(x, current))
                seen.update(coset)
                coset_reps.append(min(coset))
            for x in sorted(coset_reps):
                steps += 1
                if steps > budget.max_closure_steps:
                    exhaustive = False
                    break
                bigger = bruteforce.subgroup_closure(g, [x], hall_order + 1, current, gens,
                                                     admissible)
                if bigger is None or bigger in found:
                    continue
                found[bigger] = tuple(gens) + (x,)
                nxt.append(bigger)
        frontier = nxt
    witnesses = {s: bruteforce._minimal_witness(g, gens, s)
                 for s, gens in found.items() if len(s) == hall_order}
    classes = bruteforce.conjugacy_classes_of_subgroups(g, witnesses)
    halls = [h for cls in classes for h in cls]
    return bruteforce.CensusReport(g, pi, hall_order, halls, classes, exhaustive)


@pytest.fixture
def reference_census():
    """The left-coset census, the reference for the double-coset search."""
    return _reference_census
