"""Extended brute-force cross-checks of the symbolic classifier.

Each case runs the census on an explicit group and compares the exact
verdict, Hall order, and class count with the classifier.  These cover
the class-count extremes (k = 0 and k = 3 for two-dimensional groups),
the general-linear variants, and the degree-8 symmetric groups.
"""

import pytest

from pihall.arith import PrimeSet
from pihall.bruteforce import build_group, find_hall_subgroups
from pihall.classify import classify
from pihall.groups import parse_group

SL2_CASES = [
    # kind, q, pi, expected k, expected hall order
    ("PSL2", 17, (2, 3), 0, 144),  # (q^2-1)_{2,3} = 288: no Hall subgroup
    ("PSL2", 19, (2, 3), 0, 36),
    ("PSL2", 23, (2, 3), 3, 24),   # dihedral class plus two octahedral classes
    ("SL2", 23, (2, 3), 3, 48),
]


@pytest.mark.parametrize("kind,q,pi,k,hall", SL2_CASES)
def test_sl2_extremes(kind, q, pi, k, hall):
    g = build_group(kind, q)
    census = find_hall_subgroups(g, pi)
    report = classify(parse_group(f"{'PSL' if kind == 'PSL2' else 'SL'}(2,{q})"), PrimeSet(pi))
    assert census.class_count == k == report.k_pi
    assert census.hall_order == hall == report.hall_order
    assert census.exhaustive


GL2_CASES = [
    (5, (2, 3), 1, 96),
    (7, (2, 3), 0, 288),
    (11, (2, 3), 2, 48),
    (13, (2, 3), 2, 288),
]


@pytest.mark.parametrize("q,pi,k,hall", GL2_CASES)
def test_gl2_census(q, pi, k, hall):
    g = build_group("GL2", q)
    census = find_hall_subgroups(g, pi)
    report = classify(parse_group(f"GL(2,{q})"), PrimeSet(pi))
    assert census.class_count == k == report.k_pi
    assert census.hall_order == hall == report.hall_order


def test_alt5_no_two_five_hall():
    g = build_group("ALT", 5)
    census = find_hall_subgroups(g, (2, 5))
    assert census.class_count == 0
    report = classify(parse_group("Alt(5)"), PrimeSet((2, 5)))
    assert report.e_pi == "no"


def test_sym6_whole_group_hall():
    g = build_group("SYM", 6)
    census = find_hall_subgroups(g, (2, 3, 5))
    assert census.class_count == 1
    assert census.hall_order == 720


def omega4_plus(p: int):
    """The 4-dimensional plus-type orthogonal group as SL2(p) o SL2(p)."""
    from pihall.bruteforce import ConcreteGroup, _closure

    sl2 = build_group("SL2", p)
    mul0 = sl2.mul

    def canon(pair):
        a, b = pair
        na = tuple((p - x) % p for x in a)
        nb = tuple((p - x) % p for x in b)
        return min((a, b), (na, nb))

    def mul(x, y):
        return canon((mul0(x[0], y[0]), mul0(x[1], y[1])))

    e = canon((sl2.identity, sl2.identity))
    gens = []
    for g in sl2.generators:
        gens.append(canon((g, sl2.identity)))
        gens.append(canon((sl2.identity, g)))
    elements = _closure(gens, mul, e, 120_000)
    return ConcreteGroup(f"Omega4+({p})", "CENTRAL", elements, mul, e, gens)


def test_omega4_plus_table_row():
    # independent model of the central-product group behind the
    # 4-dimensional table; q = 7 (k = 4, hall 1152) checks out too but
    # takes minutes, so only q = 5 stays in the suite
    g = omega4_plus(5)
    assert g.order == 7200
    census = find_hall_subgroups(g, (2, 3))
    report = classify(parse_group("O+(4,5)"), PrimeSet((2, 3)))
    assert census.class_count == report.k_pi == 1
    assert census.hall_order == report.hall_order == 288


def wreath_sym2(base_kind: str, p: int):
    """L wr Sym(2) as explicit tuples (l1, l2, swap-bit)."""
    from pihall.bruteforce import ConcreteGroup, _closure

    L = build_group(base_kind, p)
    mulL = L.mul

    def mul(x, y):
        a, b, s = x[:4], x[4:8], x[8]
        c, d, t = y[:4], y[4:8], y[8]
        if s == 0:
            na, nb = mulL(a, c), mulL(b, d)
        else:
            na, nb = mulL(a, d), mulL(b, c)
        return na + nb + ((s + t) % 2,)

    e = L.identity + L.identity + (0,)
    gens = [g + L.identity + (0,) for g in L.generators]
    gens.append(L.identity + L.identity + (1,))
    elements = _closure(gens, mul, e, 120_000)
    return ConcreteGroup(f"{L.name} wr Sym(2)", "WREATH", elements, mul, e, gens)


@pytest.mark.parametrize("kind,p,expected_k", [("SL2", 5, 1), ("PSL2", 7, 2)])
def test_wreath_class_count_law(kind, p, expected_k):
    # the class count of L wr Sym(2) is k_pi(L)^t with one orbit for the
    # transitive top: verified by exhaustive search
    g = wreath_sym2(kind, p)
    census = find_hall_subgroups(g, (2, 3))
    assert census.hall_order == 1152
    assert census.class_count == expected_k


def test_symmetric_odd_pi_census():
    g = build_group("SYM", 5)
    census = find_hall_subgroups(g, (3, 5))
    assert census.class_count == 0  # no subgroup of order 15
    report = classify(parse_group("Sym(5)"), PrimeSet((3, 5)))
    assert report.e_pi == "no"


def test_degree_eight():
    # the wreath-shaped Hall of the degree-8 groups (the largest census here)
    sym8 = build_group("SYM", 8)
    census = find_hall_subgroups(sym8, (2, 3))
    assert census.class_count == 1 and census.hall_order == 1152
    assert len(census.halls_found) == 35
    report = classify(parse_group("Sym(8)"), PrimeSet((2, 3)))
    assert report.k_pi == 1 and report.hall_order == 1152

    alt8 = build_group("ALT", 8)
    census = find_hall_subgroups(alt8, (2, 3))
    assert census.class_count == 1 and census.hall_order == 576
    report = classify(parse_group("Alt(8)"), PrimeSet((2, 3)))
    assert report.k_pi == 1 and report.hall_order == 576
