import gc
import hashlib
import json
import time
import weakref
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pihall.bruteforce as bruteforce
from pihall.arith import PrimeSet, factorize, is_pi_number, pi_part
from pihall.bruteforce import (
    Budget,
    BudgetExceeded,
    ConcreteGroup,
    SubgroupHandle,
    _closure,
    _conjugacy_orbit,
    _orders_dividing,
    _perm_mul,
    _perm_mul_all,
    _scalar_canonical,
    build_group,
    conjugacy_classes_of_subgroups,
    find_dpi_counterexample,
    find_hall_subgroups,
    pi_subgroup_lattice,
    psl3_3_points,
    subgroup_closure,
    sylow_subgroup,
    verify_report,
)
from pihall.classify import classify
from pihall.groups import InvalidParameter, parse_group


def test_build_group_orders():
    assert build_group("PSL2", 7).order == 168
    assert build_group("SL2", 5).order == 120
    assert build_group("SYM", 7).order == 5040
    assert build_group("ALT", 6).order == 360
    assert build_group("GL2", 5).order == 480
    assert build_group("PGL2", 5).order == 120


def test_build_group_errors():
    with pytest.raises(InvalidParameter):
        build_group("SL2", 9)
    with pytest.raises(BudgetExceeded):
        build_group("SYM", 9)
    with pytest.raises(ValueError):
        build_group("WAT", 5)
    # psl3_3_points keeps its model under ("PSL3", 3), which names no build_group kind
    plane = psl3_3_points()
    with pytest.raises(ValueError):
        build_group("PSL3", plane.order)
    # the standard generators need 2 points for Sym and 3 for Alt
    for kind, n in [("SYM", 0), ("SYM", 1), ("ALT", 0), ("ALT", 2)]:
        with pytest.raises(ValueError):
            build_group(kind, n)


def test_sylow_subgroup():
    g = build_group("SYM", 5)
    s2 = sylow_subgroup(g, 2)
    assert len(s2) == 8
    s3 = sylow_subgroup(g, 3)
    assert len(s3) == 3
    s7 = sylow_subgroup(g, 7)
    assert len(s7) == 1


def test_subgroup_closure_limit():
    g = build_group("SYM", 5)
    full = subgroup_closure(g, g.generators, 200)
    assert full is not None and len(full) == 120
    assert subgroup_closure(g, g.generators, 100) is None


def test_census_structure_invariants():
    g = build_group("PSL2", 11)
    census = find_hall_subgroups(g, (2, 3))
    assert census.hall_order == pi_part(g.order, (2, 3))
    for h in census.halls_found:
        assert h.order == census.hall_order
        assert g.order % h.order == 0  # Lagrange
        for x in h.elements:
            assert is_pi_number(g.element_order(x), (2, 3))
        # the witness regenerates the subgroup
        if h.generator_witness:
            assert subgroup_closure(g, h.generator_witness, h.order + 1) == h.elements
            assert len(h.generator_witness) <= 3


def test_census_classes_partition():
    g = build_group("PSL2", 7)
    census = find_hall_subgroups(g, (2, 3))
    assert census.class_count == 2
    all_sets = [h.elements for cls in census.classes for h in cls]
    assert len(all_sets) == len(set(all_sets)) == len(census.halls_found)


def test_census_invariant_under_generating_set():
    base = build_group("PSL2", 7)
    # same group, different generating pair (conjugated generators)
    c = base.elements[17]
    cinv = base.inverse(c)
    gens2 = [base.mul(base.mul(cinv, g), c) for g in base.generators]
    alt = ConcreteGroup(
        "PSL2(7)#2", "PSL2", base.elements, base.mul, base.identity, gens2,
        spec=base.spec,
    )
    c1 = find_hall_subgroups(base, (2, 3))
    c2 = find_hall_subgroups(alt, (2, 3))
    assert c1.class_count == c2.class_count
    assert {h.elements for h in c1.halls_found} == {h.elements for h in c2.halls_found}


def conjugacy_class_count(g, subgroups):
    """Partition Hall handles into conjugacy classes, keeping the handles given."""
    by_set = {h.elements: h for h in subgroups}
    classes = conjugacy_classes_of_subgroups(
        g, {s: h.generator_witness for s, h in by_set.items()})
    return [[by_set.get(h.elements, h) for h in cls] for cls in classes]


def test_conjugacy_class_count_wrapper():
    g = build_group("SYM", 4)
    census = find_hall_subgroups(g, (2,))
    classes = conjugacy_class_count(g, census.halls_found)
    assert len(classes) == 1  # Sylow subgroups are conjugate
    assert sum(len(c) for c in classes) == 3


def test_verify_report_pass_and_fail():
    g = build_group("PSL2", 7)
    report = classify(parse_group("PSL(2,7)"), PrimeSet((2, 3)))
    outcome = verify_report(g, report)
    assert outcome.passed
    # deliberately corrupted report: doubled class list (still self-consistent)
    import dataclasses

    bad = dataclasses.replace(
        report,
        k_pi=4,
        classes=report.classes + (
            dataclasses.replace(report.classes[0], case_id="fake"),
        ),
    )
    outcome = verify_report(g, bad)
    assert not outcome.passed
    fields = {f for f, _, _, ok in outcome.checks if not ok}
    assert "k_pi" in fields


def center_quotient_hall_match(sl2, psl2, pi):
    """Every Hall subgroup of PSL2(p) is the image of a Hall subgroup of SL2(p).

    Maps the SL2(p) Hall subgroups through the center quotient and compares
    the resulting element sets with the PSL2(p) census.
    """
    p = sl2.spec.q
    project = _scalar_canonical(p, [1, p - 1])
    up = find_hall_subgroups(sl2, pi)
    down = find_hall_subgroups(psl2, pi)
    images = {frozenset(project(x) for x in h.elements) for h in up.halls_found}
    targets = {h.elements for h in down.halls_found}
    return images == targets


def test_quotient_map_preserves_halls():
    for p in (5, 7, 11, 13):
        sl2 = build_group("SL2", p)
        psl2 = build_group("PSL2", p)
        assert center_quotient_hall_match(sl2, psl2, (2, 3))


def test_alt_halls_are_sym_hall_intersections():
    for n in (5, 6, 7):
        sym = build_group("SYM", n)
        alt = build_group("ALT", n)
        sym_census = find_hall_subgroups(sym, (2, 3))
        alt_census = find_hall_subgroups(alt, (2, 3))
        alt_elements = set(alt.elements)
        intersections = {
            frozenset(h.elements & alt_elements) for h in sym_census.halls_found
        }
        assert intersections == {
            h.elements for h in alt_census.halls_found
        } or (not sym_census.halls_found and not alt_census.halls_found)


def test_dpi_witness_psl2_other_class():
    g = build_group("PSL2", 7)
    census = find_hall_subgroups(g, (2, 3))
    report = find_dpi_counterexample(g, (2, 3), census)
    assert report.refuted
    # a Hall from the other class is itself a valid witness; whatever was
    # found must not embed into the class it refutes
    for witness, cls in zip(report.per_class, census.classes):
        assert witness is not None
        assert witness.order <= census.hall_order


def test_dpi_no_witness_for_pi_group():
    g = build_group("SYM", 4)
    census = find_hall_subgroups(g, (2, 3))
    report = find_dpi_counterexample(g, (2, 3), census)
    assert report.per_class == [None]


def test_psl3_3_census_matches_defining_characteristic():
    g = psl3_3_points()
    assert g.order == 5616
    census = find_hall_subgroups(g, (2, 3))
    report = classify(parse_group("PSL(3,3)"), PrimeSet((2, 3)))
    assert census.hall_order == report.hall_order == 432
    assert census.class_count == report.k_pi == 2


def test_census_export_is_deterministic():
    g = build_group("PSL2", 11)
    d1 = find_hall_subgroups(g, (2, 3)).to_dict()
    d2 = find_hall_subgroups(g, (2, 3)).to_dict()
    assert d1 == d2
    assert d1["class_count"] == 2
    assert d1["exhaustive"] is True


def test_budget_marks_nonexhaustive():
    g = build_group("SYM", 7)
    census = find_hall_subgroups(g, (2, 3), Budget(max_closure_steps=5))
    assert census.exhaustive is False


def test_subgroup_budget_marks_census_nonexhaustive():
    # the census stops at Budget.max_subgroups as the lattice does, without raising
    g = build_group("PSL2", 13)
    full = find_hall_subgroups(g, (2, 3)).to_dict()
    outcomes = []
    for n in range(8):
        census = find_hall_subgroups(g, (2, 3), Budget(max_subgroups=n))
        assert not census.exhaustive or census.to_dict() == full
        outcomes.append(census.exhaustive)
    # PSL2(13) stores 5 subgroups above its Sylow 2-subgroup
    assert outcomes == [False] * 5 + [True] * 3


@pytest.mark.parametrize("kind,p", [("PSL2", 13), ("SYM", 6)])
def test_partial_census_decides_no_count(kind, p):
    g = build_group(kind, p)
    report = classify(g.spec, PrimeSet((2, 3)))
    census = find_hall_subgroups(g, (2, 3), Budget(max_closure_steps=1))
    assert census.exhaustive is False
    fields = {f for f, _, _, _ in verify_report(g, report, census).checks}
    assert fields.isdisjoint({"e_pi", "k_pi", "k_pi within bound"})
    assert "hall_order" in fields


def test_closure_is_a_group():
    elements = _closure([bytes((1, 0, 2, 3)), bytes((1, 2, 3, 0))], _perm_mul,
                        bytes((0, 1, 2, 3)), 100)
    assert len(elements) == 24
    members = set(elements)
    for a in elements[:6]:
        for b in elements[:6]:
            assert _perm_mul(a, b) in members


@st.composite
def permutation_pairs(draw):
    n = draw(st.integers(1, 13))
    a, b = (draw(st.permutations(range(n))) for _ in range(2))
    return a, b, draw(st.sampled_from([bytes, tuple]))


@given(permutation_pairs())
@settings(max_examples=300, deadline=None)
def test_perm_mul_is_composition(case):
    # apply b first, then a; the left operand may be bytes or a tuple
    a, b, left = case
    assert _perm_mul(left(a), bytes(b)) == bytes(a[k] for k in b)


@given(st.sampled_from([("SYM", n) for n in range(2, 7)] + [("ALT", n) for n in range(3, 7)]))
@settings(max_examples=20, deadline=None)
def test_permutation_group_elements_match_tuple_closure(case):
    g = _small_group(*case)
    as_tuples = [tuple(x) for x in g.elements]
    assert all(type(x) is bytes for x in g.elements)
    assert as_tuples == sorted(as_tuples)
    # the reference closes the same generators as tuples, composed a[b[k]]
    tuples = SimpleNamespace(identity=tuple(g.identity),
                             mul=lambda a, b: tuple(a[k] for k in b))
    assert set(as_tuples) == _bfs_closure(tuples, [tuple(x) for x in g.generators])


def _bfs_closure(g, gens):
    """Plain breadth-first closure: the reference for subgroup_closure."""
    elements = {g.identity}
    frontier = [g.identity]
    while frontier:
        frontier = [y for y in {g.mul(x, s) for x in frontier for s in gens}
                    if y not in elements]
        elements.update(frontier)
    return frozenset(elements)


@lru_cache(maxsize=None)
def _small_group(kind, param):
    return psl3_3_points() if kind == "PSL3" else build_group(kind, param)


@st.composite
def closure_cases(draw):
    g = _small_group(*draw(st.sampled_from(
        [("SYM", n) for n in (3, 4, 5, 6)] + [("ALT", n) for n in (4, 5, 6)] + [("PSL3", 3)]
        + [("SL2", p) for p in (2, 3, 5, 7)])))
    gens = draw(st.lists(st.sampled_from(g.elements), max_size=4))
    split = draw(st.integers(0, len(gens)))
    slack = draw(st.integers(-3, 3))
    admissible = None
    if draw(st.booleans()):
        # the closure, less a few of its elements, plus random others; it
        # always holds the known base
        full = _bfs_closure(g, gens)
        removed = draw(st.sets(st.sampled_from(sorted(full)), max_size=2))
        extras = draw(st.sets(st.sampled_from(g.elements), max_size=20))
        admissible = (full - removed) | extras | _bfs_closure(g, gens[:split])
    return g, gens, split, slack, admissible


@given(closure_cases())
@settings(max_examples=300, deadline=None)
def test_closure_matches_bfs(case):
    g, gens, split, slack, admissible = case
    full = _bfs_closure(g, gens)
    limit = max(1, len(full) + slack)
    if split:
        # extend the known subgroup <gens[:split]> by the remaining generators
        base_gens = gens[:split]
        got = subgroup_closure(g, gens[split:], limit, _bfs_closure(g, base_gens), base_gens,
                               admissible)
    else:
        got = subgroup_closure(g, gens, limit, admissible=admissible)
    if len(full) > limit or (admissible is not None and not full <= admissible):
        assert got is None
    else:
        assert got == full


def _count_products(g):
    """Wrap g's mul and batch kernel, if any, to count every product; returns the count."""
    count = [0]
    mul, mul_all = g.mul, g.mul_all

    def counting_mul(a, b):
        count[0] += 1
        return mul(a, b)

    def counting_mul_all(a, block):
        for y in mul_all(a, block):
            count[0] += 1
            yield y

    g.mul = counting_mul
    if mul_all is not None:
        g.mul_all = counting_mul_all
    return count


def test_census_stops_closures_at_inadmissible_elements():
    # Sym(7) with pi = {2,3,5}: most closures the extension search tries
    # outgrow the Hall order 720 and hold a 7-cycle; stopping at the first
    # coset with one, instead of at the order limit, cuts the products to
    # under a third (about 121,000 against 534,000).  Most products come
    # from the batch kernel, so its products count as well as mul's.
    g = build_group("SYM", 7)
    count = _count_products(g)
    census = find_hall_subgroups(g, (2, 3, 5))
    assert census.class_count == 1 and len(census.halls_found) == 7
    assert count[0] < 300_000


@st.composite
def kernel_cases(draw):
    g = _small_group(*draw(st.sampled_from(
        [("SYM", n) for n in (2, 5, 7)] + [("ALT", 6), ("PSL3", 3)]
        + [(kind, p) for kind in ("SL2", "PSL2", "GL2", "PGL2") for p in (5, 7)])))
    a = draw(st.sampled_from(g.elements))
    return g, a, draw(st.lists(st.sampled_from(g.elements), max_size=30))


@given(kernel_cases())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_mul(case):
    g, a, xs = case
    expected = [g.mul(a, x) for x in xs]
    assert list(g.products(a, xs)) == expected
    if type(a) is bytes:
        assert list(_perm_mul_all(tuple(a), xs)) == expected  # a tuple left operand
    # the kernel reads its block as the block grows: a walk a, a^2, a^3, ...
    walk = [a]
    for y in g.products(a, walk):
        if len(walk) == 6:
            break
        walk.append(y)
    assert walk[1:] == [g.mul(a, y) for y in walk[:-1]]


@st.composite
def conjugation_cases(draw):
    g = _small_group(*draw(st.sampled_from(
        [("SYM", n) for n in (3, 4, 5)] + [("ALT", 5), ("ALT", 6)]
        + [("SL2", 3), ("SL2", 5), ("PSL2", 5), ("PSL2", 7), ("PGL2", 5)])))
    return g, tuple(draw(st.lists(st.sampled_from(g.elements), min_size=1, max_size=2)))


@given(conjugation_cases())
@settings(max_examples=100, deadline=None)
def test_memoized_conjugation_matches_products(case):
    g, gens = case
    sub = subgroup_closure(g, gens, g.order)
    own = {id(x) for x in g.elements}
    tables = g.conjugation_tables()
    assert len(tables) == len(g.generators)
    for s, table in zip(g.generators, tables):
        sinv = g.inverse(s)
        assert g.mul(s, sinv) == g.identity
        assert all(y == g.mul(g.mul(sinv, x), s) for x, y in table.items())
        # the images are the group's own element objects, not equal copies
        assert all(id(y) in own for y in table.values())
    orbit = _conjugacy_orbit(g, sub, gens)
    # the orbit under g.generators is the orbit under every element of g
    assert set(orbit) == {frozenset(g.mul(g.mul(g.inverse(c), x), c) for x in sub)
                          for c in g.elements}
    for image, witness in orbit.items():
        assert subgroup_closure(g, witness, len(image) + 1) == image
    # a second orbit search reads the same tables and finds the same orbit
    assert _conjugacy_orbit(g, sub, gens) == orbit


def test_build_group_shares_one_model():
    g, h = build_group("PSL2", 7), build_group("PSL2", 7)
    assert g is not h and g._owner is h._owner and g._owner is not g
    assert g.elements is h.elements
    assert g.order_table() is h.order_table()
    assert g._owner._tables[1] is h._owner._tables[1]  # the inverses
    assert g.conjugation_tables() is h.conjugation_tables()
    assert psl3_3_points().elements is psl3_3_points().elements


def test_wrapping_mul_reaches_neither_the_model_nor_other_groups():
    g, h = build_group("SYM", 5), build_group("SYM", 5)
    mul = g.mul
    g.mul = lambda x, y: mul(x, y)
    assert h.mul is mul and g._owner.mul is mul
    assert build_group("SYM", 5).mul is mul


@pytest.mark.parametrize("kind,param,limit", [("SYM", 7, 1_000), ("PGL2", 7, 100)])
def test_kept_model_still_meets_the_order_budget(kind, param, limit):
    g = build_group(kind, param)
    assert bruteforce._MODELS[kind, param] is g._owner
    with pytest.raises(BudgetExceeded):
        build_group(kind, param, Budget(max_group_order=limit))


def test_model_lives_as_long_as_its_groups():
    g, h = build_group("PGL2", 2), build_group("PGL2", 2)
    model = weakref.ref(g._owner)
    del g
    gc.collect()
    assert model() is h._owner
    del h
    gc.collect()
    assert model() is None and ("PGL2", 2) not in bruteforce._MODELS


def test_hall_order_one_census_is_the_trivial_subgroup():
    g = build_group("SYM", 5)
    census = find_hall_subgroups(g, (7,))
    trivial = SubgroupHandle(frozenset({g.identity}), ())
    assert census.hall_order == 1 and census.exhaustive
    assert census.classes == [[trivial]] and census.halls_found == [trivial]


# instances outside the default `pihall verify` list: the projective-plane
# model, GL2 and PGL2, pi-groups, Hall sets of odd order and empty censuses
PINNED_CENSUSES = [
    ("PSL3", 3, (2, 3)), ("PSL3", 3, (2, 13)), ("GL2", 5, (2, 3)), ("SYM", 6, (2, 3, 5)),
    ("PGL2", 11, (2, 3)), ("PGL2", 13, (2, 3)), ("PGL2", 7, (3, 7)), ("PSL2", 7, (3, 7)),
    ("PSL2", 13, (3, 13)), ("SL2", 11, (5, 11)), ("ALT", 7, (2, 5)), ("PSL2", 19, (2, 3, 5)),
    ("ALT", 6, (2, 3, 5)),
]
PINNED_CENSUS_SHA256 = "cbcaca3032d0803e623ca503ff9b758fb9f00e150214c2e5b8740c8666e60593"


def test_pinned_censuses_hash():
    # the export and every Hall set, sorted, for each instance
    payloads = []
    for kind, param, pi in PINNED_CENSUSES:
        g = psl3_3_points() if kind == "PSL3" else build_group(kind, param)
        census = find_hall_subgroups(g, pi)
        payloads.append({"census": census.to_dict(), "halls": sorted(
            [list(x) for x in sorted(h.elements)] for h in census.halls_found)})
    digest = hashlib.sha256(json.dumps(payloads, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_CENSUS_SHA256


# Sym and Alt of degree 5-7, the four matrix kinds at p = 5, 7, 11, 13 and
# PSL3(3), then a prime set holding pi(Sym(5)) and a single prime
REFERENCE_CENSUSES = [
    ("SYM", 5, (2, 3)), ("SYM", 6, (2, 3, 5)), ("SYM", 7, (2, 3, 5)),
    ("ALT", 5, (2, 3)), ("ALT", 6, (2, 3, 5)), ("ALT", 7, (2, 3)),
    *[(kind, p, (2, 3)) for kind in ("SL2", "PSL2", "GL2", "PGL2") for p in (5, 7, 11, 13)],
    ("PSL3", 3, (2, 3)), ("SYM", 5, (2, 3, 5, 7)), ("PSL2", 13, (3,)),
]


@pytest.mark.parametrize("kind,param,pi", REFERENCE_CENSUSES, ids=[
    f"{kind}-{param}-{','.join(map(str, pi))}" for kind, param, pi in REFERENCE_CENSUSES])
def test_double_coset_census_matches_left_coset_reference(kind, param, pi, monkeypatch,
                                                          reference_census):
    g = psl3_3_points() if kind == "PSL3" else build_group(kind, param)
    counts = []
    closure = bruteforce.subgroup_closure

    def counting_closure(*args, **kwargs):
        counts[-1] += 1
        return closure(*args, **kwargs)

    monkeypatch.setattr(bruteforce, "subgroup_closure", counting_closure)
    counts.append(0)
    census = find_hall_subgroups(g, pi)
    counts.append(0)
    reference = reference_census(g, pi)
    assert census.exhaustive and reference.exhaustive
    assert census.to_dict() == reference.to_dict()
    # every Hall set and witness, in order and class by class
    assert census.halls_found == reference.halls_found
    assert census.classes == reference.classes
    assert counts[0] <= counts[1]


def _elementary_abelian_16():
    """<(0 1), (2 3), (4 5), (6 7)>, built by hand: its Frattini quotient has rank 4."""
    identity = bytes(range(8))
    gens = [bytes(k ^ 1 if k // 2 == i else k for k in range(8)) for i in range(4)]
    elements = _closure(gens, _perm_mul, identity, 100, _perm_mul_all)
    return ConcreteGroup("C2^4", "PERM", elements, _perm_mul, identity, gens,
                         mul_all=_perm_mul_all)


def test_frattini_witness_matches_closure_search(reference_generator_witness):
    # every Sylow subgroup of the reference census groups, every p-subgroup
    # of SL2(5) and Sym(5), and a p-group whose witness is all of it
    cases = []
    for kind, param in dict.fromkeys((kind, param) for kind, param, _ in REFERENCE_CENSUSES):
        g = psl3_3_points() if kind == "PSL3" else build_group(kind, param)
        cases += [(g, sylow_subgroup(g, r)) for r, _ in factorize(g.order).factors]
    for kind, param in [("SL2", 5), ("SYM", 5)]:
        g = build_group(kind, param)
        for r in (2, 3, 5):
            cases += [(g, sub) for sub in pi_subgroup_lattice(g, (r,))[0]]
    g = _elementary_abelian_16()
    cases.append((g, frozenset(g.elements)))
    sizes = set()
    for g, sub in cases:
        witness = bruteforce._generator_witness(g, sub)
        assert witness == reference_generator_witness(g, sub)
        sizes.add(len(witness))
    # trivial, cyclic, two and three generators, and the whole subgroup
    assert sizes == {0, 1, 2, 3, 16}


def test_second_census_reads_the_seed_from_the_model(monkeypatch):
    calls = []
    grow = bruteforce.sylow_subgroup
    monkeypatch.setattr(bruteforce, "sylow_subgroup", lambda g, r: calls.append(r) or grow(g, r))
    gc.collect()
    assert ("PSL2", 23) not in bruteforce._MODELS
    results = []
    for _ in range(2):  # the second time round, on a model built again
        calls.clear()
        g = build_group("PSL2", 23)
        model = weakref.ref(g._owner)
        censuses = [find_hall_subgroups(g, (2, 3)), find_hall_subgroups(g, (2, 3)),
                    find_hall_subgroups(build_group("PSL2", 23), (2, 3))]
        assert calls == [2]
        results += [(c.to_dict(), c.classes, c.halls_found) for c in censuses]
        del g, censuses
        gc.collect()
        assert model() is None
    assert all(r == results[0] for r in results) and results[0][0]["class_count"] == 3
    # a group built by hand keeps its seeds on itself
    calls.clear()
    g = _elementary_abelian_16()
    assert [find_hall_subgroups(g, (2,)).class_count for _ in range(2)] == [1, 1]
    assert calls == [2] and g._seeds[2][0] == frozenset(g.elements)


@pytest.mark.parametrize("kind,param", [("PSL2", 23), ("ALT", 7)])
def test_seed_work_is_done_through_the_model(kind, param):
    gc.collect()
    assert (kind, param) not in bruteforce._MODELS
    g = build_group(kind, param)
    count = _count_products(g)
    seed = bruteforce._sylow_seed(g, 2)
    assert count == [0] and g._owner._seeds == {2: seed}
    assert seed[0] == sylow_subgroup(build_group(kind, param), 2)
    assert subgroup_closure(g, seed[1], len(seed[0]) + 1) == seed[0]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_scalar_canonical_is_least_multiple(p):
    for scalars in ([1, p - 1] if p > 2 else [1], list(range(1, p))):
        canon = _scalar_canonical(p, scalars)
        for x in product(range(p), repeat=4):
            if any(x):
                assert canon(x) == min(tuple(s * v % p for v in x) for s in scalars)


@st.composite
def group_elements(draw):
    g = _small_group(*draw(st.sampled_from(
        [("SYM", n) for n in range(3, 8)] + [("SL2", 2)]
        + [(kind, p) for kind in ("SL2", "PSL2", "GL2", "PGL2") for p in (3, 5, 7, 11, 13)
           if (kind, p) != ("PSL2", 3)])))
    return g, draw(st.lists(st.sampled_from(g.elements), min_size=1, max_size=8))


@given(group_elements())
@settings(max_examples=200, deadline=None)
def test_element_order_matches_power_count(case):
    # the orders a power walk caches for x^i are read back by later queries
    g, xs = case
    own = {id(x) for x in g.elements}
    for x in xs:
        y, n = x, 1
        while y != g.identity:
            y, n = g.mul(y, x), n + 1
        assert g.element_order(x) == n
        # the same walk gives the inverse, as the group's own element
        assert g.mul(x, g.inverse(x)) == g.identity and id(g.inverse(x)) in own


def _reference_lattice(g, pi):
    """The per-subgroup join fixpoint: every stored subgroup joined with every cyclic seed."""
    cap = pi_part(g.order, pi)
    elems = _orders_dividing(g, cap)
    admissible = frozenset(elems)
    seeds = {}
    for x in elems:
        seeds.setdefault(subgroup_closure(g, [x], cap), x)
    found = {sub: (x,) for sub, x in seeds.items()}
    frontier = list(found)
    while frontier:
        nxt = []
        for current in frontier:
            for seed, x in seeds.items():
                if seed <= current:
                    continue
                join = subgroup_closure(g, [x], cap + 1, current, found[current], admissible)
                if join is not None and join not in found:
                    found[join] = found[current] + (x,)
                    nxt.append(join)
        frontier = nxt
    return set(found)


# the last four hold subgroups that only joins reach: the perfect Alt(5)
# and SL2(5), and Alt(5) inside Sym(5), and PSL2(13)'s cyclic subgroups of
# order 6
@pytest.mark.parametrize("kind,param,pi", [
    ("SL2", 5, (2, 3)), ("SL2", 11, (2, 3)), ("SL2", 13, (2, 3)), ("PSL2", 7, (2, 3)),
    ("PSL2", 11, (2, 3, 5)), ("SYM", 4, (2, 3)), ("SYM", 5, (2, 3)), ("ALT", 6, (2, 3)),
    ("GL2", 5, (2, 3)), ("PGL2", 7, (2, 3)),
    ("ALT", 5, (2, 3, 5)), ("SL2", 5, (2, 3, 5)), ("SYM", 5, (2, 3, 5)), ("PSL2", 13, (2, 3)),
])
def test_lattice_from_class_representatives_matches_reference(kind, param, pi, monkeypatch,
                                                             is_conjugate_into):
    g = build_group(kind, param)
    lattice, exhaustive = pi_subgroup_lattice(g, pi)
    reference = _reference_lattice(g, pi)
    assert exhaustive is True
    assert len(lattice) == len(set(lattice)) and set(lattice) == reference
    census = find_hall_subgroups(g, pi)
    # the D_pi search's test, membership in some subgroup of the class,
    # against conjugating by every element of g
    for sub in lattice:
        for cls in census.classes:
            assert (any(sub <= h.elements for h in cls)
                    == is_conjugate_into(g, sub, cls[0].elements))
    got = find_dpi_counterexample(g, pi, census)
    monkeypatch.setattr(bruteforce, "pi_subgroup_lattice",
                        lambda *args: (list(reference), True))
    assert got.per_class == find_dpi_counterexample(g, pi, census).per_class


def test_lattice_budget_never_passes_a_partial_set():
    g = build_group("SL2", 5)
    full = set(pi_subgroup_lattice(g, (2, 3))[0])
    budgets = [Budget(max_closure_steps=n) for n in range(0, 400, 5)]
    budgets += [Budget(max_subgroups=n) for n in range(0, len(full) + 2)]
    outcomes = []
    for budget in budgets:
        lattice, exhaustive = pi_subgroup_lattice(g, (2, 3), budget)
        assert not exhaustive or set(lattice) == full
        outcomes.append(exhaustive)
    # tight budgets cut the search short, and ample ones let it finish
    for tight in (Budget(max_closure_steps=1), Budget(max_closure_steps=10),
                  Budget(max_subgroups=10), Budget(max_subgroups=len(full) - 1)):
        assert pi_subgroup_lattice(g, (2, 3), tight)[1] is False
    assert outcomes[-1] is True and outcomes[len(range(0, 400, 5)) - 1] is True


@pytest.mark.parametrize("kind,param", [("ALT", 8), ("SYM", 7)])
def test_dpi_search_answers_a_pi_group_at_once(kind, param):
    # every pi-subgroup of a pi-group lies in the group, its one Hall
    # subgroup, so the answer needs no lattice; building one until
    # Budget.max_subgroups stops it takes seconds for these groups
    g = build_group(kind, param)
    census = find_hall_subgroups(g, (2, 3, 5, 7))
    start = time.process_time()
    report = find_dpi_counterexample(g, (2, 3, 5, 7), census)
    assert time.process_time() - start < 1
    assert report.per_class == [None] and report.lattice_exhaustive is True


@pytest.mark.parametrize("kind,param,pi", [
    ("SL2", 5, (2, 3)), ("SL2", 5, (2, 3, 5)), ("SL2", 5, (5,)), ("PSL2", 13, (2, 3)),
    ("SYM", 5, (2, 3)), ("GL2", 5, (2, 3)), ("PGL2", 7, (3, 7)),
])
def test_lattice_seeds_are_the_zuppos(kind, param, pi, monkeypatch):
    # the seeds: every cyclic subgroup of prime-power order dividing |G|_pi,
    # the trivial one included, each closed from its least generator
    g = build_group(kind, param)
    cap = pi_part(g.order, pi)
    cyclic = {}
    for x in g.elements:
        if len(factorize(g.element_order(x)).factors) <= 1:
            cyclic.setdefault(subgroup_closure(g, [x], g.order), x)
    zuppos, zuppo_of = bruteforce._zuppos(g)
    assert zuppos == cyclic and list(zuppos) == list(cyclic)
    assert zuppo_of == {y: z for z in cyclic for y in z if g.element_order(y) == len(z)}
    # a seed's orbit is found from the seed alone, with its generator as the witness
    orbits = []
    orbit = bruteforce._conjugacy_orbit
    monkeypatch.setattr(bruteforce, "_conjugacy_orbit",
                        lambda g, sub, wit: orbits.append((sub, wit)) or orbit(g, sub, wit))
    lattice = set(pi_subgroup_lattice(g, pi)[0])
    seeds = [(sub, wit) for sub, wit in orbits if len(wit) == 1]
    assert all(cyclic[sub] == wit[0] for sub, wit in seeds)
    reached = set().union(*(orbit(g, sub, wit) for sub, wit in seeds))
    assert reached == {z for z in cyclic if cap % len(z) == 0} and reached <= lattice
    assert frozenset({g.identity}) in reached


@pytest.mark.parametrize("kind,param,other_pi", [("PSL2", 17, (2, 17)), ("ALT", 7, (2, 5))])
def test_lattice_reads_the_zuppos_from_the_model(kind, param, other_pi):
    gc.collect()
    assert (kind, param) not in bruteforce._MODELS
    results = []
    for _ in range(2):  # the second time round, on a model built again
        g, h = build_group(kind, param), build_group(kind, param)
        model = weakref.ref(g._owner)
        count, model_count = _count_products(g), _count_products(g._owner)
        zuppos = bruteforce._zuppos(g)
        # the zuppos are found through the model, which keeps them
        assert count == [0] and model_count[0] > 0
        assert zuppos is g._owner._zuppos and zuppos[0]
        # two lattices on groups of the same model, under other prime sets,
        # make no zuppo work: the model makes no product
        model_count[0] = 0
        lattices = [set(pi_subgroup_lattice(g, (2, 3))[0]),
                    set(pi_subgroup_lattice(h, other_pi)[0])]
        assert model_count == [0] and bruteforce._zuppos(h) == zuppos
        results.append(lattices)
        del g, h, zuppos
        gc.collect()
        assert model() is None
    assert results[0] == results[1]
    # a group built by hand keeps its zuppos on itself
    g = _elementary_abelian_16()
    zuppos, _ = bruteforce._zuppos(g)
    assert g._zuppos[0] is zuppos and len(zuppos) == 1 + 15


@pytest.mark.parametrize("kind,param,pi", [
    ("PSL2", 13, (2, 3, 5)), ("SL2", 13, (2, 3, 5)), ("SL2", 13, (2, 3)), ("SYM", 5, (2, 3)),
])
def test_census_shrinks_one_witness_per_class(kind, param, pi, monkeypatch, reference_census):
    g = build_group(kind, param)
    reference = reference_census(g, pi)
    shrunk = []
    shrink = bruteforce._minimal_witness
    monkeypatch.setattr(bruteforce, "_minimal_witness",
                        lambda g, gens, sub: shrunk.append(sub) or shrink(g, gens, sub))
    census = find_hall_subgroups(g, pi)
    assert census.to_dict() == reference.to_dict() and census.classes == reference.classes
    # one subgroup shrunk per class, the one that starts the class's orbit
    classes = [next(i for i, cls in enumerate(census.classes)
                    if any(h.elements == sub for h in cls)) for sub in shrunk]
    assert sorted(classes) == list(range(census.class_count))
