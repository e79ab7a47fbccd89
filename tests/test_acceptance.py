"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single PASS line when its criterion holds; pytest's
own per-test verdict doubles as the machine-readable outcome.
"""

import math
import sys
import time

from pihall.arith import PrimeSet, is_pi_number, pi_part, r_part_q_pow_minus_eta
from pihall.bruteforce import (
    build_group,
    find_dpi_counterexample,
    find_hall_subgroups,
)
from pihall.classify import YES, classify
from pihall.cli import DEFAULT_PI_LIST, check_sweep_invariants, default_grid_specs, parse_pi, run_sweep
from pihall.extension import burnside_orbits, cyclic_perm, kpi_wreath_cyclic
from pihall.groups import order, parse_group, prime_spectrum, validate
from pihall.structure import structure_order


def _ok(capfd, n: int, elapsed: float, detail: str) -> None:
    # step around the capture so the line shows up in every run
    with capfd.disabled():
        print(f"ACCEPTANCE CRITERION {n}: PASS ({elapsed:.2f}s) - {detail}")
        sys.stdout.flush()


def direct_r_part(n: int, r: int) -> int:
    out = 1
    n = abs(n)
    while n % r == 0:
        out *= r
        n //= r
    return out


def test_criterion_1_arithmetic_oracle_equivalence(capfd):
    t0 = time.time()
    checked = 0
    for q in range(3, 50, 2):
        for r in (2, 3, 5, 7, 11, 13):
            if math.gcd(q, r) != 1:
                continue
            for n in range(1, 13):
                for eta in (1, -1):
                    direct = direct_r_part(q**n - eta**n, r)
                    assert r_part_q_pow_minus_eta(q, n, r, eta) == direct
                    checked += 1
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"criterion 1 exceeded 5s: {elapsed:.2f}s"
    _ok(capfd, 1, elapsed, f"{checked} closed-form r-parts equal direct valuation")


def test_criterion_2_psl27_class_number(capfd):
    t0 = time.time()
    report = classify(parse_group("PSL(2,7)"), PrimeSet((2, 3)))
    assert report.k_pi == 2 and report.hall_order == 24
    g = build_group("PSL2", 7)
    census = find_hall_subgroups(g, (2, 3))
    assert census.class_count == 2
    assert census.hall_order == 24
    assert all(h.order == 24 for h in census.halls_found)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _ok(capfd, 2, elapsed, "k=2 with order-24 Hall subgroups, both symbolically and by census")


GRID_EXPECT = {
    # (kind, q, pi) -> (classes, hall order); SL2 rows double the order
    ("PSL2", 5, (2, 3)): (1, 12),
    ("PSL2", 7, (2, 3)): (2, 24),
    ("PSL2", 11, (2, 3)): (2, 12),
    ("PSL2", 13, (2, 3)): (2, 12),
    ("PSL2", 7, (2, 3, 5)): (2, 24),
    ("PSL2", 11, (2, 3, 5)): (2, 60),
    ("PSL2", 13, (2, 3, 5)): (2, 12),
}


def test_criterion_3_bruteforce_oracle_grid(capfd):
    t0 = time.time()
    for (kind, q, pi), (k, hall) in sorted(GRID_EXPECT.items()):
        for variant, head, factor in (("PSL2", "PSL", 1), ("SL2", "SL", 2)):
            g = build_group(variant, q)
            census = find_hall_subgroups(g, pi)
            report = classify(parse_group(f"{head}(2,{q})"), PrimeSet(pi))
            assert census.class_count == k == report.k_pi, (variant, q, pi)
            assert census.hall_order == hall * factor == report.hall_order
            assert (report.e_pi == YES) == (census.class_count > 0)
            assert census.exhaustive
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _ok(capfd, 3, elapsed, "PSL2/SL2 grid q in {5,7,11,13}: census and classifier agree")


def test_criterion_4_symmetric_groups(capfd):
    t0 = time.time()
    sym7 = build_group("SYM", 7)
    census = find_hall_subgroups(sym7, (2, 3))
    assert census.hall_order == 144 and census.class_count == 1
    report = classify(parse_group("Sym(7)"), PrimeSet((2, 3)))
    assert report.classes[0].structure == "Sym(3) x Sym(4)"
    # the found Hall acts with orbits {3, 4}, the direct-product shape
    rep_hall = census.classes[0][0].elements
    orbits = []
    seen = set()
    for pt in range(7):
        if pt in seen:
            continue
        orbit = {pt}
        frontier = [pt]
        while frontier:
            x = frontier.pop()
            for g in rep_hall:
                y = g[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        orbits.append(len(orbit))
    assert sorted(orbits) == [3, 4]

    sym5 = build_group("SYM", 5)
    census5 = find_hall_subgroups(sym5, (2, 3))
    assert census5.hall_order == 24 and census5.class_count == 1

    sym6 = build_group("SYM", 6)
    census6 = find_hall_subgroups(sym6, (2, 3))
    assert census6.class_count == 0
    assert classify(parse_group("Sym(6)"), PrimeSet((2, 3))).e_pi == "no"
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _ok(capfd, 4, elapsed, "Sym(7)/Sym(5) Hall census matches; Sym(6) has none")


def test_criterion_5_wreath_formula(capfd):
    t0 = time.time()
    assert kpi_wreath_cyclic(2, 7) == 20
    assert burnside_orbits(2, [cyclic_perm(7)]) == 20
    for k in range(1, 7):
        for p in (2, 3, 5, 7):
            assert (k**p + (p - 1) * k) % p == 0
            assert kpi_wreath_cyclic(k, p) == burnside_orbits(k, [cyclic_perm(p)])
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _ok(capfd, 5, elapsed, "cyclic-top class count 20 confirmed; integrality on the full grid")


def test_criterion_6_sporadic_table(capfd):
    t0 = time.time()
    from pihall.classify import SPORADIC_HALL_TABLE

    r = classify(parse_group("M11"), PrimeSet((2, 3)))
    assert r.k_pi == 1 and r.classes[0].structure == "3^2:Q8.2"
    r = classify(parse_group("M23"), PrimeSet((2, 3, 5)))
    assert r.k_pi == 2
    r = classify(parse_group("J1"), PrimeSet((2, 3)))
    assert r.k_pi == 1 and r.classes[0].structure == "2 x Alt(4)"
    for (name, gpi), rows in SPORADIC_HALL_TABLE.items():
        spec = validate(parse_group(name))
        expected = pi_part(order(spec), gpi)
        for s in rows:
            assert structure_order(s) == expected, (name, gpi, s)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _ok(capfd, 6, elapsed, "all sporadic table rows reproduced with exact Hall orders")


def test_criterion_7_class_number_sweep(capfd):
    t0 = time.time()
    specs = default_grid_specs(50, 12)
    pi_list = [parse_pi(t) for t in DEFAULT_PI_LIST]
    reports, skipped = run_sweep(specs, pi_list)
    violations = check_sweep_invariants(reports)
    assert violations == [], violations[:10]
    nine_rows = [r for r in reports if r.k_pi == 9]
    assert nine_rows, "the sweep must contain the wreath-type k=9 instances"
    for r in nine_rows:
        assert r.spec.family == "Symplectic"
        n_half = r.spec.n // 2
        assert n_half in (5, 7)
        gpi = frozenset(r.pi) & prime_spectrum(r.spec)
        q = r.spec.q
        if gpi == frozenset((2, 3)):
            assert pi_part(q * q - 1, (2, 3)) == 48
        else:
            assert gpi == frozenset((2, 3, 5))
            assert pi_part(q * q - 1, (2, 3, 5)) == 120
    exact = [r for r in reports if r.k_pi is not None]
    for r in exact:
        if r.k_pi >= 1:
            assert is_pi_number(r.k_pi, r.pi)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _ok(
        capfd, 7, elapsed,
        f"{len(reports)} cells: every exact k in {{0,1,2,3,4,9}}, positive k a pi-number, "
        f"k=9 only at the symplectic wreath instances ({len(nine_rows)} rows)",
    )


ISO_PAIRS = [
    # (orthogonal text template, partner template, valid q, hall-order ratio uses 2-part)
    ("O(3,{q})", "PSL(2,{q})", (5, 7, 9, 11, 13), 1),
    ("O(5,{q})", "PSp(4,{q})", (3, 5, 7, 9, 11, 13), 1),
    ("O-(4,{q})", "PSL(2,{qq})", (3, 5, 7, 9, 11, 13), 1),
    ("O+(6,{q})", "SL(4,{q})", (3, 5, 7, 9, 11, 13), 2),
    ("O-(6,{q})", "SU(4,{q})", (3, 5, 7, 9, 11, 13), 2),
    ("PSU(2,{q})", "PSL(2,{q})", (4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64), 1),
]

PI_SUBSETS = [(2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)]


def test_criterion_8_isomorphism_consistency(capfd):
    t0 = time.time()
    compared = 0
    for left_t, right_t, qs, cover in ISO_PAIRS:
        for q in qs:
            left = validate(parse_group(left_t.format(q=q)))
            right = validate(parse_group(right_t.format(q=q, qq=q * q)))
            for pi in PI_SUBSETS:
                ps = PrimeSet(pi)
                lrep = classify(left, ps)
                rrep = classify(right, ps)
                assert lrep.e_pi == rrep.e_pi, (left_t, q, pi)
                assert lrep.k_pi == rrep.k_pi, (left_t, q, pi)
                assert lrep.k_bound == rrep.k_bound
                ratio = pi_part(cover, ps)
                assert lrep.hall_order * ratio == rrep.hall_order, (left_t, q, pi)
                compared += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _ok(capfd, 8, elapsed, f"{compared} comparisons across the {len(ISO_PAIRS)} isomorphism pairs agree")


def test_criterion_9_dpi_refutation_witnesses(capfd, is_conjugate_into):
    t0 = time.time()
    for p in (5, 13):
        g = build_group("SL2", p)
        census = find_hall_subgroups(g, (2, 3))
        witnesses = find_dpi_counterexample(g, (2, 3), census)
        assert witnesses.refuted, f"no witness for SL2({p})"
        for w, cls in zip(witnesses.per_class, census.classes):
            assert w is not None
            assert not is_conjugate_into(g, w.elements, cls[0].elements)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _ok(capfd, 9, elapsed, "SL2(5) and SL2(13) both yield subgroups avoiding each Hall class")
