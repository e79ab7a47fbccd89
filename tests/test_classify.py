import math

import pytest

from pihall.arith import PrimeSet, pi_part
from pihall.classify import (
    BOUND_FULL,
    BOUND_NO_2,
    BOUND_NO_3,
    NO,
    OUT_OF_SCOPE,
    TAG_COVER,
    TAG_DEFINING,
    TAG_FULL,
    TAG_NO_2,
    TAG_NO_3,
    TAG_SMALL,
    YES,
    classify,
    kpi_bound_almost_simple,
    sym_hall_case,
)
from pihall.groups import (
    ALT,
    ISOMETRY,
    SYM,
    GroupSpec,
    format_group,
    order,
    parse_group,
    prime_spectrum,
    validate,
)
from pihall.structure import StructureError, structure_order


def rep(text, pi):
    return classify(parse_group(text), PrimeSet(pi))


P23 = PrimeSet((2, 3))
P235 = PrimeSet((2, 3, 5))


# --------------------------------------------------------------------------
# dispatcher regimes


def test_trivial_regimes():
    r = rep("PSL(2,7)", (2, 3, 7))
    assert (r.e_pi, r.k_pi, r.scope_tag, r.c_pi, r.d_pi) == (YES, 1, TAG_COVER, YES, YES)
    assert r.hall_order == 168

    r = rep("PSL(2,7)", (2, 11))
    assert (r.k_pi, r.scope_tag) == (1, TAG_SMALL)
    assert r.hall_order == 8
    assert r.classes[0].structure == "2^3"

    r = rep("PSL(2,7)", (11, 13))
    assert (r.k_pi, r.hall_order) == (1, 1)


def test_bound_regimes():
    r = rep("PSL(2,7)", (3, 7))
    assert (r.e_pi, r.k_bound, r.scope_tag) == (OUT_OF_SCOPE, BOUND_NO_2, TAG_NO_2)
    r = rep("PSL(2,11)", (2, 11))
    assert (r.e_pi, r.k_bound, r.scope_tag) == (OUT_OF_SCOPE, BOUND_NO_3, TAG_NO_3)


# --------------------------------------------------------------------------
# two-dimensional groups


SL2_EXPECT = {
    # q -> (k, case ids) for pi = {2,3}
    5: (1, {"sl2.b"}),
    7: (2, {"sl2.c"}),
    11: (2, {"sl2.a", "sl2.b"}),
    13: (2, {"sl2.a", "sl2.b"}),
    17: (0, set()),  # (q^2-1)_{2,3} = 288: no {2,3}-Hall subgroup at all
    29: (1, {"sl2.b"}),
    23: (3, {"sl2.a", "sl2.c"}),
    25: (3, {"sl2.a", "sl2.c"}),
}


def test_sl2_grid():
    for q, (k, cases) in SL2_EXPECT.items():
        r = rep(f"PSL(2,{q})", P23)
        assert r.k_pi == k, (q, r)
        assert {c.case_id for c in r.classes} == cases
        assert r.d_pi == NO
        r2 = rep(f"SL(2,{q})", P23)
        assert r2.k_pi == k
        assert r2.hall_order == 2 * r.hall_order


def test_sl2_alt5_case():
    r = rep("PSL(2,11)", P235)
    assert r.k_pi == 2
    assert r.classes[0].structure == "Alt(5)"
    assert r.hall_order == 60


def test_gl2():
    r = rep("GL(2,11)", P23)  # both dihedral and octahedral types
    assert r.k_pi == 2
    r = rep("GL(2,5)", P23)
    assert r.k_pi == 1 and r.classes[0].case_id == "gl2.b"
    r = rep("GL(2,7,-)", P23)
    assert r.e_pi == NO


# --------------------------------------------------------------------------
# linear and unitary


def test_linear_unitary_torus_case():
    r = rep("SU(3,7)", P23)
    assert r.k_pi == 1
    assert r.classes[0].case_id == "linear_unitary.b"
    # |SU3(7)|_{2,3} = 384
    assert r.hall_order == 384


def test_linear_unitary_exotic_dim4():
    r = rep("SU(4,67)", P235)
    assert r.k_pi == 2
    assert r.classes[0].structure == "4.2^4.Alt(6)"
    assert r.hall_order == 23040


def test_linear_unitary_dim11():
    r = rep("SL(11,5)", P23)
    assert r.k_pi == 3
    assert {c.case_id for c in r.classes} == {"linear_unitary.e", "linear_unitary.c"}


def test_linear_unitary_block_case_counts():
    # GL2(11) has two Hall classes; one orbit for Sym(2) tops
    r = rep("SL(4,11)", P23)
    assert r.k_pi == 2
    # two orbits at m = 5 gives the square
    r = rep("SL(10,11)", P23)
    assert r.k_pi == 4


def test_linear_unitary_existence_failure():
    r = rep("SL(5,7)", P235)
    assert r.e_pi == NO  # 5 divides |SL5(7)| but the block conditions fail


# --------------------------------------------------------------------------
# symplectic


def test_symplectic_examples():
    r = rep("Sp(4,7)", P23)
    assert r.k_pi == 2
    r = rep("PSp(10,7)", P23)
    assert r.k_pi == 4  # k(SL2(7)) = 2, two orbits
    r = rep("PSp(10,23)", P23)
    assert r.k_pi == 9  # k(SL2(23)) = 3, two orbits
    r = rep("Sp(4,7)", P235)
    assert r.e_pi == NO  # 5 divides |Sp4(7)| but not q^2-1


def test_symplectic_nine_requires_conditions():
    r = rep("PSp(10,23)", P23)
    assert pi_part(23**2 - 1, (2, 3)) == 48
    assert r.k_pi == 9
    # n = 4 never reaches 9: only one orbit
    r = rep("PSp(8,23)", P23)
    assert r.k_pi == 3  # Sym(4) Hall is transitive: t = 1


# --------------------------------------------------------------------------
# orthogonal


def test_orthogonal_dim3_matches_sl2():
    for q in (5, 7, 11, 13):
        table = rep(f"O(3,{q})", P23)
        psl = rep(f"PSL(2,{q})", P23)
        assert table.k_pi == psl.k_pi, q
        assert table.hall_order == psl.hall_order
        assert table.e_pi == psl.e_pi


def test_orthogonal_dim5_matches_symplectic():
    for q in (5, 7, 11, 13):
        table = rep(f"O(5,{q})", P23)
        sp = rep(f"PSp(4,{q})", P23)
        assert table.k_pi == sp.k_pi, q
        assert table.hall_order == sp.hall_order, q


def test_orthogonal_dim6_matches_linear_unitary():
    for q in (5, 7, 11, 13):
        for sign, partner in (("+", "SL"), ("-", "SU")):
            table = rep(f"O{sign}(6,{q})", P23)
            lu = rep(f"{partner}(4,{q})", P23)
            assert table.k_pi == lu.k_pi, (q, sign)
            assert 2 * table.hall_order == lu.hall_order, (q, sign)


def test_orthogonal_dim4_minus_matches_psl2_squared():
    for q in (5, 7, 11, 13):
        table = rep(f"O-(4,{q})", P23)
        psl = rep(f"PSL(2,{q * q})", P23)
        assert table.k_pi == psl.k_pi, q
        assert table.hall_order == psl.hall_order, q


def test_orthogonal_dim4_plus_is_sl2_square():
    for q in (5, 7, 11, 13, 23):
        table = rep(f"O+(4,{q})", P23)
        k = rep(f"SL(2,{q})", P23).k_pi
        assert table.k_pi == k * k, q
    # the icosahedral analogue: q = 61 pairs the dihedral and binary-icosahedral types
    table = rep("O+(4,61)", P235)
    k = rep("SL(2,61)", P235).k_pi
    assert k == 3 and table.k_pi == 9


def test_orthogonal_dim2():
    r = rep("O+(2,7)", P23)  # cyclic of order 3: pi covers it
    assert (r.k_pi, r.c_pi, r.d_pi) == (1, YES, YES)
    assert r.hall_order == pi_part((7 - 1) // 2, (2, 3))
    r = rep("O+(2,61)", P23)  # cyclic of order 30: the table row
    assert (r.k_pi, r.c_pi, r.d_pi) == (1, YES, YES)
    assert r.classes[0].case_id == "orthogonal2.a"
    assert r.hall_order == pi_part((61 - 1) // 2, (2, 3))


def test_orthogonal_dim12_minus():
    r = rep("O-(12,13)", P23)
    assert r.k_pi == 3
    by_case = {c.case_id: c.class_count for c in r.classes}
    assert by_case == {"orthogonal.c": 1, "orthogonal.e": 2}


def test_orthogonal_dim11():
    r = rep("O(11,13)", P23)
    assert r.k_pi == 2
    assert {c.case_id for c in r.classes} == {"orthogonal.a", "orthogonal.d"}


def test_orthogonal_exotic_constants():
    # q = 173 satisfies all the prime-part conditions in dimensions 7, 8, 9
    pi = PrimeSet((2, 3, 5, 7))
    r = rep("O(7,173)", pi)
    assert r.k_pi == 2
    assert r.classes[0].structure == "Omega7(2)"
    assert r.hall_order == 2**9 * 3**4 * 5 * 7
    r = rep("O+(8,173)", pi)
    assert r.k_pi == 4
    assert r.classes[0].structure == "2.Omega8+(2)"
    r = rep("PO+(8,173)", pi)
    assert r.k_pi == 4
    assert r.classes[0].structure == "Omega8+(2)"
    assert r.hall_order == 2**12 * 3**5 * 5**2 * 7
    r = rep("O(9,173)", pi)
    assert r.k_pi == 2
    assert r.classes[0].structure == "2.Omega8+(2).2"
    # q = 13 fails the 7-part condition (7 divides q^2 - 1)
    r = rep("O(7,13)", pi)
    assert all(c.case_id != "orthogonal.f" for c in r.classes)


def test_orthogonal_torus_cases_large():
    r = rep("O+(8,13)", P23)
    assert r.k_pi == 1
    assert r.classes[0].case_id == "orthogonal.b"
    # wrong sign: eta must be eps^m
    r = rep("O-(8,13)", P23)
    assert all(c.case_id != "orthogonal.b" for c in r.classes)


# --------------------------------------------------------------------------
# exceptional


def test_g2_exotic():
    r = rep("G2(11)", (2, 3, 7))
    assert r.k_pi == 1
    assert r.classes[0].structure == "G2(2)"
    assert r.hall_order == 12096


def test_g2_torus():
    r = rep("G2(13)", P23)
    assert r.k_pi == 1
    assert r.classes[0].case_id == "g2.b"


def test_f4_torus():
    r = rep("F4(13)", P23)
    assert r.k_pi == 1


def test_e7_needs_5_and_7():
    r = rep("E7(13)", P23)
    assert r.e_pi == NO
    # q = 421: q - eps = 420 = 2^2 3 5 7
    r = rep("E7(421)", (2, 3, 5, 7))
    assert r.k_pi == 1


def test_e6_five_condition():
    # eta = eps needs 5 in pi; q=13: eps=+1, q-1=12
    r = rep("E6(13)", P23)
    assert r.e_pi == NO
    r = rep("E6(13,-)", P23)
    assert r.k_pi == 1


def test_3d4_torus():
    r = rep("3D4(13)", P23)
    assert r.k_pi == 1


# --------------------------------------------------------------------------
# symmetric / alternating


def test_sym_cases():
    assert rep("Sym(7)", (2, 3)).classes[0].structure == "Sym(3) x Sym(4)"
    assert rep("Sym(11)", (2, 3)).e_pi == NO
    assert rep("Sym(7)", (2, 3, 5)).classes[0].structure == "Sym(6)"
    assert rep("Sym(8)", (2, 3)).classes[0].structure == "Sym(4) wr Sym(2)"
    assert rep("Sym(5)", (2, 3)).classes[0].structure == "Sym(4)"
    assert rep("Sym(6)", (2, 3)).e_pi == NO


def test_alt_mirrors_sym():
    for n in range(5, 13):
        for pi in (P23, P235):
            s = classify(GroupSpec(SYM, n=n, variant=ISOMETRY), pi)
            a = classify(GroupSpec(ALT, n=n), pi)
            assert s.e_pi == a.e_pi, (n, pi)
            assert s.k_pi == a.k_pi
            if s.e_pi == YES and 2 in pi:
                assert s.classes[0].structure_order == 2 * a.classes[0].structure_order


def test_sym_d_pi():
    assert rep("Sym(7)", (2, 3)).d_pi == NO
    assert rep("Sym(7)", (2, 3, 5, 7)).d_pi == YES  # whole group
    assert rep("Alt(7)", (2, 3)).d_pi == NO


def test_sym_hall_orbit_counts():
    assert sym_hall_case(4, P23).orbit_count == 1
    assert sym_hall_case(5, P23).orbit_count == 2
    assert sym_hall_case(7, P23).orbit_count == 2
    assert sym_hall_case(8, P23).orbit_count == 1
    assert sym_hall_case(7, P235).orbit_count == 2  # point stabilizer
    assert sym_hall_case(7, PrimeSet((2, 3, 5, 7))).orbit_count == 1
    assert sym_hall_case(6, P23) is None


# --------------------------------------------------------------------------
# sporadic


def test_sporadic_table_rows():
    r = rep("M11", P23)
    assert r.k_pi == 1 and r.classes[0].structure == "3^2:Q8.2"
    assert r.hall_order == 144
    r = rep("M23", P235)
    assert r.k_pi == 2
    r = rep("J1", P23)
    assert r.classes[0].structure == "2 x Alt(4)"
    r = rep("M23", (2, 3, 5, 7, 11))
    assert r.k_pi == 1 and r.classes[0].structure == "M22"


def test_sporadic_completeness_no_rows():
    r = rep("M12", P23)
    assert r.e_pi == NO
    r = rep("Co1", P235)
    assert r.e_pi == NO


def test_sporadic_j1_two_seven():
    r = rep("J1", (2, 7))
    assert r.k_pi == 1 and r.classes[0].structure == "2^3:7"
    assert r.hall_order == 56


def test_sporadic_hall_orders_match_table():
    for (name, gpi), rows in __import__("pihall.classify", fromlist=["x"]).SPORADIC_HALL_TABLE.items():
        spec = validate(parse_group(name))
        expected = pi_part(order(spec), gpi)
        for s in rows:
            assert structure_order(s) == expected, (name, gpi, s)


# --------------------------------------------------------------------------
# defining characteristic


def test_defining_char_psl_flags():
    r = rep("PSL(3,3)", (2, 3))
    assert r.scope_tag == TAG_DEFINING
    assert r.k_pi == 2
    assert r.hall_order == 432
    r = rep("PSL(5,2)", (2, 3))
    assert r.k_pi == 3
    r = rep("PSL(2,8)", (2, 3, 7))
    assert r.scope_tag == TAG_COVER and r.k_pi == 1


def test_defining_char_borel():
    # PSL(2,4): {2,3}-Hall = point stabilizer = Borel, order 12
    r = rep("PSL(2,4)", (2, 3))
    assert r.scope_tag == TAG_DEFINING
    assert r.k_pi == 1
    assert r.classes[0].case_id == "defining.borel"
    assert r.hall_order == 12
    r = rep("PSL(2,16)", (2, 3, 5))
    assert r.k_pi == 1 and r.hall_order == 240
    # PSL(2,9): pattern matches but the Borel is too small -> unresolved
    r = rep("PSL(2,9)", (2, 3))
    assert r.scope_tag == TAG_DEFINING
    assert r.k_pi is None


def test_defining_char_flag_agrees_with_cross_characteristic_twin():
    # PSL(3,2) and PSL(2,7) are the same simple group; the defining- and
    # cross-characteristic paths must agree on k and the Hall order
    flag = rep("PSL(3,2)", (2, 3))
    cross = rep("PSL(2,7)", (2, 3))
    assert flag.k_pi == cross.k_pi == 2
    assert flag.hall_order == cross.hall_order == 24


def test_defining_char_orthogonal_parabolic():
    r = rep("O+(10,2)", (2, 3, 5, 7))
    assert r.k_pi == 1
    assert r.classes[0].case_id == "defining.parabolic"


def test_defining_char_out_of_scope():
    r = rep("PSp(4,3)", (2, 3, 7))
    assert r.scope_tag == TAG_DEFINING
    assert r.k_pi is None and r.k_bound == BOUND_FULL


def test_borel_index_identity():
    # |S| / |B| must equal prod (q^d_i - 1) / (q-1)^rank, independent of isogeny
    from pihall.classify import _borel_pi_part

    cases = [
        ("PSL(2,9)", (2,), [2]),
        ("PSp(4,3)", (3,), [2, 4]),
        ("PSL(4,3)", (3,), [2, 3, 4]),
        ("G2(3)", (3,), [2, 6]),
    ]
    for text, pi_all, degrees in cases:
        spec = validate(parse_group(text))
        q = spec.q
        full_pi = PrimeSet(prime_spectrum(spec))
        b = _borel_pi_part(spec, full_pi)
        total = order(spec)
        rank = len(degrees)
        expected_index = math.prod(q**d - 1 for d in degrees) // (q - 1) ** rank
        assert total % b == 0
        assert total // b == expected_index, text


def test_borel_pi_part_matches_textbook_orders():
    # a split group's Borel has order q^N (q-1)^r / |Z|: N positive roots,
    # rank r (r + 1 for GL2), and the centre Z of the simply connected cover
    # divided out in the simple group; twisted groups have no Borel of this shape
    from pihall.classify import _borel_pi_part

    cases = [
        ("PSL(2,7)", 7 * 6 // 2),
        ("PSL(3,4)", 4**3 * 3**2 // 3),
        ("SL(3,5)", 5**3 * 4**2),
        ("GL(2,4)", 4 * 3**2),
        ("GL(2,7)", 7 * 6**2),
        ("SL(2,4,-)", 4 * 3),  # SU(2,q) = SL(2,q)
        ("PSp(4,3)", 3**4 * 2**2 // 2),
        ("Sp(6,5)", 5**9 * 4**3),
        ("O(7,3)", 3**9 * 2**3 // 2),
        ("O+(8,3)", 3**12 * 2**4 // 2),
        ("PO+(8,3)", 3**12 * 2**4 // 4),
        ("G2(3)", 3**6 * 2**2),
        ("E6(4)", 4**36 * 3**6 // 3),
        ("E8(3)", 3**120 * 2**8),
    ]
    for text, borel in cases:
        spec = validate(parse_group(text))
        assert _borel_pi_part(spec, prime_spectrum(spec)) == borel, text
    # (16 - 1)^2 = 225 has {2,3}-part 9
    assert _borel_pi_part(validate(parse_group("GL(2,16)")), P23) == 16 * 9
    for text in ("PSL(3,4,-)", "GL(2,5,-)", "O-(8,3)", "E6(4,-)", "3D4(2)", "2G2(27)"):
        assert _borel_pi_part(validate(parse_group(text)), P235) is None, text

    r = rep("GL(2,4)", (2, 3))
    assert (r.scope_tag, r.k_pi, r.hall_order) == (TAG_DEFINING, 1, 36)
    assert r.classes[0].case_id == "defining.borel"


# --------------------------------------------------------------------------
# small Ree groups


def test_small_ree_two_seven():
    r = rep("2G2(27)", (2, 7))
    assert r.k_pi == 2
    assert r.scope_tag == TAG_NO_3
    assert {c.structure for c in r.classes} == {"Z(28) : 2", "2^3:7"}
    assert r.hall_order == 56


def test_small_ree_other_pi_is_bounded():
    r = rep("2G2(27)", (2, 13))
    assert r.k_bound == BOUND_NO_3


# --------------------------------------------------------------------------
# induced bounds


def test_kpi_bound_examples():
    b = kpi_bound_almost_simple(parse_group("PSp(10,23)"), P23, "any")
    assert b.bound == (1, 9)
    b = kpi_bound_almost_simple(parse_group("PSL(2,7)"), PrimeSet((3, 7)), "any")
    assert b.bound == BOUND_NO_2
    b = kpi_bound_almost_simple(parse_group("Alt(7)"), P23, "any")
    assert b.exact == 1
    b = kpi_bound_almost_simple(parse_group("PSL(2,7)"), P23, "trivial")
    assert b.exact == 2
    # nonisomorphic Hall subgroups cannot fuse under outer automorphisms
    b = kpi_bound_almost_simple(parse_group("2G2(27)"), PrimeSet((2, 7)), "any")
    assert b.exact == 2
    # an exact socle value caps the induced count
    b = kpi_bound_almost_simple(parse_group("PSL(2,7)"), P23, "any")
    assert b.bound == (0, 1, 2)


# --------------------------------------------------------------------------
# report structure soundness


def sweep_sample_reports():
    reports = []
    for text in [
        "PSL(2,5)", "PSL(2,7)", "PSL(2,11)", "PSL(2,13)", "PSL(2,23)", "PSL(2,25)",
        "SL(2,7)", "SL(2,23)", "SU(3,7)", "SL(3,5)", "SL(4,11)", "SL(11,5)",
        "PSU(4,67)", "Sp(4,7)", "PSp(10,23)", "Sp(10,7)",
        "O(3,7)", "O+(4,7)", "O-(4,7)", "O(5,7)", "O+(6,13)", "O-(6,13)",
        "O(7,173)", "O+(8,173)", "O(9,173)", "O+(8,13)", "O(11,13)", "O-(12,13)",
        "G2(11)", "G2(13)", "F4(13)", "E6(13,-)", "E7(421)", "3D4(13)",
        "Sym(7)", "Sym(8)", "Alt(7)", "M11", "M23", "J1", "2G2(27)",
        "PSL(3,3)", "PSL(5,2)", "O+(10,2)",
    ]:
        for pi in (P23, P235, PrimeSet((2, 3, 7)), PrimeSet((2, 3, 5, 7))):
            reports.append(classify(parse_group(text), pi))
    return reports


def test_descriptor_order_soundness():
    """Each emitted class structure has the pi-part the report promises."""
    for r in sweep_sample_reports():
        for c in r.classes:
            assert pi_part(c.structure_order, r.pi) == r.hall_order, (
                format_group(r.spec), sorted(r.pi), c.case_id, c.structure,
            )
            if not c.structure.startswith("Hall(") and c.case_id not in (
                "trivial.whole_group",
            ):
                assert structure_order(c.structure) == c.structure_order, c


def test_report_invariants_hold_across_sample():
    for r in sweep_sample_reports():
        if r.k_pi is not None:
            assert (r.e_pi == YES) == (r.k_pi >= 1)
            assert sum(c.class_count for c in r.classes) == r.k_pi
            assert (r.c_pi == YES) == (r.k_pi == 1) or r.c_pi == OUT_OF_SCOPE
            if r.d_pi == YES:
                assert r.c_pi == YES
        else:
            assert r.k_bound is not None
        for c in r.classes:
            assert c.class_count >= 1
            assert all(cond.value for cond in c.conditions)


def test_exceptional_always_single_class():
    for text in ["G2(11)", "G2(13)", "F4(13)", "E6(13,-)", "E7(421)", "3D4(13)"]:
        for pi in (P23, PrimeSet((2, 3, 7)), PrimeSet((2, 3, 5, 7))):
            r = classify(parse_group(text), pi)
            if r.k_pi is not None and r.scope_tag == TAG_FULL:
                assert r.k_pi in (0, 1), (text, pi)


def test_symmetric_answers_outside_the_23_regime():
    # the symmetric/alternating classification is complete for every pi
    r = rep("Alt(5)", (2, 5))
    assert r.e_pi == NO and r.scope_tag == TAG_NO_3
    r = rep("Sym(5)", (3, 5))
    assert r.e_pi == NO and r.scope_tag == TAG_NO_2
    r = rep("Sym(7)", (5, 7))
    assert r.e_pi == NO
    r = rep("Sym(9)", (3,))  # Sylow regime caught upstream
    assert r.k_pi == 1 and r.scope_tag == TAG_SMALL
    r = rep("Alt(9)", (2, 3, 5, 7))
    assert r.k_pi == 1  # pi covers pi(G)


def test_full_grid_descriptor_soundness():
    """Every descriptor the default sweep grid ever emits is order-sound."""
    from pihall.cli import DEFAULT_PI_LIST, default_grid_specs, parse_pi, run_sweep

    reports, _ = run_sweep(default_grid_specs(30, 8), [parse_pi(t) for t in DEFAULT_PI_LIST])
    for r in reports:
        for c in r.classes:
            assert pi_part(c.structure_order, r.pi) == r.hall_order, (
                format_group(r.spec), sorted(r.pi), c.case_id, c.structure,
            )
            if not c.structure.startswith("Hall(") and c.case_id != "trivial.whole_group":
                assert structure_order(c.structure) == c.structure_order, c.structure


@pytest.mark.parametrize("text", ["PSL(11,1097,-)", "E8(10007)", "PSL(12,100003)"])
def test_classify_never_factors_the_group_order(text, monkeypatch):
    from pihall import arith, groups

    def refuse(n):
        raise AssertionError(f"Pollard rho called on {n}")

    monkeypatch.setattr(arith, "_pollard_rho", refuse)
    groups._spec_facts.cache_clear()
    arith._factor_cached.cache_clear()
    spec = validate(parse_group(text))
    report = classify(spec, PrimeSet((2, 3)))
    assert report.scope_tag == TAG_FULL
    assert report.hall_order == pi_part(order(spec), (2, 3))


def test_one_facts_object_per_spec(monkeypatch):
    """PSL(3,5) under the four default prime sets: {2,3} and {2,3,7} also ask
    GL(2,5) through the block-diagonal rule, and the two specs are each
    given one facts object, however many queries read them."""
    from pihall import groups
    from pihall.cli import DEFAULT_PI_LIST, parse_pi

    built = []
    real = groups._SpecFacts
    monkeypatch.setattr(groups, "_SpecFacts", lambda spec: built.append(spec) or real(spec))
    groups._spec_facts.cache_clear()
    spec = validate(parse_group("PSL(3,5)"))
    reports = [classify(spec, parse_pi(t)) for t in DEFAULT_PI_LIST]
    assert [[c.case_id for c in r.classes] for r in reports] == [
        ["linear_unitary.b", "linear_unitary.c"], ["defining.flag(1, 2)"]] * 2
    gl2 = GroupSpec("LinearUnitary", n=2, q=5, eta=1, variant="general")
    assert built == [spec, gl2]
    groups._spec_facts.cache_clear()
