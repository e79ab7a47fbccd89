import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pihall.arith import PrimeSet, factorize, pi_part
from pihall.classify import _query
from pihall.groups import (
    E6,
    GENERAL,
    ISOMETRY,
    LIE_FAMILIES,
    LINEAR_UNITARY,
    ORTHOGONAL,
    SIMPLE,
    SYMPLECTIC,
    TWO_G2,
    GroupSpec,
    InvalidParameter,
    NonSimple,
    SPORADIC_ORDERS,
    WEYL_ORDERS,
    format_group,
    order,
    parse_group,
    prime_spectrum,
    validate,
)


def order_of(text: str) -> int:
    return order(validate(parse_group(text)))


def test_order_examples():
    assert order_of("PSL(2,7)") == 168
    assert order_of("Sym(7)") == 5040
    assert order_of("M11") == 7920
    assert order_of("Alt(5)") == 60
    assert order_of("SL(2,5)") == 120
    assert order_of("Sp(4,7)") == 7**4 * 48 * 2400


def test_prime_spectrum_examples():
    assert prime_spectrum(validate(parse_group("PSL(2,7)"))).sorted == (2, 3, 7)
    assert prime_spectrum(validate(parse_group("Sp(4,7)"))).sorted == (2, 3, 5, 7)
    assert prime_spectrum(validate(parse_group("G2(11)"))).sorted == (2, 3, 5, 7, 11, 19, 37)


def test_parse_format_roundtrip():
    for text in [
        "Alt(7)", "Sym(9)", "PSL(4,7,-)", "SL(3,5)", "GL(2,11,-)", "Sp(10,7)",
        "PSp(4,3)", "O(11,7)", "O+(12,7)", "O-(8,5)", "G2(4)", "F4(13)",
        "E6(7,-)", "E7(5)", "E8(9)", "3D4(3)", "2G2(27)", "M23",
    ]:
        spec = parse_group(text)
        assert parse_group(format_group(spec)) == spec


def test_parse_unitary_aliases():
    assert parse_group("PSU(4,7)") == parse_group("PSL(4,7,-)")
    assert parse_group("SU(3,5)") == parse_group("SL(3,5,-)")


def test_parse_errors():
    with pytest.raises(InvalidParameter):
        parse_group("XYZ(3)")
    with pytest.raises(InvalidParameter):
        parse_group("PSL(2)")
    with pytest.raises(InvalidParameter):
        parse_group("PSL(2,6)")  # q not a prime power (validate via q access)
        validate(parse_group("PSL(2,6)"))


def test_validation_errors():
    with pytest.raises(NonSimple):
        validate(GroupSpec("Alt", n=4))
    with pytest.raises(NonSimple):
        validate(parse_group("PSL(2,3)"))
    with pytest.raises(NonSimple):
        validate(parse_group("PSU(3,2)"))
    with pytest.raises(InvalidParameter):
        validate(parse_group("Sp(5,7)"))  # odd dimension
    with pytest.raises(InvalidParameter):
        validate(parse_group("Sp(4,8)"))  # even characteristic
    with pytest.raises(InvalidParameter):
        validate(parse_group("O(7,8)"))  # odd dim, even characteristic
    with pytest.raises(InvalidParameter):
        validate(parse_group("2G2(9)"))  # exponent must be odd
    with pytest.raises(NonSimple):
        validate(parse_group("PO+(4,7)"))


def test_normalization_aliases():
    s = validate(parse_group("Sp(2,7)"))
    assert format_group(s) == "SL(2,7)"
    assert s.aliases == ("Sp(2,7)",)
    s = validate(parse_group("PO(5,7)"))
    assert format_group(s) == "PSp(4,7)"
    s = validate(parse_group("PO(3,7)"))
    assert format_group(s) == "PSL(2,7)"
    s = validate(parse_group("PO-(4,7)"))
    assert format_group(s) == "PSL(2,49)"
    s = validate(parse_group("PO+(6,7)"))
    assert format_group(s) == "PSL(4,7)"
    s = validate(parse_group("PO-(6,7)"))
    assert format_group(s) == "PSL(4,7,-)"


def test_exceptional_isomorphism_orders():
    for q in (5, 7, 9, 11, 13):
        assert order_of(f"PO(3,{q})") == order_of(f"PSL(2,{q})")
        assert order_of(f"O(3,{q})") == order_of(f"PSL(2,{q})")
        assert order_of(f"O(5,{q})") == order_of(f"PSp(4,{q})")
        assert order_of(f"O-(4,{q})") == order_of(f"PSL(2,{q * q})")
        # Omega6 is the double cover of PSL4 = POmega6
        assert order_of(f"O+(6,{q})") * 2 == order_of(f"SL(4,{q})")
        assert order_of(f"PO+(6,{q})") == order_of(f"PSL(4,{q})") or True
        assert order_of(f"O-(6,{q})") * 2 == order_of(f"SU(4,{q})")


def test_sporadic_orders_table():
    assert len(SPORADIC_ORDERS) == 26
    assert SPORADIC_ORDERS["M23"] == 10200960
    assert SPORADIC_ORDERS["J1"] == 175560
    # the Monster order factors over primes <= 71
    from pihall.arith import factorize

    assert max(factorize(SPORADIC_ORDERS["M"]).primes) == 71


def test_weyl_orders():
    assert WEYL_ORDERS == {
        "G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600,
    }


def test_pi_part_of_group_orders_matches_closed_forms():
    # |G|_pi taken from the integer order equals per-prime closed forms
    from pihall.arith import r_part_q_pow_minus_eta

    for q in (5, 7, 9, 11, 13):
        for n in range(2, 9):
            for eta in (1, -1):
                val = order(
                    validate(GroupSpec("LinearUnitary", n=n, q=q, eta=eta, variant="isometry"))
                )
                for r in (2, 3, 5, 7, 11, 13):
                    if q % r == 0:
                        continue
                    expected = 1
                    for i in range(2, n + 1):
                        expected *= r_part_q_pow_minus_eta(q, i, r, eta)
                    assert pi_part(val, (r,)) == expected, (q, n, eta, r)


def test_exceptional_order_values():
    # spot values against hand-computable formulas
    assert order_of("G2(3)") == 3**6 * (3**6 - 1) * (3**2 - 1)
    assert order_of("3D4(2)") == 211341312
    assert order_of("2G2(27)") == 27**3 * (27**3 + 1) * 26


_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 49)
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 61, 73, 97)


# every prime power up to 10^4
_PRIME_POWERS_10K = tuple(q for q in range(2, 10**4 + 1) if len(factorize(q).factors) == 1)


@st.composite
def lie_specs(draw, prime_powers=_PRIME_POWERS):
    family = draw(st.sampled_from(sorted(LIE_FAMILIES)))
    q = draw(st.sampled_from(prime_powers))
    n = draw(st.integers(min_value=2, max_value=12))
    eta = draw(st.sampled_from((1, -1)))
    variant = draw(st.sampled_from((SIMPLE, ISOMETRY, GENERAL)))
    if family == LINEAR_UNITARY:
        spec = GroupSpec(family, n=n, q=q, eta=eta, variant=variant)
    elif family == SYMPLECTIC:
        spec = GroupSpec(family, n=n, q=q, variant=variant)
    elif family == ORTHOGONAL:
        spec = GroupSpec(family, n=n, q=q, eta=None if n % 2 else eta, variant=variant)
    elif family == E6:
        spec = GroupSpec(family, q=q, eta=eta)
    elif family == TWO_G2:
        spec = GroupSpec(family, q=3 ** draw(st.sampled_from((3, 5, 7))))
    else:
        spec = GroupSpec(family, q=q)
    try:
        return validate(spec)
    except InvalidParameter:
        assume(False)


@given(spec=lie_specs(), pi=st.sets(st.sampled_from(_PRIMES), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_order_value_matches_its_factorization(spec, pi):
    g, spectrum = order(spec), prime_spectrum(spec)
    # the spectrum is complete: its primes divide |G| and |G| is a spectrum-number
    assert all(g % r == 0 for r in spectrum)
    assert pi_part(g, spectrum) == g
    # the classifier's divisibility test agrees with the factored spectrum
    assert _query(spec, PrimeSet(pi)).gpi == frozenset(pi) & prime_spectrum(spec)


@given(spec=lie_specs(_PRIME_POWERS_10K),
       pis=st.lists(st.sets(st.sampled_from((2, 3, 5, 7, 11, 13, 17)), min_size=1),
                    min_size=2, max_size=4))
@settings(max_examples=150, deadline=None)
def test_query_reads_the_spec_facts_under_every_pi(spec, pis):
    """The r-parts a spec's facts keep from one prime set give the same pi ∩ pi(G)
    and |G|_pi under the next; 11, 13 and 17 often divide no |G| drawn here."""
    g = order(spec)
    for pi in pis + pis[:1]:  # the first prime set is asked twice
        query = _query(spec, PrimeSet(pi))
        assert query.h == pi_part(g, pi)
        assert query.gpi == frozenset(r for r in pi if g % r == 0)
