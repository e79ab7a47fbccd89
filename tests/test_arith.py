import importlib.util
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pihall.arith import (
    FactoredInt,
    PrimeSet,
    _cyclotomic_value,
    e_star,
    epsilon,
    factorize,
    is_prime,
    mult_order,
    pi_part,
    r_part,
    r_part_q_pow_minus_1,
    r_part_q_pow_minus_eta,
)

ODD_Q = [q for q in range(3, 50, 2)]
SMALL_R = [2, 3, 5, 7, 11, 13]


def direct_r_part(n: int, r: int) -> int:
    # independent oracle: repeated division
    out = 1
    n = abs(n)
    while n % r == 0:
        out *= r
        n //= r
    return out


def test_pi_part_examples():
    assert pi_part(48, (2, 3)) == 48
    assert pi_part(120, (2, 3)) == 24
    assert pi_part(1, (2, 3, 5)) == 1


def test_mult_order_examples():
    assert mult_order(7, 3) == 1
    assert mult_order(2, 7) == 3
    assert mult_order(7, 2) == 2
    assert mult_order(5, 2) == 1
    with pytest.raises(ValueError):
        mult_order(6, 3)


def test_e_star_examples():
    assert e_star(1) == 2
    assert e_star(4) == 4
    assert e_star(6) == 3


def test_r_part_q_pow_minus_1_examples():
    assert r_part_q_pow_minus_1(7, 4, 3) == 3
    assert direct_r_part(7**4 - 1, 3) == 3
    assert r_part_q_pow_minus_1(7, 1, 5) == 1
    assert r_part_q_pow_minus_1(3, 2, 2) == 8


def test_r_part_q_pow_minus_eta_examples():
    assert r_part_q_pow_minus_eta(5, 3, 3, 1) == 1
    assert r_part_q_pow_minus_eta(7, 2, 2, 1) == 16
    assert r_part_q_pow_minus_eta(5, 2, 3, -1) == 3


def test_epsilon_examples():
    assert epsilon(5) == 1
    assert epsilon(7) == -1
    assert epsilon(13) == 1
    with pytest.raises(ValueError):
        epsilon(8)


def test_factorize_examples():
    assert dict(factorize(168).factors) == {2: 3, 3: 1, 7: 1}
    assert dict(factorize(1).factors) == {}
    assert dict(factorize(5040).factors) == {2: 4, 3: 2, 5: 1, 7: 1}


def test_factorize_large_semiprime():
    n = 1000003 * 1000033
    assert dict(factorize(n).factors) == {1000003: 1, 1000033: 1}


def test_factored_int_invariants():
    with pytest.raises(ValueError):
        FactoredInt(12, ((2, 1), (3, 1)))  # does not multiply back
    with pytest.raises(ValueError):
        FactoredInt(4, ((4, 1),))  # key not prime


def test_prime_set():
    ps = PrimeSet([5, 2, 3])
    assert ps.sorted == (2, 3, 5)
    assert PrimeSet(ps) is ps  # already checked: not rebuilt
    with pytest.raises(ValueError):
        PrimeSet([4])


def test_closed_forms_match_direct_valuation_exhaustively():
    # every closed form equals the direct r-valuation of q^n - eta^n
    for q in ODD_Q:
        for r in SMALL_R:
            if math.gcd(q, r) != 1:
                continue
            for n in range(1, 13):
                for eta in (1, -1):
                    direct = direct_r_part(q**n - eta**n, r)
                    assert r_part_q_pow_minus_eta(q, n, r, eta) == direct, (q, n, r, eta)


def test_product_closed_form_odd_r():
    # the r-part of prod (q^i - 1), the shape of |SL_n(q)|_r, from the per-term
    # closed forms, with even q as well
    for q in (2, 3, 5, 7, 11, 49):
        for r in (3, 5, 7, 11, 13):
            if math.gcd(q, r) != 1:
                continue
            for n in range(1, 13):
                direct = direct_r_part(
                    math.prod(q**i - 1 for i in range(1, n + 1)), r
                )
                termwise = math.prod(r_part_q_pow_minus_1(q, i, r) for i in range(1, n + 1))
                assert termwise == direct, (q, n, r)


@given(
    a=st.integers(min_value=1, max_value=10**6),
    b=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=80, deadline=None)
def test_pi_part_multiplicative_over_coprime(a, b):
    if math.gcd(a, b) != 1:
        return
    pi = (2, 3, 5)
    assert pi_part(a * b, pi) == pi_part(a, pi) * pi_part(b, pi)


@given(
    q1=st.integers(min_value=1, max_value=2000),
    q2=st.integers(min_value=1, max_value=2000),
)
@settings(max_examples=80, deadline=None)
def test_epsilon_multiplicative(q1, q2):
    a, b = 2 * q1 + 1, 2 * q2 + 1
    assert epsilon(a) * epsilon(b) == epsilon(a * b)


@given(st.integers(min_value=2, max_value=10**7))
@settings(max_examples=60, deadline=None)
def test_factorize_roundtrip(n):
    f = factorize(n)
    assert math.prod(p**e for p, e in f.factors) == n
    assert all(is_prime(p) for p, _ in f.factors)


@given(
    q=st.sampled_from(ODD_Q),
    r=st.sampled_from(SMALL_R),
    n=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=120, deadline=None)
def test_product_is_termwise_product(q, r, n):
    # the r-part of prod (q^i - eta^i), the shape of |G|_r, is the product of
    # the per-term closed forms, up to n = 20
    if math.gcd(q, r) != 1:
        return
    for eta in (1, -1):
        term = 1
        for i in range(1, n + 1):
            term *= r_part_q_pow_minus_eta(q, i, r, eta)
        direct = direct_r_part(math.prod(q**i - eta**i for i in range(1, n + 1)), r)
        assert direct == term


def test_cyclotomic_factoring_matches_direct():
    # q^n - 1 is the product of Phi_d(q) over d | n, and q^n + 1 over d | 2n, d ∤ n;
    # prime_spectrum relies on both
    for q in (2, 3, 7, 13, 47):
        for n in (1, 2, 6, 12, 30):
            minus = [_cyclotomic_value(d, q) for d in range(1, n + 1) if n % d == 0]
            plus = [_cyclotomic_value(d, q) for d in range(1, 2 * n + 1)
                    if 2 * n % d == 0 and n % d != 0]
            assert math.prod(minus) == q**n - 1
            assert math.prod(plus) == q**n + 1


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and 13
# prime bases (Sorenson & Webster, Math. Comp. 86, 2017)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_psi12_and_psi13():
    assert not is_prime(PSI_12)
    assert not is_prime(PSI_13)


def test_factorize_splits_psi12():
    assert factorize(7 * PSI_12).factors == ((7, 1), (399165290221, 1), (798330580441, 1))


def test_is_prime_rejects_base2_and_lucas_pseudoprimes():
    strong_base2 = (2047, 3277, 4033, 4681, 8321, 3215031751)
    strong_lucas = (5459, 5777, 10877, 16109, 18971, 22499)
    assert not any(is_prime(n) for n in strong_base2 + strong_lucas)
    assert all(is_prime(p) for p in (2**61 - 1, 2**89 - 1, 2**127 - 1, 2**521 - 1))


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None, reason="needs sympy")
@given(st.one_of(
    st.integers(min_value=-5, max_value=10**6),
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=0, max_value=2**200),
))
@settings(max_examples=400, deadline=None)
def test_is_prime_agrees_with_sympy(n):
    import sympy

    assert is_prime(n) == sympy.isprime(n)


@given(
    n=st.integers(min_value=-(2**300), max_value=2**300).filter(bool),
    r=st.sampled_from(SMALL_R),
)
@settings(max_examples=200, deadline=None)
def test_r_part_matches_repeated_division(n, r):
    assert r_part(n, r) == direct_r_part(n, r)
