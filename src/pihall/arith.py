"""Exact number-theoretic kernels.

Everything here is plain integer arithmetic: Baillie-PSW primality,
factorization (trial division, then Pollard rho, cached per integer),
prime sets, r-parts and pi-parts of integers, epsilon(q) and cyclotomic
values Phi_d(q).  The closed forms for the r-part of q^n - 1 and
q^n - eta^n, with the multiplicative order they rest on, are kept as an
independent reference for |G|_r in the tests.

All functions are pure and use arbitrary-precision ints throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Tuple

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_TRIAL_LIMIT = 100_000


def is_prime(n: int) -> bool:
    """Baillie-PSW: a strong base-2 test plus a strong Lucas test.

    Selfridge's parameters (Baillie & Wagstaff, Math. Comp. 35, 1980); no
    composite is known to pass both, and none exists below 2^64.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return _strong_probable_prime_base2(n) and _strong_lucas_probable_prime(n)


def _strong_probable_prime_base2(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test for odd n > 47 with P = 1, Q = (1 - D)/4 and D the
    first of 5, -7, 9, -11, ... with (D/n) = -1."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D exists for a square
    d_sel = 5
    while True:
        j = _jacobi(d_sel, n)
        if j == -1:
            break
        if j == 0:
            return False  # gcd(|D|, n) > 1 and |D| < n
        d_sel = -d_sel - 2 if d_sel > 0 else -d_sel + 2
    q_sel = (1 - d_sel) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        return (x + n if x % 2 else x) // 2 % n

    # U_k, V_k and Q^k along the bits of d, from k = 1
    u, v, qk = 1, 1, q_sel % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(d_sel * u + v), qk * q_sel % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _pollard_rho(n: int) -> int:
    """Return a nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def _factor_into(n: int, out: Dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


@lru_cache(maxsize=None)
def _factor_cached(n: int) -> FactoredInt:
    factors: Dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    d = 53
    while d * d <= m and d <= _TRIAL_LIMIT:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 2
    if m > 1:
        _factor_into(m, factors)
    # checked once here; every later factorize(n) returns this same object
    return FactoredInt(n, tuple(sorted(factors.items())))


@dataclass(frozen=True)
class FactoredInt:
    """A positive integer together with its complete prime factorization."""

    value: int
    factors: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        for p, e in self.factors:
            if e < 1 or not is_prime(p):
                raise ValueError(f"bad factorization entry {p}^{e}")
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factorization of {self.value} does not multiply back")

    @property
    def primes(self) -> Tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in self.factors)


def factorize(n: int) -> FactoredInt:
    """Complete prime factorization (trial division, then Pollard rho)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    return _factor_cached(n)


def prime_divisors(n: int) -> Tuple[int, ...]:
    """pi(n): the primes dividing n, ascending."""
    return factorize(n).primes


class PrimeSet(frozenset):
    """A finite set of distinct primes; the pi of a pi-Hall query."""

    def __new__(cls, primes: Iterable[int]) -> "PrimeSet":
        if type(primes) is cls:
            return primes  # immutable and already checked
        ps = frozenset(int(p) for p in primes)
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        return super().__new__(cls, ps)

    @property
    def sorted(self) -> Tuple[int, ...]:
        return tuple(sorted(self))

    def __str__(self) -> str:
        return "{" + ",".join(str(p) for p in self.sorted) + "}"


def r_part(n: int, r: int) -> int:
    """The r-part n_r: the largest power of the prime r dividing n."""
    if n == 0:
        raise ValueError("r_part of zero is undefined")
    n = abs(n)
    if r == 2:
        return n & -n  # the lowest set bit, in one step however long n is
    out = 1
    while n % r == 0:
        n //= r
        out *= r
    return out


def pi_part(n: int, pi: Iterable[int]) -> int:
    """The pi-part n_pi: the largest divisor of n with all prime factors in pi."""
    if n < 1:
        raise ValueError("pi_part expects a positive integer")
    out = 1
    for p in sorted(set(pi)):
        out *= r_part(n, p)
    return out


def is_pi_number(n: int, pi: Iterable[int]) -> bool:
    return pi_part(n, pi) == n


def mult_order(q: int, r: int) -> int:
    """e(q, r): order of q mod r for odd r; the two-case rule at r = 2.

    For r = 2 the value is 1 when q = 1 (mod 4) and 2 when q = -1 (mod 4);
    this is the convention under which the closed forms below hold.
    """
    if math.gcd(q, r) != 1:
        raise ValueError(f"gcd({q},{r}) != 1")
    if r == 2:
        if q % 2 == 0:
            raise ValueError("q must be odd for r = 2")
        return 1 if q % 4 == 1 else 2
    order = r - 1
    for p, _ in factorize(r - 1).factors:
        while order % p == 0 and pow(q, order // p, r) == 1:
            order //= p
    return order


def e_star(e: int) -> int:
    """2e for odd e; e when e = 0 (mod 4); e/2 when e = 2 (mod 4)."""
    if e < 1:
        raise ValueError("e must be positive")
    if e % 2 == 1:
        return 2 * e
    if e % 4 == 0:
        return e
    return e // 2


def r_part_q_pow_minus_1(q: int, n: int, r: int) -> int:
    """(q^n - 1)_r by the closed form (q^e - 1)_r * (n/e)_r when e | n."""
    e = mult_order(q, r)
    if n % e == 0:
        return r_part(q**e - 1, r) * r_part(n // e, r)
    return 2 if r == 2 else 1


def r_part_q_pow_minus_eta(q: int, n: int, r: int, eta: int) -> int:
    """(q^n - eta^n)_r via the signed closed form (e* in place of e)."""
    if eta == 1:
        return r_part_q_pow_minus_1(q, n, r)
    if eta != -1:
        raise ValueError("eta must be +1 or -1")
    es = e_star(mult_order(q, r))
    if n % es == 0:
        return r_part(q**es - (-1) ** es, r) * r_part(n // es, r)
    return 2 if r == 2 else 1


def epsilon(q: int) -> int:
    """+1 if q = 1 (mod 4), -1 if q = 3 (mod 4); rejects even q."""
    if q % 2 == 0:
        raise ValueError("epsilon is defined for odd q only")
    return 1 if q % 4 == 1 else -1


@lru_cache(maxsize=None)
def _cyclotomic_value(n: int, q: int) -> int:
    """Phi_n(q) as an integer, by exact division of q^n - 1."""
    val = q**n - 1
    for d in range(1, n):
        if n % d == 0:
            val //= _cyclotomic_value(d, q)
    return val
