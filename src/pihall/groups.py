"""Symbolic model of the group families under classification.

A GroupSpec names a family plus parameters (degree/dimension n, field size
q = p^a, sign eta, variant).  validate() enforces the parameter invariants
and rewrites small classical groups along the exceptional isomorphisms so
that downstream classifiers see one canonical family; order() produces the
exact group order from its formula, kept with the other facts of the spec
that classify reads under every pi, and prime_spectrum() factors only the
formula's cyclotomic pieces.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional, Tuple

from pihall.arith import (
    PrimeSet,
    _cyclotomic_value,
    epsilon,
    factorize,
    is_prime,  # not called here; perfbench's tracer test reads groups.is_prime
    prime_divisors,
    r_part,
)

ALT = "Alt"
SYM = "Sym"
SPORADIC = "Sporadic"
LINEAR_UNITARY = "LinearUnitary"
SYMPLECTIC = "Symplectic"
ORTHOGONAL = "Orthogonal"
G2 = "G2"
F4 = "F4"
E6 = "E6"
E7 = "E7"
E8 = "E8"
TRI_D4 = "3D4"
TWO_G2 = "2G2"

LIE_FAMILIES = frozenset(
    {LINEAR_UNITARY, SYMPLECTIC, ORTHOGONAL, G2, F4, E6, E7, E8, TRI_D4, TWO_G2}
)

SIMPLE = "simple"
ISOMETRY = "isometry"
GENERAL = "general"

WEYL_ORDERS = {"G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600}

# name -> order of the 26 sporadic simple groups
SPORADIC_ORDERS = {
    "M11": 7920,
    "M12": 95040,
    "M22": 443520,
    "M23": 10200960,
    "M24": 244823040,
    "J1": 175560,
    "J2": 604800,
    "J3": 50232960,
    "J4": 86775571046077562880,
    "Co1": 4157776806543360000,
    "Co2": 42305421312000,
    "Co3": 495766656000,
    "Fi22": 64561751654400,
    "Fi23": 4089470473293004800,
    "Fi24'": 1255205709190661721292800,
    "HS": 44352000,
    "McL": 898128000,
    "He": 4030387200,
    "Ru": 145926144000,
    "Suz": 448345497600,
    "ON": 460815505920,
    "HN": 273030912000000,
    "Ly": 51765179004000000,
    "Th": 90745943887872000,
    "B": 4154781481226426191177580544000000,
    "M": 808017424794512875886459904961710757005754368000000000,
}

_SPORADIC_ALIASES = {"FI24": "Fi24'", "FI24'": "Fi24'", "O'N": "ON", "F24": "Fi24'"}


class InvalidParameter(ValueError):
    """A GroupSpec violates a structural invariant; carries the rule id."""

    def __init__(self, rule: str, message: str) -> None:
        self.rule = rule
        super().__init__(f"[{rule}] {message}")


class NonSimple(InvalidParameter):
    """variant 'simple' was requested for a tuple that is not simple."""

    def __init__(self, message: str) -> None:
        super().__init__("non-simple", message)


@dataclass(frozen=True)
class GroupSpec:
    family: str
    n: Optional[int] = None
    q: Optional[int] = None
    eta: Optional[int] = None  # +1 / -1; None renders the empty sign for odd dim
    variant: str = SIMPLE
    sporadic_name: Optional[str] = None
    aliases: Tuple[str, ...] = field(default=(), compare=False)

    @property
    def p(self) -> Optional[int]:
        if self.q is None:
            return None
        return _prime_power(self.q)[0]

    @property
    def field_exponent(self) -> Optional[int]:
        if self.q is None:
            return None
        return _prime_power(self.q)[1]

    def name(self) -> str:
        return format_group(self)


@lru_cache(maxsize=None)
def _prime_power(q: int) -> Tuple[int, int]:
    """Split q = p^a; raises if q is not a prime power."""
    if q < 2:
        raise InvalidParameter("prime-power", f"q = {q} is not a prime power")
    f = factorize(q).factors
    if len(f) != 1:
        raise InvalidParameter("prime-power", f"q = {q} is not a prime power")
    return f[0]


def _sign_str(eta: Optional[int]) -> str:
    if eta is None:
        return ""
    return "+" if eta == 1 else "-"


def format_group(spec: GroupSpec) -> str:
    """Canonical text form, the same grammar parse_group accepts."""
    f, n, q, eta = spec.family, spec.n, spec.q, spec.eta
    if f == ALT:
        return f"Alt({n})"
    if f == SYM:
        return f"Sym({n})"
    if f == SPORADIC:
        return spec.sporadic_name or "?"
    if f == LINEAR_UNITARY:
        if spec.variant == GENERAL:
            return f"GL({n},{q},{_sign_str(eta)})"
        head = "PSL" if spec.variant == SIMPLE else "SL"
        if eta == 1:
            return f"{head}({n},{q})"
        return f"{head}({n},{q},-)"
    if f == SYMPLECTIC:
        head = "PSp" if spec.variant == SIMPLE else "Sp"
        return f"{head}({n},{q})"
    if f == ORTHOGONAL:
        head = "PO" if spec.variant == SIMPLE else "O"
        if eta is None:
            return f"{head}({n},{q})"
        return f"{head}{_sign_str(eta)}({n},{q})"
    if f == E6:
        return f"E6({q},{_sign_str(eta)})"
    if f in (G2, F4, E7, E8):
        return f"{f}({q})"
    if f == TRI_D4:
        return f"3D4({q})"
    if f == TWO_G2:
        return f"2G2({q})"
    raise InvalidParameter("family", f"unknown family {f}")


_GROUP_RE = re.compile(r"^\s*([0-9A-Za-z']+?)([+-]?)\s*\(([^)]*)\)\s*$")


def parse_group(text: str) -> GroupSpec:
    """Parse the canonical grammar: Alt(7), PSL(4,7,-), O+(12,7), 2G2(27), M23, ..."""
    bare = text.strip()
    key = bare.upper()
    for name in SPORADIC_ORDERS:
        if name.upper() == key:
            return GroupSpec(SPORADIC, sporadic_name=name)
    if key in _SPORADIC_ALIASES:
        return GroupSpec(SPORADIC, sporadic_name=_SPORADIC_ALIASES[key])

    m = _GROUP_RE.match(bare)
    if not m:
        raise InvalidParameter("grammar", f"cannot parse group {text!r}")
    head, headsign, argtext = m.group(1), m.group(2), m.group(3)
    args = [a.strip() for a in argtext.split(",")] if argtext.strip() else []

    def intarg(i: int) -> int:
        try:
            return int(args[i])
        except (IndexError, ValueError):
            raise InvalidParameter("grammar", f"bad arguments in {text!r}") from None

    def signarg(i: int, default: Optional[int]) -> Optional[int]:
        if len(args) <= i:
            return default
        s = args[i]
        if s in ("+", "+1", "1"):
            return 1
        if s in ("-", "-1"):
            return -1
        raise InvalidParameter("grammar", f"bad sign {s!r} in {text!r}")

    h = head.upper()
    if h in ("ALT", "A") and not headsign:
        return GroupSpec(ALT, n=intarg(0))
    if h in ("SYM", "S") and not headsign:
        return GroupSpec(SYM, n=intarg(0))
    # PGL and PGU have no spec of their own, so they are not read as GL and GU
    if h in ("PSL", "SL", "PSU", "SU", "GL", "GU"):
        n = intarg(0)
        q = intarg(1)
        if h in ("PSU", "SU", "GU"):
            eta = -1
        else:
            eta = signarg(2, 1)
        if h in ("GL", "GU"):
            variant = GENERAL
        elif h in ("PSL", "PSU"):
            variant = SIMPLE
        else:
            variant = ISOMETRY
        return GroupSpec(LINEAR_UNITARY, n=n, q=q, eta=eta, variant=variant)
    if h in ("PSP", "SP"):
        return GroupSpec(
            SYMPLECTIC,
            n=intarg(0),
            q=intarg(1),
            variant=SIMPLE if h == "PSP" else ISOMETRY,
        )
    if h in ("O", "PO", "OMEGA", "POMEGA"):
        n = intarg(0)
        q = intarg(1)
        eta = {"+": 1, "-": -1, "": None}[headsign]
        if eta is None:
            eta = signarg(2, None)
        variant = SIMPLE if h.startswith("P") else ISOMETRY
        return GroupSpec(ORTHOGONAL, n=n, q=q, eta=eta, variant=variant)
    if h == "E6":
        return GroupSpec(E6, q=intarg(0), eta=signarg(1, 1 if headsign != "-" else -1))
    if h in ("G2", "F4", "E7", "E8") and not headsign:
        return GroupSpec(h, q=intarg(0))
    if h == "3D4" and not headsign:
        return GroupSpec(TRI_D4, q=intarg(0))
    if h == "2G2" and not headsign:
        return GroupSpec(TWO_G2, q=intarg(0))
    raise InvalidParameter("grammar", f"unknown group head {head!r} in {text!r}")


def _with_alias(spec: GroupSpec, old: GroupSpec) -> GroupSpec:
    return replace(spec, aliases=old.aliases + (format_group(old),))


def validate(spec: GroupSpec) -> GroupSpec:
    """Enforce parameter invariants and normalize exceptional isomorphisms.

    Returns a (possibly rewritten) spec; the alias chain records every
    rewriting step for display.  Raises InvalidParameter / NonSimple.
    """
    f = spec.family
    if f == SYM:
        if spec.n is None or spec.n < 2:
            raise InvalidParameter("sym-degree", "Sym(n) needs n >= 2")
        if spec.variant == SIMPLE:
            # Sym_n is never simple; accepted as a classification target only.
            return replace(spec, variant=ISOMETRY)
        return spec
    if f == ALT:
        if spec.n is None or spec.n < 3:
            raise InvalidParameter("alt-degree", "Alt(n) needs n >= 3")
        if spec.variant == SIMPLE and spec.n < 5:
            raise NonSimple(f"Alt({spec.n}) is not simple")
        return spec
    if f == SPORADIC:
        if spec.sporadic_name not in SPORADIC_ORDERS:
            raise InvalidParameter("sporadic-name", f"unknown sporadic {spec.sporadic_name!r}")
        return spec

    if f not in LIE_FAMILIES:
        raise InvalidParameter("family", f"unknown family {f!r}")
    if spec.q is None:
        raise InvalidParameter("lie-q", "Lie-type specs need q")
    p, _ = _prime_power(spec.q)
    n, q = spec.n, spec.q

    if f == LINEAR_UNITARY:
        if n is None or n < 2:
            raise InvalidParameter("linear-dim", "linear/unitary groups need n >= 2")
        if spec.eta not in (1, -1):
            raise InvalidParameter("linear-sign", "linear/unitary sign must be +/-")
        if spec.variant == GENERAL and n != 2:
            raise InvalidParameter("general-dim", "GL/GU variant is supported for n = 2 only")
        if spec.variant == SIMPLE:
            if (n, q, spec.eta) in ((2, 2, 1), (2, 2, -1), (2, 3, 1), (2, 3, -1), (3, 2, -1)):
                raise NonSimple(f"{format_group(spec)} is not simple")
        return spec

    if f == SYMPLECTIC:
        if n is None or n < 2 or n % 2 != 0:
            raise InvalidParameter("symplectic-dim", "Sp(n,q) needs even n >= 2")
        if q % 2 == 0:
            raise InvalidParameter("symplectic-char", "Sp(n,q) is modeled for odd q only")
        if n == 2:
            # Sp_2 = SL_2
            new = GroupSpec(LINEAR_UNITARY, n=2, q=q, eta=1, variant=spec.variant)
            return validate(_with_alias(new, spec))
        return spec

    if f == ORTHOGONAL:
        if n is None or n < 2:
            raise InvalidParameter("orthogonal-dim", "O(n,q) needs n >= 2")
        if n % 2 == 1:
            if spec.eta is not None:
                raise InvalidParameter("orthogonal-sign", "odd-dimensional O(n,q) takes no sign")
            if q % 2 == 0:
                raise InvalidParameter("orthogonal-char", "odd-dimensional O(n,q) needs odd q")
        else:
            if spec.eta not in (1, -1):
                raise InvalidParameter("orthogonal-sign", "even-dimensional O needs sign +/-")
        if n == 2:
            if spec.variant == SIMPLE:
                raise NonSimple("O(2) groups are cyclic, not simple")
            return spec
        if spec.variant == SIMPLE:
            if n == 3:
                if q <= 3:
                    raise NonSimple(f"O(3,{q}) is solvable")
                new = GroupSpec(LINEAR_UNITARY, n=2, q=q, eta=1, variant=SIMPLE)
                return validate(_with_alias(new, spec))
            if n == 4 and spec.eta == 1:
                raise NonSimple("PO+(4,q) is not simple")
            if n == 4 and spec.eta == -1:
                new = GroupSpec(LINEAR_UNITARY, n=2, q=q * q, eta=1, variant=SIMPLE)
                return validate(_with_alias(new, spec))
            if n == 5:
                new = GroupSpec(SYMPLECTIC, n=4, q=q, variant=SIMPLE)
                return validate(_with_alias(new, spec))
            if n == 6:
                new = GroupSpec(LINEAR_UNITARY, n=4, q=q, eta=spec.eta, variant=SIMPLE)
                return validate(_with_alias(new, spec))
        return spec

    if f == E6:
        if spec.eta not in (1, -1):
            raise InvalidParameter("e6-sign", "E6 needs sign +/-")
        return spec
    if f == G2:
        if q < 3:
            raise NonSimple("G2(2) is not simple")
        return spec
    if f == TWO_G2:
        pp, a = _prime_power(q)
        if pp != 3 or a % 2 == 0 or a < 3:
            raise InvalidParameter("ree-field", "2G2 needs q = 3^(2k+1) with k >= 1")
        return spec
    if f in (F4, E7, E8, TRI_D4):
        return spec
    raise InvalidParameter("family", f"unknown family {f!r}")


@dataclass(frozen=True)
class OrderFormula:
    """|G| = q^q_exp * prod(q^i - s for (i, s) in terms, s = +1 or -1)
    * prod(Phi_d(q) for d in cyclotomic) / divisor.  Only 3D4 has cyclotomic
    factors: q^8 + q^4 + 1 = Phi_3 Phi_6 Phi_12."""

    q: int
    q_exp: int
    terms: Tuple[Tuple[int, int], ...]
    divisor: int = 1
    cyclotomic: Tuple[int, ...] = ()

    def value(self) -> int:
        q = self.q
        out = q**self.q_exp * math.prod(q**i - s for i, s in self.terms)
        out *= math.prod(_cyclotomic_value(d, q) for d in self.cyclotomic)
        if out % self.divisor:
            raise ValueError(f"{self.divisor} does not divide {out}")
        return out // self.divisor


# exceptional family -> (power of q, degrees i of the factors q^i - 1)
_EXCEPTIONAL_DEGREES = {
    G2: (6, (2, 6)),
    F4: (24, (2, 6, 8, 12)),
    E7: (63, (2, 6, 8, 10, 12, 14, 18)),
    E8: (120, (2, 8, 12, 14, 18, 20, 24, 30)),
}


def _lie_formula(spec: GroupSpec) -> OrderFormula:
    f, n, q, eta = spec.family, spec.n, spec.q, spec.eta
    if f == LINEAR_UNITARY:
        terms = tuple((i, eta**i) for i in range(2, n + 1))
        if spec.variant == ISOMETRY:
            return OrderFormula(q, n * (n - 1) // 2, terms)
        if spec.variant == GENERAL:
            return OrderFormula(q, n * (n - 1) // 2, terms + ((1, eta),))
        return OrderFormula(q, n * (n - 1) // 2, terms, math.gcd(n, q - eta))
    if f == SYMPLECTIC:
        m = n // 2
        terms = tuple((2 * i, 1) for i in range(1, m + 1))
        if spec.variant == ISOMETRY:
            return OrderFormula(q, m * m, terms)
        return OrderFormula(q, m * m, terms, math.gcd(2, q - 1))
    if f == ORTHOGONAL:
        m = n // 2
        if n % 2 == 1:
            # Omega has index 2 in SO for odd q; the simple group equals Omega
            terms = tuple((2 * i, 1) for i in range(1, m + 1))
            return OrderFormula(q, m * m, terms, 2)
        terms = ((m, eta),) + tuple((2 * i, 1) for i in range(1, m))
        divisor = math.gcd(2, q - 1)
        if spec.variant == ISOMETRY or n <= 2:
            return OrderFormula(q, m * (m - 1), terms, divisor)
        centre = math.gcd(4, q**m - eta) // divisor
        return OrderFormula(q, m * (m - 1), terms, divisor * max(centre, 1))
    if f in _EXCEPTIONAL_DEGREES:
        top, degrees = _EXCEPTIONAL_DEGREES[f]
        divisor = math.gcd(2, q - 1) if f == E7 else 1
        return OrderFormula(q, top, tuple((i, 1) for i in degrees), divisor)
    if f == E6:
        terms = tuple((i, 1) for i in (2, 6, 8, 12)) + ((5, eta), (9, eta))
        return OrderFormula(q, 36, terms, math.gcd(3, q - eta))
    if f == TRI_D4:
        return OrderFormula(q, 12, ((6, 1), (2, 1)), cyclotomic=(3, 6, 12))
    if f == TWO_G2:
        return OrderFormula(q, 3, ((3, -1), (1, 1)))
    raise InvalidParameter("family", f"no order formula for {f!r}")


def _exact_order(spec: GroupSpec) -> int:
    f, n = spec.family, spec.n
    if f == SYM:
        return math.factorial(n)
    if f == ALT:
        return math.factorial(n) // 2
    if f == SPORADIC:
        return SPORADIC_ORDERS[spec.sporadic_name]
    return _lie_formula(spec).value()


class _SpecFacts:
    """What every query of one validated spec reads, whatever its pi: |G|, q,
    its characteristic p, eps = epsilon(q) (None unless q is odd), and |G|_r
    for each prime r asked for so far, found on the first request.

    For odd q it also holds the parts of q that the cross-characteristic
    Hall subgroups of PSL2(q) turn on (Dickson): (q^2-1)_{2,3}, (q^2-1)_{2,3,5},
    (q-eps)_{2,3} and (q-eps)_{2,3,5}; None otherwise."""

    __slots__ = ("order", "q", "p", "eps", "part23", "part235", "torus23", "torus235", "_r_parts")

    def __init__(self, spec: GroupSpec) -> None:
        self.order = _exact_order(spec)
        q = self.q = spec.q
        self.p = spec.p
        self.eps = self.part23 = self.part235 = self.torus23 = self.torus235 = None
        if q is not None and q % 2:
            self.eps = epsilon(q)
            square, torus = q * q - 1, q - self.eps
            self.part23 = r_part(square, 2) * r_part(square, 3)
            self.part235 = self.part23 * r_part(square, 5)
            self.torus23 = r_part(torus, 2) * r_part(torus, 3)
            self.torus235 = self.torus23 * r_part(torus, 5)
        self._r_parts = {}

    def r_part(self, r: int) -> int:
        """|G|_r, divided out of |G| on the first request for r and kept."""
        part = self._r_parts.get(r)
        if part is None:
            part = self._r_parts[r] = r_part(self.order, r)
        return part


@lru_cache(maxsize=None)
def _spec_facts(spec: GroupSpec) -> _SpecFacts:
    """The facts of a validated spec, built once per process and spec."""
    return _SpecFacts(spec)


def order(spec: GroupSpec) -> int:
    """Exact order of a validated spec."""
    return _spec_facts(spec).order


def prime_spectrum(spec: GroupSpec) -> PrimeSet:
    """pi(G): the primes dividing |G|.

    For Lie type only p and the cyclotomic pieces Phi_d(q) of the formula are
    factored: q^i - 1 is the product of Phi_d(q) over d | i, and q^i + 1 over
    d | 2i with d ∤ i.
    """
    g = order(spec)
    if spec.family not in LIE_FAMILIES:
        return PrimeSet(prime_divisors(g))
    formula = _lie_formula(spec)
    pieces = set(formula.cyclotomic)
    for i, s in formula.terms:
        pieces.update(d for d in range(1, 2 * i + 1)
                      if (i % d == 0 if s == 1 else 2 * i % d == 0 and i % d != 0))
    primes = {spec.p}.union(*(prime_divisors(_cyclotomic_value(d, spec.q)) for d in pieces))
    # the divisor can remove a prime of the product, so keep only those of |G|
    return PrimeSet(r for r in primes if g % r == 0)
