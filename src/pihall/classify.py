"""Hall-subgroup classification engine.

classify(spec, pi) decides existence of pi-Hall subgroups, describes the
conjugacy-class families, and counts the classes k_pi.  The full
structural answer is produced in the regime 2, 3 in pi with the defining
characteristic outside pi; the remaining regimes return proven bound
sets (and exact answers where known: the small Ree family, the sporadic
table, defining-characteristic patterns).

Every emitted class family records the arithmetic conditions it was
checked against, with the concrete numbers, so reports are auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import permutations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from pihall.arith import (
    PrimeSet,
    epsilon,
    is_prime,
    pi_part,
    prime_divisors,
    r_part,
)
from pihall.groups import (
    ALT,
    E6,
    E7,
    E8,
    F4,
    G2,
    GENERAL,
    ISOMETRY,
    LINEAR_UNITARY,
    ORTHOGONAL,
    SIMPLE,
    SPORADIC,
    SYM,
    SYMPLECTIC,
    TRI_D4,
    TWO_G2,
    GroupSpec,
    _lie_formula,
    format_group,
    order,
    validate,
)

YES = "yes"
NO = "no"
OUT_OF_SCOPE = "out_of_scope"

# scope tags, one per query regime
TAG_COVER = "pi_covers_group"
TAG_SMALL = "at_most_one_prime"
TAG_NO_2 = "2_not_in_pi"
TAG_NO_3 = "3_not_in_pi"
TAG_FULL = "2_3_in_pi_cross_characteristic"
TAG_DEFINING = "2_3_in_pi_defining_characteristic"

BOUND_NO_2 = (0, 1)
BOUND_NO_3 = (0, 1, 2)
BOUND_FULL = (0, 1, 2, 3, 4, 9)


def _regime(pi: PrimeSet) -> Tuple[str, Tuple[int, ...]]:
    """The scope tag of pi's regime and the k_pi bound proven in it.  With
    2 and 3 in pi, the dispatcher then tells the defining characteristic apart."""
    if 2 not in pi:
        return TAG_NO_2, BOUND_NO_2
    if 3 not in pi:
        return TAG_NO_3, BOUND_NO_3
    return TAG_FULL, BOUND_FULL


@dataclass(frozen=True)
class Condition:
    name: str
    value: str


@dataclass(frozen=True)
class HallClassDescriptor:
    """One family of conjugacy classes of pi-Hall subgroups."""

    case_id: str
    structure: str
    structure_order: int
    class_count: int
    conditions: Tuple[Condition, ...] = ()
    fusion_note: str = ""

    def __post_init__(self) -> None:
        if self.class_count < 1:
            raise ValueError("class_count must be >= 1")


@dataclass(frozen=True)
class HallReport:
    spec: GroupSpec
    pi: PrimeSet
    e_pi: str
    classes: Tuple[HallClassDescriptor, ...]
    k_pi: Optional[int]
    k_bound: Optional[Tuple[int, ...]]
    c_pi: str
    d_pi: str
    scope_tag: str
    hall_order: Optional[int]
    notes: Tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.k_pi is not None:
            if (self.e_pi == YES) != (self.k_pi >= 1):
                raise ValueError("e_pi and k_pi disagree")
            if sum(c.class_count for c in self.classes) != self.k_pi:
                raise ValueError("class counts do not sum to k_pi")
            if self.c_pi in (YES, NO) and (self.c_pi == YES) != (self.k_pi == 1):
                raise ValueError("c_pi and k_pi disagree")
        if self.d_pi == YES and self.c_pi != YES:
            raise ValueError("d_pi yes requires c_pi yes")


def _fmt_set(s: Iterable[int]) -> str:
    return "{" + ",".join(str(x) for x in sorted(s)) + "}"


@dataclass(frozen=True)
class _Query:
    """One query and the facts every family rule reads: |G|, pi ∩ pi(G)
    (found by divisibility, so |G| is never factored) and h = |G|_pi; for
    Lie type also q, its characteristic p and eps = epsilon(q) (None for even q)."""

    spec: GroupSpec
    pi: PrimeSet
    order: int
    gpi: frozenset
    h: int
    q: Optional[int]
    p: Optional[int]
    eps: Optional[int]


def _query(spec: GroupSpec, pi: PrimeSet) -> _Query:
    """The facts of a validated spec under pi."""
    g = order(spec)
    gpi = frozenset(r for r in pi if g % r == 0)
    q = spec.q
    eps = epsilon(q) if q is not None and q % 2 else None
    return _Query(spec, pi, g, gpi, pi_part(g, gpi), q, spec.p, eps)


def _report(
    query: _Query,
    scope_tag: str,
    classes: Sequence[HallClassDescriptor],
    d_pi: str,
    notes: Sequence[str] = (),
    k_bound: Optional[Tuple[int, ...]] = None,
) -> HallReport:
    spec, pi, hall_order = query.spec, query.pi, query.h
    classes = tuple(classes)
    if k_bound is not None:
        return HallReport(
            spec, pi, OUT_OF_SCOPE, classes, None, tuple(sorted(k_bound)),
            OUT_OF_SCOPE, d_pi, scope_tag, hall_order, tuple(notes),
        )
    k = sum(c.class_count for c in classes)
    e = YES if k >= 1 else NO
    c = (YES if k == 1 else NO) if k >= 1 else NO
    # D_pi presumes C_pi, so k >= 2 refutes it outright
    d = d_pi if k == 1 else NO
    return HallReport(
        spec, pi, e, classes, k, None, c, d, scope_tag, hall_order, tuple(notes)
    )


# ---------------------------------------------------------------------------
# symmetric and alternating groups


@dataclass(frozen=True)
class SymHallCase:
    case: str  # 'a' | 'b' | 'c' | 'd'
    structure: str
    orbit_count: int  # orbits of the Hall subgroup on the n points


_SYM_D_STRUCTURE = {
    3: ("Sym(3)", 1),
    4: ("Sym(4)", 1),
    5: ("Sym(4)", 2),
    7: ("Sym(3) x Sym(4)", 2),
    8: ("Sym(4) wr Sym(2)", 1),
}

# the case-d Hall subgroups of Alt(n): those of Sym(n) intersected with Alt(n)
_ALT_D_STRUCTURE = {
    3: "Z(3)",
    4: "Alt(4)",
    5: "Alt(4)",
    7: "(Sym(3) x Sym(4)) cap Alt(7)",
    8: "(Sym(4) wr Sym(2)) cap Alt(8)",
}


def _digit_sum(n: int, base: int) -> int:
    out = 0
    while n:
        out += n % base
        n //= base
    return out


def _exact_exponent(value: int, base: int) -> int:
    """e with base^e == value (value must be a power of base)."""
    e = 0
    while value > 1:
        if value % base:
            raise ValueError(f"{value} is not a power of {base}")
        value //= base
        e += 1
    return e


def _prime_power_structure(rr: int, value: int) -> str:
    exp = _exact_exponent(value, rr)
    if exp == 0:
        return "Z(1)"
    return f"{rr}^{exp}" if exp > 1 else f"{rr}"


def sym_hall_case(n: int, pi: PrimeSet) -> Optional[SymHallCase]:
    """Which existence case Sym(n) falls into for pi, or None when E_pi fails."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= 1:
        return SymHallCase("a", "Z(1)", max(n, 0))
    primes_n = frozenset(p for p in range(2, n + 1) if is_prime(p))
    gpi = frozenset(pi) & primes_n
    if len(gpi) <= 1:
        if not gpi:
            return SymHallCase("a", "Z(1)", n)
        (rr,) = gpi
        e = r_part(math.factorial(n), rr)
        return SymHallCase("a", _prime_power_structure(rr, e), _digit_sum(n, rr))
    if primes_n <= frozenset(pi) and n >= 5:
        return SymHallCase("c", f"Sym({n})", 1)
    if n >= 7 and is_prime(n) and gpi == frozenset(prime_divisors(math.factorial(n - 1))):
        return SymHallCase("b", f"Sym({n - 1})", 2)
    if gpi == frozenset((2, 3)) and n in _SYM_D_STRUCTURE:
        return SymHallCase("d", *_SYM_D_STRUCTURE[n])
    return None


def _sym_alt_d_pi(case: Optional[SymHallCase], n: int) -> str:
    if case is None:
        return NO
    if case.case in ("a", "c"):
        return YES
    if case.case == "d" and n <= 4:
        return YES
    return NO


def _sym_alt(query: _Query) -> HallReport:
    """Sym(n) and Alt(n) share sym_hall_case: a Hall subgroup of Alt(n) is
    one of Sym(n) intersected with Alt(n), and its order is |Alt(n)|_pi."""
    spec, gpi, h = query.spec, query.gpi, query.h
    n = spec.n
    case = sym_hall_case(n, query.pi)
    tag, _ = _regime(query.pi)
    if case is None:
        return _report(query, tag, [], NO)
    structure = case.structure
    if spec.family == ALT:
        if case.case == "a":
            structure = _prime_power_structure(min(gpi), h) if gpi else "Z(1)"
        elif case.case == "d":
            structure = _ALT_D_STRUCTURE[n]
        else:
            structure = structure.replace("Sym", "Alt")
    conds = (
        Condition(f"pi ∩ pi({spec.family}_n)", _fmt_set(gpi)),
        Condition("case", case.case),
    )
    desc = HallClassDescriptor(f"{spec.family.lower()}.{case.case}", structure, h, 1, conds)
    return _report(query, tag, [desc], _sym_alt_d_pi(case, n))


# ---------------------------------------------------------------------------
# two-dimensional linear and unitary groups


def _sl2(query: _Query) -> HallReport:
    """pi-Hall subgroups of SL2(q), or of PSL2(q) for the simple variant;
    SU2(q) = SL2(q) takes the same answer."""
    q, eps, pi, gpi = query.q, query.eps, query.pi, query.gpi
    projective = query.spec.variant == SIMPLE
    classes: List[HallClassDescriptor] = []

    if gpi <= frozenset(prime_divisors(q - eps)):
        m = pi_part(q - eps, pi)
        conds = (
            Condition("pi ∩ pi(G)", _fmt_set(gpi)),
            Condition("pi(q-eps)", _fmt_set(prime_divisors(q - eps))),
            Condition("(q-eps)_pi", str(m)),
        )
        classes.append(
            HallClassDescriptor(
                "sl2.a",
                f"D({m})" if projective else f"2.D({m})",
                m if projective else 2 * m,
                1,
                conds,
            )
        )
    part23 = pi_part(q * q - 1, (2, 3))
    if gpi == frozenset((2, 3)) and part23 == 24:
        conds = (
            Condition("pi ∩ pi(G)", "{2,3}"),
            Condition("(q^2-1)_{2,3}", "24"),
        )
        classes.append(
            HallClassDescriptor(
                "sl2.b", "Alt(4)" if projective else "SL2(3)",
                12 if projective else 24, 1, conds,
            )
        )
    if gpi == frozenset((2, 3)) and part23 == 48:
        conds = (
            Condition("pi ∩ pi(G)", "{2,3}"),
            Condition("(q^2-1)_{2,3}", "48"),
        )
        classes.append(
            HallClassDescriptor(
                "sl2.c", "Sym(4)" if projective else "2.Sym(4)",
                24 if projective else 48, 2, conds,
                fusion_note="the two classes are interchanged by the diagonal outer automorphism (PGL2 level)",
            )
        )
    part235 = pi_part(q * q - 1, (2, 3, 5))
    if gpi == frozenset((2, 3, 5)) and part235 == 120:
        conds = (
            Condition("pi ∩ pi(G)", "{2,3,5}"),
            Condition("(q^2-1)_{2,3,5}", "120"),
        )
        classes.append(
            HallClassDescriptor(
                "sl2.d", "Alt(5)" if projective else "SL2(5)",
                60 if projective else 120, 2, conds,
                fusion_note="the two classes are interchanged by the diagonal outer automorphism (PGL2 level)",
            )
        )
    rep = _report(query, TAG_FULL, classes, NO)
    if rep.k_pi is not None and rep.k_pi not in (0, 1, 2, 3):
        raise RuntimeError(f"SL2 class count {rep.k_pi} outside {{1,2,3}}")
    return rep


def _gl2(query: _Query) -> HallReport:
    """pi-Hall subgroups of GL2(q) (eta=+1) or GU2(q) (eta=-1)."""
    q, eps, pi, gpi = query.q, query.eps, query.pi, query.gpi
    eta = query.spec.eta
    z = pi_part(q - eta, pi)
    classes: List[HallClassDescriptor] = []
    if gpi <= frozenset(prime_divisors(q - eps)):
        m = 2 * pi_part(q - eps, pi)
        conds = (
            Condition("pi ∩ pi(G)", _fmt_set(gpi)),
            Condition("pi(q-eps)", _fmt_set(prime_divisors(q - eps))),
        )
        classes.append(
            HallClassDescriptor("gl2.a", f"Z({z}) . D({m})", z * m, 1, conds)
        )
    if gpi == frozenset((2, 3)) and pi_part(q * q - 1, (2, 3)) == 24:
        conds = (
            Condition("pi ∩ pi(G)", "{2,3}"),
            Condition("(q^2-1)_{2,3}", "24"),
        )
        classes.append(
            HallClassDescriptor("gl2.b", f"Z({z}) . Sym(4)", z * 24, 1, conds)
        )
    rep = _report(query, TAG_FULL, classes, OUT_OF_SCOPE)
    if rep.k_pi is not None and rep.k_pi > 2:
        raise RuntimeError(f"GL2 class count {rep.k_pi} outside {{1,2}}")
    return rep


# ---------------------------------------------------------------------------
# linear and unitary groups, n >= 3


def _linear_unitary(query: _Query) -> HallReport:
    """SL_n^eta(q) and PSL_n^eta(q) for n >= 3."""
    spec, q, pi, gpi, h = query.spec, query.q, query.pi, query.gpi, query.h
    n, eta, variant = spec.n, spec.eta, spec.variant
    d = math.gcd(n, q - eta)
    sl_order = query.order * d if variant == SIMPLE else query.order
    sgn = "+" if eta == 1 else "-"
    classes: List[HallClassDescriptor] = []
    notes: List[str] = []

    primes_n_fact = frozenset(p for p in range(2, n + 1) if is_prime(p))
    pi_q_minus_eta = frozenset(prime_divisors(q - eta))

    def stmt_b() -> Optional[HallClassDescriptor]:
        congruent = (q - eta) % 12 == 0 or (n == 3 and (q - eta) % 4 == 0)
        if not congruent:
            return None
        sym = sym_hall_case(n, pi)
        if sym is None:
            return None
        if not gpi <= (pi_q_minus_eta | primes_n_fact):
            return None
        checked = []
        for rr in sorted((frozenset(pi) & primes_n_fact) - pi_q_minus_eta):
            g_r = r_part(sl_order, rr)
            s_r = r_part(math.factorial(n), rr)
            checked.append(Condition(f"|G|_{rr} vs |Sym_n|_{rr}", f"{g_r} vs {s_r}"))
            if g_r != s_r:
                return None
        conds = (
            Condition("congruence", f"q-eta = {q - eta} (mod 12 / n=3 mod 4 rule)"),
            Condition("pi ∩ pi(G)", _fmt_set(gpi)),
            *checked,
        )
        quot = f" / Z({d})" if variant == SIMPLE and d > 1 else ""
        return HallClassDescriptor(
            "linear_unitary.b",
            f"Hall(Z({q - eta})^{n - 1} . Sym({n}){quot})",
            h, 1, conds,
        )

    def stmt_c() -> Optional[HallClassDescriptor]:
        m, k1 = n // 2, n % 2
        if (q + eta) % 3 != 0:
            return None
        if not gpi <= frozenset(prime_divisors(q * q - 1)):
            return None
        gl = _gl2(_query(GroupSpec(LINEAR_UNITARY, n=2, q=q, eta=eta, variant=GENERAL), pi))
        if gl.e_pi != YES:
            return None
        sym = sym_hall_case(m, pi)
        if sym is None:
            return None
        count = gl.k_pi ** sym.orbit_count
        conds = (
            Condition("q = -eta (mod 3)", f"q+eta = {q + eta}"),
            Condition("pi ∩ pi(G)", _fmt_set(gpi)),
            Condition("k_pi(GL2)", str(gl.k_pi)),
            Condition("orbit count t of Hall(Sym_m)", str(sym.orbit_count)),
        )
        tail = f" x Z({q - eta})" if k1 else ""
        return HallClassDescriptor(
            "linear_unitary.c",
            f"Hall((GL2({q},{sgn}) wr Sym({m})){tail} in SL)",
            h, count, conds,
            fusion_note="classes are indexed by the GL2-Hall class chosen on each orbit of the Sym_m-Hall",
        )

    def stmt_d() -> Optional[HallClassDescriptor]:
        if n != 4 or gpi != frozenset((2, 3, 5)):
            return None
        if (q - 5 * eta) % 8 != 0:
            return None
        if r_part(q + eta, 3) != 3 or r_part(q * q + 1, 5) != 5:
            return None
        conds = (
            Condition("q = 5 eta (mod 8)", str(q % 8)),
            Condition("(q+eta)_3", "3"),
            Condition("(q^2+1)_5", "5"),
            Condition("pi ∩ pi(G)", "{2,3,5}"),
        )
        structure = "4.2^4.Alt(6)" + (f" / Z({d})" if variant == SIMPLE and d > 1 else "")
        so = 23040 // (d if variant == SIMPLE else 1)
        return HallClassDescriptor(
            "linear_unitary.d", structure, so, 2, conds,
            fusion_note="the two classes are interchanged by the full diagonal outer group",
        )

    def stmt_e() -> bool:
        return (
            n == 11
            and gpi == frozenset((2, 3))
            and pi_part(q * q - 1, (2, 3)) == 24
            and (q + eta) % 3 == 0
            and (q - eta) % 4 == 0
        )

    if stmt_e():
        z2 = r_part(q - eta, 2)
        conds = (
            Condition("pi ∩ pi(G)", "{2,3}"),
            Condition("(q^2-1)_{2,3}", "24"),
            Condition("q = -eta (mod 3), q = eta (mod 4)", f"q = {q}"),
        )
        classes.append(
            HallClassDescriptor(
                "linear_unitary.e",
                f"Hall(((Z({z2}) o 2.Sym(4)) wr Sym(4)) x (Z({z2}) wr Sym(3)) in SL)",
                h, 1, conds,
            )
        )
        ce = stmt_c()
        if ce is not None:
            classes.append(replace(ce, class_count=2))
        notes.append(
            "with the n=11 mixed decomposition present, the diagonal-block family "
            "contributes exactly two classes (asserted total k=3)"
        )
    else:
        for maker in (stmt_b, stmt_c, stmt_d):
            desc = maker()
            if desc is not None:
                classes.append(desc)

    rep = _report(query, TAG_FULL, classes, NO, notes)
    if rep.k_pi is not None and rep.k_pi not in (0, 1, 2, 3, 4):
        raise RuntimeError(f"linear/unitary class count {rep.k_pi} outside {{1,2,3,4}}")
    return rep


# ---------------------------------------------------------------------------
# symplectic groups


def _symplectic(query: _Query) -> HallReport:
    q, pi, gpi, h = query.q, query.pi, query.gpi, query.h
    m = query.spec.n // 2
    sl2rep = _sl2(_query(GroupSpec(LINEAR_UNITARY, n=2, q=q, eta=1, variant=ISOMETRY), pi))
    sym = sym_hall_case(m, pi)
    cond_spectrum = gpi <= frozenset(prime_divisors(q * q - 1))
    classes: List[HallClassDescriptor] = []
    if sl2rep.e_pi == YES and sym is not None and cond_spectrum:
        count = sl2rep.k_pi ** sym.orbit_count
        conds = (
            Condition("SL2(q) in E_pi, k", str(sl2rep.k_pi)),
            Condition("Sym_m case / orbit count t", f"{sym.case} / {sym.orbit_count}"),
            Condition("pi ∩ pi(G) ⊆ pi(q^2-1)", _fmt_set(gpi)),
        )
        quot = " / Z(2)" if query.spec.variant == SIMPLE else ""
        classes.append(
            HallClassDescriptor(
                "symplectic.wreath",
                f"Hall(SL2({q}) wr Sym({m}){quot})",
                h, count, conds,
                fusion_note="classes are indexed by the SL2-Hall class chosen on each orbit of the Sym_m-Hall",
            )
        )
    rep = _report(query, TAG_FULL, classes, NO)
    if rep.k_pi is not None and rep.k_pi not in (0, 1, 2, 3, 4, 9):
        raise RuntimeError(f"symplectic class count {rep.k_pi} outside {{1,2,3,4,9}}")
    return rep


# ---------------------------------------------------------------------------
# orthogonal groups


def _orthogonal_small(query: _Query) -> HallReport:
    """The small-dimension table, n <= 6, at the Omega level; validation
    rewrites or rejects the simple variants, so only isometry groups get here."""
    q, eps, pi, gpi, h = query.q, query.eps, query.pi, query.gpi, query.h
    n, eta = query.spec.n, query.spec.eta
    classes: List[HallClassDescriptor] = []
    pi_q_minus_eps = frozenset(prime_divisors(q - eps))
    part23 = pi_part(q * q - 1, (2, 3))
    part235 = pi_part(q * q - 1, (2, 3, 5))
    s23 = frozenset((2, 3))
    s235 = frozenset((2, 3, 5))

    def add(case, structure, so, count, conds, fusion=""):
        classes.append(
            HallClassDescriptor(f"orthogonal{n}.{case}", structure, so, count,
                                tuple(conds), fusion)
        )

    if n == 2:
        m = pi_part((q - eta) // 2, pi)
        add("a", f"Z({m})", m, 1, [Condition("cyclic order", str((q - eta) // 2))])
        return _report(query, TAG_FULL, classes, YES)

    if n == 3:
        if gpi <= pi_q_minus_eps:
            m = pi_part(q - eps, pi)
            add("b", f"D({m})", m, 1,
                [Condition("pi ∩ pi(G) ⊆ pi(q-eps)", _fmt_set(gpi))])
        if gpi == s23 and part23 == 24:
            add("c", "Alt(4)", 12, 1, [Condition("(q^2-1)_{2,3}", "24")])
        if gpi == s23 and part23 == 48:
            add("d", "Sym(4)", 24, 2, [Condition("(q^2-1)_{2,3}", "48")],
                "SO3(q) interchanges the two classes")
        if gpi == s235 and part235 == 120:
            add("e", "Alt(5)", 60, 2, [Condition("(q^2-1)_{2,3,5}", "120")],
                "SO3(q) interchanges the two classes")
    elif n == 4 and eta == 1:
        qe23 = pi_part(q - eps, (2, 3))
        qe235 = pi_part(q - eps, (2, 3, 5))
        if gpi <= pi_q_minus_eps:
            m = pi_part(q - eps, pi)
            add("f", f"2.D({m}) o 2.D({m})", 2 * m * m, 1,
                [Condition("pi ∩ pi(G) ⊆ pi(q-eps)", _fmt_set(gpi))])
        if gpi == s23 and part23 == 24:
            add("g", "SL2(3) o SL2(3)", 288, 1, [Condition("(q^2-1)_{2,3}", "24")])
        if gpi == s23 and qe23 == 12:
            add("h", "2.D(12) o SL2(3)", 288, 2, [Condition("(q-eps)_{2,3}", "12")],
                "SO4+(q) stabilizes the classes; O4+(q) interchanges them")
        if gpi == s23 and part23 == 48:
            add("i", "2.Sym(4) o 2.Sym(4)", 1152, 4, [Condition("(q^2-1)_{2,3}", "48")],
                "SO4+ \\ Omega4+ induces an involution of shape (ij)(kl) on the classes")
        if gpi == s23 and qe23 == 24:
            add("j", "2.D(24) o 2.Sym(4)", 1152, 4, [Condition("(q-eps)_{2,3}", "24")],
                "O4+ \\ Omega4+ induces an involution of shape (ij)(kl) on the classes")
        if gpi == s235 and part235 == 120:
            add("k", "SL2(5) o SL2(5)", 7200, 4, [Condition("(q^2-1)_{2,3,5}", "120")],
                "SO4+ \\ Omega4+ induces an involution of shape (ij)(kl) on the classes")
        if gpi == s235 and qe235 == 60:
            add("l", "2.D(60) o SL2(5)", 7200, 4, [Condition("(q-eps)_{2,3,5}", "60")],
                "O4+ \\ Omega4+ induces an involution of shape (ij)(kl) on the classes")
    elif n == 4 and eta == -1:
        if gpi <= frozenset(prime_divisors(q * q - 1)):
            m = pi_part(q * q - 1, pi)
            add("m", f"D({m})", m, 1,
                [Condition("pi ∩ pi(G) ⊆ pi(q^2-1)", _fmt_set(gpi))])
        if gpi == s23 and part23 == 24:
            add("n", "Sym(4)", 24, 2, [Condition("(q^2-1)_{2,3}", "24")],
                "invariant under O4-(q); GO4-(q) interchanges the two classes")
    elif n == 5:
        if gpi <= pi_q_minus_eps:
            m = pi_part(q - eps, pi)
            add("o", f"(2.D({m}) o 2.D({m})) . 2", 4 * m * m, 1,
                [Condition("pi ∩ pi(G) ⊆ pi(q-eps)", _fmt_set(gpi))])
        if gpi == s23 and part23 == 24:
            add("p", "(2.Alt(4) o 2.Alt(4)) . 2", 576, 1,
                [Condition("(q^2-1)_{2,3}", "24")])
        if gpi == s23 and part23 == 48:
            add("q", "(2.Sym(4) o 2.Sym(4)) . 2", 2304, 2,
                [Condition("(q^2-1)_{2,3}", "48")], "SO5(q) interchanges the two classes")
        if gpi == s235 and part235 == 120:
            add("r", "(SL2(5) o SL2(5)) . 2", 14400, 2,
                [Condition("(q^2-1)_{2,3,5}", "120")], "SO5(q) interchanges the two classes")
    elif n == 6:
        # torus rows, with conditions matching the 4-dimensional linear or
        # unitary group this Omega is a central image of
        if eta == eps and gpi <= pi_q_minus_eps and (q - eps) % 3 == 0:
            add("s", f"Hall(D({2 * (q - eps)}) wr Sym(3) in Omega)", h, 1,
                [Condition("pi ∩ pi(G)", _fmt_set(gpi)),
                 Condition("3 | q-eps", str(q - eps))])
        if eta == -eps and gpi <= pi_q_minus_eps:
            add("t", f"Hall(D({2 * (q - eps)}) x D({2 * (q - eps)}) x D({2 * (q + eps)}) in Omega)",
                h, 1, [Condition("pi ∩ pi(G)", _fmt_set(gpi))])
        if (q + eta) % 3 == 0 and gpi == s23 and part23 == 24:
            add("u", f"Hall((Z({r_part(q - eta, 2)}) o 2.Sym(4) o 2.Sym(4)) . 2 in Omega)",
                h, 1, [Condition("(q^2-1)_{2,3}", "24"),
                       Condition("q = -eta (mod 3)", str(q % 3))])
        if (
            eta == eps
            and q % 8 in (3, 5)
            and gpi == s235
            and part23 == 24
            and r_part(q * q + 1, 5) == 5
            and (q + eta) % 3 == 0
        ):
            add("v", "2^5.Alt(6)", 11520, 2,
                [Condition("(q^2-1)_{2,3}", "24"), Condition("(q^2+1)_5", "5"),
                 Condition("q mod 8", str(q % 8))],
                "invariant under O6(q); the similarity group interchanges the two classes")
    return _report(query, TAG_FULL, classes, NO)


# expected pi-parts of |Omega_n(q)| in the three exotic constant cases
_OMEGA_EXOTIC = {
    7: ("Omega7(2)", 2**9 * 3**4 * 5 * 7),
    8: ("2.Omega8+(2)", 2**13 * 3**5 * 5**2 * 7),
    9: ("2.Omega8+(2).2", 2**14 * 3**5 * 5**2 * 7),
}


def _orthogonal_large(query: _Query) -> HallReport:
    """Orthogonal groups of dimension >= 7 by the general criteria."""
    spec, q, eps, pi, gpi, h = query.spec, query.q, query.eps, query.pi, query.gpi, query.h
    n, eta = spec.n, spec.eta
    classes: List[HallClassDescriptor] = []
    pi_q_minus_eps = frozenset(prime_divisors(q - eps))
    cond_mod12 = (q - eps) % 12 == 0
    torus_ok = cond_mod12 and gpi <= pi_q_minus_eps
    part23 = pi_part(q * q - 1, (2, 3))
    m = n // 2

    def add(case, structure, so, count, conds, fusion=""):
        classes.append(
            HallClassDescriptor(f"orthogonal.{case}", structure, so, count,
                                tuple(conds), fusion)
        )

    base_conds = [
        Condition("q = eps (mod 12)", f"q = {q}, eps = {'+' if eps == 1 else '-'}"),
        Condition("pi ∩ pi(G)", _fmt_set(gpi)),
    ]
    if n % 2 == 1:
        if torus_ok and sym_hall_case(m, pi) is not None:
            add("a", f"Hall(D({2 * (q - eps)}) wr Sym({m}) x Z(2))", h, 1, base_conds)
    else:
        if torus_ok and eta == eps**m and sym_hall_case(m, pi) is not None:
            add("b", f"Hall(D({2 * (q - eps)}) wr Sym({m}))", h, 1, base_conds)
        if torus_ok and eta == -(eps**m) and sym_hall_case(m - 1, pi) is not None:
            add("c", f"Hall(D({2 * (q - eps)}) wr Sym({m - 1}) x D({2 * (q + eps)}))",
                h, 1, base_conds)
    if n == 11 and cond_mod12 and gpi == frozenset((2, 3)) and part23 == 24:
        add("d", f"Hall(D({2 * (q - eps)}) wr Sym(4) x Z(2) wr Sym(3))", h, 1,
            base_conds + [Condition("(q^2-1)_{2,3}", "24")])
    if n == 12 and eta == -1 and cond_mod12 and gpi == frozenset((2, 3)) and part23 == 24:
        add("e", f"Hall(D({2 * (q - eps)}) wr Sym(4) x Z(2) wr Sym(3) x Z(2))", h, 2,
            base_conds + [Condition("(q^2-1)_{2,3}", "24")],
            "the similarity group interchanges the two classes")
    if n in _OMEGA_EXOTIC and gpi == frozenset((2, 3, 5, 7)):
        name, omega_pi = _OMEGA_EXOTIC[n]
        omega = GroupSpec(ORTHOGONAL, n=n, q=q, eta=eta, variant=ISOMETRY)
        if (n != 8 or eta == 1) and _query(omega, pi).h == omega_pi:
            if spec.variant == SIMPLE and n == 8:
                structure, so = "Omega8+(2)", omega_pi // 2
            else:
                structure, so = name, omega_pi
            count = {7: 2, 8: 4, 9: 2}[n]
            fusion = {
                7: "SO7(q) interchanges the two classes",
                8: "diagonal and graph outer automorphisms act on the four classes as Sym(4); diagonal ones act without fixed points",
                9: "SO9(q) interchanges the two classes",
            }[n]
            add("fgh"[n - 7], structure, so, count,
                [Condition("pi ∩ pi(G)", "{2,3,5,7}"),
                 Condition("|Omega|_pi", str(omega_pi))], fusion)
    rep = _report(query, TAG_FULL, classes, NO)
    if rep.k_pi is not None and rep.k_pi not in (0, 1, 2, 3, 4):
        raise RuntimeError(f"orthogonal class count {rep.k_pi} outside {{1,2,3,4}}")
    return rep


# ---------------------------------------------------------------------------
# exceptional groups


def _exceptional(query: _Query) -> HallReport:
    """G2, F4, E6, E7, E8 and 3D4; 2G2 never gets here, since 3 in pi puts
    its characteristic in pi."""
    q, eps, pi, gpi, h = query.q, query.eps, query.pi, query.gpi, query.h
    family, eta = query.spec.family, query.spec.eta
    pi_q_minus_eps = frozenset(prime_divisors(q - eps))
    torus = gpi <= pi_q_minus_eps
    classes: List[HallClassDescriptor] = []
    base = [
        Condition("pi ∩ pi(G)", _fmt_set(gpi)),
        Condition("pi(q-eps)", _fmt_set(pi_q_minus_eps)),
    ]

    if family == G2:
        if (
            gpi == frozenset((2, 3, 7))
            and pi_part(q * q - 1, (2, 3, 7)) == 24
            and r_part(q**4 + q**2 + 1, 7) == 7
        ):
            classes.append(
                HallClassDescriptor(
                    "g2.a", "G2(2)", 12096, 1,
                    (Condition("(q^2-1)_{2,3,7}", "24"),
                     Condition("(q^4+q^2+1)_7", "7")),
                )
            )
        elif torus:
            classes.append(
                HallClassDescriptor(
                    "g2.b", f"Hall(Z({q - eps})^2 . W(G2))", h, 1, tuple(base)
                )
            )
    elif family == F4:
        if torus:
            classes.append(
                HallClassDescriptor(
                    "f4.torus", f"Hall(Z({q - eps})^4 . W(F4))", h, 1, tuple(base)
                )
            )
    elif family == E6:
        if torus and (eta != eps or 5 in pi):
            if eta == eps:
                structure = f"Hall(Z({q - eta})^6 / Z({math.gcd(3, q - eta)}) . W(E6))"
                conds = tuple(base) + (Condition("5 in pi", str(5 in pi)),)
            else:
                structure = f"Hall(Z({q * q - 1})^2 x Z({q + eta})^2 . W(F4))"
                conds = tuple(base)
            classes.append(HallClassDescriptor("e6.torus", structure, h, 1, conds))
    elif family in (E7, E8):
        if torus and 5 in pi and 7 in pi:
            rank = 7 if family == E7 else 8
            div = " / Z(2)" if family == E7 else ""
            classes.append(
                HallClassDescriptor(
                    f"{family.lower()}.torus",
                    f"Hall(Z({q - eps})^{rank}{div} . W({family}))",
                    h, 1,
                    tuple(base) + (Condition("5,7 in pi", str(sorted(pi))),),
                )
            )
    elif family == TRI_D4:
        if torus:
            classes.append(
                HallClassDescriptor(
                    "3d4.torus",
                    f"Hall(Z({q - eps}) x Z({q**3 - eps}) . W(G2))",
                    h, 1, tuple(base),
                )
            )
    rep = _report(query, TAG_FULL, classes, NO)
    if rep.k_pi is not None and rep.k_pi > 1:
        raise RuntimeError("exceptional families have at most one class")
    return rep


# ---------------------------------------------------------------------------
# sporadic groups

# (name, pi ∩ pi(S)) -> list of structure strings, one per conjugacy class
SPORADIC_HALL_TABLE: Dict[Tuple[str, frozenset], Tuple[str, ...]] = {
    ("M11", frozenset((2, 3))): ("3^2:Q8.2",),
    ("M11", frozenset((2, 3, 5))): ("Alt(6).2",),
    ("M22", frozenset((2, 3, 5))): ("2^4:Alt(6)",),
    ("M23", frozenset((2, 3))): ("2^4:(3 x Alt(4)):2",),
    ("M23", frozenset((2, 3, 5))): ("2^4:Alt(6)", "2^4:(3 x Alt(5)):2"),
    ("M23", frozenset((2, 3, 5, 7))): ("L3(4):2_2", "2^4:Alt(7)"),
    ("M23", frozenset((2, 3, 5, 7, 11))): ("M22",),
    ("M24", frozenset((2, 3, 5))): ("2^6:3.Sym(6)",),
    ("J1", frozenset((2, 3))): ("2 x Alt(4)",),
    ("J1", frozenset((2, 7))): ("2^3:7",),
    ("J1", frozenset((2, 3, 5))): ("2 x Alt(5)",),
    ("J1", frozenset((2, 3, 7))): ("2^3:7:3",),
    ("J4", frozenset((2, 3, 5))): ("2^11:(2^6:3.Sym(6))",),
}


def _sporadic(query: _Query) -> HallReport:
    from pihall.structure import structure_order

    gpi = query.gpi
    # every sporadic order is divisible by 2 and 3, so pi's regime is gpi's
    tag, bound = _regime(query.pi)
    rows = SPORADIC_HALL_TABLE.get((query.spec.sporadic_name, gpi))
    if rows:
        classes = tuple(
            HallClassDescriptor(
                f"sporadic.table[{i}]", s, structure_order(s), 1,
                (Condition("pi ∩ pi(S)", _fmt_set(gpi)),),
            )
            for i, s in enumerate(rows)
        )
        return _report(query, tag, classes, OUT_OF_SCOPE)
    if tag == TAG_FULL:
        # the table of proper Hall subgroups with 2,3 in pi is complete
        return _report(query, tag, [], NO, notes=("no proper pi-Hall subgroup with 2,3 in pi",))
    note = ("odd-order Hall existence lives" if tag == TAG_NO_2 else "existence criteria live")
    return _report(query, tag, [], OUT_OF_SCOPE, k_bound=bound,
                   notes=(f"{note} in the cited classification",))


# ---------------------------------------------------------------------------
# defining characteristic

# n -> dimension profiles of proper-parabolic Hall candidates in PSL_n(q);
# each ordering of a profile gives one class
_FLAG_SHAPES: Dict[int, Tuple[Tuple[int, ...], ...]] = {
    4: ((2, 2),),
    5: ((1, 4), (2, 3), (1, 2, 2)),
    7: ((1, 6), (3, 4)),
    8: ((4, 4),),
    11: ((1, 10), (5, 6)),
}


def _flag_shapes_for(n: int):
    if n in _FLAG_SHAPES:
        return _FLAG_SHAPES[n]
    if is_prime(n) and n % 2 == 1:
        return ((1, n - 1),)
    return ()


def _gaussian_multinomial(q: int, parts: Tuple[int, ...]) -> int:
    def qfact(k: int) -> int:
        out = 1
        for i in range(1, k + 1):
            out *= q**i - 1
        return out

    total = sum(parts)
    num = qfact(total)
    den = 1
    for part in parts:
        den *= qfact(part)
    assert num % den == 0
    return num // den


def _borel_pi_part(spec: GroupSpec, pi: PrimeSet) -> Optional[int]:
    """pi-part of |B| = q^N (q-1)^r / d, read off an order formula
    q^N prod(q^i - 1) / d with r factors; None when a factor is q^i + 1 or
    cyclotomic (a twisted group, whose Borel is not of this shape)."""
    formula = _lie_formula(spec)
    if formula.cyclotomic or any(s != 1 for _, s in formula.terms):
        return None
    q = formula.q
    return q**formula.q_exp * pi_part((q - 1) ** len(formula.terms) // formula.divisor, pi)


def _defining_char(query: _Query) -> HallReport:
    """Lie type with 2, 3 and the defining characteristic p in pi."""
    spec, q, p, pi, gpi, h = query.spec, query.q, query.p, query.pi, query.gpi, query.h
    g_order, n = query.order, spec.n

    # flag-stabilizer patterns (linear groups only)
    if spec.family == LINEAR_UNITARY and spec.eta == 1 and spec.variant != GENERAL:
        for shape in _flag_shapes_for(n):
            flags = _gaussian_multinomial(q, shape)
            if g_order % flags != 0:
                continue
            h_order = g_order // flags
            if pi_part(flags, pi) == 1 and pi_part(h_order, pi) == h_order:
                desc = HallClassDescriptor(
                    f"defining.flag{shape}",
                    f"Hall(flag stabilizer of type {shape})",
                    h_order, len(set(permutations(shape))),
                    (Condition("flag count", str(flags)),
                     Condition("pi(stabilizer)", _fmt_set(r for r in pi if h_order % r == 0)),
                     Condition("pi ∩ pi(S)", _fmt_set(gpi))),
                    fusion_note="one class per ordering of the dimension profile",
                )
                return _report(query, TAG_DEFINING, [desc], OUT_OF_SCOPE)

    # Borel pattern: pi ∩ pi(S) inside pi(q-1) ∪ {p}
    if gpi <= frozenset(prime_divisors(q - 1)) | {p}:
        bpi = _borel_pi_part(spec, pi)
        if bpi is not None and bpi == h:
            desc = HallClassDescriptor(
                "defining.borel", "Hall(Borel)", h, 1,
                (Condition("pi ∩ pi(S)", _fmt_set(gpi)),
                 Condition("|Borel|_pi", str(bpi))),
            )
            return _report(query, TAG_DEFINING, [desc], OUT_OF_SCOPE)
        return _report(
            query, TAG_DEFINING, [], OUT_OF_SCOPE,
            k_bound=BOUND_FULL,
            notes=("Borel-type pattern matched but existence is not settled here",),
        )

    # parabolic pattern for even-dimensional orthogonal groups over F_2^a
    if spec.family == ORTHOGONAL and n % 2 == 0 and p == 2:
        m = n // 2
        sub = GroupSpec(ORTHOGONAL, n=n - 2, q=q, eta=spec.eta, variant=ISOMETRY)
        if gpi == _query(sub, pi).gpi | {2}:
            index = (q**m - spec.eta) * (q ** (m - 1) + spec.eta) // (q - 1)
            if pi_part(index, pi) == 1:
                desc = HallClassDescriptor(
                    "defining.parabolic",
                    f"Hall(point stabilizer with factor O{'+' if spec.eta == 1 else '-'}({n - 2},{q}))",
                    g_order // index, 1,
                    (Condition("parabolic index", str(index)),
                     Condition("pi ∩ pi(S)", _fmt_set(gpi))),
                )
                return _report(query, TAG_DEFINING, [desc], OUT_OF_SCOPE)

    return _report(
        query, TAG_DEFINING, [], OUT_OF_SCOPE,
        k_bound=BOUND_FULL,
        notes=("no defining-characteristic pattern matched; criteria live in cited works",),
    )


# ---------------------------------------------------------------------------
# the small Ree family in the 3-outside-pi regime


def _small_ree(query: _Query) -> Optional[HallReport]:
    q, pi, gpi, h = query.q, query.pi, query.gpi, query.h
    a = query.spec.field_exponent  # q = 3^a, a = 2k+1
    k = (a - 1) // 2
    if gpi == frozenset((2, 7)) and (q + 1) % 7 == 0 and k % 7 != 3:
        conds = (
            Condition("pi ∩ pi(S)", "{2,7}"),
            Condition("7 | q+1", str(q + 1)),
            Condition("field exponent parameter k mod 7", str(k % 7)),
            Condition("|S|_pi", str(h)),
        )
        torus = HallClassDescriptor(
            "small_ree.torus", f"Z({pi_part(q + 1, pi)}) : 2",
            2 * pi_part(q + 1, pi), 1, conds,
            fusion_note="Sylow tower with 2 before 7",
        )
        frob = HallClassDescriptor(
            "small_ree.frobenius", "2^3:7", 56, 1, conds,
            fusion_note="Frobenius group; Sylow tower with 7 before 2",
        )
        return _report(query, TAG_NO_3, [torus, frob], NO)
    return None


# ---------------------------------------------------------------------------
# dispatcher


def classify(spec: GroupSpec, pi: PrimeSet) -> HallReport:
    """Full decision procedure: validates, normalizes, and dispatches."""
    return _dispatch(_query(validate(spec), PrimeSet(pi)))


def _dispatch(query: _Query) -> HallReport:
    spec, pi, gpi, h = query.spec, query.pi, query.gpi, query.h

    if h == query.order:
        # pi ⊇ pi(G), so pi(G) = pi ∩ pi(G)
        desc = HallClassDescriptor(
            "trivial.whole_group", format_group(spec), h, 1,
            (Condition("pi ⊇ pi(G)", _fmt_set(gpi)),),
        )
        return _report(query, TAG_COVER, [desc], YES)
    if len(gpi) <= 1:
        if not gpi:
            desc = HallClassDescriptor(
                "trivial.trivial_subgroup", "Z(1)", 1, 1,
                (Condition("pi ∩ pi(G)", "{}"),),
            )
        else:
            (rr,) = gpi
            desc = HallClassDescriptor(
                "trivial.sylow", _prime_power_structure(rr, h), h, 1,
                (Condition("pi ∩ pi(G)", _fmt_set(gpi)),),
            )
        return _report(query, TAG_SMALL, [desc], YES)

    # the symmetric/alternating classification is complete for every pi,
    # and the sporadic module answers its own bound regimes
    if spec.family in (SYM, ALT):
        return _sym_alt(query)
    if spec.family == SPORADIC:
        return _sporadic(query)

    tag, bound = _regime(pi)
    if tag == TAG_NO_3 and spec.family == TWO_G2:
        special = _small_ree(query)
        if special is not None:
            return special
    if tag != TAG_FULL:
        head = ("odd pi: Hall subgroups are conjugate when they exist;"
                if tag == TAG_NO_2 else "2 in pi, 3 outside pi:")
        return _report(query, tag, [], OUT_OF_SCOPE, k_bound=bound,
                       notes=(f"{head} existence criteria live in the cited classification",))

    if query.p in pi:
        return _defining_char(query)
    # from here on 2, 3 in pi and p outside pi, so q is odd
    if spec.family == LINEAR_UNITARY and spec.n == 2:
        return _gl2(query) if spec.variant == GENERAL else _sl2(query)
    if spec.family == LINEAR_UNITARY:
        return _linear_unitary(query)
    if spec.family == SYMPLECTIC:
        return _symplectic(query)
    if spec.family == ORTHOGONAL:
        return _orthogonal_small(query) if spec.n <= 6 else _orthogonal_large(query)
    return _exceptional(query)


# ---------------------------------------------------------------------------
# induced classes in almost simple overgroups


@dataclass(frozen=True)
class InducedBound:
    bound: Tuple[int, ...]
    exact: Optional[int]
    source: str


def kpi_bound_almost_simple(
    spec: GroupSpec, pi: PrimeSet, outer_description: str = "any"
) -> InducedBound:
    """Bound set (and exact value where determined) for the number of classes
    of overgroup-induced Hall subgroups of the simple socle."""
    pi = PrimeSet(pi)
    spec = validate(spec)
    report = classify(spec, pi)
    if outer_description == "trivial":
        if report.k_pi is not None:
            return InducedBound((report.k_pi,), report.k_pi, "socle classification")
        return InducedBound(report.k_bound, None, "socle bound")

    _, bound = _regime(pi)
    if spec.family == ALT:
        if report.k_pi is not None:
            return InducedBound(
                (report.k_pi,), report.k_pi,
                "symmetric-group-induced classes equal the socle classes",
            )
    if spec.family == SYMPLECTIC and report.k_pi == 9:
        return InducedBound((1, 9), None, "wreath-type classes fuse to 1 or stay 9")
    if spec.family == TWO_G2 and report.k_pi == 2 and report.scope_tag == TAG_NO_3:
        return InducedBound(
            (2,), 2, "nonisomorphic Hall subgroups cannot fuse under automorphisms"
        )
    if report.k_pi is not None:
        refined = tuple(sorted({k for k in bound if k <= report.k_pi}))
        return InducedBound(refined, None, "socle value caps the induced count")
    return InducedBound(bound, None, "regime bound")
