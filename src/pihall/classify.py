"""Hall-subgroup classification engine.

classify(spec, pi) decides existence of pi-Hall subgroups, describes the
conjugacy-class families, and counts the classes k_pi.  The full
structural answer is produced in the regime 2, 3 in pi with the defining
characteristic outside pi; the remaining regimes return proven bound
sets (and exact answers where known: the small Ree family, the sporadic
table, defining-characteristic patterns).

Every emitted class family records the arithmetic conditions it was
checked against, with the concrete numbers, so reports are auditable.

The cross-characteristic families (2, 3 in pi, p outside pi) are tables of
rows, walked in order by _fire.  A row is a plain tuple (case id, predicate,
structure, order, class count, conditions, fusion note); the predicate takes
the _Query, and the structure, the order and each condition's value are
constants or functions of it.  The shared predicates (_torus, _spectrum and
the _dickson tests of PSL2(q)) sit above the tables and read the facts of the
query's spec, which groups._spec_facts finds once per spec.  To add a row,
append its tuple to the family's table where its classes should be listed;
name a shared predicate, or define a new one once next to the table.  Rules
that recurse into a sub-query or loop stay functions, and read the same
predicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import permutations
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from pihall.arith import (
    PrimeSet,
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
    _spec_facts,
    format_group,
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


@dataclass(frozen=True, slots=True)
class Condition:
    name: str
    value: str


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


class _Query:
    """One query and the facts every family rule reads: |G|, pi ∩ pi(G) and
    h = |G|_pi; for Lie type also q, its characteristic p and eps = epsilon(q)
    (None for even q).

    All but pi ∩ pi(G) and h depend on the spec alone, so they come from the
    spec's facts (groups._spec_facts), which every prime set and sub-query of
    the spec shares: |G| is found once per spec and each |G|_r once per spec
    and prime r, and pi ∩ pi(G) is read off those r-parts, so |G| is never
    factored.  The cross-characteristic rows also read (q^2-1)_{2,3},
    (q^2-1)_{2,3,5}, (q-eps)_{2,3} and (q-eps)_{2,3,5} from the facts, and
    (q-eps)_pi, which is computed on its first read and kept.  The rules only
    read a query; it is a plain class, not a dataclass, to keep the module's
    import cheap."""

    def __init__(self, spec: GroupSpec, pi: PrimeSet, facts, gpi: frozenset, h: int) -> None:
        self.spec, self.pi, self.facts, self.gpi, self.h = spec, pi, facts, gpi, h
        self.order, self.q, self.p, self.eps = facts.order, facts.q, facts.p, facts.eps

    @cached_property
    def torus_pi(self) -> int:
        return pi_part(self.q - self.eps, self.pi)

    def within(self, n: int) -> bool:
        """pi ∩ pi(G) ⊆ pi(n), tested by divisibility, so n is never factored."""
        return all(n % r == 0 for r in self.gpi)


def _query(spec: GroupSpec, pi: PrimeSet) -> _Query:
    """The facts of a validated spec under pi: pi ∩ pi(G) and h = |G|_pi are
    read off the spec's r-parts, one lookup per prime of pi."""
    facts = _spec_facts(spec)
    h, gpi = 1, []
    for r in pi:
        part = facts.r_part(r)
        if part > 1:
            h *= part
            gpi.append(r)
    return _Query(spec, pi, facts, frozenset(gpi), h)


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
    # the primes of (n-1)! are those below n
    if n >= 7 and is_prime(n) and gpi == primes_n - {n}:
        return SymHallCase("b", f"Sym({n - 1})", 2)
    if gpi == frozenset((2, 3)) and n in _SYM_D_STRUCTURE:
        return SymHallCase("d", *_SYM_D_STRUCTURE[n])
    return None


def _sym_alt(query: _Query) -> HallReport:
    """Sym(n) and Alt(n) share sym_hall_case: a Hall subgroup of Alt(n) is
    one of Sym(n) intersected with Alt(n), and its order is |Alt(n)|_pi.
    _dispatch answers |pi ∩ pi(G)| <= 1 and pi ⊇ pi(G): only cases b, d (n >= 5) get here."""
    spec, gpi, h = query.spec, query.gpi, query.h
    n = spec.n
    case = sym_hall_case(n, query.pi)
    tag, _ = _regime(query.pi)
    if case is None:
        return _report(query, tag, [], NO)
    structure = case.structure
    if spec.family == ALT:
        structure = _ALT_D_STRUCTURE[n] if case.case == "d" else structure.replace("Sym", "Alt")
    conds = (
        Condition(f"pi ∩ pi({spec.family}_n)", _fmt_set(gpi)),
        Condition("case", case.case),
    )
    desc = HallClassDescriptor(f"{spec.family.lower()}.{case.case}", structure, h, 1, conds)
    return _report(query, tag, [desc], NO)


# ---------------------------------------------------------------------------
# the row evaluator and the shared predicates


def _value(v, query: _Query):
    return v(query) if callable(v) else v


def _fire(query: _Query, rows) -> List[HallClassDescriptor]:
    """The class family of each row whose predicate holds, in row order."""
    return [
        HallClassDescriptor(
            case_id, _value(structure, query), _value(so, query), count,
            tuple(Condition(name, _value(v, query)) for name, v in conds), fusion,
        )
        for case_id, holds, structure, so, count, conds, fusion in rows
        if holds(query)
    ]


def _checked(report: HallReport, family: str, counts: Tuple[int, ...]) -> HallReport:
    """report, once its k_pi is one of the family's possible counts."""
    if report.k_pi not in counts:
        raise RuntimeError(f"{family} class count {report.k_pi} outside {_fmt_set(counts[1:])}")
    return report


# With q odd and 2, 3 in pi, the Hall subgroups of PSL2(q) are a torus normalizer,
# Alt(4), Sym(4) and Alt(5) (Dickson; Huppert, Endliche Gruppen I, II.8.27).  SL2,
# GL2, the small orthogonal groups, the symplectic wreath and the exceptional tori
# are built from SL2 blocks, so their rows read these predicates.
_S235 = frozenset((2, 3, 5))


def _torus(query: _Query) -> bool:
    """pi ∩ pi(G) ⊆ pi(q-eps)."""
    return query.within(query.q - query.eps)


def _spectrum(query: _Query) -> bool:
    """pi ∩ pi(G) ⊆ pi(q^2-1)."""
    return query.within(query.q * query.q - 1)


def _dickson(fact: str, primes: Tuple[int, ...], value: int):
    """The predicate pi ∩ pi(G) = primes and the spec fact named `fact` = value."""
    primes = frozenset(primes)
    return lambda query: query.gpi == primes and getattr(query.facts, fact) == value


_alt4 = _dickson("part23", (2, 3), 24)  # (q^2-1)_{2,3} = 24
_sym4 = _dickson("part23", (2, 3), 48)  # (q^2-1)_{2,3} = 48
_alt5 = _dickson("part235", (2, 3, 5), 120)  # (q^2-1)_{2,3,5} = 120
_dihedral12 = _dickson("torus23", (2, 3), 12)  # (q-eps)_{2,3} = 12
_dihedral24 = _dickson("torus23", (2, 3), 24)  # (q-eps)_{2,3} = 24
_dihedral60 = _dickson("torus235", (2, 3, 5), 60)  # (q-eps)_{2,3,5} = 60

_HALL = attrgetter("h")
_TORUS_PI = attrgetter("torus_pi")

# condition (name, value) pairs that several rows print
_GPI = ("pi ∩ pi(G)", lambda qy: _fmt_set(qy.gpi))
_GPI23 = ("pi ∩ pi(G)", "{2,3}")
_GPI235 = ("pi ∩ pi(G)", "{2,3,5}")
_GPI_IN_TORUS = ("pi ∩ pi(G) ⊆ pi(q-eps)", _GPI[1])
_PI_TORUS = ("pi(q-eps)", lambda qy: _fmt_set(prime_divisors(qy.q - qy.eps)))
_Q24 = ("(q^2-1)_{2,3}", "24")
_Q48 = ("(q^2-1)_{2,3}", "48")
_Q120 = ("(q^2-1)_{2,3,5}", "120")


# ---------------------------------------------------------------------------
# two-dimensional linear and unitary groups


def _psl2(projective, linear):
    """A structure or order that is `linear` in SL2(q) and `projective` in PSL2(q)."""
    return lambda qy: _value(projective if qy.spec.variant == SIMPLE else linear, qy)


_PGL2_SWAP = "the two classes are interchanged by the diagonal outer automorphism (PGL2 level)"

_SL2_ROWS = (
    ("sl2.a", _torus,
     _psl2(lambda qy: f"D({qy.torus_pi})", lambda qy: f"2.D({qy.torus_pi})"),
     _psl2(_TORUS_PI, lambda qy: 2 * qy.torus_pi), 1,
     (_GPI, _PI_TORUS, ("(q-eps)_pi", lambda qy: str(qy.torus_pi))), ""),
    ("sl2.b", _alt4, _psl2("Alt(4)", "SL2(3)"), _psl2(12, 24), 1, (_GPI23, _Q24), ""),
    ("sl2.c", _sym4, _psl2("Sym(4)", "2.Sym(4)"), _psl2(24, 48), 2, (_GPI23, _Q48), _PGL2_SWAP),
    ("sl2.d", _alt5, _psl2("Alt(5)", "SL2(5)"), _psl2(60, 120), 2, (_GPI235, _Q120), _PGL2_SWAP),
)


def _gl2_center(query: _Query) -> int:
    """(q-eta)_pi, the pi-part of the centre of GL2(q) or GU2(q)."""
    return pi_part(query.q - query.spec.eta, query.pi)


_GL2_ROWS = (
    ("gl2.a", _torus, lambda qy: f"Z({_gl2_center(qy)}) . D({2 * qy.torus_pi})",
     lambda qy: _gl2_center(qy) * 2 * qy.torus_pi, 1, (_GPI, _PI_TORUS), ""),
    ("gl2.b", _alt4, lambda qy: f"Z({_gl2_center(qy)}) . Sym(4)",
     lambda qy: _gl2_center(qy) * 24, 1, (_GPI23, _Q24), ""),
)


def _sl2(query: _Query) -> HallReport:
    """pi-Hall subgroups of SL2(q), or of PSL2(q) for the simple variant;
    SU2(q) = SL2(q) takes the same answer."""
    return _checked(_report(query, TAG_FULL, _fire(query, _SL2_ROWS), NO), "SL2", (0, 1, 2, 3))


def _gl2(query: _Query) -> HallReport:
    """pi-Hall subgroups of GL2(q) (eta=+1) or GU2(q) (eta=-1)."""
    rep = _report(query, TAG_FULL, _fire(query, _GL2_ROWS), OUT_OF_SCOPE)
    return _checked(rep, "GL2", (0, 1, 2))


# ---------------------------------------------------------------------------
# linear and unitary groups, n >= 3


def _lu_center(query: _Query) -> int:
    """gcd(n, q-eta) = |Z(SL_n^eta(q))| for the simple variant, which divides it out; else 1."""
    spec = query.spec
    return math.gcd(spec.n, query.q - spec.eta) if spec.variant == SIMPLE else 1


def _quotient(d: int) -> str:
    return f" / Z({d})" if d > 1 else ""


def _alt6_block(query: _Query) -> bool:
    q, eta = query.q, query.spec.eta
    return (query.spec.n == 4 and query.gpi == _S235 and (q - 5 * eta) % 8 == 0
            and r_part(q + eta, 3) == 3 and r_part(q * q + 1, 5) == 5)


_LINEAR_UNITARY_ROWS = (
    ("linear_unitary.d", _alt6_block, lambda qy: "4.2^4.Alt(6)" + _quotient(_lu_center(qy)),
     lambda qy: 23040 // _lu_center(qy), 2,
     (("q = 5 eta (mod 8)", lambda qy: str(qy.q % 8)), ("(q+eta)_3", "3"), ("(q^2+1)_5", "5"),
      _GPI235),
     "the two classes are interchanged by the full diagonal outer group"),
)


def _linear_unitary(query: _Query) -> HallReport:
    """SL_n^eta(q) and PSL_n^eta(q) for n >= 3."""
    spec, q, pi, gpi, h = query.spec, query.q, query.pi, query.gpi, query.h
    n, eta = spec.n, spec.eta
    center = _lu_center(query)
    sgn = "+" if eta == 1 else "-"

    def stmt_b() -> Optional[HallClassDescriptor]:
        if (q - eta) % 12 != 0 and not (n == 3 and (q - eta) % 4 == 0):
            return None
        # pi ∩ pi(G) ⊆ pi(q-eta) ∪ pi(n!)
        if sym_hall_case(n, pi) is None or not all(r <= n or (q - eta) % r == 0 for r in gpi):
            return None
        checked = []
        for rr in sorted(r for r in pi if r <= n and (q - eta) % r):
            # |SL_n^eta(q)|_r = |G|_r * |Z|_r, as r_part(ab) = r_part(a) * r_part(b)
            g_r = query.facts.r_part(rr) * r_part(center, rr)
            s_r = r_part(math.factorial(n), rr)
            checked.append(Condition(f"|G|_{rr} vs |Sym_n|_{rr}", f"{g_r} vs {s_r}"))
            if g_r != s_r:
                return None
        conds = (
            Condition("congruence", f"q-eta = {q - eta} (mod 12 / n=3 mod 4 rule)"),
            Condition("pi ∩ pi(G)", _fmt_set(gpi)),
            *checked,
        )
        structure = f"Hall(Z({q - eta})^{n - 1} . Sym({n}){_quotient(center)})"
        return HallClassDescriptor("linear_unitary.b", structure, h, 1, conds)

    def stmt_c() -> Optional[HallClassDescriptor]:
        m, k1 = n // 2, n % 2
        if (q + eta) % 3 != 0 or not _spectrum(query):
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
            "linear_unitary.c", f"Hall((GL2({q},{sgn}) wr Sym({m})){tail} in SL)", h, count, conds,
            fusion_note="classes are indexed by the GL2-Hall class chosen on each orbit "
                        "of the Sym_m-Hall",
        )

    notes = []
    if n == 11 and _alt4(query) and (q + eta) % 3 == 0 and (q - eta) % 4 == 0:
        z2 = r_part(q - eta, 2)
        conds = (Condition("pi ∩ pi(G)", "{2,3}"), Condition("(q^2-1)_{2,3}", "24"),
                 Condition("q = -eta (mod 3), q = eta (mod 4)", f"q = {q}"))
        structure = f"Hall(((Z({z2}) o 2.Sym(4)) wr Sym(4)) x (Z({z2}) wr Sym(3)) in SL)"
        classes = [HallClassDescriptor("linear_unitary.e", structure, h, 1, conds)]
        ce = stmt_c()
        if ce is not None:
            classes.append(replace(ce, class_count=2))
        notes.append("with the n=11 mixed decomposition present, the diagonal-block family "
                     "contributes exactly two classes (asserted total k=3)")
    else:
        classes = [d for d in (stmt_b(), stmt_c()) if d is not None]
        classes += _fire(query, _LINEAR_UNITARY_ROWS)
    rep = _report(query, TAG_FULL, classes, NO, notes)
    return _checked(rep, "linear/unitary", (0, 1, 2, 3, 4))


# ---------------------------------------------------------------------------
# symplectic groups


def _symplectic(query: _Query) -> HallReport:
    q, pi, gpi, h = query.q, query.pi, query.gpi, query.h
    m = query.spec.n // 2
    sl2rep = _sl2(_query(GroupSpec(LINEAR_UNITARY, n=2, q=q, eta=1, variant=ISOMETRY), pi))
    sym = sym_hall_case(m, pi)
    classes: List[HallClassDescriptor] = []
    if sl2rep.e_pi == YES and sym is not None and _spectrum(query):
        count = sl2rep.k_pi ** sym.orbit_count
        conds = (
            Condition("SL2(q) in E_pi, k", str(sl2rep.k_pi)),
            Condition("Sym_m case / orbit count t", f"{sym.case} / {sym.orbit_count}"),
            Condition("pi ∩ pi(G) ⊆ pi(q^2-1)", _fmt_set(gpi)),
        )
        quot = " / Z(2)" if query.spec.variant == SIMPLE else ""
        classes.append(HallClassDescriptor(
            "symplectic.wreath", f"Hall(SL2({q}) wr Sym({m}){quot})", h, count, conds,
            fusion_note="classes are indexed by the SL2-Hall class chosen on each orbit "
                        "of the Sym_m-Hall",
        ))
    return _checked(_report(query, TAG_FULL, classes, NO), "symplectic", (0, 1, 2, 3, 4, 9))


# ---------------------------------------------------------------------------
# orthogonal groups


def _o2_pi(query: _Query) -> int:
    return pi_part((query.q - query.spec.eta) // 2, query.pi)


def _o6_split_torus(query: _Query) -> bool:
    return query.spec.eta == query.eps and (query.q - query.eps) % 3 == 0 and _torus(query)


def _o6_twisted_torus(query: _Query) -> bool:
    return query.spec.eta == -query.eps and _torus(query)


def _o6_sym4(query: _Query) -> bool:
    return (query.q + query.spec.eta) % 3 == 0 and _alt4(query)


def _o6_alt6(query: _Query) -> bool:
    q, eta = query.q, query.spec.eta
    return (eta == query.eps and q % 8 in (3, 5) and (q + eta) % 3 == 0
            and query.gpi == _S235 and query.facts.part23 == 24 and r_part(q * q + 1, 5) == 5)


_SO_SWAP = "{} interchanges the two classes"
_INVOLUTION = "{} \\ Omega4+ induces an involution of shape (ij)(kl) on the classes"

# (n, eta) -> rows, with eta None outside dimension 4.  The rows of n = 6 match
# the 4-dimensional linear or unitary group that Omega6 is a central image of.
_ORTHOGONAL_SMALL_ROWS = {
    # Omega2(q) has order (q-eta)/2, which divides q^2-1, so its one row always holds
    (2, None): (
        ("orthogonal2.a", _spectrum, lambda qy: f"Z({_o2_pi(qy)})", _o2_pi, 1,
         (("cyclic order", lambda qy: str((qy.q - qy.spec.eta) // 2)),), ""),
    ),
    (3, None): (
        ("orthogonal3.b", _torus, lambda qy: f"D({qy.torus_pi})", _TORUS_PI, 1,
         (_GPI_IN_TORUS,), ""),
        ("orthogonal3.c", _alt4, "Alt(4)", 12, 1, (_Q24,), ""),
        ("orthogonal3.d", _sym4, "Sym(4)", 24, 2, (_Q48,), _SO_SWAP.format("SO3(q)")),
        ("orthogonal3.e", _alt5, "Alt(5)", 60, 2, (_Q120,), _SO_SWAP.format("SO3(q)")),
    ),
    (4, 1): (
        ("orthogonal4.f", _torus, lambda qy: f"2.D({qy.torus_pi}) o 2.D({qy.torus_pi})",
         lambda qy: 2 * qy.torus_pi ** 2, 1, (_GPI_IN_TORUS,), ""),
        ("orthogonal4.g", _alt4, "SL2(3) o SL2(3)", 288, 1, (_Q24,), ""),
        ("orthogonal4.h", _dihedral12, "2.D(12) o SL2(3)", 288, 2, (("(q-eps)_{2,3}", "12"),),
         "SO4+(q) stabilizes the classes; O4+(q) interchanges them"),
        ("orthogonal4.i", _sym4, "2.Sym(4) o 2.Sym(4)", 1152, 4, (_Q48,),
         _INVOLUTION.format("SO4+")),
        ("orthogonal4.j", _dihedral24, "2.D(24) o 2.Sym(4)", 1152, 4, (("(q-eps)_{2,3}", "24"),),
         _INVOLUTION.format("O4+")),
        ("orthogonal4.k", _alt5, "SL2(5) o SL2(5)", 7200, 4, (_Q120,), _INVOLUTION.format("SO4+")),
        ("orthogonal4.l", _dihedral60, "2.D(60) o SL2(5)", 7200, 4, (("(q-eps)_{2,3,5}", "60"),),
         _INVOLUTION.format("O4+")),
    ),
    (4, -1): (
        ("orthogonal4.m", _spectrum, lambda qy: f"D({pi_part(qy.q * qy.q - 1, qy.pi)})",
         lambda qy: pi_part(qy.q * qy.q - 1, qy.pi), 1,
         (("pi ∩ pi(G) ⊆ pi(q^2-1)", _GPI[1]),), ""),
        ("orthogonal4.n", _alt4, "Sym(4)", 24, 2, (_Q24,),
         "invariant under O4-(q); GO4-(q) interchanges the two classes"),
    ),
    (5, None): (
        ("orthogonal5.o", _torus, lambda qy: f"(2.D({qy.torus_pi}) o 2.D({qy.torus_pi})) . 2",
         lambda qy: 4 * qy.torus_pi ** 2, 1, (_GPI_IN_TORUS,), ""),
        ("orthogonal5.p", _alt4, "(2.Alt(4) o 2.Alt(4)) . 2", 576, 1, (_Q24,), ""),
        ("orthogonal5.q", _sym4, "(2.Sym(4) o 2.Sym(4)) . 2", 2304, 2, (_Q48,),
         _SO_SWAP.format("SO5(q)")),
        ("orthogonal5.r", _alt5, "(SL2(5) o SL2(5)) . 2", 14400, 2, (_Q120,),
         _SO_SWAP.format("SO5(q)")),
    ),
    (6, None): (
        ("orthogonal6.s", _o6_split_torus,
         lambda qy: f"Hall(D({2 * (qy.q - qy.eps)}) wr Sym(3) in Omega)", _HALL, 1,
         (_GPI, ("3 | q-eps", lambda qy: str(qy.q - qy.eps))), ""),
        ("orthogonal6.t", _o6_twisted_torus,
         lambda qy: (f"Hall(D({2 * (qy.q - qy.eps)}) x D({2 * (qy.q - qy.eps)})"
                     f" x D({2 * (qy.q + qy.eps)}) in Omega)"), _HALL, 1, (_GPI,), ""),
        ("orthogonal6.u", _o6_sym4,
         lambda qy: (f"Hall((Z({r_part(qy.q - qy.spec.eta, 2)}) o 2.Sym(4) o 2.Sym(4))"
                     " . 2 in Omega)"),
         _HALL, 1, (_Q24, ("q = -eta (mod 3)", lambda qy: str(qy.q % 3))), ""),
        ("orthogonal6.v", _o6_alt6, "2^5.Alt(6)", 11520, 2,
         (_Q24, ("(q^2+1)_5", "5"), ("q mod 8", lambda qy: str(qy.q % 8))),
         "invariant under O6(q); the similarity group interchanges the two classes"),
    ),
}


def _orthogonal_small(query: _Query) -> HallReport:
    """The small-dimension table, n <= 6, at the Omega level; validation
    rewrites or rejects the simple variants, so only isometry groups get here.
    D_pi holds in the cyclic Omega2."""
    n = query.spec.n
    classes = _fire(query, _ORTHOGONAL_SMALL_ROWS[n, query.spec.eta if n == 4 else None])
    return _report(query, TAG_FULL, classes, YES if n == 2 else NO)


def _split_torus(query: _Query) -> bool:
    """q = eps (mod 12) and pi ∩ pi(G) ⊆ pi(q-eps)."""
    return (query.q - query.eps) % 12 == 0 and _torus(query)


def _torus_wreath(query: _Query, m: int) -> bool:
    return _split_torus(query) and sym_hall_case(m, query.pi) is not None


def _odd_torus(query: _Query) -> bool:
    return query.spec.n % 2 == 1 and _torus_wreath(query, query.spec.n // 2)


def _even_torus(query: _Query) -> bool:
    n = query.spec.n
    return n % 2 == 0 and query.spec.eta == query.eps ** (n // 2) and _torus_wreath(query, n // 2)


def _even_twisted_torus(query: _Query) -> bool:
    n = query.spec.n
    return (n % 2 == 0 and query.spec.eta == -(query.eps ** (n // 2))
            and _torus_wreath(query, n // 2 - 1))


def _omega11_blocks(query: _Query) -> bool:
    return query.spec.n == 11 and _split_torus(query) and _alt4(query)


def _omega12_minus_blocks(query: _Query) -> bool:
    spec = query.spec
    return spec.n == 12 and spec.eta == -1 and _split_torus(query) and _alt4(query)


def _dq(query: _Query) -> str:
    return f"D({2 * (query.q - query.eps)})"


_MOD12 = (
    ("q = eps (mod 12)", lambda qy: f"q = {qy.q}, eps = {'+' if qy.eps == 1 else '-'}"),
    _GPI,
)

_ORTHOGONAL_ROWS = (
    ("orthogonal.a", _odd_torus,
     lambda qy: f"Hall({_dq(qy)} wr Sym({qy.spec.n // 2}) x Z(2))", _HALL, 1, _MOD12, ""),
    ("orthogonal.b", _even_torus,
     lambda qy: f"Hall({_dq(qy)} wr Sym({qy.spec.n // 2}))", _HALL, 1, _MOD12, ""),
    ("orthogonal.c", _even_twisted_torus,
     lambda qy: f"Hall({_dq(qy)} wr Sym({qy.spec.n // 2 - 1}) x D({2 * (qy.q + qy.eps)}))",
     _HALL, 1, _MOD12, ""),
    ("orthogonal.d", _omega11_blocks,
     lambda qy: f"Hall({_dq(qy)} wr Sym(4) x Z(2) wr Sym(3))", _HALL, 1, _MOD12 + (_Q24,), ""),
    ("orthogonal.e", _omega12_minus_blocks,
     lambda qy: f"Hall({_dq(qy)} wr Sym(4) x Z(2) wr Sym(3) x Z(2))", _HALL, 2,
     _MOD12 + (_Q24,), "the similarity group interchanges the two classes"),
)

# n -> (structure, expected pi-part of |Omega_n(q)|, class count, fusion) in the
# three exotic constant cases, rows f, g and h, with pi ∩ pi(G) = {2,3,5,7}
_OMEGA_EXOTIC = {
    7: ("Omega7(2)", 2**9 * 3**4 * 5 * 7, 2, _SO_SWAP.format("SO7(q)")),
    8: ("2.Omega8+(2)", 2**13 * 3**5 * 5**2 * 7, 4,
        "diagonal and graph outer automorphisms act on the four classes as Sym(4); "
        "diagonal ones act without fixed points"),
    9: ("2.Omega8+(2).2", 2**14 * 3**5 * 5**2 * 7, 2, _SO_SWAP.format("SO9(q)")),
}


def _orthogonal_large(query: _Query) -> HallReport:
    """Orthogonal groups of dimension >= 7 by the general criteria."""
    spec, n, eta = query.spec, query.spec.n, query.spec.eta
    classes = _fire(query, _ORTHOGONAL_ROWS)
    if n in _OMEGA_EXOTIC and query.gpi == frozenset((2, 3, 5, 7)) and (n != 8 or eta == 1):
        structure, omega_pi, count, fusion = _OMEGA_EXOTIC[n]
        omega = GroupSpec(ORTHOGONAL, n=n, q=query.q, eta=eta, variant=ISOMETRY)
        if _query(omega, query.pi).h == omega_pi:
            so = omega_pi
            if spec.variant == SIMPLE and n == 8:
                structure, so = "Omega8+(2)", omega_pi // 2
            conds = (Condition("pi ∩ pi(G)", "{2,3,5,7}"), Condition("|Omega|_pi", str(omega_pi)))
            case_id = f"orthogonal.{'fgh'[n - 7]}"
            classes.append(HallClassDescriptor(case_id, structure, so, count, conds, fusion))
    return _checked(_report(query, TAG_FULL, classes, NO), "orthogonal", (0, 1, 2, 3, 4))


# ---------------------------------------------------------------------------
# exceptional groups


def _g2_exotic(query: _Query) -> bool:
    q = query.q
    return (query.gpi == frozenset((2, 3, 7)) and pi_part(q * q - 1, (2, 3, 7)) == 24
            and r_part(q**4 + q**2 + 1, 7) == 7)


def _e6_split_torus(query: _Query) -> bool:
    return query.spec.eta == query.eps and 5 in query.pi and _torus(query)


def _e6_twisted_torus(query: _Query) -> bool:
    return query.spec.eta != query.eps and _torus(query)


def _torus57(query: _Query) -> bool:
    return 5 in query.pi and 7 in query.pi and _torus(query)


def _zq(query: _Query) -> str:
    return f"Z({query.q - query.eps})"


_TORUS_BASE = (_GPI, _PI_TORUS)
_PI57 = ("5,7 in pi", lambda qy: str(sorted(qy.pi)))

# family -> rows; at most one row holds, since G2(2) needs 7 outside pi(q^2-1)
# where the G2 torus needs it in pi(q-eps), and the E6 rows need eta = eps and eta = -eps
_EXCEPTIONAL_ROWS = {
    G2: (
        ("g2.a", _g2_exotic, "G2(2)", 12096, 1,
         (("(q^2-1)_{2,3,7}", "24"), ("(q^4+q^2+1)_7", "7")), ""),
        ("g2.b", _torus, lambda qy: f"Hall({_zq(qy)}^2 . W(G2))", _HALL, 1, _TORUS_BASE, ""),
    ),
    F4: (("f4.torus", _torus, lambda qy: f"Hall({_zq(qy)}^4 . W(F4))", _HALL, 1, _TORUS_BASE, ""),),
    E6: (
        ("e6.torus", _e6_split_torus,
         lambda qy: f"Hall({_zq(qy)}^6 / Z({math.gcd(3, qy.q - qy.eps)}) . W(E6))", _HALL, 1,
         _TORUS_BASE + (("5 in pi", "True"),), ""),
        ("e6.torus", _e6_twisted_torus,
         lambda qy: f"Hall(Z({qy.q * qy.q - 1})^2 x Z({qy.q + qy.spec.eta})^2 . W(F4))", _HALL, 1,
         _TORUS_BASE, ""),
    ),
    E7: (("e7.torus", _torus57, lambda qy: f"Hall({_zq(qy)}^7 / Z(2) . W(E7))", _HALL, 1,
          _TORUS_BASE + (_PI57,), ""),),
    E8: (("e8.torus", _torus57, lambda qy: f"Hall({_zq(qy)}^8 . W(E8))", _HALL, 1,
          _TORUS_BASE + (_PI57,), ""),),
    TRI_D4: (("3d4.torus", _torus, lambda qy: f"Hall({_zq(qy)} x Z({qy.q**3 - qy.eps}) . W(G2))",
              _HALL, 1, _TORUS_BASE, ""),),
}


def _exceptional(query: _Query) -> HallReport:
    """G2, F4, E6, E7, E8 and 3D4; 2G2 never gets here, since 3 in pi puts
    its characteristic in pi."""
    classes = _fire(query, _EXCEPTIONAL_ROWS[query.spec.family])
    return _checked(_report(query, TAG_FULL, classes, NO), "exceptional", (0, 1))


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
    if all(r == p or (q - 1) % r == 0 for r in gpi):
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
    return _classify_valid(validate(spec), pi)


def _classify_valid(spec: GroupSpec, pi: PrimeSet) -> HallReport:
    """classify for a spec that validate returned, which is not validated again."""
    return _dispatch(_query(spec, PrimeSet(pi)))


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
    report = classify(spec, pi)
    family = report.spec.family
    if outer_description == "trivial":
        if report.k_pi is not None:
            return InducedBound((report.k_pi,), report.k_pi, "socle classification")
        return InducedBound(report.k_bound, None, "socle bound")

    _, bound = _regime(pi)
    if family == ALT:
        if report.k_pi is not None:
            return InducedBound(
                (report.k_pi,), report.k_pi,
                "symmetric-group-induced classes equal the socle classes",
            )
    if family == SYMPLECTIC and report.k_pi == 9:
        return InducedBound((1, 9), None, "wreath-type classes fuse to 1 or stay 9")
    if family == TWO_G2 and report.k_pi == 2 and report.scope_tag == TAG_NO_3:
        return InducedBound(
            (2,), 2, "nonisomorphic Hall subgroups cannot fuse under automorphisms"
        )
    if report.k_pi is not None:
        refined = tuple(sorted({k for k in bound if k <= report.k_pi}))
        return InducedBound(refined, None, "socle value caps the induced count")
    return InducedBound(bound, None, "regime bound")
