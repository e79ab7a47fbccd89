"""Correctness checks made apart from the program.

Group orders come from the textbook formulas below, in plain integers;
primality from sympy; subgroup closures, inverses, normalizers and
conjugation loops are computed here from the group's elements and its
multiplication.  Each check returns a list of error strings, empty when
the answer is right, so the benchmark's tests can feed it corrupted
answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

BOUND_FULL = (0, 1, 2, 3, 4, 9)

# ATLAS orders of the 26 sporadic groups, as prime factorizations
SPORADIC = {
    "M11": {2: 4, 3: 2, 5: 1, 11: 1},
    "M12": {2: 6, 3: 3, 5: 1, 11: 1},
    "M22": {2: 7, 3: 2, 5: 1, 7: 1, 11: 1},
    "M23": {2: 7, 3: 2, 5: 1, 7: 1, 11: 1, 23: 1},
    "M24": {2: 10, 3: 3, 5: 1, 7: 1, 11: 1, 23: 1},
    "J1": {2: 3, 3: 1, 5: 1, 7: 1, 11: 1, 19: 1},
    "J2": {2: 7, 3: 3, 5: 2, 7: 1},
    "J3": {2: 7, 3: 5, 5: 1, 17: 1, 19: 1},
    "J4": {2: 21, 3: 3, 5: 1, 7: 1, 11: 3, 23: 1, 29: 1, 31: 1, 37: 1, 43: 1},
    "Co1": {2: 21, 3: 9, 5: 4, 7: 2, 11: 1, 13: 1, 23: 1},
    "Co2": {2: 18, 3: 6, 5: 3, 7: 1, 11: 1, 23: 1},
    "Co3": {2: 10, 3: 7, 5: 3, 7: 1, 11: 1, 23: 1},
    "Fi22": {2: 17, 3: 9, 5: 2, 7: 1, 11: 1, 13: 1},
    "Fi23": {2: 18, 3: 13, 5: 2, 7: 1, 11: 1, 13: 1, 17: 1, 23: 1},
    "Fi24'": {2: 21, 3: 16, 5: 2, 7: 3, 11: 1, 13: 1, 17: 1, 23: 1, 29: 1},
    "HS": {2: 9, 3: 2, 5: 3, 7: 1, 11: 1},
    "McL": {2: 7, 3: 6, 5: 3, 7: 1, 11: 1},
    "He": {2: 10, 3: 3, 5: 2, 7: 3, 17: 1},
    "Ru": {2: 14, 3: 3, 5: 3, 7: 1, 13: 1, 29: 1},
    "Suz": {2: 13, 3: 7, 5: 2, 7: 1, 11: 1, 13: 1},
    "ON": {2: 9, 3: 4, 5: 1, 7: 3, 11: 1, 19: 1, 31: 1},
    "HN": {2: 14, 3: 6, 5: 6, 7: 1, 11: 1, 19: 1},
    "Ly": {2: 8, 3: 7, 5: 6, 7: 1, 11: 1, 31: 1, 37: 1, 67: 1},
    "Th": {2: 15, 3: 10, 5: 3, 7: 2, 13: 1, 19: 1, 31: 1},
    "B": {2: 41, 3: 13, 5: 6, 7: 2, 11: 1, 13: 1, 17: 1, 19: 1, 23: 1, 31: 1, 47: 1},
    "M": {2: 46, 3: 20, 5: 9, 7: 6, 11: 2, 13: 3, 17: 1, 19: 1, 23: 1, 29: 1,
          31: 1, 41: 1, 47: 1, 59: 1, 71: 1},
}

# exponents i of the factors (q^i - 1) in the orders of the exceptional groups
EXCEPTIONAL_DEGREES = {
    "G2": (2, 6),
    "F4": (2, 6, 8, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}


@dataclass(frozen=True)
class Cell:
    """One group of a sweep grid, described apart from the program's GroupSpec."""

    family: str  # "Alt", "Sym", "Sporadic", "L" (linear/unitary), "Sp", "O", "G2", ...
    n: Optional[int] = None
    q: Optional[int] = None
    eta: Optional[int] = None
    name: Optional[str] = None  # sporadic name


def _prod(values: Iterable[int]) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def simple_order(cell: Cell) -> int:
    """|G| by the textbook formula for the simple group (Sym(n): n!)."""
    f, n, q, e = cell.family, cell.n, cell.q, cell.eta
    if f == "Alt":
        return math.factorial(n) // 2
    if f == "Sym":
        return math.factorial(n)
    if f == "Sporadic":
        return _prod(p**k for p, k in SPORADIC[cell.name].items())
    if f == "L":  # PSL(n,q) for e = 1, PSU(n,q) for e = -1
        sl = q ** (n * (n - 1) // 2) * _prod(q**i - e**i for i in range(2, n + 1))
        return sl // math.gcd(n, q - e)
    if f == "Sp":
        m = n // 2
        return q ** (m * m) * _prod(q ** (2 * i) - 1 for i in range(1, m + 1)) // math.gcd(2, q - 1)
    if f == "O" and e is None:  # Omega(2m+1, q), q odd
        m = n // 2
        return q ** (m * m) * _prod(q ** (2 * i) - 1 for i in range(1, m + 1)) // 2
    if f == "O":  # P Omega^e(2m, q)
        m = n // 2
        full = q ** (m * (m - 1)) * (q**m - e) * _prod(q ** (2 * i) - 1 for i in range(1, m))
        return full // math.gcd(4, q**m - e)
    if f in EXCEPTIONAL_DEGREES:
        top = {"G2": 6, "F4": 24, "E7": 63, "E8": 120}[f]
        order = q**top * _prod(q**i - 1 for i in EXCEPTIONAL_DEGREES[f])
        return order // math.gcd(2, q - 1) if f == "E7" else order
    if f == "E6":
        order = q**36 * _prod(q**i - 1 for i in (2, 6, 8, 12)) * (q**5 - e**5) * (q**9 - e**9)
        return order // math.gcd(3, q - e)
    if f == "3D4":
        return q**12 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1)
    if f == "2G2":
        return q**3 * (q**3 + 1) * (q - 1)
    raise ValueError(f"no order formula for {cell}")


def cell_name(cell: Cell) -> str:
    """The name the program prints for a simple group of the grid."""
    f, n, q, e = cell.family, cell.n, cell.q, cell.eta
    if f in ("Alt", "Sym"):
        return f"{f}({n})"
    if f == "Sporadic":
        return cell.name
    if f == "L":
        return f"PSL({n},{q})" if e == 1 else f"PSL({n},{q},-)"
    if f == "Sp":
        return f"PSp({n},{q})"
    if f == "O":
        return f"PO({n},{q})" if e is None else f"PO{'+' if e == 1 else '-'}({n},{q})"
    if f == "E6":
        return f"E6({q},{'+' if e == 1 else '-'})"
    return f"{f}({q})"


def row_names(cell: Cell) -> Tuple[str, ...]:
    """The names a report may carry: PSU(2,q) may be reported as the isomorphic PSL(2,q)."""
    if cell.family == "L" and cell.n == 2:
        return (cell_name(cell), f"PSL(2,{cell.q})")
    return (cell_name(cell),)


def pi_part(n: int, pi: Iterable[int]) -> int:
    out = 1
    for p in set(pi):
        while n % p == 0:
            n //= p
            out *= p
    return out


def is_pi_number(n: int, pi: Iterable[int]) -> bool:
    return n >= 1 and pi_part(n, pi) == n


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepRow:
    """One classified (cell, pi) pair, as plain data."""

    name: str
    pi: Tuple[int, ...]
    k_pi: Optional[int]
    c_pi: str
    hall_order: int
    class_counts: Tuple[int, ...]


def row_from_report(report, format_group) -> SweepRow:
    return SweepRow(
        format_group(report.spec), tuple(sorted(report.pi)), report.k_pi,
        report.c_pi, report.hall_order, tuple(c.class_count for c in report.classes),
    )


def check_sweep_row(row: SweepRow, cell: Cell, order: int) -> List[str]:
    """The checks every sweep row must pass, given the cell's own |G|."""
    where = f"{row.name} / {row.pi}"
    errors = []
    if row.name not in row_names(cell):
        errors.append(f"{where}: row does not belong to cell {cell_name(cell)}")
    expected = pi_part(order, row.pi)
    if row.hall_order != expected:
        errors.append(f"{where}: hall_order {row.hall_order} != |G|_pi = {expected}")
    k = row.k_pi
    if k is not None:
        if k not in BOUND_FULL:
            errors.append(f"{where}: k = {k} outside {BOUND_FULL}")
        if k >= 1 and not is_pi_number(k, row.pi):
            errors.append(f"{where}: k = {k} is not a pi-number")
        if k == 9 and not (cell.family == "Sp" and cell.n in (10, 14)):
            errors.append(f"{where}: k = 9 outside the symplectic dimensions 10 and 14")
        if sum(row.class_counts) != k:
            errors.append(f"{where}: class counts {row.class_counts} do not sum to k = {k}")
        if (row.c_pi == "yes") != (k == 1):
            errors.append(f"{where}: C_pi = {row.c_pi} with k = {k}")
    return errors


def check_spectrum(name: str, primes: Sequence[int], order: int, isprime) -> List[str]:
    """Every prime passes isprime, divides |G|, and the primes multiply back to |G|."""
    errors = [f"{name}: {p} in the prime spectrum is not prime" for p in primes if not isprime(p)]
    errors += [f"{name}: {p} in the prime spectrum does not divide |G|" for p in primes if order % p]
    if pi_part(order, primes) != order:
        errors.append(f"{name}: prime spectrum {sorted(primes)} does not multiply back to |G|")
    return errors


# ---------------------------------------------------------------------------
# concrete groups


def closure(gens: Sequence, mul, identity) -> frozenset:
    """The subgroup generated by gens, by closing under right multiplication."""
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = mul(x, s)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(elements)


def inverter(group):
    """x -> x^-1 for permutation tuples and for 2x2 matrices mod p."""
    if group.kind in ("SYM", "ALT"):
        def inv(x):
            out = [0] * len(x)
            for i, xi in enumerate(x):
                out[xi] = i
            return tuple(out)
        return inv
    p = group.spec.q
    identity, mul = group.identity, group.mul

    def inv(x):
        a, b, c, d = x
        dinv = pow((a * d - b * c) % p, -1, p)
        # multiplying by the identity puts the matrix in the group's canonical form
        return mul(identity, (d * dinv % p, -b * dinv % p, -c * dinv % p, a * dinv % p))

    return inv


def concrete_order(group) -> int:
    """|G| for the concrete groups the benchmark builds."""
    kind = group.kind
    if kind in ("SYM", "ALT"):
        n = len(group.identity)
        return math.factorial(n) // (2 if kind == "ALT" else 1)
    p = group.spec.q
    if kind == "SL2":
        return p * (p * p - 1)
    if kind == "PSL2":
        return p * (p * p - 1) // math.gcd(2, p - 1)
    raise ValueError(f"no order formula for {group.name}")


def normalizer_order(group, hall_gens: Sequence, hall: frozenset, inv) -> int:
    mul = group.mul
    return sum(
        1 for g in group.elements
        if all(mul(mul(inv(g), w), g) in hall for w in hall_gens)
    )


def check_census(group, pi: Sequence[int], census, passed: bool) -> List[str]:
    """A Hall census: orders, closure, and the orbit-stabilizer law per class."""
    name = f"{group.name} / {tuple(pi)}"
    errors = [] if passed else [f"{name}: verify_report did not pass"]
    order = concrete_order(group)
    if len(group.elements) != order:
        errors.append(f"{name}: built {len(group.elements)} elements, |G| = {order}")
    hall_order = pi_part(order, pi)
    inv = inverter(group)
    seen = set()
    for cls in census.classes:
        for h in cls:
            if len(h.elements) != hall_order:
                errors.append(f"{name}: Hall subgroup of order {len(h.elements)} != {hall_order}")
            if closure(h.generator_witness, group.mul, group.identity) != h.elements:
                errors.append(f"{name}: a Hall subgroup is not the closure of its generators")
            if h.elements in seen:
                errors.append(f"{name}: a Hall subgroup is listed twice")
            seen.add(h.elements)
        rep = cls[0]
        norm = normalizer_order(group, rep.generator_witness, rep.elements, inv)
        if len(cls) * norm != order:
            errors.append(f"{name}: class size {len(cls)} x |N_G(H)| {norm} != |G| {order}")
    if len(census.halls_found) != len(seen):
        errors.append(f"{name}: {len(census.halls_found)} Hall subgroups found, {len(seen)} in classes")
    return errors


def check_dpi_witnesses(group, pi: Sequence[int], halls: Sequence[frozenset],
                        witnesses: Sequence) -> List[str]:
    """Each witness is a pi-subgroup lying in no conjugate of its Hall subgroup."""
    name = f"{group.name} / {tuple(pi)}"
    errors = []
    if not halls or len(witnesses) != len(halls):
        errors.append(f"{name}: {len(witnesses)} witnesses for {len(halls)} Hall classes")
    inv = inverter(group)
    mul = group.mul
    for hall, w in zip(halls, witnesses):
        if w is None:
            errors.append(f"{name}: a Hall class has no witness")
            continue
        k = w.elements
        if len(k) == 1 or not is_pi_number(len(k), pi):
            errors.append(f"{name}: witness of order {len(k)} is not a nontrivial pi-group")
        if closure(w.generator_witness, mul, group.identity) != k:
            errors.append(f"{name}: witness is not the closure of its generators")
        for c in group.elements:
            ci = inv(c)
            if all(mul(mul(ci, x), c) in hall for x in k):
                errors.append(f"{name}: witness of order {len(k)} is conjugate into the Hall subgroup")
                break
    return errors
