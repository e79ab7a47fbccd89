"""Wide-net consistency fuzz: every reachable classification must return a
well-formed report (the HallReport constructor enforces the internal
invariants), across variants and prime sets the acceptance grid does not
touch."""

import pytest

from pihall.arith import PrimeSet, is_pi_number, factorize
from pihall.classify import OUT_OF_SCOPE, YES, classify
from pihall.groups import (
    GroupSpec,
    InvalidParameter,
    SPORADIC_ORDERS,
    validate,
)

PI_SETS = [
    (2,), (3,), (7,), (2, 3), (2, 5), (3, 5), (2, 7), (5, 7),
    (2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 3, 5, 7), (2, 3, 5, 7, 11, 13),
]

PRIME_POWERS = [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37]


def all_specs():
    specs = []
    for n in range(2, 10):
        specs.append(GroupSpec("Sym", n=n, variant="isometry"))
        if n >= 5:
            specs.append(GroupSpec("Alt", n=n))
    for name in sorted(SPORADIC_ORDERS):
        specs.append(GroupSpec("Sporadic", sporadic_name=name))
    for q in PRIME_POWERS:
        for n in (2, 3, 4, 5, 8, 11):
            for eta in (1, -1):
                for variant in ("simple", "isometry"):
                    specs.append(GroupSpec("LinearUnitary", n=n, q=q, eta=eta, variant=variant))
        specs.append(GroupSpec("LinearUnitary", n=2, q=q, eta=1, variant="general"))
        specs.append(GroupSpec("LinearUnitary", n=2, q=q, eta=-1, variant="general"))
        for n in (4, 6, 10):
            for variant in ("simple", "isometry"):
                specs.append(GroupSpec("Symplectic", n=n, q=q, variant=variant))
        for n in range(2, 13):
            etas = (None,) if n % 2 else (1, -1)
            for eta in etas:
                for variant in ("simple", "isometry"):
                    specs.append(GroupSpec("Orthogonal", n=n, q=q, eta=eta, variant=variant))
        specs.append(GroupSpec("G2", q=q))
        specs.append(GroupSpec("F4", q=q))
        specs.append(GroupSpec("E6", q=q, eta=1))
        specs.append(GroupSpec("E6", q=q, eta=-1))
        specs.append(GroupSpec("3D4", q=q))
    specs.append(GroupSpec("2G2", q=27))
    specs.append(GroupSpec("2G2", q=243))
    return specs


def test_every_reachable_cell_classifies_cleanly():
    produced = 0
    for spec in all_specs():
        try:
            vspec = validate(spec)
        except InvalidParameter:
            continue
        for pi in PI_SETS:
            report = classify(vspec, PrimeSet(pi))
            produced += 1
            # structural sanity beyond the constructor checks
            if report.k_pi is not None:
                assert report.k_pi in (0, 1, 2, 3, 4, 9), (spec, pi, report.k_pi)
                if report.k_pi >= 1 and 2 in pi and 3 in pi:
                    assert is_pi_number(report.k_pi, pi)
            else:
                assert report.e_pi == OUT_OF_SCOPE
            assert report.hall_order >= 1
            for c in report.classes:
                assert c.structure
    assert produced > 3000


def test_hall_order_divides_group_order():
    from pihall.groups import order

    for spec in all_specs()[::7]:
        try:
            vspec = validate(spec)
        except InvalidParameter:
            continue
        total = order(vspec)
        for pi in PI_SETS[::3]:
            report = classify(vspec, PrimeSet(pi))
            assert total % report.hall_order == 0
            # the index has no pi-part left
            assert is_pi_number(report.hall_order, pi)
            cofactor = total // report.hall_order
            assert all(cofactor % p for p in pi)
