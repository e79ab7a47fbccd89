"""Byte-for-byte golden tests for the report formats.

The goldens live in tests/golden/; any intentional format change must
regenerate them (pihall classify ... --out tests/golden/<name>, or
pihall verify --format json --out tests/golden/verify_default.json).
"""

import hashlib
import json
import pathlib

import pytest

from pihall.arith import PrimeSet, factorize
from pihall.classify import classify
from pihall.cli import (
    DEFAULT_PI_LIST,
    default_grid_specs,
    main,
    parse_pi,
    render_json,
    report_to_dict,
    run_sweep,
)
from pihall.groups import parse_group, validate

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = [
    ("psl2_7_23.json", ["classify", "--group", "PSL(2,7)", "--pi", "2,3", "--format", "json"]),
    ("m23_235.json", ["classify", "--group", "M23", "--pi", "2,3,5", "--format", "json"]),
    ("psp10_23_23.json", ["classify", "--group", "PSp(10,23)", "--pi", "2,3", "--format", "json"]),
    ("sl11_5_23.json", ["classify", "--group", "SL(11,5)", "--pi", "2,3", "--format", "json"]),
    (
        "sweep_sample.csv",
        ["sweep", "--group", "PSp(10,23)", "--group", "PSL(2,7)", "--group", "O-(12,13)",
         "--pi-list", "2,3", "--format", "csv"],
    ),
    # every census count and class_representatives witness of the default set
    ("verify_default.json", ["verify", "--format", "json"]),
    # a unitary group whose order has 20-40 digit cyclotomic factors
    ("psu11_1097_23.json",
     ["classify", "--group", "PSL(11,1097,-)", "--pi", "2,3", "--format", "json"]),
    # the default text report: an alias line, an exact count, conditions and a fusion note
    ("po4m_5_23.txt", ["classify", "--group", "PO-(4,5)", "--pi", "2,3"]),
    ("po4m_5_23.csv", ["classify", "--group", "PO-(4,5)", "--pi", "2,3", "--format", "csv"]),
    # the kpi-bound text line, with and without an exact count
    ("kpi_bound_psp10_23_23.txt", ["kpi-bound", "--group", "PSp(10,23)", "--pi", "2,3"]),
    ("kpi_bound_psl2_7_23_trivial.txt",
     ["kpi-bound", "--group", "PSL(2,7)", "--pi", "2,3", "--outer", "trivial"]),
]


@pytest.mark.parametrize("name,args", CASES)
def test_golden_bytes(name, args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


# `pihall sweep | sha256sum`: the default 3,836-row CSV, kept as a hash, not as a 388 kB file
DEFAULT_SWEEP_SHA256 = "fbf94e036f3adbdb40a63b41d5fa3958e7a9f4147672214e795e8ec2a77dec51"


def test_default_sweep_csv_hash(capsys):
    code = main(["sweep"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEFAULT_SWEEP_SHA256


# every default sweep report as JSON, concatenated: pins each condition, structure
# and note, which the CSV's columns leave out
DEFAULT_SWEEP_REPORTS_SHA256 = "9da7293cb2d4afd4e5030dab78d58a7a9846449858379538d8dce9e54dd53e12"


def test_default_sweep_reports_hash():
    reports, _ = run_sweep(default_grid_specs(), [parse_pi(t) for t in DEFAULT_PI_LIST])
    text = "".join(render_json(report_to_dict(r)) for r in reports)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEFAULT_SWEEP_REPORTS_SHA256


def pinned_variant_names():
    """Variants the default grid leaves out: SL/SU, GL/GU, Sp and O at the
    isometry level, and PO+(8,q), over the odd prime powers up to 49, 61 and 173."""
    qs = [q for q in range(3, 50, 2) if len(factorize(q).factors) == 1] + [61, 173]
    names = []
    for q in qs:
        for n in range(2, 13):
            names += [f"SL({n},{q})", f"SU({n},{q})"]
        names += [f"GL(2,{q})", f"GL(2,{q},-)"]
        names += [f"Sp({n},{q})" for n in range(4, 13, 2)]
        for n in range(2, 13):
            names += [f"O({n},{q})"] if n % 2 else [f"O+({n},{q})", f"O-({n},{q})"]
        names.append(f"PO+(8,{q})")
    return names


# the pinned variants under the default prime sets and {2,3,5,7,11}, then the
# two small Ree groups with pi = {2,7}, as JSON reports concatenated
PINNED_VARIANTS_SHA256 = "b3a07ec4d53391bb4e6f64dfaa1f4cda3a42bf7d2fa5a94c6bef3b3527deba97"


def test_pinned_variants_reports_hash():
    names = pinned_variant_names()
    assert len(names) == 940
    pis = [parse_pi(t) for t in DEFAULT_PI_LIST + ["2,3,5,7,11"]]
    text = "".join(
        render_json(report_to_dict(classify(validate(parse_group(name)), pi)))
        for name in names
        for pi in pis
    )
    text += "".join(
        render_json(report_to_dict(classify(parse_group(name), PrimeSet((2, 7)))))
        for name in ("2G2(27)", "2G2(19683)")
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_VARIANTS_SHA256


# E6(61) with pi = {2,3,5}: 61 - 1 = 60 holds every prime of pi, so the torus row
# answers with eta = eps; no cell of the default grid or the pinned variants reaches it
E6_TORUS_SHA256 = "10d2cf15e77e24e45742cab4bc23379047083d138d868bc619444be6a9adb6fa"


def test_e6_torus_report_hash():
    report = classify(parse_group("E6(61)"), parse_pi("2,3,5"))
    assert [c.case_id for c in report.classes] == ["e6.torus"]
    text = render_json(report_to_dict(report))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == E6_TORUS_SHA256


def test_out_flag_matches_stdout(tmp_path, capsys):
    args = ["classify", "--group", "J1", "--pi", "2,3,7", "--format", "json"]
    main(args)
    stdout_bytes = capsys.readouterr().out
    target = tmp_path / "report.json"
    main(args + ["--out", str(target)])
    assert target.read_text(encoding="utf-8") == stdout_bytes


def test_goldens_parse():
    for name, _ in CASES:
        if name.endswith(".json"):
            data = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
            assert data["schema"] == 1
