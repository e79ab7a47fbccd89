"""Byte-for-byte golden tests for the report formats.

The goldens live in tests/golden/; any intentional format change must
regenerate them (pihall classify ... --out tests/golden/<name>, or
pihall verify --format json --out tests/golden/verify_default.json).
"""

import functools
import hashlib
import importlib
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
    # the socle's bound when it has no exact count: 3 in pi is PSL(2,9)'s characteristic
    ("kpi_bound_psl2_9_23_trivial.txt",
     ["kpi-bound", "--group", "PSL(2,9)", "--pi", "2,3", "--outer", "trivial"]),
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


def _hash(reports) -> str:
    text = "".join(render_json(report_to_dict(r)) for r in reports)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def default_sweep_reports():
    reports, _ = run_sweep(default_grid_specs(), [parse_pi(t) for t in DEFAULT_PI_LIST])
    return tuple(reports)


def test_default_sweep_reports_hash():
    assert _hash(default_sweep_reports()) == DEFAULT_SWEEP_REPORTS_SHA256


def test_reports_hash_is_the_same_cold_and_warm():
    """The spec facts change no answer: the default sweep hashes alike when each
    facts object is built afresh and when each is read again."""
    groups = importlib.import_module("pihall.groups")
    groups._spec_facts.cache_clear()
    specs, pis = default_grid_specs(), [parse_pi(t) for t in DEFAULT_PI_LIST]
    cold, _ = run_sweep(specs, pis)
    warm, _ = run_sweep(specs, pis)
    assert _hash(cold) == _hash(warm) == DEFAULT_SWEEP_REPORTS_SHA256


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


@functools.lru_cache(maxsize=None)
def pinned_variant_reports():
    pis = [parse_pi(t) for t in DEFAULT_PI_LIST + ["2,3,5,7,11"]]
    reports = [
        classify(validate(parse_group(name)), pi) for name in pinned_variant_names() for pi in pis
    ]
    reports += [classify(parse_group(name), PrimeSet((2, 7))) for name in ("2G2(27)", "2G2(19683)")]
    return tuple(reports)


def test_pinned_variants_reports_hash():
    assert len(pinned_variant_names()) == 940
    assert _hash(pinned_variant_reports()) == PINNED_VARIANTS_SHA256


# E6(61) with pi = {2,3,5}: 61 - 1 = 60 holds every prime of pi, so the torus row
# answers with eta = eps; no cell of the default grid or the pinned variants reaches it
E6_TORUS_SHA256 = "10d2cf15e77e24e45742cab4bc23379047083d138d868bc619444be6a9adb6fa"


def e6_torus_reports():
    return (classify(parse_group("E6(61)"), parse_pi("2,3,5")),)


def test_e6_torus_report_hash():
    assert [c.case_id for c in e6_torus_reports()[0].classes] == ["e6.torus"]
    assert _hash(e6_torus_reports()) == E6_TORUS_SHA256


# the default cells under the prime sets that leave out 2 or 3, as JSON reports
# concatenated: pinned before any rule for these regimes lands
SECOND_GRID_PI_LIST = ["3,5", "3,7", "5,7", "3,5,7", "2,5", "2,7", "2,5,7"]
SECOND_GRID_SHA256 = "c5fd3f2884fed0b2268c711c90e37d7510939574967e55365753d1d16cd48e51"


@functools.lru_cache(maxsize=None)
def second_grid_reports():
    reports, skipped = run_sweep(default_grid_specs(), [parse_pi(t) for t in SECOND_GRID_PI_LIST])
    assert len(skipped) == 5
    return tuple(reports)


def test_second_grid_reports_hash():
    reports = second_grid_reports()
    assert len(reports) == 6713
    assert sum(r.k_pi is None for r in reports) == 6108
    assert _hash(reports) == SECOND_GRID_SHA256


# rows no other pin reaches: the E7 and E8 tori (421 - 1 = 420 holds 2, 3, 5 and 7)
# and the parabolic pattern of an even-dimensional orthogonal group over GF(2)
RARE_ROWS = [("E7(421)", "e7.torus"), ("E8(421)", "e8.torus"), ("O+(10,2)", "defining.parabolic")]
RARE_ROWS_SHA256 = "f80501d8b1ec263b9e985f59e9f5fea33291f2686d0fb628644e1873ef1fa49e"


def rare_row_reports():
    return tuple(classify(parse_group(name), parse_pi("2,3,5,7")) for name, _ in RARE_ROWS)


def test_rare_rows_reports_hash():
    reports = rare_row_reports()
    assert [[c.case_id for c in r.classes] for r in reports] == [[cid] for _, cid in RARE_ROWS]
    assert _hash(reports) == RARE_ROWS_SHA256


def test_every_table_row_is_pinned():
    """Each row of the classifier's tables emits a class in some hashed report, so
    a change to any row's structure, order, count, conditions or fusion shows."""
    c = importlib.import_module("pihall.classify")
    tables = [c._SL2_ROWS, c._GL2_ROWS, c._LINEAR_UNITARY_ROWS, c._ORTHOGONAL_ROWS,
              *c._ORTHOGONAL_SMALL_ROWS.values(), *c._EXCEPTIONAL_ROWS.values()]
    # a case id with the names of its conditions tells apart the two E6 torus rows
    rows = {(row[0], tuple(name for name, _ in row[5])) for table in tables for row in table}
    assert len(rows) == 42
    reports = (default_sweep_reports() + pinned_variant_reports() + e6_torus_reports()
               + second_grid_reports() + rare_row_reports())
    reached = {
        (d.case_id, tuple(cond.name for cond in d.conditions)) for r in reports for d in r.classes
    }
    assert sorted(rows - reached) == []


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
