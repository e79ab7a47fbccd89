import copy
import importlib
import io
import json
import subprocess
import sys

import pytest

from pihall import cli
from pihall.cli import (
    EXIT_BUDGET,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_OUT_OF_SCOPE,
    EXIT_PARSE,
    EXIT_VALIDATION,
    EXIT_VERIFY,
    check_sweep_invariants,
    main,
    report_to_dict,
)
from pihall.arith import PrimeSet
from pihall.classify import classify
from pihall.groups import parse_group


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json_value(capsys):
    code, out, _ = run_cli(
        ["classify", "--group", "PSL(2,7)", "--pi", "2,3", "--format", "json"], capsys
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["k_pi"] == 2
    assert data["schema"] == 1
    assert data["classes"][0]["structure"] == "Sym(4)"


def test_classify_whole_group(capsys):
    code, out, _ = run_cli(
        ["classify", "--group", "PSL(2,7)", "--pi", "2,3,7", "--format", "json"], capsys
    )
    data = json.loads(out)
    assert data["k_pi"] == 1 and data["regime"] == "pi_covers_group"


def test_classify_m23(capsys):
    code, out, _ = run_cli(
        ["classify", "--group", "M23", "--pi", "2,3,5", "--format", "json"], capsys
    )
    data = json.loads(out)
    assert data["k_pi"] == 2


def test_exit_codes(capsys):
    code, _, err = run_cli(["classify", "--group", "WAT(2)", "--pi", "2,3"], capsys)
    assert code == EXIT_PARSE
    code, _, err = run_cli(["classify", "--group", "PSL(2,7)", "--pi", "2,x"], capsys)
    assert code == EXIT_PARSE
    code, _, err = run_cli(["classify", "--group", "Alt(4)", "--pi", "2,3"], capsys)
    assert code == EXIT_VALIDATION
    code, _, _ = run_cli(
        ["classify", "--group", "PSL(2,7)", "--pi", "3,7", "--strict"], capsys
    )
    assert code == EXIT_OUT_OF_SCOPE
    code, _, _ = run_cli(["classify", "--group", "PSL(2,7)", "--pi", "3,7"], capsys)
    assert code == EXIT_OK


def test_output_determinism(capsys):
    args = ["classify", "--group", "PSp(10,23)", "--pi", "2,3", "--format", "json"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_json_round_trip(capsys):
    report = classify(parse_group("SL(11,5)"), PrimeSet((2, 3)))
    payload = report_to_dict(report)
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_wreath(capsys):
    code, out, _ = run_cli(["wreath", "--k", "2", "--p", "7"], capsys)
    assert code == EXIT_OK
    assert "20" in out and "cross-check: 20" in out
    code, out, _ = run_cli(["wreath", "--k", "1", "--p", "5"], capsys)
    assert "= 1" in out
    code, out, _ = run_cli(["wreath", "--k", "3", "--p", "3"], capsys)
    assert "= 11" in out
    code, _, _ = run_cli(["wreath", "--k", "2", "--p", "6"], capsys)
    assert code == EXIT_PARSE


def test_kpi_bound(capsys):
    code, out, _ = run_cli(
        ["kpi-bound", "--group", "PSp(10,23)", "--pi", "2,3", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["bound"] == [1, 9]


def test_kpi_bound_rejects_removed_outer_choice(capsys):
    # diagonal-and-field gave exactly what "any" gives and is no longer a choice
    with pytest.raises(SystemExit) as exc:
        main(["kpi-bound", "--group", "PSL(2,7)", "--pi", "2,3", "--outer", "diagonal-and-field"])
    assert exc.value.code == EXIT_PARSE
    assert "--outer" in capsys.readouterr().err


def test_sweep_small_grid(capsys):
    code, out, _ = run_cli(
        ["sweep", "--group", "PSp(10,23)", "--group", "PSL(2,7)",
         "--pi-list", "2,3", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    data = json.loads(out)
    ks = {row["group"]: row["k_pi"] for row in data["rows"]}
    assert ks == {"PSp(10,23)": "9", "PSL(2,7)": "2"}
    assert data["violations"] == []


def test_sweep_names_each_cell_once(capsys):
    # PSU(2,7) is answered through PSL(2,7) but keeps its own name in every row
    code, out, _ = run_cli(
        ["sweep", "--group", "PSL(2,7,-)", "--pi-list", "2,3;2,3,7", "--format", "json"],
        capsys,
    )
    assert code == EXIT_OK
    assert [row["group"] for row in json.loads(out)["rows"]] == ["PSL(2,7,-)"] * 2


def test_sweep_empty_grid(capsys):
    code, out, _ = run_cli(
        ["sweep", "--group", "Alt(4)", "--pi-list", "2,3", "--format", "csv"], capsys
    )
    # the only cell fails validation, so the table is empty but exit is clean
    assert code == EXIT_OK
    assert "skipped cells: 1" in out


def test_verify_validates_each_instance_once(monkeypatch, capsys):
    # 23 validate calls for the 23 default instances; 46 when classify validated each again
    calls = []
    real = cli.validate

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(cli, "validate", counted)
    monkeypatch.setattr(importlib.import_module("pihall.classify"), "validate", counted)
    code, _, _ = run_cli(["verify"], capsys)
    assert code == EXIT_OK and len(calls) == len(cli.DEFAULT_VERIFY_INSTANCES) == 23


def test_verify_single_instance(capsys):
    code, out, _ = run_cli(
        ["verify", "--instance", "PSL(2,11):2,3", "--format", "json"], capsys
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["passed"] is True
    inst = data["instances"][0]
    assert inst["census"]["class_count"] == 2
    assert inst["census"]["hall_order"] == 12


def test_verify_text_mode(capsys):
    code, out, _ = run_cli(
        ["verify", "--instance", "Sym(5):2,3", "--instance", "Alt(5):2,3"], capsys
    )
    assert code == EXIT_OK
    assert "all instances passed" in out


def test_verify_psl3_3_points_model(capsys):
    code, out, _ = run_cli(
        ["verify", "--instance", "PSL(3,3):2,3", "--format", "json"], capsys
    )
    assert code == EXIT_OK
    census = json.loads(out)["instances"][0]["census"]
    assert census["class_count"] == 2
    assert census["hall_order"] == 432


@pytest.mark.parametrize("instance,expected", [
    ("PSL(2,101):2,3", EXIT_BUDGET),    # the build exceeds the group-order budget
    ("PSL(4,2):2,3", EXIT_VALIDATION),  # no concrete model
    ("PSL(2,25):2,3", EXIT_VALIDATION),  # matrix models need a prime field
    ("Alt(4):2,3", EXIT_VALIDATION),    # parses, but Alt(4) is not simple
])
def test_verify_failures_exit_cleanly(instance, expected, capsys):
    code, out, err = run_cli(["verify", "--instance", instance], capsys)
    assert code == expected
    assert out == ""
    assert len(err.splitlines()) == 1 and instance in err


@pytest.mark.parametrize("instance,model", [
    ("PSU(2,7):2,3", "PSL2(7)"), ("PSL(2,13,-):2,3,5", "PSL2(13)"),
    ("PSL(3,2):2,3", "PSL2(7)"), ("PSL(3,2):2,3,7", "PSL2(7)"),
    ("PSL(2,4):2,3", "Alt(5)"), ("PSL(2,4,-):2,3,5", "Alt(5)"),
    ("PSL(2,9):2,3", "Alt(6)"), ("PSU(2,9):2,3,7", "Alt(6)"),
])
def test_verify_models_isomorphic_names(instance, model, capsys):
    # the census runs on an isomorphic model and checks the report for the name given
    code, out, err = run_cli(["verify", "--instance", instance, "--format", "json"], capsys)
    assert code == EXIT_OK and err == ""
    data = json.loads(out)
    assert data["passed"] is True
    assert data["instances"][0]["instance"] == instance
    assert data["instances"][0]["census"]["group"] == model


def test_verify_partial_census_exits_budget(capsys):
    # neither census finishes within one closure step: no verdict either way
    code, out, err = run_cli(
        ["verify", "--instance", "PSL(2,13):2,3", "--instance", "Sym(6):2,3",
         "--budget", "1"], capsys)
    assert code == EXIT_BUDGET
    assert out == ""
    assert len(err.splitlines()) == 1 and "budget exhausted" in err
    assert "census stopped at its budget" in err
    assert "PASS" not in err and "FAIL" not in err
    code, out, err = run_cli(["verify", "--instance", "Sym(6):2,3", "--budget", "1"], capsys)
    assert code == EXIT_BUDGET and out == "" and "Sym(6):2,3" in err


@pytest.mark.parametrize("budget", ["0", "-3", "x"])
def test_verify_rejects_budget_below_one(budget, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--instance", "Sym(5):2,3", "--budget", budget])
    assert exc.value.code == EXIT_PARSE
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_wreath_rejects_k_below_one(k, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wreath", "--k", k, "--p", "3"])
    assert exc.value.code == EXIT_PARSE
    assert "--k" in capsys.readouterr().err


def test_verify_budget_that_suffices(capsys):
    code, out, _ = run_cli(["verify", "--instance", "Sym(5):2,3", "--budget", "1000"], capsys)
    assert code == EXIT_OK and out.startswith("[PASS] Sym(5):2,3")


def test_console_entry_point():
    # exercised through the installed script path
    proc = subprocess.run(
        [sys.executable, "-m", "pihall.cli", "classify", "--group", "J1",
         "--pi", "2,3", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["k_pi"] == 1


def test_verify_gl2_over_gf2(capsys):
    # GF(2)* is trivial, so its primitive root is 1
    code, out, err = run_cli(["verify", "--instance", "GL(2,2):2,3"], capsys)
    assert code == EXIT_OK and err == ""
    assert out.startswith("[PASS] GL(2,2):2,3: hall_order=6 classes=1")


@pytest.mark.parametrize("command", [
    ["verify", "--instance", "PGL(2,11):2,3"],
    ["classify", "--group", "PGU(3,5)", "--pi", "2,3"],
])
def test_projective_general_heads_are_not_read_as_general(command, capsys):
    # |PGL(2,11)|_{2,3} = 24, where GL(2,11) answers 48: no PGL spec exists yet
    code, out, err = run_cli(command, capsys)
    assert code == EXIT_PARSE
    assert out == "" and len(err.splitlines()) == 1 and "unknown group head" in err


def test_wreath_refuses_a_count_too_long_to_print(capsys):
    # 2^20011 has about 6,024 digits, over the default limit of 4,300
    code, out, err = run_cli(["wreath", "--k", "2", "--p", "20011"], capsys)
    assert code == EXIT_PARSE
    assert out == "" and len(err.splitlines()) == 1 and "digit" in err
    # 14281 is the largest prime p with p * log10(2) under that limit
    code, out, _ = run_cli(["wreath", "--k", "2", "--p", "14281"], capsys)
    assert code == EXIT_OK and out.startswith("k_pi(base wr Z(14281)) = ")


# the parse and validation exits of sweep and kpi-bound, each with its one stderr line
ERROR_EXITS = [
    (["sweep", "--group", "WAT(2)", "--pi-list", "2,3"], EXIT_PARSE,
     "parse error: [grammar] unknown group head 'WAT' in 'WAT(2)'"),
    (["sweep", "--group", "PSL(2,7)", "--pi-list", "2,x"], EXIT_PARSE,
     "parse error: [pi] bad prime set '2,x': invalid literal for int() with base 10: 'x'"),
    (["kpi-bound", "--group", "WAT(2)", "--pi", "2,3"], EXIT_PARSE,
     "parse error: [grammar] unknown group head 'WAT' in 'WAT(2)'"),
    (["kpi-bound", "--group", "PSL(2,7)", "--pi", "2,x"], EXIT_PARSE,
     "parse error: [pi] bad prime set '2,x': invalid literal for int() with base 10: 'x'"),
    (["kpi-bound", "--group", "Alt(4)", "--pi", "2,3"], EXIT_VALIDATION,
     "validation error: [non-simple] Alt(4) is not simple"),
]


@pytest.mark.parametrize("command,code,message", ERROR_EXITS,
                         ids=[" ".join(c[:3]) + " " + c[-1] for c, _, _ in ERROR_EXITS])
def test_error_exits_print_one_line(command, code, message, capsys):
    got, out, err = run_cli(command, capsys)
    assert got == code and out == "" and err == message + "\n"


def _doctored(report, **fields):
    """report with fields overwritten past HallReport's own checks."""
    out = copy.copy(report)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


def test_sweep_invariants_name_each_violation():
    psl = classify(parse_group("PSL(2,7)"), PrimeSet((2, 3)))
    psp = classify(parse_group("PSp(10,23)"), PrimeSet((2, 3)))
    assert check_sweep_invariants([psl, psp]) == []
    assert check_sweep_invariants([_doctored(psl, k_pi=5)]) == [
        "PSL(2,7) / {2,3}: k=5 outside {0, 1, 2, 3, 4, 9}",
        "PSL(2,7) / {2,3}: k=5 is not a pi-number",
        "PSL(2,7) / {2,3}: class counts do not sum to k",
    ]
    assert check_sweep_invariants([_doctored(psl, k_pi=9, c_pi="yes")]) == [
        "PSL(2,7) / {2,3}: k=9 outside the symplectic wreath cases",
        "PSL(2,7) / {2,3}: c_pi inconsistent with k",
        "PSL(2,7) / {2,3}: class counts do not sum to k",
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_exits_on_invariant_violation(fmt, monkeypatch, capsys):
    real = cli.run_sweep

    def doctored_sweep(specs, pi_list):
        reports, skipped = real(specs, pi_list)
        return [_doctored(r, k_pi=5) for r in reports], skipped

    monkeypatch.setattr(cli, "run_sweep", doctored_sweep)
    code, out, _ = run_cli(
        ["sweep", "--group", "PSL(2,7)", "--pi-list", "2,3", "--format", fmt], capsys
    )
    assert code == EXIT_INVARIANT
    if fmt == "json":
        data = json.loads(out)
        assert data["summary"] == "3 violations in 1 rows"
        assert data["violations"][0] == "PSL(2,7) / {2,3}: k=5 outside {0, 1, 2, 3, 4, 9}"
    else:
        assert out.endswith(
            "# summary: 3 violations in 1 rows\n"
            "# violation: PSL(2,7) / {2,3}: k=5 outside {0, 1, 2, 3, 4, 9}\n"
            "# violation: PSL(2,7) / {2,3}: k=5 is not a pi-number\n"
            "# violation: PSL(2,7) / {2,3}: class counts do not sum to k\n"
        )
