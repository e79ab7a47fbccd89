"""The benchmark's own tests: smoke runs at reduced size, and checks that
each correctness check rejects a corrupted answer.

    python3 -m pytest perfbench/tests -q
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

run._load_program()

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from pihall.bruteforce import SubgroupHandle, build_group, find_hall_subgroups  # noqa: E402
from pihall.classify import classify  # noqa: E402
from pihall.groups import format_group, parse_group  # noqa: E402
from pihall.arith import PrimeSet  # noqa: E402

SMALL = {
    "grid-sweep": lambda: workloads.GridSweep(q_max=8, n_max=5),
    "large-q": lambda: workloads.LargeQ(lo=1000, hi=1010, n_max=5),
    "verify": lambda: workloads.Verify(["PSL(2,5):2,3", "SL(2,5):2,3", "Alt(5):2,3"]),
    "dpi-lattice": lambda: workloads.DpiLattice(primes=(5,)),
}


def test_small_workloads_cover_every_workload():
    assert set(SMALL) == set(workloads.WORKLOADS)


def test_benchmark_json_names_what_the_runs_report():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "cold_s", "warm_s", "peak_rss_mb"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_untraced(name):
    result = run.run(SMALL[name](), seed=3, seconds=0.0, trace=False, t_start=time.perf_counter())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"setup_s", "cold_s", "warm_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_traced(name):
    result = run.run(SMALL[name](), seed=3, seconds=0.0, trace=True, t_start=time.perf_counter())
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, _ in layers.PER_LAYER]
    assert result["metrics"]["arith.is_prime.calls"]["value"] > 0


def test_traced_mul_count_leaves_out_the_checks():
    workload = SMALL["dpi-lattice"]()
    result = run.run(workload, seed=3, seconds=0.0, trace=True, t_start=time.perf_counter())
    reported = result["metrics"]["bruteforce.mul.calls"]["value"]
    # the same passes again, untraced, through a counter of the benchmark's own
    from pihall import bruteforce

    calls = 0
    original = bruteforce.build_group

    def counting_build(*args, **kwargs):
        group = original(*args, **kwargs)
        mul = group.mul

        def counted(x, y):
            nonlocal calls
            calls += 1
            return mul(x, y)

        group.mul = counted
        return group

    bruteforce.build_group = counting_build
    try:
        workload.run_pass()
        workload.run_pass()
    finally:
        bruteforce.build_group = original
    assert reported == calls > 0


def test_tracer_restores_the_program():
    from pihall import arith, bruteforce, groups

    before = (arith.is_prime, groups.is_prime, bruteforce.ConcreteGroup.inverse)
    tracer, _ = layers.install()
    assert groups.is_prime is arith.is_prime is not before[0]
    tracer.uninstall()
    assert (arith.is_prime, groups.is_prime, bruteforce.ConcreteGroup.inverse) == before


def test_sporadic_orders_match_the_program_table():
    from pihall.groups import SPORADIC_ORDERS

    for name in SPORADIC_ORDERS:
        assert checks.simple_order(checks.Cell("Sporadic", name=name)) == SPORADIC_ORDERS[name]


# ---------------------------------------------------------------------------
# each check rejects a corrupted answer


def _psl27_row():
    cell = checks.Cell("L", 2, 7, 1)
    report = classify(parse_group("PSL(2,7)"), PrimeSet((2, 3)))
    return cell, checks.row_from_report(report, format_group)


def test_sweep_row_accepts_the_true_answer():
    cell, row = _psl27_row()
    assert row.k_pi == 2
    assert checks.check_sweep_row(row, cell, checks.simple_order(cell)) == []


@pytest.mark.parametrize("k", [1, 3, 5])
def test_sweep_row_rejects_a_wrong_k(k):
    cell, row = _psl27_row()
    assert checks.check_sweep_row(replace(row, k_pi=k), cell, checks.simple_order(cell))


def test_sweep_row_rejects_a_wrong_hall_order():
    cell, row = _psl27_row()
    bad = replace(row, hall_order=row.hall_order * 2)
    assert checks.check_sweep_row(bad, cell, checks.simple_order(cell))


def test_sweep_row_rejects_k9_outside_the_symplectic_cases():
    cell = checks.Cell("L", 2, 7, 1)
    row = checks.SweepRow("PSL(2,7)", (2, 3), 9, "no", 24, (9,))
    assert any("symplectic" in e for e in checks.check_sweep_row(row, cell, 168))


def test_spectrum_rejects_a_composite_missing_or_extra_prime():
    import sympy

    assert checks.check_spectrum("PSL(2,7)", [2, 3, 7], 168, sympy.isprime) == []
    assert checks.check_spectrum("PSL(2,7)", [2, 3, 7, 9], 168, sympy.isprime)
    assert checks.check_spectrum("PSL(2,7)", [2, 3], 168, sympy.isprime)
    assert checks.check_spectrum("PSL(2,7)", [2, 3, 7, 11], 168, sympy.isprime)


@pytest.fixture(scope="module")
def sl25():
    g = build_group("SL2", 5)
    return g, find_hall_subgroups(g, (2, 3))


def test_census_accepts_the_true_answer(sl25):
    g, census = sl25
    assert checks.check_census(g, (2, 3), census, True) == []


def test_census_rejects_a_truncated_class(sl25):
    g, census = sl25
    cls = census.classes[0]
    bad = replace(census, classes=[cls[:-1]] + census.classes[1:], halls_found=cls[:-1])
    assert checks.check_census(g, (2, 3), bad, True)


def test_census_rejects_a_failed_verification(sl25):
    g, census = sl25
    assert checks.check_census(g, (2, 3), census, False)


def test_census_rejects_generators_that_do_not_generate_the_subgroup(sl25):
    g, census = sl25
    h = census.classes[0][0]
    broken = SubgroupHandle(h.elements, h.generator_witness[:1])
    bad = replace(census, classes=[[broken] + census.classes[0][1:]] + census.classes[1:])
    assert checks.check_census(g, (2, 3), bad, True)


def test_dpi_rejects_a_witness_conjugate_into_its_hall(sl25):
    from pihall.bruteforce import find_dpi_counterexample

    g, census = sl25
    halls = [cls[0].elements for cls in census.classes]
    report = find_dpi_counterexample(g, (2, 3), census)
    assert checks.check_dpi_witnesses(g, (2, 3), halls, report.per_class) == []
    # a conjugate of the Hall subgroup itself lies in a conjugate of the Hall subgroup
    other = census.classes[0][-1]
    errors = checks.check_dpi_witnesses(g, (2, 3), halls, [other])
    assert any("conjugate into" in e for e in errors)
