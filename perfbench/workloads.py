"""The four workloads: inputs, one full pass, and the checks on its output.

Each workload's inputs are fixed; the seed only shuffles the order in
which they are processed, which changes no cache key and so no amount of
work.  A pass is a whole round of the workload's operations.  Every pass
rebuilds what a fresh caller would rebuild (sweep reports, concrete
groups), so a warm pass differs from the cold one only by the program's
own caches.

Imports of pihall happen inside the functions, after run.py has put the
checkout's src/ on sys.path.
"""

from __future__ import annotations

import json
import random
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, List, Sequence

import checks
from checks import Cell

PI_LIST = ("2,3", "2,3,5", "2,3,7", "2,3,5,7")

# the non-simple cells of the default sweep grid, which the sweep refuses
REFUSED = ("PSL(2,2)", "PSL(2,2,-)", "PSL(2,3)", "PSL(2,3,-)", "PSL(3,2,-)")

VERIFY_INSTANCES = (
    "PSL(2,5):2,3", "PSL(2,7):2,3", "PSL(2,11):2,3", "PSL(2,13):2,3",
    "PSL(2,7):2,3,5", "PSL(2,11):2,3,5", "PSL(2,13):2,3,5",
    "SL(2,5):2,3", "SL(2,7):2,3", "SL(2,11):2,3", "SL(2,13):2,3",
    "SL(2,7):2,3,5", "SL(2,11):2,3,5", "SL(2,13):2,3,5",
    "Sym(5):2,3", "Sym(6):2,3", "Sym(7):2,3",
    "Alt(5):2,3", "Alt(6):2,3", "Alt(7):2,3",
    "Sym(5):2,3,5", "Sym(7):2,3,5", "Alt(7):2,3,5",
)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _prime_powers(lo: int, hi: int) -> List[int]:
    out = []
    for q in range(lo, hi + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = q
        while m % p == 0:
            m //= p
        if m == 1:
            out.append(q)
    return out


def lie_cells(q: int, n_max: int) -> List[Cell]:
    """The classical and exceptional cells of the sweep grid at one q."""
    cells = [Cell("L", n, q, eta) for n in range(2, n_max + 1) for eta in (1, -1)]
    if q % 2:
        cells += [Cell("Sp", n, q) for n in range(4, n_max + 1, 2)]
        for n in range(7, n_max + 1):
            cells += [Cell("O", n, q)] if n % 2 else [Cell("O", n, q, 1), Cell("O", n, q, -1)]
    return cells


def exceptional_cells(q: int) -> List[Cell]:
    cells = [Cell("G2", q=q)] if q >= 3 else []
    cells += [Cell("F4", q=q), Cell("E6", q=q, eta=1), Cell("E6", q=q, eta=-1),
              Cell("E7", q=q), Cell("E8", q=q), Cell("3D4", q=q)]
    return cells


def default_grid_cells(q_max: int = 50, n_max: int = 12) -> List[Cell]:
    """The default `pihall sweep` grid, written out from its definition."""
    cells = [Cell("Alt", n) for n in range(5, n_max + 1)]
    cells += [Cell("Sym", n) for n in range(2, n_max + 1)]
    cells += [Cell("Sporadic", name=s) for s in sorted(checks.SPORADIC)]
    qs = _prime_powers(2, q_max)
    for q in qs:
        cells += [c for c in lie_cells(q, n_max) if c.family == "L"]
    for q in qs:
        cells += [c for c in lie_cells(q, n_max) if c.family == "Sp"]
    for q in qs:
        cells += [c for c in lie_cells(q, n_max) if c.family == "O"]
    for q in qs:
        cells += exceptional_cells(q)
    cells.append(Cell("2G2", q=27))  # the grid holds the smallest Ree group whatever q_max is
    return cells


def large_q_cells(lo: int = 1000, hi: int = 1096, n_max: int = 12) -> List[Cell]:
    """Classical and exceptional cells at every prime q in [lo, hi]."""
    cells = []
    for q in range(lo, hi + 1):
        if _is_prime(q):
            cells += lie_cells(q, n_max) + exceptional_cells(q)
    return cells


@dataclass
class PassResult:
    ops: int
    failed: int
    digest: str  # the pass's rendered output; equal across passes of one run
    data: Any = None  # what the checks need, kept from the cold pass only


# ---------------------------------------------------------------------------
# sweeps


class Sweep:
    """Classify every (cell, pi) pair, render the CSV and check the invariants."""

    def __init__(self, name: str, cells: Sequence[Cell], refused: Sequence[str] = ()):
        self.name = name
        self.cells = list(cells)
        self.refused = tuple(sorted(refused))

    def setup(self, seed: int) -> None:
        from pihall import cli
        from pihall.groups import parse_group

        random.Random(seed).shuffle(self.cells)
        self.specs = [parse_group(checks.cell_name(c)) for c in self.cells]
        self.pis = [cli.parse_pi(t) for t in PI_LIST]

    def run_pass(self, tracer=None) -> PassResult:
        from pihall import cli

        reports, skipped = cli.run_sweep(self.specs, self.pis)
        with tracer.span("cli.render", "cli") if tracer else nullcontext():
            violations = cli.check_sweep_invariants(reports)
            text = cli._sweep_csv([cli._sweep_row(r) for r in reports])
            text += f"# skipped cells: {len(skipped)}\n"
            text += f"# summary: {len(violations)} violations in {len(reports)} rows\n"
            text += "".join(f"# violation: {v}\n" for v in violations)
        return PassResult(len(self.cells) * len(self.pis), 0, text, (reports, skipped, violations))

    def check(self, cold: PassResult) -> List[str]:
        import sympy
        from pihall.groups import format_group, prime_spectrum, validate

        reports, skipped, violations = cold.data
        errors = [f"sweep invariant violation: {v}" for v in violations]
        refused = tuple(sorted(s.split(":")[0] for s in skipped))
        if refused != self.refused:
            errors.append(f"refused cells {refused}, expected {self.refused}")
        kept = [(c, s) for c, s in zip(self.cells, self.specs)
                if checks.cell_name(c) not in refused]
        width = len(self.pis)
        if len(reports) != len(kept) * width:
            errors.append(f"{len(reports)} rows for {len(kept)} cells x {width} prime sets")
            return errors
        for i, (cell, spec) in enumerate(kept):
            order = checks.simple_order(cell)
            for rep in reports[i * width:(i + 1) * width]:
                errors += checks.check_sweep_row(checks.row_from_report(rep, format_group), cell, order)
            spectrum = sorted(prime_spectrum(validate(spec)))
            errors += checks.check_spectrum(checks.cell_name(cell), spectrum, order, sympy.isprime)
        return errors


class GridSweep(Sweep):
    def __init__(self, q_max: int = 50, n_max: int = 12):
        cells = default_grid_cells(q_max, n_max)
        names = {checks.cell_name(c) for c in cells}
        super().__init__("grid-sweep", cells, [r for r in REFUSED if r in names])
        self.q_max, self.n_max = q_max, n_max

    def check(self, cold: PassResult) -> List[str]:
        from pihall import cli
        from pihall.groups import format_group

        errors = super().check(cold)
        program_grid = sorted(format_group(s) for s in cli.default_grid_specs(self.q_max, self.n_max))
        if program_grid != sorted(checks.cell_name(c) for c in self.cells):
            errors.append("the workload's grid is not the program's default sweep grid")
        return errors


class LargeQ(Sweep):
    def __init__(self, lo: int = 1000, hi: int = 1096, n_max: int = 12):
        super().__init__("large-q", large_q_cells(lo, hi, n_max))


# ---------------------------------------------------------------------------
# brute force


class Verify:
    """`pihall verify`: build, classify, census and compare, per instance."""

    name = "verify"

    def __init__(self, instances: Sequence[str] = VERIFY_INSTANCES):
        self.instances = list(instances)

    def setup(self, seed: int) -> None:
        from pihall import cli
        from pihall.bruteforce import Budget
        from pihall.groups import parse_group

        random.Random(seed).shuffle(self.instances)
        self.parsed = []
        for inst in self.instances:
            group_text, pi_text = inst.rsplit(":", 1)
            self.parsed.append((inst, parse_group(group_text), cli.parse_pi(pi_text)))
        self.budget = Budget()

    def run_pass(self, tracer=None) -> PassResult:
        from pihall import cli
        from pihall.bruteforce import find_hall_subgroups, verify_report
        from pihall.classify import classify
        from pihall.groups import validate

        kept, rendered, failed = [], [], 0
        for inst, parsed, pi in self.parsed:
            try:
                spec = validate(parsed)
                group = cli.concrete_from_spec(spec, self.budget)
                report = classify(spec, pi)
                census = find_hall_subgroups(group, tuple(sorted(pi)), self.budget)
                outcome = verify_report(group, report, census, self.budget)
            except Exception as exc:  # an instance that raises is a failed operation
                traceback.print_exc()
                failed += 1
                rendered.append(f"{inst}: {type(exc).__name__}")
                continue
            rendered.append(json.dumps(
                {"instance": inst, "outcome": outcome.to_dict(), "census": census.to_dict()},
                sort_keys=True))
            kept.append((inst, group, sorted(pi), census, outcome.passed))
        return PassResult(len(self.parsed), failed, "\n".join(rendered), kept)

    def check(self, cold: PassResult) -> List[str]:
        errors = []
        for _, group, pi, census, passed in cold.data:
            errors += checks.check_census(group, pi, census, passed)
        return errors


class DpiLattice:
    """The D_pi witness search on SL2(p): census, pi-subgroup lattice, conjugacy tests."""

    name = "dpi-lattice"
    pi = (2, 3)

    def __init__(self, primes: Sequence[int] = (5, 11)):
        self.primes = list(primes)

    def setup(self, seed: int) -> None:
        random.Random(seed).shuffle(self.primes)

    def run_pass(self, tracer=None) -> PassResult:
        from pihall.bruteforce import build_group, find_dpi_counterexample, find_hall_subgroups

        kept, rendered, failed = [], [], 0
        for p in self.primes:
            try:
                group = build_group("SL2", p)
                census = find_hall_subgroups(group, self.pi)
                report = find_dpi_counterexample(group, self.pi, census)
            except Exception as exc:  # a search that raises is a failed operation
                traceback.print_exc()
                failed += 1
                rendered.append(f"SL2({p}): {type(exc).__name__}")
                continue
            rendered.append(f"SL2({p}): " + repr([
                None if w is None else sorted(w.elements) for w in report.per_class]))
            kept.append((group, [cls[0].elements for cls in census.classes], report.per_class))
        return PassResult(len(self.primes), failed, "\n".join(rendered), kept)

    def check(self, cold: PassResult) -> List[str]:
        errors = []
        for group, halls, witnesses in cold.data:
            errors += checks.check_dpi_witnesses(group, self.pi, halls, witnesses)
        return errors


WORKLOADS = {
    "grid-sweep": GridSweep,
    "large-q": LargeQ,
    "verify": Verify,
    "dpi-lattice": DpiLattice,
}
