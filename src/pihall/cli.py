"""Command-line front end.

Subcommands: classify (single query), sweep (parameter grid with the
class-number invariant summary), verify (brute-force harness), wreath
(cyclic-top class counts), kpi-bound (induced-class bounds in almost
simple overgroups).  Output is deterministic byte-for-byte for a fixed
invocation: sorted keys, fixed column order, no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import List, Optional, Sequence, Tuple

from pihall.arith import PrimeSet, is_pi_number, is_prime
from pihall.bruteforce import (
    Budget,
    BudgetExceeded,
    build_group,
    find_hall_subgroups,
    psl3_3_points,
    verify_report,
)
from pihall.classify import (
    BOUND_FULL,
    HallReport,
    OUT_OF_SCOPE,
    _classify_valid,
    classify,
    kpi_bound_almost_simple,
)
from pihall.extension import burnside_orbits, cyclic_perm, kpi_wreath_cyclic
from pihall.groups import (
    ALT,
    E6,
    GroupSpec,
    InvalidParameter,
    LINEAR_UNITARY,
    ORTHOGONAL,
    SIMPLE,
    ISOMETRY,
    SPORADIC_ORDERS,
    SYM,
    SYMPLECTIC,
    TRI_D4,
    TWO_G2,
    F4,
    G2,
    E7,
    E8,
    format_group,
    parse_group,
    validate,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_OUT_OF_SCOPE = 4
EXIT_INVARIANT = 5
EXIT_VERIFY = 6
EXIT_BUDGET = 7

SWEEP_COLUMNS = [
    "group", "pi", "regime", "e_pi", "k_pi", "k_bound", "c_pi", "d_pi",
    "hall_order", "class_families",
]


def parse_pi(text: str) -> PrimeSet:
    try:
        return PrimeSet(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise InvalidParameter("pi", f"bad prime set {text!r}: {exc}") from None


def report_to_dict(report: HallReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "group": format_group(report.spec),
        "aliases": list(report.spec.aliases),
        "pi": sorted(report.pi),
        "regime": report.scope_tag,
        "e_pi": report.e_pi,
        "k_pi": report.k_pi,
        "k_bound": list(report.k_bound) if report.k_bound is not None else None,
        "c_pi": report.c_pi,
        "d_pi": report.d_pi,
        "hall_order": report.hall_order,
        "classes": [
            {
                "case_id": c.case_id,
                "structure": c.structure,
                "order": c.structure_order,
                "class_count": c.class_count,
                "conditions": [
                    {"name": cond.name, "value": cond.value} for cond in c.conditions
                ],
                "fusion": c.fusion_note,
            }
            for c in report.classes
        ],
        "notes": list(report.notes),
    }


def render_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def report_to_text(report: HallReport) -> str:
    lines = [f"group: {format_group(report.spec)}"]
    if report.spec.aliases:
        lines.append(f"  normalized from: {' -> '.join(report.spec.aliases)}")
    lines.append(f"pi: {{{','.join(str(p) for p in sorted(report.pi))}}}")
    lines.append(f"regime: {report.scope_tag}")
    lines.append(f"E_pi: {report.e_pi}")
    if report.k_pi is not None:
        lines.append(f"k_pi: {report.k_pi}")
    else:
        lines.append(f"k_pi in: {set(report.k_bound)}")
    lines.append(f"C_pi: {report.c_pi}   D_pi: {report.d_pi}")
    lines.append(f"hall order: {report.hall_order}")
    for c in report.classes:
        lines.append(f"  [{c.case_id}] {c.structure}  (classes: {c.class_count})")
        for cond in c.conditions:
            lines.append(f"      {cond.name} = {cond.value}")
        if c.fusion_note:
            lines.append(f"      fusion: {c.fusion_note}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args: argparse.Namespace) -> int:
    try:
        spec = parse_group(args.group)
        pi = parse_pi(args.pi)
    except InvalidParameter as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = classify(spec, pi)
    except InvalidParameter as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.format == "json":
        _emit(render_json(report_to_dict(report)), args.out)
    elif args.format == "csv":
        _emit(_sweep_csv([_sweep_row(report)]), args.out)
    else:
        _emit(report_to_text(report), args.out)
    if args.strict and report.e_pi == OUT_OF_SCOPE:
        return EXIT_OUT_OF_SCOPE
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def default_grid_specs(q_max: int = 50, n_max: int = 12) -> List[GroupSpec]:
    """The acceptance sweep grid: every family, valid parameters in range."""
    from pihall.arith import factorize

    prime_powers = [q for q in range(2, q_max + 1) if len(factorize(q).factors) == 1]
    odd_pp = [q for q in prime_powers if q % 2 == 1]

    specs: List[GroupSpec] = []
    specs += [GroupSpec(ALT, n=n) for n in range(5, n_max + 1)]
    specs += [GroupSpec(SYM, n=n, variant=ISOMETRY) for n in range(2, n_max + 1)]
    specs += [GroupSpec("Sporadic", sporadic_name=s) for s in sorted(SPORADIC_ORDERS)]
    for q in prime_powers:
        for n in range(2, n_max + 1):
            for eta in (1, -1):
                specs.append(GroupSpec(LINEAR_UNITARY, n=n, q=q, eta=eta))
    for q in odd_pp:
        for n in range(4, n_max + 1, 2):
            specs.append(GroupSpec(SYMPLECTIC, n=n, q=q))
    for q in odd_pp:
        for n in range(7, n_max + 1):
            if n % 2 == 1:
                specs.append(GroupSpec(ORTHOGONAL, n=n, q=q))
            else:
                for eta in (1, -1):
                    specs.append(GroupSpec(ORTHOGONAL, n=n, q=q, eta=eta))
    for q in prime_powers:
        if q >= 3:
            specs.append(GroupSpec(G2, q=q))
        specs.append(GroupSpec(F4, q=q))
        for eta in (1, -1):
            specs.append(GroupSpec(E6, q=q, eta=eta))
        specs.append(GroupSpec(E7, q=q))
        specs.append(GroupSpec(E8, q=q))
        specs.append(GroupSpec(TRI_D4, q=q))
    specs.append(GroupSpec(TWO_G2, q=27))
    return specs


DEFAULT_PI_LIST = ["2,3", "2,3,5", "2,3,7", "2,3,5,7"]


def _sweep_row(report: HallReport) -> List[str]:
    return [
        format_group(report.spec),
        ",".join(str(p) for p in sorted(report.pi)),
        report.scope_tag,
        report.e_pi,
        "" if report.k_pi is None else str(report.k_pi),
        "" if report.k_bound is None else "|".join(str(k) for k in report.k_bound),
        report.c_pi,
        report.d_pi,
        str(report.hall_order),
        str(len(report.classes)),
    ]


def _sweep_csv(rows: List[List[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def check_sweep_invariants(reports: Sequence[HallReport]) -> List[str]:
    """Class-number invariants over exact rows; returns violation messages."""
    violations = []
    for rep in reports:
        if rep.k_pi is None:
            continue
        found = []
        if rep.k_pi not in BOUND_FULL:
            found.append(f"k={rep.k_pi} outside {set(BOUND_FULL)}")
        if rep.k_pi >= 1 and not is_pi_number(rep.k_pi, rep.pi):
            found.append(f"k={rep.k_pi} is not a pi-number")
        if rep.k_pi == 9:
            fam = rep.spec.family
            if fam != SYMPLECTIC or rep.spec.n not in (10, 14):
                found.append("k=9 outside the symplectic wreath cases")
        if (rep.c_pi == "yes") != (rep.k_pi == 1):
            found.append("c_pi inconsistent with k")
        if sum(c.class_count for c in rep.classes) != rep.k_pi:
            found.append("class counts do not sum to k")
        if found:
            # named here, not per row: a sweep of thousands of rows rarely has a violation
            name = f"{format_group(rep.spec)} / {{{','.join(map(str, sorted(rep.pi)))}}}"
            violations += [f"{name}: {v}" for v in found]
    return violations


def run_sweep(
    specs: Sequence[GroupSpec], pi_list: Sequence[PrimeSet]
) -> Tuple[List[HallReport], List[str]]:
    reports = []
    skipped = []
    for spec in specs:
        try:
            vspec = validate(spec)
        except InvalidParameter as exc:
            skipped.append(f"{_safe_name(spec)}: {exc}")
            continue
        for pi in pi_list:
            reports.append(_classify_valid(vspec, pi))
    return reports, skipped


def _safe_name(spec: GroupSpec) -> str:
    try:
        return format_group(spec)
    except Exception:
        return repr(spec)


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        pi_list = [parse_pi(t) for t in (args.pi_list.split(";") if args.pi_list else DEFAULT_PI_LIST)]
    except InvalidParameter as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.group:
        try:
            specs = [parse_group(g) for g in args.group]
        except InvalidParameter as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        specs = default_grid_specs(args.q_max, args.n_max)
    reports, skipped = run_sweep(specs, pi_list)
    violations = check_sweep_invariants(reports)
    rows = [_sweep_row(r) for r in reports]
    if args.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "rows": [dict(zip(SWEEP_COLUMNS, row)) for row in rows],
            "skipped": skipped,
            "violations": violations,
            "summary": f"{len(violations)} violations in {len(rows)} rows",
        }
        _emit(render_json(payload), args.out)
    else:
        text = _sweep_csv(rows)
        text += f"# skipped cells: {len(skipped)}\n"
        text += f"# summary: {len(violations)} violations in {len(rows)} rows\n"
        for v in violations:
            text += f"# violation: {v}\n"
        _emit(text, args.out)
    if violations:
        return EXIT_INVARIANT
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


DEFAULT_VERIFY_INSTANCES = [
    "PSL(2,5):2,3", "PSL(2,7):2,3", "PSL(2,11):2,3", "PSL(2,13):2,3",
    "PSL(2,7):2,3,5", "PSL(2,11):2,3,5", "PSL(2,13):2,3,5",
    "SL(2,5):2,3", "SL(2,7):2,3", "SL(2,11):2,3", "SL(2,13):2,3",
    "SL(2,7):2,3,5", "SL(2,11):2,3,5", "SL(2,13):2,3,5",
    "Sym(5):2,3", "Sym(6):2,3", "Sym(7):2,3",
    "Alt(5):2,3", "Alt(6):2,3", "Alt(7):2,3",
    "Sym(5):2,3,5", "Sym(7):2,3,5", "Alt(7):2,3,5",
]


# simple groups of Lie type modeled by an isomorphic group: PSL(2,4) = Alt(5),
# PSL(2,9) = Alt(6), PSL(3,2) = PSL(2,7), each with its unitary twin
_ISOMORPHIC_MODELS = {(2, 4): ("ALT", 5), (2, 9): ("ALT", 6), (3, 2): ("PSL2", 7)}


def concrete_from_spec(spec: GroupSpec, budget: Budget):
    """A concrete model of spec's group, or of a group isomorphic to it."""
    if spec.family == SYM:
        return build_group("SYM", spec.n, budget)
    if spec.family == ALT:
        return build_group("ALT", spec.n, budget)
    if spec.family == LINEAR_UNITARY and spec.variant == SIMPLE:
        if (spec.n, spec.q) in _ISOMORPHIC_MODELS:
            return build_group(*_ISOMORPHIC_MODELS[spec.n, spec.q], budget)
        if spec.n == 2 and spec.eta == -1:  # PSU(2,q) = PSL(2,q)
            return build_group("PSL2", spec.q, budget)
    if spec.family == LINEAR_UNITARY and spec.n == 2 and spec.eta == 1:
        kind = {SIMPLE: "PSL2", ISOMETRY: "SL2"}.get(spec.variant, "GL2")
        return build_group(kind, spec.q, budget)
    if (spec.family, spec.n, spec.q, spec.eta, spec.variant) == (LINEAR_UNITARY, 3, 3, 1, SIMPLE):
        return psl3_3_points()
    raise InvalidParameter(
        "brute-force", f"no concrete model for {format_group(spec)}"
    )


def cmd_verify(args: argparse.Namespace) -> int:
    budget = Budget() if args.budget is None else Budget(max_closure_steps=args.budget)
    instances = args.instance or DEFAULT_VERIFY_INSTANCES
    results = []
    all_ok = True
    for inst in instances:
        try:
            group_text, pi_text = inst.rsplit(":", 1)
            parsed = parse_group(group_text)
            pi = parse_pi(pi_text)
        except (ValueError, InvalidParameter) as exc:
            print(f"parse error in instance {inst!r}: {exc}", file=sys.stderr)
            return EXIT_PARSE
        try:
            spec = validate(parsed)
            group = concrete_from_spec(spec, budget)
            report = _classify_valid(spec, pi)
            census = find_hall_subgroups(group, tuple(sorted(pi)), budget)
            if not census.exhaustive:
                # a partial census decides no verdict, either way
                raise BudgetExceeded("census stopped at its budget")
        except InvalidParameter as exc:
            print(f"validation error in instance {inst!r}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except BudgetExceeded as exc:
            print(f"budget exhausted in instance {inst!r}: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        outcome = verify_report(group, report, census, budget)
        all_ok = all_ok and outcome.passed
        results.append((inst, outcome, census))
    if args.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "instances": [
                {
                    "instance": inst,
                    "outcome": outcome.to_dict(),
                    "census": census.to_dict(),
                }
                for inst, outcome, census in results
            ],
            "passed": all_ok,
        }
        _emit(render_json(payload), args.out)
    else:
        lines = []
        for inst, outcome, census in results:
            mark = "PASS" if outcome.passed else "FAIL"
            lines.append(f"[{mark}] {inst}: hall_order={census.hall_order} "
                         f"classes={census.class_count} exhaustive={census.exhaustive}")
            for fieldname, expected, actual, ok in outcome.checks:
                if not ok:
                    lines.append(f"    mismatch {fieldname}: expected {expected}, got {actual}")
        lines.append("all instances passed" if all_ok else "verification FAILED")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# wreath and bounds


def cmd_wreath(args: argparse.Namespace) -> int:
    if not is_prime(args.p):
        print(f"parse error: p = {args.p} is not prime", file=sys.stderr)
        return EXIT_PARSE
    # checked before k**p is built: its decimal form would exceed Python's limit
    digits = args.p * math.log10(args.k)
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        print(f"parse error: k^p has about {digits:.0f} digits, over the "
              f"{limit}-digit limit for printing an integer", file=sys.stderr)
        return EXIT_PARSE
    value = kpi_wreath_cyclic(args.k, args.p)
    line = f"k_pi(base wr Z({args.p})) = {value}"
    if args.p <= 7:
        check = burnside_orbits(args.k, [cyclic_perm(args.p)])
        line += f" (Burnside cross-check: {check})"
        if check != value:
            print(line, file=sys.stderr)
            return EXIT_INVARIANT
    _emit(line + "\n", args.out)
    return EXIT_OK


def cmd_kpi_bound(args: argparse.Namespace) -> int:
    try:
        spec = parse_group(args.group)
        pi = parse_pi(args.pi)
    except InvalidParameter as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        result = kpi_bound_almost_simple(spec, pi, args.outer)
    except InvalidParameter as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    payload = {
        "schema": SCHEMA_VERSION,
        "group": args.group.strip(),
        "pi": sorted(pi),
        "outer": args.outer,
        "bound": list(result.bound),
        "exact": result.exact,
        "source": result.source,
    }
    if args.format == "json":
        _emit(render_json(payload), args.out)
    else:
        exact = f" (exact: {result.exact})" if result.exact is not None else ""
        _emit(
            f"induced classes of {args.group.strip()} lie in {set(result.bound)}{exact}"
            f" [{result.source}]\n",
            args.out,
        )
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pihall",
        description="decision procedures for pi-Hall subgroups of finite simple groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify one group / prime-set query")
    p_classify.add_argument("--group", required=True)
    p_classify.add_argument("--pi", required=True)
    p_classify.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_classify.add_argument("--strict", action="store_true",
                            help="exit 4 when the verdict is out of scope")
    p_classify.add_argument("--out")
    p_classify.set_defaults(func=cmd_classify)

    p_sweep = sub.add_parser("sweep", help="classify a parameter grid and check invariants")
    p_sweep.add_argument("--group", action="append",
                         help="explicit cell (repeatable); default is the full grid")
    p_sweep.add_argument("--q-max", type=int, default=50)
    p_sweep.add_argument("--n-max", type=int, default=12)
    p_sweep.add_argument("--pi-list", help="semicolon-separated prime sets, e.g. '2,3;2,3,5'")
    p_sweep.add_argument("--format", choices=["json", "csv"], default="csv")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="brute-force cross-check of the classifier")
    p_verify.add_argument("--instance", action="append",
                          help="GROUP:pi, e.g. 'PSL(2,11):2,3' (repeatable)")
    p_verify.add_argument("--budget", type=_positive_int, help="closure step budget (>= 1)")
    p_verify.add_argument("--format", choices=["json", "text"], default="text")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_wreath = sub.add_parser("wreath", help="class count under a cyclic wreath top")
    p_wreath.add_argument("--k", type=_positive_int, required=True)
    p_wreath.add_argument("--p", type=int, required=True)
    p_wreath.add_argument("--out")
    p_wreath.set_defaults(func=cmd_wreath)

    p_bound = sub.add_parser("kpi-bound", help="bounds for overgroup-induced Hall classes")
    p_bound.add_argument("--group", required=True)
    p_bound.add_argument("--pi", required=True)
    p_bound.add_argument("--outer", choices=["trivial", "any"], default="any")
    p_bound.add_argument("--format", choices=["json", "text"], default="text")
    p_bound.add_argument("--out")
    p_bound.set_defaults(func=cmd_kpi_bound)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
