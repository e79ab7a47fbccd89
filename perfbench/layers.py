"""Per-layer metrics of a traced run.

Naming: `<layer>.s` is a layer's self time (time in its own code, less
the time in calls it makes into other layers); `<layer>.<function>.s` is
the inclusive time of a function's outermost calls, except
`bruteforce.find_hall_subgroups.s`, which is that function's self time
(the extension search and the orbit expansion, without the Sylow seed
and the closures it calls); `.calls` counts calls.  Every figure covers the
traced run's two passes, one cold and one warm, except where a name says
cold or warm.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from time import perf_counter

from tracer import LAYERS, Tracer

REGIMES = (
    "2_3_in_pi_cross_characteristic",
    "2_3_in_pi_defining_characteristic",
    "pi_covers_group",
)

# (name, unit), in the order BENCHMARK.json lists them
PER_LAYER = (
    [(f"{layer}.s", "s") for layer in LAYERS]
    + [
        ("arith.is_prime.calls", "count"),
        ("arith.is_prime.s", "s"),
        ("arith.factorize.calls", "count"),
        ("arith.factorize.s", "s"),
        ("groups.order.cold_s", "s"),
        ("groups.order.warm_us", "us"),
        ("groups.validate.s", "s"),
        ("classify.calls", "count"),
        ("classify.p50_us", "us"),
        ("classify.p99_us", "us"),
    ]
    + [(f"classify.{tag}.s", "s") for tag in REGIMES]
    + [
        ("cli.render.s", "s"),
        ("bruteforce.build_group.s", "s"),
        ("bruteforce.sylow_subgroup.s", "s"),
        ("bruteforce.find_hall_subgroups.s", "s"),
        ("bruteforce.subgroup_closure.calls", "count"),
        ("bruteforce.subgroup_closure.s", "s"),
        ("bruteforce.mul.calls", "count"),
        ("bruteforce.inverse.calls", "count"),
        ("bruteforce.pi_subgroup_lattice.s", "s"),
        ("bruteforce.lattice.yield", "ratio"),
        ("bruteforce.is_conjugate_into.calls", "count"),
        ("bruteforce.is_conjugate_into.s", "s"),
    ]
)


class Probe:
    """What the hooks record beyond the tracer's spans and counts."""

    def __init__(self) -> None:
        self.phase = "cold"
        self.order_seen: set = set()
        self.order_cold_s = 0.0
        self.order_warm_s = 0.0
        self.order_warm_calls = 0
        self.classify_warm_us: list = []
        self.regime_s: dict = defaultdict(float)
        self.lattice_stored = 0
        self.lattice_closures = 0


def install():
    """Wrap the program's public functions; returns (tracer, probe)."""
    from pihall import bruteforce

    tracer, probe = Tracer(), Probe()

    def order_hook(wrapped):
        @functools.wraps(wrapped)
        def order(spec):
            t = perf_counter()
            result = wrapped(spec)
            dur = perf_counter() - t
            if spec in probe.order_seen:
                probe.order_warm_s += dur
                probe.order_warm_calls += 1
            else:
                probe.order_seen.add(spec)
                probe.order_cold_s += dur
            return result
        return order

    def classify_hook(wrapped):
        @functools.wraps(wrapped)
        def classify(*args, **kwargs):
            before = tracer.layer_self_s["classify"]
            t = perf_counter()
            report = wrapped(*args, **kwargs)
            dur = perf_counter() - t
            probe.regime_s[report.scope_tag] += tracer.layer_self_s["classify"] - before
            if probe.phase == "warm":
                probe.classify_warm_us.append(dur * 1e6)
            return report
        return classify

    def build_hook(wrapped):
        @functools.wraps(wrapped)
        def build(*args, **kwargs):
            group = wrapped(*args, **kwargs)
            group.mul = tracer.counted("bruteforce.mul", group.mul)
            return group
        return build

    def lattice_hook(wrapped):
        @functools.wraps(wrapped)
        def lattice(*args, **kwargs):
            before = tracer.calls["bruteforce.subgroup_closure"]
            result = wrapped(*args, **kwargs)
            probe.lattice_closures += tracer.calls["bruteforce.subgroup_closure"] - before
            probe.lattice_stored += len(result[0])
            return result
        return lattice

    tracer.install({
        "groups.order": order_hook,
        "classify.classify": classify_hook,
        "bruteforce.build_group": build_hook,
        "bruteforce.psl3_3_points": build_hook,
        "bruteforce.pi_subgroup_lattice": lattice_hook,
    })
    group_cls = bruteforce.ConcreteGroup
    tracer.patch_attr(group_cls, "inverse", tracer.counted("bruteforce.inverse", group_cls.inverse))
    return tracer, probe


def _percentile(values, fraction: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def metrics(tracer: Tracer, probe: Probe) -> dict:
    calls, incl = tracer.calls, tracer.inclusive_s
    values = {f"{layer}.s": tracer.layer_self_s[layer] for layer in LAYERS}
    for fn in ("arith.is_prime", "arith.factorize", "bruteforce.subgroup_closure",
               "bruteforce.is_conjugate_into"):
        values[f"{fn}.calls"] = calls[fn]
    for fn in ("arith.is_prime", "arith.factorize", "groups.validate", "cli.render",
               "bruteforce.build_group", "bruteforce.sylow_subgroup",
               "bruteforce.subgroup_closure", "bruteforce.pi_subgroup_lattice",
               "bruteforce.is_conjugate_into"):
        values[f"{fn}.s"] = incl[fn]
    values["groups.order.cold_s"] = probe.order_cold_s
    values["groups.order.warm_us"] = (
        probe.order_warm_s / probe.order_warm_calls * 1e6 if probe.order_warm_calls else 0.0)
    values["classify.calls"] = calls["classify.classify"]
    values["classify.p50_us"] = _percentile(probe.classify_warm_us, 0.50)
    values["classify.p99_us"] = _percentile(probe.classify_warm_us, 0.99)
    for tag in REGIMES:
        values[f"classify.{tag}.s"] = probe.regime_s[tag]
    values["bruteforce.find_hall_subgroups.s"] = tracer.self_s["bruteforce.find_hall_subgroups"]
    values["bruteforce.mul.calls"] = tracer.counts["bruteforce.mul"]
    values["bruteforce.inverse.calls"] = tracer.counts["bruteforce.inverse"]
    values["bruteforce.lattice.yield"] = (
        probe.lattice_stored / probe.lattice_closures if probe.lattice_closures else 0.0)
    return {name: (values[name], unit) for name, unit in PER_LAYER}
