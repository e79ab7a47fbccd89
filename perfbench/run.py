"""Benchmark entry point.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout against that checkout's src/ tree, with
nothing installed.  One run times a cold set-up, then cold passes and
warm passes within --seconds, checks the outputs, and prints one JSON
object as its last line of stdout.  Cold passes run in forked children
of the set-up process, whose program caches are still empty, and the
last one in the process itself; warm passes follow it in the process.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 wraps the program's public functions, makes exactly one cold
and one warm pass (so every count repeats exactly), writes the spans to
perfbench/traces/ and reports the per-layer metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLD_SHARE = 0.5  # of the window, for the cold passes


def _load_program() -> None:
    src = ROOT / "src"
    if not (src / "pihall" / "__init__.py").is_file():
        raise SystemExit(f"error: no pihall source tree under {src}")
    sys.path.insert(0, str(src))
    import pihall

    if Path(pihall.__file__).resolve().parent != (src / "pihall").resolve():
        raise SystemExit(f"error: imported pihall from {pihall.__file__}, not from {src}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cold_pass_in_child(workload) -> dict:
    """One pass in a forked child, whose program caches are as empty as the parent's."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            t = time.perf_counter()
            result = workload.run_pass()
            elapsed = time.perf_counter() - t
            with os.fdopen(write_fd, "w") as fh:
                json.dump({"s": elapsed, "ops": result.ops, "failed": result.failed,
                           "digest": _digest(result.digest)}, fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status or not text:
        raise SystemExit(f"error: a cold pass in a child process failed (wait status {status})")
    return json.loads(text)


def measure(workload, seed: int, seconds: float, t_start: float) -> dict:
    """Set-up, cold passes and warm passes, with tracing off."""
    workload.setup(seed)
    setup_s = time.perf_counter() - t_start

    t_window = time.perf_counter()
    cold, child_digests, attempted, failed = [], [], 0, 0
    # children while they, and the process's own cold pass after them, fit in the cold share
    while True:
        child = _cold_pass_in_child(workload)
        cold.append(child["s"])
        child_digests.append(child["digest"])
        attempted += child["ops"]
        failed += child["failed"]
        if time.perf_counter() - t_window + 2 * statistics.median(cold) > COLD_SHARE * seconds:
            break
    t = time.perf_counter()
    first = workload.run_pass()
    cold.append(time.perf_counter() - t)
    attempted += first.ops
    failed += first.failed
    mismatched = sum(d != _digest(first.digest) for d in child_digests)

    warm = []
    # at least one warm pass; another only if it should end within the window
    while not warm or time.perf_counter() - t_window + warm[-1] <= seconds:
        t = time.perf_counter()
        result = workload.run_pass()
        warm.append(time.perf_counter() - t)
        attempted += result.ops
        failed += result.failed
        mismatched += result.digest != first.digest
        if len(warm) == 1:
            # read at a fixed pass, so that it does not follow machine speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t = time.perf_counter()
    errors = workload.check(first)
    check_s = time.perf_counter() - t
    if mismatched:
        errors.append(f"{mismatched} later passes rendered output differing from the first cold pass")
    print(f"{workload.name}: setup {setup_s:.4f} s, cold " + ", ".join(f"{c:.4f}" for c in cold)
          + " s, warm " + ", ".join(f"{w:.4f}" for w in warm) + f" s; checks {check_s:.2f} s",
          file=sys.stderr)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cold_s": (statistics.median(cold), "s"),
        "warm_s": (statistics.median(warm), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {"errors": errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(workload, seed: int) -> dict:
    """One cold and one warm pass under the tracer; per-layer metrics."""
    import layers

    workload.setup(seed)
    tracer, probe = layers.install()
    probe.phase = "cold"
    t = time.perf_counter()
    cold = workload.run_pass(tracer)
    cold_s = time.perf_counter() - t
    probe.phase = "warm"
    t = time.perf_counter()
    warm = workload.run_pass(tracer)
    warm_s = time.perf_counter() - t
    tracer.uninstall()
    print(f"{workload.name} (traced): cold {cold_s:.4f} s, warm {warm_s:.4f} s", file=sys.stderr)
    # before the checks, whose multiplications go through the built groups' counted `mul`
    metrics = layers.metrics(tracer, probe)

    errors = workload.check(cold)
    if warm.digest != cold.digest:
        errors.append("the warm pass rendered output differing from the cold pass")
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{workload.name}.spans.tsv.gz",
                 {name: value for name, (value, _) in metrics.items()})
    return {"errors": errors, "attempted": cold.ops + warm.ops,
            "failed": cold.failed + warm.failed, "metrics": metrics}


def run(workload, seed: int, seconds: float, trace: bool, t_start: float) -> dict:
    result = traced(workload, seed) if trace else measure(workload, seed, seconds, t_start)
    for e in result["errors"][:20]:
        print(f"check failed: {e}", file=sys.stderr)
    return {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    print(json.dumps(run(workload, args.seed, args.seconds, bool(args.trace), T0)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
