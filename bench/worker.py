"""One pass of a workload in a fresh interpreter.

Usage: ``python3 bench/worker.py '<json spec>'`` with keys ``workload``,
``seed``, ``size``, ``trace`` and ``spawn_ns`` (the parent's
``time.monotonic_ns()`` just before it started this process).  Prints
one JSON object: setup and operation timings, peak RSS, per-operation
outcomes and, when traced, the per-layer values.

The package import comes first so that ``setup_s`` covers exactly what
every command pays: interpreter start-up plus ``import fussnarayana.cli``.
The host's speed is sampled during the import and again during the
operations (``hostspeed.py``); the ``*_norm_s`` times and ``setup_s``
leave out stolen time and are scaled to the reference speed, the
``*_raw_s`` times are neither.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from hostspeed import HostSpeed  # noqa: E402

with HostSpeed() as SETUP_SPEED:
    import fussnarayana.cli  # noqa: E402

    READY_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, install, layer_metrics  # noqa: E402

BENCH = os.path.join(ROOT, "bench")


@dataclass
class Outcome:
    """What one operation did in the timed phase."""

    label: str
    output: object = None
    stdout: str = ""
    error: str | None = None


def run_op(op: workloads.Op) -> Outcome:
    outcome = Outcome(op.label)
    try:
        if op.argv is None:
            outcome.output = op.call()
            return outcome
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fussnarayana.cli.main(op.argv)
        outcome.output = outcome.stdout = out.getvalue()
        if code != 0:
            outcome.error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    except Exception as exc:  # a failed operation is counted, not fatal
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def check_all(ops, outcomes, golden: dict) -> int:
    """Check every output; record failures on the outcomes; return comparisons made."""
    outputs = {o.label: o.output for o in outcomes if o.error is None}
    comparisons = 0
    for op, outcome in zip(ops, outcomes):
        if outcome.error is not None:
            continue
        try:
            if op.golden:
                want = golden.get(" ".join(op.argv))
                if want != workloads.digest(outcome.stdout):
                    raise workloads.CheckFailure(
                        "stdout differs from the recorded digest" if want else "no recorded digest")
                comparisons += 1
            comparisons += op.check(outcome.output, outputs)
        except Exception as exc:  # any error in checking is a failed output
            outcome.error = f"check: {type(exc).__name__}: {exc}"
    return comparisons


def measure(ops, golden: dict, tracer: Tracer | None = None) -> dict:
    """Run the operations once, timed, then check every output."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_start = usage.ru_utime + usage.ru_stime
    if tracer:
        tracer.enabled = True
    with HostSpeed() as host:
        start = time.perf_counter()
        outcomes = [run_op(op) for op in ops]
        wall = time.perf_counter() - start
    if tracer:
        tracer.enabled = False
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu = usage.ru_utime + usage.ru_stime - cpu_start
    peak_rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB

    wall, cpu, speed = wall - host.spent, cpu - host.spent, host.speed()
    return {
        "wall_raw_s": wall,
        "cpu_raw_s": cpu,
        "stolen_s": host.stolen,
        "wall_norm_s": (wall - host.stolen) * speed,
        "cpu_norm_s": cpu * speed,
        "kernel_ms": host.kernel_ms(),
        "peak_rss_mb": peak_rss_mb,
        "checks": check_all(ops, outcomes, golden),
        "stdout_bytes": sum(len(o.stdout.encode()) for o in outcomes),
        "ops": [
            {
                "label": o.label,
                "error": o.error,
                "sha256": workloads.digest(o.stdout),
                "reference": op.argv if op.reference and o.error is None else None,
                "stdout": o.stdout if op.reference else None,
            }
            for op, o in zip(ops, outcomes)
        ],
    }


def load_golden() -> dict:
    with open(os.path.join(BENCH, "golden.json")) as handle:
        return json.load(handle)


def add_layers(result: dict, tracer: Tracer) -> None:
    """Add the traced pass's per-layer values and whether each fired."""
    with open(os.path.join(BENCH, "layers.json")) as handle:
        metrics = json.load(handle)["metrics"]
    tracer.counters["cli.stdout"] = result["stdout_bytes"]
    result["layers"], result["fired"] = layer_metrics(tracer, metrics)
    result["missing_patches"] = tracer.missing


def run_pass(spec: dict) -> dict:
    ops = workloads.build(spec["workload"], spec["seed"], spec["size"])
    tracer = None
    if spec["trace"]:
        tracer = Tracer(run_id=f"{spec['workload']}-{spec['seed']}-{os.getpid()}")
        install(tracer)
    result = measure(ops, load_golden()["stdout_sha256"], tracer)
    result["setup_raw_s"] = (READY_NS - spec["spawn_ns"]) / 1e9 - SETUP_SPEED.spent
    result["setup_s"] = (result["setup_raw_s"] - SETUP_SPEED.stolen) * SETUP_SPEED.speed()
    result["env"] = {
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "python": sys.version.split()[0],
    }
    if tracer:
        add_layers(result, tracer)
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        tracer.write(os.path.join(BENCH, "out", f"spans-{spec['workload']}.csv"))
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.environ["FN_BUDGET"] = workloads.FN_BUDGET
    try:
        result = run_pass(spec)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
