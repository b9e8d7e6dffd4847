"""Benchmark of the fussnarayana command line and library, one workload per run.

Usage, from the repository root:

    python3 bench/run.py --workload {oracle,symbolic,moments,mc}
                         [--seed 7] [--seconds 20] [--trace 0|1] [--tiny]

Load model: a closed loop.  Passes run one after another, each in a
fresh interpreter (``worker.py``), so every pass pays the import cost a
command pays and starts with cold library caches.  Passes repeat until
``--seconds`` is used up: at least three plain passes, and with
``--trace 1`` at least two traced ones, alternating with the plain ones.
Every output of every pass is checked.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
(medians over the plain passes), or with ``--trace 1`` the per-layer
metrics of ``layers.json``.  The lines before it give the same numbers
for people, with quartiles, pass counts and the environment.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")

#: BLAS threads are pinned before numpy loads: unpinned Gram and trace
#: timings on two cores spread from 1 to 18 ms.
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_PLAIN, MIN_TRACED = 3, 2
PASS_TIMEOUT_S = 120
#: No pass starts after this many seconds, so a run ends within 180 s.
LAST_START_S = 100

END_TO_END = {
    "wall_norm_s": "s", "setup_s": "s", "cpu_norm_s": "s", "peak_rss_mb": "MB", "checks": "count",
    "ok_ratio": "ratio",
}
#: The same times unscaled, printed for people only: they move with the host's speed.
RAW = {"wall_raw_s": "s", "setup_raw_s": "s", "cpu_raw_s": "s", "stolen_s": "s", "kernel_ms": "ms"}
IMPORTS = {"numpy", "scipy.integrate", "fussnarayana"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle", "symbolic", "moments", "mc"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's self-test")
    return parser.parse_args(argv)


def import_times(stderr: str) -> dict:
    """Cumulative seconds per top-level module, from ``python -X importtime``."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name in IMPORTS and name not in found:
            found[name] = int(cumulative_us) / 1e6
    return found


def run_worker(spec: dict, traced: bool) -> tuple[dict | None, str]:
    command = [sys.executable] + (["-X", "importtime"] if traced else []) + [WORKER]
    spec = dict(spec, trace=traced, spawn_ns=time.monotonic_ns())
    try:
        proc = subprocess.run(command + [json.dumps(spec)], cwd=ROOT,
                              capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"pass timed out after {PASS_TIMEOUT_S} s"
    if proc.returncode != 0 or not proc.stdout.strip():
        return None, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if traced:
        result["imports"] = import_times(proc.stderr)
    return result, ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_passes(args, spec: dict) -> tuple[list, list, list]:
    """Closed loop of passes until the time is used up; returns plain, traced, crash messages."""
    plain, traced, crashes = [], [], []
    started = time.monotonic()
    while True:
        use_trace = bool(args.trace) and len(traced) < len(plain)
        done = len(plain) >= MIN_PLAIN and (not args.trace or len(traced) >= MIN_TRACED)
        elapsed = time.monotonic() - started
        if elapsed > LAST_START_S:
            break
        if done:
            # Start another pass only if a typical pass still fits.
            typical = statistics.median(p["elapsed"] for p in (traced if use_trace else plain))
            if elapsed + typical > args.seconds:
                break
        pass_start = time.monotonic()
        result, error = run_worker(spec, use_trace)
        if result is None:
            crashes.append(error)
            break
        result["elapsed"] = time.monotonic() - pass_start
        (traced if use_trace else plain).append(result)
    return plain, traced, crashes


def summarize(passes: list[dict], ops_per_pass: int, crashes: list[str]) -> tuple[int, int, list]:
    """Attempted and failed operations over all passes, with one line per distinct failure.

    An operation fails on an error or failed check inside its pass, on
    output that differs from the first pass's, and, for MC commands, on
    means that differ from the reference.  A crashed pass fails all its
    operations.
    """
    import reference

    failures = [f"pass crashed: {error.strip()}" for error in crashes]
    failed = ops_per_pass * len(crashes)
    for index in range(ops_per_pass):
        runs = [p["ops"][index] for p in passes]
        errors = [r["error"] for r in runs if r["error"]]
        good = [r for r in runs if not r["error"]]
        label = runs[0]["label"] if runs else str(index)
        failed += len(errors)
        failures += [f"{label}: {e}" for e in sorted(set(errors))]
        # Every pass must print the same bytes, traced or not.
        drifted = sum(1 for r in good if r["sha256"] != good[0]["sha256"])
        if drifted:
            failed += drifted
            failures.append(f"{label}: output differs between passes")
        if good and good[0]["reference"]:
            try:
                reference.check_means(good[0]["reference"], good[0]["stdout"])
            except Exception as exc:  # any error in checking is a failed output
                failed += len(good)
                failures.append(f"{label}: reference check: {exc}")
    return ops_per_pass * (len(passes) + len(crashes)), failed, failures


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> tuple[dict, list]:
    """Medians of the per-layer metrics over traced passes, and the metrics that never fired."""
    with open(os.path.join(BENCH, "layers.json")) as handle:
        specs = json.load(handle)["metrics"]
    values, missing = {}, []
    for metric in specs:
        name, stat = metric["name"], metric["stat"]
        if stat == "import_s":
            samples = [p["imports"].get(metric["source"]) for p in traced]
            fired = None not in samples
            samples = [v for v in samples if v is not None] or [0.0]
        elif stat == "overhead_s":
            samples = [statistics.median(p["wall_norm_s"] for p in traced)
                       - statistics.median(p["wall_norm_s"] for p in plain)]
            fired = True
        else:
            samples = [p["layers"][name] for p in traced]
            fired = any(p["fired"][name] for p in traced)
        values[name] = statistics.median(samples)
        if not fired and any(m.split(".")[0] == workload for m in metric["moves"]):
            missing.append(name)
    for p in traced:
        missing += [f"patch target {t}" for t in p["missing_patches"] if f"patch target {t}" not in missing]
    return values, missing


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fussnarayana", "cli.py")):
        print(f"error: no fussnarayana sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.environ.update(PINS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # imports the package; the pins are already set

    size = "tiny" if args.tiny else "full"
    ops_per_pass = len(workloads.build(args.workload, args.seed, size))
    spec = {"workload": args.workload, "seed": args.seed, "size": size}

    # Untimed warm-up: byte-compiles the package and warms the file cache.
    subprocess.run([sys.executable, "-c", "import fussnarayana.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")), capture_output=True)
    plain, traced, crashes = run_passes(args, spec)
    passes = plain + traced
    attempted, failed, failures = summarize(passes, ops_per_pass, crashes)

    metrics, spreads = {}, {}
    if plain:
        for name in [*END_TO_END, *RAW]:
            if name != "ok_ratio":
                spreads[name] = quartiles([p[name] for p in plain])
                if name in END_TO_END:
                    metrics[name] = spreads[name][1]
        metrics["ok_ratio"] = (attempted - failed) / attempted
    layers = {}
    if args.trace and plain and traced:
        layers, missing = per_layer(args.workload, plain, traced)
        if missing:
            failures.append("per-layer metrics that never fired: " + ", ".join(missing))

    print(f"workload {args.workload}  seed {args.seed}  size {size}  "
          f"passes {len(plain)} plain, {len(traced)} traced  ops/pass {ops_per_pass}")
    for name, (q1, median, q3) in spreads.items():
        unit = END_TO_END.get(name) or RAW[name]
        print(f"  {name:<12} {median:12.6g} {unit:<5}  quartiles {q1:.6g} .. {q3:.6g}")
    print("  wall_norm_s per pass: " + " ".join(f"{p['wall_norm_s']:.4g}" for p in plain))
    if metrics:
        print(f"  {'ok_ratio':<12} {metrics['ok_ratio']:12.6g} {'ratio':<5}  "
              f"attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.6g}")
    for name, value in layers.items():
        print(f"  {name:<32} {value:14.6g}")
    environment = dict(
        PINS, FN_BUDGET=workloads.FN_BUDGET, nproc=len(os.sched_getaffinity(0)),
        **(passes[0]["env"] if passes else {}))
    print("  environment " + json.dumps(environment, sort_keys=True))
    for line in failures:
        print("FAIL " + line, file=sys.stderr)

    if args.trace:
        with open(os.path.join(BENCH, "layers.json")) as handle:
            units = {m["name"]: m["unit"] for m in json.load(handle)["metrics"]}
        chosen = layers
    else:
        units, chosen = END_TO_END, metrics
    correct = not failures and bool(plain) and bool(traced or not args.trace)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
