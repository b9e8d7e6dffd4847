"""Self-test of the benchmark.

Run from the repository root: ``python3 bench/selftest.py``.  It checks
that

* ``BENCHMARK.json`` lists the workloads and the per-layer metrics of
  ``layers.json``;
* every workload, run at tiny size with and without tracing, is correct
  and emits exactly the metric names and units ``BENCHMARK.json`` lists;
* a planted nonzero exit and a planted wrong output each raise the
  fail ratio;
* the span-coverage check names the metrics that never fired;
* the MC reference reproduces the recorded seed-7 means;
* the benchmark refuses to run where the package sources are missing.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from fussnarayana.poly import MultiPoly  # noqa: E402


def load(name: str) -> dict:
    with open(os.path.join(ROOT, name)) as handle:
        return json.load(handle)


def bench_run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_declarations(benchmark: dict) -> None:
    layers = load("bench/layers.json")["metrics"]
    declared = [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]]
    assert declared == [(m["name"], m["unit"], m["better"]) for m in layers], \
        "BENCHMARK.json per_layer differs from bench/layers.json"
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END


def check_tiny_runs(benchmark: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, declared in (("0", benchmark["end_to_end"]), ("1", benchmark["per_layer"])):
            proc = bench_run("--workload", workload, "--seconds", "1", "--trace", trace, "--tiny")
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(doc) == {"correct", "attempted", "failed", "metrics"}
            assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, \
                (workload, trace, proc.stderr)
            units = {name: value["unit"] for name, value in doc["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in declared}, (workload, trace)
            print(f"ok  tiny {workload} trace={trace}: {len(units)} metrics")


def fail_ratio(ops: list) -> float:
    result = worker.measure(ops, worker.load_golden()["stdout_sha256"])
    attempted, failed, _failures = run.summarize([result], len(ops), [])
    return failed / attempted


def check_planted_faults() -> None:
    os.environ["FN_BUDGET"] = workloads.FN_BUDGET
    oracle = workloads.build("oracle", 7, "tiny")
    symbolic = workloads.build("symbolic", 7, "tiny")
    assert fail_ratio(oracle) == 0 and fail_ratio(symbolic) == 0

    # A lemma sweep at 2pk = 18 exits 2 when FN_BUDGET is left unset.
    lemma = workloads.Op("planted exit", lambda text, outputs: 1, golden=True,
                         argv=["verify", "--suite", "lemmas", "-p", "3", "--k-max", "3"])
    del os.environ["FN_BUDGET"]
    try:
        assert fail_ratio(oracle + [lemma]) == 1 / (len(oracle) + 1)
    finally:
        os.environ["FN_BUDGET"] = workloads.FN_BUDGET
    print("ok  planted nonzero exit raises fail_ratio")

    # Every polynomial printed with its first coefficient off by one:
    # the routes still agree with each other, but not with the recorded bytes.
    original = MultiPoly.to_json_dict

    def off_by_one(self, names):
        doc = original(self, names)
        doc["terms"][0]["coeff"] = str(int(doc["terms"][0]["coeff"]) + 1)
        return doc

    MultiPoly.to_json_dict = off_by_one
    try:
        assert fail_ratio(symbolic) > 0
    finally:
        MultiPoly.to_json_dict = original
    print("ok  planted wrong output raises fail_ratio")


def check_span_coverage() -> None:
    # A traced symbolic pass never enters partitions, so judged as an
    # oracle pass its partitions metrics must be reported as missing.
    tracer = worker.Tracer(run_id="selftest")
    worker.install(tracer)
    result = worker.measure(workloads.build("symbolic", 7, "tiny"),
                            worker.load_golden()["stdout_sha256"], tracer)
    worker.add_layers(result, tracer)
    result["imports"] = dict.fromkeys(run.IMPORTS, 0.1)
    _values, missing = run.per_layer("oracle", [result], [result])
    assert set(missing) == {name for name in result["layers"] if name.startswith("partitions.")}, \
        missing
    _values, missing = run.per_layer("symbolic", [result], [result])
    assert not missing, missing
    print("ok  span coverage reports metrics that never fired")


def check_reference() -> None:
    for argv_text, means in load("bench/golden.json")["mc_means"].items():
        reference.check_means(argv_text.split(), json.dumps(
            {"moments": [{"k": k, "mean": m} for k, m in enumerate(means, 1)]}))
    print("ok  MC reference matches the recorded seed-7 means")


def check_bare_directory() -> None:
    bare = os.path.join(BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench_run("--workload", "oracle", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("ok  refuses to run without the package sources")


def main() -> int:
    benchmark = load("BENCHMARK.json")
    try:
        check_declarations(benchmark)
        check_planted_faults()
        check_span_coverage()
        check_reference()
        check_bare_directory()
        check_tiny_runs(benchmark)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
