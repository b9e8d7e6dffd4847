"""Write ``bench/golden.json``: digests of the seed-independent outputs, and seed-7 MC means.

Run from the repository root: ``python3 bench/record_golden.py``.  The
committed file was recorded from the code it checks; re-record only when
a change to the output format is intended.
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import workloads  # noqa: E402


def main() -> None:
    os.environ["FN_BUDGET"] = workloads.FN_BUDGET
    digests, mc_means = {}, {}
    for size in ("full", "tiny"):
        for workload in workloads.WORKLOADS:
            for op in workloads.build(workload, workloads.CRITERION_SEED, size):
                key = " ".join(op.argv or ())
                if op.golden:
                    digests[key] = workloads.digest(workloads.cli_stdout(op.argv))
                if op.reference:
                    doc = json.loads(workloads.cli_stdout(op.argv))
                    mc_means[key] = [row["mean"] for row in doc["moments"]]
    with open(os.path.join(BENCH, "golden.json"), "w") as handle:
        json.dump({"stdout_sha256": digests, "mc_means": mc_means}, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
