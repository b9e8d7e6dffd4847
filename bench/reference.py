"""Independent Monte Carlo reference for checking ``fussnarayana mc`` output.

Reproduces the generator stream of the package's complex ensemble
(trial t draws from ``default_rng([seed, t])``; each block draws its real
part, then its imaginary part; blocks are taken left to right) but takes
the trace moments from the singular values of the product instead of
from powers of a Gram matrix.  The means must agree with the program's
to ``MC_REL_TOL``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import MC_REL_TOL, CheckFailure


def mc_means(d: list[float], n: int, k_max: int, trials: int, seed: int) -> np.ndarray:
    """Mean over trials of (1/N_0) sum_i sigma_i^(2k), k = 1..k_max."""
    dims = [max(1, math.floor(x * n + 0.5)) for x in d]
    per_trial = np.empty((trials, k_max))
    orders = np.arange(1, k_max + 1)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        product = None
        for rows, cols in zip(dims, dims[1:]):
            real = rng.standard_normal((rows, cols))
            imag = rng.standard_normal((rows, cols))
            block = (real + 1j * imag) / math.sqrt(2 * n)
            product = block if product is None else product @ block
        eigenvalues = np.linalg.svd(product, compute_uv=False) ** 2
        per_trial[trial] = (eigenvalues[None, :] ** orders[:, None]).sum(axis=1) / dims[0]
    return per_trial.mean(axis=0)


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def means_for(argv: list[str]) -> list[float]:
    """Reference means for one ``mc`` command line (complex ensemble)."""
    d = [float(x) for x in _option(argv, "-d").split(",")]
    means = mc_means(d, int(_option(argv, "-n")), int(_option(argv, "-K")),
                     int(_option(argv, "--trials")), int(_option(argv, "--seed")))
    return [float(m) for m in means]


def check_means(argv: list[str], text: str) -> int:
    """Compare the means in ``mc`` JSON output with the reference; returns comparisons made."""
    expected = means_for(argv)
    rows = json.loads(text)["moments"]
    if len(rows) != len(expected):
        raise CheckFailure(f"{len(rows)} moments reported, {len(expected)} expected")
    for row, want in zip(rows, expected):
        if abs(row["mean"] - want) > MC_REL_TOL * abs(want):
            raise CheckFailure(f"k={row['k']}: mean {row['mean']!r} vs reference {want!r}")
    return len(rows)
