"""Monte Carlo study of products of independent rectangular Gaussian blocks.

For a scale parameter n and target ratios d_0..d_p, block j is an
N_{j-1} x N_j matrix with N_j = max(1, floor(d_j n + 1/2)) and iid
entries of variance 1/n.  With B the product of the p blocks, the
normalized trace moment (1/N_0) E Tr (B B*)^k converges to the order-k
limit moment polynomial evaluated at (d_0, ..., d_p).

Two entry ensembles are supported.  ``complex`` (the default) draws
entries as (g + i h) / sqrt(2 n) with independent standard normals g, h;
its moments approach the limit at rate O(1/n^2), so the z-scores of a
run are noise-dominated at moderate n.  ``real`` draws entries as
g / sqrt(n); it carries a genuine O(1/n) offset that a 2-3 standard
error gate at n of a few hundred will flag, especially at higher k.

Every trial uses its own generator seeded as (seed, trial_index), so
results are reproducible; trial statistics are aggregated after all
trials finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import limit_moment_poly

_ENSEMBLES = ("complex", "real")
_MAX_DIM = 20_000


@dataclass(frozen=True)
class DimensionProfile:
    """Target ratios plus the integer dimensions realized at scale n."""

    d: tuple[float, ...]
    n: int
    realized: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.d) - 1

    @classmethod
    def from_targets(cls, d: Sequence[float], n: int) -> "DimensionProfile":
        d = tuple(float(x) for x in d)
        if len(d) < 2:
            raise ValueError("need at least two ratios d0, d1")
        if any(x <= 0 for x in d):
            raise ValueError(f"ratios must be positive, got {d}")
        if n < 1:
            raise ValueError(f"scale must be >= 1, got {n}")
        realized = tuple(max(1, math.floor(x * n + 0.5)) for x in d)
        if max(realized) > _MAX_DIM:
            raise ValueError(
                f"realized dimension {max(realized)} exceeds the safety cap {_MAX_DIM}"
            )
        return cls(d=d, n=n, realized=realized)


@dataclass(frozen=True)
class McConfig:
    """Full specification of one Monte Carlo run."""

    profile: DimensionProfile
    k_max: int
    trials: int
    seed: int
    ensemble: str = "complex"

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.trials < 2:
            raise ValueError(f"need at least 2 trials for a standard error, got {self.trials}")
        if self.ensemble not in _ENSEMBLES:
            raise ValueError(f"ensemble must be one of {_ENSEMBLES}, got {self.ensemble!r}")


@dataclass(frozen=True)
class MomentStat:
    k: int
    mean: float
    se: float
    target: float
    z: float


@dataclass(frozen=True)
class McResult:
    """Aggregated moments of one run, with deterministic serializations."""

    config: McConfig
    moments: tuple[MomentStat, ...]

    def to_json_text(self) -> str:
        """JSON document; non-finite values (z when se is 0) become null."""
        c = self.config
        pr = c.profile
        fmt = lambda x: format(x, ".12g") if math.isfinite(x) else "null"
        d_text = ", ".join(fmt(x) for x in pr.d)
        realized_text = ", ".join(str(x) for x in pr.realized)
        rows = ",\n".join(
            f'    {{"k": {m.k}, "mean": {fmt(m.mean)}, "se": {fmt(m.se)}, '
            f'"target": {fmt(m.target)}, "z": {fmt(m.z)}}}'
            for m in self.moments
        )
        return (
            "{\n"
            f'  "config": {{"p": {pr.p}, "d": [{d_text}], "n": {pr.n}, '
            f'"realized": [{realized_text}], "k_max": {c.k_max}, '
            f'"trials": {c.trials}, "seed": {c.seed}, "ensemble": "{c.ensemble}"}},\n'
            '  "moments": [\n'
            f"{rows}\n"
            "  ]\n"
            "}\n"
        )

    def to_csv_text(self) -> str:
        fmt = lambda x: format(x, ".12g")
        lines = ["k,mean,se,target,z"]
        lines += [
            f"{m.k},{fmt(m.mean)},{fmt(m.se)},{fmt(m.target)},{fmt(m.z)}"
            for m in self.moments
        ]
        return "\n".join(lines) + "\n"


def sample_product(
    profile: DimensionProfile, rng: np.random.Generator, ensemble: str = "complex"
) -> np.ndarray:
    """Draw one product B of independent Gaussian blocks at the given profile.

    Blocks are drawn left to right; for the complex ensemble the real
    part of each block is drawn before its imaginary part, which pins
    the generator stream layout for reproducibility.
    """
    if ensemble not in _ENSEMBLES:
        raise ValueError(f"ensemble must be one of {_ENSEMBLES}, got {ensemble!r}")
    n = profile.n
    dims = profile.realized
    product = None
    for j in range(1, len(dims)):
        shape = (dims[j - 1], dims[j])
        if ensemble == "complex":
            block = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            block /= math.sqrt(2 * n)
        else:
            block = rng.standard_normal(shape) / math.sqrt(n)
        product = block if product is None else product @ block
    return product


def trace_moments(product: np.ndarray, profile: DimensionProfile, k_max: int) -> np.ndarray:
    """Normalized trace moments (1/N_0) Tr (B B*)^k for k = 1..k_max.

    Powers are accumulated on the smaller Gram matrix of B, which has
    the same nonzero spectrum as the larger one.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    rows, cols = product.shape
    adjoint = product.conj().T
    gram = (adjoint @ product) if cols <= rows else (product @ adjoint)
    out = np.empty(k_max)
    power = gram
    for k in range(1, k_max + 1):
        out[k - 1] = np.trace(power).real / profile.realized[0]
        if k < k_max:
            power = power @ gram
    return out


def _one_trial(config: McConfig, trial: int) -> np.ndarray:
    rng = np.random.default_rng([config.seed, trial])
    product = sample_product(config.profile, rng, config.ensemble)
    return trace_moments(product, config.profile, config.k_max)


def run_experiment(config: McConfig) -> McResult:
    """Run all trials of a configuration and aggregate the moment statistics.

    Trials run in index order, each on its own seeded generator, and
    means are taken along the trial axis afterwards, so the result is a
    pure function of the configuration.
    """
    per_trial = np.empty((config.trials, config.k_max))
    for trial in range(config.trials):
        per_trial[trial] = _one_trial(config, trial)

    profile = config.profile
    means = per_trial.mean(axis=0)
    ses = per_trial.std(axis=0, ddof=1) / math.sqrt(config.trials)
    stats = []
    for k in range(1, config.k_max + 1):
        target = float(limit_moment_poly(profile.p, k).evaluate(profile.d))
        mean = float(means[k - 1])
        se = float(ses[k - 1])
        if se > 0:
            z = (mean - target) / se
        else:
            z = 0.0 if mean == target else math.inf
        stats.append(MomentStat(k=k, mean=mean, se=se, target=target, z=z))
    return McResult(config=config, moments=tuple(stats))
