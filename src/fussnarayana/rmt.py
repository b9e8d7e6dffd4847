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
results are reproducible; trial statistics are aggregated by trial index
after all trials finish.  Trials run side by side on a thread pool, as
many at once as the CPUs that BLAS leaves free, the trials and the trial
estimates that fit in ``MAX_INFLIGHT_BYTES`` allow; a trial over half
that budget runs alone, and so does every trial while BLAS takes every
CPU, its default.  BLAS thread settings are read, never set.

The generator stream is laid out block by block, left to right, and
within a complex block the real part is drawn before the imaginary part.
The blocks are multiplied in the order of fewest scalar multiply-adds
(the matrix-chain dynamic program), which is left to right for p <= 2,
and each block is drawn at the chain step that consumes it, so a trial
holds only the operands of the product it is computing.  A block whose
stream slot lies before a block a step needs is passed over: its normals
are drawn and discarded, and the block is drawn again from the saved
generator state at its own step.  For A1 (A2 A3) that draws A1 twice;
left-to-right chains pass nothing over.  Normals go through one small
scratch buffer into the real and imaginary parts of the complex block,
and the 1/sqrt(2 n) (or 1/sqrt(n)) scale is applied once, to the
product.  The trace powers are paired: Tr G^(a+b) = <G^b, G^a> for the
Hermitian Gram matrix G, so orders up to K need ceil(K/2) - 1 matrix
products.

A trial's arrays must fit in ``MAX_TRIAL_BYTES``, and
``DimensionProfile.from_targets`` rejects larger profiles.  The estimate
takes every array as complex and is the largest of the chain steps and
the trace: a step holds the intermediates waiting for a later step, its
two operands, its output and the scratch buffer; the trace holds the
product, its conjugate copy, the Gram matrix and two of its powers.  The
trials in flight together hold at most the larger of
``MAX_INFLIGHT_BYTES`` and one trial's estimate, so the 1 GiB cap covers
every trial in flight.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .exact import limit_moment_poly

_ENSEMBLES = ("complex", "real")

MAX_TRIAL_BYTES = 1 << 30
"""Cap on the estimated bytes one trial holds at once (1 GiB)."""

MAX_INFLIGHT_BYTES = 32 << 20
"""Budget for the estimated bytes of the trials run at once (32 MiB); a larger trial runs alone."""

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
"""The settings BLAS libraries read for their thread count; read here, never set."""

_TRIAL_OVERHEAD_BYTES = 1 << 16
"""Allowance for a trial's small objects: the generator, the moment vector and array headers."""

_SCRATCH_NORMALS = 8192
"""Length of the buffer every normal is drawn through, so no draw makes a block-sized temporary."""


def _chain_steps(dims: Sequence[int]) -> list[tuple[int, int, int]]:
    """The cheapest multiplication order of blocks with boundary dimensions ``dims``.

    Block j is dims[j] x dims[j + 1].  A step (i, s, j) multiplies the
    product of blocks i..s by that of blocks s+1..j; the steps are in
    evaluation order.  The cut of each sub-chain comes from the textbook
    matrix-chain dynamic program over multiply-add counts, and ties keep
    the left-to-right cut.
    """
    p = len(dims) - 1
    cost = {(i, i): 0 for i in range(p)}
    cut = {}
    for length in range(2, p + 1):
        for i in range(p - length + 1):
            j = i + length - 1
            for s in range(j - 1, i - 1, -1):
                c = cost[i, s] + cost[s + 1, j] + dims[i] * dims[s + 1] * dims[j + 1]
                if s == j - 1 or c < cost[i, j]:
                    cost[i, j], cut[i, j] = c, s
    steps = []

    def visit(i: int, j: int) -> None:
        if i < j:
            visit(i, cut[i, j])
            visit(cut[i, j] + 1, j)
            steps.append((i, cut[i, j], j))

    visit(0, p - 1)
    return steps


def _trial_bytes(dims: Sequence[int]) -> int:
    """Bytes of the arrays one complex trial holds at once, estimated.

    The largest of the chain steps and the trace, plus a fixed allowance
    for small objects.  A step of the cost-ordered chain holds the
    intermediates that wait for a later step, its two operands (a block
    drawn for this step, or an intermediate), its output and the scratch
    buffer the normals are drawn through; for p = 1 the block alone is
    drawn.  The trace holds the N_0 x N_p product (for p = 1, the block
    itself) and its conj() copy, then the Gram matrix and up to two live
    powers of it, each min(N_0, N_p)^2.
    """
    size = lambda i, j: dims[i] * dims[j + 1]  # entries of the product of blocks i..j
    held = 0  # entries of the intermediates waiting for a later step
    largest = size(0, len(dims) - 2)
    for i, s, j in _chain_steps(dims):
        held -= (size(i, s) if i < s else 0) + (size(s + 1, j) if s + 1 < j else 0)
        largest = max(largest, held + size(i, s) + size(s + 1, j) + size(i, j))
        held += size(i, j)
    sampling = 16 * largest + 8 * _SCRATCH_NORMALS
    tracing = 16 * (2 * dims[0] * dims[-1] + 3 * min(dims[0], dims[-1]) ** 2)
    return max(sampling, tracing) + _TRIAL_OVERHEAD_BYTES


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
        if not all(math.isfinite(x) for x in d):
            raise ValueError(f"ratios must be finite, got {d}")
        if any(x <= 0 for x in d):
            raise ValueError(f"ratios must be positive, got {d}")
        if n < 1:
            raise ValueError(f"scale must be >= 1, got {n}")
        realized = tuple(max(1, math.floor(x * n + 0.5)) for x in d)
        estimate = _trial_bytes(realized)
        if estimate > MAX_TRIAL_BYTES:
            raise ValueError(
                f"realized dimensions {realized} need an estimated {estimate} bytes "
                f"per trial, over the cap of {MAX_TRIAL_BYTES} bytes (1 GiB)"
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def _normals(rng: np.random.Generator, count: int, scratch: np.ndarray):
    """Draw ``count`` standard normals into ``scratch``, a chunk at a time.

    Yields each chunk with its offset; the chunks draw the same stream as
    one call for all ``count``.
    """
    for start in range(0, count, scratch.size):
        chunk = scratch[: count - start]
        rng.standard_normal(out=chunk)
        yield start, chunk


def _draw_block(
    rng: np.random.Generator, shape: tuple[int, int], ensemble: str, scratch: np.ndarray
) -> np.ndarray:
    """One unscaled block: real normals, or a real part then an imaginary part."""
    if ensemble == "real":
        return rng.standard_normal(shape)
    block = np.empty(shape, complex)
    flat = block.reshape(-1)
    for part in (flat.real, flat.imag):
        for start, chunk in _normals(rng, part.size, scratch):
            part[start : start + chunk.size] = chunk
    return block


def sample_product(
    profile: DimensionProfile, rng: np.random.Generator, ensemble: str = "complex"
) -> np.ndarray:
    """Draw one product B of independent Gaussian blocks at the given profile.

    The generator stream holds the blocks left to right; for the complex
    ensemble the real part of each block is drawn before its imaginary
    part, which pins the stream layout for reproducibility.  The blocks
    are multiplied in the cheapest order, each drawn at the step that
    consumes it, and the product is scaled once.  A block whose stream
    slot comes before one a step needs is passed over (drawn into the
    scratch buffer and discarded) and drawn again from its saved state at
    its own step, so ``rng`` ends where drawing every block in turn leaves
    it.
    """
    if ensemble not in _ENSEMBLES:
        raise ValueError(f"ensemble must be one of {_ENSEMBLES}, got {ensemble!r}")
    dims = profile.realized
    shapes = list(zip(dims, dims[1:]))
    scratch = np.empty(_SCRATCH_NORMALS)
    passed = {}  # block index -> generator state at its stream slot
    fresh = 0  # the first block the stream has not reached

    def block(j: int) -> np.ndarray:
        nonlocal fresh
        if j in passed:
            source = np.random.Generator(type(rng.bit_generator)(0))  # seed replaced next
            source.bit_generator.state = passed.pop(j)
            return _draw_block(source, shapes[j], ensemble, scratch)
        for skipped in range(fresh, j):
            passed[skipped] = rng.bit_generator.state
            count = (2 if ensemble == "complex" else 1) * math.prod(shapes[skipped])
            for _ in _normals(rng, count, scratch):
                pass
        fresh = j + 1
        return _draw_block(rng, shapes[j], ensemble, scratch)

    partial = {}  # (i, j) -> product of blocks i..j, waiting for a later step

    def operand(i: int, j: int) -> np.ndarray:
        return block(i) if i == j else partial.pop((i, j))

    for i, s, j in _chain_steps(dims):
        partial[i, j] = operand(i, s) @ operand(s + 1, j)
    product = operand(0, profile.p - 1)
    product /= math.sqrt(2 * profile.n if ensemble == "complex" else profile.n) ** profile.p
    return product


def trace_moments(product: np.ndarray, profile: DimensionProfile, k_max: int) -> np.ndarray:
    """Normalized trace moments (1/N_0) Tr (B B*)^k for k = 1..k_max.

    Powers are taken of the smaller Gram matrix G of B, which has the
    same nonzero spectrum as the larger one.  G is Hermitian, so
    Tr G^k = <G^floor(k/2), G^ceil(k/2)>, and only G^1..G^ceil(k_max/2)
    are formed, two at a time.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    rows, cols = product.shape
    adjoint = product.conj().T
    gram = (adjoint @ product) if cols <= rows else (product @ adjoint)
    traces = np.empty(k_max)
    traces[0] = np.trace(gram).real
    low = high = gram  # G^floor(k/2) and G^ceil(k/2)
    for k in range(2, k_max + 1):
        if k % 2:
            high = low @ gram
        else:
            low = high
        traces[k - 1] = np.vdot(low, high).real
    return traces / profile.realized[0]


def _one_trial(config: McConfig, trial: int) -> np.ndarray:
    rng = np.random.default_rng([config.seed, trial])
    product = sample_product(config.profile, rng, config.ensemble)
    return trace_moments(product, config.profile, config.k_max)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads one BLAS call takes, read as the BLAS libraries read it.

    The first of ``_BLAS_THREAD_VARIABLES`` set to a positive count, else
    every usable CPU, the OpenBLAS and MKL default.
    """
    for name in _BLAS_THREAD_VARIABLES:
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return _usable_cpus()


def _workers(config: McConfig) -> int:
    """How many trials run at once.

    At most the CPUs that BLAS leaves free, the trials, and the trials
    whose estimates fit in ``MAX_INFLIGHT_BYTES``, and at least one.  The
    estimate counts only the largest chain step or the trace, since each
    block is drawn at the step that uses it: the 4-factor chain
    (1, 2, 1, 1/2) at n = 500 estimates 13.5 MiB, so two of its trials
    fit.
    Trials share the usable CPUs with the threads of their BLAS calls, so
    with BLAS on every CPU (its default) they run one at a time: a second
    trial beside a multi-threaded matrix product only slows both.
    """
    cpus = max(1, _usable_cpus() // _blas_threads())
    per_trial = _trial_bytes(config.profile.realized)
    return min(cpus, config.trials, max(1, MAX_INFLIGHT_BYTES // per_trial))


def run_experiment(config: McConfig) -> McResult:
    """Run all trials of a configuration and aggregate the moment statistics.

    Trials run on a thread pool of ``_workers(config)`` threads, each on
    its own seeded generator.  Rows are stored by trial index and means
    are taken along the trial axis afterwards, so the result is a pure
    function of the configuration, whatever the number of threads.  The
    estimated bytes in flight stay within ``MAX_INFLIGHT_BYTES``, or one
    trial's estimate when that is larger.  If a trial raises, the queued
    trials are cancelled, the running ones finish, and the error is
    re-raised after every pool thread has exited.
    """
    with ThreadPoolExecutor(_workers(config)) as pool:
        # map yields in trial order; an error cancels the trials not yet started
        per_trial = np.array(list(pool.map(partial(_one_trial, config), range(config.trials))))

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
