"""Tests for the Gaussian-product Monte Carlo layer.

Statistical assertions here run tiny configurations with fixed seeds;
the full-size gate lives in the acceptance suite.
"""

import json
import math
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fussnarayana.exact import limit_moment_poly
from fussnarayana.rmt import (
    DimensionProfile,
    McConfig,
    McResult,
    MomentStat,
    _TRIAL_OVERHEAD_BYTES,
    _chain_steps,
    _one_trial,
    _trial_bytes,
    _workers,
    run_experiment,
    sample_product,
    trace_moments,
)


def small_config(**overrides):
    base = dict(
        profile=DimensionProfile.from_targets((1.0, 1.5, 0.5), 40),
        k_max=3,
        trials=30,
        seed=11,
        ensemble="complex",
    )
    base.update(overrides)
    return McConfig(**base)


def test_dimension_profile_rounding():
    profile = DimensionProfile.from_targets((1.0, 1.5, 0.5), 3)
    assert profile.realized == (3, 5, 2)          # 4.5 rounds half up to 5
    assert profile.p == 2
    assert DimensionProfile.from_targets((0.001, 1.0), 10).realized == (1, 10)
    with pytest.raises(ValueError):
        DimensionProfile.from_targets((1.0,), 10)
    with pytest.raises(ValueError):
        DimensionProfile.from_targets((1.0, -2.0), 10)
    with pytest.raises(ValueError):
        DimensionProfile.from_targets((1.0, 1.0), 0)
    with pytest.raises(ValueError):
        DimensionProfile.from_targets((1.0, 5000.0), 100)


def test_trial_memory_cap():
    overhead = _TRIAL_OVERHEAD_BYTES
    # the trace phase: the 100 x 500000 product (the block itself) and its
    # conj() copy, then the 100 x 100 Gram matrix and two of its powers
    assert _trial_bytes((100, 500_000)) == 16 * (2 * 50_000_000 + 3 * 10_000) + overhead
    # the 20000 x 20000 product, its copy, Gram matrix and two powers take 32 GB
    with pytest.raises(ValueError, match=r"estimated 32000065536 bytes .* cap of 1073741824 bytes"):
        DimensionProfile.from_targets((1.0, 1.0), 20_000)
    assert _trial_bytes((300, 300)) == 16 * 5 * 90_000 + overhead
    # sampling: blocks 300x450 and 450x150, draw temporary 300x450, intermediate 300x150
    assert _trial_bytes((300, 450, 150)) == 16 * 202_500 + 8 * 135_000 + 16 * 45_000 + overhead
    # the intermediates are those of the cheapest order, 1x1 then 400x1:
    # the 400x400 (400x1)(1x400) is never formed
    assert _trial_bytes((400, 1, 400, 1)) == 16 * 1200 + 8 * 400 + 16 * 401 + overhead


def _traced_peak(config):
    _one_trial(config, 0)  # first-call allocations are not the trial's
    tracemalloc.start()
    try:
        _one_trial(config, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ensemble", ["complex", "real"])
@pytest.mark.parametrize("d", [
    (1.0, 1.0), (1.0, 3.0), (3.0, 1.0),
    (1.0, 1.5, 0.5), (0.5, 1.5, 1.0),
    (1.0, 2.0, 1.0, 0.5), (0.5, 1.0, 2.0, 1.0),
])
def test_trial_bytes_bound_the_traced_peak(d, ensemble):
    # both Gram sides at p = 1..3; every order up to 9 holds the Gram matrix
    # and two of its powers at the end, the square p = 1 case most of all
    profile = DimensionProfile.from_targets(d, 100)
    for k_max in range(1, 10):
        config = McConfig(profile=profile, k_max=k_max, trials=2, seed=3, ensemble=ensemble)
        assert _traced_peak(config) <= _trial_bytes(profile.realized), k_max


def _chain_cost(dims, steps):
    return sum(dims[i] * dims[s + 1] * dims[j + 1] for i, s, j in steps)


def _all_orders(i, j):
    """Every parenthesization of blocks i..j, as step lists in evaluation order."""
    if i == j:
        yield []
        return
    for s in range(i, j):
        for left in _all_orders(i, s):
            for right in _all_orders(s + 1, j):
                yield left + right + [(i, s, j)]


def test_chain_order_is_the_cheapest():
    # left to right costs 312.5 M multiply-adds, A1 (A2 A3) 250 M
    assert _chain_steps((500, 1000, 500, 250)) == [(1, 1, 2), (0, 0, 2)]
    assert _chain_cost((500, 1000, 500, 250), [(1, 1, 2), (0, 0, 2)]) == 250_000_000
    assert _chain_steps((300, 450, 150)) == [(0, 0, 1)]
    assert _chain_steps((7, 3)) == []
    # ties keep the left-to-right order
    assert _chain_steps((4, 4, 4, 4, 4)) == [(0, 0, 1), (0, 1, 2), (0, 2, 3)]
    rng = np.random.default_rng(2)
    for p in range(2, 7):
        for _ in range(20):
            dims = tuple(int(x) for x in rng.integers(1, 30, size=p + 1))
            steps = _chain_steps(dims)
            assert sorted(steps) == sorted(set(steps)) and len(steps) == p - 1
            best = min(_chain_cost(dims, order) for order in _all_orders(0, p - 1))
            assert _chain_cost(dims, steps) == best, dims


def _left_to_right_product(profile, rng, ensemble):
    # the draw-and-multiply recipe the generator stream was pinned with
    n = profile.n
    dims = profile.realized
    product = None
    for shape in zip(dims, dims[1:]):
        if ensemble == "complex":
            block = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2 * n)
        else:
            block = rng.standard_normal(shape) / math.sqrt(n)
        product = block if product is None else product @ block
    return product


@pytest.mark.parametrize("ensemble", ["complex", "real"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_sample_product_keeps_the_generator_stream(p, ensemble):
    # (1, 2, 1, 0.5) at p = 3 is multiplied as A1 (A2 A3), not left to right
    profile = DimensionProfile.from_targets((1.0, 2.0, 1.0, 0.5)[: p + 1], 30)
    if p == 3:
        assert _chain_steps(profile.realized) == [(1, 1, 2), (0, 0, 2)]
    for trial in range(3):
        rng = np.random.default_rng([5, trial])
        recipe_rng = np.random.default_rng([5, trial])
        product = sample_product(profile, rng, ensemble)
        expected = _left_to_right_product(profile, recipe_rng, ensemble)
        assert product.dtype == expected.dtype
        # 1e-12 relative to the largest entry: an entry whose terms cancel
        # keeps only the absolute accuracy of the larger terms
        scale = np.abs(expected).max()
        np.testing.assert_allclose(product, expected, rtol=1e-12, atol=1e-12 * scale)
        assert rng.bit_generator.state == recipe_rng.bit_generator.state


@pytest.mark.parametrize("ensemble", ["complex", "real"])
@pytest.mark.parametrize("d", [(1.0, 1.5, 0.6), (0.6, 1.5, 1.0)])
def test_paired_trace_powers_match_the_power_loop(d, ensemble):
    # (1.0, 1.5, 0.6) takes B* B (cols <= rows), (0.6, 1.5, 1.0) takes B B*
    profile = DimensionProfile.from_targets(d, 20)
    product = sample_product(profile, np.random.default_rng(4), ensemble)
    rows, cols = product.shape
    adjoint = product.conj().T
    gram = (adjoint @ product) if cols <= rows else (product @ adjoint)
    for k_max in range(1, 10):
        naive = np.empty(k_max)
        power = gram
        for k in range(k_max):
            naive[k] = np.trace(power).real / rows
            power = power @ gram
        np.testing.assert_allclose(trace_moments(product, profile, k_max), naive, rtol=1e-12, atol=0)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(trials=1)
    with pytest.raises(ValueError):
        small_config(k_max=0)
    with pytest.raises(ValueError):
        small_config(ensemble="quaternion")
    with pytest.raises(ValueError, match="seed"):
        small_config(seed=-1)


def test_sample_product_shapes_and_dtype():
    profile = DimensionProfile.from_targets((1.0, 1.5, 0.5), 20)
    rng = np.random.default_rng(0)
    complex_product = sample_product(profile, rng, "complex")
    assert complex_product.shape == (20, 10)
    assert np.iscomplexobj(complex_product)
    real_product = sample_product(profile, np.random.default_rng(0), "real")
    assert real_product.shape == (20, 10)
    assert not np.iscomplexobj(real_product)
    with pytest.raises(ValueError):
        sample_product(profile, rng, "ginibre")


@pytest.mark.parametrize("ensemble", ["complex", "real"])
def test_trace_identity_both_gram_sides(ensemble):
    # (1/N0) Tr (B B*)^k must agree with the B* B route to 1e-9 relative
    profile = DimensionProfile.from_targets((1.0, 0.7, 1.3), 25)
    for trial in range(5):
        rng = np.random.default_rng([3, trial])
        product = sample_product(profile, rng, ensemble)
        adjoint = product.conj().T
        small = trace_moments(product, profile, 4)
        big = np.empty(4)
        gram_big = product @ adjoint
        power = gram_big
        for k in range(1, 5):
            big[k - 1] = np.trace(power).real / profile.realized[0]
            power = power @ gram_big
        assert np.allclose(small, big, rtol=1e-9, atol=0.0)


def test_one_by_one_product_moments_are_powers():
    # with every block 1 x 1 the product is a scalar x and the k-th
    # moment is |x|^(2k) on the nose
    profile = DimensionProfile.from_targets((1.0, 1.0), 1)
    assert profile.realized == (1, 1)
    rng = np.random.default_rng(9)
    product = sample_product(profile, rng, "complex")
    assert product.shape == (1, 1)
    x = product[0, 0]
    moments = trace_moments(product, profile, 5)
    expected = [abs(x) ** (2 * k) for k in range(1, 6)]
    assert np.allclose(moments, expected, rtol=1e-12, atol=0.0)


def test_first_moment_unbiased_at_finite_size():
    # E (1/N0) Tr B B* equals prod_j N_j / n exactly; check within 3 SE
    config = small_config(k_max=1, trials=300, seed=5)
    result = run_experiment(config)
    realized = config.profile.realized
    n = config.profile.n
    finite_expectation = math.prod(realized[1:]) / n ** config.profile.p
    stat = result.moments[0]
    assert abs(stat.mean - finite_expectation) <= 3 * stat.se


def test_experiment_is_deterministic_and_order_insensitive():
    config = small_config()
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.to_json_text() == second.to_json_text()
    assert first.to_csv_text() == second.to_csv_text()


def _pinned_cpus(monkeypatch, cpus, blas_threads="1"):
    monkeypatch.setattr("fussnarayana.rmt._usable_cpus", lambda: cpus)
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)


@pytest.mark.parametrize("ensemble", ["complex", "real"])
@pytest.mark.parametrize("d", [(1.0, 2.0), (1.0, 1.5, 0.5), (1.0, 2.0, 1.0, 0.5)])
def test_pooled_output_matches_a_serial_loop(monkeypatch, d, ensemble):
    config = small_config(profile=DimensionProfile.from_targets(d, 30), k_max=4, ensemble=ensemble)
    texts = []
    for cpus in (1, 4):
        _pinned_cpus(monkeypatch, cpus)
        assert _workers(config) == cpus
        result = run_experiment(config)
        texts.append((result.to_json_text(), result.to_csv_text()))
    assert texts[0] == texts[1]
    rows = np.array([_one_trial(config, t) for t in range(config.trials)])
    ses = rows.std(axis=0, ddof=1) / math.sqrt(config.trials)
    assert [m.mean for m in result.moments] == rows.mean(axis=0).tolist()
    assert [m.se for m in result.moments] == ses.tolist()


def test_worker_count_follows_cpus_trials_and_the_inflight_budget(monkeypatch):
    chain = small_config(profile=DimensionProfile.from_targets((1.0, 2.0, 1.0, 0.5), 500))
    gate = small_config(profile=DimensionProfile.from_targets((1.0, 1.5, 0.5), 300), trials=200)
    for cpus in (1, 2, 4):
        _pinned_cpus(monkeypatch, cpus)
        # a 28 MB chain trial leaves no room for a second in the 32 MiB budget
        assert _workers(chain) == 1
        # a 5 MB gate trial fits six times
        assert _workers(gate) == min(cpus, 6)
        assert _workers(small_config(trials=2)) == min(cpus, 2)
    # trials share the CPUs with their BLAS threads: every CPU by default
    for blas_threads, workers in ((None, 1), ("4", 1), ("2", 2), ("0", 1), ("x", 1)):
        _pinned_cpus(monkeypatch, 4, blas_threads)
        assert _workers(gate) == workers, blas_threads
    _pinned_cpus(monkeypatch, 4, None)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert _workers(gate) == 4


def test_a_failing_trial_cancels_the_queue_and_leaves_no_thread(monkeypatch):
    _pinned_cpus(monkeypatch, 4)
    started = []

    def failing_trial(config, trial):
        started.append(trial)
        time.sleep(0.02)
        if trial == 3:
            raise RuntimeError("trial 3 failed")
        return np.zeros(config.k_max)

    monkeypatch.setattr("fussnarayana.rmt._one_trial", failing_trial)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="trial 3 failed"):
        run_experiment(small_config(trials=50))
    assert 3 in started and len(started) < 50
    assert threading.active_count() == threads_before


def test_different_seeds_differ():
    a = run_experiment(small_config(seed=1))
    b = run_experiment(small_config(seed=2))
    assert a.to_json_text() != b.to_json_text()


def test_result_serializations():
    result = run_experiment(small_config(trials=5, k_max=2))
    doc = json.loads(result.to_json_text())
    assert doc["config"]["p"] == 2
    assert doc["config"]["d"] == [1.0, 1.5, 0.5]
    assert doc["config"]["n"] == 40
    assert doc["config"]["realized"] == [40, 60, 20]
    assert doc["config"]["ensemble"] == "complex"
    assert [row["k"] for row in doc["moments"]] == [1, 2]
    for row in doc["moments"]:
        for field in ("mean", "se", "target", "z"):
            assert isinstance(row[field], (int, float))
    csv_lines = result.to_csv_text().strip().splitlines()
    assert csv_lines[0] == "k,mean,se,target,z"
    assert len(csv_lines) == 3
    # 12 significant digits in both formats
    mean_text = csv_lines[1].split(",")[1]
    assert float(mean_text) == pytest.approx(result.moments[0].mean, rel=1e-11)


def test_non_finite_values_serialize_as_json_null():
    # run_experiment sets z = inf when a moment has zero spread but misses its target
    stats = (
        MomentStat(k=1, mean=1.5, se=0.0, target=1.0, z=math.inf),
        MomentStat(k=2, mean=math.nan, se=0.25, target=2.0, z=-math.inf),
    )
    text = McResult(config=small_config(k_max=2), moments=stats).to_json_text()
    rows = json.loads(text)["moments"]
    assert rows[0] == {"k": 1, "mean": 1.5, "se": 0, "target": 1, "z": None}
    assert rows[1] == {"k": 2, "mean": None, "se": 0.25, "target": 2, "z": None}
    assert '"mean": 1.5, "se": 0, "target": 1, "z": null}' in text


def test_targets_are_the_moment_polynomials():
    result = run_experiment(small_config(trials=2, k_max=3))
    assert result.moments[0].target == pytest.approx(0.75)
    assert result.moments[1].target == pytest.approx(2.0625)
    assert result.moments[2].target == pytest.approx(7.359375)



def test_targets_are_correctly_rounded_at_non_dyadic_ratios():
    # 0.1 is not a binary fraction: a float sum of the terms rounds each
    # partial sum, while the target is the exact value rounded once
    d = (1.0, 0.1)
    result = run_experiment(McConfig(
        profile=DimensionProfile.from_targets(d, 10), k_max=5, trials=2, seed=1,
    ))
    for stat in result.moments:
        exact = limit_moment_poly(1, stat.k).evaluate([Fraction(x) for x in d])
        assert stat.target == float(exact), stat.k


def test_complex_ensemble_is_near_target_at_moderate_size():
    # small but real gate: complex entries have no O(1/n) offset
    config = McConfig(
        profile=DimensionProfile.from_targets((1.0, 1.0), 60),
        k_max=2, trials=100, seed=3, ensemble="complex",
    )
    result = run_experiment(config)
    for stat in result.moments:
        assert abs(stat.z) <= 4.0, stat
