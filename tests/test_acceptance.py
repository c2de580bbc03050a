"""End-to-end acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line with the measured quantity so the
run log doubles as a short report.  The statistical criteria (2, 3, 7) use
frozen master seeds; their tolerance bands were sized to admit ordinary
Monte Carlo fluctuation of the rate estimator at 100 trajectories.
"""
import io
import math
import time

import numpy as np
import pytest

from fracspde import cq, fbm, mlf, solver
from fracspde.experiments import (
    ExperimentConfig,
    emit_table,
    predict_rates,
    run_convergence_study,
)
from fracspde.solver import ModelParams
from oracles import increment_covariance_matrix, sample_fbm_cholesky, weights_by_series


def _report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. theoretical rates: 36 tabulated values, exact to 3 decimals

# (hurst, m, alpha, s, axis, expected rate)
RATE_TABLE = [
    # temporal, H=0.3
    (0.3, 0.0, 0.3, 0.7, "time", 0.193),
    (0.3, 0.0, 0.5, 0.7, "time", 0.121),
    (0.3, -0.5, 0.3, 0.4, "time", 0.206),
    (0.3, -0.5, 0.3, 0.5, "time", 0.225),
    (0.3, -1.0, 0.3, 0.7, "time", 0.3),
    (0.3, -1.0, 0.5, 0.7, "time", 0.3),
    # temporal, H=0.5
    (0.5, 0.0, 0.5, 0.7, "time", 0.321),
    (0.5, 0.0, 0.6, 0.7, "time", 0.286),
    (0.5, -0.5, 0.3, 0.5, "time", 0.425),
    (0.5, -0.5, 0.5, 0.5, "time", 0.375),
    (0.5, -1.0, 0.3, 0.4, "time", 0.5),
    (0.5, -1.0, 0.3, 0.7, "time", 0.5),
    # temporal, H=0.8
    (0.8, 0.0, 0.5, 0.7, "time", 0.621),
    (0.8, 0.0, 0.6, 0.7, "time", 0.586),
    (0.8, -0.5, 0.3, 0.5, "time", 0.725),
    (0.8, -0.5, 0.5, 0.5, "time", 0.675),
    (0.8, -1.0, 0.3, 0.7, "time", 0.8),
    (0.8, -1.0, 0.5, 0.5, "time", 0.8),
    # spatial, H=0.3
    (0.3, 0.0, 0.3, 0.7, "space", 0.9),
    (0.3, 0.0, 0.6, 0.7, "space", 0.2),
    (0.3, -0.5, 0.3, 0.4, "space", 0.55),
    (0.3, -0.5, 0.3, 0.7, "space", 1.15),
    (0.3, -1.0, 0.3, 0.4, "space", 0.8),
    (0.3, -1.0, 0.3, 0.7, "space", 1.4),
    # spatial, H=0.5
    (0.5, 0.0, 0.3, 0.7, "space", 0.900),
    (0.5, 0.0, 0.6, 0.7, "space", 0.667),
    (0.5, -0.5, 0.3, 0.4, "space", 0.550),
    (0.5, -0.5, 0.6, 0.4, "space", 0.417),
    (0.5, -1.0, 0.3, 0.4, "space", 0.800),
    (0.5, -1.0, 0.6, 0.4, "space", 0.667),
    # spatial, H=0.8
    (0.8, 0.0, 0.3, 0.4, "space", 0.3),
    (0.8, 0.0, 0.3, 0.7, "space", 0.9),
    (0.8, -0.5, 0.3, 0.4, "space", 0.55),
    (0.8, -0.5, 0.6, 0.7, "space", 1.15),
    (0.8, -1.0, 0.6, 0.4, "space", 0.8),
    (0.8, -1.0, 0.6, 0.7, "space", 1.4),
]


def test_criterion_1_rate_formulas():
    t0 = time.perf_counter()
    worst = 0.0
    for hurst, m, alpha, s, axis, expected in RATE_TABLE:
        pred = predict_rates(ModelParams(alpha=alpha, s=s, hurst=hurst, m=m))
        got = pred.temporal if axis == "time" else pred.spatial
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) < 5.0005e-4, (
            f"(H={hurst}, m={m}, a={alpha}, s={s}, {axis}): "
            f"predicted {got:.6f}, tabulated {expected}")
    elapsed = time.perf_counter() - t0
    _report("criterion 1 (rate formulas)", elapsed < 1.0,
            f"36/36 match to 3 decimals, worst dev {worst:.1e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2 & 7. temporal convergence at desk scale + bit reproducibility

TEMPORAL_CONFIG = ExperimentConfig(
    alpha=0.3, s=0.7, hurst=0.8, m=-1.0, t_final=0.01, axis="time",
    levels=(32, 64, 128, 256), fixed_other=100, n_traj=100, seed=101)


def _csv_bytes(result):
    buf = io.StringIO()
    emit_table(result, buf)
    return buf.getvalue().encode()


@pytest.fixture(scope="module")
def temporal_study():
    result = run_convergence_study(TEMPORAL_CONFIG)
    return result, _csv_bytes(result)


def test_criterion_2_temporal_convergence(temporal_study):
    result, _ = temporal_study
    rates = [row.observed_rate for row in result.rows if row.observed_rate
             is not None]
    observed = 0.5 * (rates[-1] + rates[-2])
    ok = abs(observed - 0.8) <= 0.25
    _report("criterion 2 (temporal rate)", ok,
            f"two-finest-pairs rate {observed:.3f}, target 0.8 +/- 0.25")


def test_criterion_7_reproducibility(temporal_study):
    _, first = temporal_study
    second = _csv_bytes(run_convergence_study(TEMPORAL_CONFIG))
    _report("criterion 7 (reproducibility)", first == second,
            f"rerun CSV identical: {first == second}, {len(first)} bytes")


# ---------------------------------------------------------------------------
# 3. spatial convergence


def test_criterion_3_spatial_convergence():
    config = ExperimentConfig(
        alpha=0.3, s=0.7, hurst=0.3, m=-1.0, t_final=0.01, axis="space",
        levels=(8, 16, 32, 64), fixed_other=2048, n_traj=100, seed=202)
    result = run_convergence_study(config)
    rates = [row.observed_rate for row in result.rows if row.observed_rate
             is not None]
    observed = 0.5 * (rates[-1] + rates[-2])
    ok = abs(observed - 1.4) <= 0.35
    _report("criterion 3 (spatial rate)", ok,
            f"two-finest-pairs rate {observed:.3f}, target 1.4 +/- 0.35")


# ---------------------------------------------------------------------------
# 4. deterministic scalar solver order vs the relaxation-function reference


def test_criterion_4_scalar_solver_order():
    t_final, lam_s = 1.0, np.array([1.0])
    orders = {}
    for alpha in (0.3, 0.5, 0.7):
        ref = mlf.linear_mode_reference(1.0, alpha, 1.0, t_final)
        errors = []
        for k in range(6, 11):                     # tau = 2^-6 .. 2^-10
            n_steps = 2 ** k
            tau = t_final / n_steps
            weights = cq.cq_weights(1.0 - alpha, tau, n_steps)
            history = np.zeros((n_steps + 1, 1))
            for n in range(1, n_steps + 1):
                history[n] = solver.step(history[:n], weights, lam_s, tau,
                                         1.0, 0.0)
            errors.append(abs(history[-1, 0] - ref))
        ratios = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        orders[alpha] = float(ratios.mean())
    ok = all(0.85 <= o <= 1.15 for o in orders.values())
    detail = ", ".join(f"alpha={a}: {o:.3f}" for a, o in orders.items())
    _report("criterion 4 (scalar order)", ok, detail)


# ---------------------------------------------------------------------------
# 5. fBm increment covariance, both samplers through the same check


def _covariance_deviation(sampler, hurst, n_steps, n_paths, seed):
    exact = increment_covariance_matrix(hurst, 1.0, n_steps)
    se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact ** 2)
                 / n_paths)
    x = sampler(hurst, 1.0, n_steps, np.random.default_rng(seed), n_paths)
    sample = x.T @ x / n_paths
    return float(np.max(np.abs(sample - exact) / se))


def test_criterion_5_fbm_covariance():
    t0 = time.perf_counter()
    n_steps, n_paths = 64, 100_000
    devs = {}
    for hurst in (0.3, 0.5, 0.8):
        for sampler in (sample_fbm_cholesky, fbm.sample_fbm_circulant):
            key = f"{sampler.__name__.split('_')[-1]}/H={hurst}"
            devs[key] = _covariance_deviation(sampler, hurst, n_steps,
                                              n_paths, seed=300)
    elapsed = time.perf_counter() - t0
    worst = max(devs.values())
    ok = worst < 5.0 and elapsed < 60.0
    _report("criterion 5 (fbm covariance)", ok,
            f"worst entry deviation {worst:.2f} SE over {sorted(devs)}, "
            f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. CQ weights against the power-series oracle


def test_criterion_6_cq_weights():
    t0 = time.perf_counter()
    worst = 0.0
    tau = 0.01
    for alpha in np.arange(0.1, 0.95, 0.1):
        a = 1.0 - float(alpha)
        fast = cq.cq_weights(a, tau, 65)
        oracle = weights_by_series(a, tau, 65)
        worst = max(worst, float(np.max(np.abs(fast - oracle)
                                        / np.abs(oracle))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-13 and elapsed < 1.0
    _report("criterion 6 (cq weights)", ok,
            f"worst relative deviation {worst:.2e}, {elapsed:.2f}s")
