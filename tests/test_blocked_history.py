"""The batch's blocked CQ history sum against independent oracles.

``solver.run_ensemble`` sums each step's history in blocks: GEMM panels
over the states before a block, then a gemv over the block's own states.
These tests pick step counts on both sides of the block (16) and panel
(256) edges.
"""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from fracspde import cq, experiments, fbm, solver, spectral
from fracspde.solver import Discretization, ModelParams

EDGE_STEPS = [1, 15, 16, 17, 33, 257, 300]


def _params(**kw):
    base = dict(alpha=0.3, s=0.7, hurst=0.8, m=-1.0, t_final=0.01,
                nonlinearity="sin")
    base.update(kw)
    return ModelParams(**base)


def _dense_history_sums(states, weights):
    """Row n-1 is sum_{j=1}^{n-1} d_{n-j} u^j, for n = 1..L."""
    n_steps = states.shape[0] - 1
    lags = np.arange(1, n_steps + 1)[:, None] - np.arange(1, n_steps + 1)
    toeplitz = np.where(lags >= 1, weights[np.clip(lags, 0, None)], 0.0)
    return toeplitz @ states[1:].reshape(n_steps, -1)


@pytest.mark.parametrize("n_steps", EDGE_STEPS + [512, 530])
def test_blocked_sums_match_the_dense_toeplitz_product(n_steps):
    rng = np.random.default_rng(n_steps)
    weights = cq.cq_weights(0.7, 0.01 / n_steps, n_steps)
    states = rng.standard_normal((n_steps + 1, 3, 5))
    got = np.array(list(solver._blocked_history_sums(states[1:], weights)))
    assert got.shape == (n_steps, 3, 5)
    expect = _dense_history_sums(states, weights)
    # relative to the sum of |terms|, since some sums cancel
    scale = np.abs(_dense_history_sums(np.abs(states), np.abs(weights)))
    assert np.all(np.abs(got.reshape(n_steps, -1) - expect) <= 1e-13 * scale)


def test_blocked_sums_refuse_a_buffer_that_is_not_c_contiguous():
    # its (L, n_traj * N) reshape would be a copy, and the sums would read
    # the rows as they were before the stepper filled them
    weights = cq.cq_weights(0.7, 0.01 / 20, 20)
    states = np.moveaxis(np.zeros((3, 20, 5)), 1, 0)
    with pytest.raises(ValueError, match="C-contiguous"):
        next(solver._blocked_history_sums(states, weights))


@pytest.mark.parametrize("nonlinearity", ["sin", "zero"])
@pytest.mark.parametrize("n_steps", EDGE_STEPS)
def test_ensemble_rows_match_trajectory_runs(nonlinearity, n_steps):
    params = _params(nonlinearity=nonlinearity)
    disc = Discretization(n_modes=6, n_steps=n_steps, tau=0.01 / n_steps)
    inc = fbm.mode_increments(params.hurst, disc.tau, n_steps, 3, 6, range(4))
    batch = solver.run_ensemble(params, disc, inc)
    for i in range(4):
        single = solver.run_trajectory(params, disc, inc[:, i])[-1]
        np.testing.assert_allclose(batch[i], single, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n_steps", [17, 257, 300])
def test_linear_ensemble_matches_dense_triangular_oracle(n_steps):
    # without f every (trajectory, mode) pair is one scalar recurrence:
    # assemble its lower-triangular system over all time levels and solve it
    params = _params(alpha=0.6, s=0.5, m=-1.0, nonlinearity="zero")
    n_modes, n_traj, tau = 3, 4, 0.01 / n_steps
    weights = cq.cq_weights(1.0 - params.alpha, tau, n_steps)
    lam_s = spectral.eigenvalues(n_modes) ** params.s
    amp = np.arange(1, n_modes + 1, dtype=float) ** (0.5 * params.m)
    inc = np.random.default_rng(n_steps).standard_normal((n_steps, n_traj, n_modes))
    batch = solver.run_ensemble(params, Discretization(n_modes, n_steps, tau), inc)

    lags = np.subtract.outer(np.arange(n_steps), np.arange(n_steps))
    for k in range(n_modes):
        a_mat = np.where(lags >= 0, lam_s[k] * weights[np.clip(lags, 0, None)], 0.0)
        a_mat += np.diag(np.full(n_steps, 1.0 / tau))
        a_mat -= np.diag(np.full(n_steps - 1, 1.0 / tau), -1)
        dense = solve_triangular(a_mat, amp[k] * inc[:, :, k] / tau, lower=True)
        np.testing.assert_allclose(batch[:, k], dense[-1], rtol=1e-12)


def _blas_threads_setter():
    functions = experiments._openblas_thread_functions()
    if functions is None:
        pytest.skip("numpy's BLAS does not export openblas_set_num_threads")
    return functions


@pytest.mark.parametrize("nonlinearity", ["sin", "zero"])
def test_long_ensemble_does_not_depend_on_blas_threads(nonlinearity):
    # at L=1024 a block's GEMM over all earlier states would reduce over
    # up to 1008 states, and OpenBLAS 0.3 splits so long a reduction
    # differently at 1, 2 and 8 threads; the 256-state panels keep the bits
    get_threads, set_threads = _blas_threads_setter()
    params = _params(hurst=0.3, nonlinearity=nonlinearity)
    n_steps = 1024
    disc = Discretization(n_modes=16, n_steps=n_steps, tau=0.01 / n_steps)
    inc = fbm.mode_increments(params.hurst, disc.tau, n_steps, 11, 16, range(4))
    before = get_threads()
    try:
        finals = []
        for threads in (1, 2, 8):
            set_threads(threads)
            finals.append(solver.run_ensemble(params, disc, inc).tobytes())
    finally:
        set_threads(before)
    assert finals[1] == finals[0]
    assert finals[2] == finals[0]
