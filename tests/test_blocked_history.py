"""The blocked CQ history sums against independent oracles.

Both paths sum each step's history in two parts: the sums over the states
before its 16-step block from ``solver._far_history_sums`` (GEMM panels of
at most 256 states), and the block itself with the einsum of
``solver.step``.  These tests pick step counts on both sides of the block
(16) and panel (256) edges, and check that a path's bits do not depend on
the batch it runs in.
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


def _blas_threads_setter():
    functions = experiments._openblas_thread_functions()
    if functions is None:
        pytest.skip("numpy's BLAS does not export openblas_set_num_threads")
    return functions


def _dense_history_sums(states, weights):
    """Row n-1 is sum_{j=1}^{n-1} d_{n-j} u^j, for n = 1..L."""
    n_steps = states.shape[0] - 1
    lags = np.arange(1, n_steps + 1)[:, None] - np.arange(1, n_steps + 1)
    toeplitz = np.where(lags >= 1, weights[np.clip(lags, 0, None)], 0.0)
    return toeplitz @ states[1:].reshape(n_steps, -1)


@pytest.mark.parametrize("n_steps", EDGE_STEPS + [512, 530])
def test_blocked_sums_match_the_dense_toeplitz_product(n_steps):
    # the far sums before each block plus step's einsum over the block
    rng = np.random.default_rng(n_steps)
    weights = cq.cq_weights(0.7, 0.01 / n_steps, n_steps)
    states = rng.standard_normal((n_steps + 1, 3, 5))
    got = np.array([far + cq.apply_cq_history(weights[1:], states[n - (n - 1) % solver._BLOCK:n])
                    for n, far in enumerate(solver._far_history_sums(states[1:], weights), 1)])
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
        next(solver._far_history_sums(states, weights))


@pytest.mark.parametrize("nonlinearity", ["sin", "zero"])
@pytest.mark.parametrize("n_steps", EDGE_STEPS)
def test_ensemble_rows_match_trajectory_runs(nonlinearity, n_steps):
    params = _params(nonlinearity=nonlinearity)
    disc = Discretization(n_modes=6, n_steps=n_steps, tau=0.01 / n_steps)
    inc = fbm.mode_increments(params.hurst, disc.tau, n_steps, 3, 6, range(4))
    batch = solver.run_ensemble(params, disc, inc)
    for i in range(4):
        single = solver.run_trajectory(params, disc, inc[:, i])[-1]
        np.testing.assert_array_equal(batch[i], single)


@pytest.mark.parametrize("nonlinearity", ["sin", "zero"])
@pytest.mark.parametrize(("n_modes", "n_steps"), [(5, 300), (17, 40)])
def test_a_path_has_the_same_bits_in_every_batch(n_modes, n_steps, nonlinearity):
    # flat widths n_traj * N on both sides of the 8-column pad, step counts
    # across the 16-step block, and 300 steps across the 256-state panel
    get_threads, set_threads = _blas_threads_setter()
    params = _params(nonlinearity=nonlinearity)
    disc = Discretization(n_modes=n_modes, n_steps=n_steps, tau=0.01 / n_steps)
    inc = fbm.mode_increments(params.hurst, disc.tau, n_steps, 5, n_modes, range(9))
    before = get_threads()
    try:
        for threads in (1, 2):
            set_threads(threads)
            full = solver.run_ensemble(params, disc, inc)
            for width in (1, 2, 3, 5, 8):
                for lo in (0, 9 - width):
                    np.testing.assert_array_equal(
                        solver.run_ensemble(params, disc, inc[:, lo:lo + width]),
                        full[lo:lo + width], err_msg=f"{threads} threads, rows {lo}+{width}")
            for i in range(9):
                np.testing.assert_array_equal(
                    solver.run_trajectory(params, disc, inc[:, i])[-1], full[i],
                    err_msg=f"{threads} threads, path {i}")
    finally:
        set_threads(before)


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


@pytest.mark.parametrize("n_modes", [3, 13])
@pytest.mark.parametrize("n_steps", [17, 257, 300, 530])
def test_linear_trajectory_matches_dense_triangular_oracle(n_steps, n_modes):
    # 13 modes are one GEMM column block of 8 and a padded remainder of 5
    params = _params(alpha=0.6, s=0.5, m=-1.0, nonlinearity="zero")
    tau = 0.01 / n_steps
    weights = cq.cq_weights(1.0 - params.alpha, tau, n_steps)
    lam_s = spectral.eigenvalues(n_modes) ** params.s
    amp = np.arange(1, n_modes + 1, dtype=float) ** (0.5 * params.m)
    inc = np.random.default_rng(n_steps + n_modes).standard_normal((n_steps, n_modes))
    states = solver.run_trajectory(params, Discretization(n_modes, n_steps, tau), inc)

    lags = np.subtract.outer(np.arange(n_steps), np.arange(n_steps))
    for k in range(n_modes):
        a_mat = np.where(lags >= 0, lam_s[k] * weights[np.clip(lags, 0, None)], 0.0)
        a_mat += np.diag(np.full(n_steps, 1.0 / tau))
        a_mat -= np.diag(np.full(n_steps - 1, 1.0 / tau), -1)
        dense = solve_triangular(a_mat, amp[k] * inc[:, k] / tau, lower=True)
        np.testing.assert_allclose(states[-1, k], dense[-1], rtol=1e-12)
        # every level, to 1e-12 of the mode's largest: near a zero crossing
        # the oracle's own solve keeps fewer digits
        assert np.all(np.abs(states[1:, k] - dense) <= 1e-12 * np.abs(dense).max())


@pytest.mark.parametrize("n_steps", [17, 40, 300, 600])
def test_linear_trajectory_modes_do_not_depend_on_the_mode_count(n_steps):
    # mode k of a linear run is one scalar recurrence; the far sums' GEMMs
    # must give its column the same bits whatever the column count
    params = _params(nonlinearity="zero")
    tau = 0.01 / n_steps
    inc = np.random.default_rng(n_steps).standard_normal((n_steps, 20))
    joint = solver.run_trajectory(params, Discretization(20, n_steps, tau), inc)
    for n_modes in range(1, 20):
        part = solver.run_trajectory(params, Discretization(n_modes, n_steps, tau),
                                     inc[:, :n_modes])
        np.testing.assert_array_equal(part, joint[:, :n_modes], err_msg=f"N={n_modes}")


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


@pytest.mark.parametrize("n_modes", [13, 128])
@pytest.mark.parametrize("n_steps", [1024, 2048])
def test_long_trajectory_does_not_depend_on_blas_threads(n_steps, n_modes):
    get_threads, set_threads = _blas_threads_setter()
    params = _params(hurst=0.3)
    disc = Discretization(n_modes=n_modes, n_steps=n_steps, tau=0.01 / n_steps)
    inc = fbm.mode_increments(params.hurst, disc.tau, n_steps, 11, n_modes, [0])[:, 0]
    before = get_threads()
    try:
        runs = []
        for threads in (1, 2, 8):
            set_threads(threads)
            runs.append(solver.run_trajectory(params, disc, inc).tobytes())
    finally:
        set_threads(before)
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
