import math
import warnings
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from fracspde import cq, fbm, mlf, solver, spectral
from fracspde.solver import Discretization, ModelParams, SolverError


def _params(**kw):
    base = dict(alpha=0.3, s=0.7, hurst=0.8, m=-1.0, t_final=0.01,
                nonlinearity="sin")
    base.update(kw)
    return ModelParams(**base)


def test_params_validation():
    with pytest.raises(ValueError, match="alpha"):
        _params(alpha=1.0)
    with pytest.raises(ValueError, match="hurst"):
        _params(hurst=0.0)
    with pytest.raises(ValueError, match="t_final"):
        _params(t_final=0.0)
    with pytest.raises(ValueError, match="nonlinearity"):
        _params(nonlinearity="cubic")
    # callables are allowed
    _params(nonlinearity=np.tanh)


def test_discretization_validation():
    with pytest.raises(ValueError):
        Discretization(n_modes=0, n_steps=4, tau=0.1)
    with pytest.raises(ValueError):
        Discretization(n_modes=4, n_steps=4, tau=0.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_discretization_rejects_non_finite_tau(tau):
    with pytest.raises(ValueError, match="tau"):
        Discretization(n_modes=4, n_steps=4, tau=tau)


def test_first_step_hand_value():
    # one step with tau=0.1, alpha=0.5, lam^s=1, noise coefficient 1:
    # u1 = 1/(1/tau + d0) = 1/(10 + sqrt(10))
    tau = 0.1
    weights = cq.cq_weights(0.5, tau, 4)
    u1 = solver.step(np.zeros((1, 1)), weights, np.array([1.0]), tau, 0.0,
                     np.array([1.0]))
    assert u1[0] == pytest.approx(1.0 / (10.0 + math.sqrt(10.0)), rel=1e-14)


def test_zero_fixed_point():
    disc = Discretization(n_modes=6, n_steps=10, tau=1e-3)
    zero_inc = np.zeros((10, 6))
    for tag in ("zero", "sin"):     # sin(0)=0, so both stay at rest
        states = solver.run_trajectory(_params(nonlinearity=tag), disc, zero_inc)
        assert states.shape == (11, 6)
        np.testing.assert_array_equal(states, np.zeros_like(states))


def test_rerun_is_bit_identical():
    params = _params()
    disc = Discretization(n_modes=8, n_steps=16, tau=0.01 / 16)
    inc = fbm.mode_increments(params.hurst, disc.tau, 16, 5, 8, [0])[:, 0]
    a = solver.run_trajectory(params, disc, inc)
    b = solver.run_trajectory(params, disc, inc)
    assert a.tobytes() == b.tobytes()


def test_modes_decouple_without_nonlinearity():
    params = _params(nonlinearity="zero")
    n_steps, tau = 12, 0.01 / 12
    rng = np.random.default_rng(2)
    inc = rng.standard_normal((n_steps, 5))
    joint = solver.run_trajectory(params, Discretization(5, n_steps, tau), inc)
    for k in range(5):
        # a single-mode run must reproduce mode k exactly, but mode k of a
        # 1-mode system has eigenvalue lambda_1 — instead run with the
        # first k+1 modes and compare the shared columns
        part = solver.run_trajectory(params, Discretization(k + 1, n_steps, tau),
                                     inc[:, :k + 1])
        np.testing.assert_array_equal(part, joint[:, :k + 1])


def test_linearity_in_noise():
    params = _params(nonlinearity="zero")
    disc = Discretization(n_modes=4, n_steps=9, tau=0.002)
    rng = np.random.default_rng(7)
    inc_a = rng.standard_normal((9, 4))
    inc_b = rng.standard_normal((9, 4))
    ua = solver.run_trajectory(params, disc, inc_a)[-1]
    ub = solver.run_trajectory(params, disc, inc_b)[-1]
    mixed = solver.run_trajectory(params, disc, 0.3 * inc_a - 1.7 * inc_b)[-1]
    np.testing.assert_allclose(mixed, 0.3 * ua - 1.7 * ub, atol=1e-12)


def test_linear_solution_matches_dense_triangular_oracle():
    # single linear mode: assemble the full lower-triangular system over all
    # time levels and solve it densely
    params = _params(alpha=0.6, s=0.5, m=0.0, nonlinearity="zero")
    n_steps, tau = 24, 0.01 / 24
    lam_s = spectral.eigenvalues(1)[0] ** params.s
    weights = cq.cq_weights(1.0 - params.alpha, tau, n_steps)
    rng = np.random.default_rng(31)
    inc = rng.standard_normal((n_steps, 1))

    a_mat = np.zeros((n_steps, n_steps))
    for n in range(1, n_steps + 1):
        a_mat[n - 1, n - 1] = 1.0 / tau + weights[0] * lam_s
        for i in range(1, n):
            a_mat[n - 1, n - 1 - i] = lam_s * weights[i] - (1.0 / tau if i == 1
                                                            else 0.0)
    rhs = inc[:, 0] / tau
    dense = solve_triangular(a_mat, rhs, lower=True)

    states = solver.run_trajectory(params, Discretization(1, n_steps, tau), inc)
    np.testing.assert_allclose(states[1:, 0], dense, rtol=1e-12)


def test_scalar_first_order_accuracy():
    # constant forcing, lam^s = 1: compare with t E_{a,2}(-t^a) at T
    alpha, t_final = 0.3, 1.0
    ref = mlf.linear_mode_reference(1.0, alpha, 1.0, t_final)
    errors = []
    for n_steps in (64, 128, 256, 512, 1024):
        tau = t_final / n_steps
        weights = cq.cq_weights(1.0 - alpha, tau, n_steps)
        history = np.zeros((n_steps + 1, 1))
        for n in range(1, n_steps + 1):
            history[n] = solver.step(history[:n], weights, np.array([1.0]),
                                     tau, 1.0, 0.0)
        errors.append(abs(history[-1, 0] - ref))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert 0.85 <= orders.mean() <= 1.15, f"orders {orders}"


def test_single_step_run_supported():
    params = _params()
    disc = Discretization(n_modes=3, n_steps=1, tau=0.01)
    states = solver.run_trajectory(params, disc, np.ones((1, 3)))
    assert states.shape == (2, 3)
    assert np.all(np.isfinite(states))


def test_ensemble_matches_trajectory_runs():
    params = _params()     # sin nonlinearity active
    disc = Discretization(n_modes=10, n_steps=20, tau=0.0005)
    inc = fbm.mode_increments(params.hurst, disc.tau, 20, 77, 10, range(4))
    batch = solver.run_ensemble(params, disc, inc)
    for i in range(4):
        single = solver.run_trajectory(params, disc, inc[:, i])
        np.testing.assert_allclose(batch[i], single[-1], atol=1e-15)


def test_default_runs_leave_the_increments_unchanged():
    params = _params()
    disc = Discretization(n_modes=6, n_steps=40, tau=0.01 / 40)
    inc = fbm.mode_increments(params.hurst, disc.tau, 40, 5, 6, range(3))
    before = inc.tobytes()
    solver.run_ensemble(params, disc, inc)
    solver.run_trajectory(params, disc, inc[:, 1])
    assert inc.tobytes() == before


def test_overwrite_steps_in_a_time_major_draw_and_keeps_the_bits():
    # out= the buffer the draw fills: the ensemble overwrites its own draw
    params = _params()
    disc = Discretization(n_modes=6, n_steps=40, tau=0.01 / 40)
    default = solver.run_ensemble(
        params, disc, fbm.mode_increments(params.hurst, disc.tau, 40, 5, 6, range(3)))
    # a study chunk's layout: the draw fills rows 1..L of the stepping buffer
    states = np.full((41, 3, 6), np.nan)
    inc = fbm.mode_increments(params.hurst, disc.tau, 40, 5, 6, range(3), out=states[1:])
    final = solver.run_ensemble(params, disc, inc, out=states)
    assert np.array_equal(final, default)
    # the buffer now holds u^0..u^L, the last time level being the finals
    assert not states[0].any()
    assert np.array_equal(states[-1], final)


@pytest.mark.parametrize("layout", ["trajectory-major", "read-only"])
def test_overwrite_copies_an_array_it_cannot_step_in_and_keeps_the_bits(layout):
    # a time-major view of C-ordered (n_traj, L, N) storage is not
    # C-contiguous, and a read-only draw cannot be written; either is
    # copied into the out it steps in
    params = _params()
    disc = Discretization(n_modes=6, n_steps=40, tau=0.01 / 40)
    if layout == "read-only":
        inc = fbm.mode_increments(params.hurst, disc.tau, 40, 5, 6, range(3))
        inc.setflags(write=False)
    else:
        storage = 1e-3 * np.random.default_rng(8).standard_normal((3, 40, 6))
        inc = storage.transpose(1, 0, 2)
    before = inc.tobytes()
    default = solver.run_ensemble(params, disc, inc)
    states = np.full((41, 3, 6), np.nan)
    final = solver.run_ensemble(params, disc, inc, out=states)
    assert np.array_equal(final, default)
    assert np.array_equal(states[-1], final)
    assert inc.tobytes() == before


def test_custom_nonlinearity():
    disc = Discretization(n_modes=5, n_steps=8, tau=0.001)
    rng = np.random.default_rng(13)
    inc = rng.standard_normal((8, 5))
    quiet = solver.run_trajectory(_params(nonlinearity=lambda v: 0.0 * v),
                                  disc, inc)
    plain = solver.run_trajectory(_params(nonlinearity="zero"), disc, inc)
    np.testing.assert_allclose(quiet, plain, atol=1e-15)


def test_a_callable_nonlinearity_sees_the_paths_grid_values_only():
    # a single path's transforms take two rows of its buffer, but f gets
    # the path's (2N,) grid, and a batch's f its (n_traj, 2N) grid
    seen = []

    def record(values):
        seen.append(values.shape)
        return np.sin(values)

    params, rng = _params(nonlinearity=record), np.random.default_rng(14)
    disc = Discretization(n_modes=5, n_steps=3, tau=0.001)
    solver.run_trajectory(params, disc, rng.standard_normal((3, 5)))
    assert seen == [(10,)] * 3
    for n_traj in (1, 3):
        seen.clear()
        solver.run_ensemble(params, disc, rng.standard_normal((3, n_traj, 5)))
        assert seen == [(n_traj, 10)] * 3


def test_a_path_keeps_its_bits_beside_a_forcing_that_overflows_a_transform():
    # a single path transforms u^{n-1} over row n, its noise forcing, which
    # here overflows the projection that no state overflows
    params = _params(m=0.0, t_final=0.64)
    disc = Discretization(n_modes=64, n_steps=64, tau=0.01)
    rng = np.random.default_rng(0)
    inc = 1.25e304 * (1 + 0.01 * rng.standard_normal((64, 64)))   # forcing ~1.25e306
    states = np.empty((65, 2, 64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = solver.run_trajectory(params, disc, inc)
        solver.run_ensemble(params, disc, np.stack([inc, inc], axis=1), out=states)
    assert np.isfinite(path).all()
    np.testing.assert_array_equal(path, states[:, 0])


def test_overflow_raises_with_location():
    params = _params(m=0.0)
    disc = Discretization(n_modes=2, n_steps=3, tau=0.001)
    bad = np.full((3, 2), 1e308)
    with np.errstate(over="ignore"):
        with pytest.raises(SolverError, match="level 1"):
            solver.run_trajectory(params, disc, bad)
        with pytest.raises(SolverError, match="level 1"):
            solver.run_ensemble(params, disc, bad[:, None])


def test_single_path_error_locates_mode_and_level():
    params = _params(m=0.0)
    disc = Discretization(n_modes=3, n_steps=4, tau=0.001)
    bad = np.zeros((4, 3))
    bad[1, 1] = 1e308          # mode 2 overflows at time level 2
    with np.errstate(over="ignore"):
        with pytest.raises(SolverError) as info:
            solver.run_trajectory(params, disc, bad)
    err = info.value
    assert (err.trajectory, err.mode, err.time_level) == (None, 2, 2)
    assert str(err) == "non-finite coefficient in mode 2 at time level 2"


def test_run_trajectory_keeps_history_summation_order():
    # the single path's history sum, written out: at the start of each
    # 16-step block, the sum over all earlier states, one GEMM per panel of
    # at most 256 states, added in panel order; then step's einsum over the
    # block's own states, d_1 u^{n-1} first.  300 steps cross both edges.
    params = _params()
    n_steps, n_modes = 300, 8
    tau = 0.01 / n_steps
    disc = Discretization(n_modes, n_steps, tau)
    inc = fbm.mode_increments(params.hurst, tau, n_steps, 4, n_modes, [0])[:, 0]
    lam_s = spectral.eigenvalues(n_modes) ** params.s
    weights = cq.cq_weights(1.0 - params.alpha, tau, n_steps)
    amp = 1.0 * np.arange(1, n_modes + 1, dtype=float) ** (0.5 * params.m)
    states = np.zeros((n_steps + 1, n_modes))
    sequential = np.zeros((n_steps + 1, n_modes))
    for n in range(1, n_steps + 1):
        n0 = n - (n - 1) % 16
        if n == n0:
            rows = min(16, n_steps + 1 - n0)
            far = np.zeros((rows, n_modes))
            for p0 in range(1, n0, 256):
                p1 = min(p0 + 256, n0)
                toeplitz = weights[np.arange(n0, n0 + rows)[:, None] - np.arange(p0, p1)]
                far = toeplitz @ states[p0:p1] if p0 == 1 else far + toeplitz @ states[p0:p1]
        fterm = spectral.project(np.sin(spectral.synthesize(states[n - 1], 2 * n_modes)),
                                 n_modes)
        near = weights[1:n - n0 + 1] @ states[n - 1:n0 - 1:-1] if n > n0 else 0.0
        rhs = (states[n - 1] / tau - lam_s * near + (fterm - lam_s * far[n - n0])
               + amp * inc[n - 1] / tau)
        states[n] = rhs / (1.0 / tau + weights[0] * lam_s)
        # the order before the blocks: one sum over the whole history
        fterm = spectral.project(
            np.sin(spectral.synthesize(sequential[n - 1], 2 * n_modes)), n_modes)
        hist_sum = weights[1:n] @ sequential[n - 1:0:-1] if n > 1 else 0.0
        rhs = (sequential[n - 1] / tau - lam_s * hist_sum + fterm
               + amp * inc[n - 1] / tau)
        sequential[n] = rhs / (1.0 / tau + weights[0] * lam_s)
    run = solver.run_trajectory(params, disc, inc)
    np.testing.assert_array_equal(run, states)
    # rtol 1e-12 of each mode's largest coefficient: a coefficient near a
    # zero crossing keeps only the digits that its terms do not cancel
    scale = np.abs(sequential).max(axis=0)
    assert np.all(np.abs(run - sequential) <= 1e-12 * scale)


def test_shape_validation():
    params = _params()
    disc = Discretization(n_modes=4, n_steps=6, tau=0.001)
    with pytest.raises(ValueError):
        solver.run_trajectory(params, disc, np.zeros((5, 4)))
    with pytest.raises(ValueError):
        solver.run_ensemble(params, disc, np.zeros((6, 2, 3)))


def test_trajectory_dump_round_trip(tmp_path):
    params = _params()
    disc = Discretization(n_modes=6, n_steps=12, tau=0.01 / 12)
    inc = fbm.mode_increments(params.hurst, disc.tau, 12, 21, 6, [0])[:, 0]
    states = solver.run_trajectory(params, disc, inc)
    path = tmp_path / "traj.bin"
    solver.dump_trajectory(path, states, params, disc, 21)
    loaded, meta = solver.load_trajectory(path)
    np.testing.assert_array_equal(loaded, states)
    assert meta["alpha"] == params.alpha
    assert meta["nonlinearity"] == "sin"
    assert meta["n_steps"] == 12
    assert meta["seed"] == 21
    with pytest.raises(FileNotFoundError):
        solver.load_trajectory(tmp_path / "traj.bin.missing")
    (tmp_path / "junk.bin").write_bytes(b"XXXX" + bytes(80))
    with pytest.raises(ValueError, match="not a trajectory dump"):
        solver.load_trajectory(tmp_path / "junk.bin")


def test_trajectory_dump_writes_the_states_without_copying_them(tmp_path):
    params = _params()
    disc = Discretization(n_modes=128, n_steps=2048, tau=0.01 / 2048)
    states = np.random.default_rng(2).standard_normal((2049, 128))
    tracemalloc.start()
    try:
        solver.dump_trajectory(tmp_path / "traj.bin", states, params, disc, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < states.nbytes / 2, peak / states.nbytes
    np.testing.assert_array_equal(solver.load_trajectory(tmp_path / "traj.bin")[0],
                                  states)


def _small_dump(tmp_path):
    params = _params(nonlinearity="zero")
    disc = Discretization(n_modes=2, n_steps=3, tau=0.01 / 3)
    path = tmp_path / "traj.bin"
    solver.dump_trajectory(path, np.zeros((4, 2)), params, disc, 5)
    return path


def test_load_trajectory_names_the_path_of_a_truncated_header(tmp_path):
    path = _small_dump(tmp_path)
    path.write_bytes(path.read_bytes()[:4 + 37])     # magic and half a header
    with pytest.raises(ValueError, match=f"^{path}: truncated header$"):
        solver.load_trajectory(path)


@pytest.mark.parametrize("payload, size", [(lambda raw: raw[:-8], 56),
                                           (lambda raw: raw + bytes(8), 72)])
def test_load_trajectory_names_both_sizes_of_a_wrong_payload(tmp_path, payload, size):
    # the small dump's payload is 4 x 2 float64, 64 bytes; one short, one long
    path = _small_dump(tmp_path)
    path.write_bytes(payload(path.read_bytes()))
    with pytest.raises(ValueError, match=f"^{path}: payload of {size} bytes, "
                                         f"expected 64 for 4 x 2 float64$"):
        solver.load_trajectory(path)


def test_load_trajectory_rejects_an_unknown_nonlinearity_code(tmp_path):
    path = _small_dump(tmp_path)
    raw = bytearray(path.read_bytes())
    offset = 4 + solver._HEADER_DTYPE.fields["nonlinearity"][1]
    raw[offset:offset + 8] = (7).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"^{path}: unknown nonlinearity code 7$"):
        solver.load_trajectory(path)


def _random_step_inputs(n, n_traj, n_modes, n_steps=48):
    rng = np.random.default_rng(n)
    tau = 0.01 / n_steps
    weights = cq.cq_weights(0.7, tau, n_steps)
    lam_s = spectral.eigenvalues(n_modes) ** 0.7
    history = rng.standard_normal((n, n_traj, n_modes))
    history[0] = 0.0
    fterm = rng.standard_normal((n_traj, n_modes))
    noise = rng.standard_normal((n_traj, n_modes)) / tau
    return history, weights, lam_s, tau, fterm, noise


@pytest.mark.parametrize("n", [1, 2, 17, 48])
def test_batched_step_matches_path_by_path_steps(n):
    history, weights, lam_s, tau, fterm, noise = _random_step_inputs(n, 5, 7)
    batch = solver.step(history, weights, lam_s, tau, fterm, noise)
    for j in range(5):
        single = solver.step(history[:, j], weights, lam_s, tau, fterm[j], noise[j])
        assert np.array_equal(batch[j], single)


def test_ensemble_error_locates_trajectory_mode_and_level():
    params = _params(m=0.0)
    disc = Discretization(n_modes=4, n_steps=4, tau=0.001)
    bad = np.zeros((4, 4, 4))
    bad[1, 2, 2] = 1e308       # trajectory 2, mode 3 overflows at time level 2
    with np.errstate(over="ignore"):
        with pytest.raises(SolverError) as info:
            solver.run_ensemble(params, disc, bad)
    err = info.value
    assert (err.trajectory, err.mode, err.time_level) == (2, 3, 2)
    assert str(err) == "non-finite coefficient in trajectory 2, mode 3 at time level 2"


def test_entry_points_reject_the_other_rank():
    params = _params()
    disc = Discretization(n_modes=4, n_steps=6, tau=0.001)
    with pytest.raises(ValueError, match="increments shaped"):
        solver.run_trajectory(params, disc, np.zeros((1, 6, 4)))
    with pytest.raises(ValueError, match="increments shaped"):
        solver.run_ensemble(params, disc, np.zeros((6, 4)))


def test_run_ensemble_names_the_time_major_shape_of_a_trajectory_major_array():
    # (n_traj, L, N) with n_traj != L; with n_traj == L it would pass unseen
    disc = Discretization(n_modes=4, n_steps=8, tau=0.01 / 8)
    with pytest.raises(ValueError, match=r"^increments shaped \(3, 8, 4\), "
                                         r"expected \(8, n_traj, 4\)$"):
        solver.run_ensemble(_params(), disc, np.zeros((3, 8, 4)))


def test_run_trajectory_steps_in_out_aliased_disjoint_or_its_own():
    params = _params()
    disc = Discretization(n_modes=6, n_steps=40, tau=0.01 / 40)
    inc = fbm.mode_increments(params.hurst, disc.tau, 40, 5, 6, [0])[:, 0]
    before = inc.tobytes()
    default = solver.run_trajectory(params, disc, inc)
    disjoint = np.full((41, 6), np.nan)
    assert solver.run_trajectory(params, disc, inc, out=disjoint) is disjoint
    assert np.array_equal(disjoint, default)
    assert inc.tobytes() == before
    # the trajectory command's layout: the draw fills rows 1..L of the states
    states = np.full((41, 6), np.nan)
    drawn = fbm.mode_increments(params.hurst, disc.tau, 40, 5, 6, [0], out=states[1:, None])
    assert solver.run_trajectory(params, disc, drawn[:, 0], out=states) is states
    assert np.array_equal(states, default)


@pytest.mark.parametrize("overlap", [lambda out: out[:-1], lambda out: out[1:, ::-1],
                                     lambda out: out[::-1][:-1]])
def test_run_trajectory_steps_overlapping_increments_as_a_disjoint_run(overlap):
    # the increments are copied into rows 1.. of out before any step
    params = _params()
    disc = Discretization(n_modes=4, n_steps=8, tau=0.01 / 8)
    out = np.random.default_rng(3).standard_normal((9, 4))
    disjoint = solver.run_trajectory(params, disc, overlap(out).copy())
    assert solver.run_trajectory(params, disc, overlap(out), out=out) is out
    assert np.array_equal(out, disjoint)


def _read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("out", [np.zeros((8, 4)), np.zeros((9, 4), dtype=np.float32),
                                 [[0.0] * 4] * 9, _read_only(np.zeros((9, 4)))])
def test_run_trajectory_names_an_out_of_the_wrong_shape_or_dtype(out):
    disc = Discretization(n_modes=4, n_steps=8, tau=0.01 / 8)
    with pytest.raises(ValueError, match=r"^out must be a writeable C-contiguous float64 "
                                         r"array shaped \(9, 4\)"):
        solver.run_trajectory(_params(), disc, np.zeros((8, 4)), out=out)


@pytest.mark.parametrize("out", [np.zeros((9, 4, 3)), np.zeros((9, 3, 4), order="F"),
                                 np.zeros((9, 3, 4))[:, :, ::-1]])
def test_run_ensemble_names_an_out_it_cannot_step_in(out):
    # the blocked history sums read the states as C-contiguous rows
    disc = Discretization(n_modes=4, n_steps=8, tau=0.01 / 8)
    with pytest.raises(ValueError, match=r"^out must be a writeable C-contiguous float64 "
                                         r"array shaped \(9, 3, 4\)"):
        solver.run_ensemble(_params(), disc, np.zeros((8, 3, 4)), out=out)


# a step blows up where its increment is infinite: at step 1, mid-block, at
# the last step of a 16-step block, and at the last step of a level whose
# step count is not a multiple of 16
_BLOW_UPS = [(40, 1), (40, 7), (40, 16), (40, 33), (21, 21)]


@pytest.mark.parametrize("n_steps, level", _BLOW_UPS)
def test_single_path_block_check_names_the_first_bad_step(n_steps, level):
    disc = Discretization(n_modes=3, n_steps=n_steps, tau=0.01 / n_steps)
    inc = 1e-3 * np.random.default_rng(level).standard_normal((n_steps, 3))
    inc[level - 1, 1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as info:
            solver.run_trajectory(_params(), disc, inc)
    assert str(info.value) == f"non-finite coefficient in mode 2 at time level {level}"


@pytest.mark.parametrize("n_steps, level", _BLOW_UPS)
def test_batch_block_check_names_the_first_bad_step(n_steps, level):
    disc = Discretization(n_modes=4, n_steps=n_steps, tau=0.01 / n_steps)
    inc = 1e-3 * np.random.default_rng(level).standard_normal((n_steps, 4, 4))
    inc[level - 1, 2, 2] = np.inf
    inc[n_steps - 1, 3, 0] = np.inf         # later in row order, so not named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as info:
            solver.run_ensemble(_params(), disc, inc)
    assert str(info.value) == (f"non-finite coefficient in trajectory 2, mode 3 "
                               f"at time level {level}")


def test_trajectory_dump_codes_an_unhashable_callable_as_custom(tmp_path):
    class Damped:                  # defines __eq__ without __hash__
        def __eq__(self, other):
            return isinstance(other, Damped)

        def __call__(self, v):
            return -v

    params = _params(nonlinearity=Damped())
    disc = Discretization(n_modes=2, n_steps=3, tau=0.01 / 3)
    states = solver.run_trajectory(params, disc, np.zeros((3, 2)))
    solver.dump_trajectory(tmp_path / "traj.bin", states, params, disc, 5)
    assert solver.load_trajectory(tmp_path / "traj.bin")[1]["nonlinearity"] == "custom"
    raw = (tmp_path / "traj.bin").read_bytes()
    offset = 4 + solver._HEADER_DTYPE.fields["nonlinearity"][1]
    assert int.from_bytes(raw[offset:offset + 8], "little") == 2


@pytest.mark.parametrize("n_traj", [1, 25])
@pytest.mark.parametrize("n", [1, 2, 17])
def test_step_writes_out_with_the_bits_of_a_new_array(n, n_traj):
    history, weights, lam_s, tau, fterm, noise = _random_step_inputs(n, n_traj, 7)
    expected = solver.step(history, weights, lam_s, tau, fterm, noise)
    out = np.full((n_traj, 7), np.nan)
    assert solver.step(history, weights, lam_s, tau, fterm, noise, out=out) is out
    assert np.array_equal(out, expected)
    # as the stepper calls it: the noise forcing is overwritten by u^n
    aliased = noise.copy()
    assert solver.step(history, weights, lam_s, tau, fterm, aliased, out=aliased) is aliased
    assert np.array_equal(aliased, expected)


def test_step_out_of_a_single_path_keeps_its_bits():
    history, weights, lam_s, tau, fterm, noise = _random_step_inputs(17, 1, 7)
    history, fterm, noise = history[:, 0], fterm[0], noise[0].copy()
    expected = solver.step(history, weights, lam_s, tau, fterm, noise)
    assert solver.step(history, weights, lam_s, tau, fterm, noise, out=noise) is noise
    assert np.array_equal(noise, expected)


@pytest.mark.parametrize("out", [np.empty((5, 8)), np.empty((5, 7), dtype=np.float32),
                                 np.empty((7, 5)).T, np.empty((5, 7))[::-1]])
def test_step_names_the_shape_of_an_out_it_cannot_write(out):
    history, weights, lam_s, tau, fterm, noise = _random_step_inputs(3, 5, 7)
    with pytest.raises(ValueError, match=r"shaped \(5, 7\)"):
        solver.step(history, weights, lam_s, tau, fterm, noise, out=out)
