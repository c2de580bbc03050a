import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from fracspde import fbm
from oracles import fbm_covariance, increment_covariance_matrix, sample_fbm_cholesky


def test_covariance_closed_form():
    assert fbm_covariance(1.0, 1.0, 0.3) == pytest.approx(1.0)
    assert fbm_covariance(2.0, 1.0, 0.5) == pytest.approx(1.0)   # min(t,u)
    assert fbm_covariance(2.0, 1.0, 0.75) == pytest.approx(math.sqrt(2.0))


def test_covariance_domain_errors():
    with pytest.raises(ValueError):
        fbm_covariance(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        fbm_covariance(-1.0, 1.0, 0.5)


def test_increment_covariance_matrix_brownian():
    c = increment_covariance_matrix(0.5, 0.25, 6)
    np.testing.assert_allclose(c, 0.25 * np.eye(6), atol=1e-15)


def test_increment_covariance_matrix_entries():
    c = increment_covariance_matrix(0.75, 1.0, 4)
    assert np.all(np.diag(c) == pytest.approx(1.0))
    # lag-1 entry: (|2|^1.5 + 0 - 2)/2
    assert c[1, 0] == pytest.approx(0.5 * (2 ** 1.5 - 2))
    np.testing.assert_allclose(c, c.T, atol=0)


def test_increment_correlation_sign():
    # anti-persistent vs persistent increments, deterministic check
    lag1_low = increment_covariance_matrix(0.3, 1.0, 3)[1, 0]
    lag1_high = increment_covariance_matrix(0.8, 1.0, 3)[1, 0]
    assert lag1_low < 0 < lag1_high


def test_increment_covariance_consistent_with_fbm_covariance():
    # entries must equal the bilinear expansion of the path covariance
    h, tau, n = 0.67, 0.125, 5
    grid = tau * np.arange(n + 1)
    c = increment_covariance_matrix(h, tau, n)
    for i in range(n):
        for j in range(n):
            expect = (fbm_covariance(grid[i + 1], grid[j + 1], h)
                      - fbm_covariance(grid[i + 1], grid[j], h)
                      - fbm_covariance(grid[i], grid[j + 1], h)
                      + fbm_covariance(grid[i], grid[j], h))
            assert c[i, j] == pytest.approx(expect, abs=1e-12)


def test_increment_covariance_psd():
    for h in (0.2, 0.5, 0.9):
        c = increment_covariance_matrix(h, 0.01, 48)
        eigs = np.linalg.eigvalsh(c)
        assert eigs.min() > -1e-12 * eigs.max()


@pytest.mark.parametrize("h", [0.1, 0.3, 0.8, 0.9999])
def test_increment_covariance_keeps_its_digits_at_long_lags(h):
    # the second difference of j^2H cancels about log10(j^2) digits when
    # taken directly; against 50-digit arithmetic on the same formula
    import mpmath as mp

    lags = np.array([0, 1, 2, 3, 7, 100, 1000, 4097, 65535, 65536])
    got = fbm.increment_covariance(h, 0.5, lags)
    with mp.workdps(50):
        two_h = 2 * mp.mpf(h)
        for lag, value in zip(lags, got):
            j = mp.mpf(int(lag))
            exact = mp.mpf(0.5) ** two_h / 2 * (
                (j + 1) ** two_h + abs(j - 1) ** two_h - 2 * j ** two_h)
            assert abs(value - float(exact)) <= 1e-10 * abs(float(exact)), lag


def test_circulant_root_takes_h_near_one_at_long_l():
    # the exact embedding is positive here (smallest/largest eigenvalue
    # about 1e-9); a covariance that lost digits made it look negative
    root = fbm._circulant_root(0.9999, 1.0, 65536)
    assert root.shape == (65537,) and np.all(np.isfinite(root))


def test_samplers_deterministic():
    for sampler in (sample_fbm_cholesky, fbm.sample_fbm_circulant):
        a = sampler(0.7, 0.5, 16, np.random.default_rng(99), 4)
        b = sampler(0.7, 0.5, 16, np.random.default_rng(99), 4)
        assert a.shape == (4, 16)
        assert np.array_equal(a, b)


def test_brownian_case_kolmogorov_smirnov():
    # H=0.5 -> iid N(0, tau) increments for both samplers
    tau = 0.04
    for sampler, seed in ((sample_fbm_cholesky, 1),
                          (fbm.sample_fbm_circulant, 2)):
        x = sampler(0.5, tau, 20, np.random.default_rng(seed), 500).ravel()
        p = stats.kstest(x, "norm", args=(0.0, math.sqrt(tau))).pvalue
        assert p > 0.01, f"{sampler.__name__}: KS p={p:.4f}"


def test_sample_covariance_matches_exact():
    # moderate-size version of the covariance acceptance check
    h, tau, n_steps, n_paths = 0.3, 1.0, 16, 40_000
    exact = increment_covariance_matrix(h, tau, n_steps)
    se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact ** 2)
                 / n_paths)
    for sampler, seed in ((sample_fbm_cholesky, 5),
                          (fbm.sample_fbm_circulant, 6)):
        x = sampler(h, tau, n_steps, np.random.default_rng(seed), n_paths)
        sample = x.T @ x / n_paths
        dev = np.max(np.abs(sample - exact) / se)
        assert dev < 5.0, f"{sampler.__name__}: worst deviation {dev:.2f} SE"


def test_endpoint_variance_self_similarity():
    # Var(W(t_n)) = t_n^{2H} at every grid time, 5-sigma band
    h, tau, n_steps, n_paths = 0.3, 0.25, 16, 40_000
    x = fbm.sample_fbm_circulant(h, tau, n_steps, np.random.default_rng(8),
                                 n_paths)
    w = np.cumsum(x, axis=1)
    var = np.mean(w * w, axis=0)             # known zero mean
    t = tau * np.arange(1, n_steps + 1)
    target = t ** (2 * h)
    se = target * math.sqrt(2.0 / n_paths)
    assert np.all(np.abs(var - target) < 5 * se)


def test_single_step_case():
    x = fbm.sample_fbm_circulant(0.8, 0.5, 1, np.random.default_rng(0), 20_000)
    assert x.shape == (20_000, 1)
    target = 0.5 ** 1.6
    assert np.var(x) == pytest.approx(target, rel=5 * math.sqrt(2.0 / 20_000))


def _textbook_davies_harte(h, tau, n_steps, z):
    """Full-spectrum Davies–Harte from the normals z (rows, 2L) in the
    sampler's layout: the FFT of the mirrored first row, the conjugate-
    symmetric spectrum of size 2L, and the real part of its inverse FFT."""
    m = 2 * n_steps
    g = fbm.increment_covariance(h, tau, np.arange(n_steps + 1))
    eigs = np.fft.fft(np.concatenate([g, g[n_steps - 1:0:-1]])).real
    spectrum = np.zeros((len(z), m), dtype=complex)
    spectrum[:, 0] = math.sqrt(m) * z[:, 0]
    spectrum[:, n_steps] = math.sqrt(m) * z[:, 1]
    half = math.sqrt(m / 2) * (z[:, 2:n_steps + 1] + 1j * z[:, n_steps + 1:])
    spectrum[:, 1:n_steps] = half
    spectrum[:, n_steps + 1:] = np.conj(half[:, ::-1])
    spectrum *= np.sqrt(np.clip(eigs, 0.0, None))
    return np.fft.ifft(spectrum, axis=-1).real[:, :n_steps]


@pytest.mark.parametrize("rng_form", ["generator", "generator list"])
@pytest.mark.parametrize("h", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 8, 257, 1024])
def test_circulant_sampler_matches_the_full_spectrum_textbook_form(n_steps, h, rng_form):
    tau, n_rows = 0.01 / n_steps, 4
    if rng_form == "generator":
        x = fbm.sample_fbm_circulant(h, tau, n_steps, np.random.default_rng(11), n_rows)
        z = np.random.default_rng(11).standard_normal((n_rows, 2 * n_steps))
    else:
        # one single-path call per generator, the form the per-stream oracle uses
        x = np.vstack([fbm.sample_fbm_circulant(h, tau, n_steps, np.random.default_rng(i))
                       for i in range(n_rows)])
        z = np.vstack([np.random.default_rng(i).standard_normal(2 * n_steps)
                       for i in range(n_rows)])
    expected = _textbook_davies_harte(h, tau, n_steps, z)
    assert x.shape == (n_rows, n_steps)
    assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))


def _energy_statistic_p_value(x, y, n_perm=99, seed=7):
    """Two-sample energy test p-value via permutations.

    Uses a pooled float32 distance matrix; each permuted statistic needs
    one matrix-vector product (quadratic-form identity), which keeps 10^4
    paths per group tractable.
    """
    pooled = np.vstack([x, y]).astype(np.float32)
    n, m = x.shape[0], pooled.shape[0]
    sq = np.sum(pooled * pooled, axis=1)
    dist = np.empty((m, m), dtype=np.float32)
    for lo in range(0, m, 2000):
        hi = min(lo + 2000, m)
        d2 = sq[lo:hi, None] + sq[None, :] - 2.0 * (pooled[lo:hi] @ pooled.T)
        np.maximum(d2, 0.0, out=d2)
        dist[lo:hi] = np.sqrt(d2, out=d2)
    row_sums = dist @ np.ones(m, dtype=np.float32)
    s_tot = float(row_sums.sum())

    def statistic(mask):
        v = dist @ mask
        s_aa = float(mask @ v)
        a_rows = float(mask @ row_sums)
        s_ab = a_rows - s_aa
        s_bb = s_tot - 2.0 * a_rows + s_aa
        return (2.0 * s_ab - s_aa - s_bb) / (n * n)

    mask = np.zeros(m, dtype=np.float32)
    mask[:n] = 1.0
    observed = statistic(mask)
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(n_perm):
        mask = np.zeros(m, dtype=np.float32)
        mask[rng.permutation(m)[:n]] = 1.0
        if statistic(mask) >= observed:
            exceed += 1
    return (1 + exceed) / (n_perm + 1)


def test_circulant_matches_cholesky_energy_distance():
    # distribution equality of the two samplers, not rejected at 1%
    rng = np.random.default_rng(2024)
    n = 10_000
    x = sample_fbm_cholesky(0.8, 1.0, 32, rng, n)
    y = fbm.sample_fbm_circulant(0.8, 1.0, 32, rng, n)
    p = _energy_statistic_p_value(x, y)
    assert p > 0.01, f"energy test rejected sampler equality, p={p:.3f}"


def test_mode_increments_shape_and_subset_stability():
    full = fbm.mode_increments(0.6, 0.1, 8, 42, 5, range(4))
    assert full.shape == (8, 4, 5)
    fewer_modes = fbm.mode_increments(0.6, 0.1, 8, 42, 3, range(4))
    np.testing.assert_array_equal(fewer_modes, full[:, :, :3])
    some_traj = fbm.mode_increments(0.6, 0.1, 8, 42, 5, [1, 3])
    np.testing.assert_array_equal(some_traj, full[:, [1, 3]])


def test_mode_increments_seed_sensitivity():
    a = fbm.mode_increments(0.6, 0.1, 8, 42, 2, [0])
    b = fbm.mode_increments(0.6, 0.1, 8, 43, 2, [0])
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("n_steps", [1, 2, 33, 256])
def test_mode_increments_match_per_stream_sampler(n_steps):
    # oracle: one single-Generator call per (mode, trajectory) stream
    h, tau, seed, n_modes, trajectories = 0.7, 0.01 / n_steps, 17, 3, [5, 0, 9]
    batched = fbm.mode_increments(h, tau, n_steps, seed, n_modes, trajectories)
    for k in range(1, n_modes + 1):
        rows = np.vstack([fbm.sample_fbm_circulant(
            h, tau, n_steps, fbm._stream(seed, k, traj), 1)
            for traj in trajectories])
        np.testing.assert_array_equal(batched[:, :, k - 1], rows.T)


@pytest.mark.parametrize("draw", [
    lambda: fbm.sample_fbm_circulant(0.5, 1.0, 8, np.random.default_rng(0), 3),
    lambda: fbm.mode_increments(0.5, 1.0, 8, 0, 2, range(3)),
], ids=["sample_fbm_circulant", "mode_increments"])
def test_circulant_embedding_refuses_a_negative_eigenvalue(monkeypatch, draw):
    # gamma = (1, 2, 0, ...) embeds in a circulant with eigenvalue 1 - 4 < 0
    def not_psd(h, tau, lag):
        g = np.zeros(len(lag))
        g[0], g[1] = 1.0, 2.0
        return g

    monkeypatch.setattr(fbm, "increment_covariance", not_psd)
    with pytest.raises(ValueError, match="nonnegative definite"):
        draw()


_SEEDS = st.integers(0, 2 ** 64 - 1) | st.integers(2 ** 128, 2 ** 140)
#: indices of 2**32 and more are two SeedSequence entropy words
_INDICES = st.integers(0, 2 ** 32 - 1) | st.integers(2 ** 32, 2 ** 70)


@settings(max_examples=60, deadline=None)
@given(seed=_SEEDS, modes=st.lists(_INDICES, min_size=1, max_size=4),
       trajectories=st.lists(_INDICES, min_size=1, max_size=4))
def test_philox_keys_equal_seed_sequence(seed, modes, trajectories):
    # uint32 overflow done with numpy scalars would warn; array ops must not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keys = fbm._philox_keys(seed, modes, trajectories)
    assert keys.shape == (len(modes), len(trajectories), 2)
    assert keys.dtype == np.uint64
    for i, k in enumerate(modes):
        for j, traj in enumerate(trajectories):
            want = np.random.SeedSequence(seed, spawn_key=(k, traj)).generate_state(
                2, np.uint64)
            np.testing.assert_array_equal(keys[i, j], want)


@settings(max_examples=30, deadline=None)
@given(seed=_SEEDS, n_steps=st.sampled_from([1, 2, 3]), n_modes=st.integers(1, 3),
       trajectories=st.lists(_INDICES, min_size=1, max_size=3))
def test_mode_increments_draw_the_stream_oracle(seed, n_steps, n_modes, trajectories):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = fbm.mode_increments(0.3, 0.5, n_steps, seed, n_modes, trajectories)
    for k in range(1, n_modes + 1):
        for i, traj in enumerate(trajectories):
            want = fbm.sample_fbm_circulant(0.3, 0.5, n_steps, fbm._stream(seed, k, traj))
            np.testing.assert_array_equal(batched[:, i, k - 1], want[0])


@pytest.mark.parametrize("seed, trajectories, message", [
    (-1, [0], "master_seed must be a non-negative integer, got -1"),
    (1.5, [0], "master_seed must be a non-negative integer, got 1.5"),
    ("7", [0], "master_seed must be a non-negative integer, got '7'"),
    (np.int64(-3), [0], "master_seed must be a non-negative integer, got np.int64\\(-3\\)"),
    (0, [2, -1], "trajectory index must be a non-negative integer, got -1"),
    (0, [0, 1.5], "trajectory index must be a non-negative integer, got 1.5"),
    (0, np.array([3, -2]),
     "trajectory index must be a non-negative integer, got np.int64\\(-2\\)"),
])
def test_mode_increments_names_a_bad_seed_or_index(monkeypatch, seed, trajectories, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the inputs were checked")

    monkeypatch.setattr(fbm, "_philox_keys", no_sampling)
    monkeypatch.setattr(fbm, "sample_fbm_circulant", no_sampling)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fbm.mode_increments(0.6, 0.1, 8, seed, 2, trajectories)


def test_mode_increments_accepts_numpy_integer_indices():
    plain = fbm.mode_increments(0.6, 0.1, 8, 42, 2, [1, 3])
    typed = fbm.mode_increments(0.6, 0.1, 8, np.uint64(42), 2, np.array([1, 3]))
    np.testing.assert_array_equal(typed, plain)


def test_mode_increments_computes_the_circulant_once_per_call(monkeypatch):
    # once per call, not cached across calls: a cache would outlive a
    # monkeypatched covariance
    calls = []
    real = fbm.increment_covariance

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fbm, "increment_covariance", counted)
    first = fbm.mode_increments(0.3, 0.01, 33, 5, 6, range(3))
    assert len(calls) == 1
    again = fbm.mode_increments(0.3, 0.01, 33, 5, 6, range(3))
    assert len(calls) == 2
    np.testing.assert_array_equal(first, again)


def test_mode_increments_fills_the_storage_it_is_given():
    out = np.full((16, 3, 5), np.nan)
    # out is returned as is, holding the draw in the time-major layout
    assert fbm.mode_increments(0.3, 1e-3, 16, 2, 5, [4, 0, 9], out=out) is out
    assert np.array_equal(out, fbm.mode_increments(0.3, 1e-3, 16, 2, 5, [4, 0, 9]))


def _read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("out", [np.empty((16, 5, 3)), np.empty((16, 3, 5), dtype=np.float32),
                                 np.empty((15, 3, 5)), [[[0.0] * 5] * 3] * 16,
                                 _read_only(np.empty((16, 3, 5)))])
def test_mode_increments_names_an_out_of_the_wrong_shape_or_dtype(out):
    with pytest.raises(ValueError, match=r"^out must be a writeable float64 array "
                                         r"shaped \(16, 3, 5\)"):
        fbm.mode_increments(0.3, 1e-3, 16, 2, 5, [4, 0, 9], out=out)


def _stream_oracle(h, tau, n_steps, seed, n_modes, trajectories):
    """(L, trajectories, modes) from one single-Generator call per stream."""
    return np.stack([np.stack([fbm.sample_fbm_circulant(
        h, tau, n_steps, fbm._stream(seed, k, traj))[0] for traj in trajectories], axis=-1)
        for k in range(1, n_modes + 1)], axis=-1)


# the modes are written a tile at a time: around one and two tiles
@pytest.mark.parametrize("n_modes", [1, fbm._TILE - 1, fbm._TILE, fbm._TILE + 1,
                                     2 * fbm._TILE + 3])
def test_tiled_write_equals_the_stream_oracle(n_modes):
    expected = _stream_oracle(0.3, 1 / 24, 24, 11, n_modes, [2, 0])
    assert np.array_equal(fbm.mode_increments(0.3, 1 / 24, 24, 11, n_modes, [2, 0]),
                          expected)
    # and into storage that is no C-contiguous array
    big = np.full((24, 2, 2 * n_modes + 1), np.nan)
    out = big[:, :, 1::2]
    assert fbm.mode_increments(0.3, 1 / 24, 24, 11, n_modes, [2, 0], out=out) is out
    assert np.array_equal(out, expected)
    assert np.isnan(big[:, :, ::2]).all()


# tau^(2H) overflows, or underflows to 0, where the draw would be all zero
@pytest.mark.parametrize("h, tau", [(0.999999, 2.5e199), (0.9, 1e-300)])
@pytest.mark.parametrize("call", [
    lambda h, tau: fbm.increment_covariance(h, tau, [0]),
    lambda h, tau: fbm.sample_fbm_circulant(h, tau, 4, np.random.default_rng(0)),
    lambda h, tau: fbm.mode_increments(h, tau, 4, 0, 2, [0])],
    ids=["increment_covariance", "sample_fbm_circulant", "mode_increments"])
def test_a_tau_whose_power_leaves_the_floats_is_refused_by_name(call, h, tau):
    with pytest.raises(ValueError, match="^" + re.escape(f"H={h!r}, tau={tau!r}: tau^(2H)")):
        call(h, tau)
