import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import dst

from fracspde import spectral


def test_eigenvalues():
    assert spectral.eigenvalues(3)[[0, 2]] == pytest.approx([np.pi ** 2, 9 * np.pi ** 2],
                                                           rel=1e-15)
    np.testing.assert_allclose(spectral.eigenvalues(4),
                               [(k * np.pi) ** 2 for k in (1, 2, 3, 4)],
                               rtol=1e-15)


def test_eigenfunction_values():
    # B[k-1, j-1] = phi_k(x_j) = sqrt(2) sin(k pi x_j); x_4 = 1/2 on 7 nodes
    b = spectral._sine_matrix(2, 7)
    assert b[0, 3] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert b[1, 3] == pytest.approx(0.0, abs=1e-15)
    # discrete orthonormality under the grid quadrature, on the matrix the
    # dense transforms use
    for n, m in [(1, 2), (7, 16), (64, 128), (128, 256), (256, 512)]:
        b = spectral._sine_matrix(n, m)
        np.testing.assert_allclose(b @ b.T / (m + 1), np.eye(n), rtol=0, atol=1e-12)


def test_project_synthesize_round_trip():
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(16)
    values = spectral.synthesize(coeffs, 64)
    back = spectral.project(values, 16)
    np.testing.assert_allclose(back, coeffs, atol=1e-13)


def test_project_polynomial_coefficients():
    # u(x) = x(1-x) has coefficients 4*sqrt(2)/(k pi)^3 for odd k, 0 for even
    m = 2047
    x = np.arange(1, m + 1) / (m + 1.0)          # the interior nodes j/(M+1)
    coeffs = spectral.project(x * (1 - x), 12)
    k = np.arange(1, 13)
    expected = np.where(k % 2 == 1, 4 * np.sqrt(2.0) / (k * np.pi) ** 3, 0.0)
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)


def test_parseval():
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(32)
    m = 256
    values = spectral.synthesize(coeffs, m)
    # L2 norm on the grid (boundary values are zero, spacing 1/(m+1))
    grid_norm_sq = np.sum(values ** 2) / (m + 1)
    assert grid_norm_sq == pytest.approx(np.sum(coeffs ** 2), rel=1e-12)


def test_project_rejects_aliased_request():
    values = np.zeros(15)
    with pytest.raises(ValueError, match="alias-free"):
        spectral.project(values, 8)   # needs m >= 16
    spectral.project(np.zeros(16), 8)  # boundary case is fine


def test_synthesize_rejects_too_few_points():
    with pytest.raises(ValueError):
        spectral.synthesize(np.ones(8), 4)


def test_batched_shapes():
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal((3, 7, 8))
    vals = spectral.synthesize(coeffs, 16)
    assert vals.shape == (3, 7, 16)
    back = spectral.project(vals, 8)
    np.testing.assert_allclose(back, coeffs, atol=1e-13)


@pytest.mark.parametrize("n_modes", [8, 64, 100, 128])
def test_a_row_has_the_same_bits_in_every_batch(n_modes):
    # a one-row product (gemv) and a transposed operand at small row
    # counts would give other bits than a GEMM row; both paths of the
    # solver rely on a row's bits not depending on the rows beside it
    rng = np.random.default_rng(n_modes)
    coeffs = rng.standard_normal((30, n_modes))
    grid = np.sin(rng.standard_normal((30, 2 * n_modes)))
    values = spectral.synthesize(coeffs, 2 * n_modes)
    back = spectral.project(grid, n_modes)
    for rows in range(1, 31):
        for lo in (0, 30 - rows):
            part = slice(lo, lo + rows)
            np.testing.assert_array_equal(spectral.synthesize(coeffs[part], 2 * n_modes),
                                          values[part], err_msg=f"synthesize {part}")
            np.testing.assert_array_equal(spectral.project(grid[part], n_modes),
                                          back[part], err_msg=f"project {part}")
    for i in (0, 29):
        np.testing.assert_array_equal(spectral.synthesize(coeffs[i], 2 * n_modes), values[i])
        np.testing.assert_array_equal(spectral.project(grid[i], n_modes), back[i])


@settings(max_examples=25, deadline=None)
@given(n_modes=st.integers(1, 24), seed=st.integers(0, 2 ** 31))
def test_round_trip_property(n_modes, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(n_modes)
    m = 2 * n_modes + rng.integers(0, 5)
    back = spectral.project(spectral.synthesize(coeffs, m), n_modes)
    np.testing.assert_allclose(back, coeffs, atol=1e-12)


def _assert_close_to_scale(actual, expected, rtol=1e-13):
    # also relative to the largest entry: a few entries are sums that
    # cancel to ~1e-3 of the array's scale, and their rounding error is set
    # by that scale, not by their own size
    np.testing.assert_allclose(actual, expected, rtol=rtol,
                               atol=rtol * np.max(np.abs(expected)))


@pytest.mark.parametrize("leading", [(), (25,), (3, 4)])
@pytest.mark.parametrize("m_extra", [0, 2, 128, 256, 512])
@pytest.mark.parametrize("n_modes", [1, 7, 64, 100, 128])
def test_transforms_match_scipy_dst_oracle(n_modes, m_extra, leading):
    # M from 512 to 1024, on grids whose M+1 is prime (641, 769) or not
    # (513, 515, 1025), against scipy's FFT-based DST-I
    m = 512 + m_extra
    rng = np.random.default_rng(n_modes + m)
    coeffs = rng.standard_normal(leading + (n_modes,))
    padded = np.zeros(leading + (m,))
    padded[..., :n_modes] = coeffs
    values = spectral.synthesize(coeffs, m)
    expected = dst(padded, type=1, axis=-1) / np.sqrt(2.0)
    assert values.shape == expected.shape
    _assert_close_to_scale(values, expected)
    grid = np.sin(values)               # a nonlinear field, as in the solver
    back = spectral.project(grid, n_modes)
    expected = dst(grid, type=1, axis=-1)[..., :n_modes] / (np.sqrt(2.0) * (m + 1))
    assert back.shape == expected.shape
    _assert_close_to_scale(back, expected)


def test_sine_matrix_is_cached_read_only():
    b = spectral._sine_matrix(8, 16)
    assert spectral._sine_matrix(8, 16) is b
    assert not b.flags.writeable
    with pytest.raises(ValueError):
        b[0, 0] = 1.0
    coeffs = np.random.default_rng(2).standard_normal((3, 8))
    values = spectral.synthesize(coeffs, 16)
    first = values.copy()
    values[...] = np.nan
    np.testing.assert_array_equal(spectral.synthesize(coeffs, 16), first)
    back = spectral.project(first, 8)
    kept = back.copy()
    back[...] = np.nan
    np.testing.assert_array_equal(spectral.project(first, 8), kept)


def test_dense_project_rejects_aliased_request():
    with pytest.raises(ValueError, match="alias-free"):
        spectral.project(np.zeros(512), 257)
    with pytest.raises(ValueError, match="alias-free"):
        spectral.project(np.zeros((25, 31)), 16)
    with pytest.raises(ValueError):
        spectral.synthesize(np.ones(513), 512)


@pytest.mark.parametrize("rows", [(), (1,), (2,), (25,)])
def test_transforms_write_out_with_the_bits_of_a_new_array(rows):
    # () and (1,) go through the zero-padded two-row product, the others
    # through one GEMM of their own rows
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(rows + (32,))
    grid = rng.standard_normal(rows + (64,))
    synthesized = np.full(rows + (64,), np.nan)
    projected = np.full(rows + (32,), np.nan)
    assert spectral.synthesize(coeffs, 64, out=synthesized) is synthesized
    assert spectral.project(grid, 32, out=projected) is projected
    assert np.array_equal(synthesized, spectral.synthesize(coeffs, 64))
    assert np.array_equal(projected, spectral.project(grid, 32))


@pytest.mark.parametrize("out", [np.empty((25, 63)), np.empty((25, 64), dtype=np.float32),
                                 np.empty((64, 25)).T, np.empty(64 * 25)])
def test_transforms_name_the_shape_of_an_out_they_cannot_write(out):
    coeffs = np.zeros((25, 32))
    with pytest.raises(ValueError, match=r"shaped \(25, 64\)"):
        spectral.synthesize(coeffs, 64, out=out)
    with pytest.raises(ValueError, match=r"shaped \(25, 32\)"):
        spectral.project(np.zeros((25, 64)), 32, out=np.empty((25, 33)))
