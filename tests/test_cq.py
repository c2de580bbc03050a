import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma, rgamma

from fracspde import cq


def test_leading_weights():
    tau, a = 0.05, 0.4
    w = cq.cq_weights(a, tau, 3)
    assert w[0] == pytest.approx(tau ** -a, rel=1e-15)
    assert w[1] == pytest.approx(-a * tau ** -a, rel=1e-15)
    # w2 = w1 * (1 - a)/2
    assert w[2] == pytest.approx(-a * (1 - a) / 2 * tau ** -a, rel=1e-14)


@pytest.mark.parametrize("a, tau, n", [(0.4, 0.05, 1), (0.4, 0.05, 2), (0.1, 1e-3, 65),
                                       (0.5, 0.01 / 2048, 2049), (0.95, 3.7, 8193)])
def test_weights_keep_the_bits_of_the_two_term_recurrence(a, tau, n):
    # the recurrence written out, one product per weight in index order
    w = [1.0]
    for j in range(1, n):
        w.append(w[-1] * ((j - 1 - a) / j))
    assert np.array_equal(cq.cq_weights(a, tau, n), np.array(w) * tau ** (-a))


def test_weights_match_binomial_closed_form():
    a, tau = 0.7, 1.0
    w = cq.cq_weights(a, tau, 16)
    j = np.arange(16)
    closed = (-1.0) ** j * gamma(a + 1) * rgamma(j + 1) * rgamma(a - j + 1)
    np.testing.assert_allclose(w, closed, rtol=1e-13)


def test_weights_match_series_oracle():
    for a in (0.1, 0.35, 0.7, 0.95):
        fast = cq.cq_weights(a, 0.01, 65)
        slow = cq.weights_by_series(a, 0.01, 65)
        np.testing.assert_allclose(fast, slow, rtol=1e-13)


def test_weights_match_contour_oracle():
    fast = cq.cq_weights(0.6, 0.2, 32)
    other = cq.weights_by_contour(0.6, 0.2, 32)
    np.testing.assert_allclose(fast, other, rtol=1e-10)


def test_sign_pattern():
    w = cq.cq_weights(0.5, 1.0, 64)
    assert w[0] > 0
    assert np.all(w[1:] < 0)


def test_partial_sums_tend_to_zero():
    # partial sums of tau^a * d_j behave like n^{-a}/Gamma(1-a)
    a = 0.3
    w = cq.cq_weights(a, 1.0, 4097)
    partial = np.cumsum(w)
    for n in (256, 1024, 4096):
        expect = n ** -a * rgamma(1 - a)
        assert partial[n] == pytest.approx(expect, rel=0.01)


def test_scaling_in_tau():
    a = 0.45
    base = cq.cq_weights(a, 1.0, 20)
    scaled = cq.cq_weights(a, 0.02, 20)
    np.testing.assert_allclose(scaled, 0.02 ** -a * base, rtol=1e-14)


def test_domain_errors():
    with pytest.raises(ValueError):
        cq.cq_weights(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        cq.cq_weights(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        cq.cq_weights(0.5, -1.0, 4)
    with pytest.raises(ValueError):
        cq.cq_weights(0.5, 1.0, 0)


def test_apply_history_simple_cases():
    w = cq.cq_weights(0.5, 1.0, 8)
    assert cq.apply_cq_history(w, np.ones(3)) == pytest.approx(w[:3].sum())
    assert cq.apply_cq_history(w, np.zeros(5)) == 0.0


def test_apply_history_matches_dense_toeplitz():
    rng = np.random.default_rng(17)
    w = cq.cq_weights(0.75, 0.1, 24)
    history = rng.standard_normal(20)       # u^1 .. u^20
    # dense lower-triangular Toeplitz: row n gives sum_i d_i u^{n-i}
    n = len(history)
    toe = np.zeros((n, n))
    for r in range(n):
        for c in range(r + 1):
            toe[r, c] = w[r - c]
    expect = toe @ history
    got = np.array([cq.apply_cq_history(w, history[:k + 1])
                    for k in range(n)])
    np.testing.assert_allclose(got, expect, rtol=1e-14)


def test_apply_history_rejects_short_table():
    w = cq.cq_weights(0.5, 1.0, 4)
    with pytest.raises(ValueError):
        cq.apply_cq_history(w, np.ones(5))
    with pytest.raises(ValueError, match="exceeds weight table"):
        cq.apply_cq_history(w, np.ones((5, 3)))


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_weights_reject_non_finite_tau(tau):
    with pytest.raises(ValueError, match="tau"):
        cq.cq_weights(0.5, tau, 4)


@pytest.mark.parametrize("trailing", [(3,), (2, 5)])
def test_apply_history_batched_matches_dense_toeplitz(trailing):
    rng = np.random.default_rng(23)
    w = cq.cq_weights(0.35, 0.01, 40)
    n = 33
    history = rng.standard_normal((n,) + trailing)
    toe = np.zeros((n, n))
    for r in range(n):
        toe[r, :r + 1] = w[r::-1]
    expect = np.tensordot(toe, history, axes=1)
    # relative to the sum of |terms|: some entries cancel, and BLAS in the
    # oracle adds in another order
    scale = np.tensordot(np.abs(toe), np.abs(history), axes=1)
    for k in range(n):
        got = cq.apply_cq_history(w, history[:k + 1])
        assert got.shape == trailing
        assert np.all(np.abs(got - expect[k]) <= 1e-14 * scale[k])


@pytest.mark.parametrize("width", [1, 3, 128])
def test_apply_history_columns_do_not_depend_on_width(width):
    rng = np.random.default_rng(width)
    w = cq.cq_weights(0.6, 0.002, 300)
    history = rng.standard_normal((300, width))
    for n in (1, 2, 17, 300):
        batched = cq.apply_cq_history(w, history[:n])
        single = np.array([cq.apply_cq_history(w, history[:n, j])
                           for j in range(width)])
        np.testing.assert_array_equal(batched, single)
    stacked = cq.apply_cq_history(w, history.reshape(300, 1, width))
    np.testing.assert_array_equal(stacked[0], cq.apply_cq_history(w, history))


def test_riemann_liouville_derivative_of_t():
    # CQ of order a applied to g(t)=t approximates t^{1-a}/Gamma(2-a)
    # with observed first-order convergence (checked away from t=0)
    a, t_eval = 0.4, 1.0
    errs = []
    for n_steps in (64, 128, 256, 512):
        tau = t_eval / n_steps
        w = cq.cq_weights(a, tau, n_steps + 1)
        g = tau * np.arange(1, n_steps + 1)          # g(t_j), j=1..n
        approx = cq.apply_cq_history(w, g)
        exact = t_eval ** (1 - a) / gamma(2 - a)
        errs.append(abs(approx - exact))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 0.9, f"orders {orders}"


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.01, 0.99), n=st.integers(2, 128))
def test_weight_properties(a, n):
    w = cq.cq_weights(a, 1.0, n)
    assert w[0] == pytest.approx(1.0)
    assert np.all(w[1:] < 0)
    # |d_j| decreasing for j >= 1
    mags = -w[1:]
    assert np.all(np.diff(mags) <= 1e-15)
    # partial sums stay nonnegative (they decrease from 1 toward 0)
    assert np.all(np.cumsum(w) > -1e-12)
