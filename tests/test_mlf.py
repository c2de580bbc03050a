import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracspde import mlf
from oracles import mittag_leffler_integral

# high-precision reference values (50-digit series / closed forms)
E_05_1_AT_M1 = 0.427583576155807        # = e * erfc(1)
E_05_2_AT_M1 = 0.5559627432513196
E_03_1_AT_M1 = 0.45659440832969067
E_07_2_AT_M25 = 0.34019239651001376


def test_at_zero():
    for alpha in (0.1, 0.5, 1.0):
        assert mlf.mittag_leffler(alpha, 1.0, 0.0) == pytest.approx(1.0)
        assert mlf.mittag_leffler(alpha, 2.0, 0.0) == pytest.approx(1.0)


def test_frozen_reference_values():
    assert mlf.mittag_leffler(0.5, 1.0, -1.0) == pytest.approx(
        E_05_1_AT_M1, rel=1e-12)
    assert mlf.mittag_leffler(0.5, 2.0, -1.0) == pytest.approx(
        E_05_2_AT_M1, rel=1e-12)
    assert mlf.mittag_leffler(0.3, 1.0, -1.0) == pytest.approx(
        E_03_1_AT_M1, rel=1e-12)
    assert mlf.mittag_leffler(0.7, 2.0, -2.5) == pytest.approx(
        E_07_2_AT_M25, rel=1e-12)
    # half-integer closed form at another argument: E_{1/2,1}(-x) = e^{x^2} erfc(x)
    x = 2.0
    assert mlf.mittag_leffler(0.5, 1.0, -x) == pytest.approx(
        math.exp(x * x) * math.erfc(x), rel=1e-11)


def test_exponential_special_cases_exact():
    for z in np.linspace(-20.0, 0.0, 41):
        assert mlf.mittag_leffler(1.0, 1.0, z) == pytest.approx(
            math.exp(z), rel=1e-12)
        expect = 1.0 if z == 0.0 else math.expm1(z) / z
        assert mlf.mittag_leffler(1.0, 2.0, z) == pytest.approx(
            expect, rel=1e-12)


def test_against_spectral_integral_oracle():
    # both regimes vs the independent integral representation
    worst = 0.0
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        for beta in (1.0, 2.0):
            for x in (0.5, 5.0, 50.0, 2000.0):
                got = mlf.mittag_leffler(alpha, beta, -x)
                ref = mittag_leffler_integral(alpha, beta, -x)
                worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-9, f"worst relative deviation {worst:.2e}"


def test_large_argument_accuracy():
    # the stated domain extends to |z| = 1e4
    for alpha, beta in ((0.3, 1.0), (0.8, 2.0)):
        got = mlf.mittag_leffler(alpha, beta, -1e4)
        ref = mittag_leffler_integral(alpha, beta, -1e4)
        assert got == pytest.approx(ref, rel=1e-10)


def test_series_asymptotic_regimes_agree_in_crossover_band():
    # arguments straddling the representation switch (x^{1/alpha} ~ 35)
    for alpha in (0.4, 0.6, 0.8):
        for beta in (1.0, 2.0):
            x_switch = 35.0 ** alpha
            for x in (0.96 * x_switch, 1.04 * x_switch):
                got = mlf.mittag_leffler(alpha, beta, -x)
                ref = mittag_leffler_integral(alpha, beta, -x)
                assert got == pytest.approx(ref, rel=1e-9), (alpha, beta, x)


def test_positive_and_decreasing():
    # complete-monotonicity surrogate on a dense grid
    for alpha in (0.25, 0.5, 0.75, 0.95):
        x = np.linspace(0.0, 100.0, 400)
        vals = np.array([mlf.mittag_leffler(alpha, 1.0, -xi) for xi in x])
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        mlf.mittag_leffler(1.5, 1.0, -1.0)
    with pytest.raises(ValueError):
        mlf.mittag_leffler(0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        mlf.mittag_leffler(0.5, 3.0, -1.0)
    with pytest.raises(ValueError):
        mlf.mittag_leffler(0.5, 1.0, 0.5)


def test_linear_mode_reference_basics():
    assert mlf.linear_mode_reference(2.0, 0.4, 3.0, 0.0) == 0.0
    # classical ODE limit at alpha=1: c(1-e^{-lam t})/lam
    lam, c, t = 2.5, 1.7, 0.8
    assert mlf.linear_mode_reference(lam, 1.0, c, t) == pytest.approx(
        c * -math.expm1(-lam * t) / lam, rel=1e-12)
    with pytest.raises(ValueError):
        mlf.linear_mode_reference(-1.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        mlf.linear_mode_reference(1.0, 0.5, 1.0, -1.0)


def test_linear_mode_reference_vs_quadrature():
    # u(t) = int_0^t E_{a,1}(-lam r^a) dr, evaluated by adaptive quadrature
    alpha, lam, t = 0.5, 1.0, 1.0
    val, err = quad(lambda r: mlf.mittag_leffler(alpha, 1.0, -lam * r ** alpha),
                    0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert err < 1e-9
    assert mlf.linear_mode_reference(lam, alpha, 1.0, t) == pytest.approx(
        val, rel=1e-10)


def test_small_time_behaviour():
    # u(t) ~ c t as t -> 0 (relaxation kernel starts at 1)
    got = mlf.linear_mode_reference(5.0, 0.6, 2.0, 1e-8)
    assert got == pytest.approx(2.0 * 1e-8, rel=1e-3)
