import math

import numpy as np
import pytest

from linewatch import (
    DegenerateScaleError,
    InsufficientDataError,
    KnownPrechange,
    fit_ols,
    standardize,
)

from oracles import normal_equations_fit


def test_exact_line_is_interpolated():
    t = np.arange(1, 21)
    x = 3.0 + 0.5 * t
    fit = fit_ols(x)
    assert fit.alpha_hat == pytest.approx(3.0, abs=1e-12)
    assert fit.beta_hat == pytest.approx(0.5, abs=1e-12)
    assert fit.resid_sd <= 1e-12


def test_two_point_line():
    fit = fit_ols([1.0, 2.0])
    assert fit.alpha_hat == pytest.approx(0.0, abs=1e-12)
    assert fit.beta_hat == pytest.approx(1.0, abs=1e-12)
    assert fit.resid_sd == 0.0


def test_against_normal_equations_oracle():
    rng = np.random.default_rng(3)
    for trial in range(25):
        k = int(rng.integers(3, 400))
        x = rng.normal(size=k) * rng.uniform(0.1, 5.0) + rng.normal() * 3.0
        fit = fit_ols(x)
        alpha, beta = normal_equations_fit(np.arange(1, k + 1), x)
        assert fit.alpha_hat == pytest.approx(alpha, rel=1e-10, abs=1e-10)
        assert fit.beta_hat == pytest.approx(beta, rel=1e-10, abs=1e-10)


def test_insufficient_and_degenerate_errors():
    for values in ([1.0], 1.0):
        with pytest.raises(InsufficientDataError):
            fit_ols(values)


def test_predict_examples():
    assert KnownPrechange(1.0, 0.0).predict_at_index(123) == 1.0
    assert KnownPrechange(0.0, 2.0).predict_at_index(3) == 6.0
    fit = fit_ols(np.random.default_rng(2).normal(size=30))
    assert fit.predict_at_index(11) - fit.predict_at_index(10) == pytest.approx(fit.beta_hat)


@pytest.mark.parametrize("alpha, beta", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                         (0.0, -math.inf)])
def test_known_line_must_be_finite(alpha, beta):
    with pytest.raises(ValueError, match="known line must be finite"):
        KnownPrechange(alpha, beta)


def test_normal_equation_invariants():
    rng = np.random.default_rng(12)
    x = rng.normal(size=80) * 2.0 + 0.1 * np.arange(80)
    fit = fit_ols(x)
    t = np.arange(1, 81)
    resid = x - (fit.alpha_hat + fit.beta_hat * t)
    assert abs(resid.sum()) < 1e-9
    # shift equivariance
    shifted = fit_ols(x + 5.0)
    assert shifted.alpha_hat == pytest.approx(fit.alpha_hat + 5.0, rel=1e-9)
    assert shifted.beta_hat == pytest.approx(fit.beta_hat, rel=1e-9, abs=1e-12)


def test_standardize_degenerate_history():
    with pytest.raises(DegenerateScaleError):
        standardize(np.full(20, 5.0), 10)


def test_standardize_identity_when_already_standard():
    hist = np.array([-1.0, 1.0, -1.0, 1.0])  # mean 0, sd(ddof=1) ~ 1.1547
    hist = hist / hist.std(ddof=1)
    data = np.concatenate([hist, [2.0, -3.0]])
    out, (mean, sd) = standardize(data, 4)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert sd == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out, data, atol=1e-12)


def test_standardized_history_has_unit_moments():
    rng = np.random.default_rng(14)
    data = rng.normal(3.0, 2.5, size=500)
    out, _ = standardize(data, 200)
    assert out[:200].mean() == pytest.approx(0.0, abs=1e-12)
    assert out[:200].std(ddof=1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("standardize_first", [False, True], ids=["raw", "standardized"])
@pytest.mark.parametrize("k", [50, 200])
def test_block_fit_is_tiling_invariant_and_equals_fit_ols(standardize_first, k):
    # a replication row gets the same line bits whichever rows it is
    # fitted with, and the bits fit_ols gives the row on its own
    from linewatch.prechange import _row_lines

    rows = 1000
    hist = np.random.default_rng(7).standard_normal((rows, k)) * 1.7 + 0.3
    alpha, beta, _ = _row_lines(hist, standardize_first)
    for tile in (1, 3, 333):
        parts = [_row_lines(hist[lo:lo + tile], standardize_first)
                 for lo in range(0, rows, tile)]
        assert np.array_equal(np.concatenate([p[0] for p in parts]), alpha)
        assert np.array_equal(np.concatenate([p[1] for p in parts]), beta)
    for row in range(rows):
        z = standardize(hist[row], k)[0] if standardize_first else hist[row]
        fit = fit_ols(z)
        assert (fit.alpha_hat, fit.beta_hat) == (alpha[row, 0], beta[row, 0])
