"""The pre-change line: least-squares fit, standardization and residuals.

The fit is ordinary simple linear regression of observation on the
1-based observation index.  No other time scale is needed: rescaling
the regressor rescales the fitted slope by the same factor and leaves
the fitted values, and so every residual, unchanged (Seber & Lee,
*Linear Regression Analysis*, 2003, ch. 3), and the detector sees only
residuals.

This module holds the only arithmetic of the line, for one series
(``fit_ols``, ``standardize``, ``detector.run``) and for a block of
Monte Carlo replication rows (``engine.replicate``) alike: the series
is the one-row case of the block.  The fit is held in centered form
(means plus centered second moments) to avoid cancellation on long
histories, and is built from NumPy row reductions, so each row gets
the same bits whichever rows it is fitted with.

A row of Gaussian noise need not hold its history to get its line:
the fit's sufficient statistics have a closed-form law, so
``_sampled_row_lines`` forms each row's line, and its standardizing
(mean, sd), from two draws (three when standardized) instead of k (see
there).  Rows of other
noise are fitted to their drawn history (``_row_lines``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateScaleError, InsufficientDataError

__all__ = [
    "KnownPrechange",
    "PrechangeFit",
    "fit_ols",
    "standardize",
]


@dataclass(frozen=True)
class PrechangeFit:
    """OLS line through the first k observations.

    ``mean_t``/``mean_x`` and the centered moments ``s_tt``/``s_tx``/
    ``s_xx`` are the sufficient statistics.  ``resid_sd`` is
    sqrt(RSS / (k - 2)) for k >= 3 and 0.0 for the exactly-determined
    two-point fit.
    """

    alpha_hat: float
    beta_hat: float
    k: int
    mean_t: float
    mean_x: float
    s_tt: float
    s_tx: float
    s_xx: float
    resid_sd: float

    def predict_at_index(self, index: int) -> float:
        return self.alpha_hat + self.beta_hat * index


@dataclass(frozen=True)
class KnownPrechange:
    """A pre-change line supplied by the user instead of being fitted."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"known line must be finite, got alpha = {self.alpha}, "
                             f"beta = {self.beta}")

    def predict_at_index(self, index: int) -> float:
        return self.alpha + self.beta * index


def _times(first_index: int, length: int) -> np.ndarray:
    """``length`` indices from ``first_index`` as floats, each rounded as
    ``predict_at_index`` rounds its index (a float ``arange`` would
    round differently past 2**53)."""
    return np.arange(first_index, first_index + length).astype(float)


def _line(prechange) -> Tuple[float, float]:
    """(alpha, beta) of a fitted or a known pre-change line."""
    if isinstance(prechange, PrechangeFit):
        return prechange.alpha_hat, prechange.beta_hat
    return prechange.alpha, prechange.beta


def _fit_rows(hist: np.ndarray):
    """The OLS fit of each row of ``hist`` (its last axis, k values) on
    indices 1..k: (alpha, beta, mean_t, mean_x, s_tt, s_tx), the per-row
    ones with one value per row."""
    k = hist.shape[-1]
    if k < 2:
        raise InsufficientDataError(f"need history k >= 2 to fit, got {k}")
    t = _times(1, k)
    mean_t = t.mean()
    dt = t - mean_t
    s_tt = (dt * dt).sum()  # > 0: k >= 2 distinct indices
    mean_x = hist.mean(axis=-1)
    products = hist - mean_x[..., None]
    products *= dt
    s_tx = products.sum(axis=-1)
    beta = s_tx / s_tt
    return mean_x - beta * mean_t, beta, mean_t, mean_x, s_tt, s_tx


def fit_ols(values: Sequence[float]) -> PrechangeFit:
    """Fit the pre-change line to ``values`` observed at indices 1, 2, ..."""
    x = np.atleast_1d(np.asarray(values, dtype=float))
    alpha, beta, mean_t, mean_x, s_tt, s_tx = map(float, _fit_rows(x))
    dx = x - mean_x
    s_xx = float((dx * dx).sum())
    k = x.size
    resid_sd = math.sqrt(max(s_xx - beta * s_tx, 0.0) / (k - 2)) if k >= 3 else 0.0
    return PrechangeFit(alpha, beta, k, mean_t, mean_x, s_tt, s_tx, s_xx, resid_sd)


def _standardize_rows(x: np.ndarray, k: int):
    """(x - mean) / sd per row of ``x``, with the mean and standard
    deviation (ddof=1) of the row's first ``k`` values, and those
    (mean, sd) as columns."""
    if k < 2:
        raise InsufficientDataError(f"need at least 2 historical observations, got {k}")
    if k > x.shape[-1]:
        raise ValueError(f"historical length {k} exceeds data length {x.shape[-1]}")
    hist = x[..., :k]
    mean = hist.mean(axis=-1, keepdims=True)
    sd = hist.std(axis=-1, ddof=1, keepdims=True)
    if np.any(sd == 0.0):
        raise DegenerateScaleError("historical segment has zero variance")
    return (x - mean) / sd, (mean, sd)


def standardize(
    values: Sequence[float], k: int
) -> Tuple[np.ndarray, Tuple[float, float]]:
    """Center and scale the whole array by the mean and standard
    deviation (ddof=1) of the first ``k`` observations.

    Returns the transformed array and the (mean, sd) that were used.
    """
    z, (mean, sd) = _standardize_rows(np.atleast_1d(np.asarray(values, dtype=float)), k)
    return z, (float(mean[0]), float(sd[0]))


def _row_lines(hist: np.ndarray, standardize_first: bool):
    """(alpha, beta, scaling) of a block of replication rows with
    history ``hist`` (rows x k), as ``detector.run`` gives each row its
    fitted line: each row standardized by its own history when
    ``standardize_first`` (scaling then holds the (mean, sd) columns,
    else None), then fitted.  alpha and beta are (rows, 1) columns."""
    scaling = None
    if standardize_first:
        hist, scaling = _standardize_rows(hist, hist.shape[-1])
    alpha, beta = _fit_rows(hist)[:2]
    return alpha[:, None], beta[:, None], scaling


def _sampled_row_lines(signal: np.ndarray, draws: np.ndarray, standardize_first: bool):
    """(alpha, beta, scaling) of a block of replication rows, as
    ``_row_lines`` gives them, for rows whose history is the k values of
    ``signal``, which lie on one line, plus Gaussian noise of scale
    sigma: drawn from its law, not fitted to drawn values.

    Under Gaussian errors the OLS line is normal with covariance
    sigma^2 (X'X)^-1 and independent of the residual sum of squares,
    which is sigma^2 chi^2_{k-2} (Seber & Lee, *Linear Regression
    Analysis*, 2003, ch. 3; Cochran, 1934).  Row i of ``draws`` holds
    sigma z0, sigma z1 for independent standard normals and, when
    ``standardize_first``, an RSS drawn as sigma^2 chi^2_{k-2}.  The
    history then has mean(signal) + sigma z0 / sqrt(k) and centered
    cross moment s_tx(signal) + sigma z1 sqrt(s_tt) (the centered indices
    sum to zero, so the two are independent), and, the signal being
    one line, centered square sum s_tx^2 / s_tt + RSS, which gives its
    standard deviation (ddof=1).  Standardized by its own mean and sd,
    the history has mean 0 and cross moment s_tx / sd.
    """
    k = signal.shape[-1]
    _, _, mean_t, mean_x, s_tt, s_tx = _fit_rows(signal)
    mean_x = mean_x + draws[:, 0] / math.sqrt(k)
    s_tx = s_tx + draws[:, 1] * math.sqrt(s_tt)
    scaling = None
    if standardize_first:
        sd = np.sqrt((s_tx * s_tx / s_tt + draws[:, 2]) / (k - 1))
        if np.any(sd == 0.0):
            raise DegenerateScaleError("historical segment has zero variance")
        scaling = (mean_x[:, None], sd[:, None])
        mean_x, s_tx = 0.0, s_tx / sd
    beta = s_tx / s_tt
    return (mean_x - beta * mean_t)[:, None], beta[:, None], scaling


def _residuals(x: np.ndarray, first_index: int, alpha, beta,
               scaling: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """Residuals of the observations ``x`` (along its last axis) at
    indices ``first_index`` .. against alpha + beta * index, with
    ``predict_at_index``'s operations; ``x`` is standardized first by
    ``scaling`` = (mean, sd) when given."""
    if scaling is not None:
        mean, sd = scaling
        x = (x - mean) / sd
    return x - (alpha + beta * _times(first_index, x.shape[-1]))
