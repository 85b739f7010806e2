"""The pre-change line: least-squares fit, standardization and residuals.

The fit is ordinary simple linear regression of observation on time.
Time is the 1-based observation index divided by an integer
``time_unit``: 1 (the default) keeps raw indices, and a horizon n
gives fractions of that horizon, as the rate-scaling experiments use.
Every fit records its unit so the two cannot be mixed accidentally.

This module holds the only arithmetic of the line, for one series
(``fit_ols``, ``standardize``, ``detector.run``) and for a block of
Monte Carlo replication rows (``engine.replicate``) alike: the series
is the one-row case of the block.  The fit is held in centered form
(means plus centered second moments) to avoid cancellation on long
histories, and is built from NumPy row reductions, so each row gets
the same bits whichever rows it is fitted with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateScaleError, InsufficientDataError, SingularDesignError

__all__ = [
    "KnownPrechange",
    "PrechangeFit",
    "fit_ols",
    "standardize",
]


def _check_time_unit(time_unit: int) -> None:
    if time_unit < 1:
        raise ValueError(f"time unit must be >= 1, got {time_unit}")


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
    time_unit: int
    mean_t: float
    mean_x: float
    s_tt: float
    s_tx: float
    s_xx: float
    resid_sd: float

    def predict_at_index(self, index: int) -> float:
        return self.alpha_hat + self.beta_hat * (index / self.time_unit)


@dataclass(frozen=True)
class KnownPrechange:
    """A pre-change line supplied by the user instead of being fitted."""

    alpha: float
    beta: float
    time_unit: int = 1

    def __post_init__(self) -> None:
        _check_time_unit(self.time_unit)

    def predict_at_index(self, index: int) -> float:
        return self.alpha + self.beta * (index / self.time_unit)


def _times(first_index: int, length: int, time_unit: int) -> np.ndarray:
    """index / ``time_unit`` for ``length`` indices from ``first_index``,
    divided as ``predict_at_index`` divides: NumPy would round a unit
    above 2**53 to a float first, so such a unit takes Python's exact
    integer division."""
    index = np.arange(first_index, first_index + length)
    if time_unit <= 2**53:
        return index / time_unit
    return np.array([i / time_unit for i in index.tolist()], dtype=float)


def _line(prechange) -> Tuple[float, float]:
    """(alpha, beta) of a fitted or a known pre-change line."""
    if isinstance(prechange, PrechangeFit):
        return prechange.alpha_hat, prechange.beta_hat
    return prechange.alpha, prechange.beta


def _fit_rows(hist: np.ndarray, time_unit: int):
    """The OLS fit of each row of ``hist`` (its last axis, k values) on
    times 1..k / ``time_unit``: (alpha, beta, mean_t, mean_x, s_tt,
    s_tx), the per-row ones with one value per row."""
    _check_time_unit(time_unit)
    k = hist.shape[-1]
    if k < 2:
        raise InsufficientDataError(f"need history k >= 2 to fit, got {k}")
    t = _times(1, k, time_unit)
    mean_t = t.mean()
    dt = t - mean_t
    s_tt = (dt * dt).sum()
    if s_tt <= 0.0:
        raise SingularDesignError("design times have no spread; slope is not identifiable")
    mean_x = hist.mean(axis=-1)
    products = hist - mean_x[..., None]
    products *= dt
    s_tx = products.sum(axis=-1)
    beta = s_tx / s_tt
    return mean_x - beta * mean_t, beta, mean_t, mean_x, s_tt, s_tx


def fit_ols(values: Sequence[float], time_unit: int = 1) -> PrechangeFit:
    """Fit the pre-change line to ``values`` observed at indices 1, 2,
    ..., at times index / ``time_unit``."""
    x = np.atleast_1d(np.asarray(values, dtype=float))
    alpha, beta, mean_t, mean_x, s_tt, s_tx = map(float, _fit_rows(x, time_unit))
    dx = x - mean_x
    s_xx = float((dx * dx).sum())
    k = x.size
    resid_sd = math.sqrt(max(s_xx - beta * s_tx, 0.0) / (k - 2)) if k >= 3 else 0.0
    return PrechangeFit(alpha, beta, k, time_unit, mean_t, mean_x, s_tt, s_tx, s_xx, resid_sd)


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


def _row_lines(hist: np.ndarray, time_unit: int, prechange: Optional[KnownPrechange],
               standardize_first: bool):
    """(alpha, beta, time unit, scaling) of a block of replication rows
    with history ``hist`` (rows x k), as ``detector.run`` gives each row
    its line: each row standardized by its own history when
    ``standardize_first`` (scaling then holds the (mean, sd) columns,
    else None), then fitted, unless the known line ``prechange`` is
    given.  alpha and beta are (rows, 1) columns."""
    _check_time_unit(time_unit)
    scaling = None
    if standardize_first:
        hist, scaling = _standardize_rows(hist, hist.shape[-1])
    if prechange is not None:
        column = (hist.shape[0], 1)
        return (np.full(column, prechange.alpha), np.full(column, prechange.beta),
                prechange.time_unit, scaling)
    alpha, beta = _fit_rows(hist, time_unit)[:2]
    return alpha[:, None], beta[:, None], time_unit, scaling


def _residuals(x: np.ndarray, first_index: int, alpha, beta, time_unit: int,
               scaling: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """Residuals of the observations ``x`` (along its last axis) at
    indices ``first_index`` .. against alpha + beta * (index /
    ``time_unit``), with ``predict_at_index``'s operations; ``x`` is
    standardized first by ``scaling`` = (mean, sd) when given."""
    if scaling is not None:
        mean, sd = scaling
        x = (x - mean) / sd
    return x - (alpha + beta * _times(first_index, x.shape[-1], time_unit))
