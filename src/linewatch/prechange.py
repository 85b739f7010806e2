"""Least-squares fit of the pre-change line.

The fit is ordinary simple linear regression of observation on time.
Time is the 1-based observation index divided by an integer
``time_unit``: 1 (the default) keeps raw indices, and a horizon n
gives fractions of that horizon, as the rate-scaling experiments use.
Every fit records its unit so the two cannot be mixed accidentally.

The fit is held in centered form (means plus centered second moments)
to avoid cancellation on long histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

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

    def predict(self, t: float) -> float:
        return self.alpha_hat + self.beta_hat * t

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

    def predict(self, t: float) -> float:
        return self.alpha + self.beta * t

    def predict_at_index(self, index: int) -> float:
        return self.alpha + self.beta * (index / self.time_unit)


def fit_ols(
    values: Sequence[float],
    time_unit: int = 1,
    start_index: int = 1,
) -> PrechangeFit:
    """Fit the pre-change line to ``values`` observed at consecutive
    indices ``start_index, start_index + 1, ...``, at times
    index / ``time_unit``."""
    _check_time_unit(time_unit)
    x = np.asarray(values, dtype=float)
    k = x.size
    if k < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {k}")
    try:
        t = np.arange(start_index, start_index + k) / time_unit
    except OverflowError:
        raise SingularDesignError(
            f"time unit {time_unit} is beyond float range; slope is not identifiable"
        ) from None
    mean_t = float(t.mean())
    mean_x = float(x.mean())
    dt = t - mean_t
    dx = x - mean_x
    s_tt = float(dt @ dt)
    s_tx = float(dt @ dx)
    s_xx = float(dx @ dx)
    if s_tt <= 0.0:
        raise SingularDesignError(
            "design times are all equal; slope is not identifiable"
        )
    beta = s_tx / s_tt
    alpha = mean_x - beta * mean_t
    if k >= 3:
        rss = max(s_xx - beta * s_tx, 0.0)
        resid_sd = math.sqrt(rss / (k - 2))
    else:
        resid_sd = 0.0
    return PrechangeFit(
        alpha_hat=alpha,
        beta_hat=beta,
        k=k,
        time_unit=time_unit,
        mean_t=mean_t,
        mean_x=mean_x,
        s_tt=s_tt,
        s_tx=s_tx,
        s_xx=s_xx,
        resid_sd=resid_sd,
    )


def standardize(
    values: Sequence[float], k: int
) -> Tuple[np.ndarray, Tuple[float, float]]:
    """Center and scale the whole array by the mean and standard
    deviation (ddof=1) of the first ``k`` observations.

    Returns the transformed array and the (mean, sd) that were used.
    """
    x = np.asarray(values, dtype=float)
    if k < 2:
        raise InsufficientDataError(f"need at least 2 historical observations, got {k}")
    if k > x.size:
        raise ValueError(f"historical length {k} exceeds data length {x.size}")
    hist = x[:k]
    mean = float(hist.mean())
    sd = float(hist.std(ddof=1))
    if sd == 0.0:
        raise DegenerateScaleError("historical segment has zero variance")
    return (x - mean) / sd, (mean, sd)
