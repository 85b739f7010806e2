"""Segmented linear signals and synthetic stream generation.

A signal is two line pieces meeting (or jumping) at a change location
``tau`` given as a fraction of the horizon.  Observation ``i`` of ``n``
samples the signal at abscissa ``i/n`` plus noise.  The change is a
*jump* when the intercepts differ, a *kink* when only the slopes do.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "ChangeKind",
    "NoiseSpec",
    "SignalParams",
    "change_index",
    "eval_signal_array",
    "generate_series",
]


class ChangeKind(enum.Enum):
    JUMP = "jump"
    KINK = "kink"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SignalParams:
    """Parameters of a two-piece linear signal.

    tau is the change location as a fraction of the horizon, in (0, 1).
    ``alpha_minus``/``alpha_plus`` are the intercepts of the two pieces
    *at tau*; ``beta_minus``/``beta_plus`` the slopes per unit of
    fractional time.  A slope of ``s`` per observation on a horizon of
    ``n`` corresponds to ``beta = s * n`` here.
    """

    tau: float
    alpha_minus: float
    alpha_plus: float
    beta_minus: float
    beta_plus: float

    def __post_init__(self) -> None:
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        for name in ("alpha_minus", "alpha_plus", "beta_minus", "beta_plus"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")

    @property
    def jump_size(self) -> float:
        return abs(self.alpha_plus - self.alpha_minus)

    @property
    def kink_size(self) -> float:
        return abs(self.beta_plus - self.beta_minus)


@dataclass(frozen=True)
class NoiseSpec:
    """Observation noise: 'gaussian' with scale sigma, or 'student_t' with df.

    Student-t draws are raw (not rescaled to unit variance); the
    standardization workflow downstream divides by the historical
    standard deviation instead.  sigma = 0 is allowed and yields a
    noiseless stream.
    """

    kind: str = "gaussian"
    sigma: float = 1.0
    df: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "student_t"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian":
            if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
                raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        else:
            if self.df is None or not math.isfinite(self.df) or self.df <= 0.0:
                raise ValueError(
                    f"student_t noise needs finite df > 0, got {self.df}"
                )

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "gaussian":
            if self.sigma == 0.0:
                return np.zeros(size)
            drawn = rng.standard_normal(size)
            drawn *= self.sigma  # in place: no second array of the draw's size
            return drawn
        return rng.standard_t(self.df, size)


def eval_signal_array(theta: SignalParams, n: int) -> np.ndarray:
    """Signal values at i = 1..n; i/n == tau takes the pre-change branch."""
    if n < 1:
        raise ValueError(f"horizon n must be >= 1, got {n}")
    t = np.arange(1, n + 1) / n
    pre = theta.beta_minus * (t - theta.tau) + theta.alpha_minus
    post = theta.beta_plus * (t - theta.tau) + theta.alpha_plus
    return np.where(t <= theta.tau, pre, post)


def change_index(theta: SignalParams, n: int) -> int:
    """Last pre-change observation index, ceil(n * tau).

    A small slack guards against n * tau landing one ulp above an
    intended integer (tau is typically constructed as c / n).
    """
    return int(math.ceil(n * theta.tau - 1e-9))


def _stream(seed: int, *labels: int) -> np.random.SeedSequence:
    """Stream ``labels`` of the integer ``seed``, ``SeedSequence(seed,
    spawn_key=labels)``: the one seed rule of every random draw.  Label
    tuples of different lengths never share a stream, and no labels give
    the stream of ``np.random.default_rng(seed)``."""
    return np.random.SeedSequence(seed, spawn_key=labels)


def generate_series(theta: SignalParams, n: int, noise: NoiseSpec, seed: int) -> np.ndarray:
    """Sample X_i = signal(i/n) + noise, i = 1..n, deterministically."""
    return eval_signal_array(theta, n) + noise.draw(np.random.default_rng(_stream(seed)), n)
