"""Monte Carlo threshold tuning.

Null streams (zero line plus noise) run through the engine's Monte
Carlo driver with its running-max reduction: each replication keeps its
max |J| and |K| over the monitored range, startup transient included,
as it goes segment by segment, and thresholds are read off as
empirical quantiles.  Each row's pre-change line is fitted on
observation indices; the thresholds are in residual units, which no
rescaling of time changes.

Conventions: a stream with the change nominally at monitoring step
``horizon`` is drawn for k + horizon - 1 observations and monitored
over steps 1..horizon-1, so an alarm strictly before the change counts
as a false alarm.  The threshold at level eta is the
ceil((1 - eta) * r)-th order statistic of the maxima; several
statistics share one rank q, each taking its q-th smallest maximum, at
which their union exceedance is closest to eta, read from one count of
per-row ranks (see ``_thresholds``).  Average run length targets reuse
the same rule at the level ``CalibrationSpec.level`` gives them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .detector import DetectorConfig
from .engine import replicate, segment_maxima
from .errors import CalibrationResolutionError
from .signal import NoiseSpec

__all__ = [
    "CalibrationResult",
    "CalibrationSpec",
    "MultiBinCalibration",
    "NullMaxima",
    "calibrate",
    "calibrate_multi_bin",
    "simulate_null_maxima",
]


@dataclass(frozen=True)
class CalibrationSpec:
    """A tuning request.

    The target is a false-alarm level ``eta`` with the change nominally
    at monitoring step ``horizon``, or with ``arl`` (and no eta) an
    average run length of ``horizon`` steps.  Thresholds are left to the
    calibration; only the bin sizes are specified here, and the
    statistics without one are not calibrated.
    """

    replications: int
    horizon: int
    k: int
    n_jump: Optional[int]
    n_kink: Optional[int]
    noise: NoiseSpec
    master_seed: int
    eta: Optional[float] = None
    arl: bool = False
    standardize: bool = False

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.arl:
            if self.eta is not None:
                raise ValueError(f"an ARL target takes no eta, got eta = {self.eta}")
        elif self.eta is None:
            raise ValueError("a false-alarm target needs eta")
        elif not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.horizon < 2:
            raise ValueError(
                f"horizon must be >= 2 (steps 1..horizon-1 are monitored), got {self.horizon}"
            )
        if self.k < 2:
            raise ValueError("need k >= 2 historical observations to fit")
        if self.n_jump is None and self.n_kink is None:
            raise ValueError("at least one statistic must have a bin size")
        DetectorConfig(self.n_jump, self.n_kink)  # the bin-size rule

    @property
    def level(self) -> float:
        """Probability of a null crossing within ``horizon`` steps that
        the thresholds are tuned to: eta, or 1 - 1/e for an ARL target,
        since the null run length is roughly exponential (Siegmund,
        *Sequential Analysis*, 1985, ch. II)."""
        return 1.0 - 1.0 / math.e if self.arl else self.eta


@dataclass(frozen=True)
class NullMaxima:
    """Per-replication max |J| and max |K| on null streams."""

    jump: Optional[np.ndarray]
    kink: Optional[np.ndarray]


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated thresholds plus the error rates achieved on the
    calibration sample."""

    spec: CalibrationSpec
    method: str
    rho_jump: float
    rho_kink: float
    empirical_fa: float
    fa_jump: Optional[float]
    fa_kink: Optional[float]
    eta_marginal: float

    def to_config(self) -> DetectorConfig:
        return DetectorConfig(
            n_jump=self.spec.n_jump if math.isfinite(self.rho_jump) else None,
            n_kink=self.spec.n_kink if math.isfinite(self.rho_kink) else None,
            rho_jump=self.rho_jump,
            rho_kink=self.rho_kink,
        )


# Rows per generator of the calibration maxima (see ``engine.replicate``):
# every row runs the full horizon, so a block wastes no draws (but for a
# last partial block's surplus), and a chunk builds one generator and
# makes one draw call per 16 rows and segment, not per row.
_MAXIMA_BLOCK = 16


def _null_maxima_for_bins(
    spec: CalibrationSpec, bins: Sequence[Tuple[Optional[int], Optional[int]]]
) -> List[Tuple[Optional[np.ndarray], Optional[np.ndarray]]]:
    """Maxima of |J| / |K| per (n_jump, n_kink) pair on shared streams:
    the engine driver with the running-max reduction."""
    t_mon = spec.horizon - 1
    maxima = iter(replicate(
        spec.noise, spec.master_seed, spec.replications, spec.k, spec.k + spec.horizon,
        lambda rows, residuals: segment_maxima(rows, t_mon, bins, residuals),
        standardize_first=spec.standardize, block=_MAXIMA_BLOCK))
    return [tuple(None if n is None else next(maxima) for n in pair) for pair in bins]


def simulate_null_maxima(spec: CalibrationSpec) -> NullMaxima:
    """Replay r independent null streams through the detector statistics
    and keep each stream's maximum |J| and |K|."""
    ((jmax, kmax),) = _null_maxima_for_bins(spec, [(spec.n_jump, spec.n_kink)])
    return NullMaxima(jump=jmax, kink=kmax)


def _order_statistic(sorted_maxima: np.ndarray, level: float) -> float:
    """The ceil((1 - level) * r)-th order statistic of r sorted maxima; the
    slack, relative to r, lets the level (r - q) / r read the q-th at any r."""
    r = sorted_maxima.shape[0]
    q = math.ceil((1.0 - level) * r - 1e-12 * r)
    return float(sorted_maxima[min(max(q, 1), r) - 1])


def _thresholds(
    families: Sequence[np.ndarray], level: float, r: int
) -> Tuple[float, List[float], float]:
    """Thresholds, one per family of r maxima, whose union exceedance is
    the target level; returns (marginal level, thresholds, that union).
    One family takes its order statistic at the level itself.  Several
    share the rank q whose union is closest to the target, on a tie the
    last whose union reaches it, each taking its q-th smallest maximum;
    their level is (r - q) / r."""
    if level < 1.0 / r:
        raise CalibrationResolutionError(
            f"eta = {level} is below the 1/r = {1.0 / r} resolution of {r} replications")
    sorted_fams = [np.sort(f) for f in families]
    if len(families) == 1:
        rho = _order_statistic(sorted_fams[0], level)
        return level, [rho], float((families[0] >= rho).mean())
    # A row reaches a family's q-th smallest maximum iff its rank there
    # (tied rows share the top one) is >= q, and some family's iff its
    # highest rank is; union[q] is the fraction of such rows, q = 0..r.
    top = np.max([np.searchsorted(s, f, side="right") for s, f in zip(sorted_fams, families)],
                 axis=0)
    union = np.cumsum(np.bincount(top, minlength=r + 1)[::-1])[::-1] / r
    q = int(np.count_nonzero(union >= level)) - 1  # union falls with q; union[1] = 1
    if q < r and abs(union[q + 1] - level) < abs(union[q] - level):
        q += 1
    return (r - q) / r, [float(s[q - 1]) for s in sorted_fams], float(union[q])


def calibrate(spec: CalibrationSpec, maxima: Optional[NullMaxima] = None) -> CalibrationResult:
    """Thresholds for the statistics that have bin sizes in ``spec``, at
    its target level: one statistic alone (method ``single-<kind>``, the
    other threshold infinite) or both sharing the budget (``joint``),
    prefixed ``arl-`` for an ARL target.

    ``maxima`` stands in for the simulation of ``spec``, so that one
    ``simulate_null_maxima`` run serves several calibrations, e.g. each
    statistic alone and both together:
    ``calibrate(replace(spec, n_kink=None), maxima=maxima)``.
    """
    if maxima is None:
        maxima = simulate_null_maxima(spec)
    kinds = [kind for kind, n in (("jump", spec.n_jump), ("kink", spec.n_kink)) if n is not None]
    families = [getattr(maxima, kind) for kind in kinds]
    if any(f is None for f in families):
        raise ValueError(f"maxima lack a statistic of {kinds} that the spec calibrates")
    eta_m, rhos, union = _thresholds(families, spec.level, spec.replications)
    rho = dict(zip(kinds, rhos))
    fa = {kind: float((f >= rho[kind]).mean()) for kind, f in zip(kinds, families)}
    method = "joint" if len(kinds) == 2 else f"single-{kinds[0]}"
    return CalibrationResult(
        spec=spec,
        method=f"arl-{method}" if spec.arl else method,
        rho_jump=rho.get("jump", math.inf),
        rho_kink=rho.get("kink", math.inf),
        empirical_fa=union,
        fa_jump=fa.get("jump"),
        fa_kink=fa.get("kink"),
        eta_marginal=eta_m,
    )


@dataclass(frozen=True)
class MultiBinCalibration:
    """Per-scale thresholds sharing one marginal level."""

    spec: CalibrationSpec
    scales: Tuple[int, ...]
    rho_jump: Tuple[float, ...]
    rho_kink: Tuple[float, ...]
    empirical_fa: float
    eta_marginal: float

    def to_configs(self) -> List[DetectorConfig]:
        return [
            DetectorConfig(n, n, rj, rk)
            for n, rj, rk in zip(self.scales, self.rho_jump, self.rho_kink)
        ]


def calibrate_multi_bin(spec: CalibrationSpec, scales: Sequence[int]) -> MultiBinCalibration:
    """Joint calibration across several bin sizes: every scale runs both
    statistics on the same null streams, and all of them share the one
    rank whose union exceedance is closest to the spec's target."""
    if len(scales) == 0:
        raise ValueError("scales must be non-empty")
    for n in scales:
        DetectorConfig(n, n)  # the bin-size rule
    per_scale = _null_maxima_for_bins(spec, [(n, n) for n in scales])
    families = [f for pair in per_scale for f in pair]
    eta_m, rhos, union = _thresholds(families, spec.level, spec.replications)
    return MultiBinCalibration(
        spec=spec,
        scales=tuple(int(n) for n in scales),
        rho_jump=tuple(rhos[0::2]),
        rho_kink=tuple(rhos[1::2]),
        empirical_fa=union,
        eta_marginal=eta_m,
    )
