"""Monte Carlo threshold tuning.

Null streams (zero line plus noise) run through the engine's Monte
Carlo driver with its running-max reduction: each replication keeps its
max |J| and |K| over the monitored range, startup transient included,
as it goes segment by segment, and thresholds are read off as
empirical quantiles.

Conventions: a stream with the change nominally at monitoring step
``horizon`` is drawn for k + horizon - 1 observations and monitored
over steps 1..horizon-1, so an alarm strictly before the change counts
as a false alarm.  The threshold at level eta is the
ceil((1 - eta) * r)-th order statistic of the maxima.  Average run
length targets reuse the same machinery with eta = 1 - 1/e and horizon
equal to the target, exploiting the roughly exponential null run
length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .detector import DetectorConfig
from .engine import replicate, segment_maxima
from .errors import CalibrationResolutionError
from .prechange import KnownPrechange, _check_time_unit
from .signal import NoiseSpec

__all__ = [
    "CalibrationResult",
    "CalibrationSpec",
    "MultiBinCalibration",
    "NullMaxima",
    "calibrate",
    "calibrate_joint",
    "calibrate_multi_bin",
    "calibrate_single",
    "simulate_null_maxima",
]


@dataclass(frozen=True)
class CalibrationSpec:
    """A tuning request.

    ``horizon`` is the nominal change position in monitoring steps for
    false-alarm targets, or the target average run length for ARL
    targets.  ``eta`` is the target type-I level.  Thresholds are left
    to the calibration; only the bin sizes are specified here.  Times
    are observation indices divided by ``time_unit``.
    """

    replications: int
    eta: float
    horizon: int
    k: int
    n_jump: Optional[int]
    n_kink: Optional[int]
    noise: NoiseSpec
    master_seed: int
    prechange: Optional[KnownPrechange] = None
    time_unit: int = 1
    standardize: bool = False

    def __post_init__(self) -> None:
        _check_time_unit(self.time_unit)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.prechange is None and self.k < 2:
            raise ValueError("need k >= 2 historical observations to fit")
        if self.n_jump is None and self.n_kink is None:
            raise ValueError("at least one statistic must have a bin size")


@dataclass(frozen=True)
class NullMaxima:
    """Per-replication max |J| and max |K| on null streams."""

    jump: Optional[np.ndarray]
    kink: Optional[np.ndarray]


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated thresholds plus the error rates achieved on the
    calibration sample.

    ``maxima`` holds the per-replication max-statistic samples when the
    caller asked for them to be retained (``maxima_retained``), e.g. to
    recalibrate at another level without resimulating.
    """

    spec: CalibrationSpec
    method: str
    rho_jump: float
    rho_kink: float
    empirical_fa: float
    fa_jump: Optional[float]
    fa_kink: Optional[float]
    eta_marginal: float
    maxima: Optional[NullMaxima] = None

    @property
    def maxima_retained(self) -> bool:
        return self.maxima is not None

    def to_config(self) -> DetectorConfig:
        return DetectorConfig(
            n_jump=self.spec.n_jump if math.isfinite(self.rho_jump) else None,
            n_kink=self.spec.n_kink if math.isfinite(self.rho_kink) else None,
            rho_jump=self.rho_jump,
            rho_kink=self.rho_kink,
        )


def _null_maxima_for_bins(
    spec: CalibrationSpec, bins: Sequence[Tuple[Optional[int], Optional[int]]]
) -> List[Tuple[Optional[np.ndarray], Optional[np.ndarray]]]:
    """Maxima of |J| / |K| per (n_jump, n_kink) pair on shared streams:
    the engine driver with the running-max reduction."""
    t_mon = spec.horizon - 1
    if t_mon == 0:
        return [tuple(None if n is None else np.zeros(spec.replications) for n in pair)
                for pair in bins]
    maxima = iter(replicate(
        spec.noise, spec.master_seed, spec.replications, spec.k, spec.k + spec.horizon,
        lambda rows, residuals: segment_maxima(rows, t_mon, bins, residuals),
        time_unit=spec.time_unit, prechange=spec.prechange, standardize_first=spec.standardize))
    return [tuple(None if n is None else next(maxima) for n in pair) for pair in bins]


def simulate_null_maxima(spec: CalibrationSpec) -> NullMaxima:
    """Replay r independent null streams through the detector statistics
    and keep each stream's maximum |J| and |K|."""
    ((jmax, kmax),) = _null_maxima_for_bins(spec, [(spec.n_jump, spec.n_kink)])
    return NullMaxima(jump=jmax, kink=kmax)


def _order_statistic(sorted_maxima: np.ndarray, eta: float) -> Tuple[float, float]:
    """Threshold at level eta and its exceedance fraction on the sample."""
    r = sorted_maxima.shape[0]
    q = math.ceil((1.0 - eta) * r - 1e-12)
    q = min(max(q, 1), r)
    rho = float(sorted_maxima[q - 1])
    exceed = r - int(np.searchsorted(sorted_maxima, rho, side="left"))
    return rho, exceed / r


def calibrate_single(
    spec: CalibrationSpec,
    which: str,
    maxima: Optional[NullMaxima] = None,
    retain_maxima: bool = False,
) -> CalibrationResult:
    """Smallest threshold whose null exceedance is at most eta, as the
    (1 - eta) empirical quantile of the relevant maxima; the other
    statistic is disabled via an infinite threshold."""
    if which not in ("jump", "kink"):
        raise ValueError(f"which must be 'jump' or 'kink', got {which!r}")
    if maxima is None:
        maxima = simulate_null_maxima(spec)
    arr = maxima.jump if which == "jump" else maxima.kink
    if arr is None:
        raise ValueError(f"{which} statistic has no bin size in this spec")
    rho, fa = _order_statistic(np.sort(arr), spec.eta)
    return CalibrationResult(
        spec=spec,
        method=f"single-{which}",
        rho_jump=rho if which == "jump" else math.inf,
        rho_kink=rho if which == "kink" else math.inf,
        empirical_fa=fa,
        fa_jump=fa if which == "jump" else None,
        fa_kink=fa if which == "kink" else None,
        eta_marginal=spec.eta,
        maxima=maxima if retain_maxima else None,
    )


def _bisect_common_level(
    families: Sequence[np.ndarray], eta: float, replications: int
) -> Tuple[float, List[float], float]:
    """Common marginal level eta' such that the union exceedance over
    all maxima families is eta; returns (eta', thresholds, union)."""
    if eta < 1.0 / replications:
        raise CalibrationResolutionError(
            f"eta = {eta} is below the 1/r = {1.0 / replications} resolution "
            f"of {replications} replications"
        )
    sorted_fams = [np.sort(f) for f in families]

    def union_at(level: float) -> Tuple[float, List[float]]:
        rhos = [_order_statistic(f, level)[0] for f in sorted_fams]
        hit = np.zeros(replications, dtype=bool)
        for fam, rho in zip(families, rhos):
            hit |= fam >= rho
        return float(hit.mean()), rhos

    lo, hi = 0.0, eta
    # union_at is non-decreasing in the level, and union_at(eta) >= eta.
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        g_mid, _ = union_at(mid)
        if g_mid < eta:
            lo = mid
        else:
            hi = mid
    g_lo, rhos_lo = union_at(lo)
    g_hi, rhos_hi = union_at(hi)
    if abs(g_lo - eta) < abs(g_hi - eta):
        return lo, rhos_lo, g_lo
    return hi, rhos_hi, g_hi


def calibrate_joint(
    spec: CalibrationSpec,
    maxima: Optional[NullMaxima] = None,
    retain_maxima: bool = False,
) -> CalibrationResult:
    """Equalize the two marginal levels so that the probability of
    either detector alarming before the change hits eta."""
    if spec.n_jump is None or spec.n_kink is None:
        raise ValueError("joint calibration needs both statistics enabled")
    if maxima is None:
        maxima = simulate_null_maxima(spec)
    eta_m, (rho_j, rho_k), union = _bisect_common_level(
        [maxima.jump, maxima.kink], spec.eta, spec.replications
    )
    fa_j = float((maxima.jump >= rho_j).mean())
    fa_k = float((maxima.kink >= rho_k).mean())
    return CalibrationResult(
        spec=spec,
        method="joint",
        rho_jump=rho_j,
        rho_kink=rho_k,
        empirical_fa=union,
        fa_jump=fa_j,
        fa_kink=fa_k,
        eta_marginal=eta_m,
        maxima=maxima if retain_maxima else None,
    )


ETA_ARL = 1.0 - 1.0 / math.e


def calibrate(
    spec: CalibrationSpec,
    which: str = "both",
    arl: bool = False,
    maxima: Optional[NullMaxima] = None,
    retain_maxima: bool = False,
) -> CalibrationResult:
    """Calibrate ``which`` statistic ('jump', 'kink' or 'both') to a
    false-alarm level, or with ``arl`` to an average run length equal
    to ``spec.horizon``: single calibration for one statistic, joint
    calibration for both.

    Under the null the run length is roughly exponential, so an ARL
    target is met by a crossing probability of 1 - 1/e over one
    target-length window.
    """
    if arl:
        spec = replace(spec, eta=ETA_ARL)
    if which == "both":
        result = calibrate_joint(spec, maxima=maxima, retain_maxima=retain_maxima)
    else:
        result = calibrate_single(spec, which, maxima=maxima, retain_maxima=retain_maxima)
    return replace(result, method=f"arl-{result.method}") if arl else result


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


def calibrate_multi_bin(
    spec: CalibrationSpec, scales: Sequence[int], eta: Optional[float] = None
) -> MultiBinCalibration:
    """Joint calibration across several bin sizes: every scale runs both
    statistics on the same null streams, and one common marginal level
    is bisected so the union exceedance meets the target."""
    if len(scales) == 0:
        raise ValueError("scales must be non-empty")
    target = spec.eta if eta is None else eta
    per_scale = _null_maxima_for_bins(spec, [(n, n) for n in scales])
    families: List[np.ndarray] = []
    for jmax, kmax in per_scale:
        families.extend([jmax, kmax])
    eta_m, rhos, union = _bisect_common_level(families, target, spec.replications)
    return MultiBinCalibration(
        spec=spec,
        scales=tuple(int(n) for n in scales),
        rho_jump=tuple(rhos[0::2]),
        rho_kink=tuple(rhos[1::2]),
        empirical_fa=union,
        eta_marginal=eta_m,
    )
