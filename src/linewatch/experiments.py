"""Monte Carlo estimation of detector performance.

Covers false-alarm probability, expected detection delay, change-type
attribution, average run length (with censoring), delay-rate scaling
over a horizon grid, and robustness under heavy-tailed noise.  All
estimators run replications through the batch engine with
deterministic per-replication seeds, so identical inputs give
byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .calibration import CalibrationSpec, calibrate, simulate_null_maxima
from .detector import DetectorConfig, _rate_bins
from .engine import first_alarms
from .signal import (
    ChangeKind,
    NoiseSpec,
    SignalParams,
    _stream,
    change_index,
    eval_signal_array,
)

__all__ = [
    "MetricsReport",
    "RatePoint",
    "RateReport",
    "RobustnessReport",
    "RobustnessRow",
    "RobustnessTemplate",
    "Scenario",
    "estimate_arl",
    "estimate_metrics",
    "rate_check",
    "robustness_study",
]

Z95 = 1.959963984540054  # two-sided 95% normal quantile
_GAUSS = NoiseSpec("gaussian", 1.0)
# rate_check's design: false-alarm level per horizon, history and
# change location (fractions of n), and per kind the bin-size constant
# and change size
_RATE_FA_LEVEL = 0.1
_RATE_HISTORY = 0.5
_RATE_TAU = 0.75
_RATE_BIN_SCALE = (2.0, 0.35)  # _rate_bins' jump and kink constants
_RATE_MAGNITUDE = {ChangeKind.JUMP: 1.0, ChangeKind.KINK: 4.0}
# the studies censor null runs at this many times the ARL target
_ARL_CAP_FACTOR = 10


@dataclass(frozen=True)
class Scenario:
    """One simulation setting: signal, horizon, history, noise,
    detector configuration, replication count and master seed."""

    theta: SignalParams
    n: int
    k: int
    noise: NoiseSpec
    config: DetectorConfig
    replications: int
    master_seed: int
    standardize: bool = False

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.n <= self.k:
            raise ValueError(f"horizon {self.n} must exceed history {self.k}")
        if self.change_index <= self.k:
            raise ValueError(
                f"change index {self.change_index} must exceed history {self.k}"
            )

    @property
    def change_index(self) -> int:
        return change_index(self.theta, self.n)

    @property
    def true_kind(self) -> Optional[ChangeKind]:
        if self.theta.jump_size > 0.0:
            return ChangeKind.JUMP
        if self.theta.kink_size > 0.0:
            return ChangeKind.KINK
        return None


@dataclass(frozen=True)
class MetricsReport:
    """Estimates with 95% half-widths; fields that do not apply to the
    producing experiment are None.

    Counting contract: n_false_alarm (alarm strictly before the
    change) + n_detected (alarm at or after it) + n_missed equals
    replications.  EDD conditions on detection at or after the change.
    n_wrong_kind counts the detections whose first statistic to cross
    is not the scenario's true change kind; it is None when the
    scenario has no true change.
    """

    replications: int
    fa_prob: Optional[float] = None
    fa_halfwidth: Optional[float] = None
    n_false_alarm: int = 0
    n_detected: int = 0
    n_missed: int = 0
    edd: Optional[float] = None
    edd_halfwidth: Optional[float] = None
    n_wrong_kind: Optional[int] = None
    arl: Optional[float] = None
    arl_halfwidth: Optional[float] = None
    arl_censored: Optional[int] = None
    arl_cap: Optional[int] = None


def _binomial_halfwidth(p: float, n: int) -> float:
    return Z95 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _mean_halfwidth(values: np.ndarray) -> Optional[float]:
    if values.size < 2:
        return None
    return float(Z95 * values.std(ddof=1) / math.sqrt(values.size))


def _delay_scenario(
    jump: float, kink_per_obs: float, k: int, config: DetectorConfig,
    replications: int, seed: int, post_window: int = 4000,
    noise: NoiseSpec = _GAUSS, standardize: bool = False,
) -> Scenario:
    """Change at the first monitored observation: pure-delay measurement."""
    n = k + 1 + post_window
    theta = SignalParams((k + 1) / n, 0.0, jump, 0.0, kink_per_obs * n)
    return Scenario(theta, n, k, noise, config, replications, seed,
                    standardize=standardize)


def estimate_metrics(scenario: Scenario) -> MetricsReport:
    """False-alarm probability, detection delay and type attribution
    over fresh replications of one scenario."""
    s = scenario
    T = s.n - s.k
    alarm, kind = first_alarms(
        s.noise, s.master_seed, s.replications, s.k, s.n, s.config,
        signal=eval_signal_array(s.theta, s.n), standardize_first=s.standardize,
    )
    c_rel = s.change_index - s.k  # change position on the monitoring clock
    detected = alarm <= T
    false_mask = detected & (alarm < c_rel)
    post_mask = detected & (alarm >= c_rel)
    delays = (alarm[post_mask] - c_rel).astype(float)

    fa = float(false_mask.mean())
    n_post = int(post_mask.sum())
    edd = float(delays.mean()) if n_post > 0 else None
    true_kind = s.true_kind
    n_wrong = None
    if true_kind is not None:
        want = 1 if true_kind is ChangeKind.JUMP else 2  # first_alarms' kind codes
        n_wrong = int((kind[post_mask] != want).sum())
    return MetricsReport(
        replications=s.replications,
        fa_prob=fa,
        fa_halfwidth=_binomial_halfwidth(fa, s.replications),
        n_false_alarm=int(false_mask.sum()),
        n_detected=n_post,
        n_missed=int(s.replications - detected.sum()),
        edd=edd,
        edd_halfwidth=_mean_halfwidth(delays),
        n_wrong_kind=n_wrong,
    )


def estimate_arl(
    config: DetectorConfig,
    noise: NoiseSpec,
    k: int,
    cap: int,
    replications: int,
    master_seed: int,
    standardize: bool = False,
) -> MetricsReport:
    """Mean null run length over no-change streams monitored for at
    most ``cap`` steps.  Censored runs contribute the cap, which biases
    the estimate downward (the censored count is reported)."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    alarm, _ = first_alarms(
        noise, master_seed, replications, k, k + cap, config,
        standardize_first=standardize,
    )
    censored = alarm > cap
    lengths = np.where(censored, cap, alarm)
    return MetricsReport(
        replications=replications,
        arl=float(lengths.mean()),
        arl_halfwidth=_mean_halfwidth(lengths.astype(float)),
        arl_censored=int(censored.sum()),
        arl_cap=cap,
    )


def derive_seed(seed: int, *labels: int) -> int:
    """Deterministic sub-seed of ``seed`` for the integer ``labels``: the
    first 63 bits of its stream ``labels`` (``signal._stream``)."""
    return int(_stream(seed, *labels).generate_state(1, np.uint64)[0] >> 1)


@dataclass(frozen=True)
class RatePoint:
    n: int
    k: int
    bin_size: int
    threshold: float
    mean_delay: Optional[float]
    n_detected: int
    n_false_alarm: int
    replications: int
    insufficient: bool


@dataclass(frozen=True)
class RateReport:
    """Delay scaling over a horizon grid.

    ``slope`` is the least-squares slope of log(mean delay) against
    log(n) over points with enough detections; ``delay_over_log`` are
    the mean delays divided by log(n), whose spread diagnoses the
    logarithmic jump rate.
    """

    kind: ChangeKind
    points: Tuple[RatePoint, ...]
    slope: Optional[float]
    delay_over_log: Tuple[Optional[float], ...]


def rate_check(
    n_grid: Sequence[int],
    kind: Union[str, ChangeKind],
    replications: int,
    master_seed: int,
    calib_replications: int = 400,
) -> RateReport:
    """Measure mean detection delay across horizons with rate-shaped
    bin sizes.

    Bin sizes follow the rate-optimal growth laws, N ~ log(n) for the
    jump statistic and N ~ n^(2/3) log(n)^(1/3) for the kink statistic,
    with desk-scale constants (the theoretical constants exceed any
    tractable stream length).  Thresholds are Monte Carlo calibrated
    per horizon to a false-alarm level of 0.1 on the pre-change stretch,
    the history is k = ceil(n / 2), and the change (a jump of 1, or a
    slope change of 4 per unit fraction of n, 4/n per observation) sits
    at 3n/4.
    """
    if len(n_grid) < 2:
        raise ValueError("n_grid needs at least two horizons")
    if sorted(n_grid) != list(n_grid):
        raise ValueError("n_grid must be ascending")
    kind = ChangeKind(kind) if not isinstance(kind, ChangeKind) else kind
    tau, magnitude, jump = _RATE_TAU, _RATE_MAGNITUDE[kind], kind is ChangeKind.JUMP

    points: List[RatePoint] = []
    for n in n_grid:
        k = math.ceil(_RATE_HISTORY * n)
        change = math.ceil(tau * n)
        if change <= k + 1:
            raise ValueError(f"tau {tau} leaves no pre-change stretch for n={n}")
        n_jump, n_kink = _rate_bins(n, *_RATE_BIN_SCALE)
        spec = CalibrationSpec(
            replications=calib_replications, eta=_RATE_FA_LEVEL, horizon=change - k, k=k,
            n_jump=n_jump if jump else None, n_kink=None if jump else n_kink, noise=_GAUSS,
            master_seed=derive_seed(master_seed, n, 0),
        )
        config = calibrate(spec).to_config()
        theta = SignalParams(tau, 0.0, magnitude if jump else 0.0, 0.0, 0.0 if jump else magnitude)
        report = estimate_metrics(Scenario(theta, n, k, _GAUSS, config, replications,
                                           derive_seed(master_seed, n, 1)))
        points.append(RatePoint(
            n=n, k=k, bin_size=n_jump if jump else n_kink,
            threshold=config.rho_jump if jump else config.rho_kink, mean_delay=report.edd,
            n_detected=report.n_detected, n_false_alarm=report.n_false_alarm,
            replications=replications,
            insufficient=report.n_detected < max(2, replications // 5),
        ))

    usable = [
        p for p in points
        if not p.insufficient and p.mean_delay is not None and p.mean_delay > 0.0
    ]
    slope = None
    if len(usable) >= 2:
        lx = np.log([p.n for p in usable])
        ly = np.log([p.mean_delay for p in usable])
        slope = float(np.polyfit(lx, ly, 1)[0])
    delay_over_log = tuple(
        (p.mean_delay / math.log(p.n))
        if (p.mean_delay is not None and not p.insufficient)
        else None
        for p in points
    )
    return RateReport(
        kind=kind, points=tuple(points), slope=slope,
        delay_over_log=delay_over_log,
    )


@dataclass(frozen=True)
class RobustnessTemplate:
    """Shared settings for the heavy-tail robustness study."""

    bin_size: int = 15
    k: int = 5000
    target_arl: int = 1000
    calib_replications: int = 5000
    replications: int = 500
    jump_size: float = 0.5
    kink_slope_per_obs: float = 0.01
    post_window: int = 1500
    master_seed: int = 0


@dataclass(frozen=True)
class RobustnessRow:
    arm: ChangeKind
    df: float  # math.inf marks the Gaussian reference arm
    arl: float
    arl_halfwidth: Optional[float]
    arl_censored: int
    edd: Optional[float]
    edd_halfwidth: Optional[float]
    n_detected: int


@dataclass(frozen=True)
class RobustnessReport:
    template: RobustnessTemplate
    rho_jump: Optional[float]
    rho_kink: Optional[float]
    rows: Tuple[RobustnessRow, ...]


def robustness_study(
    df_grid: Sequence[float],
    template: RobustnessTemplate,
    arms: Sequence[Union[str, ChangeKind]] = (ChangeKind.JUMP, ChangeKind.KINK),
) -> RobustnessReport:
    """Calibrate each arm under Gaussian noise to an ARL target, then
    apply its threshold to heavy-tailed streams standardized by the
    historical standard deviation.

    The arms calibrate on one null simulation of their statistics.
    ``df_grid`` entries are Student-t degrees of freedom; math.inf (or
    None) selects the Gaussian reference arm.  Null runs are censored at
    ten times the ARL target.  The change sits at the first monitored
    observation, so every alarm measures pure delay.
    """
    tpl = template
    arms = tuple(ChangeKind(a) if not isinstance(a, ChangeKind) else a for a in arms)
    joint = CalibrationSpec(
        replications=tpl.calib_replications,
        arl=True,
        horizon=tpl.target_arl,
        k=tpl.k,
        n_jump=tpl.bin_size if ChangeKind.JUMP in arms else None,
        n_kink=tpl.bin_size if ChangeKind.KINK in arms else None,
        noise=_GAUSS,
        master_seed=derive_seed(tpl.master_seed, 0, 0),
        standardize=True,
    )
    maxima = simulate_null_maxima(joint)
    rows: List[RobustnessRow] = []
    rho_jump = rho_kink = None
    for arm_idx, arm in enumerate(arms):
        alone = (replace(joint, n_kink=None) if arm is ChangeKind.JUMP
                 else replace(joint, n_jump=None))
        cal = calibrate(alone, maxima=maxima)
        config = cal.to_config()
        if arm is ChangeKind.JUMP:
            rho_jump = cal.rho_jump
            jump, kink_per_obs = tpl.jump_size, 0.0
        else:
            rho_kink = cal.rho_kink
            jump, kink_per_obs = 0.0, tpl.kink_slope_per_obs

        for df_idx, df in enumerate(df_grid):
            gaussian = df is None or math.isinf(df)
            noise = _GAUSS if gaussian else NoiseSpec("student_t", df=float(df))
            arl_report = estimate_arl(config, noise, tpl.k, _ARL_CAP_FACTOR * tpl.target_arl,
                                      tpl.replications,
                                      derive_seed(tpl.master_seed, arm_idx, 1, df_idx),
                                      standardize=True)
            edd_report = estimate_metrics(_delay_scenario(
                jump, kink_per_obs, tpl.k, config, tpl.replications,
                derive_seed(tpl.master_seed, arm_idx, 2, df_idx),
                tpl.post_window, noise, standardize=True,
            ))
            rows.append(
                RobustnessRow(
                    arm=arm,
                    df=math.inf if gaussian else float(df),
                    arl=arl_report.arl,
                    arl_halfwidth=arl_report.arl_halfwidth,
                    arl_censored=arl_report.arl_censored,
                    edd=edd_report.edd,
                    edd_halfwidth=edd_report.edd_halfwidth,
                    n_detected=edd_report.n_detected,
                )
            )
    return RobustnessReport(
        template=tpl, rho_jump=rho_jump, rho_kink=rho_kink, rows=tuple(rows)
    )
