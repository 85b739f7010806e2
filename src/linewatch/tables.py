"""Prebuilt experiment suites behind ``linewatch experiment``.

Each builder reproduces one published-table layout at configurable
replication counts and returns (headers, rows) of formatted strings;
values are Monte Carlo estimates, so expect sampling noise around the
published numbers at the default counts.  ``table2`` and ``table3``
calibrate jump alone, kink alone and both from one null simulation per
setting, on the ``both`` mode's seed, so the modes' thresholds in a row
share common random numbers.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from .calibration import CalibrationSpec, calibrate, simulate_null_maxima
from .detector import DetectorConfig
from .experiments import (
    RobustnessTemplate,
    Scenario,
    _ARL_CAP_FACTOR,
    _GAUSS,
    _delay_scenario,
    derive_seed,
    estimate_arl,
    estimate_metrics,
    rate_check,
    robustness_study,
)
from .signal import SignalParams

__all__ = ["EXPERIMENTS", "rates_table", "table2", "table3", "table5", "types_table"]

_MODE_ID = {"jump": 1, "kink": 2, "both": 3}
_JUMP_SIZES = (2.0, 1.0, 0.5)
_KINK_SLOPES = (0.5, 0.1, 0.02)  # per observation
_RATES_GRID = tuple(2 ** p for p in range(10, 17))  # rates_table's horizons n


def _fmt(value: Optional[float], digits: int = 6) -> str:
    if value is None:
        return "-"
    if value == math.inf:
        return "inf"
    return f"{value:.{digits}g}"


def _fa_scenario(
    k: int, horizon: int, config: DetectorConfig, replications: int, seed: int
) -> Scenario:
    """No-change stream with the nominal change at monitoring step
    ``horizon``; fa_prob estimates the false-alarm probability."""
    n = k + horizon + 8
    theta = SignalParams((k + horizon) / n, 0.0, 0.0, 0.0, 0.0)
    return Scenario(theta, n, k, _GAUSS, config, replications, seed)


def _edd_cells(
    mode: str, k: int, config: DetectorConfig, replications: int, seed_base: int
) -> List[str]:
    cells: List[str] = []
    for kind, sizes in (("jump", _JUMP_SIZES), ("kink", _KINK_SLOPES)):
        for idx, size in enumerate(sizes):
            if mode not in (kind, "both"):
                cells.append("-")
                continue
            jump, slope = (size, 0.0) if kind == "jump" else (0.0, size)
            seed = derive_seed(seed_base, _MODE_ID[kind], idx)
            rep = estimate_metrics(_delay_scenario(jump, slope, k, config, replications, seed))
            cells.append(_fmt(rep.edd, 3))
    return cells


def _mode_rows(
    settings: Sequence[Tuple[int, int, int]],
    eta: Optional[float],
    calib_replications: int,
    replications: int,
    master_seed: int,
) -> Tuple[List[str], List[List[str]]]:
    """Rows of jump alone, kink alone and both at each (N, horizon, k)
    setting, mode-major, calibrated to false-alarm level ``eta`` with the
    change at step ``horizon``, or with ``eta`` None to an ARL of
    ``horizon``.  A setting's one null simulation of both statistics runs
    on the ``both`` mode's calibration seed; each row's FA (or ARL) and
    delay scenarios run on seeds of its own mode."""
    arl = eta is None
    headers = ["mode", "N", "target_arl" if arl else "target_fa", "k", "rho_jump",
               "rho_kink", "arl" if arl else "fa",
               *(f"jump_edd_{jump:g}" for jump in _JUMP_SIZES),
               *(f"kink_edd_{slope:g}" for slope in _KINK_SLOPES)]
    rows: Dict[str, List[List[str]]] = {mode: [] for mode in _MODE_ID}
    for row_idx, (n_bin, horizon, k) in enumerate(settings):
        joint = CalibrationSpec(
            replications=calib_replications, eta=eta, arl=arl, horizon=horizon, k=k,
            n_jump=n_bin, n_kink=n_bin, noise=_GAUSS,
            master_seed=derive_seed(derive_seed(master_seed, _MODE_ID["both"], row_idx), 0),
        )
        maxima = simulate_null_maxima(joint)
        for mode, spec in (("jump", replace(joint, n_kink=None)),
                           ("kink", replace(joint, n_jump=None)), ("both", joint)):
            cal = calibrate(spec, maxima=maxima)
            config = cal.to_config()
            seed = derive_seed(master_seed, _MODE_ID[mode], row_idx)
            if arl:
                value = _fmt(estimate_arl(config, _GAUSS, k, _ARL_CAP_FACTOR * horizon,
                                          replications, derive_seed(seed, 4)).arl, 6)
            else:
                value = _fmt(estimate_metrics(_fa_scenario(
                    k, horizon, config, replications, derive_seed(seed, 3))).fa_prob, 2)
            rows[mode].append([
                mode, str(n_bin), str(horizon if arl else eta), str(k),
                _fmt(cal.rho_jump if mode != "kink" else None, 3),
                _fmt(cal.rho_kink if mode != "jump" else None, 3),
                value,
                *_edd_cells(mode, k, config, replications, seed),
            ])
    return headers, [row for mode in _MODE_ID for row in rows[mode]]


def table2(
    calib_replications: int = 10000,
    replications: int = 200,
    master_seed: int = 20260201,
) -> Tuple[List[str], List[List[str]]]:
    """False-alarm-calibrated thresholds and detection delays across
    bin sizes and history lengths (target FA 0.5).  Jump alone, kink
    alone and both share one null simulation per setting, on the
    ``both`` mode's calibration seed."""
    settings = [(5, 1000, 500), (10, 1000, 500), (10, 1000, 1000), (10, 10000, 5000),
                (15, 1000, 500)]  # (N, horizon, k)
    return _mode_rows(settings, 0.5, calib_replications, replications, master_seed)


def table3(
    calib_replications: int = 10000,
    replications: int = 100,
    master_seed: int = 20260202,
) -> Tuple[List[str], List[List[str]]]:
    """ARL-calibrated thresholds, achieved ARLs and detection delays.
    Jump alone, kink alone and both share one null simulation per
    setting, on the ``both`` mode's calibration seed."""
    settings = [(10, 1000, 1000), (15, 1000, 1000), (10, 1000, 5000), (10, 5000, 2500)]
    return _mode_rows(settings, None, calib_replications, replications, master_seed)


def table5(
    calib_replications: int = 10000,
    replications: int = 500,
    master_seed: int = 20260203,
) -> Tuple[List[str], List[List[str]]]:
    """Heavy-tail robustness: Gaussian-calibrated thresholds applied to
    Student-t noise of varying degrees of freedom."""
    tpl = RobustnessTemplate(
        bin_size=15, k=5000, target_arl=1000,
        calib_replications=calib_replications, replications=replications,
        master_seed=master_seed,
    )
    df_grid = [1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 30.0, math.inf]
    report = robustness_study(df_grid, tpl)
    headers = ["arm", "df", "arl", "arl_censored", "edd", "n_detected"]
    rows = [
        [str(r.arm), "inf" if math.isinf(r.df) else _fmt(r.df, 3),
         _fmt(r.arl, 6), str(r.arl_censored), _fmt(r.edd, 3), str(r.n_detected)]
        for r in report.rows
    ]
    return headers, rows


def rates_table(
    calib_replications: int = 400,
    replications: int = 200,
    master_seed: int = 20260204,
) -> Tuple[List[str], List[List[str]]]:
    """Delay scaling against the horizon for both change types."""
    headers = ["kind", "n", "k", "bin", "threshold", "mean_delay",
               "delay/log(n)", "detected", "slope"]
    rows: List[List[str]] = []
    for kind in ("jump", "kink"):
        rep = rate_check(0.5, _RATES_GRID, kind, replications,
                         derive_seed(master_seed, _MODE_ID[kind]), calib_replications)
        for point, ratio in zip(rep.points, rep.delay_over_log):
            rows.append([
                kind, str(point.n), str(point.k), str(point.bin_size),
                _fmt(point.threshold, 4), _fmt(point.mean_delay, 4),
                _fmt(ratio, 3), str(point.n_detected),
                _fmt(rep.slope, 3),
            ])
    return headers, rows


def types_table(
    calib_replications: int = 10000,
    replications: int = 1000,
    master_seed: int = 20260205,
) -> Tuple[List[str], List[List[str]]]:
    """First-to-fire change-type attribution at the jointly calibrated
    N = 10, k = 1000 configuration."""
    k, n_bin, horizon = 1000, 10, 1000
    spec = CalibrationSpec(
        replications=calib_replications, eta=0.5, horizon=horizon, k=k,
        n_jump=n_bin, n_kink=n_bin, noise=_GAUSS,
        master_seed=derive_seed(master_seed, 0),
    )
    config = calibrate(spec).to_config()
    n = k + horizon + 1200
    scenarios = [
        Scenario(SignalParams((k + horizon) / n, 0.0, 1.0, 0.0, 0.0), n, k,
                 _GAUSS, config, replications, derive_seed(master_seed, 1)),
        Scenario(SignalParams((k + horizon) / n, 0.0, 0.0, 0.0, 0.1 * n), n, k,
                 _GAUSS, config, replications, derive_seed(master_seed, 2)),
    ]
    headers = ["true_kind", "replications", "post_alarms", "wrong_kind",
               "wrong_rate", "false_alarms", "missed"]
    rows = []
    for s in scenarios:
        r = estimate_metrics(s)
        rows.append([
            str(s.true_kind), str(r.replications), str(r.n_detected),
            str(r.n_wrong_kind),
            _fmt(r.n_wrong_kind / r.n_detected if r.n_detected else None, 3),
            str(r.n_false_alarm), str(r.n_missed),
        ])
    return headers, rows


EXPERIMENTS = {
    "table2": table2,
    "table3": table3,
    "table5": table5,
    "rates": rates_table,
    "types": types_table,
}
