"""Vectorized batch evaluation of the detector over many replications.

Computes exactly the statistics the streaming detector computes, via
cumulative sums instead of bin bookkeeping: for monitoring clock
t = 1..T with window M_t = 2N + (t mod N) + 1 and window start
s_t = max(t - M_t, 0),

    J_t = (C_t - C_{s_t}) / M_t
    K_t = ((D_t - D_{s_t}) - (t - M_t) (C_t - C_{s_t})) / d_t

where C is the running residual sum, D the running sum of t * residual
and d_t = M_t (M_t + 1) (2 M_t + 1) / 6.  Slots before the first
monitored observation are zero-padded, matching the streaming startup
transient.  Equality with the streaming path (up to float summation
order) is enforced by tests.

Replication fan-out is chunked; chunks may be dispatched to a thread
pool (LINEWATCH_THREADS) and write disjoint output slices, so results
do not depend on completion order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Tuple

import numpy as np

from .detector import DetectorConfig
from .prechange import KnownPrechange, _check_time_unit
from .signal import NoiseSpec, replication_seed

__all__ = [
    "batch_alarms",
    "batch_residuals",
    "batch_stats",
    "chunked_replications",
    "default_threads",
    "noise_matrix",
    "window_geometry",
]

_CHUNK_ELEMENTS = 4_000_000


def default_threads() -> int:
    """Worker count for replication fan-out (env LINEWATCH_THREADS)."""
    raw = os.environ.get("LINEWATCH_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def window_geometry(T: int, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """(window size M_t, window start s_t) for t = 1..T."""
    t = np.arange(1, T + 1, dtype=np.int64)
    m = 2 * N + (t % N) + 1
    start = np.maximum(t - m, 0)
    return m, start


def batch_stats(
    resid: np.ndarray,
    n_jump: Optional[int],
    n_kink: Optional[int],
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """J and K trajectories for a (replications, T) residual matrix."""
    resid = np.atleast_2d(resid)
    rows, T = resid.shape
    csum = np.empty((rows, T + 1))
    csum[:, 0] = 0.0
    np.cumsum(resid, axis=1, out=csum[:, 1:])
    t = np.arange(1, T + 1, dtype=np.int64)

    j = k = None
    if n_jump is not None:
        m, start = window_geometry(T, n_jump)
        j = (csum[:, t] - csum[:, start]) / m
    if n_kink is not None:
        m, start = window_geometry(T, n_kink)
        wsum = np.empty((rows, T + 1))
        wsum[:, 0] = 0.0
        np.cumsum(resid * t, axis=1, out=wsum[:, 1:])
        window_sum = csum[:, t] - csum[:, start]
        num = (wsum[:, t] - wsum[:, start]) - (t - m) * window_sum
        mf = m.astype(float)
        d = mf * (mf + 1.0) * (2.0 * mf + 1.0) / 6.0
        k = num / d
    return j, k


def batch_alarms(
    j: Optional[np.ndarray],
    k: Optional[np.ndarray],
    rho_jump: float,
    rho_kink: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """First crossing per replication.

    Returns (alarm_t, kind): alarm_t is the 1-based monitoring step of
    the first crossing or T + 1 when none; kind is 1 for jump, 2 for
    kink, 0 for none.  Jump takes precedence on ties, matching the
    streaming check order.
    """
    if j is None and k is None:
        raise ValueError("at least one statistic required")
    T = (j if j is not None else k).shape[1]
    none = T + 1

    def first_crossing(stat, rho):
        if stat is None or not np.isfinite(rho):
            rows = (j if j is not None else k).shape[0]
            return np.full(rows, none, dtype=np.int64)
        hit = np.abs(stat) >= rho
        any_hit = hit.any(axis=1)
        first = hit.argmax(axis=1) + 1
        return np.where(any_hit, first, none)

    tj = first_crossing(j, rho_jump)
    tk = first_crossing(k, rho_kink)
    alarm = np.minimum(tj, tk)
    kind = np.zeros(alarm.shape, dtype=np.int8)
    kind[(alarm == tj) & (alarm <= T)] = 1
    kind[(alarm == tk) & (alarm < tj) & (alarm <= T)] = 2
    return alarm, kind


def batch_residuals(
    x: np.ndarray,
    k: int,
    time_unit: int = 1,
    prechange: Optional[KnownPrechange] = None,
    standardize_first: bool = False,
) -> np.ndarray:
    """Residuals of the monitored segment for a (replications, k + T)
    observation matrix at times index / ``time_unit``; the pre-change
    line is fitted per row on the first k columns unless ``prechange``
    is given."""
    _check_time_unit(time_unit)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    total = x.shape[1]
    if total <= k:
        raise ValueError(f"stream length {total} must exceed history {k}")
    if standardize_first:
        mean = x[:, :k].mean(axis=1, keepdims=True)
        sd = x[:, :k].std(axis=1, ddof=1, keepdims=True)
        if np.any(sd == 0.0):
            raise ValueError("zero historical variance in some replication")
        x = (x - mean) / sd
    times_all = np.arange(1, total + 1) / time_unit
    if prechange is None:
        if k < 2:
            raise ValueError("need k >= 2 to fit the pre-change line")
        th = times_all[:k]
        tbar = th.mean()
        dt = th - tbar
        s_tt = dt @ dt
        xbar = x[:, :k].mean(axis=1)
        s_tx = (x[:, :k] - xbar[:, None]) @ dt
        beta = s_tx / s_tt
        alpha = xbar - beta * tbar
    else:
        alpha = np.full(x.shape[0], prechange.alpha)
        beta = np.full(x.shape[0], prechange.beta)
    pred = alpha[:, None] + beta[:, None] * times_all[k:][None, :]
    return x[:, k:] - pred


def noise_matrix(
    noise: NoiseSpec, master_seed: int, first: int, last: int, T: int
) -> np.ndarray:
    """Noise rows for replication indices [first, last), each drawn from
    its own deterministic per-replication stream."""
    out = np.empty((last - first, T))
    for row, rep in enumerate(range(first, last)):
        rng = np.random.default_rng(replication_seed(master_seed, rep))
        out[row] = noise.draw(rng, T)
    return out


def chunked_replications(
    replications: int,
    T: int,
    worker: Callable[[int, int], None],
    threads: Optional[int] = None,
) -> None:
    """Run ``worker(first, last)`` over replication chunks.

    Chunks are sized to bound peak matrix memory; each worker call must
    write only to rows [first, last) of preallocated outputs, keeping
    the result independent of scheduling order.
    """
    chunk = max(1, _CHUNK_ELEMENTS // max(T, 1))
    spans = [
        (lo, min(lo + chunk, replications)) for lo in range(0, replications, chunk)
    ]
    n_threads = default_threads() if threads is None else max(1, threads)
    if n_threads == 1 or len(spans) == 1:
        for lo, hi in spans:
            worker(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        for future in [pool.submit(worker, lo, hi) for lo, hi in spans]:
            future.result()


def config_alarms(
    resid: np.ndarray, config: DetectorConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """(alarm step, kind) per replication row under a configuration."""
    j, k = batch_stats(resid, config.n_jump, config.n_kink)
    return batch_alarms(j, k, config.rho_jump, config.rho_kink)
