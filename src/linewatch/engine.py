"""Vectorized batch evaluation of the detector over many replications.

The batch kernel keeps the streaming detector's own bins, one row per
replication.  Monitoring clocks t = 0, 1, 2, ... fall into blocks of N
(block b holds clocks bN .. bN + N - 1, position r = t mod N), clock 0
being a zero slot before the first monitored observation.  Within a
block, running sums give the open bin's s3 (plain) and w3 (weights
r + 1); the closed blocks' totals, shifted by one and two blocks, give
s2, w2 and s1, w1.  Then, with M = 2N + r + 1 and
d = M (M + 1) (2M + 1) / 6,

    J = ((s1 + s2) + s3) / M
    K = ((((w1 + w2) + w3) + N s2) + 2N s3) / d

added in the order ``DetectorState.step`` adds them, so the batch
statistics equal the streaming ones bit for bit on the same residuals,
and their rounding error depends on N, not on the stream length.

``batch_stats`` can carry the bins (``BatchBins``) from the end of one
piece of a stream to the start of the next, so a stream advanced piece
by piece gives the same statistics as one pass.  ``segment_alarms``
uses that to monitor rows in doubling segments and retire each row
once it has crossed: ``detector.run`` replays one series up to its
first alarm on it, and ``first_alarms`` stops Monte Carlo replications
at theirs, drawing only the segments a row still needs.  Generator
draws are split-invariant, so the rows see the same noise as one
full-horizon draw.

Replication fan-out is chunked; chunks may be dispatched to a thread
pool (LINEWATCH_THREADS) and write disjoint output slices, so results
do not depend on completion order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple, Union

import numpy as np

from .prechange import KnownPrechange, _check_time_unit
from .signal import NoiseSpec, replication_seed

if TYPE_CHECKING:
    from .detector import DetectorConfig

__all__ = [
    "BatchBins",
    "batch_alarms",
    "batch_residuals",
    "batch_stats",
    "chunked_replications",
    "default_threads",
    "first_alarms",
    "noise_matrix",
    "segment_alarms",
]

_CHUNK_ELEMENTS = 4_000_000
# Monitored steps in the first early-exit segment; each later segment
# is twice as long as the one before it.
_FIRST_SEGMENT = 512


def default_threads() -> int:
    """Worker count for replication fan-out (env LINEWATCH_THREADS)."""
    raw = os.environ.get("LINEWATCH_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass
class BatchBins:
    """Bins of every replication row at monitoring clock ``t``.

    ``jump`` holds (s1, s2, s3) and ``kink`` (s1, s2, s3, w1, w2, w3)
    per row, as ``BinTriple`` does for one stream; None stands for the
    all-zero bins of a fresh stream (or a disabled statistic).
    """

    t: int = 0
    jump: Optional[np.ndarray] = None
    kink: Optional[np.ndarray] = None

    def select(self, rows: np.ndarray) -> None:
        """Keep only the given rows (an index or boolean mask)."""
        if self.jump is not None:
            self.jump = self.jump[rows]
        if self.kink is not None:
            self.kink = self.kink[rows]


def _running_sums(resid, n, r0, carried, weighted):
    """Within-block running sums of the residuals, shape (rows, blocks, n),
    and of the residuals weighted by position + 1 when ``weighted``.

    The open bin's carried s3 (and w3) sit at position ``r0`` of the
    first block and the residuals follow it, so the running sums go on
    from the carried ones.
    """
    rows, length = resid.shape
    blocks = (r0 + length) // n + 1
    s = np.zeros((rows, blocks * n))
    s[:, r0 + 1:r0 + 1 + length] = resid
    s = s.reshape(rows, blocks, n)
    w = None
    if weighted:
        w = s * np.arange(1, n + 1, dtype=float)
        if carried is not None:
            w[:, 0, r0] = carried[:, 5]
        np.cumsum(w, axis=2, out=w)
    if carried is not None:
        s[:, 0, r0] = carried[:, 2]
    np.cumsum(s, axis=2, out=s)
    return s, w


def _closed_bins(totals, carried, offset):
    """(rows, blocks + 2) bin totals: the carried s1, s2 (or w1, w2 at
    ``offset`` 3) ahead of each block's own total."""
    rows = totals.shape[0]
    out = np.zeros((rows, totals.shape[1] + 2))
    if carried is not None:
        out[:, :2] = carried[:, offset:offset + 2]
    out[:, 2:] = totals
    return out


def _kink_divisor(n: int) -> np.ndarray:
    """d = M (M + 1) (2M + 1) / 6.0 for M = 2n + 1 .. 3n, with the
    product formed in exact integers as ``DetectorState.step`` forms it."""
    m = np.arange(2 * n + 1, 3 * n + 1, dtype=np.int64)
    if 3 * n >= 2**20:  # Python integers: the product would pass 2**63
        m = m.astype(object)
    return (m * (m + 1) * (2 * m + 1) / 6.0).astype(float)


def _advance(resid, n, t0, carried, want_j, want_k):
    """J and/or K trajectories over ``resid`` from clock ``t0`` with the
    carried bins of one statistic; returns (j, k, bins at the end)."""
    rows, length = resid.shape
    r0 = t0 % n
    s, w = _running_sums(resid, n, r0, carried, want_k)
    s_closed = _closed_bins(s[:, :, -1], carried, 0)
    s1 = s_closed[:, :-2, None]
    s2 = s_closed[:, 1:-1, None]
    cols = slice(r0 + 1, r0 + 1 + length)
    j = k = None
    if want_j:
        j = np.add(s1 + s2, s)
        j /= np.arange(2 * n + 1, 3 * n + 1)
        j = j.reshape(rows, -1)[:, cols]
    end = r0 + length
    b, r = divmod(end, n)
    out = [s_closed[:, b], s_closed[:, b + 1], s[:, b, r]]
    if want_k:
        w_closed = _closed_bins(w[:, :, -1], carried, 3)
        out += [w_closed[:, b], w_closed[:, b + 1], w[:, b, r]]
        kk = np.add(w_closed[:, :-2, None] + w_closed[:, 1:-1, None], w)
        kk += n * s2
        kk += (2 * n) * s
        kk /= _kink_divisor(n)
        k = kk.reshape(rows, -1)[:, cols]
    return j, k, np.stack(out, axis=1)


def batch_stats(
    resid: np.ndarray,
    n_jump: Optional[int],
    n_kink: Optional[int],
    bins: Optional[BatchBins] = None,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """J and K trajectories for a (replications, T) residual matrix.

    Without ``bins`` the rows are whole streams from a fresh detector.
    With ``bins`` (the rows' bins at clock ``bins.t``) the columns are
    clocks ``bins.t + 1 ..``, and ``bins`` is advanced in place to the
    clock of the last column.
    """
    resid = np.atleast_2d(resid)
    state = BatchBins() if bins is None else bins
    t0 = state.t
    j = k = None
    jump_bins = kink_bins = None
    if n_kink is not None:
        both = n_jump == n_kink
        j_here, k, kink_bins = _advance(resid, n_kink, t0, state.kink, both, True)
        if both:
            # the jump bins are the kink bins' plain sums
            j, jump_bins = j_here, kink_bins[:, :3]
    if n_jump is not None and jump_bins is None:
        j, _, jump_bins = _advance(resid, n_jump, t0, state.jump, True, False)
    state.t = t0 + resid.shape[1]
    state.jump, state.kink = jump_bins, kink_bins
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
        if stat is None:
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


class _Line:
    """Per-row standardization and pre-change line of a replication
    block, fitted on (or, for a known line, checked against) its
    history columns."""

    def __init__(self, hist, time_unit, prechange, standardize_first):
        _check_time_unit(time_unit)
        rows, k = hist.shape
        self.mean = self.sd = None
        if standardize_first:
            self.mean = hist.mean(axis=1, keepdims=True)
            self.sd = hist.std(axis=1, ddof=1, keepdims=True)
            if np.any(self.sd == 0.0):
                raise ValueError("zero historical variance in some replication")
            hist = (hist - self.mean) / self.sd
        if prechange is None:
            if k < 2:
                raise ValueError("need k >= 2 to fit the pre-change line")
            th = np.arange(1, k + 1) / time_unit
            tbar = th.mean()
            dt = th - tbar
            s_tt = dt @ dt
            xbar = hist.mean(axis=1)
            s_tx = (hist - xbar[:, None]) @ dt
            self.beta = s_tx / s_tt
            self.alpha = xbar - self.beta * tbar
            self.time_unit = time_unit
        else:
            self.alpha = np.full(rows, prechange.alpha)
            self.beta = np.full(rows, prechange.beta)
            self.time_unit = prechange.time_unit

    def residuals(self, x, first_index, rows: Union[slice, np.ndarray] = slice(None)):
        """Residuals of observation columns ``x`` at indices
        ``first_index ..`` for the given rows of the block."""
        if self.mean is not None:
            x = (x - self.mean[rows]) / self.sd[rows]
        times = np.arange(first_index, first_index + x.shape[1]) / self.time_unit
        return x - (self.alpha[rows, None] + self.beta[rows, None] * times[None, :])


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
    is given (a known line keeps its own time unit)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    total = x.shape[1]
    if total <= k:
        raise ValueError(f"stream length {total} must exceed history {k}")
    line = _Line(x[:, :k], time_unit, prechange, standardize_first)
    return line.residuals(x[:, k:], k + 1)


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


def segment_alarms(
    rows: int,
    T: int,
    config: DetectorConfig,
    residuals: Callable[[int, int, np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alarm step, kind, |statistic| at the alarm, NaN if none) per row
    of ``rows`` streams of T steps, as ``batch_alarms`` gives on their
    full-horizon statistics.  ``residuals(t0, length, active)`` gives
    steps t0 + 1 .. t0 + length of the rows ``active`` not yet alarmed,
    in segments of ``_FIRST_SEGMENT``, twice that, ... steps."""
    alarm = np.full(rows, T + 1, dtype=np.int64)
    kind = np.zeros(rows, dtype=np.int8)
    value = np.full(rows, np.nan)
    active = np.arange(rows)
    bins = BatchBins()
    length = _FIRST_SEGMENT
    while active.size and bins.t < T:
        t0 = bins.t
        length = min(length, T - t0)
        j, kk = batch_stats(residuals(t0, length, active), config.n_jump, config.n_kink, bins)
        step, code = batch_alarms(j, kk, config.rho_jump, config.rho_kink)
        for crossed, stat in ((1, j), (2, kk)):
            at = np.flatnonzero(code == crossed)
            if at.size:
                value[active[at]] = np.abs(stat[at, step[at] - 1])
        hit = step <= length
        alarm[active[hit]] = t0 + step[hit]
        kind[active[hit]] = code[hit]
        active = active[~hit]
        bins.select(~hit)
        length *= 2
    return alarm, kind, value


def first_alarms(
    noise: NoiseSpec,
    master_seed: int,
    replications: int,
    k: int,
    total: int,
    config: DetectorConfig,
    signal: Optional[np.ndarray] = None,
    time_unit: int = 1,
    prechange: Optional[KnownPrechange] = None,
    standardize_first: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """(alarm step, kind) per replication of ``total`` observations
    (noise plus ``signal``, history k), as ``batch_alarms`` gives on the
    full-horizon statistics of the ``batch_residuals`` of the full
    ``noise_matrix``, but each row stops drawing and monitoring at its
    first alarm."""
    if total <= k:
        raise ValueError(f"stream length {total} must exceed history {k}")
    T = total - k
    alarm = np.empty(replications, dtype=np.int64)
    kind = np.empty(replications, dtype=np.int8)
    if signal is None:
        signal = np.zeros(total)

    def worker(lo: int, hi: int) -> None:
        rngs = [np.random.default_rng(replication_seed(master_seed, rep))
                for rep in range(lo, hi)]
        hist = np.empty((hi - lo, k))
        for row, rng in enumerate(rngs):
            hist[row] = noise.draw(rng, k)
        hist += signal[:k]
        line = _Line(hist, time_unit, prechange, standardize_first)

        def residuals(t0, length, active):
            x = np.empty((active.size, length))
            for row, i in enumerate(active):
                x[row] = noise.draw(rngs[i], length)
            x += signal[k + t0:k + t0 + length]
            return line.residuals(x, k + t0 + 1, active)

        alarm[lo:hi], kind[lo:hi], _ = segment_alarms(hi - lo, T, config, residuals)

    chunked_replications(replications, total, worker)
    return alarm, kind
