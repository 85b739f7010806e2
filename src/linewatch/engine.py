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
by piece gives the same statistics as one pass.  One segment loop uses
that to monitor rows in doubling segments, with two reductions:
``segment_alarms`` retires each row at its first crossing (for
``DetectorState.extend`` and for ARL and delay runs), and
``segment_maxima`` keeps each row's running max |J| and |K| (for
calibration).

``replicate`` is the one Monte Carlo driver: per replication chunk it
draws (``noise_matrix``), takes each row's pre-change line from
``prechange`` (the same fit, standardization and residual arithmetic
that ``detector.run`` uses, so a row gets the bits ``run`` would give
its series, whichever rows share its chunk), and hands a reduction the
residuals (``batch_residuals``) of each segment it asks for.  Generator
draws are split-invariant, so every row sees the same noise as one
full-horizon draw and only draws the steps it monitors.  Small chunks
may run on a thread pool (LINEWATCH_THREADS, a positive integer);
results depend neither on the chunking nor on completion order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .prechange import KnownPrechange, _residuals, _row_lines
from .signal import NoiseSpec, replication_seed

if TYPE_CHECKING:
    from .detector import DetectorConfig

__all__ = [
    "BatchBins",
    "batch_alarms",
    "batch_residuals",
    "batch_stats",
    "chunked_replications",
    "first_alarms",
    "noise_matrix",
    "replicate",
    "segment_alarms",
    "segment_maxima",
]

_CHUNK_ELEMENTS = 131_072  # replication-steps per chunk (see chunked_replications)
# Monitored steps in the first segment of the segment loop; each later
# segment is twice as long as the one before it.
_FIRST_SEGMENT = 512


@dataclass
class BatchBins:
    """Bins of every replication row at monitoring clock ``t``.

    ``jump`` holds (s1, s2, s3) and ``kink`` (s1, s2, s3, w1, w2, w3)
    per row, as ``DetectorState`` holds them for one stream; None stands
    for the all-zero bins of a fresh stream (or a disabled statistic).
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
    s[:, :, 0] += 0.0  # a bin opens at 0.0 as in step(), where 0.0 + -0.0 is 0.0
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
        if stat is None or rho == np.inf:  # an infinite threshold never alarms
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


def batch_residuals(line, x: np.ndarray, first_index: int,
                    rows: Union[slice, np.ndarray] = slice(None)) -> np.ndarray:
    """The residual stage of ``replicate``: residuals of observation
    columns ``x`` at indices ``first_index ..`` against the lines of the
    given rows of ``line``'s block, as ``prechange._row_lines`` gives
    them."""
    alpha, beta, time_unit, scaling = line
    if scaling is not None:
        scaling = tuple(column[rows] for column in scaling)
    return _residuals(x, first_index, alpha[rows], beta[rows], time_unit, scaling)


def noise_matrix(noise: NoiseSpec, rngs: Sequence[np.random.Generator], length: int) -> np.ndarray:
    """The draw stage of ``replicate``: the next ``length`` draws of
    each generator in ``rngs``, one row per generator."""
    out = np.empty((len(rngs), length))
    for row, rng in enumerate(rngs):
        out[row] = noise.draw(rng, length)
    return out


def chunked_replications(replications: int, T: int, worker: Callable[[int, int], None]) -> None:
    """Run ``worker(first, last)`` over replication chunks, on
    LINEWATCH_THREADS worker threads (default 1; any value but a
    positive integer raises ValueError).

    A chunk holds max(1, ``_CHUNK_ELEMENTS`` // T) rows, so each of a
    segment's matrices is 1 MB at most (or one row) at any replication
    count, and a few hundred rows make chunks for every thread: a full
    ``calibrate`` (10k x 2000 steps) peaked at 41 MB resident, not 136 MB
    as with 4M-element chunks.  Each worker call must touch only the rows
    [first, last), keeping results independent of scheduling order.
    """
    # Freeing one untouched 16 MB block raises glibc's mmap and trim
    # thresholds: the heap then keeps the pages chunks free, not faulting
    # them in anew (a full calibrate: 256K page faults and 2.5 s without
    # it, a dozen and 1.7 s with it); other allocators ignore it.
    np.empty(2**21)
    chunk = max(1, _CHUNK_ELEMENTS // max(T, 1))
    spans = [
        (lo, min(lo + chunk, replications)) for lo in range(0, replications, chunk)
    ]
    raw = os.environ.get("LINEWATCH_THREADS", "1")
    n_threads = int(raw) if raw.strip().isdigit() else 0
    if n_threads < 1:
        raise ValueError(f"LINEWATCH_THREADS must be a positive integer, got {raw!r}")
    if n_threads == 1 or len(spans) == 1:
        for lo, hi in spans:
            worker(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        for future in [pool.submit(worker, lo, hi) for lo, hi in spans]:
            future.result()


def _segments(rows, T, residuals, visit) -> None:
    """The segment loop over ``rows`` streams of T steps: for segments of
    ``_FIRST_SEGMENT``, twice that, ... steps, ``visit(t0, resid,
    active)`` reduces ``residuals(t0, length, active)``, the steps
    t0 + 1 .. t0 + length of the rows ``active``, to the rows that go on."""
    active = np.arange(rows)
    t0, length = 0, _FIRST_SEGMENT
    while active.size and t0 < T:
        length = min(length, T - t0)
        active = visit(t0, residuals(t0, length, active), active)
        t0 += length
        length *= 2


def segment_alarms(
    rows: int,
    T: int,
    config: DetectorConfig,
    residuals: Callable[[int, int, np.ndarray], np.ndarray],
    bins: Optional[BatchBins] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alarm step, kind, |statistic| at the alarm, NaN if none) per row
    of ``rows`` streams of T steps, as ``batch_alarms`` gives on their
    full-horizon statistics.  ``residuals`` is as for ``_segments``;
    a row leaves the loop at its first alarm, so later segments ask
    only for the rows not yet alarmed.  The rows start from the carried
    ``bins`` (advanced in place, as ``batch_stats`` advances them, and
    left with the rows not alarmed), or fresh without them."""
    alarm = np.full(rows, T + 1, dtype=np.int64)
    kind = np.zeros(rows, dtype=np.int8)
    value = np.full(rows, np.nan)
    bins = BatchBins() if bins is None else bins

    def visit(t0, resid, active):
        j, kk = batch_stats(resid, config.n_jump, config.n_kink, bins)
        step, code = batch_alarms(j, kk, config.rho_jump, config.rho_kink)
        for crossed, stat in ((1, j), (2, kk)):
            at = np.flatnonzero(code == crossed)
            if at.size:
                value[active[at]] = np.abs(stat[at, step[at] - 1])
        hit = step <= resid.shape[1]
        alarm[active[hit]] = t0 + step[hit]
        kind[active[hit]] = code[hit]
        bins.select(~hit)
        return active[~hit]

    _segments(rows, T, residuals, visit)
    return alarm, kind, value


def segment_maxima(rows: int, T: int, pairs: Sequence[Tuple[Optional[int], Optional[int]]],
                   residuals: Callable[[int, int, np.ndarray], np.ndarray]) -> List[np.ndarray]:
    """Max |J| and max |K| per row of ``rows`` streams of T steps, as
    their full-horizon statistics give, for each enabled statistic of
    each (n_jump, n_kink) of ``pairs`` in turn; every row runs every
    segment, and each pair carries bins of its own."""
    maxima = [np.zeros(rows) for pair in pairs for n in pair if n is not None]
    bins = [BatchBins() for _ in pairs]

    def visit(t0, resid, active):
        stats = [stat for pair, carried in zip(pairs, bins)
                 for stat in batch_stats(resid, *pair, carried) if stat is not None]
        for peak, stat in zip(maxima, stats):
            np.maximum(peak, np.abs(stat).max(axis=1), out=peak)
        return active

    _segments(rows, T, residuals, visit)
    return maxima


def replicate(noise: NoiseSpec, master_seed: int, replications: int, k: int, total: int,
              reduce: Callable[[int, Callable], Sequence[np.ndarray]],
              signal: Optional[np.ndarray] = None, time_unit: int = 1,
              prechange: Optional[KnownPrechange] = None,
              standardize_first: bool = False) -> List[np.ndarray]:
    """The Monte Carlo driver over replications of up to ``total``
    observations (noise plus ``signal``, history k).  Per chunk of rows
    it builds each row's generator, draws the history, fits or takes the
    line, and joins over the chunks the per-row arrays of ``reduce(rows,
    residuals)``: ``residuals(t0, length, active)`` draws the next
    ``length`` observations of the rows ``active`` and gives their
    residuals at monitoring steps t0 + 1 .. t0 + length."""
    if total <= k:
        raise ValueError(f"stream length {total} must exceed history {k}")
    parts = {}

    def worker(lo: int, hi: int) -> None:
        rngs = [np.random.default_rng(replication_seed(master_seed, rep))
                for rep in range(lo, hi)]
        hist = noise_matrix(noise, rngs, k)
        if signal is not None:
            hist += signal[:k]
        line = _row_lines(hist, time_unit, prechange, standardize_first)

        def residuals(t0: int, length: int, active: np.ndarray) -> np.ndarray:
            x = noise_matrix(noise, [rngs[i] for i in active], length)
            if signal is not None:
                x += signal[k + t0:k + t0 + length]
            return batch_residuals(line, x, k + t0 + 1, active)

        parts[lo] = reduce(hi - lo, residuals)

    chunked_replications(replications, total, worker)
    if not parts:  # no replications: an empty chunk gives the empty arrays
        worker(0, 0)
    return [np.concatenate(col) for col in zip(*(parts[lo] for lo in sorted(parts)))]


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
    (noise plus ``signal``, history k), as ``batch_alarms`` gives on
    their full-horizon statistics: ``replicate`` with the first-crossing
    reduction, so each row stops drawing and monitoring at its first
    alarm."""
    alarm, kind, _ = replicate(
        noise, master_seed, replications, k, total,
        lambda rows, residuals: segment_alarms(rows, total - k, config, residuals),
        signal, time_unit, prechange, standardize_first)
    return alarm, kind
