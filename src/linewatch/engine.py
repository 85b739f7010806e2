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

A piece of rows x T residuals becomes a (rows, blocks, N) array of
bins.  The running sums are a chain of N - 1 dependent adds per bin,
which a cumulative sum along each bin runs one bin at a time.  When
the bins are narrow (N <= 32) and many (rows x blocks at least 256 and
16 N), one transposing copy lays the array out position-major in
memory, (N, rows, blocks), and the running sums become N - 1 vector
adds, position p += position p - 1, each across every (row, block)
pair at once (Blelloch, "Prefix sums and their applications", 1990:
independent segments scanned in lock-step).  Otherwise the bins stay
contiguous and one cumulative sum runs along each.  Both are the same
left-to-right adds, so the layout changes no bit.  J and K are formed
in place in either layout (the bin totals broadcast over positions),
and the division by M or d writes them back as (rows, clock) rows.

``batch_stats`` can carry the bins (``BatchBins``) from the end of one
piece of a stream to the start of the next, so a stream advanced piece
by piece gives the same statistics as one pass.  One segment loop uses
that to monitor rows in doubling segments, with two reductions:
``segment_alarms`` retires each row at its first crossing (for
``DetectorState.extend`` and for ARL and delay runs), and
``segment_maxima`` keeps each row's running max |J| and |K| (for
calibration).

``replicate`` is the one Monte Carlo driver: per replication chunk it
gives each row its pre-change line in ``prechange``, and hands a
reduction the residuals (``batch_residuals``) of each segment it asks
for.  Under Gaussian noise a row draws its line from the law of the
fit, three values at most instead of its k history values
(``_history_draws``, ``prechange._sampled_row_lines``); under Student-t
noise, which has no such closed form, it draws its history and fits it
with the fit, standardization and residual arithmetic of
``detector.run``, so a Student-t row gets the bits ``run`` would give
its series.  Either way a row's bits do not depend on which rows share
its chunk.

Rows draw in fixed blocks of B rows, one generator per block: block b
draws stream (B, b) of the master seed (the seed rule of
``signal._stream``; keyed streams, as in Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC '11), so no other layout of
rows and no ``generate_series`` call shares it.  A block draws
time-major, one (steps, B) matrix per draw (``noise_matrix``), and its
row j reads column j.  Generator draws are split-invariant, so a row's
values do not depend on the segment edges, the chunk size or the
replication count, every row sees the same monitored noise as one
full-horizon draw, and a block draws only the steps its rows monitor.
The reduction picks B: the calibration maxima, whose rows all run the
full horizon, build one generator and make one draw call per 16 rows;
first alarms, which retire rows early, keep B = 1, a generator per row
(row i draws stream (1, i)), since a block draws for its retired rows
until its last one retires.  Chunks hold whole blocks and run one
after another.

One budget, ``_CHUNK_ELEMENTS``, bounds every (rows, steps) matrix of a
chunk.  A chunk holds as many whole blocks as fit it at the most steps
a row holds at once: its first segment, or under Student-t noise its
history when that is longer; a segment then holds as many steps as fit
it over the rows still running, so segments grow as rows retire, and
first-alarm chunks are not cut down to a few rows by a long horizon
that most rows never reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .prechange import _residuals, _row_lines, _sampled_row_lines
from .signal import NoiseSpec, _stream

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

# Elements of each (rows, steps) matrix a chunk holds at once (see
# chunked_replications and _segments).
_CHUNK_ELEMENTS = 65_536
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


def _across(rows: int, blocks: int, n: int) -> bool:
    """Whether a block of ``rows`` x ``blocks`` bins of width ``n`` takes
    its running sums as n - 1 vector adds across all its bins, in
    position-major memory, rather than as one cumulative sum along each
    bin.  Each add costs a call, so it must cover enough bins, the more
    the wider the bins (whose cumulative sums run faster); and past 32
    positions the transposing copies into and out of position-major
    memory cost more than the adds save once the block outgrows the
    cache.  Timed against the cumulative sums alone on a grid of shapes
    (n from 1 to 2000, 1 to 1024 rows, 1 to 4096 steps), no shape got
    slower by more than 4%, the call overhead of blocks of a few dozen
    elements.
    """
    return n <= 32 and rows * blocks >= max(256, 16 * n)


def _running_sums(resid, n, r0, carried, weighted):
    """Within-block running sums of the residuals, shape (rows, blocks,
    width) (position-major in memory when ``_across``), of the residuals
    weighted by position + 1 when ``weighted``, and the position of the
    first column.

    The open bin's carried s3 (and w3) sit at position ``r0`` of the
    first block and the residuals follow it, so the running sums go on
    from the carried ones.  A piece that stays inside its open bin lays
    out only its own positions r0 .. r0 + length, so its cost follows
    the piece, not the bin width; a longer piece lays out whole bins.
    """
    rows, length = resid.shape
    blocks = (r0 + length) // n + 1
    first, width = (r0, length + 1) if blocks == 1 else (0, n)
    s = np.zeros((rows, blocks * width))
    s[:, r0 - first + 1:r0 - first + 1 + length] = resid
    s = s.reshape(rows, blocks, width)
    across = _across(rows, blocks, n)
    if across:  # the one transposing copy, into position-major memory
        s = np.ascontiguousarray(s.transpose(2, 0, 1)).transpose(1, 2, 0)
    s[:, :, 0] += 0.0  # a bin opens at 0.0 as in step(), where 0.0 + -0.0 is 0.0
    w = None
    if weighted:
        w = s * np.arange(first + 1, first + width + 1, dtype=float)
        if carried is not None:
            w[:, 0, r0 - first] = carried[:, 5]
    if carried is not None:
        s[:, 0, r0 - first] = carried[:, 2]
    for a in (s, w) if weighted else (s,):
        if across:
            by_position = a.transpose(2, 0, 1)
            for prev, cur in zip(by_position[:-1], by_position[1:]):
                np.add(prev, cur, out=cur)
        else:
            np.cumsum(a, axis=2, out=a)
    return s, w, first


def _closed_bins(totals, carried, offset):
    """(rows, blocks + 2) bin totals: the carried s1, s2 (or w1, w2 at
    ``offset`` 3) ahead of each block's own total."""
    rows = totals.shape[0]
    out = np.zeros((rows, totals.shape[1] + 2))
    if carried is not None:
        out[:, :2] = carried[:, offset:offset + 2]
    out[:, 2:] = totals
    return out


def _kink_divisor(m: np.ndarray) -> np.ndarray:
    """d = M (M + 1) (2M + 1) / 6.0 for the int64 M of ``m``, with the
    product formed in exact integers as ``DetectorState.step`` forms it."""
    if m[-1] >= 2**20:  # Python integers: the product would pass 2**63
        m = m.astype(object)
    return (m * (m + 1) * (2 * m + 1) / 6.0).astype(float)


def _by_clock(total, divisor, cols):
    """``total / divisor`` (per position) as a (rows, clock) matrix over
    the columns ``cols``, transposed back from position-major memory."""
    out = total if total.flags.c_contiguous else np.empty(total.shape)
    np.divide(total, divisor, out=out)
    return out.reshape(total.shape[0], -1)[:, cols]


def _advance(resid, n, t0, carried, want_j, want_k):
    """J and/or K trajectories over ``resid`` from clock ``t0`` with the
    carried bins of one statistic; returns (j, k, bins at the end)."""
    length = resid.shape[1]
    r0 = t0 % n
    s, w, first = _running_sums(resid, n, r0, carried, want_k)
    s_closed = _closed_bins(s[:, :, -1], carried, 0)
    s2 = s_closed[:, 1:-1, None]
    cols = slice(r0 - first + 1, r0 - first + 1 + length)
    m = np.arange(2 * n + 1 + first, 2 * n + 1 + first + s.shape[2], dtype=np.int64)
    b, r = divmod(r0 + length, n)
    bins = [s_closed[:, b], s_closed[:, b + 1], s[:, b, r - first]]
    if want_k:
        w_closed = _closed_bins(w[:, :, -1], carried, 3)
        bins += [w_closed[:, b], w_closed[:, b + 1], w[:, b, r - first]]
    bins = np.stack(bins, axis=1)  # a copy: the sums are overwritten below
    j = k = None
    if want_k:
        kk = np.add(w_closed[:, :-2, None] + w_closed[:, 1:-1, None], w, out=w)
        kk += n * s2
        kk += (2 * n) * s
        k = _by_clock(kk, _kink_divisor(m), cols)
    if want_j:
        j = _by_clock(np.add(s_closed[:, :-2, None] + s2, s, out=s), m, cols)
    return j, k, bins


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
    alpha, beta, scaling = line
    if scaling is not None:
        scaling = tuple(column[rows] for column in scaling)
    return _residuals(x, first_index, alpha[rows], beta[rows], scaling)


def noise_matrix(noise: NoiseSpec, rngs: Sequence[np.random.Generator], length: int,
                 block: int = 1, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """The draw stage of ``replicate``: the next ``length`` draws of the
    ``rows`` (ascending; all by default) of a chunk whose blocks of
    ``block`` rows draw from the generators ``rngs``, one row each.  A
    block with any of the rows makes one time-major (length, block)
    draw, of which its row j takes column j, so a row's draws do not
    depend on how its stream is cut into draws."""
    rows = np.arange(len(rngs) * block) if rows is None else rows
    out = np.empty((rows.size, length))
    which = rows // block
    cols = (rows % block).tolist()
    starts = np.ones(rows.size, dtype=bool)  # each block's first row
    starts[1:] = which[1:] != which[:-1]
    edges = np.flatnonzero(starts).tolist() + [rows.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        drawn = noise.draw(rngs[which[lo]], (length, block)).T
        first, last = cols[lo], cols[hi - 1]
        # consecutive columns (a whole block, or its head) copy from a view
        out[lo:hi] = drawn[first:last + 1] if last - first == hi - lo - 1 else drawn[cols[lo:hi]]
    return out


def _history_draws(noise: NoiseSpec, rngs: Sequence[np.random.Generator], k: int,
                   standardize_first: bool, block: int = 1,
                   rows: Optional[np.ndarray] = None) -> np.ndarray:
    """The history stage of ``replicate`` under Gaussian noise: per row
    of ``rows`` (as for ``noise_matrix``), sigma z0 and sigma z1 and,
    when ``standardize_first``, sigma^2 chi^2_{k-2}, the draws from
    which ``prechange._sampled_row_lines`` forms its row's line, drawn
    before its monitored noise: one (2, block) draw per block, then
    ``block`` chi-squares."""
    rows = np.arange(len(rngs) * block) if rows is None else rows
    draws = noise_matrix(noise, rngs, 2, block, rows)
    if not standardize_first:
        return draws
    rss = np.zeros(rows.size)
    # chi^2_0 is 0, which chisquare(0) refuses; sigma = 0 draws nothing,
    # as ``NoiseSpec.draw`` draws nothing
    if k > 2 and noise.sigma > 0.0:
        chi2 = np.ravel([rng.chisquare(k - 2, block) for rng in rngs])
        rss[:] = noise.sigma**2 * chi2[rows]
    return np.column_stack([draws, rss])


def chunked_replications(replications: int, width: int, worker: Callable[[int, int], None],
                         block: int = 1) -> None:
    """Run ``worker(first, last)`` over replication chunks, in order.

    A chunk holds max(1, ``_CHUNK_ELEMENTS`` // ``width`` // ``block``)
    whole blocks of ``block`` rows, ``width`` being the most steps a row
    holds at once (see ``replicate``), so a chunk's first matrices hold
    512 KB at most (or one block's rows) at any replication count, and
    ``_segments`` keeps its later ones within the same budget.  Each
    worker call must touch only the rows [first, last).
    """
    # Freeing one untouched 16 MB block raises glibc's mmap and trim
    # thresholds: the heap then keeps the pages chunks free, not faulting
    # them in anew (a full calibrate: 256K page faults and 2.5 s without
    # it, a dozen and 1.7 s with it); other allocators ignore it.
    np.empty(2**21)
    chunk = max(1, _CHUNK_ELEMENTS // max(width, 1) // block) * block
    for lo in range(0, replications, chunk):
        worker(lo, min(lo + chunk, replications))


def _segments(rows, T, residuals, visit) -> None:
    """The segment loop over ``rows`` streams of T steps: for segments of
    ``_FIRST_SEGMENT``, twice that, ... steps, ``visit(t0, resid,
    active)`` reduces ``residuals(t0, length, active)``, the steps
    t0 + 1 .. t0 + length of the rows ``active``, to the rows that go on.
    A segment holds at most ``_CHUNK_ELEMENTS`` // active steps, so its
    (active, length) matrices stay within the chunk budget, and
    segments grow as rows retire."""
    active = np.arange(rows)
    t0, length = 0, _FIRST_SEGMENT
    while active.size and t0 < T:
        length = min(length, T - t0, max(1, _CHUNK_ELEMENTS // active.size))
        active = visit(t0, residuals(t0, length, active), active)
        t0 += length
        length *= 2


def segment_alarms(
    rows: int,
    T: int,
    config: DetectorConfig,
    residuals: Callable[[int, int, np.ndarray], np.ndarray],
    bins: Optional[BatchBins] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(alarm step, kind) per row of ``rows`` streams of T steps, as
    ``batch_alarms`` gives on their full-horizon statistics.  ``residuals`` is as for ``_segments``;
    a row leaves the loop at its first alarm, so later segments ask
    only for the rows not yet alarmed.  The rows start from the carried
    ``bins`` (advanced in place, as ``batch_stats`` advances them, and
    left with the rows not alarmed), or fresh without them."""
    alarm = np.full(rows, T + 1, dtype=np.int64)
    kind = np.zeros(rows, dtype=np.int8)
    bins = BatchBins() if bins is None else bins

    def visit(t0, resid, active):
        j, kk = batch_stats(resid, config.n_jump, config.n_kink, bins)
        step, code = batch_alarms(j, kk, config.rho_jump, config.rho_kink)
        hit = step <= resid.shape[1]
        alarm[active[hit]] = t0 + step[hit]
        kind[active[hit]] = code[hit]
        bins.select(~hit)
        return active[~hit]

    _segments(rows, T, residuals, visit)
    return alarm, kind


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
              signal: Optional[np.ndarray] = None,
              standardize_first: bool = False, block: int = 1) -> List[np.ndarray]:
    """The Monte Carlo driver over replications of up to ``total``
    observations (noise plus ``signal``, history k, over which the
    signal is one line).  Rows come in blocks of ``block``: block b
    holds rows b ``block`` .. (b + 1) ``block`` - 1 and draws, whatever
    its chunk, stream (``block``, b) of ``master_seed`` (the seed rule
    of ``signal._stream``), time-major as ``noise_matrix`` draws (a last
    partial block draws every column and drops the surplus).  Per chunk
    of whole blocks it gives each row its line (drawn from the law of
    the fit under Gaussian noise, fitted to the drawn history
    otherwise), and joins over the chunks the per-row arrays of
    ``reduce(rows, residuals)``: ``residuals(t0, length, active)`` draws
    the next ``length`` observations of the rows ``active`` and gives
    their residuals at monitoring steps t0 + 1 .. t0 + length.

    A block keeps drawing for its retired rows until its last row
    retires, so a reduction whose rows all run the full horizon takes
    blocks of many rows, and one that retires rows early takes
    ``block`` = 1, row i's own stream (1, i).  A chunk is sized by a
    row's first segment (or its history, if longer, under Student-t
    noise), not by its whole horizon; see ``chunked_replications`` and
    ``_segments``."""
    if total <= k:
        raise ValueError(f"stream length {total} must exceed history {k}")
    gaussian = noise.kind == "gaussian"
    hist_signal = np.zeros(k) if signal is None else signal[:k]
    parts = []

    def worker(lo: int, hi: int) -> None:
        rngs = [np.random.default_rng(_stream(master_seed, block, b))
                for b in range(lo // block, -(-hi // block))]
        rows = np.arange(hi - lo)
        if gaussian:
            line = _sampled_row_lines(
                hist_signal, _history_draws(noise, rngs, k, standardize_first, block, rows),
                standardize_first)
        else:
            line = _row_lines(noise_matrix(noise, rngs, k, block, rows) + hist_signal,
                              standardize_first)

        def residuals(t0: int, length: int, active: np.ndarray) -> np.ndarray:
            x = noise_matrix(noise, rngs, length, block, active)
            if signal is not None:
                x += signal[k + t0:k + t0 + length]
            return batch_residuals(line, x, k + t0 + 1, active)

        parts.append(reduce(hi - lo, residuals))

    # a row holds its first segment at once; a Student-t row first
    # holds its history (Gaussian rows draw their lines instead)
    width = min(total - k, _FIRST_SEGMENT)
    chunked_replications(replications, width if gaussian else max(k, width), worker, block)
    if not parts:  # no replications: an empty chunk gives the empty arrays
        worker(0, 0)
    return [np.concatenate(col) for col in zip(*parts)]


def first_alarms(
    noise: NoiseSpec,
    master_seed: int,
    replications: int,
    k: int,
    total: int,
    config: DetectorConfig,
    signal: Optional[np.ndarray] = None,
    standardize_first: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """(alarm step, kind) per replication of ``total`` observations
    (noise plus ``signal``, history k), as ``batch_alarms`` gives on
    their full-horizon statistics: ``replicate`` with the first-crossing
    reduction, so each row stops drawing and monitoring at its first
    alarm."""
    alarm, kind = replicate(
        noise, master_seed, replications, k, total,
        lambda rows, residuals: segment_alarms(rows, total - k, config, residuals),
        signal, standardize_first)
    return alarm, kind
