"""Constant-memory streaming detector for jumps and kinks.

Each enabled statistic keeps three bins of residual sums.  With bin
size N and monitoring clock t (t = 1 at the first monitored
observation), r = t mod N; when r == 0 the oldest bin is discarded and
a fresh one started.  The statistics over the implied window of
M = 2N + r + 1 slots (zero-padded while the bins fill) are

    jump:  J = (s1 + s2 + s3) / M
    kink:  K = (w1 + w2 + w3 + N*s2 + 2N*s3) / d,
           d = M (M+1) (2M+1) / 6

where the s's are plain residual sums per bin and the w's weight each
residual by its 1-based position within its bin.  K is the linearly
weighted residual mean with weights 1..M across the window; d is
sum(i^2, i=1..M).  An alarm fires when |J| >= rho_jump (checked first)
or |K| >= rho_kink, never at an infinite threshold; state size is O(1).

One ``DetectorState`` holds the bins, in ``engine.BatchBins`` column
order; ``step`` folds in one value in pure Python, ``extend`` a block on
the batch kernel, bit for bit alike.  ``run`` extends a fresh state by a
recorded series; ``multi_bin_run`` is a ``run`` at its first scale, whose
residuals it folds into a fresh state for each further scale.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .engine import BatchBins, batch_stats, segment_alarms
from .errors import DetectorStoppedError
from .prechange import (
    KnownPrechange,
    PrechangeFit,
    _line,
    _residuals,
    fit_ols,
    standardize,
)
from .signal import ChangeKind

__all__ = [
    "DetectionEvent",
    "DetectorConfig",
    "DetectorState",
    "MultiBinResult",
    "RunResult",
    "load_state",
    "multi_bin_run",
    "run",
    "save_state",
    "StatSnapshot",
    "theorem_scale_config",
]


@dataclass(frozen=True)
class DetectorConfig:
    """Bin sizes and thresholds; a statistic with bin size None is off.

    Thresholds may be math.inf to keep a statistic computed but never
    alarming.
    """

    n_jump: Optional[int] = None
    n_kink: Optional[int] = None
    rho_jump: float = math.inf
    rho_kink: float = math.inf

    def __post_init__(self) -> None:
        if self.n_jump is None and self.n_kink is None:
            raise ValueError("at least one statistic must be enabled")
        for name, n in (("n_jump", self.n_jump), ("n_kink", self.n_kink)):
            if n is not None and (not hasattr(n, "__index__") or n < 1):
                raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
        for name, rho in (("rho_jump", self.rho_jump), ("rho_kink", self.rho_kink)):
            if math.isnan(rho) or rho <= 0.0:
                raise ValueError(f"{name} must be > 0 (inf allowed), got {rho}")


@dataclass(frozen=True)
class DetectionEvent:
    """An alarm: absolute index, change type, and what crossed what."""

    time: int
    kind: ChangeKind
    stat_value: float
    threshold: float


class StatSnapshot(NamedTuple):
    """Statistic values after one step; windows lie in [2N+1, 3N].

    An immutable named tuple: its fields are read-only, and it is
    iterable and equal to the plain tuple of its fields.
    """

    t: int
    j_stat: Optional[float]
    k_stat: Optional[float]
    window_jump: Optional[int]
    window_kink: Optional[int]


class DetectorState:
    """Mutable runtime state; single writer, constant size.

    ``prechange`` supplies the fitted (or known) line; residuals are
    always computed against the absolute observation index
    ``absolute_offset + t``.  ``jump`` and ``kink`` hold the bins of an
    enabled statistic (None when it is off).
    """

    def __init__(
        self,
        config: DetectorConfig,
        prechange: Union[PrechangeFit, KnownPrechange],
        absolute_offset: int,
    ):
        self.config = config
        self.prechange = prechange
        self.absolute_offset = int(absolute_offset)
        self.t = 0
        self.jump: Optional[List[float]] = [0.0] * 3 if config.n_jump else None
        self.kink: Optional[List[float]] = [0.0] * 6 if config.n_kink else None
        self.stopped: Optional[DetectionEvent] = None

    def step(self, x_t: float) -> Tuple[StatSnapshot, Optional[DetectionEvent]]:
        """Fold in one observation; constant work and memory.

        Returns the immutable ``StatSnapshot`` of this step and the
        event, or None while nothing crosses.
        """
        if self.stopped is not None:
            raise DetectorStoppedError(f"detector stopped at index {self.stopped.time}")
        t = self.t = self.t + 1
        abs_index = self.absolute_offset + t
        res = x_t - self.prechange.predict_at_index(abs_index)
        config = self.config
        j_stat = k_stat = window_jump = window_kink = None

        b = self.jump
        if b is not None:
            n = config.n_jump
            r = t % n
            if r == 0:
                b[:] = b[1], b[2], 0.0
            s3 = b[2] = b[2] + res
            m = window_jump = 2 * n + r + 1
            j_stat = (b[0] + b[1] + s3) / m

        b = self.kink
        if b is not None:
            n = config.n_kink
            r = t % n
            if r == 0:
                b[:] = b[1], b[2], 0.0, b[4], b[5], 0.0
            s3 = b[2] = b[2] + res
            w3 = b[5] = b[5] + (r + 1) * res
            m = window_kink = 2 * n + r + 1
            d = m * (m + 1) * (2 * m + 1) / 6.0
            k_stat = (b[3] + b[4] + w3 + n * b[1] + 2 * n * s3) / d

        snap = tuple.__new__(StatSnapshot, (t, j_stat, k_stat, window_jump, window_kink))
        if j_stat is not None and abs(j_stat) >= config.rho_jump and config.rho_jump < math.inf:
            kind, stat, rho = ChangeKind.JUMP, j_stat, config.rho_jump
        elif k_stat is not None and abs(k_stat) >= config.rho_kink and config.rho_kink < math.inf:
            kind, stat, rho = ChangeKind.KINK, k_stat, config.rho_kink
        else:
            return snap, None
        event = self.stopped = DetectionEvent(abs_index, kind, abs(stat), rho)
        return snap, event

    def extend(self, values: Sequence[float]) -> Optional[DetectionEvent]:
        """Fold in a block of observations on the batch kernel and stop
        at the first alarm, returning its event (or None).

        ``t``, the bins and ``stopped`` end as that many ``step`` calls
        would leave them; memory is that of the block's residuals.
        """
        first = self.absolute_offset + self.t + 1
        return self._fold(_residuals(np.asarray(values, dtype=float), first,
                                     *_line(self.prechange)))

    @np.errstate(invalid="ignore", over="ignore")  # silent on inf - inf, as step() is
    def _fold(self, resid: np.ndarray) -> Optional[DetectionEvent]:
        """``extend`` on the residuals of the next observations."""
        if self.stopped is not None:
            raise DetectorStoppedError(f"detector stopped at index {self.stopped.time}")
        config = self.config
        bins = BatchBins(self.t, *(None if b is None else np.array([b])
                                   for b in (self.jump, self.kink)))
        start = [bins]

        def segment(t0, length, _):
            start[0] = dataclasses.replace(bins)  # the bins the segment starts from
            return resid[None, t0:t0 + length]

        (step,), (code,), (stat,) = segment_alarms(1, resid.size, config, segment, bins)
        event = None
        if code:  # the kernel's bins run to the end of the segment: replay up to the alarm
            bins = start[0]
            batch_stats(resid[None, bins.t - self.t:step], config.n_jump, config.n_kink, bins)
            kind, rho = ((ChangeKind.JUMP, config.rho_jump) if code == 1
                         else (ChangeKind.KINK, config.rho_kink))
            event = self.stopped = DetectionEvent(self.absolute_offset + bins.t, kind,
                                                  float(stat), rho)
        self.t = bins.t
        self.jump, self.kink = (None if b is None else b[0].tolist()
                                for b in (bins.jump, bins.kink))
        return event


@dataclass(frozen=True)
class RunResult:
    """Outcome of monitoring one series end to end.

    ``event`` is None when nothing crossed; ``alarm_time`` then equals
    the horizon so downstream risk computations can map no-detection to
    the end of the stream.  ``residuals`` holds those of observations
    k+1..n against the pre-change line.  ``state`` is the detector where
    monitoring stopped, to go on from when nothing crossed; its clock
    ``state.t`` counts the residuals monitored.
    """

    event: Optional[DetectionEvent]
    horizon: int
    prechange: Union[PrechangeFit, KnownPrechange]
    scaling: Optional[Tuple[float, float]]
    residuals: np.ndarray = field(compare=False, repr=False)
    state: DetectorState = field(compare=False, repr=False)

    @property
    def detected(self) -> bool:
        return self.event is not None

    @property
    def alarm_time(self) -> int:
        return self.event.time if self.event is not None else self.horizon


@np.errstate(invalid="ignore", over="ignore")  # silent on inf - inf, as step() is
def run(
    series: Sequence[float],
    k: int,
    config: DetectorConfig,
    prechange: Optional[KnownPrechange] = None,
    standardize_first: bool = False,
) -> RunResult:
    """Fit (or accept) the pre-change line on observations 1..k, then
    monitor k+1..end with ``DetectorState.extend`` and stop at the first
    threshold crossing; event and state equal those of
    ``DetectorState.step`` bit for bit."""
    x = np.asarray(series, dtype=float)
    if k < 0:
        raise ValueError(f"history length k must be >= 0, got {k}")
    if x.size <= k:
        raise ValueError(f"series length {x.size} must exceed history length {k}")
    scaling = None
    if standardize_first:
        x, scaling = standardize(x, k)
    if prechange is None:
        prechange = fit_ols(x[:k])
    resid = _residuals(x[k:], k + 1, *_line(prechange))
    state = DetectorState(config, prechange, absolute_offset=k)
    return RunResult(state._fold(resid), x.size, prechange, scaling, resid, state)


@dataclass(frozen=True)
class MultiBinResult:
    event: Optional[DetectionEvent]
    scale_index: Optional[int]
    horizon: int
    prechange: PrechangeFit

    @property
    def detected(self) -> bool:
        return self.event is not None


def multi_bin_run(
    series: Sequence[float], k: int, configs: Sequence[DetectorConfig]
) -> MultiBinResult:
    """Monitor one stream at several bin sizes at once.

    The first scale is ``run(series, k, configs[0])``; each later one
    folds that run's residuals into a fresh ``DetectorState`` on its
    fitted line, up to the best alarm so far.  The first crossing wins;
    at the same observation, earlier list entries take precedence (and
    jump before kink within a scale).
    """
    if len(configs) == 0:
        raise ValueError("configs must be non-empty")
    first = run(series, k, configs[0])
    event, scale = first.event, 0 if first.detected else None
    for idx, config in enumerate(configs[1:], start=1):
        # a later scale must alarm strictly before the best so far
        state = DetectorState(config, first.prechange, absolute_offset=k)
        found = state._fold(first.residuals[:None if event is None else event.time - k - 1])
        if found is not None:
            event, scale = found, idx
    return MultiBinResult(event=event, scale_index=scale, horizon=first.horizon,
                          prechange=first.prechange)


def theorem_scale_config(n: float, c: float) -> DetectorConfig:
    """Bin sizes and thresholds of both statistics from the rate-optimal
    presets.

    N_jump = ceil(1000 log(n) / (2 c^2)) with rho_jump = 4c/5, and
    N_kink = ceil((300/c^2)^(1/3) n^(2/3) log(n)^(1/3)) with
    rho_kink = 4c/(5n).  Both thresholds are in residual units, which
    do not depend on the time scale the pre-change line is fitted on.

    Both statistics can fire only once the stream holds at least
    3 N_kink observations after the change (K spans three kink bins);
    with c = 1 and the change at n/2 (k = n/10, say) that needs n of
    about 1e6 or more.  On such a stream the scales are far apart
    (N_jump = 6908, N_kink = 160632 at n = 1e6), so the statistic that
    fires first names the change type.
    """
    if not (0.0 < c <= 1.0):
        raise ValueError(f"rate constant c must lie in (0, 1], got {c}")
    if not n > 1.0:
        raise ValueError(f"horizon n must exceed 1, got {n}")
    n_jump, n_kink = _rate_bins(n, 1e3 / (2.0 * c * c), (300.0 / (c * c)) ** (1.0 / 3.0))
    return DetectorConfig(n_jump, n_kink, 4.0 * c / 5.0, 4.0 * c / (5.0 * n))


def _rate_bins(n: float, jump_scale: float, kink_scale: float) -> Tuple[int, int]:
    """Bin sizes (N_jump, N_kink) of the rate-optimal growth laws at
    horizon n, N_jump = ceil(jump_scale log(n)) and N_kink =
    ceil(kink_scale n^(2/3) log(n)^(1/3)), each at least 1."""
    log_n = math.log(n)
    return (max(1, math.ceil(jump_scale * log_n)),
            max(1, math.ceil(kink_scale * n ** (2.0 / 3.0) * log_n ** (1.0 / 3.0))))


# Snapshot format: fixed-size little-endian record so the serialized
# size of a state is a constant independent of how many observations
# it has absorbed, and floats round-trip bit-exactly.
_SNAP_MAGIC = b"LWSNAP01"
_SNAP_FMT = (
    "<8s"  # magic
    "qq"  # n_jump, n_kink (-1 = disabled)
    "dd"  # rho_jump, rho_kink
    "Bq"  # reserved time kind and unit: always zero (lines are fitted on indices)
    "Bq"  # prechange kind (0 fit, 1 known), fit k
    "dddddddd"  # alpha, beta, mean_t, mean_x, s_tt, s_tx, s_xx, resid_sd
    "qq"  # t, absolute_offset
    "Bqdd"  # stopped flag, event time, stat_value, threshold
    "B"  # event kind (0 jump, 1 kink)
    "qdddddd"  # jump bins: r = t mod N, s1, s2, s3, three zeros
    "qdddddd"  # kink bins: r = t mod N, s1, s2, s3, w1, w2, w3
)
SNAPSHOT_SIZE = struct.calcsize(_SNAP_FMT)


def save_state(state: DetectorState) -> bytes:
    """Serialize to the fixed-size binary snapshot (version LWSNAP01)."""
    cfg = state.config
    pc = state.prechange
    if isinstance(pc, PrechangeFit):
        pc_kind = 0
        pc_vals = (pc.k, pc.alpha_hat, pc.beta_hat, pc.mean_t, pc.mean_x,
                   pc.s_tt, pc.s_tx, pc.s_xx, pc.resid_sd)
    else:
        pc_kind = 1
        pc_vals = (0, pc.alpha, pc.beta, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ev = state.stopped
    event = ((1, ev.time, ev.stat_value, ev.threshold, int(ev.kind is ChangeKind.KINK))
             if ev else (0, 0, 0.0, 0.0, 0))

    def bin_vals(bins: Optional[List[float]], n: Optional[int]):
        if bins is None:
            return (0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return (state.t % n, *bins, *[0.0] * (6 - len(bins)))

    return struct.pack(
        _SNAP_FMT,
        _SNAP_MAGIC,
        -1 if cfg.n_jump is None else cfg.n_jump,
        -1 if cfg.n_kink is None else cfg.n_kink,
        cfg.rho_jump,
        cfg.rho_kink,
        0,
        0,
        pc_kind,
        *pc_vals,
        state.t,
        state.absolute_offset,
        *event,
        *bin_vals(state.jump, cfg.n_jump),
        *bin_vals(state.kink, cfg.n_kink),
    )


def _check_zeros(name: str, values: Sequence[float]) -> None:
    """Reject a field that ``save_state`` writes as zeros (+0.0 for a
    float) but that holds anything else, so that every snapshot
    ``load_state`` accepts saves back to the same bytes."""
    if any(v != 0 or math.copysign(1.0, v) < 0 for v in values):
        raise ValueError(f"corrupt snapshot: {name} {tuple(values)} must be zero")


def load_state(blob: bytes) -> DetectorState:
    """Rebuild a DetectorState from ``save_state`` output.

    Raises ValueError naming the first field that no state of this
    configuration can hold, or that ``save_state`` would not write back
    as it stands.
    """
    if len(blob) != SNAPSHOT_SIZE:
        raise ValueError(f"snapshot must be {SNAPSHOT_SIZE} bytes, got {len(blob)}")
    fields = struct.unpack(_SNAP_FMT, blob)
    if fields[0] != _SNAP_MAGIC:
        raise ValueError("bad snapshot magic; not a detector snapshot")
    (_, nj, nk, rho_j, rho_k, ts_kind, ts_n, pc_kind, pc_k,
     alpha, beta, mean_t, mean_x, s_tt, s_tx, s_xx, resid_sd,
     t, offset, stopped, ev_time, ev_stat, ev_rho, ev_kind) = fields[:24]
    jump_raw = fields[24:31]
    kink_raw = fields[31:38]
    _check_zeros("reserved time kind and time unit", (ts_kind, ts_n))
    if pc_kind not in (0, 1):
        raise ValueError(f"corrupt snapshot: prechange kind {pc_kind} is not 0 or 1")
    if t < 0:
        raise ValueError(f"corrupt snapshot: clock t = {t} is negative")
    if stopped not in (0, 1):
        raise ValueError(f"corrupt snapshot: stopped flag {stopped} is not 0 or 1")
    if ev_kind not in (0, 1):
        raise ValueError(f"corrupt snapshot: event kind {ev_kind} is not 0 or 1")
    if not stopped:
        _check_zeros("event fields of a running detector", (ev_time, ev_stat, ev_rho, ev_kind))
    if pc_kind == 0:
        pc: Union[PrechangeFit, KnownPrechange] = PrechangeFit(
            alpha_hat=alpha, beta_hat=beta, k=pc_k,
            mean_t=mean_t, mean_x=mean_x, s_tt=s_tt, s_tx=s_tx, s_xx=s_xx,
            resid_sd=resid_sd,
        )
    else:
        _check_zeros("known line k and moments",
                     (pc_k, mean_t, mean_x, s_tt, s_tx, s_xx, resid_sd))
        pc = KnownPrechange(alpha=alpha, beta=beta)
    config = DetectorConfig(  # -1 is off; other values below 1 fail here
        None if nj == -1 else nj, None if nk == -1 else nk, rho_j, rho_k
    )
    state = DetectorState(config, pc, absolute_offset=offset)
    state.t = t
    for name, raw, n in (("jump", jump_raw, config.n_jump), ("kink", kink_raw, config.n_kink)):
        if n is None:
            _check_zeros(f"{name} bins of a disabled statistic", raw)
        elif raw[0] != t % n:
            raise ValueError(
                f"corrupt snapshot: {name} bin position r = {raw[0]} is not t mod N = {t % n}"
            )
    _check_zeros("jump bin w slots", jump_raw[4:])
    state.jump = None if state.jump is None else list(jump_raw[1:4])
    state.kink = None if state.kink is None else list(kink_raw[1:])
    if stopped:
        if ev_time != offset + t:
            raise ValueError(
                f"corrupt snapshot: event time {ev_time} is not offset + t = {offset + t}"
            )
        state.stopped = DetectionEvent(
            time=ev_time,
            kind=ChangeKind.KINK if ev_kind else ChangeKind.JUMP,
            stat_value=ev_stat,
            threshold=ev_rho,
        )
    return state
