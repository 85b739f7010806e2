"""Independent reference implementations used as test oracles.

These deliberately avoid the incremental bookkeeping and the cumsum
tricks of the library: statistics are evaluated directly from an
explicitly stored window, and regression coefficients come from
solving the 2x2 normal equations.  The exceptions are ``step_run`` and
``step_multi_bin_run``: they monitor one ``DetectorState.step`` per
observation, the streaming reference that the batch-kernel ``run`` and
``multi_bin_run`` must reproduce bit for bit; and ``replication_rows``,
``replication_residuals``, ``full_horizon_maxima`` and
``config_alarms``: they rebuild every replication row from its
block's generator, its pre-change line and then all its monitored
noise, and monitor its full horizon in one matrix, the reference that
the chunked, segmented Monte Carlo driver (``engine.replicate``) must
reproduce bit for bit.  A Gaussian row's line comes from its drawn
sufficient statistics (``prechange._sampled_row_lines``), so a full-horizon
reference cannot rebuild it from a history series; a Student-t row's
comes from its drawn history, and ``full_history`` draws and fits a
history for Gaussian rows too, the law that the sampled lines must
reproduce.  ``union_at_ranks`` compares every row with every family's
threshold at every rank, the reference for the rank count of
``calibration._thresholds``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from linewatch import DetectorState, NoiseSpec, fit_ols, standardize
from linewatch import engine
from linewatch.calibration import _MAXIMA_BLOCK
from linewatch.engine import batch_alarms, batch_stats
from linewatch.prechange import _row_lines, _sampled_row_lines


def window_stats(
    residuals, n_jump: Optional[int], n_kink: Optional[int]
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """J_t and K_t computed from the full stored residual window.

    Window convention: at monitoring clock t the window spans the last
    M = 2N + (t mod N) + 1 slots, zero-padded before the first
    monitored observation; the kink weight of slot i (1-based within
    the window) is i, with normalizer sum(i^2).
    """
    res = np.asarray(residuals, dtype=float)
    T = res.size
    j_out = [] if n_jump is not None else None
    k_out = [] if n_kink is not None else None
    for t in range(1, T + 1):
        if n_jump is not None:
            m = 2 * n_jump + (t % n_jump) + 1
            window = _padded_window(res, t, m)
            j_out.append(window.sum() / m)
        if n_kink is not None:
            m = 2 * n_kink + (t % n_kink) + 1
            window = _padded_window(res, t, m)
            weights = np.arange(1, m + 1, dtype=float)
            k_out.append((weights @ window) / (weights @ weights))
    return (
        np.array(j_out) if j_out is not None else None,
        np.array(k_out) if k_out is not None else None,
    )


def _padded_window(res: np.ndarray, t: int, m: int) -> np.ndarray:
    lo = t - m  # slots lo+1 .. t; slot indices <= 0 hold zeros
    if lo >= 0:
        return res[lo:t]
    return np.concatenate([np.zeros(-lo), res[:t]])


def window_stats_fsum(residuals, n_jump: int, n_kink: int):
    """Slow exact-summation variant for small cases."""
    res = list(map(float, residuals))
    T = len(res)
    js, ks = [], []
    for t in range(1, T + 1):
        m = 2 * n_jump + (t % n_jump) + 1
        window = [res[i - 1] if i >= 1 else 0.0 for i in range(t - m + 1, t + 1)]
        js.append(math.fsum(window) / m)
        m = 2 * n_kink + (t % n_kink) + 1
        window = [res[i - 1] if i >= 1 else 0.0 for i in range(t - m + 1, t + 1)]
        num = math.fsum((i + 1) * w for i, w in enumerate(window))
        ks.append(num / (m * (m + 1) * (2 * m + 1) / 6))
    return np.array(js), np.array(ks)


def normal_equations_fit(times, values) -> Tuple[float, float]:
    """(alpha, beta) from solving [[k, St], [St, Stt]] directly."""
    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    design = np.array([[t.size, t.sum()], [t.sum(), (t * t).sum()]])
    rhs = np.array([x.sum(), (t * x).sum()])
    alpha, beta = np.linalg.solve(design, rhs)
    return float(alpha), float(beta)


def signal_at(theta, i: int, n: int) -> float:
    """The signal at observation ``i`` of ``n``, one piece at a time."""
    t = i / n
    if t <= theta.tau:
        return theta.beta_minus * (t - theta.tau) + theta.alpha_minus
    return theta.beta_plus * (t - theta.tau) + theta.alpha_plus


def first_crossing_alarm(
    j: Optional[np.ndarray],
    k: Optional[np.ndarray],
    rho_jump: float,
    rho_kink: float,
) -> Tuple[Optional[int], Optional[str]]:
    """Scan the trajectories step by step, jump checked first."""
    T = (j if j is not None else k).size
    for t in range(T):
        if j is not None and abs(j[t]) >= rho_jump:
            return t + 1, "jump"
        if k is not None and abs(k[t]) >= rho_kink:
            return t + 1, "kink"
    return None, None


def _step_states(series, k, configs, prechange, standardize_first):
    x = np.asarray(series, dtype=float)
    if standardize_first:
        x, _ = standardize(x, k)
    if prechange is None:
        prechange = fit_ols(x[:k])
    return x[k:].tolist(), [DetectorState(c, prechange, absolute_offset=k) for c in configs]


def step_run(series, k, config, prechange=None, standardize_first=False):
    """(event, trace) of monitoring ``series[k:]`` one step at a time,
    stopping at the first alarm."""
    values, (state,) = _step_states(series, k, [config], prechange, standardize_first)
    trace: List = []
    for value in values:
        snap, event = state.step(value)
        trace.append(snap)
        if event is not None:
            return event, trace
    return None, trace


def step_multi_bin_run(series, k, configs):
    """(event, index of its config) of stepping every config per
    observation on the line fitted to ``series[:k]``; at one
    observation the earlier config wins."""
    values, states = _step_states(series, k, configs, None, False)
    for value in values:
        for idx, state in enumerate(states):
            _, event = state.step(value)
            if event is not None:
                return event, idx
    return None, None


def config_alarms(resid, config):
    """(alarm step, kind) per replication row of a residual matrix, from
    its full-horizon statistics: the reference for ``first_alarms``."""
    j, k = batch_stats(resid, config.n_jump, config.n_kink)
    return batch_alarms(j, k, config.rho_jump, config.rho_kink)


def noise_matrix(noise: NoiseSpec, master_seed: int, first: int, last: int,
                 T: int) -> np.ndarray:
    """Noise rows for replication indices [first, last), each the first
    T draws of its own stream, (1, rep) of the master seed's spawn tree,
    as a first-alarm run (blocks of one row) draws it."""
    rngs = [np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(1, rep)))
            for rep in range(first, last)]
    return engine.noise_matrix(noise, rngs, T)


def batch_residuals(x: np.ndarray, k: int, standardize_first: bool = False) -> np.ndarray:
    """Residuals of the monitored segment for a (replications, k + T)
    observation matrix, against the
    pre-change line fitted per row on the first k columns."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    total = x.shape[1]
    if total <= k:
        raise ValueError(f"stream length {total} must exceed history {k}")
    line = _row_lines(x[:, :k], standardize_first)
    return engine.batch_residuals(line, x[:, k:], k + 1)


def replication_rows(noise: NoiseSpec, master_seed: int, first: int, last: int, k: int,
                     T: int, signal=None, standardize_first: bool = False,
                     full_history: bool = False, block: int = 1):
    """(line, x) of replications [first, last) of k + T observations
    (noise plus ``signal``): each row's pre-change line, as the
    (alpha, beta, scaling) of ``prechange``, and its T
    monitored observations, one row each.

    Row i belongs to block b = i // ``block``, whose generator, seeded
    by ``SeedSequence(master_seed, spawn_key=(block, b))``, draws
    time-major, one row per step and row i's value in column
    i - b ``block``.  It draws first
    the lines of its rows: under Gaussian noise a (2, block) matrix of
    sigma z0 and sigma z1 and, standardized, ``block`` values
    sigma^2 chi^2_{k-2} (none for k = 2 or sigma = 0); under other
    noise, or with ``full_history``, a (k, block) history.  Then it
    draws its rows' T monitored values in one (T, block) call."""
    signal = np.zeros(k + T) if signal is None else np.asarray(signal, dtype=float)
    sampled = noise.kind == "gaussian" and not full_history
    heads, monitored = [], []
    for b in range(first // block, -(-last // block)):
        rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(block, b)))
        if sampled:
            head = noise.draw(rng, (2, block))
            if standardize_first:
                chi2 = (rng.chisquare(k - 2, block) if k > 2 and noise.sigma > 0.0
                        else np.zeros(block))
                head = np.vstack([head, noise.sigma ** 2 * chi2])
        else:
            head = noise.draw(rng, (k, block))
        # one contiguous series per row, as a row fitted alone holds it
        heads.append(head.T.copy())
        monitored.append(noise.draw(rng, (T, block)).T.copy())
    rows = slice(first % block, first % block + last - first)
    head = np.vstack(heads)[rows]
    if sampled:
        line = _sampled_row_lines(signal[:k], head, standardize_first)
    else:
        line = _row_lines(head + signal[:k], standardize_first)
    return line, np.vstack(monitored)[rows] + signal[k:k + T]


def replication_residuals(noise: NoiseSpec, master_seed: int, first: int, last: int, k: int,
                          T: int, signal=None, standardize_first: bool = False,
                          full_history: bool = False, block: int = 1) -> np.ndarray:
    """The residuals of the T monitored observations of the rows of
    ``replication_rows`` against their lines."""
    line, x = replication_rows(noise, master_seed, first, last, k, T, signal,
                               standardize_first, full_history, block)
    return engine.batch_residuals(line, x, k + 1)


def full_horizon_maxima(spec, pairs, full_history: bool = False, block: int = _MAXIMA_BLOCK):
    """(max |J|, max |K|) per replication for each (n_jump, n_kink) of
    ``pairs`` over monitoring steps 1 .. horizon - 1 of a calibration
    spec, from one full-horizon matrix of rows drawn in blocks of
    ``block``: the reference for the calibration maxima (with
    ``full_history`` or another ``block``, their law)."""
    resid = replication_residuals(spec.noise, spec.master_seed, 0, spec.replications, spec.k,
                                  spec.horizon - 1, standardize_first=spec.standardize,
                                  full_history=full_history, block=block)
    return [tuple(None if s is None else np.abs(s).max(axis=1)
                  for s in batch_stats(resid, nj, nk)) for nj, nk in pairs]


def union_at_ranks(families) -> np.ndarray:
    """Fraction of rows reaching some family's q-th smallest maximum,
    at index q - 1 for q = 1..r, by direct comparison at every rank."""
    sorted_fams = [np.sort(f) for f in families]
    return np.array([
        np.mean(np.any([f >= s[q - 1] for f, s in zip(families, sorted_fams)], axis=0))
        for q in range(1, len(families[0]) + 1)])
