"""The batch engine must agree with the streaming detector: the same
statistics bit for bit, the same alarms, the same fits; and the
early-exit driver must give the full-horizon reference's alarms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linewatch import (CalibrationSpec, DetectorConfig, DetectorState, KnownPrechange,
                       NoiseSpec, SignalParams, engine, generate_series, run,
                       simulate_null_maxima)
from linewatch.engine import (BatchBins, batch_alarms, batch_stats, first_alarms, replicate,
                              segment_alarms)
from linewatch.prechange import _row_lines, _sampled_row_lines, fit_ols

from oracles import (batch_residuals, config_alarms, first_crossing_alarm, noise_matrix,
                     replication_residuals, replication_rows)


def _streaming_stats(res, n_jump, n_kink):
    state = DetectorState(
        DetectorConfig(n_jump, n_kink), KnownPrechange(0.0, 0.0), absolute_offset=0
    )
    js, ks = [], []
    for x in res:
        snap, _ = state.step(float(x))
        js.append(snap.j_stat)
        ks.append(snap.k_stat)
    return np.array(js, dtype=float), np.array(ks, dtype=float)


def test_batch_stats_equal_streaming():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n_jump = int(rng.integers(1, 40))
        n_kink = int(rng.integers(1, 40))
        length = int(rng.integers(2, 600))
        res = rng.standard_normal(length)
        j, k = batch_stats(res[None, :], n_jump, n_kink)
        sj, sk = _streaming_stats(res, n_jump, n_kink)
        assert np.array_equal(j[0], sj)
        assert np.array_equal(k[0], sk)


def test_batch_stats_equal_streaming_on_a_long_offset_stream():
    # whole-stream cumulative sums drift from the bins as T grows; the
    # bin-blocked kernel must not
    rng = np.random.default_rng(10)
    res = rng.standard_normal(200_000) + 0.3
    j, k = batch_stats(res[None, :], 10, 10)
    sj, sk = _streaming_stats(res, 10, 10)
    assert np.array_equal(j[0], sj)
    assert np.array_equal(k[0], sk)


def test_batch_stats_equal_streaming_where_the_kink_divisor_leaves_int64():
    # the kernel forms d = M (M + 1) (2M + 1) / 6 in Python integers once
    # M reaches 2^20 (here from the first step, M = 2N + 1); from
    # M = 1,664,511 on (the last 55,490 steps) the int64 product wraps
    n_kink, length = 600_000, 520_000
    assert 2**20 < 2 * n_kink + 1 < 1_664_511 < 2 * n_kink + length
    res = np.random.default_rng(12).standard_normal(length) + 0.3
    j, k = batch_stats(res[None, :], 7, n_kink)
    sj, sk = _streaming_stats(res, 7, n_kink)
    assert np.array_equal(j[0], sj)
    assert np.array_equal(k[0], sk)


@settings(max_examples=60, deadline=None)
@given(
    n_jump=st.integers(1, 40),
    n_kink=st.integers(1, 40),
    length=st.integers(1, 300),
    cuts=st.lists(st.integers(0, 300), max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_stats_in_pieces_equal_one_pass_and_streaming(
    n_jump, n_kink, length, cuts, seed
):
    res = np.random.default_rng(seed).standard_normal((2, length)) + 0.3
    j, k = batch_stats(res, n_jump, n_kink)
    bins = BatchBins()
    edges = [0] + sorted(c for c in cuts if c < length) + [length]
    pieces = [batch_stats(res[:, a:b], n_jump, n_kink, bins)
              for a, b in zip(edges[:-1], edges[1:])]
    assert bins.t == length
    assert np.array_equal(np.concatenate([p[0] for p in pieces], axis=1), j)
    assert np.array_equal(np.concatenate([p[1] for p in pieces], axis=1), k)
    sj, sk = _streaming_stats(res[1], n_jump, n_kink)
    assert np.array_equal(j[1], sj)
    assert np.array_equal(k[1], sk)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("n", [1, 10, 200, 5000])
@pytest.mark.parametrize("rows", [1, 3, 64])
def test_batch_stats_equal_streaming_row_by_row_on_both_sides_of_the_scan_rule(rows, n):
    # narrow bins in blocks of many (row, block) pairs take their running
    # sums as vector adds across the pairs, the others as one cumulative
    # sum per bin; uneven pieces put one stream on both sides of that rule
    length = {1: 400, 10: 900, 200: 1000, 5000: 2 * 5000 + 100}[n]
    rng = np.random.default_rng(rows * 10_007 + n)
    res = rng.standard_normal((rows, length)) + 0.3
    res[:, n - 1::n] = -0.0  # every bin opens on a -0.0
    res[0, n - 1:4 * n - 1] = -0.0  # and three whole bins of -0.0 in row 0
    j, k = batch_stats(res, n, n)
    bins = BatchBins()
    # a piece ends on the first bin's last position (clock n - 1), so the
    # next one starts from a full open bin
    edges = sorted([0, 1, 2 + length // 7, length // 3, length // 3, n - 1, length - 5, length])
    pieces = [batch_stats(res[:, a:b], n, n, bins) for a, b in zip(edges[:-1], edges[1:])]
    assert bins.t == length
    j_pieces = np.concatenate([p[0] for p in pieces], axis=1)
    k_pieces = np.concatenate([p[1] for p in pieces], axis=1)
    for row in range(rows):
        sj, sk = _streaming_stats(res[row], n, n)
        for got in (j[row], j_pieces[row]):
            assert np.array_equal(_bits(got), _bits(sj))
        for got in (k[row], k_pieces[row]):
            assert np.array_equal(_bits(got), _bits(sk))


def test_scan_rule_covers_both_sides_in_the_row_by_row_test():
    # the one-pass blocks of the test above: length // n + 1 blocks a row
    assert engine._across(64, 900 // 10 + 1, 10) and engine._across(3, 900 // 10 + 1, 10)
    assert engine._across(1, 400 // 1 + 1, 1)
    assert not engine._across(1, 900 // 10 + 1, 10)
    assert not engine._across(64, 1000 // 200 + 1, 200)
    assert not engine._across(64, 10_100 // 5000 + 1, 5000)


def test_batch_alarms_match_scan_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        res = rng.standard_normal(200) + (0.8 if rng.random() < 0.5 else 0.0)
        j, k = batch_stats(res[None, :], 5, 8)
        rho_j, rho_k = 0.6, 0.05
        alarm, kind = batch_alarms(j, k, rho_j, rho_k)
        t_oracle, kind_oracle = first_crossing_alarm(j[0], k[0], rho_j, rho_k)
        if t_oracle is None:
            assert alarm[0] == 201 and kind[0] == 0
        else:
            assert alarm[0] == t_oracle
            assert {1: "jump", 2: "kink"}[int(kind[0])] == kind_oracle


def test_batch_alarms_tie_prefers_jump():
    j = np.array([[0.0, 1.0]])
    k = np.array([[0.0, 1.0]])
    alarm, kind = batch_alarms(j, k, 0.5, 0.5)
    assert alarm[0] == 2 and kind[0] == 1


def test_batch_alarms_disabled_by_infinite_threshold():
    j = np.array([[2.0, 2.0], [math.inf, -math.inf]])
    k = np.array([[2.0, 2.0], [math.inf, 0.0]])
    alarm, kind = batch_alarms(j, k, math.inf, 0.5)
    assert alarm.tolist() == [1, 1] and kind.tolist() == [2, 2]
    alarm, kind = batch_alarms(j, k, math.inf, math.inf)
    assert alarm.tolist() == [3, 3] and not kind.any()


def test_batch_residuals_match_fit_ols():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 120)) + 0.7
    k = 40
    resid = batch_residuals(x, k)
    for row in range(6):
        fit = fit_ols(x[row, :k])
        t = np.arange(k + 1, 121)
        expected = x[row, k:] - (fit.alpha_hat + fit.beta_hat * t)
        assert np.array_equal(resid[row], expected)


def test_batch_residuals_invariant_to_prechange_line():
    # OLS equivariance: adding any line to the data leaves monitored
    # residuals unchanged when the line is fitted
    rng = np.random.default_rng(4)
    noise = rng.standard_normal((4, 200))
    t = np.arange(1, 201)
    shifted = noise + (3.0 - 0.25 * t)
    r0 = batch_residuals(noise, 60)
    r1 = batch_residuals(shifted, 60)
    assert np.allclose(r0, r1, atol=1e-9)


def test_batch_residuals_standardize_matches_manual():
    rng = np.random.default_rng(5)
    x = 5.0 + 2.0 * rng.standard_normal((3, 100))
    k = 30
    resid = batch_residuals(x, k, standardize_first=True)
    for row in range(3):
        mean = x[row, :k].mean()
        sd = x[row, :k].std(ddof=1)
        z = (x[row] - mean) / sd
        fit = fit_ols(z[:k])
        t = np.arange(k + 1, 101)
        expected = z[k:] - (fit.alpha_hat + fit.beta_hat * t)
        assert np.array_equal(resid[row], expected)


def test_noise_matrix_rows_are_per_replication_streams():
    noise = NoiseSpec("gaussian", 2.0)
    block = noise_matrix(noise, 99, 3, 6, 50)
    for row, rep in enumerate(range(3, 6)):
        rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(1, rep)))
        assert np.array_equal(block[row], noise.draw(rng, 50))


def _draws(run):
    """The values each draw of unit Gaussian noise gives in ``run(noise)``,
    in draw order."""
    draws = []

    class Recorded(NoiseSpec):
        def draw(self, rng, size):
            drawn = super().draw(rng, size)
            draws.append(drawn.ravel().copy())
            return drawn

    run(Recorded("gaussian", 1.0))
    return draws


def test_monte_carlo_streams_share_no_draws_at_one_seed():
    # calibration blocks of 16 rows, first-alarm rows and generate_series
    # at one seed each draw a stream of their own: the first draw of a
    # block (or a row) is its (2, B) line draw
    seed, k, total = 0, 50, 100
    calibration = _draws(lambda noise: simulate_null_maxima(CalibrationSpec(
        32, total - k, k, 5, 5, noise, seed, eta=0.5)))[:2]
    alarms = _draws(lambda noise: first_alarms(
        noise, seed, 2, k, total, DetectorConfig(5, 5, 50.0, 50.0)))[:2]
    assert [drawn.size for drawn in calibration + alarms] == [32, 32, 2, 2]
    series = generate_series(SignalParams(0.5, 0.0, 0.0, 0.0, 0.0), 32, NoiseSpec(), seed)
    assert np.array_equal(series, np.random.default_rng(seed).standard_normal(32))
    pairs = [(drawn, series) for drawn in calibration + alarms] + list(zip(calibration, alarms))
    assert [np.intersect1d(a, b).size for a, b in pairs] == [0] * 6


def test_config_alarms_match_streaming_run():
    rng = np.random.default_rng(6)
    config = DetectorConfig(4, 6, 0.7, 0.06)
    for _ in range(20):
        res = rng.standard_normal(300)
        res[150:] += 1.0
        state = DetectorState(config, KnownPrechange(0.0, 0.0), absolute_offset=0)
        stream_alarm = None
        stream_kind = 0
        for t, x in enumerate(res, start=1):
            _, event = state.step(float(x))
            if event is not None:
                stream_alarm = t
                stream_kind = 1 if event.kind.value == "jump" else 2
                break
        alarm, kind = config_alarms(res[None, :], config)
        if stream_alarm is None:
            assert alarm[0] == 301
        else:
            assert alarm[0] == stream_alarm
            assert kind[0] == stream_kind


def _reference_alarms(noise, seed, reps, k, total, config, signal=None, **kw):
    resid = replication_residuals(noise, seed, 0, reps, k, total - k, signal, **kw)
    return config_alarms(resid, config)


@pytest.mark.parametrize("noise", [NoiseSpec("gaussian", 1.5),
                                   NoiseSpec("student_t", df=3.0)],
                         ids=["gaussian", "student_t"])
@pytest.mark.parametrize("standardize", [False, True], ids=["raw", "standardized"])
def test_first_alarms_equal_full_horizon_reference(noise, standardize):
    k, total = 150, 2500
    signal = np.where(np.arange(total) >= 1400, 0.8, 0.0)
    for config in (DetectorConfig(8, 20, 0.9, 0.1), DetectorConfig(10, 10, 0.9, 0.08),
                   DetectorConfig(None, 15, rho_kink=0.09),
                   DetectorConfig(5, 9, 60.0, 60.0)):  # never alarms
        got = first_alarms(noise, 3, 23, k, total, config, signal=signal,
                           standardize_first=standardize)
        want = _reference_alarms(noise, 3, 23, k, total, config, signal,
                                 standardize_first=standardize)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("standardize", [False, True], ids=["raw", "standardized"])
def test_replications_alarm_as_run_does_on_their_series(standardize):
    # each row alarms at the step and kind run() gives its monitored
    # series on its drawn line (and scaling), whichever rows share its chunk
    k, total, reps = 150, 2500, 23
    noise = NoiseSpec("gaussian", 1.5)
    signal = np.where(np.arange(total) >= 1400, 0.8, 0.0)
    config = DetectorConfig(8, 20, 0.9, 0.1)
    alarm, kind = replicate(
        noise, 3, reps, k, total,
        lambda rows, residuals: segment_alarms(rows, total - k, config, residuals),
        signal, standardize_first=standardize)
    (alpha, beta, scaling), x = replication_rows(noise, 3, 0, reps, k, total - k, signal,
                                                 standardize)
    if standardize:
        x = (x - scaling[0]) / scaling[1]
    for row in range(reps):
        line = KnownPrechange(float(alpha[row, 0]), float(beta[row, 0]))
        event = run(np.concatenate([np.zeros(k), x[row]]), k, config, line).event
        assert event is not None and alarm[row] <= total - k
        assert event.time == k + alarm[row]
        assert event.kind.value == {1: "jump", 2: "kink"}[int(kind[row])]


@pytest.mark.parametrize("step", [512, 513, 1536, 1537])
def test_first_alarms_at_segment_edges(step):
    # a spike at monitoring step `step` fires every row there; 512 and
    # 1536 end the first two segments, 513 and 1537 start the next ones
    k, total = 1000, 1000 + 2000
    signal = np.zeros(total)
    signal[k + step - 1] = 1e3
    config = DetectorConfig(4, 6, 5.0, 5.0)
    noise = NoiseSpec("gaussian", 1.0)
    got = first_alarms(noise, 8, 12, k, total, config, signal=signal)
    want = _reference_alarms(noise, 8, 12, k, total, config, signal)
    assert np.array_equal(got[0], np.full(12, step))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_first_alarms_without_alarm_report_horizon_plus_one():
    config = DetectorConfig(3, 3, math.inf, math.inf)
    alarm, kind = first_alarms(NoiseSpec("gaussian", 1.0), 1, 5, 20, 900, config)
    assert np.array_equal(alarm, np.full(5, 881))
    assert not kind.any()


def test_a_thousand_row_first_alarms_call_splits_into_chunks(monkeypatch):
    """A call of a thousand rows runs in more than one chunk, in row
    order, so chunks bound memory at every replication count; first
    alarms give each row a block of its own."""
    spans, blocks = [], []
    run_chunks = engine.chunked_replications

    def recorded(replications, T, worker, block):
        def chunk(lo, hi):
            spans.append((lo, hi))
            worker(lo, hi)

        blocks.append(block)
        run_chunks(replications, T, chunk, block)

    monkeypatch.setattr(engine, "chunked_replications", recorded)
    first_alarms(NoiseSpec("gaussian", 1.0), 1, 1000, 1000, 11_001,
                 DetectorConfig(3, 3, 1.0, 1.0))
    assert blocks == [1] and len(spans) >= 2
    assert [row for lo, hi in spans for row in range(lo, hi)] == list(range(1000))


@pytest.mark.parametrize("case", ["gaussian-alarms", "student_t-alarms", "maxima"])
def test_chunks_and_segments_keep_one_budget(monkeypatch, case):
    """A chunk holds budget // width // B blocks of B rows, width being
    the first segment (or a longer Student-t history); each segment
    holds at most budget // (rows still running) steps, so segments
    grow past budget // (chunk rows) once rows retire."""
    budget = engine._CHUNK_ELEMENTS
    chunk_rows, visits = [], []
    run_segments = engine._segments

    def recorded(rows, T, residuals, visit):
        def seen(t0, resid, active):
            visits.append((rows, active.size, resid.shape[1]))
            return visit(t0, resid, active)

        chunk_rows.append(rows)
        run_segments(rows, T, residuals, seen)

    monkeypatch.setattr(engine, "_segments", recorded)
    config = DetectorConfig(3, 10, 2.0, 0.1)  # alarms from step 41 on, and some rows never
    reps, T, block = 300, 3000, 1
    if case == "gaussian-alarms":
        k, width = 50, engine._FIRST_SEGMENT
        alarm, _ = first_alarms(NoiseSpec("gaussian", 1.0), 11, reps, k, k + T, config)
    elif case == "student_t-alarms":
        k = width = 1000  # the (rows, k) history outgrows the first segment
        alarm, _ = first_alarms(NoiseSpec("student_t", df=5.0), 11, reps, k, k + T, config)
    else:
        k, width, block = 50, engine._FIRST_SEGMENT, 16
        replicate(NoiseSpec("gaussian", 1.0), 11, reps, k, k + T,
                  lambda rows, residuals: engine.segment_maxima(rows, T, [(3, 10)], residuals),
                  block=block)
    rows = max(1, budget // width // block) * block
    assert sum(chunk_rows) == reps and len(chunk_rows) >= 2
    assert set(chunk_rows[:-1]) == {rows} and chunk_rows[-1] <= rows
    assert all(active * length <= budget for _, active, length in visits)
    if case != "maxima":
        assert len(set(alarm.tolist())) > reps // 4  # rows retire at many steps
        assert any(length > budget // chunk for chunk, _, length in visits)


@pytest.mark.parametrize("noise,standardize", [(NoiseSpec("gaussian", 1.5), True),
                                               (NoiseSpec("student_t", df=3.0), False)],
                         ids=["gaussian-standardized", "student_t-raw"])
def test_block_rows_do_not_depend_on_chunks_segments_or_retired_rows(monkeypatch, noise,
                                                                      standardize):
    # 37 rows, two whole blocks of 16 and a partial one, of 700 steps:
    # at 5000 and 340 elements a chunk rounds up to one block, whose
    # segments then start at 5000 // 16 = 312 and 340 // 16 = 21 steps;
    # each segment retires a fifth of the rows, so blocks draw for rows
    # that no longer read their columns
    k, T, reps = 30, 700, 37
    want = replication_residuals(noise, 5, 0, reps, k, T, standardize_first=standardize,
                                 block=16)
    for elements in (engine._CHUNK_ELEMENTS, 5000, 340):
        monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", elements)
        lengths = []

        def reduce(rows, residuals):
            got = np.full((rows, T), np.nan)

            def visit(t0, resid, active):
                assert resid.size <= elements  # the chunk memory contract
                got[active, t0:t0 + resid.shape[1]] = resid
                lengths.append(resid.shape[1])
                return active[active % 5 != len(lengths) % 5]

            engine._segments(rows, T, residuals, visit)
            return [got]

        got, = replicate(noise, 5, reps, k, k + T, reduce, standardize_first=standardize,
                         block=16)
        drawn = ~np.isnan(got)
        assert drawn[:, 0].all() and not drawn[:, -1].all()
        assert np.array_equal(got[drawn], want[drawn])
    assert 21 in lengths


def test_first_alarms_of_no_replications_are_empty():
    alarm, kind = first_alarms(NoiseSpec("gaussian", 1.0), 1, 0, 20, 900,
                               DetectorConfig(3, 3, 1.0, 1.0))
    assert alarm.shape == kind.shape == (0,)
    assert alarm.dtype == np.int64 and kind.dtype == np.int8


_Z99 = 2.5758  # two-sided 99% normal quantile


def _assert_same_moments(a, b):
    """Each column's mean, and each pair of columns' covariance (each
    column's variance among them), agree between the row samples ``a``
    and ``b`` within two-sample 99% intervals."""
    def agree(x, y):
        gap = abs(x.mean() - y.mean())
        assert gap <= _Z99 * math.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)

    da, db = a - a.mean(axis=0), b - b.mean(axis=0)
    for i in range(a.shape[1]):
        agree(a[:, i], b[:, i])
        for j in range(i, a.shape[1]):
            agree(da[:, i] * da[:, j], db[:, i] * db[:, j])


@pytest.mark.parametrize("standardize,k", [(False, 40), (True, 40), (True, 2)],
                         ids=["raw", "standardized", "standardized-two-point"])
def test_sampled_lines_follow_the_law_of_fitted_lines(standardize, k):
    # 20,000 rows' drawn lines against 20,000 lines fitted to drawn
    # histories on a sloped line
    rows = 20_000
    noise = NoiseSpec("gaussian", 1.7)
    signal = 2.0 - 3.0 * np.arange(1, k + 1) / 250

    def rngs(seed):
        return [np.random.default_rng([seed, rep]) for rep in range(rows)]

    drawn = _sampled_row_lines(signal, engine._history_draws(noise, rngs(5), k, standardize),
                               standardize)
    fitted = _row_lines(engine.noise_matrix(noise, rngs(6), k) + signal, standardize)

    def columns(line):
        alpha, beta, scaling = line
        return np.hstack([alpha, beta, *(scaling or ())])

    _assert_same_moments(columns(drawn), columns(fitted))


def test_noiseless_rows_take_the_signals_own_line():
    k, total = 30, 90
    signal = 1.5 + 0.25 * np.arange(1, total + 1) / 7
    resid, = replicate(NoiseSpec("gaussian", 0.0), 4, 3, k, total,
                       lambda rows, residuals: [residuals(0, total - k, np.arange(rows))],
                       signal)
    fit = fit_ols(signal[:k])
    want = signal[k:] - (fit.alpha_hat + fit.beta_hat * np.arange(k + 1, total + 1))
    assert np.array_equal(resid, np.tile(want, (3, 1)))
