"""The batch engine must agree with the streaming detector: same
statistics (up to float summation order), same alarms, same fits."""

import math

import numpy as np

from linewatch import DetectorConfig, DetectorState, KnownPrechange, NoiseSpec
from linewatch.engine import (
    batch_alarms,
    batch_residuals,
    batch_stats,
    config_alarms,
    noise_matrix,
    window_geometry,
)
from linewatch.prechange import fit_ols
from linewatch.signal import replication_seed

from oracles import first_crossing_alarm


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


def test_window_geometry_bounds():
    m, start = window_geometry(100, 7)
    t = np.arange(1, 101)
    assert np.array_equal(m, 2 * 7 + (t % 7) + 1)
    assert (start >= 0).all()
    assert np.array_equal(np.maximum(t - m, 0), start)


def test_batch_stats_equal_streaming():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n_jump = int(rng.integers(1, 40))
        n_kink = int(rng.integers(1, 40))
        length = int(rng.integers(2, 600))
        res = rng.standard_normal(length)
        j, k = batch_stats(res[None, :], n_jump, n_kink)
        sj, sk = _streaming_stats(res, n_jump, n_kink)
        assert np.allclose(j[0], sj, rtol=1e-9, atol=1e-10)
        assert np.allclose(k[0], sk, rtol=1e-9, atol=1e-10)


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
    j = np.array([[2.0, 2.0]])
    k = np.array([[2.0, 2.0]])
    alarm, kind = batch_alarms(j, k, math.inf, 0.5)
    assert alarm[0] == 1 and kind[0] == 2


def test_batch_residuals_match_fit_ols():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 120)) + 0.7
    k = 40
    resid = batch_residuals(x, k)
    for row in range(6):
        fit = fit_ols(x[row, :k])
        t = np.arange(k + 1, 121)
        expected = x[row, k:] - (fit.alpha_hat + fit.beta_hat * t)
        assert np.allclose(resid[row], expected, rtol=1e-9, atol=1e-10)


def test_batch_residuals_fraction_time():
    rng = np.random.default_rng(3)
    n, k = 150, 50
    x = rng.standard_normal((3, n))
    resid = batch_residuals(x, k, time_unit=n)
    for row in range(3):
        fit = fit_ols(x[row, :k], time_unit=n)
        t = np.arange(k + 1, n + 1) / n
        expected = x[row, k:] - (fit.alpha_hat + fit.beta_hat * t)
        assert np.allclose(resid[row], expected, rtol=1e-9, atol=1e-10)


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
        assert np.allclose(resid[row], expected, rtol=1e-9, atol=1e-10)


def test_noise_matrix_rows_are_per_replication_streams():
    noise = NoiseSpec("gaussian", 2.0)
    block = noise_matrix(noise, 99, 3, 6, 50)
    for row, rep in enumerate(range(3, 6)):
        rng = np.random.default_rng(replication_seed(99, rep))
        assert np.array_equal(block[row], noise.draw(rng, 50))


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
