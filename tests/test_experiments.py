import dataclasses
import math
import warnings

import numpy as np
import pytest

from linewatch import (
    CalibrationSpec,
    DetectorConfig,
    NoiseSpec,
    RobustnessTemplate,
    Scenario,
    SignalParams,
    calibrate,
    estimate_arl,
    estimate_metrics,
    rate_check,
    robustness_study,
    simulate_null_maxima,
    theorem_scale_config,
)
from linewatch import calibration, experiments, tables
from linewatch.detector import _rate_bins
from linewatch.engine import first_alarms
from linewatch.experiments import Z95, derive_seed
from linewatch.signal import eval_signal_array

from oracles import config_alarms, noise_matrix

GAUSS = NoiseSpec("gaussian", 1.0)


def _jump_scenario(size=1.0, k=50, horizon=40, post=200, reps=50, seed=1,
                   config=None, noise=GAUSS):
    n = k + horizon + post
    theta = SignalParams((k + horizon) / n, 0.0, size, 0.0, 0.0)
    config = config or DetectorConfig(3, 3, 0.9, 0.12)
    return Scenario(theta, n, k, noise, config, reps, seed)


def test_noiseless_scenario_is_deterministic():
    k = 30
    n = k + 20 + 100
    theta = SignalParams((k + 20) / n, 0.0, 2.0, 0.0, 0.0)
    sc = Scenario(theta, n, k, NoiseSpec("gaussian", 0.0),
                  DetectorConfig(3, None, rho_jump=0.5), 10, 7)
    rep = estimate_metrics(sc)
    assert rep.fa_prob == 0.0
    assert rep.n_detected == 10
    assert rep.edd_halfwidth == 0.0  # all replications share one delay


def test_counting_contract():
    sc = _jump_scenario(size=0.5, reps=300, seed=3)
    rep = estimate_metrics(sc)
    assert rep.n_false_alarm + rep.n_detected + rep.n_missed == 300
    assert 0.0 <= rep.fa_prob <= 1.0
    assert rep.edd is None or rep.edd >= 0.0


def test_scenario_validation():
    theta = SignalParams(0.2, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Scenario(theta, 100, 50, GAUSS, DetectorConfig(2, None, rho_jump=1.0), 5, 0)


def test_scenario_refuses_a_negative_master_seed():
    theta = SignalParams(0.8, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="master_seed must be >= 0, got -3"):
        Scenario(theta, 100, 50, GAUSS, DetectorConfig(2, None, rho_jump=1.0), 5, -3)


def test_report_is_byte_deterministic():
    sc = _jump_scenario(reps=40, seed=11)
    a = estimate_metrics(sc)
    b = estimate_metrics(sc)
    assert a == b
    c = estimate_metrics(_jump_scenario(reps=40, seed=12))
    assert a != c


def test_edd_undefined_when_nothing_detected():
    sc = _jump_scenario(config=DetectorConfig(3, 3))  # inf thresholds
    rep = estimate_metrics(sc)
    assert rep.n_detected == 0
    assert rep.edd is None
    assert rep.n_missed == rep.replications


def test_infinite_thresholds_censor_all_arl_runs():
    rep = estimate_arl(DetectorConfig(3, 3), GAUSS, k=20, cap=50,
                       replications=25, master_seed=5)
    assert rep.arl == 50.0
    assert rep.arl_censored == 25
    assert rep.arl_cap == 50


def test_run_length_roughly_exponential():
    # memorylessness: mean close to sd for a threshold giving a
    # few-hundred-step average run length
    spec = CalibrationSpec(replications=2000, arl=True, horizon=300, k=200,
                           n_jump=10, n_kink=None, noise=GAUSS, master_seed=21)
    cal = calibrate(spec)
    rep = estimate_arl(cal.to_config(), GAUSS, k=200, cap=3000,
                       replications=500, master_seed=22)
    assert rep.arl_censored < 50
    sd = rep.arl_halfwidth * math.sqrt(500) / Z95
    ratio = rep.arl / sd
    assert abs(ratio - 1.0) < 0.25


def test_arl_cap_must_be_positive():
    with pytest.raises(ValueError, match="cap must be >= 1"):
        estimate_arl(DetectorConfig(3, 3, 0.9, 0.12), GAUSS, k=20, cap=0,
                     replications=5, master_seed=5)


@pytest.mark.parametrize("replications", [0, -2])
def test_arl_replications_must_be_positive(replications):
    # refused before any simulation, so no mean of an empty sample warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="replications must be >= 1"):
            estimate_arl(DetectorConfig(3, 3, 0.9, 0.12), GAUSS, k=20, cap=50,
                         replications=replications, master_seed=5)


@pytest.mark.parametrize("name, settings", [("table2", 5), ("table3", 4)])
def test_tables_calibrate_every_mode_from_one_simulation_per_setting(
    monkeypatch, name, settings
):
    # one null simulation of both statistics per setting, on the both
    # mode's calibration seed; each mode's thresholds equal a calibration
    # of that mode alone at that seed
    sims = []
    replicate = calibration.replicate

    def spy(noise, master_seed, replications, k, n, *args, **kwargs):
        sims.append((master_seed, k, n - k))
        return replicate(noise, master_seed, replications, k, n, *args, **kwargs)

    monkeypatch.setattr(calibration, "replicate", spy)
    _, rows = tables.EXPERIMENTS[name](calib_replications=40, replications=1, master_seed=4)
    monkeypatch.undo()
    assert len(sims) == settings
    assert [row[0] for row in rows] == [m for m in ("jump", "kink", "both") for _ in sims]
    for row_idx, (seed, k, horizon) in enumerate(sims):
        assert seed == derive_seed(derive_seed(4, 3, row_idx), 0)
        n_bin = int(rows[row_idx][1])
        joint = CalibrationSpec(
            replications=40, horizon=horizon, k=k, n_jump=n_bin, n_kink=n_bin, noise=GAUSS,
            master_seed=seed, **({"arl": True} if name == "table3" else {"eta": 0.5}))
        for row, spec in zip(rows[row_idx::settings], (dataclasses.replace(joint, n_kink=None),
                                                      dataclasses.replace(joint, n_jump=None),
                                                      joint)):
            assert (row[1], row[3]) == (str(n_bin), str(k))
            cal = calibrate(spec)
            assert row[4:6] == [tables._fmt(cal.rho_jump if spec.n_jump else None, 3),
                                tables._fmt(cal.rho_kink if spec.n_kink else None, 3)]


def test_derive_seed_tells_trailing_zero_labels_apart():
    seeds = {derive_seed(5), derive_seed(5, 0), derive_seed(5, 0, 0)}
    assert len(seeds) == 3


def test_shared_seed_threshold_coupling():
    # on identical streams, raising a threshold can only delay the alarm
    k, T = 40, 400
    x = noise_matrix(GAUSS, 77, 0, 200, k + T)
    x[:, k + 200:] += 0.8
    from oracles import batch_residuals

    resid = batch_residuals(x, k)
    low, _ = config_alarms(resid, DetectorConfig(4, 4, 0.6, 0.05))
    high, _ = config_alarms(resid, DetectorConfig(4, 4, 0.8, 0.07))
    assert np.all(high >= low)


def test_robustness_infinite_df_equals_gaussian_arm():
    tpl = RobustnessTemplate(bin_size=4, k=60, target_arl=80,
                             calib_replications=300, replications=60,
                             post_window=300, master_seed=9)
    rep = robustness_study([math.inf], tpl, arms=("jump",))
    row = rep.rows[0]
    assert math.isinf(row.df)
    rep2 = robustness_study([None], tpl, arms=("jump",))
    assert rep2.rows[0] == row


def test_robustness_rows_cover_grid_and_arms():
    tpl = RobustnessTemplate(bin_size=3, k=50, target_arl=60,
                             calib_replications=200, replications=40,
                             post_window=200, master_seed=10)
    rep = robustness_study([5.0, math.inf], tpl, arms=("jump", "kink"))
    assert len(rep.rows) == 4
    assert rep.rho_jump is not None and rep.rho_kink is not None
    arms = {(str(r.arm), math.isinf(r.df)) for r in rep.rows}
    assert len(arms) == 4
    # both arms calibrate on one null simulation of both statistics
    joint = CalibrationSpec(replications=200, arl=True, horizon=60, k=50, n_jump=3, n_kink=3,
                            noise=GAUSS, master_seed=derive_seed(10, 0, 0), standardize=True)
    maxima = simulate_null_maxima(joint)
    jump = calibrate(dataclasses.replace(joint, n_kink=None), maxima=maxima)
    kink = calibrate(dataclasses.replace(joint, n_jump=None), maxima=maxima)
    assert (rep.rho_jump, rep.rho_kink) == (jump.rho_jump, kink.rho_kink)


def test_type_study_kink_disabled_cannot_misattribute_jump():
    sc = _jump_scenario(size=2.0, reps=60, seed=13,
                        config=DetectorConfig(3, None, rho_jump=0.8))
    rep = estimate_metrics(sc)
    assert rep.n_wrong_kind == 0
    assert rep.n_detected > 0


def test_type_study_scale_separated_noiseless_jump_fires_jump_first():
    # rate-shaped bins (small jump bin, big kink bin) on a clean jump:
    # the jump statistic must win deterministically
    k = 60
    n = k + 30 + 300
    theta = SignalParams((k + 30) / n, 0.0, 1.0, 0.0, 0.0)
    config = DetectorConfig(n_jump=4, n_kink=60, rho_jump=0.5, rho_kink=0.01)
    sc = Scenario(theta, n, k, NoiseSpec("gaussian", 0.0), config, 3, 0)
    rep = estimate_metrics(sc)
    assert rep.n_detected == 3
    assert rep.n_wrong_kind == 0


@pytest.mark.parametrize("jump, kink_per_obs, code", [(1.0, 0.0, 1), (0.0, 0.05, 2)])
def test_wrong_kind_counts_first_alarm_kinds(jump, kink_per_obs, code):
    # equal bins, so both statistics fire: n_wrong_kind is the number of
    # post-change first alarms whose kind code is not the true one
    k, horizon = 100, 40
    n = k + horizon + 200
    theta = SignalParams((k + horizon) / n, 0.0, jump, 0.0, kink_per_obs * n)
    sc = Scenario(theta, n, k, GAUSS, DetectorConfig(10, 10, 0.66, 0.05), 200, 31)
    alarm, kind = first_alarms(GAUSS, 31, 200, k, n, sc.config,
                               signal=eval_signal_array(theta, n))
    post = (alarm >= sc.change_index - k) & (alarm <= n - k)
    assert set(kind[post]) == {1, 2}
    rep = estimate_metrics(sc)
    assert rep.n_detected == post.sum()
    assert rep.n_wrong_kind == (kind[post] != code).sum()


def test_rate_bins_give_rate_checks_bins_and_the_theorem_presets():
    # rate_check's bins on the rates grid, from its own former formulas
    # max(1, ceil(2 log n)) and max(1, ceil(0.35 n^(2/3) log(n)^(1/3)))
    want = {1024: (14, 68), 2048: (16, 112), 4096: (17, 182), 8192: (19, 296),
            16384: (20, 482), 32768: (21, 783), 65536: (23, 1269)}
    assert tables._RATES_GRID == tuple(want)
    for n, bins in want.items():
        assert _rate_bins(n, *experiments._RATE_BIN_SCALE) == bins
    config = theorem_scale_config(1e6, 1.0)
    assert (config.n_jump, config.n_kink) == (6908, 160632)
    for c in (0.25, 0.3, 0.5, 0.75, 0.9, 1.0):
        for n in (2, 17, 1000, 99_999, 1e5, 3e5, 1e6, 1e7):
            config = theorem_scale_config(n, c)
            assert config.n_jump == math.ceil(1e3 * math.log(n) / (2.0 * c * c))
            assert config.n_kink == math.ceil(
                (300.0 / (c * c)) ** (1.0 / 3.0) * n ** (2.0 / 3.0) * math.log(n) ** (1.0 / 3.0))


def test_rate_check_smoke_and_validation():
    rep = rate_check(0.5, [256, 512, 1024], "kink", replications=30,
                     master_seed=3, calib_replications=100)
    assert len(rep.points) == 3
    assert rep.slope is not None
    assert all(p.bin_size >= 1 for p in rep.points)
    with pytest.raises(ValueError):
        rate_check(0.5, [512, 256], "kink", 10, 0)
    with pytest.raises(ValueError):
        rate_check(0.5, [256], "kink", 10, 0)


def test_estimate_metrics_true_kind_accuracy_fields():
    sc = _jump_scenario(size=3.0, reps=80, seed=14,
                        config=DetectorConfig(3, None, rho_jump=0.9))
    rep = estimate_metrics(sc)
    assert rep.n_detected > 0
    assert rep.n_wrong_kind == 0  # only the jump statistic runs
    null_theta = SignalParams(0.9, 0.0, 0.0, 0.0, 0.0)
    null_sc = Scenario(null_theta, 200, 40, GAUSS,
                       DetectorConfig(3, None, rho_jump=0.9), 30, 15)
    null_rep = estimate_metrics(null_sc)
    assert null_rep.n_wrong_kind is None  # no true change to attribute


def test_signal_matrix_change_placement():
    # the scenario's change index is the last pre-change observation
    k = 20
    n = 60
    theta = SignalParams(40 / n, 0.0, 5.0, 0.0, 0.0)
    values = eval_signal_array(theta, n)
    assert values[39] == 0.0  # index 40, i/n == tau, pre-change branch
    assert values[40] == 5.0
