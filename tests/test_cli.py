import math
import os
import warnings

import numpy as np
import pytest

from linewatch import (
    DetectorConfig,
    KnownPrechange,
    NoiseSpec,
    SignalParams,
    change_index,
    fit_ols,
    generate_series,
    run,
)
from linewatch.cli import main
from linewatch.fileformats import (
    read_kv,
    read_series,
    scenario_params_from_kv,
    write_kv,
    write_series,
)

from oracles import step_run


def _write_config(tmp_path, name="cfg.txt", **kv):
    defaults = {"n_jump": "2", "n_kink": "2", "rho_jump": "1.5", "rho_kink": "0.3"}
    defaults.update({k: str(v) for k, v in kv.items()})
    path = str(tmp_path / name)
    write_kv(path, "config", defaults)
    return path


def _write_scenario(tmp_path, name="scen.txt", **kv):
    defaults = {
        "tau": repr(516 / 700), "alpha_minus": "0.0", "alpha_plus": "2.0",
        "beta_minus": "0.0", "beta_plus": "0.0", "n": "700",
        "noise": "gaussian", "sigma": "1.0", "seed": "6",
    }
    defaults.update({k: str(v) for k, v in kv.items()})
    path = str(tmp_path / name)
    write_kv(path, "scenario", defaults)
    return path


def test_detect_noiseless_line_no_alarm(tmp_path, capsys):
    t = np.arange(1, 101)
    write_series(str(tmp_path / "line.csv"), 2.0 + 0.25 * t)
    cfg = _write_config(tmp_path)
    code = main(["detect", "--input", str(tmp_path / "line.csv"),
                 "--config", cfg, "--k", "40",
                 "--trace", str(tmp_path / "trace.csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: no-alarm" in out
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "# linewatch trace v1"
    assert len(trace) == 2 + 60  # header comment + column row + 60 records
    resid_col = [float(r.split(",")[2]) for r in trace[2:]]
    assert max(abs(v) for v in resid_col) < 1e-9


def test_detect_figure_style_jump(tmp_path, capsys):
    scen = _write_scenario(tmp_path)
    data = str(tmp_path / "jump.csv")
    assert main(["simulate", "--scenario", scen, "--out", data]) == 0
    capsys.readouterr()
    cfg = _write_config(tmp_path, n_kink="none", rho_kink="inf")
    code = main(["detect", "--input", data, "--config", cfg, "--k", "500"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: alarm" in out
    assert "alarm_index: 521" in out
    assert "kind: jump" in out


def test_detect_kink_only_mode(tmp_path, capsys):
    scen = _write_scenario(tmp_path, alpha_plus="0.0", beta_plus=repr(0.3 * 700),
                           sigma="0.0", seed="1")
    data = str(tmp_path / "kink.csv")
    main(["simulate", "--scenario", scen, "--out", data])
    capsys.readouterr()
    cfg = _write_config(tmp_path, rho_jump="inf", n_jump="none", rho_kink="0.05")
    code = main(["detect", "--input", data, "--config", cfg, "--k", "500"])
    out = capsys.readouterr().out
    assert code == 0 and "kind: kink" in out


def test_detect_trace_reruns_byte_identical(tmp_path, capsys):
    scen = _write_scenario(tmp_path)
    data = str(tmp_path / "jump.csv")
    main(["simulate", "--scenario", scen, "--out", data])
    cfg = _write_config(tmp_path)
    t1, t2 = str(tmp_path / "t1.csv"), str(tmp_path / "t2.csv")
    main(["detect", "--input", data, "--config", cfg, "--k", "500", "--trace", t1])
    main(["detect", "--input", data, "--config", cfg, "--k", "500", "--trace", t2])
    capsys.readouterr()
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def test_detect_trace_rows_match_the_stepped_detector(tmp_path, capsys):
    """Each row holds an observation, its residual against the fitted
    line, the stepped detector's statistics (an empty cell for one that
    is off) and, on the last row, the alarm."""
    scen = _write_scenario(tmp_path)
    data = str(tmp_path / "jump.csv")
    main(["simulate", "--scenario", scen, "--out", data])
    cfg = _write_config(tmp_path, n_kink="none", rho_kink="inf")
    out = tmp_path / "trace.csv"
    assert main(["detect", "--input", data, "--config", cfg, "--k", "500",
                 "--trace", str(out)]) == 0
    capsys.readouterr()
    values, _ = read_series(data)
    event, trace = step_run(values, 500, DetectorConfig(2, None, 1.5, math.inf))
    line = fit_ols(values[:500])
    want = ["# linewatch trace v1",
            "index,observation,residual,j_stat,k_stat,rho_jump,rho_kink,alarm,kind"]
    for snap in trace:
        index = 500 + snap.t
        x = float(values[index - 1])
        alarm = "1,jump" if index == event.time else "0,"
        want.append(f"{index},{x!r},{x - line.predict_at_index(index)!r},"
                    f"{snap.j_stat!r},,1.5,inf,{alarm}")
    assert event.time == 521 and len(trace) == 21
    assert out.read_text() == "\n".join(want) + "\n"


def test_detect_sigma_with_known_line_matches_run(tmp_path, capsys):
    scen = _write_scenario(tmp_path)
    data = str(tmp_path / "jump.csv")
    main(["simulate", "--scenario", scen, "--out", data])
    cfg = _write_config(tmp_path, n_jump="10", n_kink="none", rho_jump="1.0",
                        rho_kink="inf")
    capsys.readouterr()
    s, a, b = 1.25, 0.1, 1e-4
    code = main(["detect", "--input", data, "--config", cfg, "--k", "500",
                 "--sigma", str(s), "--known-alpha", str(a), "--known-beta", str(b)])
    out = capsys.readouterr().out
    assert code == 0
    values, _ = read_series(data)
    expected = run(values / s, 500, DetectorConfig(10, None, rho_jump=1.0),
                   prechange=KnownPrechange(a, b))
    assert expected.detected
    assert f"alarm_index: {expected.event.time}\n" in out
    assert f"kind: {expected.event.kind}\n" in out
    assert f"statistic: {expected.event.stat_value:.6g}\n" in out
    assert "scale_mean: 0\n" in out
    assert f"scale_sd: {s:.6g}\n" in out
    code = main(["detect", "--input", data, "--config", cfg, "--k", "500",
                 "--sigma", str(s), "--standardize"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("flags, message", [
    (["--sigma", "nan"], "--sigma must be finite and > 0, got nan"),
    (["--sigma", "inf"], "--sigma must be finite and > 0, got inf"),
    (["--sigma", "0"], "--sigma must be finite and > 0, got 0.0"),
    (["--known-alpha", "nan", "--known-beta", "0"], "known line must be finite"),
    (["--known-alpha", "0", "--known-beta", "inf"], "known line must be finite"),
    (["--known-alpha=-inf", "--known-beta", "0"], "known line must be finite"),
], ids=["sigma-nan", "sigma-inf", "sigma-zero", "alpha-nan", "beta-inf", "alpha-minus-inf"])
def test_detect_refuses_a_non_finite_scale_or_known_line(tmp_path, capsys, flags, message):
    # each of these used to run: nan and inf reported no alarm, and an
    # infinite slope alarmed at the first monitored step
    data = str(tmp_path / "jump.csv")
    main(["simulate", "--scenario", _write_scenario(tmp_path), "--out", data])
    cfg = _write_config(tmp_path)
    capsys.readouterr()
    code = main(["detect", "--input", data, "--config", cfg, "--k", "500"] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert "status:" not in captured.out


def test_simulate_round_trip_recovers_values(tmp_path):
    scen = _write_scenario(tmp_path, sigma="0.0")
    data = str(tmp_path / "clean.csv")
    main(["simulate", "--scenario", scen, "--out", data])
    values, _ = read_series(data)
    theta = SignalParams(516 / 700, 0.0, 2.0, 0.0, 0.0)
    series = generate_series(theta, 700, NoiseSpec("gaussian", 0.0), seed=6)
    assert np.array_equal(values, series)
    with open(data + ".truth") as fh:
        assert fh.readline() == "# linewatch truth v1\n"
    truth = read_kv(data + ".truth")
    assert truth["change_index"] == str(change_index(theta, 700))


def test_simulate_same_seed_identical_bytes(tmp_path):
    scen = _write_scenario(tmp_path)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    main(["simulate", "--scenario", scen, "--out", a])
    main(["simulate", "--scenario", scen, "--out", b])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_simulate_refuses_a_negative_seed_naming_the_key(tmp_path, capsys):
    scen = _write_scenario(tmp_path, seed=-2)
    out = tmp_path / "d.csv"
    code = main(["simulate", "--scenario", scen, "--out", str(out)])
    assert capsys.readouterr().err == f"error: {scen}: key 'seed' must be >= 0, got -2\n"
    assert code == 3
    assert not out.exists()


@pytest.mark.parametrize("scenario, message", [
    ({"tau": "1.5"}, "tau must lie in (0, 1), got 1.5"),
    ({"alpha_plus": "nan"}, "alpha_plus must be finite, got nan"),
    ({"noise": "student_t", "df": "-1"}, "student_t noise needs finite df > 0, got -1.0"),
    ({"sigma": "-1"}, "sigma must be finite and >= 0, got -1.0"),
    ({"n": "0"}, "key 'n' must be >= 1, got 0"),
    ({"sigmma": "2"}, "unknown key 'sigmma'"),
], ids=["tau", "alpha-nan", "df-negative", "sigma-negative", "n-0", "unknown-key"])
def test_bad_scenario_names_its_path_once(tmp_path, capsys, scenario, message):
    scen = _write_scenario(tmp_path, **scenario)
    out = tmp_path / "d.csv"
    code = main(["simulate", "--scenario", scen, "--out", str(out)])
    assert capsys.readouterr().err == f"error: {scen}: {message}\n"
    assert code == 3
    assert not out.exists()


def test_simulate_refuses_a_repeated_key_naming_its_line(tmp_path, capsys):
    scen = _write_scenario(tmp_path)
    with open(scen, "a") as fh:  # header and nine keys fill lines 1 to 10
        fh.write("seed = 7\n")
    out = tmp_path / "d.csv"
    code = main(["simulate", "--scenario", scen, "--out", str(out)])
    assert capsys.readouterr().err == f"error: {scen}: line 11: repeated key 'seed'\n"
    assert code == 3
    assert not out.exists()


def test_truth_sidecar_reads_back_as_its_scenario(tmp_path, capsys):
    for noise in ({"noise": "gaussian", "sigma": "0.5"}, {"noise": "student_t", "df": "3"}):
        data = str(tmp_path / "d.csv")
        scen = _write_scenario(tmp_path, **noise)
        assert main(["simulate", "--scenario", scen, "--out", data]) == 0
        truth = read_kv(data + ".truth")
        change = truth.pop("change_index")
        theta, n, noise_spec, seed = scenario_params_from_kv(truth)
        assert scenario_params_from_kv(read_kv(scen)) == (theta, n, noise_spec, seed)
        assert change == str(change_index(theta, n))
    capsys.readouterr()


def test_simulated_jumps_alarm_after_truth_index():
    # jump of two sigma shortly after the history: detection lands at or
    # after the change in nearly every replication
    config = DetectorConfig(10, 10, 0.687, 0.05)
    k, change, n = 1000, 1016, 1100
    theta = SignalParams(change / n, 0.0, 2.0, 0.0, 0.0)
    after = 0
    for seed in range(100):
        series = generate_series(theta, n, NoiseSpec("gaussian", 1.0), seed)
        result = run(series, k, config)
        if result.detected and result.event.time >= change:
            after += 1
    assert after >= 95


def test_calibrate_cli_round_trip(tmp_path, capsys):
    spec_path = str(tmp_path / "spec.txt")
    write_kv(spec_path, "calibration-spec", {
        "mode": "fa", "which": "jump", "eta": "0.5", "horizon": "50",
        "k": "30", "n_jump": "3", "replications": "400",
        "master_seed": "77", "noise": "gaussian", "sigma": "1.0",
    })
    out_path = str(tmp_path / "cal.txt")
    assert main(["calibrate", "--spec", spec_path, "--out", out_path]) == 0
    echoed = capsys.readouterr().out
    assert "rho_jump" in echoed and "master_seed: 77" in echoed
    # the emitted file drives detect unchanged
    data = str(tmp_path / "d.csv")
    write_series(data, np.zeros(80))
    code = main(["detect", "--input", data, "--config", out_path, "--k", "30"])
    assert code == 0
    # byte-identical on rerun
    out2 = str(tmp_path / "cal2.txt")
    main(["calibrate", "--spec", spec_path, "--out", out2])
    assert (tmp_path / "cal.txt").read_bytes() == (tmp_path / "cal2.txt").read_bytes()


def test_a_calibration_file_with_maxima_retained_still_drives_detect(tmp_path, capsys):
    # calibration files no longer write the key; files written before
    # still carry it, and detect reads them as before
    spec_path = str(tmp_path / "spec.txt")
    write_kv(spec_path, "calibration-spec", {
        "mode": "fa", "which": "both", "eta": "0.5", "horizon": "50",
        "k": "30", "n_jump": "3", "n_kink": "3", "replications": "400",
        "master_seed": "77", "noise": "gaussian", "sigma": "1.0",
    })
    new = tmp_path / "cal.txt"
    assert main(["calibrate", "--spec", spec_path, "--out", str(new)]) == 0
    assert "maxima_retained" not in new.read_text()
    old = tmp_path / "cal_old.txt"
    old.write_text(new.read_text() + "maxima_retained = false\n")
    data = str(tmp_path / "d.csv")
    write_series(data, np.concatenate([np.zeros(60), np.full(40, 3.0)]))
    capsys.readouterr()
    reports = []
    for cal in (new, old):
        assert main(["detect", "--input", data, "--config", str(cal), "--k", "30"]) == 0
        reports.append(capsys.readouterr())
    assert "alarm_index" in reports[0].out
    assert reports[0] == reports[1]


def test_calibrate_cli_reproduces_published_jump_threshold(tmp_path, capsys):
    spec_path = str(tmp_path / "spec.txt")
    write_kv(spec_path, "calibration-spec", {
        "mode": "fa", "which": "jump", "eta": "0.5", "horizon": "1000",
        "k": "1000", "n_jump": "10", "replications": "10000",
        "master_seed": "20260810", "noise": "gaussian",
    })
    out_path = str(tmp_path / "cal.txt")
    assert main(["calibrate", "--spec", spec_path, "--out", out_path]) == 0
    capsys.readouterr()
    rho = float(read_kv(out_path)["rho_jump"])
    assert abs(rho - 0.658) <= 0.05


def test_exit_code_2_on_argument_errors(tmp_path, capsys):
    data = str(tmp_path / "d.csv")
    write_series(data, np.arange(10.0))
    cfg = _write_config(tmp_path)
    code = main(["detect", "--input", data, "--config", cfg, "--k", "10"])
    capsys.readouterr()
    assert code == 2  # k must lie inside the data
    code = main(["detect", "--input", data, "--config", cfg, "--k", "5",
                 "--known-alpha", "1.0"])
    capsys.readouterr()
    assert code == 2  # alpha without beta


def test_detect_k_1_cannot_fit(tmp_path, capsys):
    data = str(tmp_path / "d.csv")
    write_series(data, np.arange(10.0))
    code = main(["detect", "--input", data, "--config", _write_config(tmp_path), "--k", "1"])
    assert capsys.readouterr().err == "error: need history k >= 2 to fit, got 1\n"
    assert code == 2


def test_calibrate_both_needs_both_bins(tmp_path, capsys):
    spec_path = str(tmp_path / "spec.txt")
    write_kv(spec_path, "calibration-spec", {
        "mode": "fa", "which": "both", "horizon": "50", "k": "30", "n_jump": "3",
        "replications": "20",
    })
    code = main(["calibrate", "--spec", spec_path, "--out", str(tmp_path / "cal.txt")])
    assert capsys.readouterr().err == "error: joint calibration needs both statistics enabled\n"
    assert code == 2


def _write_spec(tmp_path, name="spec.txt", **kv):
    """A jump calibration spec; a key given as None is left out."""
    defaults = {"mode": "fa", "which": "jump", "horizon": "50", "k": "30",
                "n_jump": "3", "replications": "20"}
    defaults.update(kv)
    path = str(tmp_path / name)
    write_kv(path, "calibration-spec", {k: str(v) for k, v in defaults.items() if v is not None})
    return path


@pytest.mark.parametrize("spec, message", [
    ({"horizon": "1"}, "horizon must be >= 2 (steps 1..horizon-1 are monitored), got 1"),
    ({"mode": "arl", "eta": "2"}, "an ARL target takes no eta, got eta = 2.0"),
    ({"noise": "cauchy"}, "unknown noise kind 'cauchy'"),
    ({"n_jump": "x"}, "key 'n_jump' is not an integer: 'x'"),
    ({"standardize": "yes"}, "key 'standardize' is not true or false: 'yes'"),
    ({"replications": "x"}, "key 'replications' is not an integer: 'x'"),
    ({"horizon": "5.5"}, "key 'horizon' is not an integer: '5.5'"),
    ({"horizon": None}, "missing key 'horizon'"),
    ({"k": "x"}, "key 'k' is not an integer: 'x'"),
    ({"master_seed": "x"}, "key 'master_seed' is not an integer: 'x'"),
    ({"eta": "x"}, "key 'eta' is not a number: 'x'"),
    ({"sigma": "z"}, "key 'sigma' is not a number: 'z'"),
    ({"n_jump": "0"}, "n_jump must be an integer >= 1, got 0"),
    ({"n_jump": "-3"}, "n_jump must be an integer >= 1, got -3"),
    ({"master_seed": "-3"}, "master_seed must be >= 0, got -3"),
], ids=["horizon-1", "arl-eta", "noise", "bin-size", "standardize", "replications",
        "horizon", "no-horizon", "k", "master-seed", "eta", "sigma", "bin-size-0",
        "bin-size-negative", "master-seed-negative"])
def test_bad_calibrate_spec_names_its_path_once(tmp_path, capsys, spec, message):
    spec_path = _write_spec(tmp_path, **spec)
    out_path = tmp_path / "cal.txt"
    code = main(["calibrate", "--spec", spec_path, "--out", str(out_path)])
    assert capsys.readouterr().err == f"error: {spec_path}: {message}\n"
    assert code == 3
    assert not out_path.exists()


def test_calibrate_standardize_takes_true_or_false_in_any_case(tmp_path, capsys):
    files = []
    for value in ("true", "TRUE", "false", "False"):
        out = tmp_path / f"cal_{value}.txt"
        spec_path = _write_spec(tmp_path, f"spec_{value}.txt", standardize=value)
        assert main(["calibrate", "--spec", spec_path, "--out", str(out)]) == 0
        files.append(out.read_text())
    capsys.readouterr()
    assert files[0] == files[1] != files[2] == files[3]
    assert "standardize = true" in files[0] and "standardize = false" in files[2]


@pytest.mark.parametrize("key, value, message", [
    ("n_jump", "x", "key 'n_jump' is not an integer: 'x'"),
    ("rho_jump", "abc", "key 'rho_jump' is not a number: 'abc'"),
], ids=["bin-size", "threshold"])
def test_bad_detect_config_names_its_path_once(tmp_path, capsys, key, value, message):
    data = str(tmp_path / "d.csv")
    write_series(data, np.arange(10.0))
    cfg = _write_config(tmp_path, **{key: value})
    code = main(["detect", "--input", data, "--config", cfg, "--k", "5"])
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert code == 3


def test_a_mistyped_threshold_key_is_refused_not_turned_off(tmp_path, capsys):
    # rho_jmup used to leave rho_jump at inf, and a repeated rho_jump
    # took the last line: both ran to exit 0 with the jump statistic
    # other than the file meant
    data = str(tmp_path / "jump.csv")
    main(["simulate", "--scenario", _write_scenario(tmp_path), "--out", data])
    capsys.readouterr()
    cfg = _write_config(tmp_path, n_kink="none", rho_kink="inf")
    assert main(["detect", "--input", data, "--config", cfg, "--k", "500"]) == 0
    assert "kind: jump" in capsys.readouterr().out
    typo = tmp_path / "typo.txt"
    typo.write_text("n_jump = 2\nrho_jmup = 1.5\n")
    repeated = tmp_path / "repeated.txt"
    repeated.write_text("n_jump = 2\nrho_jump = 1.5\nrho_jump = 90\n")
    for path, message in ((typo, "unknown key 'rho_jmup'"),
                          (repeated, "line 3: repeated key 'rho_jump'")):
        code = main(["detect", "--input", data, "--config", str(path), "--k", "500"])
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert code == 3
        assert captured.out == ""


@pytest.mark.parametrize("spec, message", [
    ({"rho_jump": "0.5"}, "unknown key 'rho_jump'"),
    ({"replication": "50"}, "unknown key 'replication'"),
], ids=["threshold", "typo"])
def test_calibrate_spec_refuses_an_unknown_key(tmp_path, capsys, spec, message):
    spec_path = _write_spec(tmp_path, **spec)
    out_path = tmp_path / "cal.txt"
    code = main(["calibrate", "--spec", spec_path, "--out", str(out_path)])
    assert capsys.readouterr().err == f"error: {spec_path}: {message}\n"
    assert code == 3
    assert not out_path.exists()


_SIGMA_OF_T = "key 'sigma' is for gaussian noise; student_t noise takes only 1.0, got '50.0'"
_DF_OF_GAUSSIAN = "key 'df' is for student_t noise; gaussian noise takes only 'none', got '7'"


@pytest.mark.parametrize("command, noise, neutral, message", [
    ("simulate", {"noise": "student_t", "df": "3", "sigma": "50.0"}, {"sigma": "1.0"},
     _SIGMA_OF_T),
    ("simulate", {"noise": "gaussian", "df": "7"}, {"df": "none"}, _DF_OF_GAUSSIAN),
    ("calibrate", {"noise": "student_t", "df": "3", "sigma": "50.0"}, {"sigma": "1.0"},
     _SIGMA_OF_T),
    ("calibrate", {"noise": "gaussian", "df": "7"}, {"df": "none"}, _DF_OF_GAUSSIAN),
], ids=["scenario-sigma", "scenario-df", "spec-sigma", "spec-df"])
def test_a_noise_key_of_the_other_kind_is_refused(tmp_path, capsys, command, noise, neutral,
                                                  message):
    # such a key used to be ignored: a student_t scenario with sigma = 50
    # wrote the same stream as with sigma = 1 and recorded sigma = 1.0
    write = _write_scenario if command == "simulate" else _write_spec
    out_path = tmp_path / "out.txt"
    path = write(tmp_path, **noise)
    code = main([command, "--" + ("scenario" if command == "simulate" else "spec"), path,
                 "--out", str(out_path)])
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert code == 3
    assert not out_path.exists()
    path = write(tmp_path, **{**noise, **neutral})  # the value NoiseSpec gives the key
    assert main([command, "--" + ("scenario" if command == "simulate" else "spec"), path,
                 "--out", str(out_path)]) == 0
    capsys.readouterr()


def test_exit_code_3_on_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,zebra\n")
    cfg = _write_config(tmp_path)
    code = main(["detect", "--input", str(bad), "--config", cfg, "--k", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "line 2" in err
    code = main(["detect", "--input", str(tmp_path / "missing.csv"),
                 "--config", cfg, "--k", "1"])
    capsys.readouterr()
    assert code == 3


def test_unknown_experiment_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--name", "table9"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_split_time_selects_history(tmp_path, capsys):
    times = np.arange(0.0, 10.0, 0.5)
    values = np.zeros(times.size)
    rows = ["time,value"] + [f"{t},{v}" for t, v in zip(times, values)]
    (tmp_path / "tv.csv").write_text("\n".join(rows) + "\n")
    cfg = _write_config(tmp_path)
    code = main(["detect", "--input", str(tmp_path / "tv.csv"),
                 "--config", cfg, "--split-time", "4.75"])
    out = capsys.readouterr().out
    assert code == 0
    assert "k: 10" in out  # times 0.0 .. 4.5


def _write_times(tmp_path, times):
    path = tmp_path / "tv.csv"
    path.write_text("time,value\n" + "".join(f"{t},{0.01 * i}\n" for i, t in enumerate(times)))
    return str(path)


@pytest.mark.parametrize("times, row, message", [
    # only 299 rows have a time <= 300, but a sorted search would take 300
    ([390.5 if i == 11 else float(i) for i in range(1, 401)], 12, "time 12.0 after 390.5"),
    ([float(i) for i in range(400, 0, -1)], 2, "time 399.0 after 400.0"),
    ([math.nan if i == 5 else float(i) for i in range(1, 401)], 5, "time nan after 4.0"),
], ids=["one-late-row", "descending", "nan"])
def test_split_time_refuses_times_out_of_order(tmp_path, capsys, times, row, message):
    data = _write_times(tmp_path, times)
    code = main(["detect", "--input", data, "--config", _write_config(tmp_path),
                 "--split-time", "300"])
    captured = capsys.readouterr()
    assert captured.err == (f"error: {data}: --split-time needs ascending times: "
                            f"data row {row} has {message}\n")
    assert code == 3
    assert "status:" not in captured.out
    # the same rows monitor as before with an explicit history length
    assert main(["detect", "--input", data, "--config", _write_config(tmp_path),
                 "--k", "300"]) == 0
    assert "k: 300" in capsys.readouterr().out


def test_experiment_rates_smoke(tmp_path, capsys):
    code = main(["experiment", "--name", "rates", "--out-dir", str(tmp_path),
                 "--replications", "1", "--master-seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "only 1 replications" in out  # wide-interval warning
    assert os.path.exists(tmp_path / "rates.csv")


def test_experiment_passes_calib_replications_to_rates(tmp_path, capsys, monkeypatch):
    import linewatch.cli as cli

    seen = {}

    def builder(**kwargs):
        seen.update(kwargs)
        return ["n"], [["1"]]

    monkeypatch.setitem(cli.EXPERIMENTS, "rates", builder)
    code = main(["experiment", "--name", "rates", "--out-dir", str(tmp_path),
                 "--calib-replications", "50"])
    capsys.readouterr()
    assert code == 0
    assert seen == {"calib_replications": 50}


def test_experiment_refuses_a_negative_master_seed(tmp_path, capsys):
    code = main(["experiment", "--name", "table3", "--out-dir", str(tmp_path),
                 "--replications", "2", "--calib-replications", "50", "--master-seed", "-1"])
    assert capsys.readouterr().err == "error: --master-seed must be >= 0, got -1\n"
    assert code == 2
    assert not (tmp_path / "table3.csv").exists()


def test_experiment_table3_row_shape(tmp_path, capsys):
    code = main(["experiment", "--name", "table3", "--out-dir", str(tmp_path),
                 "--replications", "2", "--calib-replications", "50",
                 "--master-seed", "4"])
    capsys.readouterr()
    assert code == 0
    header = (tmp_path / "table3.csv").read_text().splitlines()[1].split(",")
    assert header[:7] == ["mode", "N", "target_arl", "k", "rho_jump",
                          "rho_kink", "arl"]
    assert len(header) == 13  # six delay columns


def test_experiment_without_replications_is_a_usage_error(tmp_path, capsys):
    # refused with a located message, not a warning about an empty mean
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["experiment", "--name", "table3", "--out-dir", str(tmp_path),
                     "--replications", "0", "--calib-replications", "50"])
    err = capsys.readouterr().err
    assert code == 2
    assert "replications must be >= 1" in err
    assert "RuntimeWarning" not in err
