import math

import numpy as np
import pytest

from linewatch import CalibrationSpec, NoiseSpec, calibrate_single
from linewatch.errors import FileFormatError
from linewatch.fileformats import (
    calibration_to_kv,
    config_from_kv,
    format_table,
    parse_series,
    read_kv,
    read_series,
    scenario_params_from_kv,
    write_kv,
    write_series,
)


def test_kv_round_trip(tmp_path):
    path = str(tmp_path / "cfg.txt")
    write_kv(path, "config", {"n_jump": "10", "rho_jump": "0.658"})
    kv = read_kv(path, expect_kind="config")
    assert kv == {"n_jump": "10", "rho_jump": "0.658"}


def test_kv_kind_mismatch(tmp_path):
    path = str(tmp_path / "cfg.txt")
    write_kv(path, "trace", {"a": "1"})
    with pytest.raises(FileFormatError):
        read_kv(path, expect_kind="config")


def test_kv_malformed_line_reports_number(tmp_path):
    path = str(tmp_path / "bad.txt")
    path_obj = tmp_path / "bad.txt"
    path_obj.write_text("# linewatch config v1\nn_jump = 10\noops\n")
    with pytest.raises(FileFormatError) as err:
        read_kv(path)
    assert err.value.line == 3


def test_config_from_kv_defaults_and_disable():
    cfg = config_from_kv({"n_jump": "5", "rho_jump": "1.5"})
    assert cfg.n_jump == 5 and cfg.n_kink is None
    assert cfg.rho_jump == 1.5 and cfg.rho_kink == math.inf
    cfg = config_from_kv({"n_jump": "5", "n_kink": "7", "rho_kink": "inf"})
    assert cfg.rho_kink == math.inf
    with pytest.raises(FileFormatError):
        config_from_kv({"n_jump": "none", "n_kink": "none"})


def test_series_round_trip_is_exact(tmp_path):
    values = np.random.default_rng(0).standard_normal(50) * math.pi
    path = str(tmp_path / "data.csv")
    write_series(path, values)
    back, times = read_series(path)
    assert np.array_equal(times, np.arange(1.0, 51.0))
    assert np.array_equal(back, values)  # full-precision decimals


def test_two_column_series_with_header():
    raw = "time,value\n0.5,1.25\n1.0,2.5\n"
    values, times = parse_series(raw)
    assert np.array_equal(values, [1.25, 2.5])
    assert np.array_equal(times, [0.5, 1.0])


def test_malformed_row_carries_line_number():
    raw = "# linewatch data v1\nindex,value\n1,2.0\n2,not-a-number\n"
    with pytest.raises(FileFormatError) as err:
        parse_series(raw)
    assert err.value.line == 4
    with pytest.raises(FileFormatError):
        parse_series("a,b,c\n1,2,3\n")
    with pytest.raises(FileFormatError):
        parse_series("# only comments\n")


def test_scenario_params_parse():
    kv = {
        "tau": "0.5", "alpha_minus": "0", "alpha_plus": "1",
        "beta_minus": "0", "beta_plus": "0", "n": "100",
        "noise": "student_t", "df": "3", "seed": "9",
    }
    theta, n, noise, seed = scenario_params_from_kv(kv)
    assert theta.alpha_plus == 1.0 and n == 100 and seed == 9
    assert noise.kind == "student_t" and noise.df == 3.0
    with pytest.raises(FileFormatError):
        scenario_params_from_kv({"tau": "0.5"})


def test_calibration_kv_round_trips_to_config(tmp_path):
    spec = CalibrationSpec(replications=100, eta=0.5, horizon=40, k=20,
                           n_jump=3, n_kink=None,
                           noise=NoiseSpec("gaussian", 1.0), master_seed=0)
    result = calibrate_single(spec, "jump")
    kv = calibration_to_kv(result)
    path = str(tmp_path / "cal.txt")
    write_kv(path, "calibration", kv)
    cfg = config_from_kv(read_kv(path))
    assert cfg.n_jump == 3 and cfg.n_kink is None
    assert cfg.rho_jump == result.rho_jump  # repr round-trip is exact


def test_format_table_alignment():
    text = format_table(["a", "bee"], [["1", "2"], ["10", "200"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert len(set(map(len, lines))) == 1  # all rows equal width
