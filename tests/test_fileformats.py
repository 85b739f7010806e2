import io
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linewatch import CalibrationSpec, NoiseSpec, calibrate
from linewatch import fileformats
from linewatch.errors import FileFormatError
from linewatch.fileformats import (
    _parse_rows,
    calibration_spec_from_kv,
    calibration_to_kv,
    config_from_kv,
    format_table,
    parse_series,
    read_kv,
    read_series,
    scenario_params_from_kv,
    write_kv,
    write_report,
    write_series,
)


def test_kv_round_trip(tmp_path):
    path = str(tmp_path / "cfg.txt")
    write_kv(path, "config", {"n_jump": "10", "rho_jump": "0.658"})
    kv = read_kv(path)
    assert kv == {"n_jump": "10", "rho_jump": "0.658"}


def test_kv_malformed_line_reports_number(tmp_path):
    path = str(tmp_path / "bad.txt")
    path_obj = tmp_path / "bad.txt"
    path_obj.write_text("# linewatch config v1\nn_jump = 10\noops\n")
    with pytest.raises(FileFormatError) as err:
        read_kv(path)
    assert err.value.line == 3


def test_kv_repeated_key_reports_its_line(tmp_path):
    path = tmp_path / "twice.txt"
    path.write_text("n_jump = 10\n\n# note\nn_jump = 12\n")
    with pytest.raises(FileFormatError) as err:
        read_kv(str(path))
    assert err.value.line == 4
    assert str(err.value) == f"{path}: line 4: repeated key 'n_jump'"


@pytest.mark.parametrize("reader, kv, key", [
    (config_from_kv, {"n_jump": "5", "rho_jmup": "1"}, "rho_jmup"),
    (scenario_params_from_kv, {"tau": "0.5", "rho_jump": "1"}, "rho_jump"),
    (calibration_spec_from_kv, {"k": "20", "change_index": "3"}, "change_index"),
], ids=["config", "scenario", "spec"])
def test_readers_refuse_a_key_they_do_not_know(reader, kv, key):
    with pytest.raises(FileFormatError) as err:
        reader(kv, "f.kv")
    assert str(err.value) == f"f.kv: unknown key {key!r}"


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


@pytest.mark.parametrize("raw, line", [
    ("1;5\n2,6\n3,7\n", 1),  # a header must have the data's columns
    ("index,value\n1,2.0 # note\n2,3.0\n", 2),  # only the first row is a header
    ("value\nfirst\n1\n", 2),
    ("index,1\n2,3\n", 1),  # a row with a number is data
])
def test_no_data_row_is_skipped_as_a_header(raw, line):
    with pytest.raises(FileFormatError) as err:
        parse_series(raw)
    assert err.value.line == line


@pytest.mark.parametrize("raw", [
    "index,value,note\n1,2\n",
    "temperature\n1,2\n",
    "time,value\n1\n",
])
def test_header_with_another_column_count_than_the_data_is_rejected(raw):
    """A behaviour change that comes with the header rule: such a header
    was skipped before; it now raises at its own line."""
    with pytest.raises(FileFormatError, match="header has") as err:
        parse_series(raw)
    assert err.value.line == 1


def _same_parse(raw, parse=parse_series):
    """``parse`` gives the bits of the line-by-line parser or raises the
    same error at the same line; the parser reads the text as decoded,
    without a leading byte-order mark."""
    try:
        rows = _parse_rows(raw.removeprefix("\ufeff").splitlines(), "<data>")
    except FileFormatError as exc:
        with pytest.raises(FileFormatError) as err:
            parse()
        got = str(err.value).replace(f"{err.value.path}: ", "", 1)
        assert (err.value.line, got) == (exc.line, str(exc).replace("<data>: ", "", 1))
        return
    values, times = parse()
    assert (times is None) == (rows.shape[1] == 1)
    for got, want in ((values, rows[:, -1]), (times, rows[:, 0])):
        if got is not None:
            assert got.dtype == want.dtype == np.float64
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("raw, vectorised", [
    ("# linewatch data v1\nindex,value\n1,0.5\n2,-1e-3\n", True),
    ("index,value\r\n1,2.5\r\n2,3.5\r\n", True),  # CRLF
    ("1\r2\r3\r", True),
    (" 1 , 2.5 \n\t2,\t3.5\n", True),  # spaces around fields
    ("value\n1\n\n2\n", True),  # an empty line among the data
    ("1\n   \n2\n", False),  # a blank line with spaces
    ("1\n# note\n2\n", False),
    ("1\n2\n# trailing note\n", False),
    ("1_000\n2\n", False),
    ("\uff11\uff12\n3\n", False),  # full-width digits
    ("nan\ninf\n-inf\n1e400\n4.9e-324\n-nan\n+Infinity\n", True),
    ("1,2\n3\n", False),  # ragged
    ("1,2,\n3,4,\n", False),  # trailing comma
    ("1,2 # note\n", False),
    ("1,\x0c2\n", False),  # a line break for str.splitlines only
    ("1\x0b2\x853\u20284\n", True),
    ("7\n", True),
    ("time,value\n0.5,7\n", True),
    ("a,b,c\n1,2,3\n", False),
    ("value\n", False),
    ("", False),
    ("\ufeff1\n2\n", True),  # a byte-order mark: in the text, and in the file's bytes
    ("\ufeffvalue\n1\n", True),
    ("1\x00\n2\n", False),  # a control character: no header, a malformed row
])
def test_vectorised_parse_equals_line_parser(raw, vectorised, tmp_path, monkeypatch):
    _same_parse(raw, lambda: parse_series(raw))
    path = tmp_path / "data.csv"
    path.write_text(raw, newline="")
    _same_parse(path.read_text(), lambda: read_series(str(path)))
    if vectorised:  # the loadtxt pass alone reads it
        monkeypatch.setattr(fileformats, "_parse_rows", None)
        parse_series(raw)
        read_series(str(path))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_read_series_reads_a_pipe_once():
    """A pipe can be read only once: a second read would find no rows."""
    read_end, write_end = os.pipe()
    os.write(write_end, b"value\n1.5\n2.5\n")
    os.close(write_end)
    try:
        values, times = read_series(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert values.tolist() == [1.5, 2.5] and times is None


def test_read_series_reads_standard_input_for_a_dash(monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"time,value\n1,2.5\n2,oops\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    with pytest.raises(FileFormatError) as err:
        read_series("-")
    assert str(err.value) == "<stdin>: line 3: malformed row '2,oops'"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"1,2.5\n2,3.5\n")))
    values, times = read_series("-")
    assert values.tolist() == [2.5, 3.5] and times.tolist() == [1.0, 2.0]


def test_write_report_writes_its_header_then_one_line_per_row(tmp_path):
    path = tmp_path / "report.csv"
    write_report(str(path), ["mode", "N"], [["jump", "10"], ["both", "-"]])
    assert path.read_text() == "# linewatch report v1\nmode,N\njump,10\nboth,-\n"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789,.e-+ \t\n\r#_naifvx\x0c\xa0\uff11\u2028", max_size=40))
def test_vectorised_parse_equals_line_parser_on_any_text(raw):
    _same_parse(raw, lambda: parse_series(raw))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="") as fh:
            fh.write(raw)
        with open(path) as fh:
            text = fh.read()
        _same_parse(text, lambda: read_series(path))


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
    result = calibrate(spec)
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
