"""On-disk formats: key-value config files, data/trace CSVs, reports.

Every file written by this package starts with a version header
comment ``# linewatch <kind> v1``.  Readers tolerate a missing header
(hand-written files) but reject mismatched kinds.  Floats are written
with ``repr`` (shortest round-trip), so rereading a file recovers the
exact values and rerunning a command reproduces output byte for byte.

Key-value files hold one ``key = value`` pair per line; ``#`` starts a
comment.  Config/calibration keys (units in parentheses):

    n_jump, n_kink      bin sizes (observations; 'none' disables)
    rho_jump, rho_kink  thresholds (residual units; 'inf' disables)
    k                   historical length (observations)
    horizon             change position or ARL target (monitoring steps)
    eta                 target type-I level (probability)
    replications        Monte Carlo sample size
    master_seed         integer seed
    noise, sigma, df    noise kind and parameters
    standardize         true/false

Scenario files for ``simulate`` additionally carry the signal:
tau (fraction of horizon), alpha_minus/alpha_plus (signal units at
tau), beta_minus/beta_plus (signal units per unit fraction), n, seed.
"""

from __future__ import annotations

import codecs
import io
import unicodedata
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .calibration import CalibrationResult
from .detector import DetectorConfig, RunResult
from .errors import FileFormatError
from .signal import NoiseSpec, SignalParams

FORMAT_VERSION = 1
# Line breaks of str.splitlines at which a text stream does not split.
_SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

__all__ = [
    "FORMAT_VERSION",
    "calibration_to_kv",
    "config_from_kv",
    "format_table",
    "noise_from_kv",
    "parse_series",
    "read_kv",
    "read_series",
    "scenario_params_from_kv",
    "write_kv",
    "write_series",
    "write_trace",
]


def _header(kind: str) -> str:
    return f"# linewatch {kind} v{FORMAT_VERSION}"


def write_kv(path: str, kind: str, mapping: Dict[str, str]) -> None:
    lines = [_header(kind)]
    lines += [f"{key} = {value}" for key, value in mapping.items()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_kv(path: str, expect_kind: Optional[str] = None) -> Dict[str, str]:
    out: Dict[str, str] = {}
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise FileFormatError(str(exc), path=path) from exc
    seen_header = False
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            if not seen_header and text.startswith("# linewatch "):
                seen_header = True
                parts = text.split()
                if expect_kind is not None and parts[2] != expect_kind:
                    raise FileFormatError(
                        f"expected a {expect_kind} file, found {parts[2]}",
                        path=path,
                        line=lineno,
                    )
            continue
        if "=" not in text:
            raise FileFormatError("expected 'key = value'", path=path, line=lineno)
        key, _, value = text.partition("=")
        out[key.strip()] = value.strip()
    return out


def _kv_float(kv: Dict[str, str], key: str, path: str) -> float:
    try:
        return float(kv[key])
    except KeyError:
        raise FileFormatError(f"missing key {key!r}", path=path) from None
    except ValueError:
        raise FileFormatError(f"key {key!r} is not a number: {kv[key]!r}", path=path) from None


def _kv_int(kv: Dict[str, str], key: str, path: str, default: Optional[int] = None) -> Optional[int]:
    if key not in kv:
        if default is not None:
            return default
        raise FileFormatError(f"missing key {key!r}", path=path)
    try:
        return int(kv[key])
    except ValueError:
        raise FileFormatError(f"key {key!r} is not an integer: {kv[key]!r}", path=path) from None


def config_from_kv(kv: Dict[str, str], path: str = "<config>") -> DetectorConfig:
    """Detector configuration from a config or calibration file."""

    def bin_size(key: str) -> Optional[int]:
        raw = kv.get(key, "none").lower()
        if raw in ("none", "off", "-"):
            return None
        try:
            return int(raw)
        except ValueError:
            raise FileFormatError(f"key {key!r} is not an integer: {raw!r}", path=path) from None

    def threshold(key: str) -> float:
        raw = kv.get(key, "inf")
        try:
            return float(raw)
        except ValueError:
            raise FileFormatError(f"key {key!r} is not a number: {raw!r}", path=path) from None

    try:
        return DetectorConfig(
            n_jump=bin_size("n_jump"),
            n_kink=bin_size("n_kink"),
            rho_jump=threshold("rho_jump"),
            rho_kink=threshold("rho_kink"),
        )
    except ValueError as exc:
        raise FileFormatError(str(exc), path=path) from exc


def noise_from_kv(kv: Dict[str, str], path: str = "<spec>") -> NoiseSpec:
    kind = kv.get("noise", "gaussian")
    if kind == "gaussian":
        return NoiseSpec("gaussian", sigma=float(kv.get("sigma", "1.0")))
    if kind == "student_t":
        return NoiseSpec("student_t", df=_kv_float(kv, "df", path))
    raise FileFormatError(f"unknown noise kind {kind!r}", path=path)


def scenario_params_from_kv(
    kv: Dict[str, str], path: str = "<scenario>"
) -> Tuple[SignalParams, int, NoiseSpec, int]:
    """(theta, n, noise, seed) for the simulate command."""
    theta = SignalParams(
        tau=_kv_float(kv, "tau", path),
        alpha_minus=_kv_float(kv, "alpha_minus", path),
        alpha_plus=_kv_float(kv, "alpha_plus", path),
        beta_minus=_kv_float(kv, "beta_minus", path),
        beta_plus=_kv_float(kv, "beta_plus", path),
    )
    n = _kv_int(kv, "n", path)
    seed = _kv_int(kv, "seed", path, default=0)
    return theta, n, noise_from_kv(kv, path), seed


def calibration_to_kv(result: CalibrationResult) -> Dict[str, str]:
    spec = result.spec

    def opt(v) -> str:
        return "none" if v is None else repr(v)

    return {
        "method": result.method,
        "n_jump": "none" if spec.n_jump is None else str(spec.n_jump),
        "n_kink": "none" if spec.n_kink is None else str(spec.n_kink),
        "rho_jump": repr(result.rho_jump),
        "rho_kink": repr(result.rho_kink),
        "eta": repr(spec.eta),
        "eta_marginal": repr(result.eta_marginal),
        "empirical_fa": repr(result.empirical_fa),
        "fa_jump": opt(result.fa_jump),
        "fa_kink": opt(result.fa_kink),
        "k": str(spec.k),
        "horizon": str(spec.horizon),
        "replications": str(spec.replications),
        "master_seed": str(spec.master_seed),
        "noise": spec.noise.kind,
        "sigma": repr(spec.noise.sigma),
        "df": "none" if spec.noise.df is None else repr(spec.noise.df),
        "standardize": str(spec.standardize).lower(),
        "maxima_retained": str(result.maxima_retained).lower(),
    }


def write_series(path: str, values: Sequence[float]) -> None:
    """(index, value) CSV, indices from 1, with full-precision decimals."""
    lines = [_header("data"), "index,value"]
    lines += [f"{i},{repr(float(v))}" for i, v in enumerate(values, 1)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def read_series(path: str) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Values (and times, for two-column files) from a data CSV.

    Accepts a single column of values or (time, value) pairs, with an
    optional header row and ``#`` comments.  Malformed rows raise
    FileFormatError with the offending line number.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FileFormatError(str(exc), path=path) from exc
    return parse_series(raw, path)


def parse_series(raw: Union[str, bytes], path: str = "<data>", encoding: Optional[str] = None,
                 errors: Optional[str] = None) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``read_series`` on the text of a file, or on its bytes, decoded
    with ``encoding`` and ``errors`` (by default as ``open`` decodes).

    One ``np.loadtxt`` pass reads the lines after the header as a text
    stream, with no string built per line, unless the text holds a line
    break that only ``str.splitlines`` knows; it accepts only lines that
    ``_parse_rows`` reads to the same bits.  Other text (a ``#`` line
    among the data, ``1_000``, a malformed row) goes to ``_parse_rows``,
    which reads it or raises the located error.
    """
    if isinstance(raw, str):  # read through its UTF-8 bytes, lone surrogates kept
        raw, encoding, errors = raw.encode("utf-8", "surrogatepass"), "utf-8", "surrogatepass"

    def text():
        return io.TextIOWrapper(io.BytesIO(raw), encoding, errors)

    if codecs.lookup(text().encoding).name == "utf-8":  # a byte-order mark is no data
        raw = raw.removeprefix(codecs.BOM_UTF8)
    marks = {ch.encode(text().encoding, "ignore") for ch in _SPLITLINES_ONLY} - {b""}
    # each mark's last byte first: a one-byte search is about ten times as fast
    breaks = any(mark[-1:] in raw and mark in raw for mark in marks)
    split = text().read().splitlines() if breaks else None
    lines = text if split is None else lambda: split
    found = _preamble(lines(), path)
    data = None
    if found is not None:
        try:
            data = np.loadtxt(lines(), delimiter=",", comments=None, ndmin=2,
                              skiprows=found[0])
        except ValueError:  # the line parser locates every failure
            pass
    if data is None or data.shape[1] != found[1]:
        data = _parse_rows(text().read().splitlines() if split is None else split, path)
    return data[:, -1].copy(), (data[:, 0].copy() if data.shape[1] == 2 else None)


def _preamble(lines, path: str) -> Optional[Tuple[int, int]]:
    """(lines before the first data row, its column count), or None.
    Only the first row that is neither blank nor a comment can be a
    header: one with no number among as many fields as the data, and
    no control character (a NUL, say) but whitespace."""
    header = None
    for count, line in enumerate(lines):
        fields = [f.strip() for f in line.strip().split(",")]
        if fields == [""] or fields[0].startswith("#"):
            continue
        if header is None and not any(map(_is_number, fields)) and not any(
                unicodedata.category(ch) == "Cc" and not ch.isspace() for ch in line):
            header = (count + 1, len(fields))
            continue
        n_cols = len(fields)
        if n_cols not in (1, 2):
            raise FileFormatError(f"expected 1 or 2 columns, found {n_cols}",
                                  path=path, line=count + 1)
        if header is not None and header[1] != n_cols:
            raise FileFormatError(f"header has {header[1]} columns, the data {n_cols}",
                                  path=path, line=header[0])
        return count, n_cols
    return None


def _parse_rows(lines: Sequence[str], path: str) -> np.ndarray:
    """The line-by-line parser behind ``parse_series``: (rows, columns)
    from the text's ``str.splitlines``."""
    found = _preamble(lines, path)
    if found is None:
        raise FileFormatError("no data rows found", path=path)
    start, n_cols = found
    fields_read = []  # one flat list: no list per row to build and convert
    for lineno, line in enumerate(lines[start:], start=start + 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = [f.strip() for f in text.split(",")]
        if len(fields) != n_cols or not all(map(_is_number, fields)):
            raise FileFormatError(f"malformed row {text!r}", path=path, line=lineno)
        fields_read.extend(map(float, fields))
    return np.array(fields_read).reshape(-1, n_cols)


def write_trace(path: str, series: np.ndarray, k: int, result: RunResult,
                config: DetectorConfig) -> None:
    """Statistic trace CSV of ``run(series, k, config, collect_trace=True)``,
    one row per monitored observation.

    A statistic that is off has empty cells; thresholds are repeated per
    row so the file stands alone for plotting; the last row carries the
    event, if any.
    """
    trace, event = result.trace, result.event
    stop = len(trace)
    _, j_stat, k_stat, _, _ = zip(*trace)
    stats = [("",) * stop if stat[0] is None else stat for stat in (j_stat, k_stat)]
    alarm = ["0,"] * stop
    if event is not None:
        alarm[-1] = "1," + str(event.kind)
    rho = f"{config.rho_jump!r},{config.rho_kink!r}"
    lines = [_header("trace"),
             "index,observation,residual,j_stat,k_stat,rho_jump,rho_kink,alarm,kind"]
    # a float's str is its shortest round-trip repr
    lines += [f"{index},{x},{resid},{j},{kk},{rho},{flag}" for index, x, resid, j, kk, flag
              in zip(range(k + 1, k + stop + 1), series[k:k + stop].tolist(),
                     result.residuals[:stop].tolist(), *stats, alarm)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Aligned fixed-width text table."""
    table = [list(headers)] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    out = []
    for irow, row in enumerate(table):
        out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if irow == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)
