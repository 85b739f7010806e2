"""On-disk formats: key-value config files, data/trace CSVs, reports.

Every file written by this package starts with a version header
comment ``# linewatch <kind> v1``.  Readers skip it as a comment, so a
hand-written file needs none.  Floats are written with ``repr``
(shortest round-trip), so rereading a file recovers the exact values
and rerunning a command reproduces output byte for byte.

Key-value files hold one ``key = value`` pair per line; ``#`` starts a
comment.  A repeated key is refused at its line, and each reader
refuses a key it does not know, so that a mistyped threshold cannot
silently turn its statistic off.  Config/calibration keys (units in
parentheses):

    n_jump, n_kink      bin sizes (observations; 'none' disables)
    rho_jump, rho_kink  thresholds (residual units; 'inf' disables)
    mode                fa (default) or arl: a spec's target
    which               jump, kink or both (default): the statistics
                        a spec calibrates
    k                   historical length (observations)
    horizon             change position or ARL target (monitoring
                        steps, at least 2)
    eta                 target type-I level (probability); an ARL spec
                        (mode = arl) takes no eta, and its calibration
                        file records 1 - 1/e, its crossing probability
                        over ``horizon`` steps
    replications        Monte Carlo sample size
    master_seed         integer seed (>= 0); block b of B replication
                        rows draws its stream (B, b) (``signal._stream``)
    noise, sigma, df    noise kind and parameters
    standardize         true/false

A config takes the bin sizes and thresholds, a calibration spec every
key but the thresholds.  A calibration file also records the
calibration's outcome, and stays a valid config:

    method              single-jump, single-kink or joint, prefixed
                        arl- for an ARL target
    eta_marginal        the level each statistic's threshold is read at:
                        eta for one statistic, (r - q) / r for the
                        shared rank q of a joint or multi-bin
                        calibration of r replications
    empirical_fa        fraction of calibration rows that cross a
                        threshold (probability)
    fa_jump, fa_kink    the same per statistic ('none' if not calibrated)

Scenario files for ``simulate`` carry the noise keys and the signal:
tau (fraction of horizon), alpha_minus/alpha_plus (signal units at
tau), beta_minus/beta_plus (signal units per unit fraction), n, seed.
Its truth sidecar repeats them and adds change_index, the last
pre-change observation.  A report CSV (``experiment``) holds a row of
column names, then one row per setting.
"""

from __future__ import annotations

import codecs
import io
import math
import sys
import unicodedata
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .calibration import CalibrationResult, CalibrationSpec
from .detector import DetectorConfig, RunResult
from .engine import batch_stats
from .errors import FileFormatError
from .signal import NoiseSpec, SignalParams, change_index

FORMAT_VERSION = 1
# Line breaks of str.splitlines at which a text stream does not split.
_SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# The keys of each key-value file; a reader refuses any other.
_SIGNAL_KEYS = ("tau", "alpha_minus", "alpha_plus", "beta_minus", "beta_plus")
_NOISE_KEYS = ("noise", "sigma", "df")
_SCENARIO_KEYS = frozenset(_SIGNAL_KEYS + ("n", "seed") + _NOISE_KEYS)
_SPEC_KEYS = frozenset(("mode", "which", "replications", "eta", "horizon", "k", "n_jump",
                        "n_kink", "master_seed", "standardize") + _NOISE_KEYS)
# a calibration file drives detect, so a config may hold all it records;
# maxima_retained is read from calibration files written before it went
_CONFIG_KEYS = (_SPEC_KEYS - {"mode", "which"}) | {
    "rho_jump", "rho_kink", "method", "eta_marginal", "empirical_fa", "fa_jump", "fa_kink",
    "maxima_retained"}

__all__ = [
    "FORMAT_VERSION",
    "bin_size_from_kv",
    "calibration_spec_from_kv",
    "calibration_to_kv",
    "config_from_kv",
    "format_table",
    "noise_from_kv",
    "parse_series",
    "read_kv",
    "read_series",
    "scenario_params_from_kv",
    "truth_to_kv",
    "write_kv",
    "write_report",
    "write_series",
    "write_trace",
]


def _write(path: str, kind: str, lines: Iterable[str]) -> None:
    """The one writer: the version header of ``kind``, then ``lines``,
    each ended by a newline."""
    with open(path, "w") as fh:
        fh.write("\n".join([f"# linewatch {kind} v{FORMAT_VERSION}", *lines]) + "\n")


def write_kv(path: str, kind: str, mapping: Dict[str, str]) -> None:
    _write(path, kind, (f"{key} = {value}" for key, value in mapping.items()))


def write_report(path: str, headers: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Report CSV: the column names, then one line per row of cells."""
    _write(path, "report", [",".join(headers), *(",".join(row) for row in rows)])


def _read(path: str, mode: str = "r") -> Union[str, bytes]:
    """The text (or with mode "rb" the bytes) of a file; an OSError is
    raised again as a FileFormatError naming ``path``."""
    try:
        with open(path, mode) as fh:
            return fh.read()
    except OSError as exc:
        raise FileFormatError(str(exc), path=path) from exc


def read_kv(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for lineno, line in enumerate(_read(path).splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise FileFormatError("expected 'key = value'", path=path, line=lineno)
        key, _, value = text.partition("=")
        key = key.strip()
        if key in out:
            raise FileFormatError(f"repeated key {key!r}", path=path, line=lineno)
        out[key] = value.strip()
    return out


def _bool(raw: str) -> bool:
    """'true' or 'false', in any case."""
    if raw.lower() not in ("true", "false"):
        raise ValueError(raw)
    return raw.lower() == "true"


_KIND_NAMES = {int: "an integer", float: "a number", _bool: "true or false"}


def _kv(kv: Dict[str, str], key: str, path: str, kind: Callable[[str], object],
        default: object = None):
    """The one typed-key reader: ``kind(kv[key])`` for ``kind`` int,
    float or ``_bool``, or ``default`` when the key is absent.  A key
    that is missing without a default, or whose value ``kind`` cannot
    read, raises a FileFormatError naming the key."""
    if key not in kv:
        if default is None:
            raise FileFormatError(f"missing key {key!r}", path=path)
        return default
    try:
        return kind(kv[key])
    except ValueError:
        raise FileFormatError(f"key {key!r} is not {_KIND_NAMES[kind]}: {kv[key]!r}",
                              path=path) from None


def _located(build: Callable, path: str, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError raised again as a
    FileFormatError naming ``path``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise FileFormatError(str(exc), path=path) from exc


def _known_keys(kv: Dict[str, str], known: frozenset, path: str) -> None:
    for key in kv:
        if key not in known:
            raise FileFormatError(f"unknown key {key!r}", path=path)


def bin_size_from_kv(kv: Dict[str, str], key: str, path: str) -> Optional[int]:
    """A bin size key; absent, 'none', 'off' or '-' disables the statistic."""
    if kv.get(key, "none").lower() in ("none", "off", "-"):
        return None
    return _kv(kv, key, path, int)


def config_from_kv(kv: Dict[str, str], path: str = "<config>") -> DetectorConfig:
    """Detector configuration from a config or calibration file."""
    _known_keys(kv, _CONFIG_KEYS, path)
    return _located(DetectorConfig, path,
                    bin_size_from_kv(kv, "n_jump", path), bin_size_from_kv(kv, "n_kink", path),
                    _kv(kv, "rho_jump", path, float, default=math.inf),
                    _kv(kv, "rho_kink", path, float, default=math.inf))


def noise_from_kv(kv: Dict[str, str], path: str = "<spec>") -> NoiseSpec:
    kind = kv.get("noise", "gaussian")
    if kind == "student_t":
        return _located(NoiseSpec, path, kind, df=_kv(kv, "df", path, float))
    return _located(NoiseSpec, path, kind, sigma=_kv(kv, "sigma", path, float, default=1.0))


def scenario_params_from_kv(
    kv: Dict[str, str], path: str = "<scenario>"
) -> Tuple[SignalParams, int, NoiseSpec, int]:
    """(theta, n, noise, seed) for the simulate command."""
    _known_keys(kv, _SCENARIO_KEYS, path)
    theta = _located(SignalParams, path, *(_kv(kv, key, path, float) for key in _SIGNAL_KEYS))
    n = _kv(kv, "n", path, int)
    if n < 1:
        raise FileFormatError(f"key 'n' must be >= 1, got {n}", path=path)
    seed = _kv(kv, "seed", path, int, default=0)
    if seed < 0:
        raise FileFormatError(f"key 'seed' must be >= 0, got {seed}", path=path)
    return theta, n, noise_from_kv(kv, path), seed


def calibration_spec_from_kv(kv: Dict[str, str], path: str = "<spec>") -> CalibrationSpec:
    """The tuning request of a ``calibrate`` spec file.  A joint spec
    (which = both) without both bin sizes raises a plain ValueError: the
    file is well formed, but asks for what cannot be done."""
    _known_keys(kv, _SPEC_KEYS, path)
    mode, which = kv.get("mode", "fa"), kv.get("which", "both")
    if mode not in ("fa", "arl"):
        raise FileFormatError(f"mode must be fa or arl, got {mode!r}", path=path)
    if which not in ("jump", "kink", "both"):
        raise FileFormatError(f"which must be jump, kink or both, got {which!r}", path=path)
    spec = _located(
        CalibrationSpec, path,
        replications=_kv(kv, "replications", path, int, default=1000),
        eta=(_kv(kv, "eta", path, float) if "eta" in kv
             else None if mode == "arl" else 0.5),
        arl=mode == "arl",
        horizon=_kv(kv, "horizon", path, int),
        k=_kv(kv, "k", path, int),
        n_jump=bin_size_from_kv(kv, "n_jump", path) if which != "kink" else None,
        n_kink=bin_size_from_kv(kv, "n_kink", path) if which != "jump" else None,
        noise=noise_from_kv(kv, path),
        master_seed=_kv(kv, "master_seed", path, int, default=0),
        standardize=_kv(kv, "standardize", path, _bool, default=False),
    )
    if which == "both" and (spec.n_jump is None or spec.n_kink is None):
        raise ValueError("joint calibration needs both statistics enabled")
    return spec


def _opt(value, text: Callable[[object], str] = repr) -> str:
    """A value that may be None, written as 'none'."""
    return "none" if value is None else text(value)


def _noise_to_kv(noise: NoiseSpec) -> Dict[str, str]:
    return {"noise": noise.kind, "sigma": repr(noise.sigma), "df": _opt(noise.df)}


def calibration_to_kv(result: CalibrationResult) -> Dict[str, str]:
    spec = result.spec
    return {
        "method": result.method,
        "n_jump": _opt(spec.n_jump, str),
        "n_kink": _opt(spec.n_kink, str),
        "rho_jump": repr(result.rho_jump),
        "rho_kink": repr(result.rho_kink),
        "eta": repr(spec.level),
        "eta_marginal": repr(result.eta_marginal),
        "empirical_fa": repr(result.empirical_fa),
        "fa_jump": _opt(result.fa_jump),
        "fa_kink": _opt(result.fa_kink),
        "k": str(spec.k),
        "horizon": str(spec.horizon),
        "replications": str(spec.replications),
        "master_seed": str(spec.master_seed),
        **_noise_to_kv(spec.noise),
        "standardize": str(spec.standardize).lower(),
    }


def truth_to_kv(theta: SignalParams, n: int, noise: NoiseSpec, seed: int) -> Dict[str, str]:
    """The truth sidecar of ``simulate``: the scenario and its change index."""
    return {
        **{key: repr(getattr(theta, key)) for key in _SIGNAL_KEYS},
        "n": str(n),
        "change_index": str(change_index(theta, n)),
        **_noise_to_kv(noise),
        "seed": str(seed),
    }


def write_series(path: str, values: Sequence[float]) -> None:
    """(index, value) CSV, indices from 1, with full-precision decimals."""
    _write(path, "data",
           ["index,value", *(f"{i},{float(v)!r}" for i, v in enumerate(values, 1))])


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def read_series(path: str) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Values (and times, for two-column files) from a data CSV, or with
    ``path`` "-" from standard input, decoded as the stream decodes.

    Accepts a single column of values or (time, value) pairs, with an
    optional header row and ``#`` comments.  Malformed rows raise
    FileFormatError with the offending line number.
    """
    if path == "-":
        return parse_series(sys.stdin.buffer.read(), "<stdin>", sys.stdin.encoding,
                            sys.stdin.errors)
    return parse_series(_read(path, "rb"), path)


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


def write_trace(path: str, series: np.ndarray, result: RunResult) -> None:
    """Statistic trace CSV of ``result = run(series, k, config)``, one
    row per monitored observation up to the alarm; J and K come from one
    ``batch_stats`` pass over ``result.residuals``, and k and the config
    from ``result.state``.

    A statistic that is off has empty cells; thresholds are repeated per
    row so the file stands alone for plotting; the last row carries the
    event, if any.
    """
    state, event = result.state, result.event
    config, k, stop = state.config, state.absolute_offset, state.t
    with np.errstate(invalid="ignore", over="ignore"):  # silent on inf - inf, as step() is
        stats = batch_stats(result.residuals[None, :stop], config.n_jump, config.n_kink)
    stats = [("",) * stop if stat is None else stat[0].tolist() for stat in stats]
    alarm = ["0,"] * stop
    if event is not None:
        alarm[-1] = "1," + str(event.kind)
    rho = f"{config.rho_jump!r},{config.rho_kink!r}"
    lines = ["index,observation,residual,j_stat,k_stat,rho_jump,rho_kink,alarm,kind"]
    # a float's str is its shortest round-trip repr
    lines += [f"{index},{x},{resid},{j},{kk},{rho},{flag}" for index, x, resid, j, kk, flag
              in zip(range(k + 1, k + stop + 1), series[k:k + stop].tolist(),
                     result.residuals[:stop].tolist(), *stats, alarm)]
    _write(path, "trace", lines)


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
