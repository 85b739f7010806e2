"""Command line front end.

Subcommands:

    detect      monitor a CSV stream and report the first alarm
    calibrate   Monte Carlo threshold tuning from a spec file
    simulate    generate a synthetic stream (plus truth sidecar)
    experiment  run a prebuilt study and write report CSVs

Exit codes: 0 = completed (alarm or not, distinguished in the
report), 2 = usage or argument error, 3 = I/O or parse error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

import numpy as np

from . import fileformats as ff
from .calibration import CalibrationSpec, calibrate
from .detector import run
from .errors import FileFormatError, LinewatchError
from .prechange import KnownPrechange, _line, standardize
from .signal import change_index, generate_series
from .tables import EXPERIMENTS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linewatch",
        description="Streaming jump/kink change detection for linear signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="monitor a CSV stream")
    p.add_argument("--input", required=True, help="data CSV path, or - for stdin")
    p.add_argument("--config", required=True,
                   help="config or calibration key-value file with bins and thresholds")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="historical length (observations)")
    group.add_argument("--split-time", type=float,
                       help="history = rows with time <= this (two-column input)")
    p.add_argument("--standardize", action="store_true",
                   help="scale by the historical mean/sd before monitoring")
    p.add_argument("--sigma", type=float, default=None,
                   help="known noise scale; divides the data instead of --standardize")
    p.add_argument("--known-alpha", type=float, default=None,
                   help="use a known pre-change intercept instead of fitting")
    p.add_argument("--known-beta", type=float, default=None,
                   help="use a known pre-change slope instead of fitting")
    p.add_argument("--trace", default=None, help="write a statistic trace CSV here")

    p = sub.add_parser("calibrate", help="tune thresholds by simulation")
    p.add_argument("--spec", required=True, help="calibration spec key-value file")
    p.add_argument("--out", required=True, help="output calibration file")

    p = sub.add_parser("simulate", help="generate a synthetic stream")
    p.add_argument("--scenario", required=True, help="scenario key-value file")
    p.add_argument("--out", required=True, help="output data CSV")
    p.add_argument("--truth", default=None,
                   help="truth sidecar path (default: OUT.truth)")

    p = sub.add_parser("experiment", help="run a prebuilt study")
    p.add_argument("--name", required=True, choices=sorted(EXPERIMENTS),
                   help="which study to run")
    p.add_argument("--out-dir", default=".", help="where to write the CSV")
    p.add_argument("--replications", type=int, default=None,
                   help="override evaluation replications (quick runs)")
    p.add_argument("--calib-replications", type=int, default=None,
                   help="override calibration replications")
    p.add_argument("--master-seed", type=int, default=None)
    return parser


def _read_input(path: str):
    if path == "-":
        return ff.parse_series(sys.stdin.buffer.read(), "<stdin>", sys.stdin.encoding,
                               sys.stdin.errors)
    return ff.read_series(path)


def _cmd_detect(args) -> int:
    values, times = _read_input(args.input)
    gaps = None if times is None else np.diff(times)
    if args.k is not None:
        k = args.k
    elif gaps is None:
        raise FileFormatError("--split-time needs a two-column (time,value) input", path=args.input)
    else:
        late = np.flatnonzero(~(gaps >= 0))  # a NaN time is out of order too
        if late.size:
            i = int(late[0]) + 1  # the first data row out of order, from 0
            raise FileFormatError(
                f"--split-time needs ascending times: data row {i + 1} has time "
                f"{float(times[i])!r} after {float(times[i - 1])!r}", path=args.input)
        k = int(np.searchsorted(times, args.split_time, side="right"))
    if not (0 < k < values.size):
        raise ValueError(f"k = {k} must lie strictly inside the data (n = {values.size})")
    if gaps is not None and gaps.size and not np.allclose(gaps, gaps[0]):
        print("warning: non-uniform time column; rows are treated as equally spaced",
              file=sys.stderr)
    config = ff.config_from_kv(ff.read_kv(args.config), path=args.config)
    if args.sigma is not None:
        if args.standardize:
            raise ValueError("--sigma and --standardize are mutually exclusive")
        if not (math.isfinite(args.sigma) and args.sigma > 0):
            raise ValueError(f"--sigma must be finite and > 0, got {args.sigma}")
        values = values / args.sigma
        scaling = (0.0, args.sigma)
    elif args.standardize:
        values, scaling = standardize(values, k)
    else:
        scaling = None

    if (args.known_alpha is None) != (args.known_beta is None):
        raise ValueError("--known-alpha and --known-beta must be given together")
    known = None
    if args.known_alpha is not None:
        known = KnownPrechange(args.known_alpha, args.known_beta)

    result = run(values, k, config, prechange=known)
    event, prechange = result.event, result.prechange
    if args.trace is not None:
        ff.write_trace(args.trace, values, result)

    alpha, beta = _line(prechange)
    print(f"status: {'alarm' if event else 'no-alarm'}")
    if event:
        print(f"alarm_index: {event.time}")
        print(f"kind: {event.kind}")
        print(f"statistic: {event.stat_value:.6g}")
        print(f"threshold: {event.threshold:.6g}")
    print(f"alpha_hat: {alpha:.6g}")
    print(f"beta_hat: {beta:.6g}")
    print(f"k: {k}")
    print(f"n: {values.size}")
    if scaling is not None:
        print(f"scale_mean: {scaling[0]:.6g}")
        print(f"scale_sd: {scaling[1]:.6g}")
    return 0


def _cmd_calibrate(args) -> int:
    kv = ff.read_kv(args.spec)
    path = args.spec
    mode = kv.get("mode", "fa")
    which = kv.get("which", "both")
    if mode not in ("fa", "arl"):
        raise FileFormatError(f"mode must be fa or arl, got {mode!r}", path=path)
    if which not in ("jump", "kink", "both"):
        raise FileFormatError(f"which must be jump, kink or both, got {which!r}", path=path)

    standardize_value = kv.get("standardize", "false").lower()
    if standardize_value not in ("true", "false"):
        raise FileFormatError(f"key 'standardize' is not true or false: {kv['standardize']!r}",
                              path=path)
    try:
        spec = CalibrationSpec(
            replications=ff._kv_int(kv, "replications", path, default=1000),
            eta=(ff._kv_float(kv, "eta", path) if "eta" in kv
                 else None if mode == "arl" else 0.5),
            arl=mode == "arl",
            horizon=ff._kv_int(kv, "horizon", path),
            k=ff._kv_int(kv, "k", path),
            n_jump=ff.bin_size_from_kv(kv, "n_jump", path) if which != "kink" else None,
            n_kink=ff.bin_size_from_kv(kv, "n_kink", path) if which != "jump" else None,
            noise=ff.noise_from_kv(kv, path),
            master_seed=ff._kv_int(kv, "master_seed", path, default=0),
            standardize=standardize_value == "true",
        )
    except FileFormatError:
        raise
    except ValueError as exc:
        raise FileFormatError(str(exc), path=path) from exc
    if which == "both" and (spec.n_jump is None or spec.n_kink is None):
        raise ValueError("joint calibration needs both statistics enabled")
    result = calibrate(spec)
    ff.write_kv(args.out, "calibration", ff.calibration_to_kv(result))
    print(f"wrote: {args.out}")
    print(f"rho_jump: {result.rho_jump:.6g}")
    print(f"rho_kink: {result.rho_kink:.6g}")
    print(f"empirical_fa: {result.empirical_fa:.6g}")
    print(f"master_seed: {spec.master_seed}")
    return 0


def _cmd_simulate(args) -> int:
    kv = ff.read_kv(args.scenario)
    theta, n, noise, seed = ff.scenario_params_from_kv(kv, args.scenario)
    ff.write_series(args.out, generate_series(theta, n, noise, seed))
    truth_path = args.truth or (args.out + ".truth")
    ff.write_kv(
        truth_path,
        "truth",
        {
            "tau": repr(theta.tau),
            "alpha_minus": repr(theta.alpha_minus),
            "alpha_plus": repr(theta.alpha_plus),
            "beta_minus": repr(theta.beta_minus),
            "beta_plus": repr(theta.beta_plus),
            "n": str(n),
            "change_index": str(change_index(theta, n)),
            "noise": noise.kind,
            "sigma": repr(noise.sigma),
            "df": "none" if noise.df is None else repr(noise.df),
            "seed": str(seed),
        },
    )
    print(f"wrote: {args.out}")
    print(f"truth: {truth_path}")
    return 0


def _cmd_experiment(args) -> int:
    import os

    builder = EXPERIMENTS[args.name]
    kwargs = {}
    if args.replications is not None:
        kwargs["replications"] = args.replications
    if args.calib_replications is not None:
        kwargs["calib_replications"] = args.calib_replications
    if args.master_seed is not None:
        if args.master_seed < 0:
            raise ValueError(f"--master-seed must be >= 0, got {args.master_seed}")
        kwargs["master_seed"] = args.master_seed
    headers, rows = builder(**kwargs)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"{args.name}.csv")
    with open(out_path, "w") as fh:
        fh.write(f"# linewatch report v{ff.FORMAT_VERSION}\n")
        fh.write(",".join(headers) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    print(ff.format_table(headers, rows))
    if args.replications is not None and args.replications < 30:
        print(f"note: only {args.replications} replications; intervals are wide")
    print(f"wrote: {out_path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "detect": _cmd_detect,
        "calibrate": _cmd_calibrate,
        "simulate": _cmd_simulate,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LinewatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
