"""The four benchmark workloads.

Each workload makes its inputs from the seed outside the timed region
(``prepare``), runs one timed operation (``run``) and checks that
operation's output (``check``).  ``calibrate``, ``experiment`` and
``detect`` call the command line front end in-process through
``linewatch.cli.main(argv)``; ``stream`` drives ``DetectorState.step``
one float at a time.  README.md in this directory gives the reason for
each workload.

Every linewatch function is looked up through its module at call time,
never bound at import, so that the tracer's wrappers are the ones
called in traced runs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

import linewatch
import linewatch.cli

# Both statistics with scale-separated bins.  The thresholds sit far
# above the null maxima: |J| over 60 slots has sd <= 1/sqrt(41) = 0.16,
# so 1.2 is a 7.7-sigma crossing; the kink statistic never reaches 0.35
# on these streams and is computed but does not fire.
N_JUMP, N_KINK = 20, 200
RHO_JUMP, RHO_KINK = 1.2, 0.35
JUMP = 3.0  # in noise standard deviations (sigma = 1)
TAU = 0.99
# A jump of 3 sigma drives J over 1.2 within 3 * N_JUMP observations.
ALARM_WINDOW = 3 * N_JUMP

SIZES = {
    "full": {
        "calibrate": {"replications": 10_000, "horizon": 2000, "k": 500, "n_bin": 10},
        "experiment": {"replications": 100, "calib_replications": 1000},
        "detect": {"n": 1_000_000, "k": 500_000},
        "stream": {"n": 1_000_000, "block": 1000},
    },
    "tiny": {
        "calibrate": {"replications": 500, "horizon": 200, "k": 50, "n_bin": 10},
        "experiment": {"replications": 20, "calib_replications": 200},
        "detect": {"n": 20_000, "k": 10_000},
        "stream": {"n": 20_000, "block": 1000},
    },
}


@dataclass
class Result:
    """What one timed operation returned."""

    exit_code: int
    stdout: str
    block_obs_s: List[float]  # seconds per observation, per full block (stream only)
    extra: Dict[str, object]


def _cli(argv: List[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = linewatch.cli.main(argv)
    return Result(code, out.getvalue() + err.getvalue(), [], {})


def _fields(text: str, sep: str) -> Dict[str, str]:
    """``key <sep> value`` lines of a CLI report or key-value file."""
    fields = {}
    for line in text.splitlines():
        key, found, value = line.partition(sep)
        if found and not line.startswith("#"):
            fields[key.strip()] = value.strip()
    return fields


def _read_kv(path: str) -> Dict[str, str]:
    with open(path) as fh:
        return _fields(fh.read(), "=")


def _write_kv(path: str, mapping: Dict[str, object]) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in mapping.items())


def _change_index(n: int) -> int:
    """Last pre-change index: observation i samples the signal at i / n
    and takes the pre-change branch while i / n <= TAU."""
    c = int(n * TAU)
    while (c + 1) / n <= TAU:
        c += 1
    while c / n > TAU:
        c -= 1
    return c


class Calibrate:
    """``linewatch calibrate``: joint FA calibration of both statistics."""

    name = "calibrate"

    def prepare(self, seed: int, workdir: str, size: Dict) -> Dict:
        spec = os.path.join(workdir, "spec.kv")
        _write_kv(spec, {
            "mode": "fa", "which": "both", "replications": size["replications"],
            "eta": 0.5, "horizon": size["horizon"], "k": size["k"],
            "n_jump": size["n_bin"], "n_kink": size["n_bin"],
            "noise": "gaussian", "sigma": 1.0, "master_seed": seed,
        })
        return {
            "argv": ["calibrate", "--spec", spec, "--out", os.path.join(workdir, "cal.kv")],
            "out": os.path.join(workdir, "cal.kv"),
            "replications": size["replications"],
            "sizes": {"replications": size["replications"], "horizon": size["horizon"],
                      "k": size["k"], "n_jump": size["n_bin"], "n_kink": size["n_bin"]},
            "observations": size["replications"] * (size["k"] + size["horizon"]),
        }

    def run(self, inp: Dict) -> Result:
        return _cli(inp["argv"])

    def observations(self, inp: Dict, result: Result) -> int:
        return inp["observations"]

    def check(self, inp: Dict, result: Result) -> List[str]:
        if result.exit_code != 0:
            return [f"exit code {result.exit_code}: {result.stdout.strip()[-200:]}"]
        cal = _read_kv(inp["out"])
        errors = []
        fa = float(cal["empirical_fa"])
        # fa is a count over r; compare in counts so 1/r itself passes.
        if abs(fa - 0.5) * inp["replications"] > 1.0 + 1e-9:
            errors.append(f"empirical_fa {fa} is not within 1/r of eta = 0.5")
        for key in ("rho_jump", "rho_kink"):
            rho = float(cal[key])
            if not (math.isfinite(rho) and rho > 0):
                errors.append(f"{key} = {rho} is not finite and positive")
        return errors


class Experiment:
    """``linewatch experiment --name table3`` at reduced replications."""

    name = "experiment"
    # ARL band: 5 standard errors in log space.  The ARL estimate's
    # relative error is about 1/sqrt(replications) (roughly exponential
    # run lengths) and the threshold's about 1/sqrt(calib_replications).
    BAND_SIGMAS = 5.0
    # table3 layout: ARL runs are capped at 10x the target; each delay
    # cell simulates k + 1 + 4000 observations; jump and kink rows have
    # three delay cells and joint rows six.
    ARL_CAP = 10
    DELAY_OBS = 4001
    DELAY_CELLS = {"jump": 3, "kink": 3, "both": 6}

    def prepare(self, seed: int, workdir: str, size: Dict) -> Dict:
        reps, calib = size["replications"], size["calib_replications"]
        return {
            "argv": ["experiment", "--name", "table3", "--replications", str(reps),
                     "--calib-replications", str(calib), "--master-seed", str(seed),
                     "--out-dir", workdir],
            "out": os.path.join(workdir, "table3.csv"),
            "replications": reps,
            "calib_replications": calib,
            "sizes": {"replications": reps, "calib_replications": calib, "rows": 12},
        }

    def _rows(self, inp: Dict) -> List[Dict[str, str]]:
        with open(inp["out"]) as fh:
            lines = [line for line in fh if not line.startswith("#")]
        return list(csv.DictReader(lines))

    def run(self, inp: Dict) -> Result:
        return _cli(inp["argv"])

    def observations(self, inp: Dict, result: Result) -> int:
        """Observations simulated, counted from the table3 layout of the report."""
        reps, calib = inp["replications"], inp["calib_replications"]
        total = 0
        for row in self._rows(inp):
            k, target = int(row["k"]), int(row["target_arl"])
            total += calib * (k + target) + reps * (k + self.ARL_CAP * target)
            total += self.DELAY_CELLS[row["mode"]] * reps * (k + self.DELAY_OBS)
        return total

    def check(self, inp: Dict, result: Result) -> List[str]:
        if result.exit_code != 0:
            return [f"exit code {result.exit_code}: {result.stdout.strip()[-200:]}"]
        rows = self._rows(inp)
        if len(rows) != 12:
            return [f"expected 12 table3 rows, found {len(rows)}"]
        half = self.BAND_SIGMAS * math.sqrt(
            1.0 / inp["replications"] + 1.0 / inp["calib_replications"])
        errors = []
        for row in rows:
            ratio = float(row["arl"]) / float(row["target_arl"])
            if not abs(math.log(ratio)) <= half:
                errors.append(f"row {row['mode']}/N={row['N']}/target={row['target_arl']}: "
                              f"ARL/target = {ratio:.3f} outside "
                              f"[{math.exp(-half):.3f}, {math.exp(half):.3f}]")
        return errors


class Detect:
    """``linewatch detect`` on a CSV written by ``linewatch simulate``."""

    name = "detect"

    def prepare(self, seed: int, workdir: str, size: Dict) -> Dict:
        n, k = size["n"], size["k"]
        scenario = os.path.join(workdir, "scenario.kv")
        data = os.path.join(workdir, "data.csv")
        config = os.path.join(workdir, "config.kv")
        _write_kv(scenario, {
            "tau": repr(TAU), "alpha_minus": 0.0, "alpha_plus": JUMP,
            "beta_minus": 2.0, "beta_plus": 2.0, "n": n, "seed": seed,
            "noise": "gaussian", "sigma": 1.0,
        })
        _write_kv(config, {"n_jump": N_JUMP, "n_kink": N_KINK,
                           "rho_jump": RHO_JUMP, "rho_kink": RHO_KINK})
        src = os.path.dirname(os.path.dirname(linewatch.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "linewatch.cli", "simulate",
             "--scenario", scenario, "--out", data],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        return {
            "argv": ["detect", "--input", data, "--config", config, "--k", str(k)],
            "change": _change_index(n),
            "sizes": {"rows": n, "k": k, "n_jump": N_JUMP, "n_kink": N_KINK,
                      "csv_bytes": os.path.getsize(data)},
            "observations": n,
        }

    def run(self, inp: Dict) -> Result:
        return _cli(inp["argv"])

    def observations(self, inp: Dict, result: Result) -> int:
        return inp["observations"]

    def check(self, inp: Dict, result: Result) -> List[str]:
        if result.exit_code != 0:
            return [f"exit code {result.exit_code}: {result.stdout.strip()[-200:]}"]
        report = _fields(result.stdout, ":")
        errors = []
        if report.get("status") != "alarm":
            return [f"status {report.get('status')!r}, expected 'alarm'"]
        if report.get("kind") != "jump":
            errors.append(f"kind {report.get('kind')!r}, expected 'jump'")
        index, change = int(report["alarm_index"]), inp["change"]
        if not change < index <= change + ALARM_WINDOW:
            errors.append(f"alarm_index {index} outside ({change}, {change + ALARM_WINDOW}]")
        return errors


class Stream:
    """Live monitoring one float at a time, with a snapshot round trip
    (save_state -> load_state) every block and monitoring continued
    from the restored state."""

    name = "stream"
    ALPHA, BETA = 10.0, 2e-6

    def prepare(self, seed: int, workdir: str, size: Dict) -> Dict:
        n = size["n"]
        change = _change_index(n)
        index = np.arange(1, n + 1)
        rng = np.random.default_rng(seed)
        values = self.ALPHA + self.BETA * index + rng.standard_normal(n)
        values[change:] += JUMP
        config = linewatch.DetectorConfig(N_JUMP, N_KINK, RHO_JUMP, RHO_KINK)
        prechange = linewatch.KnownPrechange(self.ALPHA, self.BETA)
        reference = linewatch.run(values, 0, config, prechange=prechange).event
        return {
            "values": values.tolist(),
            "config": config,
            "prechange": prechange,
            "block": size["block"],
            "change": change,
            "reference": reference,
            "sizes": {"observations": n, "block": size["block"],
                      "n_jump": N_JUMP, "n_kink": N_KINK},
        }

    def run(self, inp: Dict) -> Result:
        values, block = inp["values"], inp["block"]
        clock = time.perf_counter
        state = linewatch.DetectorState(inp["config"], inp["prechange"], absolute_offset=0)
        event = None
        block_s: List[float] = []
        snapshot_sizes = set()
        for lo in range(0, len(values), block):
            t0 = clock()
            step = state.step
            for x in values[lo:lo + block]:
                _, event = step(x)
                if event is not None:
                    break
            if event is not None:
                break
            blob = linewatch.save_state(state)
            snapshot_sizes.add(len(blob))
            state = linewatch.load_state(blob)
            block_s.append(clock() - t0)
        return Result(0, "", [s / block for s in block_s],
                      {"event": event, "snapshot_sizes": snapshot_sizes, "observations": state.t})

    def observations(self, inp: Dict, result: Result) -> int:
        return result.extra["observations"]

    def check(self, inp: Dict, result: Result) -> List[str]:
        errors = []
        sizes = result.extra["snapshot_sizes"]
        if sizes != {276}:
            errors.append(f"snapshot sizes {sorted(sizes)}, expected 276 bytes")
        event, reference = result.extra["event"], inp["reference"]
        if event is None or reference is None:
            return errors + [f"no alarm (stream {event}, run() {reference})"]
        if (event.time, event.kind) != (reference.time, reference.kind):
            errors.append(f"alarm {event.time}/{event.kind} differs from "
                          f"run() {reference.time}/{reference.kind}")
        change = inp["change"]
        if not change < event.time <= change + ALARM_WINDOW:
            errors.append(f"alarm {event.time} outside ({change}, {change + ALARM_WINDOW}]")
        return errors


WORKLOADS = {w.name: w for w in (Calibrate(), Experiment(), Detect(), Stream())}
