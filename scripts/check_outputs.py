"""Byte-identity check of CLI and demo outputs against a base commit.

Run from the root of a linewatch checkout:

    python3 scripts/check_outputs.py --base HEAD

The base commit (default HEAD, so that an uncommitted change is
checked against its parent; pass HEAD~1 once the change is committed)
is exported with ``git archive`` into a temporary directory, so no
worktree is registered in the repository.  The change side is the
working tree as it stands.  Each side runs these cases with
``PYTHONPATH`` set to its own ``src``, the CLI cases in order in one
working directory and each demo in a directory of its own:

- ``simulate`` of a fixed scenario, then ``detect`` on its CSV: plain,
  with ``--trace``, ``--standardize``, ``--standardize --trace`` (a
  standardized observation column), ``--split-time``, ``--sigma`` with
  a known line, from stdin, with ``--trace`` and only the kink statistic
  on (empty j_stat cells), and on copies of the CSV that end in a
  comment line or hold a malformed row near the end (exit 3);
- ``detect`` with thresholds the stream never reaches (no alarm, so the
  whole series is monitored): plain and with ``--trace``, and with
  ``--trace`` at bins of 3000 and 40000, whose 15,000 monitored steps
  all fall inside the first kink bin, so every piece the kernel
  advances stays inside its open bin;
- ``detect --sigma --standardize`` (exit 2);
- ``calibrate`` in FA mode (joint) and in ARL mode (jump only and
  joint), in FA mode for the kink alone on standardized Student-t
  noise, jointly at horizon 513, whose 512 monitored steps end on the
  first segment edge, jointly with bins of 300, which the kernel
  sums with one cumulative sum along each bin, not with vector adds
  across bins, and jointly at 20,000 replications, whose adjacent
  shared ranks lie 5e-5 apart in marginal level; ``calibrate`` of a
  joint spec without a kink bin (exit 2); and ``detect`` with the FA
  calibration file as its config;
- ``experiment`` for every study name, at small fixed sizes and seed,
  and ``table3`` again at 300 replications, whose first-alarm runs
  span several chunks;
- every script in ``demos/``.

A case passes when it exits with the code it expects and its exit
code, its stdout, its stderr (with each side's root written as
``<root>``) and the bytes of every file it writes are the same on both
sides.  The script prints one line per case, and under a case that
differs, for each differing output the number of its lines that differ
and the first such line from each side.  It exits with 1 if any case
fails.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time

from bench_pairs import ROOT, _export

FILES = {
    "scenario.kv": ("tau = 0.6\nalpha_minus = 0.0\nalpha_plus = 1.5\nbeta_minus = 2.0\n"
                    "beta_plus = 2.0\nn = 20000\nseed = 11\nnoise = gaussian\nsigma = 1.0\n"),
    "config.kv": "n_jump = 20\nn_kink = 200\nrho_jump = 0.9\nrho_kink = 0.35\n",
    "quiet.kv": "n_jump = 20\nn_kink = 200\nrho_jump = 50\nrho_kink = 50\n",
    "kink.kv": "n_kink = 200\nrho_kink = 0.35\n",
    "wide.kv": "n_jump = 3000\nn_kink = 40000\nrho_jump = 50\nrho_kink = 50\n",
    "fa.kv": ("mode = fa\nwhich = both\nreplications = 2000\neta = 0.5\nhorizon = 500\n"
              "k = 200\nn_jump = 10\nn_kink = 10\nmaster_seed = 3\n"),
    "arl.kv": ("mode = arl\nwhich = jump\nreplications = 1000\nhorizon = 300\nk = 200\n"
               "n_jump = 10\nmaster_seed = 4\n"),
    "arl_joint.kv": ("mode = arl\nwhich = both\nreplications = 1000\nhorizon = 400\n"
                     "k = 150\nn_jump = 6\nn_kink = 15\nmaster_seed = 8\n"),
    "both_no_kink.kv": ("mode = fa\nwhich = both\nreplications = 200\neta = 0.5\n"
                        "horizon = 100\nk = 50\nn_jump = 5\nmaster_seed = 9\n"),
    "fa_kink_t.kv": ("mode = fa\nwhich = kink\nreplications = 1000\neta = 0.3\nhorizon = 700\n"
                     "k = 150\nn_kink = 12\nnoise = student_t\ndf = 3\nstandardize = true\n"
                     "master_seed = 5\n"),
    "fa_edge.kv": ("mode = fa\nwhich = both\nreplications = 1000\neta = 0.5\nhorizon = 513\n"
                   "k = 200\nn_jump = 8\nn_kink = 8\nmaster_seed = 6\n"),
    "fa_wide.kv": ("mode = fa\nwhich = both\nreplications = 20\neta = 0.5\nhorizon = 2000\n"
                   "k = 100\nn_jump = 300\nn_kink = 300\nmaster_seed = 10\n"),
    "fa_20k.kv": ("mode = fa\nwhich = both\nreplications = 20000\neta = 0.5\nhorizon = 300\n"
                  "k = 100\nn_jump = 10\nn_kink = 10\nmaster_seed = 12\n"),
}
DETECT = ["detect", "--config", "config.kv", "--k", "5000"]
EXPERIMENTS = ("table2", "table3", "table5", "rates", "types")


def _derive(cli_dir: str) -> None:
    """Inputs made from the simulated CSV: one that ends in a comment
    line, and one whose line 15002 (data row 15000) is malformed."""
    with open(os.path.join(cli_dir, "data.csv")) as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(os.path.join(cli_dir, "note.csv"), "w") as fh:
        fh.writelines(lines + ["# trailing note\n"])
    lines[15001] = "15000,x\n"
    with open(os.path.join(cli_dir, "bad.csv"), "w") as fh:
        fh.writelines(lines)


def _cases(root: str):
    """(name, argv, expected exit code, stdin file or None) of every
    case; the CLI cases run in order in one working directory, so later
    ones read what earlier ones wrote."""
    cli = [sys.executable, "-m", "linewatch.cli"]
    data = ["--input", "data.csv"]
    yield "simulate", cli + ["simulate", "--scenario", "scenario.kv", "--out", "data.csv"], 0, None
    yield "detect", cli + DETECT + data, 0, None
    yield "detect --trace", cli + DETECT + data + ["--trace", "trace.csv"], 0, None
    yield "detect --standardize", cli + DETECT + data + ["--standardize"], 0, None
    yield "detect --standardize --trace", cli + DETECT + data + [
        "--standardize", "--trace", "std_trace.csv"], 0, None
    yield "detect --split-time", cli + ["detect", "--config", "config.kv", "--split-time",
                                        "5000.5", "--trace", "split.csv"] + data, 0, None
    yield "detect --sigma known line", cli + DETECT + data + [
        "--sigma", "1.0", "--known-alpha", "0.0", "--known-beta", "2.0"], 0, None
    yield "detect stdin", cli + DETECT + ["--input", "-"], 0, "data.csv"
    yield "detect kink only --trace", cli + ["detect", "--config", "kink.kv", "--k", "5000",
                                             "--trace", "kink_trace.csv"] + data, 0, None
    yield "detect trailing comment", cli + DETECT + ["--input", "note.csv"], 0, None
    yield "detect malformed row", cli + DETECT + ["--input", "bad.csv"], 3, None
    yield "detect --sigma --standardize", cli + DETECT + data + [
        "--sigma", "1.0", "--standardize"], 2, None
    quiet = cli + ["detect", "--config", "quiet.kv", "--k", "5000"] + data
    yield "detect no alarm", quiet, 0, None
    yield "detect no alarm --trace", quiet + ["--trace", "quiet_trace.csv"], 0, None
    yield "detect wide bins --trace", cli + ["detect", "--config", "wide.kv", "--k", "5000",
                                             "--trace", "wide_trace.csv"] + data, 0, None
    yield "calibrate fa", cli + ["calibrate", "--spec", "fa.kv", "--out", "cal_fa.kv"], 0, None
    yield "calibrate arl", cli + ["calibrate", "--spec", "arl.kv", "--out", "cal_arl.kv"], 0, None
    yield "calibrate arl joint", cli + [
        "calibrate", "--spec", "arl_joint.kv", "--out", "cal_arl_joint.kv"], 0, None
    yield "calibrate both without n_kink", cli + [
        "calibrate", "--spec", "both_no_kink.kv", "--out", "cal_no_kink.kv"], 2, None
    yield "calibrate fa kink student_t standardized", cli + [
        "calibrate", "--spec", "fa_kink_t.kv", "--out", "cal_kink_t.kv"], 0, None
    yield "calibrate fa horizon 513", cli + [
        "calibrate", "--spec", "fa_edge.kv", "--out", "cal_edge.kv"], 0, None
    yield "calibrate fa bins 300", cli + [
        "calibrate", "--spec", "fa_wide.kv", "--out", "cal_wide.kv"], 0, None
    yield "calibrate fa 20000 replications", cli + [
        "calibrate", "--spec", "fa_20k.kv", "--out", "cal_20k.kv"], 0, None
    yield "detect calibrated", cli + ["detect", "--input", "data.csv", "--config",
                                      "cal_fa.kv", "--k", "5000", "--standardize"], 0, None
    for name in EXPERIMENTS:
        yield f"experiment {name}", cli + [
            "experiment", "--name", name, "--out-dir", "reports", "--replications", "20",
            "--calib-replications", "200", "--master-seed", "7"], 0, None
    yield "experiment table3 300 replications", cli + [
        "experiment", "--name", "table3", "--out-dir", "reports_300", "--replications", "300",
        "--calib-replications", "200", "--master-seed", "7"], 0, None
    for demo in sorted(os.listdir(os.path.join(root, "demos"))):
        if demo.endswith(".py"):
            yield f"demo {demo}", [sys.executable, os.path.join(root, "demos", demo)], 0, None


def _files(workdir: str) -> dict:
    out = {}
    for base, _, names in os.walk(workdir):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, workdir)] = fh.read()
    return out


def _side(root: str, scratch: str) -> dict:
    """{case: (exit code, stdout, stderr, files the case wrote, seconds)}."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cli_dir = os.path.join(scratch, "cli")
    os.makedirs(cli_dir)
    for name, text in FILES.items():
        with open(os.path.join(cli_dir, name), "w") as fh:
            fh.write(text)
    results = {}
    for case, argv, _, stdin in _cases(root):
        if case.startswith("demo"):
            workdir = os.path.join(scratch, case.replace(" ", "_"))
            os.makedirs(workdir)
        else:
            workdir = cli_dir
        before = _files(workdir)
        t0 = time.perf_counter()
        with open(os.path.join(workdir, stdin) if stdin else os.devnull, "rb") as fh:
            proc = subprocess.run(argv, cwd=workdir, env=env,
                                  stdin=fh, capture_output=True)
        seconds = time.perf_counter() - t0
        written = {name: data for name, data in _files(workdir).items()
                   if before.get(name) != data}
        stderr = proc.stderr.replace(os.fsencode(root), b"<root>")
        results[case] = (proc.returncode, proc.stdout, stderr, written, seconds)
        if case == "simulate":
            _derive(cli_dir)
    return results


def _line_diff(base, change) -> str:
    """How two versions of an output differ: how many of their lines
    differ, and the first differing line on each side."""
    if base is None or change is None:
        return " (only in the base)" if change is None else " (only in the change)"
    pairs = list(itertools.zip_longest(base.splitlines(keepends=True),
                                       change.splitlines(keepends=True)))
    lines = [i for i, (old, new) in enumerate(pairs) if old != new]

    def show(line):
        return "<no line>" if line is None else line.decode(errors="replace").rstrip("\r\n")

    old, new = pairs[lines[0]]
    return (f": {len(lines)} of {len(pairs)} lines, the first at line {lines[0] + 1}"
            f"\n        base:   {show(old)}\n        change: {show(new)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="base commit (default HEAD)")
    args = parser.parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="linewatch-outputs-")
    try:
        base_root = os.path.join(scratch, "base-tree")
        os.makedirs(base_root)
        _export(args.base, base_root)
        base = _side(base_root, os.path.join(scratch, "base"))
        change = _side(ROOT, os.path.join(scratch, "change"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    expected = {case: code for case, _, code, _ in _cases(ROOT)}
    differing = 0
    for case, (code, stdout, stderr, files, seconds) in change.items():
        b_code, b_stdout, b_stderr, b_files, b_seconds = base[case]
        problems = []
        if code != b_code:
            problems.append(f"exit code {b_code} -> {code}")
        elif code != expected[case]:
            problems.append(f"exit code {code} on both sides, expected {expected[case]}")
        if stdout != b_stdout:
            problems.append("stdout differs" + _line_diff(b_stdout, stdout))
        if stderr != b_stderr:
            problems.append("stderr differs" + _line_diff(b_stderr, stderr))
        for name in sorted(set(files) | set(b_files)):
            if files.get(name) != b_files.get(name):
                problems.append(f"{name} differs" + _line_diff(b_files.get(name), files.get(name)))
        differing += bool(problems)
        print(f"{'DIFF' if problems else 'same'}  {case}  (exit {code}, base "
              f"{b_seconds:.2f} s, change {seconds:.2f} s)"
              + "".join(f"\n      {p}" for p in problems))
    print(f"{len(change) - differing} of {len(change)} cases byte-identical "
          "with the expected exit code")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
