"""Alternated parent/change benchmark pairs, summarised in one JSON file.

Run from the root of a linewatch checkout:

    python3 scripts/bench_pairs.py --base HEAD --seed 601 --out BENCH_6.json

The base commit (default HEAD, so that an uncommitted change is
measured against its parent; pass HEAD~1 once the change is committed)
is exported with ``git archive`` into a temporary directory, so no
worktree is registered in the repository.  The change side is the
working tree as it stands.  For every workload in BENCHMARK.json and
each of the 10 pairs i, ``python3 perfbench/run.py --workload W --seed
S+i --seconds N --trace 0``, with N the ``run_seconds`` of
BENCHMARK.json, runs once on each side, the base first on even pairs
and the change first on odd ones, so that drift in machine speed falls
on both sides alike.  The output holds, per workload and
end-to-end metric, each side's median, quartiles (linear
interpolation), min, max and raw values, and the number of pairs in
which the change was better; plus the commits, the source digest of
each side (as ``perfbench/run.py`` computes it), the seeds, the pair
count and the failed/attempted operation counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(commit: str, dest: str) -> None:
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def _run(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run, plus its source digest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# source_sha256: "):
            result["source_sha256"] = line.split(": ", 1)[1]
    return result


def _summary(values) -> dict:
    arr = np.asarray(values, dtype=float)
    q1, median, q3 = np.percentile(arr, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3, "min": arr.min(), "max": arr.max(),
            "values": list(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="base commit (default HEAD)")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = [args.seed + i for i in range(PAIRS)]
    base_commit = _git("rev-parse", args.base)
    report = {
        "command": " ".join(["python3", "scripts/bench_pairs.py",
                             *(sys.argv[1:] if argv is None else argv)]),
        "base": {"commit": base_commit},
        "change": {"commit": _git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(_git("status", "--porcelain", "--", "src"))},
        "pairs": PAIRS,
        "seeds": seeds,
        "seconds": seconds,
        "order": "base first on even pairs (0, 2, ...), change first on odd pairs",
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "nproc": os.cpu_count(), "machine": platform.machine()},
        "workloads": {},
    }
    base_root = tempfile.mkdtemp(prefix="linewatch-base-")
    try:
        _export(base_commit, base_root)
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"base": [], "change": []}
            for i, seed in enumerate(seeds):
                order = (("base", base_root), ("change", ROOT))
                for side, root in order if i % 2 == 0 else order[::-1]:
                    runs[side].append(_run(root, workload, seed, seconds))
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{runs[side][-1]['metrics']['wall_s']['value']:.3f}", flush=True)
            entry = {"failed": {}, "attempted": {}, "metrics": {}}
            for side, results in runs.items():
                entry["failed"][side] = sum(r["failed"] for r in results)
                entry["attempted"][side] = sum(r["attempted"] for r in results)
                report[side]["source_sha256"] = results[0].get("source_sha256")
            for name, m in metrics.items():
                base = [r["metrics"][name]["value"] for r in runs["base"]]
                change = [r["metrics"][name]["value"] for r in runs["change"]]
                sign = 1.0 if m["better"] == "lower" else -1.0
                entry["metrics"][name] = {
                    "unit": m["unit"], "better": m["better"],
                    "base": _summary(base), "change": _summary(change),
                    "change_better_pairs": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
                }
            report["workloads"][workload] = entry
            with open(args.out, "w") as fh:  # written after every workload
                json.dump(report, fh, indent=1)
                fh.write("\n")
    finally:
        shutil.rmtree(base_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
