"""linewatch benchmark: four seeded workloads, timed with tracing off,
plus a traced run that breaks the time down by module.

Run from the root of a linewatch checkout (the directory holding
``src/linewatch``):

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 20 --trace 0

Workloads: calibrate, experiment, detect, stream (see README.md here).
The inputs are made from ``--seed`` before timing starts.  Operations
repeat until ``--seconds`` have been measured, and each operation's
output is checked.  With ``--trace 0`` the result carries the
end-to-end metrics, measured at LINEWATCH_THREADS=1 with no tracing.
With ``--trace 1`` it carries the per-layer metrics: operations cycle
through untraced at one thread, traced at one thread, and untraced at
two threads.  The spans are written to ``perfbench/out`` at the end.

Metric lines and a run header are printed first.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when a result was printed and 2
when the directory holds no linewatch source to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_MIN = 9
OVERRUN = 1.1
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import linewatch, linewatch.cli; "
    "print(repr(time.perf_counter() - t0))"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "obs_us_p50": "us",
    "obs_us_p99": "us",
}
RUN_LEVEL_LAYER_METRICS = {
    "engine.thread_speedup_2t": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the self-test")
    return parser.parse_args(argv)


def _source_digest(src: str) -> str:
    digest = hashlib.sha256()
    package = os.path.join(src, "linewatch")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _import_time(env) -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def _measure(workload, inp, seconds, tracer, setup_env):
    """Repeat the operation until operations have taken ``seconds``, or
    until the next one would likely end past OVERRUN x ``seconds``, once
    every kind of operation ran.  Setup imports, when ``setup_env`` is
    given, run between the operations (outside their time) so that they
    sample the same stretch of time.  Returns wall samples per kind,
    per-observation samples per operation and per block, setup samples,
    counts and errors."""
    kinds = ("plain", "traced", "threads2") if tracer is not None else ("plain",)
    walls = {kind: [] for kind in kinds}
    per_op, per_block, setup = [], [], []
    attempted = failed = 0
    errors = []
    if setup_env is not None:
        _import_time(setup_env)  # fills the file and bytecode caches
    elapsed = 0.0
    while True:
        kind = kinds[attempted % len(kinds)]
        attempted += 1
        os.environ["LINEWATCH_THREADS"] = "2" if kind == "threads2" else "1"
        if kind == "traced":
            tracer.op += 1
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = workload.run(inp)
            wall = time.perf_counter() - t0
        except Exception as exc:  # counted as a failed operation
            result = None
            failed += 1
            errors.append(f"{kind}: {type(exc).__name__}: {exc}")
        finally:
            if kind == "traced":
                tracer.uninstall()
            os.environ["LINEWATCH_THREADS"] = "1"
        op_time = time.perf_counter() - t0
        elapsed += op_time
        problems = workload.check(inp, result) if result is not None else []
        if problems:
            failed += 1
            errors.extend(f"{kind}: {p}" for p in problems)
        elif result is not None:
            walls[kind].append(wall)
            if kind == "plain":
                per_op.append(wall / workload.observations(inp, result))
                per_block.extend(result.block_obs_s)
        if setup_env is not None:
            setup.append(_import_time(setup_env))
        if attempted >= len(kinds) and (
                elapsed >= seconds or elapsed + op_time > OVERRUN * seconds):
            break
    while setup_env is not None and len(setup) < SETUP_MIN:
        setup.append(_import_time(setup_env))
    return walls, per_op, per_block, setup, attempted, failed, errors, elapsed


def _median(values):
    return statistics.median(values) if values else None


def _tail_percentile(n: int) -> float:
    """99, or the highest percentile with at least ten samples beyond
    it, and never below the median."""
    return max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / n))) if n else 50.0


def _end_to_end(walls, per_op, tail, setup):
    tail_us = [s * 1e6 for s in tail]
    return {
        "setup_s": _median(setup),
        "wall_s": _median(walls["plain"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "obs_us_p50": _median(per_op) * 1e6 if per_op else None,
        "obs_us_p99": (float(np.percentile(tail_us, _tail_percentile(len(tail_us))))
                       if tail_us else None),
    }


def _per_layer(tracer, walls):
    values, absent = tracing.span_metrics(tracer) if tracer.names else ({}, [])
    out = {name: _median(v) for name, v in values.items()}
    for name in absent:
        out[name] = None
    plain, traced, two = (_median(walls[k]) for k in ("plain", "traced", "threads2"))
    out["engine.thread_speedup_2t"] = plain / two if plain and two else None
    out["trace.overhead_ratio"] = traced / plain if plain and traced else None
    units = {name: spec[0] for name, spec in tracing.SPAN_METRICS.items()}
    units.update(RUN_LEVEL_LAYER_METRICS)
    return {name: (out.get(name), units[name]) for name in units}, absent


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "linewatch", "__init__.py")):
        print(f"error: {root} holds no src/linewatch; run from the root of a "
              "linewatch checkout", file=sys.stderr)
        return 2
    os.environ["LINEWATCH_THREADS"] = "1"
    sys.path.insert(0, src)
    import linewatch

    if not os.path.abspath(linewatch.__file__).startswith(src + os.sep):
        print(f"error: imported linewatch from {linewatch.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    size_name = "tiny" if args.tiny else "full"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inp = workload.prepare(args.seed, workdir,
                               workloads.SIZES[size_name][args.workload])
        tracer = tracing.Tracer() if args.trace else None
        setup_env = None if args.trace else dict(os.environ, PYTHONPATH=src)
        walls, per_op, per_block, setup, attempted, failed, errors, measured = _measure(
            workload, inp, args.seconds, tracer, setup_env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tail = per_block or per_op

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sizes": size_name,
        "inputs": inp["sizes"],
        "seconds": args.seconds,
        "measured_s": measured,
        "operations": {kind: len(v) for kind, v in walls.items()},
        "obs_us_p50_samples": len(per_op),
        "obs_us_p99_samples": len(tail),
        "obs_us_p99_percentile": _tail_percentile(len(tail)),
        "setup_samples": len(setup),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "linewatch_threads": "1" + (", 2 for threads2 operations" if args.trace else ""),
        "commit": _commit(root),
        "source_sha256": _source_digest(src),
    }
    if args.trace:
        metrics, absent = _per_layer(tracer, walls)
        header["absent"] = absent
        spans_path = os.path.join(OUT, f"{args.workload}-spans.npz")
        tracer.write(spans_path)
        header["spans"] = os.path.relpath(spans_path, root)
    else:
        values = _end_to_end(walls, per_op, tail, setup)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump({"header": header, "errors": errors, "walls": walls,
                   "setup": setup, **result}, fh, indent=1)

    for key, value in header.items():
        print(f"# {key}: {value}")
    for err in errors[:20]:
        print(f"# error: {err}")
    print(f"error_rate = {failed / attempted!r} ({failed}/{attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
