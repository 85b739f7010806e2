"""Span tracing of linewatch from outside the package.

``Tracer.install`` replaces every binding of every public linewatch
function (module attributes in every ``linewatch`` module, values of
module-level dicts such as ``tables.EXPERIMENTS``, and the package
re-exports) with a wrapper that records a span, so a call is traced
whichever module it goes through.  Two methods are wrapped as well:
``DetectorState.step`` and ``NoiseSpec.draw``, the per-observation and
per-replication entry points that the per-layer metrics name.  Methods
that ``step`` itself calls for every observation (``predict_at_index``,
``TimeScale.at``) stay unwrapped: a span per call there would cost more
than the step it sits in.

Spans (name, start, end, parent, operation id) are kept in compact
in-memory arrays and written out once, by ``write``.  The span stack is
a single list, so tracing is only valid with one worker thread
(``LINEWATCH_THREADS=1``); the benchmark forces that for traced runs.
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

# Methods traced in addition to module-level functions: (module, class, method).
TRACED_METHODS = (
    ("detector", "DetectorState", "step"),
    ("signal", "NoiseSpec", "draw"),
)


def _resid_elements(args, kwargs, result):
    resid = args[0] if args else kwargs["resid"]
    return np.atleast_2d(resid).size, 0


def _alarm_steps(args, kwargs, result):
    """(steps computed, steps up to and including the first alarm)."""
    stats = [a for a in args[:2] if a is not None]
    stats += [kwargs[key] for key in ("j", "k") if kwargs.get(key) is not None]
    rows, T = stats[0].shape
    alarm, _ = result
    return rows * T, int(np.minimum(alarm, T).sum())


def _rows_read(args, kwargs, result):
    return int(result[0].size), 0


def _snapshot_bytes(args, kwargs, result):
    return len(result), 0


# Work counters recorded per call as (work, useful), keyed by span name.
COUNTERS: Dict[str, Callable] = {
    "engine.batch_stats": _resid_elements,
    "engine.batch_alarms": _alarm_steps,
    "fileformats.read_series": _rows_read,
    "detector.save_state": _snapshot_bytes,
}


def _is_public_function(obj) -> bool:
    return (
        inspect.isfunction(obj)
        and obj.__module__.startswith("linewatch")
        and not obj.__name__.startswith("_")
    )


def _span_name(fn) -> str:
    module = fn.__module__.split(".", 1)[1] if "." in fn.__module__ else fn.__module__
    return f"{module}.{fn.__qualname__}"


def _takes_callback(fn) -> bool:
    """True when a parameter is annotated as a Callable; such arguments
    (the chunk workers of ``engine.chunked_replications``) get spans too."""
    return any("Callable" in str(p.annotation)
               for p in inspect.signature(fn).parameters.values())


def _is_callback(obj) -> bool:
    return (inspect.isfunction(obj) and obj.__module__.startswith("linewatch")
            and not getattr(obj, "__wrapped_by_tracer__", False))


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array.array("i")
        self.parent_col = array.array("i")
        self.op_col = array.array("i")
        self.start_col = array.array("q")
        self.end_col = array.array("q")
        self.counts: Dict[int, Tuple[int, int]] = {}
        self.op = -1
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object, bool]] = []
        self.wrapped: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn):
        name = _span_name(fn)
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        callback = _takes_callback(fn)
        names, parents, ops = self.name_col, self.parent_col, self.op_col
        starts, ends, stack = self.start_col, self.end_col, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if callback:
                args = tuple(self.wrap(a) if _is_callback(a) else a for a in args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                self.counts[idx] = counter(args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self) -> None:
        """Wrap every binding of each public linewatch function."""
        wrappers: Dict[int, object] = {}

        def wrapper_for(fn):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(fn)
                self.wrapped.add(_span_name(fn))
            return wrappers[id(fn)]

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "linewatch" or key.startswith("linewatch.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if _is_public_function(obj):
                    self._replace(module, attr, obj, wrapper_for(obj), is_attr=True)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if _is_public_function(value):
                            self._replace(obj, key, value, wrapper_for(value), is_attr=False)
        for mod_name, cls_name, meth in TRACED_METHODS:
            cls = getattr(sys.modules.get(f"linewatch.{mod_name}"), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                self._replace(cls, meth, fn, wrapper_for(fn), is_attr=True)

    def _replace(self, container, key, original, wrapper, is_attr: bool) -> None:
        self._restore.append((container, key, original, is_attr))
        if is_attr:
            setattr(container, key, wrapper)
        else:
            container[key] = wrapper

    def uninstall(self) -> None:
        for container, key, original, is_attr in reversed(self._restore):
            if is_attr:
                setattr(container, key, original)
            else:
                container[key] = original
        self._restore.clear()

    def arrays(self) -> Dict[str, np.ndarray]:
        """Span columns as arrays, with durations and self times in ns."""
        start = np.array(self.start_col, dtype=np.int64)
        end = np.array(self.end_col, dtype=np.int64)
        parent = np.array(self.parent_col, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return {
            "name": np.array(self.name_col, dtype=np.int32),
            "parent": parent,
            "op": np.array(self.op_col, dtype=np.int32),
            "start_ns": start,
            "end_ns": end,
            "dur_ns": dur,
            "self_ns": dur - child,
        }

    def write(self, path: str) -> None:
        cols = self.arrays()
        idx = np.fromiter(self.counts.keys(), dtype=np.int64, count=len(self.counts))
        vals = np.array(list(self.counts.values()), dtype=np.int64).reshape(-1, 2)
        np.savez(path, names=np.array(self.names), count_span=idx,
                 count_work=vals[:, 0], count_useful=vals[:, 1], **cols)


class OpView:
    """Span aggregates of one traced operation, by span name."""

    def __init__(self, tracer: Tracer, cols: Dict[str, np.ndarray], op: int) -> None:
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        width = len(tracer.names)
        idx = np.nonzero(cols["op"] == op)[0]
        name = cols["name"][idx]
        self._dur = np.bincount(name, weights=cols["dur_ns"][idx], minlength=width)
        self._self = np.bincount(name, weights=cols["self_ns"][idx], minlength=width)
        self._calls = np.bincount(name, minlength=width)
        parent = cols["parent"][idx]
        parent_name = cols["name"][parent[parent >= 0]]
        self._child_calls = np.bincount(parent_name, minlength=width)
        self._work = np.zeros(width)
        self._useful = np.zeros(width)
        for span in idx[np.isin(idx, list(tracer.counts))]:
            work, useful = tracer.counts[int(span)]
            self._work[cols["name"][span]] += work
            self._useful[cols["name"][span]] += useful
        self._modules = [n.split(".", 1)[0] for n in tracer.names]

    def _get(self, arr: np.ndarray, name: str) -> float:
        i = self._ids.get(name)
        return 0.0 if i is None else float(arr[i])

    def dur_s(self, name: str) -> float:
        return self._get(self._dur, name) * 1e-9

    def self_s(self, name: str) -> float:
        return self._get(self._self, name) * 1e-9

    def calls(self, name: str) -> int:
        return int(self._get(self._calls, name))

    def child_calls(self, name: str) -> int:
        return int(self._get(self._child_calls, name))

    def work(self, name: str) -> float:
        return self._get(self._work, name)

    def useful(self, name: str) -> float:
        return self._get(self._useful, name)

    def module_self_s(self, module: str) -> float:
        return sum(float(self._self[i]) for i, m in enumerate(self._modules)
                   if m == module) * 1e-9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics derived from spans: name -> (unit, the span names or
# modules it needs, value from one operation's OpView).  A
# metric whose function or module no longer exists is reported absent.
SPAN_METRICS = {
    "engine.batch_stats_s": ("s", ["engine.batch_stats"],
                             lambda v: v.dur_s("engine.batch_stats")),
    "engine.stats_ns_per_elem": ("ns", ["engine.batch_stats"],
                                 lambda v: _ratio(v.dur_s("engine.batch_stats") * 1e9,
                                                  v.work("engine.batch_stats"))),
    "engine.elements": ("count", ["engine.batch_stats"],
                        lambda v: v.work("engine.batch_stats")),
    "engine.noise_matrix_s": ("s", ["engine.noise_matrix"],
                              lambda v: v.self_s("engine.noise_matrix")),
    "signal.draw_s": ("s", ["signal.NoiseSpec.draw"],
                      lambda v: v.dur_s("signal.NoiseSpec.draw")),
    "signal.draw_calls": ("count", ["signal.NoiseSpec.draw"],
                          lambda v: v.calls("signal.NoiseSpec.draw")),
    "engine.batch_residuals_s": ("s", ["engine.batch_residuals"],
                                 lambda v: v.dur_s("engine.batch_residuals")),
    "engine.batch_alarms_s": ("s", ["engine.batch_alarms"],
                              lambda v: v.dur_s("engine.batch_alarms")),
    "engine.useful_step_ratio": ("ratio", ["engine.batch_alarms"],
                                 lambda v: _ratio(v.useful("engine.batch_alarms"),
                                                  v.work("engine.batch_alarms"))),
    "engine.chunks": ("count", ["engine.chunked_replications"],
                      lambda v: v.child_calls("engine.chunked_replications")),
    "calibration.self_s": ("s", ["calibration"],
                           lambda v: v.module_self_s("calibration")),
    "experiments.self_s": ("s", ["experiments"],
                           lambda v: v.module_self_s("experiments")),
    "tables.self_s": ("s", ["tables"], lambda v: v.module_self_s("tables")),
    "cli.self_s": ("s", ["cli"], lambda v: v.module_self_s("cli")),
    "fileformats.read_series_s": ("s", ["fileformats.read_series"],
                                  lambda v: v.dur_s("fileformats.read_series")),
    "fileformats.rows_per_s": ("1/s", ["fileformats.read_series"],
                               lambda v: _ratio(v.work("fileformats.read_series"),
                                                v.dur_s("fileformats.read_series"))),
    "prechange.fit_ols_s": ("s", ["prechange.fit_ols"],
                            lambda v: v.dur_s("prechange.fit_ols")),
    "detector.step_calls": ("count", ["detector.DetectorState.step"],
                            lambda v: v.calls("detector.DetectorState.step")),
    "detector.step_ns_per_call": ("ns", ["detector.DetectorState.step"],
                                  lambda v: _ratio(v.dur_s("detector.DetectorState.step") * 1e9,
                                                   v.calls("detector.DetectorState.step"))),
    "detector.save_state_s": ("s", ["detector.save_state"],
                              lambda v: v.dur_s("detector.save_state")),
    "detector.load_state_s": ("s", ["detector.load_state"],
                              lambda v: v.dur_s("detector.load_state")),
    "detector.snapshot_bytes": ("bytes", ["detector.save_state"],
                                lambda v: _ratio(v.work("detector.save_state"),
                                                 v.calls("detector.save_state"))),
}


def span_metrics(tracer: Tracer) -> Tuple[Dict[str, List[float]], List[str]]:
    """Per-operation values of each span metric, and the metrics whose
    function or module is absent from the package."""
    cols = tracer.arrays()
    views = [OpView(tracer, cols, op) for op in np.unique(cols["op"])]
    modules = {key.split(".", 1)[1] for key in sys.modules if key.startswith("linewatch.")}
    values: Dict[str, List[float]] = {}
    absent: List[str] = []
    for name, (_, needs, fn) in SPAN_METRICS.items():
        if any(n not in tracer.wrapped and n not in modules for n in needs):
            absent.append(name)
            continue
        values[name] = [float(fn(view)) for view in views]
    return values, absent
