"""The benchmark's tracer must find every function and module that its
per-layer metrics name; a missing one is reported as a null metric."""

import os
import sys

import linewatch
import linewatch.cli  # noqa: F401  (the benchmark imports it too)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_span_metric_finds_what_it_needs(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    modules = {key.split(".", 1)[1] for key in sys.modules if key.startswith("linewatch.")}
    missing = sorted({name for _, needs, _ in tracing.SPAN_METRICS.values() for name in needs
                      if name not in tracer.wrapped and name not in modules})
    assert missing == []
    assert not getattr(linewatch.run, "__wrapped_by_tracer__", False)
