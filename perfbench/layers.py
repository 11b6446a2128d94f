"""Outside-in per-layer tracing: time calls into each layer's public functions.

The benchmark changes no library code.  A traced pass instead replaces
each listed public function with a wrapper that records the call on a
stack of open spans, one per layer entry.  A layer's *self time* is the
wall time of its spans minus the time covered by their child spans, so
the self times of all layers plus the benchmark's own loop add up to the
traced drive wall.  A call nested directly inside a span of the same
layer is folded into that span: ``calls`` counts entries into the layer,
not every function call inside it.

Wrappers are installed only around the timed drive of a traced pass and
removed afterwards, so set-up and the untraced passes run the original
functions.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

from repro.calib import sketch as calib_sketch
from repro.calib.loop import CalibrationLoop
from repro.core.normal import NormalDistribution
from repro.core.stochastic import StochasticValue
from repro.nws.feedback import FeedBank, LoadFeed
from repro.nws.service import NetworkWeatherService
from repro.obs.tracer import Span, Tracer
from repro.serving import columnar
from repro.serving.admission import AdmissionController
from repro.serving.cluster import ServingCluster
from repro.serving.elastic import Autoscaler
from repro.serving.forecasts import ForecastCache
from repro.serving.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serving.router import ClusterRouter
from repro.serving.server import PredictionServer
from repro.structural import engine
from repro.structural.repeaters import SequentialProbe

import workloads


# Counters see every call, folded or not; each writes its own key.
def _count_draws(counts, args, kwargs, result):
    counts["evaluate.draws"] += np.size(result)


def _count_sample(counts, args, kwargs, result):
    counts["sample.draws"] += np.size(result)


def _count_admit(counts, args, kwargs, result):
    counts["admission.considered"] += 1
    counts["admission.admitted"] += result is None


def _count_admit_batch(counts, args, kwargs, result):
    counts["admission.considered"] += len(result)
    counts["admission.admitted"] += int((result == columnar.ADMIT).sum())


def _count_scalar_submit(counts, args, kwargs, result):
    # Rows, not calls: a failover re-submits a request to another worker.
    counts["server.scalar_ids"].add(args[1].request_id)


def _count_flush(counts, args, kwargs, result):
    counts["calib.flushes"] += 1


#: (layer, owner, attribute, counter) for every timed entry point.  An
#: owner is a class (its method is replaced) or a module (the function is
#: replaced there and in every ``repro`` module that imported it by name).
TARGETS = (
    ("structural.engine.evaluate", engine.CompiledExpr, "evaluate", _count_draws),
    ("structural.engine.compile", engine, "compile_expr", None),
    ("core.sample", StochasticValue, "sample", _count_sample),
    ("core.sample", NormalDistribution, "sample", None),
    ("serving.columnar.admit_batch", columnar, "admit_batch", _count_admit_batch),
    *(
        ("serving.columnar.soa", cls, name, None)
        for cls, names in (
            (columnar.RequestBatch, ("select", "concat", "from_requests", "to_requests")),
            (
                columnar.ResponseBatch,
                (
                    "select",
                    "concat",
                    "sorted_by_completion",
                    "from_responses",
                    "with_worker",
                    "to_responses",
                ),
            ),
        )
        for name in names
    ),
    ("serving.server", PredictionServer, "submit", _count_scalar_submit),
    *(
        ("serving.server", PredictionServer, name, None)
        for name in ("submit_batch", "step", "step_batch", "drain", "restart")
    ),
    ("structural.repeaters.assess", SequentialProbe, "assess", None),
    ("calib.sketch", calib_sketch, "build_sketches", None),
    ("calib.sketch", CalibrationLoop, "distributions", None),
    ("calib.sketch", CalibrationLoop, "distribution", None),
    ("calib.score", CalibrationLoop, "enqueue", None),
    ("calib.score", CalibrationLoop, "flush", None),
    ("calib.score", CalibrationLoop, "realise", _count_flush),
    ("serving.metrics", Counter, "inc", None),
    ("serving.metrics", Gauge, "set", None),
    ("serving.metrics", Histogram, "observe", None),
    ("serving.metrics", Histogram, "observe_many", None),
    *(
        ("serving.metrics", MetricsRegistry, name, None)
        for name in ("counter", "gauge", "histogram")
    ),
    ("serving.admission.admit", AdmissionController, "admit", _count_admit),
    ("serving.router.route", ClusterRouter, "route", None),
    *(
        ("serving.cluster", ServingCluster, name, None)
        for name in ("submit", "submit_batch", "step", "step_batch")
    ),
    ("serving.forecasts.get", ForecastCache, "get", None),
    *(
        ("nws", NetworkWeatherService, name, None)
        for name in ("advance_to", "query", "query_qualified")
    ),
    *(
        ("nws", LoadFeed, name, None)
        for name in ("observe", "forecast", "forecast_ahead", "trend")
    ),
    ("nws", FeedBank, "observe", None),
    ("serving.elastic.control", Autoscaler, "control", None),
    ("obs.span", Tracer, "start_span", None),
    ("obs.span", Tracer, "event", None),
    ("obs.span", Span, "finish", None),
    ("obs.span", Span, "set", None),
    ("bench.generate", workloads, "make_batch", None),
    ("bench.generate", workloads, "make_requests", None),
)

#: Layer order of the report when self times tie (the table's order).
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


class LayerClock:
    """Per-layer call counts and self times, gathered by wrappers."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.counts["server.scalar_ids"] = set()
        self._stack: list[list] = []  # [layer, child seconds] per open span
        self._installed: list[tuple] = []

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn, counter):
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(counts, args, kwargs, result)
                return result
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[layer] += 1
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return timed

    def install(self) -> None:
        """Replace every target with its timed wrapper."""
        for layer, owner, name, counter in TARGETS:
            raw = owner.__dict__[name]
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__, counter))
                else:
                    wrapped = self._wrap(layer, raw, counter)
                self._installed.append((owner, name, raw))
                setattr(owner, name, wrapped)
                continue
            wrapped = self._wrap(layer, raw, counter)
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "")
                if module is owner or (
                    mod_name.startswith("repro") and module.__dict__.get(name) is raw
                ):
                    self._installed.append((module, name, raw))
                    setattr(module, name, wrapped)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._installed:
            owner, name, raw = self._installed.pop()
            setattr(owner, name, raw)
        self._stack.clear()

    def covered_s(self) -> float:
        """Total self time of every layer (all traced time with an owner)."""
        return sum(self.self_s.values())
