"""Observability for the SODA substrate: tracing, metrics, profiling.

Paper §1 demands that an ASP can "perform service monitoring and
management, as if the service were hosted locally."  This package is
that capability for the reproduction, three pillars in one hub:

* **request tracing** (:mod:`repro.obs.tracing`) — every request
  decomposes into dispatch / queue_wait / cpu_service / tx spans that
  sum to its measured response time; exportable to Chrome trace JSON
  (:mod:`repro.obs.export`) and text flame summaries.
* **metrics** (:mod:`repro.obs.metrics`) — labeled counters, gauges and
  histograms over switch outcomes, node state, admissions, priming,
  SLA breaches/credits, LAN allocator flushes and scheduler batches,
  with Prometheus text exposition (:mod:`repro.obs.prometheus`).
* **kernel profiling** (:mod:`repro.obs.profiler`) — events fired and
  wall-time per callback site inside the event kernel, plus heap-depth
  high-water marks.

The carried-over hard constraint: observability **observes, never
perturbs**.  Instrumentation reads simulated time and appends to plain
Python structures; it never schedules events, so experiment digests are
bit-identical with the whole stack enabled or disabled (pinned by
``tests/sim/test_determinism_guard.py``).

Usage — explicit attach::

    obs = Observability(profile=True)
    obs.attach(sim)            # sets sim.metrics / sim.obs_tracer / profiler

or ambient, which also covers simulators built *inside* experiment
code (each :class:`~repro.core.api.HUPTestbed` attaches itself)::

    obs = Observability()
    with obs.activate():
        result = fig4.run(seed=0)
    print(obs.flame_summary())
    print(obs.prometheus())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional

from repro.obs.export import (
    breakdown_table,
    chrome_trace,
    flame_summary,
    load_federation_profile,
    load_spans_json,
    spans_payload,
    write_chrome_trace,
    write_federation_profile,
    write_spans_json,
)
from repro.obs.federation import (
    FederatedMetrics,
    FederationObsResult,
    FederationObservability,
    FederationProfiler,
    TraceContext,
    merge_shard_spans,
    trace_completeness,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry_of,
)
from repro.obs.profiler import KernelProfiler, profiler_of
from repro.obs.prometheus import render as render_prometheus
from repro.obs.tracing import RequestTracer, Span, SpanContext, tracer_of

__all__ = [
    "Observability",
    "active",
    "ambient_registry",
    "RequestTracer",
    "Span",
    "SpanContext",
    "tracer_of",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "registry_of",
    "KernelProfiler",
    "profiler_of",
    "render_prometheus",
    "chrome_trace",
    "write_chrome_trace",
    "write_spans_json",
    "spans_payload",
    "load_spans_json",
    "write_federation_profile",
    "load_federation_profile",
    "flame_summary",
    "breakdown_table",
    "TraceContext",
    "FederationObservability",
    "FederatedMetrics",
    "FederationProfiler",
    "FederationObsResult",
    "merge_shard_spans",
    "trace_completeness",
]

#: Stack of ambiently activated hubs; newest wins.
_ACTIVE: List["Observability"] = []


def active() -> Optional["Observability"]:
    """The ambiently active hub, if any (see :meth:`Observability.activate`)."""
    return _ACTIVE[-1] if _ACTIVE else None


def ambient_registry() -> Optional[MetricsRegistry]:
    """The active hub's metrics registry, for components without a
    simulator handle (the host CPU scheduler, the penalty settler)."""
    hub = active()
    return hub.registry if hub is not None else None


class Observability:
    """One tracer + one registry + one profiler, attachable to sims."""

    def __init__(
        self,
        tracing: bool = True,
        metrics: bool = True,
        profile: bool = False,
        span_capacity: Optional[int] = None,
    ):
        self.tracer: Optional[RequestTracer] = (
            RequestTracer(capacity=span_capacity) if tracing else None
        )
        self.registry: Optional[MetricsRegistry] = MetricsRegistry() if metrics else None
        if self.tracer is not None:
            self.tracer.registry = self.registry
        self.profiler: Optional[KernelProfiler] = KernelProfiler() if profile else None
        #: Extra JSON-ready documents experiments deposit for the runner
        #: to write next to the span/metric files (e.g. the federation
        #: profile under the key ``"fedprofile"``).
        self.artifacts: dict = {}

    # -- attachment ---------------------------------------------------------
    def attach(self, sim) -> None:
        """Attach the enabled pillars to ``sim``.

        Tracing and metrics ride on attributes (``sim.obs_tracer``,
        ``sim.metrics``) that instrumented components look up; the
        profiler installs via :meth:`Simulator.set_profiler`.  One hub
        may be attached to several consecutive simulators; spans record
        which (epoch) they came from.
        """
        if self.tracer is not None:
            self.tracer.begin_epoch()
            sim.obs_tracer = self.tracer
        if self.registry is not None:
            sim.metrics = self.registry
        if self.profiler is not None:
            sim.set_profiler(self.profiler)

    @contextmanager
    def activate(self):
        """Ambient activation: every testbed built inside attaches itself."""
        _ACTIVE.append(self)
        try:
            yield self
        finally:
            _ACTIVE.remove(self)

    # -- convenience reporting ----------------------------------------------
    def prometheus(self) -> str:
        if self.registry is None:
            raise ValueError("metrics are disabled on this hub")
        return render_prometheus(self.registry)

    def flame_summary(self, top: int = 0) -> str:
        if self.tracer is None:
            raise ValueError("tracing is disabled on this hub")
        return flame_summary(self.tracer.spans(), top=top)

    def breakdown(self, limit: int = 0) -> str:
        if self.tracer is None:
            raise ValueError("tracing is disabled on this hub")
        return breakdown_table(self.tracer.requests(), limit=limit)

    def write_spans(self, path: str) -> None:
        if self.tracer is None:
            raise ValueError("tracing is disabled on this hub")
        write_spans_json(path, self.tracer.spans())

    def write_chrome_trace(self, path: str) -> None:
        if self.tracer is None:
            raise ValueError("tracing is disabled on this hub")
        write_chrome_trace(path, self.tracer.spans())

    def write_prometheus(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.prometheus())

    def kernel_profile(self, top: int = 20) -> str:
        if self.profiler is None:
            raise ValueError("profiling is disabled on this hub")
        return self.profiler.render(top=top)
