"""Compile a :class:`ScenarioSpec` into seeded arrival traces.

``compile_scenario(spec, seed)`` is the purity boundary of the scenario
layer: everything stochastic about a scenario is realised here, on
**dedicated named RNG streams** —

* ``scenario:<name>:bursts`` — the correlated burst envelope windows;
* ``scenario:<name>:<tenant>:gap`` — candidate arrival gaps
  (Lewis-Shedler envelope process, see
  :func:`repro.workload.replay.thinned_trace`);
* ``scenario:<name>:<tenant>:thin`` — the thinning uniforms;
* ``scenario:<name>:<tenant>:size`` — per-arrival dataset sizes;
* ``scenario:<name>:bids`` — per-tenant spot-market bids (consumed by
  the ``market`` policy arm of :mod:`repro.scenario.run`).

Stream names embed the scenario *and* tenant name, and per-name seeds
are hash-derived from the master seed (:class:`repro.sim.rng.RandomStreams`),
so (a) the compiled result is a pure function of ``(spec, seed)`` — the
exact-float :meth:`CompiledScenario.digest` is bit-identical across
compilations, processes, and platforms — and (b) scenario draws cannot
perturb any platform stream (``boot-*``, ``siege-*``, ``fluid:*``, …):
the common-random-numbers discipline that lets policy arms share one
workload realisation.

Compilation is array-native.  Each tenant's candidate instants are
one block of exponential gaps summed by ``np.cumsum``; the burst factor
at every candidate is one ``np.searchsorted`` over the window starts;
the arrival model's array method ``rates(t)`` (``rate_at`` delegates
to it) gives every rate; one block of uniforms thins the candidates
and one call draws every survivor's size.  Draw consumption equals the
one-candidate-at-a-time Lewis-Shedler loop's: ``gap`` = candidates + 1,
``thin`` = candidates, ``size`` = survivors — so a shared
:class:`RandomStreams` is left exactly where the scalar algorithm
leaves it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.scenario.spec import ReplayArrivals, ScenarioSpec, SizeModel, TenantLoad
from repro.sim.rng import RandomStreams
from repro.workload.replay import ArrivalTrace, thinned_trace

__all__ = ["CompiledScenario", "compile_scenario", "burst_windows", "size_sampler"]


def burst_windows(
    spec: ScenarioSpec, streams: RandomStreams
) -> Tuple[Tuple[float, float], ...]:
    """The seeded (start, end) burst windows of the scenario's envelope.

    Episodes alternate calm/burst with exponential lengths drawn from
    the single ``scenario:<name>:bursts`` stream; drawing them *once*
    per scenario (not per tenant) is what correlates the bursts.
    """
    if spec.bursts is None:
        return ()
    stream = f"scenario:{spec.name}:bursts"
    windows = []
    t = 0.0
    while t < spec.duration_s:
        t += streams.exponential(stream, spec.bursts.mean_calm_s)
        if t >= spec.duration_s:
            break
        end = t + streams.exponential(stream, spec.bursts.mean_burst_s)
        windows.append((t, min(end, spec.duration_s)))
        t = end
    return tuple(windows)


def size_sampler(
    sizes: SizeModel, streams: RandomStreams, stream: str
) -> Callable[[np.ndarray], List[float]]:
    """A dataset-MB sampler: one size per arrival instant, all drawn
    from ``stream`` in one call (one draw per arrival, in order)."""
    if sizes.kind == "fixed":
        return lambda t: [sizes.mb] * len(t)
    generator = streams.stream(stream)
    if sizes.kind == "lognormal":

        def draw(t: np.ndarray) -> List[float]:
            values = generator.lognormal(
                mean=math.log(sizes.mb), sigma=sizes.sigma, size=len(t)
            )
            return np.minimum(values, sizes.cap_mb).tolist()

        return draw

    def draw_pareto(t: np.ndarray) -> List[float]:
        # numpy's pareto() is the Lomax tail; 1 + tail is the classic
        # Pareto with minimum 1, scaled to the model's minimum size.
        values = sizes.mb * (1.0 + generator.pareto(sizes.alpha, size=len(t)))
        return np.minimum(values, sizes.cap_mb).tolist()

    return draw_pareto


def _burst_factors(
    windows: Tuple[Tuple[float, float], ...], factor: float
) -> Callable[[np.ndarray], np.ndarray]:
    """``factor`` at instants inside a burst window, 1.0 elsewhere.

    Windows are sorted and disjoint, so only the last window starting
    at or before ``t`` can hold it.  A leading (-inf, -inf) window gives
    instants before the first burst a window that holds nothing.
    """
    starts = np.array([-math.inf] + [start for start, _end in windows])
    ends = np.array([-math.inf] + [end for _start, end in windows])

    def at(t: np.ndarray) -> np.ndarray:
        last = np.searchsorted(starts, t, side="right") - 1
        return np.where(t < ends[last], factor, 1.0)

    return at


@dataclass(frozen=True)
class CompiledScenario:
    """The realised scenario: one :class:`ArrivalTrace` per tenant."""

    spec: ScenarioSpec
    seed: int
    traces: Tuple[Tuple[str, ArrivalTrace], ...]
    windows: Tuple[Tuple[float, float], ...]

    @property
    def total_arrivals(self) -> int:
        return sum(len(trace) for _tenant, trace in self.traces)

    def trace_of(self, tenant: str) -> ArrivalTrace:
        for name, trace in self.traces:
            if name == tenant:
                return trace
        raise KeyError(f"no load for tenant {tenant!r}")

    def digest(self) -> dict:
        """Exact-float digest: every arrival instant and size, plus the
        burst windows — bit-identical across compilations per seed."""
        return {
            "scenario": self.spec.name,
            "seed": self.seed,
            "duration_s": self.spec.duration_s,
            "windows": self.windows,
            "traces": {
                tenant: trace.arrivals for tenant, trace in self.traces
            },
        }

    def digest_sha(self) -> str:
        """A short hex fingerprint of the exact-float digest."""
        payload = json.dumps(self.digest(), sort_keys=True, default=repr)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _compile_load(
    spec: ScenarioSpec,
    load: TenantLoad,
    streams: RandomStreams,
    windows: Tuple[Tuple[float, float], ...],
) -> ArrivalTrace:
    if isinstance(load.arrivals, ReplayArrivals):
        return load.arrivals.trace  # recorded truth: offsets and sizes verbatim
    prefix = f"scenario:{spec.name}:{load.tenant}"
    factor = spec.bursts.factor if spec.bursts is not None else 1.0
    burst_at = _burst_factors(windows, factor)
    model = load.arrivals

    def rate(t: np.ndarray) -> np.ndarray:
        return model.rates(t) * burst_at(t)

    return thinned_trace(
        streams,
        rate_fn=rate,
        max_rate=model.max_rate() * factor,
        duration_s=spec.duration_s,
        size_fn=size_sampler(load.sizes, streams, f"{prefix}:size"),
        gap_stream=f"{prefix}:gap",
        thin_stream=f"{prefix}:thin",
    )


def compile_scenario(
    spec: ScenarioSpec,
    seed: int = 0,
    streams: Optional[RandomStreams] = None,
) -> CompiledScenario:
    """Realise ``spec`` into per-tenant arrival traces.

    Pure in ``(spec, seed)``: compiling twice yields bit-identical
    traces and digests.  An existing :class:`RandomStreams` may be
    passed to share a testbed's stream factory — scenario streams are
    namespaced (``scenario:*``), so this never perturbs platform draws.
    """
    if streams is None:
        streams = RandomStreams(seed)
    elif streams.seed != seed:
        raise ValueError(
            f"streams seeded with {streams.seed}, scenario compiled for {seed}"
        )
    windows = burst_windows(spec, streams)
    traces = tuple(
        (load.tenant, _compile_load(spec, load, streams, windows))
        for load in spec.loads
    )
    return CompiledScenario(spec=spec, seed=seed, traces=traces, windows=windows)
