"""Arrival-trace replay.

Siege drives synthetic open/closed loops; real hosting platforms are
evaluated against recorded request traces.  :class:`TraceReplay` fires
requests at exact recorded instants, and the builders create synthetic
traces — homogeneous Poisson, and a diurnal (sinusoidally-modulated)
process via Lewis-Shedler thinning — so experiments can exercise the
time-varying load a long-lived application service (§1) actually sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence, Tuple

import numpy as np

from repro.core.errors import SODAError
from repro.core.switch import ServiceSwitch
from repro.sim.kernel import Event, Simulator
from repro.sim.rng import RandomStreams
from repro.workload.apps import web_request
from repro.workload.clients import ClientPool
from repro.workload.siege import SiegeReport

__all__ = [
    "ArrivalTrace",
    "TraceReplay",
    "poisson_trace",
    "diurnal_trace",
    "thinned_trace",
]


@dataclass(frozen=True)
class ArrivalTrace:
    """Recorded arrivals: (time offset, dataset MB) pairs, time-sorted."""

    arrivals: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        last = -1.0
        for offset, size in self.arrivals:
            # isfinite also rejects NaN, which the < comparisons below
            # would silently wave through (NaN compares False to all).
            if not (math.isfinite(offset) and math.isfinite(size)):
                raise ValueError(f"non-finite arrival entry: ({offset}, {size})")
            if offset < 0 or size < 0:
                raise ValueError(f"negative arrival entry: ({offset}, {size})")
            if offset < last:
                raise ValueError("trace is not time-sorted")
            last = offset

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def duration(self) -> float:
        return self.arrivals[-1][0] if self.arrivals else 0.0

    def rate_in(self, start: float, end: float) -> float:
        """Mean arrival rate inside [start, end)."""
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        count = sum(1 for t, _ in self.arrivals if start <= t < end)
        return count / (end - start)


def _candidate_instants(
    streams: RandomStreams, stream: str, rate: float, duration_s: float
) -> np.ndarray:
    """The instants of a rate-``rate`` Poisson process inside ``[0, duration_s)``.

    Exponential gaps are drawn from ``stream`` as one block and summed
    with ``np.cumsum`` — a sequential left-to-right sum, so every
    instant is bit-identical to adding the gaps one at a time.  The
    stream is left exactly where a one-gap-at-a-time loop leaves it:
    ``len(result) + 1`` draws consumed, the last gap being the one that
    crosses the horizon.  The block is drawn from a saved bit-generator
    state, which is then restored and advanced by exactly that count.
    """
    generator = streams.stream(stream)
    mean = 1.0 / rate
    expected = rate * duration_s
    block = int(expected + 6.0 * math.sqrt(expected)) + 16
    saved = generator.bit_generator.state
    gaps = generator.exponential(mean, block)
    instants = np.cumsum(gaps)
    while instants[-1] < duration_s:
        gaps = np.concatenate((gaps, generator.exponential(mean, block)))
        instants = np.cumsum(gaps)
    count = int(np.searchsorted(instants, duration_s, side="left"))
    generator.bit_generator.state = saved
    generator.exponential(mean, count + 1)
    return instants[:count]


def poisson_trace(
    streams: RandomStreams, rate_rps: float, duration_s: float, dataset_mb: float = 0.25
) -> ArrivalTrace:
    """A homogeneous Poisson trace."""
    if rate_rps <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    instants = _candidate_instants(streams, "trace-poisson", rate_rps, duration_s)
    return ArrivalTrace(tuple((t, dataset_mb) for t in instants.tolist()))


def thinned_trace(
    streams: RandomStreams,
    rate_fn: Callable[[np.ndarray], np.ndarray],
    max_rate: float,
    duration_s: float,
    size_fn: Callable[[np.ndarray], Sequence[float]],
    gap_stream: str = "trace-thin-gap",
    thin_stream: str = "trace-thin",
) -> ArrivalTrace:
    """A non-homogeneous Poisson trace via Lewis-Shedler thinning.

    Candidate arrivals are drawn at the envelope rate ``max_rate`` from
    ``gap_stream`` (:func:`_candidate_instants`); each candidate at
    instant ``t`` survives with probability ``rate_fn(t) / max_rate``
    (one uniform from ``thin_stream`` per candidate, drawn
    unconditionally so the draw sequence is independent of the rate
    shape), and surviving arrivals get a dataset size from ``size_fn``.

    Both callables are array-valued: ``rate_fn`` maps the candidate
    instants to their rates, ``size_fn`` maps the surviving instants to
    one size each (drawing them all in one call).  A successful call
    consumes exactly candidates + 1 draws from ``gap_stream``,
    candidates from ``thin_stream`` and whatever ``size_fn`` draws for
    the survivors.  Everything is a pure function of
    ``(streams, arguments)`` — the scenario layer's purity/digest
    contract rests on this.
    """
    if max_rate <= 0 or duration_s <= 0:
        raise ValueError("max rate and duration must be positive")
    instants = _candidate_instants(streams, gap_stream, max_rate, duration_s)
    rates = rate_fn(instants)
    escaped = np.flatnonzero((rates < 0) | (rates > max_rate * (1.0 + 1e-12)))
    if len(escaped):
        first = escaped[0]
        raise ValueError(
            f"rate_fn({instants[first].item()}) = {rates[first].item()} "
            f"escapes the envelope [0, {max_rate}]"
        )
    uniforms = streams.stream(thin_stream).uniform(0.0, 1.0, len(instants))
    survivors = instants[uniforms <= rates / max_rate]
    return ArrivalTrace(tuple(zip(survivors.tolist(), size_fn(survivors))))


def diurnal_trace(
    streams: RandomStreams,
    base_rps: float,
    peak_factor: float,
    period_s: float,
    duration_s: float,
    dataset_mb: float = 0.25,
) -> ArrivalTrace:
    """A sinusoidally-modulated Poisson trace (Lewis-Shedler thinning).

    Instantaneous rate: ``base * (1 + (peak_factor-1)/2 * (1 + sin))``,
    i.e. oscillating between ``base`` and ``base * peak_factor``.  With
    ``peak_factor == 1`` the modulation amplitude is zero and the
    process *is* homogeneous Poisson, so the call delegates to
    :func:`poisson_trace` — same draws, same arrivals, arrival for
    arrival (pinned by a regression test).
    """
    if base_rps <= 0 or duration_s <= 0 or period_s <= 0:
        raise ValueError("rates, period and duration must be positive")
    if peak_factor < 1:
        raise ValueError(f"peak factor must be >= 1, got {peak_factor}")
    if peak_factor == 1:
        return poisson_trace(streams, base_rps, duration_s, dataset_mb)
    swing = (peak_factor - 1.0) / 2.0

    def rate(t: np.ndarray) -> np.ndarray:
        # math.sin per element: np.sin's SIMD kernels vary by build and CPU.
        sin = np.array([math.sin(x) for x in (2 * math.pi * t / period_s).tolist()])
        return base_rps * (1.0 + swing * (1.0 + sin))

    return thinned_trace(
        streams,
        rate_fn=rate,
        max_rate=base_rps * peak_factor,
        duration_s=duration_s,
        size_fn=lambda t: [dataset_mb] * len(t),
        gap_stream="trace-diurnal",
        thin_stream="trace-thin",
    )


class TraceReplay:
    """Fires a trace's requests against a service switch."""

    def __init__(
        self,
        sim: Simulator,
        switch: ServiceSwitch,
        clients: ClientPool,
        trace: ArrivalTrace,
    ):
        self.sim = sim
        self.switch = switch
        self.clients = clients
        self.trace = trace

    def run(self) -> Generator[Event, Any, SiegeReport]:
        """Replay the whole trace; returns a :class:`SiegeReport`."""
        report = SiegeReport(dataset_mb=-1.0, started_at=self.sim.now)
        origin = self.sim.now
        in_flight = []

        def one(sim: Simulator, size_mb: float) -> Generator[Event, Any, None]:
            client = self.clients.next_client()
            started = sim.now
            try:
                response = yield sim.process(
                    self.switch.serve(web_request(client, size_mb))
                )
            except SODAError:
                report.failures += 1
                return
            elapsed = sim.now - started
            report.overall.record(sim.now, elapsed)
            report.node_monitor(response.node_name).record(sim.now, elapsed)

        for offset, size_mb in self.trace.arrivals:
            gap = origin + offset - self.sim.now
            if gap > 0:
                yield self.sim.timeout(gap)
            in_flight.append(self.sim.process(one(self.sim, size_mb)))
        for proc in in_flight:
            yield proc
        report.finished_at = self.sim.now
        return report
