"""Tests for arrival-trace replay."""

import re

import numpy as np
import pytest

from repro.sim import RandomStreams
from repro.workload.replay import (
    ArrivalTrace,
    TraceReplay,
    diurnal_trace,
    poisson_trace,
    thinned_trace,
)


def test_trace_validation():
    with pytest.raises(ValueError):
        ArrivalTrace(((1.0, 0.1), (0.5, 0.1)))  # unsorted
    with pytest.raises(ValueError):
        ArrivalTrace(((-1.0, 0.1),))
    with pytest.raises(ValueError):
        ArrivalTrace(((1.0, -0.1),))
    empty = ArrivalTrace(())
    assert len(empty) == 0
    assert empty.duration == 0.0


def test_poisson_trace_rate():
    streams = RandomStreams(seed=1)
    trace = poisson_trace(streams, rate_rps=10.0, duration_s=200.0)
    assert trace.rate_in(0, 200) == pytest.approx(10.0, rel=0.1)
    with pytest.raises(ValueError):
        poisson_trace(streams, rate_rps=0, duration_s=1)


def test_diurnal_trace_peaks_and_troughs():
    streams = RandomStreams(seed=2)
    period = 100.0
    trace = diurnal_trace(
        streams, base_rps=5.0, peak_factor=4.0, period_s=period, duration_s=1000.0
    )
    # sin peaks at period/4 within each cycle, troughs at 3*period/4.
    peak_rate = sum(
        trace.rate_in(k * period + 15, k * period + 35) for k in range(10)
    ) / 10
    trough_rate = sum(
        trace.rate_in(k * period + 65, k * period + 85) for k in range(10)
    ) / 10
    assert peak_rate > 2.5 * trough_rate
    with pytest.raises(ValueError):
        diurnal_trace(streams, 5.0, 0.5, 100.0, 10.0)


def test_rate_in_validation():
    trace = ArrivalTrace(((0.5, 0.1),))
    with pytest.raises(ValueError):
        trace.rate_in(1, 1)


def test_replay_completes_every_arrival(web_service):
    tb, web, honeypot, clients = web_service
    streams = RandomStreams(seed=3)
    trace = poisson_trace(streams, rate_rps=8.0, duration_s=10.0, dataset_mb=0.2)
    replay = TraceReplay(tb.sim, web.switch, clients, trace)
    report = tb.run(replay.run())
    assert report.completed == len(trace)
    assert report.failures == 0


def test_replay_preserves_arrival_times(web_service):
    tb, web, honeypot, clients = web_service
    trace = ArrivalTrace(((1.0, 0.1), (5.0, 0.1), (9.0, 0.1)))
    start = tb.now
    replay = TraceReplay(tb.sim, web.switch, clients, trace)
    report = tb.run(replay.run())
    assert report.completed == 3
    # The last response cannot arrive before the last recorded arrival.
    assert tb.now >= start + 9.0


def test_trace_rejects_non_finite_entries():
    nan, inf = float("nan"), float("inf")
    # NaN offsets would slide through the sign/sort checks (NaN compares
    # False to everything) and corrupt replay timing downstream.
    with pytest.raises(ValueError):
        ArrivalTrace(((nan, 0.1),))
    with pytest.raises(ValueError):
        ArrivalTrace(((1.0, nan),))
    with pytest.raises(ValueError):
        ArrivalTrace(((inf, 0.1),))
    with pytest.raises(ValueError):
        ArrivalTrace(((1.0, -inf),))


def test_replay_of_empty_trace_completes_immediately(web_service):
    tb, web, honeypot, clients = web_service
    start = tb.now
    replay = TraceReplay(tb.sim, web.switch, clients, ArrivalTrace(()))
    report = tb.run(replay.run())
    assert report.completed == 0
    assert report.failures == 0
    assert tb.now == start  # nothing to wait for


def test_replay_arrival_exactly_at_horizon(web_service):
    # A recording whose last request lands exactly on its nominal end:
    # the boundary arrival must be issued, not dropped.
    tb, web, honeypot, clients = web_service
    horizon = 10.0
    trace = ArrivalTrace(((1.0, 0.1), (5.0, 0.1), (horizon, 0.1)))
    assert trace.duration == horizon
    replay = TraceReplay(tb.sim, web.switch, clients, trace)
    report = tb.run(replay.run())
    assert report.completed == 3


def test_diurnal_amplitude_zero_is_poisson_arrival_for_arrival():
    # peak_factor == 1 means zero modulation: the diurnal process *is*
    # homogeneous Poisson, and must reproduce it draw for draw at equal
    # seed — not just in distribution.
    diurnal = diurnal_trace(
        RandomStreams(seed=11), base_rps=6.0, peak_factor=1.0,
        period_s=50.0, duration_s=100.0, dataset_mb=0.125,
    )
    poisson = poisson_trace(
        RandomStreams(seed=11), rate_rps=6.0, duration_s=100.0, dataset_mb=0.125
    )
    assert len(diurnal) > 0
    assert diurnal.arrivals == poisson.arrivals


def _scalar_candidates(seed, max_rate, duration_s):
    """Envelope instants drawn one gap at a time, as a reference."""
    streams, instants, t = RandomStreams(seed=seed), [], 0.0
    while True:
        t += streams.exponential("trace-thin-gap", 1.0 / max_rate)
        if t >= duration_s:
            return instants
        instants.append(t)


def test_thinning_rate_above_envelope_names_first_offending_instant():
    # Within the envelope until t = 2 s, then 6 rps against a 5 rps
    # envelope: the error names the first candidate past 2 s.
    first = next(t for t in _scalar_candidates(3, 5.0, 10.0) if t > 2.0)
    message = f"rate_fn({first}) = 6.0 escapes the envelope [0, 5.0]"
    with pytest.raises(ValueError, match=re.escape(message)):
        thinned_trace(
            RandomStreams(seed=3),
            rate_fn=lambda t: np.where(t > 2.0, 6.0, 1.0),
            max_rate=5.0,
            duration_s=10.0,
            size_fn=lambda t: [0.1] * len(t),
        )
    with pytest.raises(ValueError, match="escapes the envelope"):
        thinned_trace(
            RandomStreams(seed=3), lambda t: np.full(len(t), -0.5), 5.0, 10.0,
            size_fn=lambda t: [0.1] * len(t),
        )


def test_thinning_rate_exactly_at_envelope_keeps_every_candidate():
    trace = thinned_trace(
        RandomStreams(seed=3),
        rate_fn=lambda t: np.full(len(t), 5.0),
        max_rate=5.0,
        duration_s=10.0,
        size_fn=lambda t: [0.1] * len(t),
    )
    candidates = _scalar_candidates(3, 5.0, 10.0)
    assert len(candidates) > 0
    assert trace.arrivals == tuple((t, 0.1) for t in candidates)


def test_replay_counts_failures_when_service_down(web_service):
    tb, web, honeypot, clients = web_service
    for node in web.nodes:
        node.vm.crash()
    trace = ArrivalTrace(((0.1, 0.1), (0.2, 0.1)))
    replay = TraceReplay(tb.sim, web.switch, clients, trace)
    report = tb.run(replay.run())
    assert report.failures == 2
    assert report.completed == 0
