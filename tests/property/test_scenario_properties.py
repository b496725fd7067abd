"""Property-based tests for the scenario layer.

Hypothesis builds *arbitrary valid* :class:`ScenarioSpec` values —
every arrival shape, every size model, optional burst envelopes —
and pins the layer's contracts over the whole space:

* compilation never raises, and every compiled trace is time-sorted,
  non-negative, within the horizon, with positive sizes;
* compilation is a pure function of ``(spec, seed)`` — the exact-float
  digest is bit-identical across compilations;
* replay loads come back verbatim, seed be damned;
* the array compiler equals a scalar Lewis-Shedler oracle: the same
  traces, and every ``scenario:*`` stream left at the same position;
* a full platform run conserves requests: ``served + failed + shed ==
  issued`` for every tenant under every generated scenario and policy,
  with or without a generated fault campaign.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario.compile import burst_windows, compile_scenario
from repro.scenario.run import POLICIES, run_scenario
from repro.scenario.spec import (
    BurstEnvelope,
    ConstantArrivals,
    DiurnalArrivals,
    FaultPlan,
    FlashCrowdArrivals,
    ReplayArrivals,
    ScenarioSpec,
    SizeModel,
    TenantLoad,
)
from repro.sim.rng import RandomStreams
from repro.workload.replay import ArrivalTrace

# ------------------------------------------------------------- strategies
# Bounded rates and horizons keep generated runs to a few dozen arrivals.
rates = st.floats(min_value=0.2, max_value=3.0, allow_nan=False)
spans = st.floats(min_value=1.0, max_value=20.0, allow_nan=False)

size_models = st.one_of(
    st.builds(
        SizeModel, kind=st.just("fixed"),
        mb=st.floats(min_value=0.01, max_value=0.5),
    ),
    st.builds(
        SizeModel, kind=st.just("lognormal"),
        mb=st.floats(min_value=0.01, max_value=0.3),
        sigma=st.floats(min_value=0.0, max_value=1.5),
    ),
    st.builds(
        SizeModel, kind=st.just("pareto"),
        mb=st.floats(min_value=0.01, max_value=0.3),
        alpha=st.floats(min_value=0.8, max_value=3.0),
    ),
)

constant = st.builds(ConstantArrivals, rate_rps=rates)
diurnal = st.builds(
    DiurnalArrivals,
    base_rps=rates,
    peak_factor=st.floats(min_value=1.0, max_value=4.0),
    period_s=spans,
    phase_s=st.floats(min_value=0.0, max_value=10.0),
)
flash = st.builds(
    FlashCrowdArrivals,
    base_rps=rates,
    spike_factor=st.floats(min_value=1.0, max_value=6.0),
    at_s=st.floats(min_value=0.0, max_value=6.0),
    ramp_s=spans,
    hold_s=st.floats(min_value=0.0, max_value=5.0),
    decay_s=spans,
)
# Recorded traces must fit the tightest generated horizon (8s floor below).
replay = st.builds(
    lambda offsets: ReplayArrivals(
        ArrivalTrace(tuple((t, 0.05) for t in sorted(set(offsets))))
    ),
    st.lists(st.floats(min_value=0.0, max_value=7.5), max_size=6),
)
arrival_models = st.one_of(constant, diurnal, flash, replay)


def _loads(models):
    return tuple(
        TenantLoad(tenant=f"t{i}", arrivals=model, sizes=sizes, sla_class=cls)
        for i, (model, sizes, cls) in enumerate(models)
    )


def _load_lists(models):
    return st.lists(
        st.tuples(models, size_models, st.sampled_from(["gold", "silver", "bronze"])),
        min_size=1,
        max_size=3,
    ).map(_loads)


bursts = st.one_of(
    st.none(),
    st.builds(
        BurstEnvelope,
        factor=st.floats(min_value=1.0, max_value=4.0),
        mean_calm_s=st.floats(min_value=2.0, max_value=10.0),
        mean_burst_s=st.floats(min_value=1.0, max_value=5.0),
    ),
)

specs = st.builds(
    ScenarioSpec,
    name=st.just("prop"),
    duration_s=st.floats(min_value=8.0, max_value=20.0, allow_nan=False),
    loads=_load_lists(arrival_models),
    bursts=bursts,
)
# Horizons of at most ~1 expected candidate: mostly zero candidates (the
# first gap already crosses the horizon) or candidates with no survivor.
# Replay loads are left out; their recordings outlast these horizons.
short_specs = st.builds(
    ScenarioSpec,
    name=st.just("prop"),
    duration_s=st.floats(min_value=1e-4, max_value=0.05),
    loads=_load_lists(st.one_of(constant, diurnal, flash)),
    bursts=bursts,
)


fault_plans = st.builds(
    FaultPlan,
    n_crashes=st.integers(min_value=0, max_value=4),
    n_stalls=st.integers(min_value=0, max_value=2),
    n_outages=st.integers(min_value=0, max_value=1),
    n_degrades=st.integers(min_value=0, max_value=1),
)


# ------------------------------------------------------------- the oracle
def _scalar_size(sizes, generator):
    if sizes.kind == "fixed":
        return sizes.mb
    if sizes.kind == "lognormal":
        value = float(generator.lognormal(mean=math.log(sizes.mb), sigma=sizes.sigma))
    else:
        value = sizes.mb * (1.0 + float(generator.pareto(sizes.alpha)))
    return min(value, sizes.cap_mb)


def scalar_compile(spec, streams):
    """Lewis-Shedler one candidate at a time: one gap, one uniform and,
    for a survivor, one size per step.  Returns ``{tenant: arrivals}``."""
    windows = burst_windows(spec, streams)
    factor = spec.bursts.factor if spec.bursts is not None else 1.0
    traces = {}
    for load in spec.loads:
        if isinstance(load.arrivals, ReplayArrivals):
            traces[load.tenant] = load.arrivals.trace.arrivals
            continue
        prefix = f"scenario:{spec.name}:{load.tenant}"
        top = load.arrivals.max_rate() * factor
        arrivals, t = [], 0.0
        while True:
            t += streams.exponential(f"{prefix}:gap", 1.0 / top)
            if t >= spec.duration_s:
                break
            burst = factor if any(s <= t < e for s, e in windows) else 1.0
            if streams.uniform(f"{prefix}:thin", 0.0, 1.0) <= (
                load.arrivals.rate_at(t) * burst / top
            ):
                size = _scalar_size(load.sizes, streams.stream(f"{prefix}:size"))
                arrivals.append((t, size))
        traces[load.tenant] = tuple(arrivals)
    return traces


def _stream_states(spec, streams):
    names = [f"scenario:{spec.name}:bursts"] + [
        f"scenario:{spec.name}:{load.tenant}:{role}"
        for load in spec.loads
        for role in ("gap", "thin", "size")
    ]
    return {name: streams.stream(name).bit_generator.state for name in names}


def assert_matches_oracle(spec, seed):
    shared, reference = RandomStreams(seed), RandomStreams(seed)
    compiled = compile_scenario(spec, seed, streams=shared)
    assert dict(compiled.traces) == {
        tenant: ArrivalTrace(arrivals)
        for tenant, arrivals in scalar_compile(spec, reference).items()
    }
    assert _stream_states(spec, shared) == _stream_states(spec, reference)
    return compiled


# ------------------------------------------------------------- properties
@given(spec=specs, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_compile_never_raises_and_traces_are_well_formed(spec, seed):
    compiled = compile_scenario(spec, seed)
    assert len(compiled.traces) == len(spec.loads)
    for tenant, trace in compiled.traces:
        offsets = [t for t, _mb in trace.arrivals]
        assert offsets == sorted(offsets), tenant
        assert all(0.0 <= t <= spec.duration_s for t in offsets), tenant
        assert all(mb > 0.0 for _t, mb in trace.arrivals), tenant
    for start, end in compiled.windows:
        assert 0.0 <= start < end <= spec.duration_s


@given(spec=specs, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_compile_is_pure_in_spec_and_seed(spec, seed):
    assert compile_scenario(spec, seed).digest() == compile_scenario(spec, seed).digest()
    assert compile_scenario(spec, seed).digest_sha() == compile_scenario(spec, seed).digest_sha()


@given(spec=specs, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_replay_loads_come_back_verbatim(spec, seed):
    compiled = compile_scenario(spec, seed)
    for load in spec.loads:
        if isinstance(load.arrivals, ReplayArrivals):
            assert compiled.trace_of(load.tenant).arrivals == load.arrivals.trace.arrivals


@given(
    spec=specs,
    seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(["fcfs", "sla", "market"]),
)
@settings(max_examples=12, deadline=None)
def test_every_generated_scenario_conserves_requests(spec, seed, policy):
    # The expensive one: a full platform run per example.  Low example
    # count, but the space it samples (shape x sizes x bursts x policy)
    # is exactly where a hand-written suite has blind spots.
    compiled = compile_scenario(spec, seed)
    report = run_scenario(spec, seed=seed, policy=policy, compiled=compiled)
    assert report.conservation_holds()
    assert report.issued == compiled.total_arrivals
    for tenant, stats in report.stats.items():
        assert stats.served + stats.failed + stats.shed == stats.issued, tenant


@pytest.mark.parametrize("policy", POLICIES)
@given(
    spec=st.one_of(specs, short_specs),
    plan=fault_plans,
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=8, deadline=None)
def test_conservation_holds_under_fault_campaigns(policy, spec, plan, seed):
    # Crashes, stalls, outages and degrades against one-node services:
    # requests fail, time out or shed, but every one is accounted for,
    # the post-drain probes (one per tenant) included.
    spec = replace(spec, faults=plan)
    report = run_scenario(spec, seed=seed, policy=policy)
    assert report.issued == compile_scenario(spec, seed).total_arrivals + len(spec.loads)
    for tenant, stats in report.stats.items():
        assert stats.served + stats.failed + stats.shed == stats.issued, tenant
    # Every campaign event fired (injected, or skipped on a dead node).
    fired = sum(1 for *_event, phase in report.faults.log if phase != "restore")
    assert fired == plan.n_crashes + plan.n_stalls + plan.n_outages + plan.n_degrades


@given(
    spec=st.one_of(specs, short_specs),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_compile_matches_scalar_oracle(spec, seed):
    assert_matches_oracle(spec, seed)


def _heavily_thinned(duration_s):
    # 1 rps under a 40x flash spike that never arrives, inside a 2x
    # burst envelope: a candidate survives with probability 1/80 or 1/40.
    flash = FlashCrowdArrivals(base_rps=1.0, spike_factor=40.0, at_s=100.0)
    return ScenarioSpec(
        name="prop",
        duration_s=duration_s,
        loads=(TenantLoad(tenant="t0", arrivals=flash, sizes=SizeModel(kind="pareto")),),
        bursts=BurstEnvelope(factor=2.0, mean_calm_s=0.05, mean_burst_s=0.05),
    )


def _first_gap(seed):
    """The first envelope gap of ``_heavily_thinned``'s tenant (80 rps)."""
    return RandomStreams(seed).exponential("scenario:prop:t0:gap", 1.0 / 80.0)


def test_oracle_holds_with_zero_candidates():
    # The first gap already crosses a 1-microsecond horizon.
    spec = _heavily_thinned(1e-6)
    assert _first_gap(0) >= spec.duration_s
    assert assert_matches_oracle(spec, 0).total_arrivals == 0


def test_oracle_holds_with_candidates_but_zero_survivors():
    # ~40 candidates in 0.5 s, each kept with probability ~1/60: some
    # seeds keep none of them.
    spec = _heavily_thinned(0.5)
    empty = [
        seed for seed in range(20)
        if assert_matches_oracle(spec, seed).total_arrivals == 0
    ]
    assert any(_first_gap(seed) < spec.duration_s for seed in empty)


@given(spec=specs)
@settings(max_examples=25, deadline=None)
def test_dict_round_trip_is_lossless(spec):
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
