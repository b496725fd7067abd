"""Spec-layer tests: validation and the YAML-ish dict round-trip."""

import pytest

from repro.scenario.compile import compile_scenario
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
from repro.workload.replay import ArrivalTrace


def _load(tenant="web", **kwargs):
    kwargs.setdefault("arrivals", ConstantArrivals(rate_rps=2.0))
    return TenantLoad(tenant=tenant, **kwargs)


def test_size_model_validation():
    with pytest.raises(ValueError):
        SizeModel(kind="zipf")
    with pytest.raises(ValueError):
        SizeModel(mb=0.0)
    with pytest.raises(ValueError):
        SizeModel(mb=float("nan"))
    with pytest.raises(ValueError):
        SizeModel(sigma=-0.1)
    for kind in ("lognormal", "pareto"):
        with pytest.raises(ValueError):
            SizeModel(kind=kind, mb=2.0, cap_mb=1.0)  # cap below the minimum size
    assert SizeModel(kind="pareto", mb=0.05, alpha=1.2).cap_mb == 8.0


def test_fixed_size_is_not_bounded_by_the_random_kinds_cap():
    # Regression: only random kinds are truncated at cap_mb, so a fixed
    # 10 MB batch tenant is a valid model under the default 8 MB cap.
    model = SizeModel(kind="fixed", mb=10.0)
    assert model.mb == 10.0 and model.cap_mb == 8.0
    spec = ScenarioSpec(
        name="big-batch",
        duration_s=5.0,
        loads=(_load(sizes=model, kind="batch"),),
    )
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    trace = compile_scenario(spec, seed=0).trace_of("web")
    assert len(trace) and all(mb == 10.0 for _t, mb in trace.arrivals)


def test_arrival_model_validation():
    with pytest.raises(ValueError):
        ConstantArrivals(rate_rps=-1.0)
    with pytest.raises(ValueError):
        DiurnalArrivals(base_rps=1.0, peak_factor=0.5)  # < 1 would dip negative
    with pytest.raises(ValueError):
        FlashCrowdArrivals(base_rps=1.0, spike_factor=0.9)
    with pytest.raises(ValueError):
        FlashCrowdArrivals(base_rps=1.0, at_s=-3.0)
    with pytest.raises(ValueError):
        ReplayArrivals("not a trace")


def test_diurnal_rate_peaks_where_sin_peaks():
    model = DiurnalArrivals(base_rps=2.0, peak_factor=3.0, period_s=100.0)
    assert model.rate_at(25.0) == pytest.approx(6.0)  # sin peak at T/4
    assert model.rate_at(75.0) == pytest.approx(2.0)  # trough at 3T/4
    assert model.max_rate() == pytest.approx(6.0)


def test_flash_crowd_rate_envelope():
    model = FlashCrowdArrivals(
        base_rps=1.0, spike_factor=5.0, at_s=10.0, ramp_s=4.0, hold_s=6.0,
        decay_s=8.0,
    )
    assert model.rate_at(0.0) == 1.0
    assert model.rate_at(12.0) == pytest.approx(3.0)  # halfway up the ramp
    assert model.rate_at(15.0) == 5.0  # holding
    assert model.rate_at(24.0) == pytest.approx(3.0)  # halfway down
    assert model.rate_at(60.0) == 1.0


def test_tenant_load_validation():
    with pytest.raises(ValueError):
        _load(tenant="")
    with pytest.raises(ValueError):
        _load(tenant="has space")
    with pytest.raises(ValueError):
        _load(sla_class="platinum")
    with pytest.raises(ValueError):
        _load(kind="streaming")
    with pytest.raises(ValueError):
        TenantLoad(tenant="web", arrivals="not a model")


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(name="bad name", duration_s=10.0, loads=(_load(),))
    with pytest.raises(ValueError):
        ScenarioSpec(name="empty", duration_s=10.0, loads=())
    with pytest.raises(ValueError):  # duplicate tenants
        ScenarioSpec(name="dup", duration_s=10.0, loads=(_load(), _load()))
    with pytest.raises(ValueError):  # recorded trace past the horizon
        ScenarioSpec(
            name="overrun", duration_s=5.0,
            loads=(_load(arrivals=ReplayArrivals(ArrivalTrace(((7.0, 0.1),)))),),
        )
    with pytest.raises(ValueError):  # not a FaultPlan
        ScenarioSpec(name="x", duration_s=10.0, loads=(_load(),), faults={"n_crashes": 1})
    for bad_plan in ({"n_crashes": -1}, {"n_stalls": 1.5}, {"n_outages": "1"}):
        with pytest.raises(ValueError):
            FaultPlan(**bad_plan)
    spec = ScenarioSpec(name="ok", duration_s=10.0, loads=[_load()])
    assert isinstance(spec.loads, tuple)  # list coerced


def test_dict_round_trip_every_model_kind():
    spec = ScenarioSpec(
        name="round-trip",
        duration_s=30.0,
        description="all four arrival kinds",
        bursts=BurstEnvelope(factor=2.0, mean_calm_s=8.0, mean_burst_s=3.0),
        faults=FaultPlan(n_crashes=2, n_outages=0),
        loads=(
            _load("steady"),
            _load("wave", arrivals=DiurnalArrivals(1.0, 2.0, 20.0, 5.0)),
            _load("spike", arrivals=FlashCrowdArrivals(1.0, 4.0, at_s=6.0)),
            _load(
                "tape",
                arrivals=ReplayArrivals(ArrivalTrace(((1.0, 0.1), (2.5, 0.2)))),
                sizes=SizeModel(kind="lognormal", mb=0.2, sigma=0.7),
            ),
        ),
    )
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ScenarioSpec.from_dict({"name": "x", "duration_s": 1.0, "loads": [], "x": 1})
    with pytest.raises(ValueError):
        ScenarioSpec.from_dict(
            {
                "name": "x", "duration_s": 10.0,
                "loads": [{"tenant": "t", "arrivals": {"kind": "weibull"}}],
            }
        )
    with pytest.raises(ValueError):
        ScenarioSpec.from_dict(
            {
                "name": "x", "duration_s": 10.0,
                "loads": [{"tenant": "t", "arrivals": {"kind": "constant", "rate_rps": 1.0}}],
                "faults": {"n_crashes": 1, "n_meteors": 2},
            }
        )
    with pytest.raises(ValueError):
        ScenarioSpec.from_dict([])  # not a dict
