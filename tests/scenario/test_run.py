"""Run-layer tests: policy arms, conservation, hybrid-fidelity parity."""

from dataclasses import replace

import pytest

from repro.scenario.compile import compile_scenario
from repro.scenario.library import get_scenario
from repro.scenario.run import POLICIES, run_scenario
from repro.scenario.spec import ConstantArrivals, FaultPlan, ScenarioSpec, TenantLoad

DURATION_S = 12.0


def _spec(name="run-test", rate=3.0):
    return ScenarioSpec(
        name=name, duration_s=DURATION_S,
        loads=(
            TenantLoad(
                tenant="gold-web", arrivals=ConstantArrivals(rate_rps=rate),
                sla_class="gold",
            ),
            TenantLoad(
                tenant="bronze-web", arrivals=ConstantArrivals(rate_rps=rate),
                sla_class="bronze",
            ),
        ),
    )


def test_every_policy_conserves_requests():
    spec = _spec()
    compiled = compile_scenario(spec, seed=0)
    for policy in POLICIES:
        report = run_scenario(spec, seed=0, policy=policy, compiled=compiled)
        assert report.conservation_holds(), policy
        assert report.issued == compiled.total_arrivals, policy
        for tenant, stats in report.stats.items():
            assert stats.served + stats.failed + stats.shed == stats.issued, tenant


def test_policy_arms_share_one_workload_realisation():
    spec = _spec()
    reports = {p: run_scenario(spec, seed=1, policy=p) for p in POLICIES}
    shas = {r.compiled_sha for r in reports.values()}
    assert len(shas) == 1
    issued = {tuple(sorted((t, s.issued) for t, s in r.stats.items()))
              for r in reports.values()}
    assert len(issued) == 1


def test_run_digest_pure_and_seed_sensitive():
    spec = _spec()
    assert (
        run_scenario(spec, seed=3, policy="sla").digest()
        == run_scenario(spec, seed=3, policy="sla").digest()
    )
    assert (
        run_scenario(spec, seed=3, policy="sla").digest()
        != run_scenario(spec, seed=4, policy="sla").digest()
    )


def test_market_policy_prices_and_gates():
    # High offered load pushes utilization (and the spot rate) up; some
    # bronze bid should eventually fall below it.
    report = run_scenario(get_scenario("flash-crowd", 15.0), seed=0, policy="market")
    assert report.price_history, "the pricer must tick"
    assert report.conservation_holds()
    shed = sum(s.shed for s in report.stats.values())
    assert report.priced_out == shed  # market is the only shedder here


def test_fcfs_never_sheds():
    report = run_scenario(_spec(), seed=2, policy="fcfs")
    assert sum(s.shed for s in report.stats.values()) == 0
    assert report.priced_out == 0
    assert report.price_history == ()


def test_background_fleet_leaves_focus_digest_untouched():
    spec = _spec(name="parity")
    plain = run_scenario(spec, seed=5, policy="fcfs")
    under_fleet = run_scenario(spec, seed=5, policy="fcfs", background_hosts=40)
    assert under_fleet.background_hosts == 40
    assert under_fleet.digest() == plain.digest()


def test_faults_market_and_fleet_compose():
    # A fault campaign, the market gate and a fluid fleet in one run:
    # every request is still accounted for, and the focus digest —
    # faults section included — does not see the fleet.
    spec = replace(_spec(name="composed"), faults=FaultPlan())
    plain = run_scenario(spec, seed=5, policy="market", nodes_per_service=2)
    under_fleet = run_scenario(
        spec, seed=5, policy="market", nodes_per_service=2, background_hosts=40
    )
    for report in (plain, under_fleet):
        assert report.conservation_holds()
        assert report.faults.log, "the campaign must fire"
        # Every service serves again; a priced-out tenant's probe too.
        assert report.faults.probes_ok == len(spec.loads)
    assert plain.price_history
    assert under_fleet.digest() == plain.digest()


def test_mean_response_and_finished_at():
    report = run_scenario(_spec(), seed=6, policy="fcfs")
    assert report.mean_response_s("gold-web") > 0.0
    assert 0.0 < report.finished_at  # focus clock: last outcome instant
    last_outcome = max(t for t, _tenant, _o in report.outcomes)
    assert report.finished_at == last_outcome


def test_run_rejects_bad_inputs():
    spec = _spec()
    with pytest.raises(ValueError):
        run_scenario(spec, policy="lifo")
    with pytest.raises(ValueError):  # compiled under a different seed
        run_scenario(spec, seed=1, compiled=compile_scenario(spec, seed=2))
    with pytest.raises(ValueError):
        run_scenario(spec, background_hosts=-7)
