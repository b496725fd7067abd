"""Chaos soak: a seeded random fault campaign over the open-loop web workload.

Drives the fig4-style Poisson web workload (three SLA tiers, two
replicas each, spread across hosts) through the default seeded campaign
— node crashes, a host outage, a link stall, a LAN degrade — with the
full resilience stack armed.  The run itself completing is the "no
unhandled exceptions" half of the contract; the assertions pin the
accounting and recovery half.
"""

import pytest

from repro.faults.chaos import CHAOS_RUN, chaos_spec
from repro.scenario.run import run_scenario

SEEDS = [0, 7, 123]
DURATION_S = 40.0
WINDOW_S = 5.0


@pytest.fixture(scope="module", params=SEEDS)
def report(request):
    return run_scenario(chaos_spec(DURATION_S), seed=request.param, **CHAOS_RUN)


class TestChaosSoak:
    def test_faults_actually_happened(self, report):
        injected = [e for e in report.faults.log if e[3] == "inject"]
        assert injected, "campaign injected nothing"
        kinds = {kind for _t, kind, _target, _p in injected}
        assert "node_crash" in kinds

    def test_every_request_is_accounted_for(self, report):
        for name, stats in report.stats.items():
            assert stats.issued > 0
            assert stats.accounted == stats.issued, (
                f"{name}: served {stats.served} + failed {stats.failed} "
                f"+ shed {stats.shed} != issued {stats.issued}"
            )

    def test_availability_never_reaches_zero(self, report):
        timeline = report.availability_timeline(WINDOW_S)
        assert timeline, "no traffic observed"
        assert min(fraction for _start, fraction in timeline) > 0.0

    def test_watchdog_rebooted_crashed_nodes(self, report):
        reboots = [r for records in report.faults.reboots.values() for r in records]
        assert len(reboots) >= 1
        for detected, restored in reboots:
            assert restored - detected > 0.0

    def test_restored_nodes_serve_again(self, report):
        # After the campaign and the recovery tail, one probe request
        # per tier — all three must be served.
        assert report.faults.probes_ok == 3

    def test_gold_degrades_last(self, report):
        # Class-priority shedding: gold never sheds more than bronze.
        assert report.stats["gold"].shed <= report.stats["bronze"].shed
