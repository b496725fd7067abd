"""The chaos scenario as data: three SLA tiers through a fault campaign.

``ablation-faults``, the chaos soak, the determinism guard and the
goldens all run it as ``run_scenario(chaos_spec(duration_s), seed=seed,
**CHAOS_RUN)``: :data:`CHAOS_RUN` holds the deployment (SLA policy, two
replicas per tier, six clients, the :func:`chaos_testbed`).  Its three
WORST_FIT hosts put each tier's two replicas on different hosts;
:data:`NO_FAULTS` is the undisturbed baseline with the same resilience
stack.
"""

from __future__ import annotations

from repro.core import HUPTestbed, PlacementStrategy
from repro.host.machine import Host
from repro.scenario.spec import (
    ConstantArrivals,
    FaultPlan,
    ScenarioSpec,
    SizeModel,
    TenantLoad,
)

__all__ = ["CHAOS_RUN", "NO_FAULTS", "chaos_spec", "chaos_testbed"]

CLASSES = ("gold", "silver", "bronze")

#: The resilience stack armed, no fault injected.
NO_FAULTS = FaultPlan(n_crashes=0, n_stalls=0, n_outages=0, n_degrades=0)


def chaos_spec(duration_s: float, faults: FaultPlan = FaultPlan()) -> ScenarioSpec:
    """Gold, silver and bronze at 8 rps of 0.1 MB each, under ``faults``."""
    return ScenarioSpec(
        name="chaos",
        duration_s=duration_s,
        loads=tuple(
            TenantLoad(name, ConstantArrivals(8.0), SizeModel(mb=0.1), sla_class=name)
            for name in CLASSES
        ),
        faults=faults,
    )


def chaos_testbed(seed: int) -> HUPTestbed:
    """Three identical hosts, WORST_FIT placement."""
    tb = HUPTestbed(seed=seed, strategy=PlacementStrategy.WORST_FIT)
    for i in range(3):
        tb.add_host(
            Host(
                tb.sim, name=f"chaos{i}", cpu_mhz=2600.0, ram_mb=2048.0,
                disk_mb=60_000.0, disk_rate_mbs=50.0,
            )
        )
    tb.finalize()
    return tb


#: The deployment every chaos run uses: ``run_scenario``'s keyword
#: arguments besides the spec and seed.
CHAOS_RUN = dict(policy="sla", nodes_per_service=2, n_clients=6, platform=chaos_testbed)
