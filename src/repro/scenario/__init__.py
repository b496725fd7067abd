"""Declarative scenario library + compilation + replay (extension).

Frozen workload specs (:mod:`repro.scenario.spec`) compile to seeded
per-tenant arrival traces (:mod:`repro.scenario.compile`) that drive
the platform under a policy arm (:mod:`repro.scenario.run`).  Named
families live in :mod:`repro.scenario.library`; ``soda-scenarios`` is
the CLI; the ``scenario-matrix`` experiment fans scenario x policy x
seed cells.
"""

from repro.scenario.compile import CompiledScenario, compile_scenario
from repro.scenario.library import LIBRARY, get_scenario, list_scenarios
from repro.scenario.run import POLICIES, ScenarioReport, run_scenario
from repro.scenario.spec import (
    ArrivalModel,
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

__all__ = [
    "ArrivalModel",
    "BurstEnvelope",
    "CompiledScenario",
    "ConstantArrivals",
    "DiurnalArrivals",
    "FaultPlan",
    "FlashCrowdArrivals",
    "LIBRARY",
    "POLICIES",
    "ReplayArrivals",
    "ScenarioReport",
    "ScenarioSpec",
    "SizeModel",
    "TenantLoad",
    "compile_scenario",
    "get_scenario",
    "list_scenarios",
    "run_scenario",
]
