"""The four benchmark workloads over the SODA simulator.

Each workload is a fixed list of *cells*: one simulated run at one seed.
A benchmark run derives its cell seeds from ``--seed``
(``seed * cells + k``), builds every input during set-up, and then runs
the cells.  A cell reports its host wall time, its simulated request
accounting, a digest of its simulated output and the correctness checks
it passed.  Nothing here measures more than a cell's own wall time;
:mod:`measure` aggregates cells into metrics and :mod:`layers` attributes
a traced cell's wall time to layers.

Every simulated load is open loop in *simulated* time: compiled arrival
offsets (or seeded fluid arrival streams) fire whether or not earlier
requests finished.  On the host a cell is a batch job.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

#: The 18 registered experiments a user runs to reproduce the paper:
#: every one except ``fleet-scale``, ``federation-scale`` and
#: ``scenario-matrix``, whose layers the other workloads cover.  Fixed
#: here so that registering a new experiment does not change the work.
SUITE = (
    "table1", "table2", "table3", "table4",
    "fig3", "fig4", "fig5", "fig6", "download",
    "ablation-bridge-proxy", "ablation-ddos", "ablation-faults",
    "ablation-inflation", "ablation-policies", "ablation-placement",
    "ablation-scheduler-shares", "ablation-tailoring", "ablation-market",
)


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


@dataclass
class CellResult:
    """One simulated run: host wall time, accounting, digest, checks."""

    seed: int
    wall_s: float
    #: Operations attempted: simulated requests issued, or experiments
    #: run on ``experiment-suite``.
    attempted: int
    #: Operations that succeeded: requests served, or experiments within
    #: tolerance.
    succeeded: int
    #: Simulated requests the host-time and response metrics divide by.
    requests: int
    served: int
    response_s: float
    digest: str
    checks: Dict[str, bool]
    #: Host wall seconds of the cell's parts (one per suite experiment).
    parts: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Simulated runs per benchmark run, each at its own seed.
    cells: int
    #: (cell seeds, scale) -> state holding every input of every cell
    setup: Callable[[List[int], float], Any]
    #: (state, cell index, variant) -> CellResult.  ``variant`` selects a
    #: comparison arm used only by the traced run ("hub-off", "serial").
    run_cell: Callable[..., CellResult]


def sha256_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- scenario workloads ------------------------------------------------------

def request_path_spec(scale: float):
    from repro.scenario.library import diurnal

    return diurnal(900.0 * scale)


def burst_observed_spec(scale: float):
    """A gold tenant hit by an 8x flash crowd next to a heavy-tailed
    bronze bystander, both inside one shared 3x burst envelope.

    Bursts are short and frequent (mean 1 s calm, 0.25 s burst) so a
    100 s run holds about 80 of them and seeds load the platform alike.
    """
    from repro.scenario.spec import (
        BurstEnvelope,
        ConstantArrivals,
        FlashCrowdArrivals,
        ScenarioSpec,
        SizeModel,
        TenantLoad,
    )

    duration = 100.0 * scale
    return ScenarioSpec(
        name="burst-observed",
        duration_s=duration,
        loads=(
            TenantLoad(
                tenant="flash",
                arrivals=FlashCrowdArrivals(
                    base_rps=10.0, spike_factor=8.0, at_s=duration / 3.0,
                    ramp_s=duration / 18.0, hold_s=duration / 9.0,
                    decay_s=duration / 9.0,
                ),
                sizes=SizeModel(kind="fixed", mb=0.06),
                sla_class="gold",
            ),
            TenantLoad(
                tenant="bystander",
                arrivals=ConstantArrivals(rate_rps=10.0),
                sizes=SizeModel(kind="pareto", mb=0.03, alpha=1.3, cap_mb=2.0),
                sla_class="bronze",
            ),
        ),
        bursts=BurstEnvelope(factor=3.0, mean_calm_s=1.0, mean_burst_s=0.25),
    )


def _scenario_setup(spec_fn: Callable[[float], Any]):
    def setup(seeds: List[int], scale: float):
        from repro.scenario.compile import compile_scenario

        spec = spec_fn(scale)
        began = time.perf_counter()
        cells = [(seed, spec, compile_scenario(spec, seed)) for seed in seeds]
        return {"cells": cells, "compile_s": time.perf_counter() - began}

    return setup


def _scenario_cell(policy: str, observed: bool):
    def run_cell(state, index: int, variant: str = "") -> CellResult:
        from repro.obs import Observability
        from repro.scenario.run import run_scenario

        seed, spec, compiled = state["cells"][index]
        hub = Observability() if observed and variant != "hub-off" else None
        began = time.perf_counter()
        if hub is not None:
            with hub.activate():
                report = run_scenario(spec, seed=seed, policy=policy, compiled=compiled)
        else:
            report = run_scenario(spec, seed=seed, policy=policy, compiled=compiled)
        wall = time.perf_counter() - began

        stats = report.stats.values()
        issued = report.issued
        served = report.served
        shed = sum(s.shed for s in stats)
        response_s = sum(total for total, _peak in report.response_s.values())
        detail: Dict[str, Any] = {"shed": shed, "failed": sum(s.failed for s in stats)}
        if hub is not None:
            waits = [
                span.end - span.start
                for span in hub.tracer.spans()
                if span.name == "queue_wait" and span.end is not None
            ]
            detail["queue_wait_s"] = sum(waits) / len(waits) if waits else 0.0
            detail["program_spans"] = len(hub.tracer.spans())
        return CellResult(
            seed=seed,
            wall_s=wall,
            attempted=issued,
            succeeded=served,
            requests=issued,
            served=served,
            response_s=response_s,
            digest=sha256_of(repr(report.digest())),
            checks={
                "conservation": report.conservation_holds() and issued > 0,
                "served": served > 0,
            },
            detail=detail,
        )

    return run_cell


# -- federated-fleet ------------------------------------------------------------

def _federation_setup(seeds: List[int], scale: float):
    from repro.experiments.federation_scale import build_topology

    # The heavy background fleets of the federated_parallel_throughput
    # bench: 4 clusters x 50 hosts, 8 fluid services each.
    topology = build_topology(
        n_hosts=50, geo_rps=150.0, n_placements=3,
        background_rps=1200.0, n_background=8, background_mean_batch=10,
    )
    return {"topology": topology, "seeds": seeds, "duration_s": 3.0 * scale}


def _federation_cell(state, index: int, variant: str = "") -> CellResult:
    from repro.sim.parallel import run_federation

    seed = state["seeds"][index]
    workers = 1 if variant == "serial" else min(2, usable_cores())
    began = time.perf_counter()
    run = run_federation(
        state["topology"], duration_s=state["duration_s"], seed=seed, n_workers=workers
    )
    wall = time.perf_counter() - began

    digests = run.digests.values()
    geo = [d["geo"] for d in digests]
    fluid = [
        service
        for d in digests
        if d["fluid"] is not None
        for service in d["fluid"]["services"].values()
    ]
    issued_remote = sum(g[1] for g in geo)
    requests = run.total_requests
    # Fluid requests are served in their batch; local geo requests are
    # served where they arise; remote ones count once replied.
    served = sum(s[0] for s in fluid) + sum(g[0] + g[3] for g in geo)
    response_s = (
        sum(s[2] for s in fluid) + sum(g[4] + g[5] for g in geo)
    )
    msgs = [d["msgs"] for d in digests]
    return CellResult(
        seed=seed,
        wall_s=wall,
        attempted=requests,
        succeeded=served,
        requests=requests,
        served=served,
        response_s=response_s,
        digest=run.digest_sha,
        checks={
            "conservation": served == requests
            and issued_remote == sum(g[2] for g in geo),
            "messages_delivered": sum(m[0] for m in msgs) == sum(m[1] for m in msgs)
            and all(d["pending"] == 0 for d in digests),
            "served": requests > 0,
        },
        detail={
            "workers": run.n_workers,
            "epochs": run.epochs,
            "msgs_per_epoch": run.msgs_per_epoch,
            "barrier_stall_fraction": run.barrier_stall_fraction,
            "critical_path_s": run.critical_path_s,
            "worker_busy_s": sum(run.worker_busy_s),
        },
    )


# -- experiment-suite ------------------------------------------------------------

def _suite_setup(seeds: List[int], scale: float):
    from repro.experiments import runner

    registry = runner._experiments()  # imports every experiment module
    missing = [eid for eid in SUITE if eid not in registry]
    if missing:
        raise KeyError(f"experiments not registered: {missing}")
    # Below full scale (the benchmark's own tests) run the fast arms.
    return {"seeds": seeds, "fast": scale < 1.0}


class NodeResponses:
    """Counts node-served requests and their simulated residence time.

    The experiments keep no shared request ledger, so the suite's request
    count comes from :class:`~repro.core.node.NodeResponse`, which every
    node builds once per served request.  The patch adds one Python call
    per response and changes no simulated state.
    """

    def __init__(self) -> None:
        self.count = 0
        self.elapsed_s = 0.0

    def __enter__(self) -> "NodeResponses":
        from repro.core.node import NodeResponse

        original = NodeResponse.__init__
        self._original = original
        counter = self

        def counted(response, *args: Any, **kwargs: Any) -> None:
            original(response, *args, **kwargs)
            counter.count += 1
            counter.elapsed_s += response.finished_at - response.started_at

        NodeResponse.__init__ = counted
        return self

    def __exit__(self, *exc_info: Any) -> None:
        from repro.core.node import NodeResponse

        NodeResponse.__init__ = self._original


def _suite_cell(state, index: int, variant: str = "") -> CellResult:
    from repro.experiments.runner import run_experiment

    seed = state["seeds"][index]
    walls: Dict[str, float] = {}
    within: Dict[str, bool] = {}
    renders: List[str] = []
    began = time.perf_counter()
    with NodeResponses() as responses:
        for eid in SUITE:
            started = time.perf_counter()
            try:
                result = run_experiment(eid, seed=seed, fast=state["fast"])
            except Exception as exc:  # an experiment that raises fails its check
                within[eid] = False
                renders.append(f"{eid} raised {type(exc).__name__}: {exc}")
            else:
                within[eid] = result.all_within_tolerance
                renders.append(result.render())
            walls[eid] = time.perf_counter() - started
    wall = time.perf_counter() - began
    ok = sum(within.values())
    return CellResult(
        seed=seed,
        wall_s=wall,
        attempted=len(SUITE),
        succeeded=ok,
        requests=responses.count,
        served=responses.count,
        response_s=responses.elapsed_s,
        digest=sha256_of("\n".join(renders)),
        checks={
            "all_within_tolerance": ok == len(SUITE),
            "served": responses.count > 0,
        },
        parts=walls,
        detail={"failed_experiments": sorted(eid for eid, good in within.items() if not good)},
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="request-path",
            cells=12,
            setup=_scenario_setup(request_path_spec),
            run_cell=_scenario_cell("fcfs", observed=False),
        ),
        Workload(
            name="burst-observed",
            cells=16,
            setup=_scenario_setup(burst_observed_spec),
            run_cell=_scenario_cell("sla", observed=True),
        ),
        Workload(
            name="federated-fleet",
            cells=10,
            setup=_federation_setup,
            run_cell=_federation_cell,
        ),
        Workload(
            name="experiment-suite",
            cells=4,
            setup=_suite_setup,
            run_cell=_suite_cell,
        ),
    )
}


def cell_seeds(workload: Workload, seed: int) -> List[int]:
    return [seed * workload.cells + k for k in range(workload.cells)]


def mean_or_zero(total: float, count: int) -> float:
    return total / count if count else 0.0
