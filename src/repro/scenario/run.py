"""Run a compiled scenario against the simulated HUP.

``run_scenario(spec, seed, policy)`` deploys one web-content service
per tenant load on a testbed built by ``platform(seed)`` — by default
the paper's §4 testbed (*seattle* + *tacoma*) — replays each tenant's
compiled arrival trace against its service switch, and accounts for
every request: ``served + failed + shed == issued`` holds for every
tenant in every run (the conservation invariant the property suite
pins).

Policy arms (the matrix dimension of the ``scenario-matrix``
experiment):

* ``fcfs`` — the paper's behaviour: no SLA, no shedding, first come
  first served at every switch.
* ``sla`` — each service carries the SLA contract of its load's class
  (gold/silver/bronze) and a capacity-aware
  :class:`~repro.sla.enforcement.ClassPriorityShedder`, so bronze sheds
  first under pressure.
* ``market`` — a spot gate in front of every switch: a
  :class:`~repro.market.pricing.SpotPricer` reprices platform capacity
  from master utilization on a seeded cadence, each tenant carries a
  bid drawn (by class) from the ``scenario:<name>:bids`` stream, and a
  request whose tenant is priced out (bid < spot rate at arrival) is
  shed at the gate without entering the switch.

Fault plans: a spec with a :class:`~repro.scenario.spec.FaultPlan`
arms switch retry and timeout budgets, a watchdog and health checker
per service (spawned right after its creation), and the campaign drawn
from the ``chaos-campaign`` stream over the deployed nodes; after the
drain one probe per tenant checks every service serves again.  The
report gains a :class:`FaultRecord`, its digest a ``faults`` section;
without a plan the digest is unchanged and the request path takes no
fault branch.  The probe skips the market arm's spot gate: it asks
whether the service recovered, not whether the tenant can afford it.

Background arms: ``background_hosts > 0`` attaches an aggregated fluid
fleet (:meth:`~repro.core.api.HUPTestbed.add_fluid_fleet`) for the
scenario's duration.  Fluid clusters own their own LAN segments and
``fluid:*`` streams, so the focus digest is bit-identical with the
fleet attached or not — the hybrid-fidelity contract, re-checked by a
``scenario-matrix`` comparison.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.core import (
    HUPTestbed,
    MachineConfig,
    ResourceRequirement,
    ServiceRecord,
    build_paper_testbed,
)
from repro.core.auth import Credentials
from repro.core.errors import RequestSheddedError, RequestTimeoutError, SODAError
from repro.core.recovery import NodeWatchdog
from repro.faults.health import SwitchHealthChecker
from repro.faults.injector import FaultInjector
from repro.faults.retry import BackoffPolicy
from repro.faults.schedule import seeded_campaign
from repro.image.profiles import paper_profiles
from repro.market.pricing import PricingParams, SpotPricer
from repro.scenario.compile import CompiledScenario, compile_scenario
from repro.scenario.spec import ScenarioSpec
from repro.sim.kernel import Event
from repro.sla import SLAContract
from repro.sla.enforcement import ClassPriorityShedder
from repro.workload.apps import web_request
from repro.workload.clients import ClientPool

__all__ = ["POLICIES", "ClassStats", "FaultRecord", "ScenarioReport", "run_scenario"]

POLICIES = ("fcfs", "sla", "market")

_CONTRACTS = {
    "gold": lambda: SLAContract.gold(p95_s=0.5),
    "silver": lambda: SLAContract.silver(p95_s=1.5),
    "bronze": lambda: SLAContract.bronze(p95_s=5.0),
}

#: Per-class spot bid ranges ($/machine-hour) for the market gate.
_BID_RANGES = {"gold": (1.5, 4.0), "silver": (0.8, 2.0), "bronze": (0.3, 1.0)}

# The resilience stack a fault plan arms: the switch's timeout budget,
# the watchdog and health-check cadence, a health probe's round-trip
# wait, and the recovery tail the guards outlive the load by so the last
# fault is repaired before the drain.  A degrade lasts _DEGRADE_S; the
# other fault durations are seeded_campaign's.
_REQUEST_TIMEOUT_S = 6.0
_WATCHDOG_POLL_S = 0.5
_HEALTH_PERIOD_S = 0.5
_PROBE_TIMEOUT_S = 0.4
_TAIL_S = 15.0
_DEGRADE_S = 6.0


@dataclass
class ClassStats:
    """Request accounting for one tenant."""

    issued: int = 0
    served: int = 0
    failed: int = 0
    shed: int = 0
    timeouts: int = 0  # sub-count of failed

    @property
    def accounted(self) -> int:
        return self.served + self.failed + self.shed


@dataclass
class FaultRecord:
    """What an armed :class:`FaultPlan` did; times relative to load start
    except the health checkers' own logs."""

    #: (time, fault kind, target, "inject" | "restore" | "skip").
    log: Tuple[Tuple[float, str, str, str], ...]
    #: tenant -> (detected_at, restored_at) per watchdog reboot.
    reboots: Dict[str, Tuple[Tuple[float, float], ...]]
    health: Dict[str, Tuple[Tuple[float, str, str], ...]]
    failovers: Dict[str, int]
    #: post-drain probes served, one probe per tenant.
    probes_ok: int


@dataclass
class ScenarioReport:
    """Everything observable about one scenario run."""

    scenario: str
    seed: int
    policy: str
    compiled_sha: str
    stats: Dict[str, ClassStats] = field(default_factory=dict)
    #: (relative time, tenant, "ok" | "failed" | "shed") per request.
    outcomes: Tuple[Tuple[float, str, str], ...] = ()
    #: tenant -> (sum of response times, max response time), exact floats.
    response_s: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: spot (time, utilization, rate) ticks; empty off the market arm.
    price_history: Tuple[Tuple[float, float, float], ...] = ()
    priced_out: int = 0
    background_hosts: int = 0
    finished_at: float = 0.0
    #: set when the spec arms a fault plan.
    faults: Optional[FaultRecord] = None

    @property
    def issued(self) -> int:
        return sum(s.issued for s in self.stats.values())

    @property
    def served(self) -> int:
        return sum(s.served for s in self.stats.values())

    def conservation_holds(self) -> bool:
        return all(s.accounted == s.issued for s in self.stats.values())

    def mean_response_s(self, tenant: str) -> float:
        total, _peak = self.response_s.get(tenant, (0.0, 0.0))
        count = self.stats[tenant].served
        return total / count if count else 0.0

    def availability_timeline(
        self, window_s: float
    ) -> Tuple[Tuple[float, float], ...]:
        """(window start, ok fraction) for every window that saw requests."""
        buckets: Dict[int, List[int]] = {}
        for time_rel, _tenant, outcome in self.outcomes:
            ok_total = buckets.setdefault(int(time_rel // window_s), [0, 0])
            ok_total[0] += outcome == "ok"
            ok_total[1] += 1
        return tuple(
            (index * window_s, ok / total)
            for index, (ok, total) in sorted(buckets.items())
        )

    def digest(self) -> dict:
        """Exact-float digest for the determinism guard (``==`` only)."""
        doc = {
            "scenario": self.scenario,
            "seed": self.seed,
            "policy": self.policy,
            "compiled": self.compiled_sha,
            "stats": {
                name: (s.issued, s.served, s.failed, s.shed)
                for name, s in sorted(self.stats.items())
            },
            "outcomes": self.outcomes,
            "response_s": dict(sorted(self.response_s.items())),
            "prices": self.price_history,
            "priced_out": self.priced_out,
            "finished_at": self.finished_at,
        }
        if self.faults is not None:
            doc["faults"] = {
                **vars(self.faults),
                "timeouts": {name: s.timeouts for name, s in sorted(self.stats.items())},
            }
        return doc


def _guard(
    tb: HUPTestbed, record: ServiceRecord, horizon_s: float
) -> Tuple[NodeWatchdog, SwitchHealthChecker]:
    """Arm one service's resilience stack until ``horizon_s`` from now:
    switch retry and timeout budget, node watchdog, health checker."""
    switch = record.switch
    switch.retry_policy = BackoffPolicy()
    switch.request_timeout_s = _REQUEST_TIMEOUT_S
    watchdog = NodeWatchdog(tb.sim, record, poll_s=_WATCHDOG_POLL_S)
    for host_name, daemon in tb.daemons.items():
        watchdog.attach_networking(host_name, daemon.networking)
    tb.spawn(watchdog.watch(horizon_s), name=f"watchdog:{switch.tenant}")
    checker = SwitchHealthChecker(
        tb.sim, switch, tb.lan,
        period_s=_HEALTH_PERIOD_S, probe_timeout_s=_PROBE_TIMEOUT_S,
    )
    tb.spawn(checker.run(horizon_s), name=f"health:{switch.tenant}")
    return watchdog, checker


def run_scenario(
    spec: ScenarioSpec,
    seed: int = 0,
    policy: str = "fcfs",
    compiled: Optional[CompiledScenario] = None,
    nodes_per_service: int = 1,
    n_clients: int = 4,
    background_hosts: int = 0,
    platform: Callable[[int], HUPTestbed] = build_paper_testbed,
) -> ScenarioReport:
    """Compile (unless given) and run one scenario cell to completion
    on the testbed ``platform(seed)`` builds."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
    if background_hosts < 0:
        raise ValueError(f"background_hosts must be >= 0, got {background_hosts}")
    if compiled is None:
        compiled = compile_scenario(spec, seed)
    elif compiled.spec != spec or compiled.seed != seed:
        raise ValueError("compiled scenario does not match (spec, seed)")

    tb = platform(seed)
    repo = tb.add_repository()
    for image in paper_profiles().values():
        repo.publish(image)
    tb.agent.register_asp("scenario-asp", "scenario-secret")
    creds = Credentials("scenario-asp", "scenario-secret")

    plan = spec.faults
    switches = {}
    guards: Dict[str, Tuple[NodeWatchdog, SwitchHealthChecker]] = {}
    for load in spec.loads:
        contract = _CONTRACTS[load.sla_class]() if policy == "sla" else None
        requirement = ResourceRequirement(
            n=nodes_per_service, machine=MachineConfig()
        )
        tb.run(
            tb.agent.service_creation(
                creds, load.tenant, repo, "web-content", requirement, sla=contract
            ),
            name=f"create:{load.tenant}",
        )
        record = tb.master.get_service(load.tenant)
        record.switch.tenant = load.tenant
        if policy == "sla":
            record.switch.shedder = ClassPriorityShedder(
                contract.service_class, capacity_aware=True
            )
        switches[load.tenant] = record.switch
        if plan is not None:
            guards[load.tenant] = _guard(tb, record, spec.duration_s + _TAIL_S)

    # The market arm: a spot gate priced from platform utilization.
    pricer: Optional[SpotPricer] = None
    bids: Dict[str, float] = {}
    if policy == "market":
        pricer = SpotPricer(
            PricingParams(interval_s=max(1.0, spec.duration_s / 30.0)),
            streams=tb.streams,
            utilization_fn=tb.master.utilization,
        )
        bid_stream = f"scenario:{spec.name}:bids"
        for load in spec.loads:  # declared order: draw sequence is part of the seed
            low, high = _BID_RANGES[load.sla_class]
            bids[load.tenant] = tb.streams.uniform(bid_stream, low, high)
        tb.spawn(pricer.run(tb.sim, spec.duration_s), name="scenario-spot")

    clients = ClientPool(tb.lan, n=n_clients)
    if background_hosts > 0:
        fleet = tb.add_fluid_fleet(
            n_hosts=background_hosts,
            n_clusters=max(1, min(4, background_hosts // 25)),
        )
        fleet.start(spec.duration_s)

    if plan is not None:
        nodes = [
            node for watchdog, _checker in guards.values()
            for node in watchdog.record.nodes
        ]
        injector = FaultInjector(tb.sim, tb.lan, nodes)
        injector.arm(
            seeded_campaign(
                tb.streams.spawn("chaos-campaign"),
                spec.duration_s,
                node_names=[node.name for node in nodes],
                host_names=list(tb.hosts),
                degrade_s=_DEGRADE_S,
                **asdict(plan),
            )
        )

    report = ScenarioReport(
        scenario=spec.name,
        seed=seed,
        policy=policy,
        compiled_sha=compiled.digest_sha(),
        stats={load.tenant: ClassStats() for load in spec.loads},
        background_hosts=background_hosts,
    )
    outcomes: List[Tuple[float, str, str]] = []
    response_s: Dict[str, List[float]] = {
        load.tenant: [0.0, 0.0] for load in spec.loads
    }
    start = tb.now

    def one_request(
        tenant: str, size_mb: float, gated: bool = True
    ) -> Generator[Event, Any, None]:
        stats = report.stats[tenant]
        if pricer is not None and gated and bids[tenant] < pricer.rate:
            report.priced_out += 1
            stats.shed += 1
            outcomes.append((tb.now - start, tenant, "shed"))
            return
        issued_at = tb.now
        request = web_request(clients.next_client(), size_mb, label=tenant)
        try:
            yield from switches[tenant].serve(request)
        except RequestSheddedError:
            stats.shed += 1
            outcomes.append((tb.now - start, tenant, "shed"))
        except RequestTimeoutError:
            stats.failed += 1
            stats.timeouts += 1
            outcomes.append((tb.now - start, tenant, "failed"))
        except SODAError:
            stats.failed += 1
            outcomes.append((tb.now - start, tenant, "failed"))
        else:
            stats.served += 1
            elapsed = tb.now - issued_at
            totals = response_s[tenant]
            totals[0] += elapsed
            totals[1] = max(totals[1], elapsed)
            outcomes.append((tb.now - start, tenant, "ok"))

    def drive(tenant: str) -> Generator[Event, Any, None]:
        for offset, size_mb in compiled.trace_of(tenant).arrivals:
            gap = start + offset - tb.now
            if gap > 0:
                yield tb.sim.timeout(gap)
            report.stats[tenant].issued += 1
            tb.spawn(one_request(tenant, size_mb), name=f"req:{tenant}")

    for load in spec.loads:
        tb.spawn(drive(load.tenant), name=f"drive:{load.tenant}")

    tb.sim.run()  # drain: drivers, requests, pricer, fleet, faults, guards

    if plan is not None:
        # Post-drain probe: every service must serve again once the
        # last fault is repaired (part of the run, hence of the digest).
        probes_from = len(outcomes)
        for load in spec.loads:
            report.stats[load.tenant].issued += 1
            tb.run(
                one_request(load.tenant, load.sizes.mb, gated=False),
                name=f"post:{load.tenant}",
            )
        report.faults = FaultRecord(
            log=tuple(injector.log),
            reboots={
                tenant: tuple(
                    (r.detected_at - start, r.restored_at - start)
                    for r in watchdog.history
                )
                for tenant, (watchdog, _checker) in guards.items()
            },
            health={
                tenant: tuple(checker.log)
                for tenant, (_watchdog, checker) in guards.items()
            },
            failovers={tenant: switch.failovers for tenant, switch in switches.items()},
            probes_ok=sum(1 for _t, _n, o in outcomes[probes_from:] if o == "ok"),
        )
    report.outcomes = tuple(outcomes)
    report.response_s = {
        tenant: (totals[0], totals[1]) for tenant, totals in response_s.items()
    }
    if pricer is not None:
        report.price_history = tuple(pricer.history)
    # Focus clock, not drain clock: a background fleet (or the pricer)
    # may outlive the last focus request, and the hybrid-fidelity
    # contract promises the *focus* digest is fleet-independent.
    report.finished_at = max((t for t, _tenant, _o in outcomes), default=0.0)
    return report
