"""Ablation — fault injection, failover, and recovery (extension).

Paper §3.5: SODA "only helps to 'jail' the impact of fault or attack
within one service instead of 'saving' the service" — so this ablation
measures what the *extension* stack (switch health quarantine, retry
with capped backoff, capacity-aware shedding, watchdog reboots) buys on
top of that jail.  The same three-tier deployment and Poisson load
(:func:`~repro.faults.chaos.chaos_spec`) runs twice through
:func:`~repro.scenario.run.run_scenario` — once with the stack armed
but no faults, once through a seeded chaos campaign (node crashes, a
host outage, a link stall, a LAN degrade) — and the table
reports per-class request accounting, availability, and watchdog
recovery times.

The headline claims, encoded as comparisons: every request is accounted
for (served + failed + shed == issued), and platform availability never
reaches zero in any observation window — replicated tiers keep serving
while crashed nodes reboot.
"""

from __future__ import annotations

from repro.faults.chaos import CHAOS_RUN, NO_FAULTS, chaos_spec
from repro.metrics.report import ExperimentResult
from repro.scenario.run import run_scenario
from repro.scenario.spec import FaultPlan

EXPERIMENT_ID = "ablation-faults"
TITLE = "Chaos campaign: per-class availability and watchdog recovery"

DURATION_S = 80.0
FAST_DURATION_S = 40.0
#: Width of the availability-timeline windows (s).
WINDOW_S = 5.0


def run(seed: int = 0, fast: bool = False) -> ExperimentResult:
    duration_s = FAST_DURATION_S if fast else DURATION_S
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        headers=[
            "config", "class", "issued", "served", "failed", "shed",
            "availability", "failovers", "reboots", "mean recovery (s)",
        ],
    )
    configs = (
        ("baseline", NO_FAULTS),
        ("chaos", FaultPlan()),
    )
    reports = {}
    for label, plan in configs:
        report = run_scenario(chaos_spec(duration_s, plan), seed=seed, **CHAOS_RUN)
        reports[label] = report
        for name, stats in report.stats.items():
            reboots = report.faults.reboots[name]
            recoveries = [restored - detected for detected, restored in reboots]
            mean_recovery = (
                sum(recoveries) / len(recoveries) if recoveries else 0.0
            )
            result.add_row(
                label, name, stats.issued, stats.served, stats.failed,
                stats.shed, f"{stats.served / stats.issued:.4f}",
                report.faults.failovers[name], len(reboots),
                f"{mean_recovery:.2f}" if recoveries else "-",
            )

    chaos = reports["chaos"]
    baseline = reports["baseline"]
    timeline = chaos.availability_timeline(WINDOW_S)
    reboots = sum(len(r) for r in chaos.faults.reboots.values())

    # Conservation: the harness accounts for every request it issued.
    issued = chaos.issued
    accounted = sum(s.accounted for s in chaos.stats.values())
    result.compare(
        "chaos request conservation (accounted/issued)", 1.0,
        accounted / issued if issued else 0.0, tolerance_rel=0.0,
    )
    # Availability never reaches zero in any window: failover keeps the
    # platform serving while crashed nodes reboot.  Encoded as "min
    # window availability is within 90% of 1.0" => must exceed 0.1.
    result.compare(
        "min-window platform availability under chaos", 1.0,
        min((fraction for _start, fraction in timeline), default=1.0),
        tolerance_rel=0.9,
        note="must stay above zero throughout the campaign",
    )
    # The faults actually happened and were actually repaired.
    crashlike = sum(
        1 for _t, kind, _target, phase in chaos.faults.log
        if phase == "inject" and kind in ("node_crash", "host_outage")
    )
    result.compare(
        "watchdog reboots vs injected crash-like faults",
        float(crashlike), float(reboots), tolerance_rel=1.0,
        note="an outage crashes several guests at once, so reboots may exceed events",
    )
    # Undisturbed run sanity: nothing fails without faults (paper=0
    # makes the tolerance an absolute bound).
    baseline_failed = sum(s.failed for s in baseline.stats.values())
    result.compare(
        "baseline failed requests", 0.0, float(baseline_failed),
        tolerance_rel=0.0,
    )

    result.series["platform availability vs time (s), chaos"] = (
        [start for start, _ in timeline],
        [fraction for _, fraction in timeline],
    )
    result.notes = (
        f"Chaos campaign: {len(chaos.faults.log)} fault-log entries, "
        f"{reboots} watchdog reboots, per-class shed counts "
        + ", ".join(
            f"{name}={stats.shed}" for name, stats in chaos.stats.items()
        )
        + ". Replicas are spread across hosts (WORST_FIT), so every tier "
        "keeps at least one live node through single-host faults; the "
        "switch quarantines dead replicas and retries with capped "
        "backoff, and bronze sheds first when capacity drops."
    )
    return result
