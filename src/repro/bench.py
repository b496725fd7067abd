"""Wall-clock benchmarks of the simulation substrate, with a tracked baseline.

Unlike the experiment benches under ``benchmarks/`` (which regenerate the
paper's tables and figures), these measure the *reproduction pipeline's own
cost*: event-kernel throughput, LAN fluid recomputation under flow churn,
scheduler quantum loops, and a full service-creation round trip.  Every
experiment pays these costs, so regressions here slow the whole repo down.

``python -m repro.bench`` runs every bench several times and appends one
entry (min/median wall-clock per bench, plus the capturing git commit) to
``BENCH_simulator.json``.  The file accumulates a trajectory across PRs::

    {"schema": 1, "entries": [
        {"label": "...", "python": "3.11.7", "commit": "abc1234", "results": {
            "kernel_event_throughput": {"min_s": ..., "median_s": ..., "rounds": 5},
            ...}},
        ...]}

Re-capturing an existing label *replaces* the old entry with a loud
warning (never silently), so a label always names exactly one capture.
*Composite* benches (``fn.composite = True``) measure several variants
internally and merge extra numeric fields — e.g. a discrete-vs-fluid
speedup — into their result dict alongside ``min_s``/``median_s``.

``--compare`` prints the speedup of the newest entry against the first (or
``--against LABEL``); ``--check MIN`` exits non-zero unless every compared
bench meets the given speedup factor; ``--validate`` checks the history
file against the schema and exits; ``--gate MAX_DROP`` runs the selected
benches and fails on a throughput regression worse than ``MAX_DROP``
against the newest committed entry that measured each bench (the CI
regression gate — it never writes the file).  Timings are
machine-dependent, so comparisons and the gate are only meaningful
between entries produced on one machine.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "BENCHES", "run_benches", "load_history", "validate_history", "gate", "main",
]

BENCH_FILE = "BENCH_simulator.json"
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Bench workloads.  These are imported by benchmarks/test_bench_simulator_perf
# so the pytest-benchmark suite and this CLI measure the exact same work.
# ---------------------------------------------------------------------------

def bench_kernel_event_throughput() -> float:
    """Process 100k timeout events through 10 concurrent processes."""
    from repro.sim import Simulator

    sim = Simulator()

    def ticker(sim, n):
        for _ in range(n):
            yield sim.timeout(1.0)

    for _ in range(10):
        sim.process(ticker(sim, 10_000))
    sim.run()
    assert sim.now == 10_000.0
    return sim.now


def bench_lan_flow_churn() -> float:
    """2000 staggered flows through the max-min fair allocator."""
    from repro.net.lan import LAN
    from repro.sim import Simulator
    from repro.sim.rng import RandomStreams

    sim = Simulator()
    lan = LAN(sim, bandwidth_mbps=100.0)
    nics = [lan.nic(f"n{i}", 1000.0) for i in range(20)]
    streams = RandomStreams(seed=0)

    def source(sim, src, dst):
        for _ in range(100):
            flow = lan.transfer(src, dst, size_mb=streams.uniform("s", 0.05, 0.5))
            yield flow.done

    for i in range(10):
        sim.process(source(sim, nics[2 * i], nics[2 * i + 1]))
    sim.run()
    assert sim.now > 0
    return sim.now


def bench_scheduler_quantum_loop() -> float:
    """60 simulated seconds of stride scheduling (6000 quanta)."""
    from repro.host.scheduler import ProportionalShareScheduler, figure5_groups
    from repro.sim.rng import RandomStreams

    scheduler = ProportionalShareScheduler(figure5_groups(), RandomStreams(0))
    trace = scheduler.run(60.0)
    assert abs(trace.horizon_s - 60.0) < 0.011
    return trace.horizon_s


def bench_service_creation_roundtrip() -> float:
    """Full create -> teardown through Agent/Master/Daemon/UML."""
    from repro.core import MachineConfig, ResourceRequirement, build_paper_testbed
    from repro.core.auth import Credentials
    from repro.image.profiles import make_s1_web_content

    testbed = build_paper_testbed(seed=0)
    repo = testbed.add_repository()
    repo.publish(make_s1_web_content())
    testbed.agent.register_asp("acme", "supersecret")
    creds = Credentials("acme", "supersecret")
    requirement = ResourceRequirement(n=2, machine=MachineConfig())
    testbed.run(
        testbed.agent.service_creation(creds, "web", repo, "web-content", requirement)
    )
    testbed.run(testbed.agent.service_teardown(creds, "web"))
    assert testbed.now > 0
    return testbed.now


def bench_admission_decision_throughput() -> float:
    """50k economic admission decisions across the outcome space.

    The admission gate sits on the ``SODA_service_creation`` hot path
    (and the scenario queue drain re-scores on every repricing), so its
    per-decision cost bounds how many tenants a market run can carry.
    """
    from repro.market.admission import EconomicAdmission
    from repro.sla.contract import SLAContract

    policy = EconomicAdmission()
    sla = SLAContract.gold()
    for i in range(50_000):
        policy.decide(
            bid_per_m_hour=0.5 + (i % 40) * 0.1,
            remaining_budget=float(i % 7),
            n_units=1 + i % 4,
            hold_s=60.0 + (i % 10) * 30.0,
            spot_rate=1.0 + (i % 8) * 0.25,
            utilization=(i % 100) / 100.0,
            sla=sla if i % 2 else None,
            capacity_available=bool(i % 3),
        )
    assert policy.decided == 50_000
    return float(policy.decided)


def bench_fleet_scale_throughput() -> Dict[str, float]:
    """1000 hosts, >=1M background requests, fluid vs discrete fidelity.

    The composite's headline fields: how many kernel events and
    wall-clock seconds each fidelity pays *per request*.  The discrete
    arm runs a short slice of the same workload (running it to 1M
    requests discretely is exactly the cost this PR removes) and the
    normalized ratios carry the comparison.
    """
    from repro.sim.fluid import FluidBackgroundLoad, FluidCluster, FluidServiceSpec
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RandomStreams

    specs = [
        FluidServiceSpec(name="web", arrival_rps=20_000.0, mean_batch=100),
        FluidServiceSpec(
            name="api", arrival_rps=10_000.0, mean_batch=50, service_s=0.002,
            response_mb=0.005,
        ),
        FluidServiceSpec(
            name="batch", arrival_rps=5_000.0, mean_batch=200, service_s=0.008,
        ),
    ]

    def run(fidelity: str, duration_s: float):
        sim = Simulator()
        streams = RandomStreams(seed=0)
        clusters = [FluidCluster(sim, f"c{i}", n_hosts=50) for i in range(20)]
        load = FluidBackgroundLoad(sim, streams, clusters, specs, fidelity=fidelity)
        proc = sim.process(load.run(duration_s))
        start = time.perf_counter()
        report = sim.run_until_process(proc)
        wall = time.perf_counter() - start
        return report.total_requests, sim.events_scheduled, wall

    fluid_reqs, fluid_events, fluid_wall = run("fluid", 30.0)
    discrete_reqs, discrete_events, discrete_wall = run("discrete", 0.5)
    assert fluid_reqs >= 1_000_000, f"fleet arm too small: {fluid_reqs} requests"
    fluid_ev = fluid_events / fluid_reqs
    discrete_ev = discrete_events / discrete_reqs
    fluid_w = fluid_wall / fluid_reqs
    discrete_w = discrete_wall / discrete_reqs
    return {
        "fluid_requests": fluid_reqs,
        "fluid_kernel_events": fluid_events,
        "fluid_wall_s": round(fluid_wall, 4),
        "discrete_requests": discrete_reqs,
        "discrete_kernel_events": discrete_events,
        "discrete_wall_s": round(discrete_wall, 4),
        "event_reduction_x": round(discrete_ev / fluid_ev, 2),
        "wall_speedup_x": round(discrete_w / fluid_w, 2),
    }


bench_fleet_scale_throughput.composite = True


def bench_switch_dispatch_throughput() -> Dict[str, float]:
    """Bursty arrivals through one switch, batched vs unbatched dispatch.

    15 waves of 40 concurrent requests against a 3-node service; the
    batched arm coalesces each wave into shared dispatcher/classify/
    forward work.  A third arm runs the batched dispatch with a retry
    policy and a timeout budget installed (no faults), which gives the
    composed attempt pipeline its own layer number.  Event counts are
    deterministic, wall clocks are the measured win.
    """
    from repro.core import MachineConfig, ResourceRequirement, build_paper_testbed
    from repro.core.auth import Credentials
    from repro.core.node import Request
    from repro.faults.retry import BackoffPolicy
    from repro.guestos.syscall import SyscallMix
    from repro.image.profiles import make_s1_web_content

    def run(batched: bool, guarded: bool = False):
        testbed = build_paper_testbed(seed=0)
        repo = testbed.add_repository()
        repo.publish(make_s1_web_content())
        testbed.agent.register_asp("acme", "supersecret")
        creds = Credentials("acme", "supersecret")
        requirement = ResourceRequirement(n=3, machine=MachineConfig())
        testbed.run(
            testbed.agent.service_creation(creds, "web", repo, "web-content", requirement)
        )
        record = testbed.master.get_service("web")
        if batched:
            record.switch.enable_batching(window_s=0.002, max_batch=64)
        if guarded:
            record.switch.retry_policy = BackoffPolicy()
            record.switch.request_timeout_s = 30.0
        client = testbed.add_client("client-1")
        mix = SyscallMix(user_mcycles=1.2, n_syscalls=33)

        def waves(sim):
            for _ in range(15):
                procs = [
                    sim.process(
                        record.switch.serve(
                            Request(client=client, response_mb=0.1, mix=mix)
                        )
                    )
                    for _ in range(40)
                ]
                for p in procs:
                    yield p

        before = testbed.sim.events_scheduled
        start = time.perf_counter()
        testbed.run(waves(testbed.sim))
        wall = time.perf_counter() - start
        assert record.switch.dispatched == 600
        return testbed.sim.events_scheduled - before, wall, record.switch

    unbatched_events, unbatched_wall, _ = run(batched=False)
    batched_events, batched_wall, switch = run(batched=True)
    guarded_events, guarded_wall, guarded = run(batched=True, guarded=True)
    assert batched_events < unbatched_events
    assert guarded.failovers == guarded.timeouts == 0
    return {
        "unbatched_events": unbatched_events,
        "batched_events": batched_events,
        "batches_dispatched": switch.batches_dispatched,
        "event_reduction_x": round(unbatched_events / batched_events, 2),
        "wall_speedup_x": round(unbatched_wall / batched_wall, 2),
        "guarded_batched_events": guarded_events,
        "guarded_overhead_x": round(guarded_wall / batched_wall, 2),
    }


bench_switch_dispatch_throughput.composite = True


def bench_federated_parallel_throughput() -> Dict[str, float]:
    """The 4-cluster federated composite: sub-kernel workers vs serial.

    Runs the ``federation-scale`` topology (heavier background fleets)
    under worker counts 1/2/4/8 — 8 caps at the 4 shards — and reports
    measured wall clocks and speedups plus the structural metrics of
    the epoch barrier: messages per epoch, and at 4 workers the
    barrier-stall (load-imbalance) fraction and the measured critical
    path (sum over epochs of the slowest worker's shard CPU).  Speedups
    are only meaningful when ``cores`` exceeds 1.  Digest equality
    across all arms is asserted, so every arm does identical
    simulation work.
    """
    import os

    from repro.experiments.federation_scale import build_topology
    from repro.obs.federation import FederationObservability
    from repro.sim.parallel import run_federation

    topology = build_topology(
        n_hosts=50, geo_rps=150.0, n_placements=3,
        background_rps=1200.0, n_background=8, background_mean_batch=10,
    )
    duration_s = 4.0
    runs = {}
    for n_workers in (1, 2, 4, 8):
        runs[n_workers] = run_federation(
            topology, duration_s=duration_s, seed=0, n_workers=n_workers
        )
    serial = runs[1]
    for n_workers, run in runs.items():
        assert run.digest_sha == serial.digest_sha, (
            f"digest mismatch at {n_workers} workers"
        )
    # One serial arm with the full federation observability stack on —
    # observe-never-perturb means the digest must not move, and the
    # wall-clock ratio is the stack's measured overhead.
    observed = run_federation(
        topology, duration_s=duration_s, seed=0, n_workers=1,
        obs=FederationObservability(),
    )
    assert observed.digest_sha == serial.digest_sha, "obs perturbed the digest"
    four = runs[4]
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return {
        "requests": serial.total_requests,
        "epochs": serial.epochs,
        "messages": serial.messages,
        "msgs_per_epoch": round(serial.msgs_per_epoch, 2),
        "wall_serial_s": round(serial.wall_s, 4),
        "wall_2w_s": round(runs[2].wall_s, 4),
        "wall_4w_s": round(four.wall_s, 4),
        "wall_8w_s": round(runs[8].wall_s, 4),
        "speedup_2w_x": round(serial.wall_s / runs[2].wall_s, 2),
        "speedup_4w_x": round(serial.wall_s / four.wall_s, 2),
        "barrier_stall_fraction_4w": round(four.barrier_stall_fraction, 3),
        "critical_path_4w_s": round(four.critical_path_s, 4),
        "wall_serial_obs_s": round(observed.wall_s, 4),
        "obs_overhead_x": round(observed.wall_s / serial.wall_s, 3),
        "obs_spans": len(observed.observability.spans),
        "digest_match": 1,
        "cores": cores,
    }


bench_federated_parallel_throughput.composite = True


#: bench name -> (callable, default rounds).
BENCHES: Dict[str, tuple] = {
    "kernel_event_throughput": (bench_kernel_event_throughput, 5),
    "lan_flow_churn": (bench_lan_flow_churn, 5),
    "scheduler_quantum_loop": (bench_scheduler_quantum_loop, 5),
    "service_creation_roundtrip": (bench_service_creation_roundtrip, 3),
    "admission_decision_throughput": (bench_admission_decision_throughput, 5),
    "fleet_scale_throughput": (bench_fleet_scale_throughput, 2),
    "switch_dispatch_throughput": (bench_switch_dispatch_throughput, 3),
    "federated_parallel_throughput": (bench_federated_parallel_throughput, 1),
}


# ---------------------------------------------------------------------------
# Harness.
# ---------------------------------------------------------------------------

def _git_commit() -> Optional[str]:
    """Short hash of HEAD (with ``+dirty`` when the tree has changes)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if commit.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10,
        )
        dirty = "+dirty" if status.returncode == 0 and status.stdout.strip() else ""
        return commit.stdout.strip() + dirty
    except (OSError, subprocess.TimeoutExpired):
        return None


def _time_one(fn: Callable[[], object], rounds: int) -> Dict[str, object]:
    value = fn()  # warm-up round: imports, allocator pools, code caches
    times: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - start)
    result: Dict[str, object] = {
        "min_s": round(min(times), 6),
        "median_s": round(statistics.median(times), 6),
        "rounds": rounds,
    }
    if getattr(fn, "composite", False):
        # Composite benches time their variants internally and return a
        # dict of extra numeric fields (e.g. discrete-vs-fluid speedup,
        # kernel event counts) from the *last* round, merged alongside
        # the outer wall-clock stats.
        if not isinstance(value, dict):
            raise TypeError(f"composite bench returned {type(value).__name__}, not dict")
        for key, extra in value.items():
            if key in result:
                raise ValueError(f"composite bench field {key!r} collides with harness")
            result[key] = extra
    return result


def run_benches(
    names: Optional[List[str]] = None, rounds: Optional[int] = None
) -> Dict[str, Dict[str, object]]:
    """Run the selected benches; returns {name: {min_s, median_s, rounds}}."""
    selected = names or list(BENCHES)
    results: Dict[str, Dict[str, object]] = {}
    for name in selected:
        if name not in BENCHES:
            raise KeyError(f"unknown bench {name!r}; known: {sorted(BENCHES)}")
        fn, default_rounds = BENCHES[name]
        results[name] = _time_one(fn, rounds or default_rounds)
    return results


def load_history(path: str) -> Dict[str, object]:
    try:
        with open(path) as handle:
            history = json.load(handle)
    except FileNotFoundError:
        return {"schema": SCHEMA_VERSION, "entries": []}
    if "entries" not in history:
        raise ValueError(f"{path} is not a bench history file")
    return history


def validate_history(history: Dict[str, object]) -> List[str]:
    """Schema-check a bench history; returns a list of problems (empty = ok).

    Used by the CI ``bench-smoke`` job so malformed entries fail PRs
    instead of landing silently.  Core fields are required; extra numeric
    fields from composite benches are allowed (and type-checked).
    """
    problems: List[str] = []
    if not isinstance(history, dict):
        return ["history is not a JSON object"]
    if history.get("schema") != SCHEMA_VERSION:
        problems.append(f"schema must be {SCHEMA_VERSION}, got {history.get('schema')!r}")
    entries = history.get("entries")
    if not isinstance(entries, list):
        return problems + ["'entries' must be a list"]
    seen_labels: set = set()
    for i, entry in enumerate(entries):
        where = f"entries[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} is not an object")
            continue
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            problems.append(f"{where}.label must be a non-empty string")
        elif label in seen_labels:
            problems.append(f"{where}.label {label!r} duplicates an earlier entry")
        else:
            seen_labels.add(label)
        if not isinstance(entry.get("python"), str):
            problems.append(f"{where}.python must be a string")
        if "commit" in entry and not isinstance(entry["commit"], (str, type(None))):
            problems.append(f"{where}.commit must be a string or null")
        results = entry.get("results")
        if not isinstance(results, dict) or not results:
            problems.append(f"{where}.results must be a non-empty object")
            continue
        for name, result in results.items():
            at = f"{where}.results[{name!r}]"
            if not isinstance(result, dict):
                problems.append(f"{at} is not an object")
                continue
            for field in ("min_s", "median_s"):
                if not isinstance(result.get(field), (int, float)):
                    problems.append(f"{at}.{field} must be a number")
            if not isinstance(result.get("rounds"), int):
                problems.append(f"{at}.rounds must be an integer")
            for key, value in result.items():
                if key in ("min_s", "median_s", "rounds"):
                    continue
                if not isinstance(value, (int, float)):
                    problems.append(f"{at}.{key} (extra field) must be numeric")
    return problems


def _find_entry(history: Dict[str, object], label: Optional[str]) -> Dict[str, object]:
    entries = history["entries"]
    if not entries:
        raise ValueError("bench history is empty")
    if label is None:
        return entries[0]
    for entry in entries:
        if entry["label"] == label:
            return entry
    raise ValueError(f"no bench entry labelled {label!r}")


def compare(
    history: Dict[str, object], against: Optional[str] = None
) -> Dict[str, float]:
    """Speedup factors (baseline median / latest median) per shared bench."""
    baseline = _find_entry(history, against)
    latest = history["entries"][-1]
    speedups: Dict[str, float] = {}
    for name, result in latest["results"].items():
        base = baseline["results"].get(name)
        if base is None:
            continue
        speedups[name] = base["median_s"] / result["median_s"]
    return speedups


def gate(
    history: Dict[str, object],
    results: Dict[str, Dict[str, object]],
    max_drop: float,
) -> List[str]:
    """The CI regression gate: fresh results vs the last committed entry.

    For each bench in ``results``, find the *newest* committed entry
    that measured it and fail if the fresh ``median_s`` regressed by
    more than ``max_drop`` (e.g. ``0.30`` = throughput down >30%,
    i.e. ``median_s > baseline / (1 - max_drop)``).  Benches with no
    committed baseline pass (first capture).  Returns the list of
    failure messages (empty = gate passes); writes nothing.
    """
    if not 0 < max_drop < 1:
        raise ValueError(f"max_drop must be in (0, 1), got {max_drop}")
    failures: List[str] = []
    entries = list(history.get("entries", []))
    for name, result in results.items():
        baseline = None
        baseline_label = None
        for entry in reversed(entries):
            candidate = entry.get("results", {}).get(name)
            if candidate is not None:
                baseline = candidate
                baseline_label = entry.get("label")
                break
        if baseline is None:
            print(f"{name}: no committed baseline, gate passes trivially")
            continue
        allowed = baseline["median_s"] / (1.0 - max_drop)
        verdict = "ok" if result["median_s"] <= allowed else "REGRESSED"
        print(
            f"{name}: median {result['median_s']:.4f}s vs baseline "
            f"{baseline['median_s']:.4f}s ({baseline_label!r}), "
            f"allowed <= {allowed:.4f}s: {verdict}"
        )
        if result["median_s"] > allowed:
            failures.append(
                f"{name} regressed: median {result['median_s']:.4f}s vs "
                f"baseline {baseline['median_s']:.4f}s "
                f"(> {max_drop:.0%} throughput drop)"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Benchmark the simulation substrate and track a baseline.",
    )
    parser.add_argument("--out", default=BENCH_FILE, help="history file to append to")
    parser.add_argument("--label", default=None, help="entry label (default: timestamp)")
    parser.add_argument("--rounds", type=int, default=None, help="override rounds per bench")
    parser.add_argument(
        "--bench", action="append", default=None,
        help="run only this bench (repeatable); default: all",
    )
    parser.add_argument(
        "--dry-run", action="store_true", help="print results without touching the file"
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="after running, print speedup of the newest entry vs the baseline",
    )
    parser.add_argument(
        "--against", default=None,
        help="baseline entry label for --compare/--check (default: first entry)",
    )
    parser.add_argument(
        "--check", type=float, default=None, metavar="MIN_SPEEDUP",
        help="exit 1 unless every compared bench reaches this speedup factor",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="schema-check the history file and exit (runs no benches)",
    )
    parser.add_argument(
        "--gate", type=float, default=None, metavar="MAX_DROP",
        help="regression gate: run the selected benches, compare each against "
        "the newest committed entry that measured it, and exit 1 on a "
        "throughput drop worse than MAX_DROP (e.g. 0.30); never writes",
    )
    args = parser.parse_args(argv)

    if args.validate:
        problems = validate_history(load_history(args.out))
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        entries = load_history(args.out)["entries"]
        print(f"{args.out} ok: {len(entries)} entries")
        return 0

    if args.gate is not None:
        results = run_benches(args.bench, args.rounds)
        failures = gate(load_history(args.out), results, args.gate)
        if failures:
            for failure in failures:
                print(f"GATE: {failure}", file=sys.stderr)
            return 1
        print(f"bench gate ok (max drop {args.gate:.0%})")
        return 0

    results = run_benches(args.bench, args.rounds)
    label = args.label or time.strftime("%Y-%m-%dT%H:%M:%S")
    entry = {
        "label": label,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "results": results,
    }
    width = max(len(n) for n in results)
    for name, result in results.items():
        print(f"{name:<{width}}  min {result['min_s']:.4f}s  median {result['median_s']:.4f}s")

    history = load_history(args.out)
    duplicates = [e for e in history["entries"] if e.get("label") == label]
    if duplicates:
        print(
            f"WARNING: label {label!r} already captured "
            f"({len(duplicates)} existing entr{'y' if len(duplicates) == 1 else 'ies'}); "
            "replacing with this capture",
            file=sys.stderr,
        )
        history["entries"] = [e for e in history["entries"] if e.get("label") != label]
    history["entries"].append(entry)
    if not args.dry_run:
        with open(args.out, "w") as handle:
            json.dump(history, handle, indent=2)
            handle.write("\n")
        print(f"appended entry {label!r} to {args.out}")

    if args.compare or args.check is not None:
        speedups = compare(history, args.against)
        failures = []
        for name, factor in speedups.items():
            print(f"{name:<{width}}  {factor:.2f}x vs baseline")
            if args.check is not None and factor < args.check:
                failures.append(name)
        if failures:
            print(f"below {args.check}x speedup: {failures}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
