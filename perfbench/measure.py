"""One measured benchmark process (started by ``run.py``).

Three modes:

* ``--setup-only``: import ``repro``, build the workload's inputs, print
  the monotonic clock and exit.  ``run.py`` starts several of these to
  time set-up from a fresh interpreter.
* default (untraced): set up, then run the workload's cells, repeating
  them in order until ``--seconds`` have passed and each ran at least
  once, timing the reference workload (:mod:`reference`) between cells.
  Prints one JSON line with the end-to-end metrics.
* ``--trace 1``: set up one cell; run it untraced, then traced with
  every layer's entry points wrapped (see :mod:`layers`); print the
  per-layer metrics as one JSON line and write the spans under
  ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List

from reference import REFERENCE_S, ReferenceClock
from workloads import (
    SUITE,
    WORKLOADS,
    CellResult,
    Workload,
    cell_seeds,
    mean_or_zero,
)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child.

    Linux reports ``ru_maxrss`` in KiB.  ``RUSAGE_CHILDREN`` covers the
    federation's worker processes once they have been joined.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def check_cells(cells: List[CellResult]) -> Dict[str, bool]:
    checks: Dict[str, bool] = {}
    for cell in cells:
        for name, ok in cell.checks.items():
            checks[name] = checks.get(name, True) and ok
    return checks


# -- untraced ----------------------------------------------------------------

def run_untraced(workload: Workload, seed: int, seconds: float, scale: float) -> Dict[str, Any]:
    """Run every cell once, then cycle through them again until
    ``seconds`` have passed.  Simulated metrics come from the first pass
    (a fixed amount of work); host times are medians over every cell run,
    each scaled by the reference workload timed before and after it.
    """
    seeds = cell_seeds(workload, seed)
    state = workload.setup(seeds, scale)
    first: List[CellResult] = []
    samples: List[CellResult] = []
    repeat_digests_match = True
    with ReferenceClock() as clock:
        references = [clock.seconds()]
        began = time.perf_counter()
        while len(samples) < len(seeds) or time.perf_counter() - began < seconds:
            index = len(samples) % len(seeds)
            cell = workload.run_cell(state, index)
            references.append(clock.seconds())
            if len(samples) < len(seeds):
                first.append(cell)
            elif cell.digest != first[index].digest:
                repeat_digests_match = False
            samples.append(cell)
        rss_mb = peak_rss_mb()  # before the helper is reaped and counted
    speeds = [2 * REFERENCE_S / (a + b) for a, b in zip(references, references[1:])]

    def host_times(speed: List[float]) -> Dict[str, float]:
        """``run_wall_s`` and ``host_us_per_request`` with each cell's
        times multiplied by its entry in ``speed``."""
        weighted = list(zip(samples, speed))
        parts = sorted(first[0].parts)
        if parts:  # a suite pass: sum the per-experiment medians
            run_wall = sum(statistics.median(c.parts[p] * k for c, k in weighted) for p in parts)
        else:
            run_wall = statistics.median(c.wall_s * k for c, k in weighted)
        per_request = statistics.median(
            mean_or_zero(c.wall_s * 1e6 * k, c.requests) for c, k in weighted
        )
        return {"run_wall_s": run_wall, "host_us_per_request": per_request}

    scaled = host_times(speeds)
    checks = check_cells(first)
    checks["repeat_digests_match"] = repeat_digests_match
    attempted = sum(c.attempted for c in first)
    return {
        "checks": checks,
        "attempted": attempted,
        "metrics": {
            "run_wall_s": (scaled["run_wall_s"], "s"),
            "host_us_per_request": (scaled["host_us_per_request"], "us"),
            "peak_rss_mb": (rss_mb, "MB"),
            "sim_mean_response_ms": (
                mean_or_zero(sum(c.response_s for c in first) * 1e3, sum(c.served for c in first)),
                "ms",
            ),
            "success_fraction": (
                mean_or_zero(sum(c.succeeded for c in first), attempted), "fraction"
            ),
        },
        "unscaled": host_times([1.0] * len(samples)),
        "reference_s": references,
        "cells": [
            {
                "seed": c.seed,
                "digest": c.digest,
                "attempted": c.attempted,
                "succeeded": c.succeeded,
                "requests": c.requests,
                "walls_s": [s.wall_s for s in samples if s.seed == c.seed],
                **c.detail,
            }
            for c in first
        ],
    }


# -- traced --------------------------------------------------------------------

def install_layers(tracer, profiler, seen: Dict[str, Any]) -> None:
    """Wrap the public entry point of every layer (see the README map)."""
    from repro.core.agent import SODAAgent
    from repro.core.node import VirtualServiceNode
    from repro.core.switch import ServiceSwitch
    from repro.faults.injector import FaultInjector
    from repro.host.scheduler import (
        QUANTUM_S,
        ProportionalShareScheduler,
        VanillaLinuxScheduler,
    )
    from repro.market.admission import EconomicAdmission, FCFSAdmission
    from repro.market.pricing import SpotPricer
    from repro.net.lan import LAN
    from repro.obs.metrics import Counter, Gauge, Histogram
    from repro.obs.tracing import RequestTracer, Span
    from repro.sim.fluid import FluidCluster
    from repro.sim.kernel import Simulator
    from repro.sim.resources import Resource
    from repro.sla.enforcement import ClassPriorityShedder

    def note_switch(switch, *args, **kwargs):
        seen["switches"][id(switch)] = switch

    def note_injector(injector, *args, **kwargs):
        seen["injectors"][id(injector)] = injector

    def note_quanta(scheduler, horizon_s, *args, **kwargs):
        seen["quanta"] += math.ceil(horizon_s / QUANTUM_S)

    def note_batch(cluster, now, n, *args, **kwargs):
        seen["fluid_requests"] += n

    tracer.wrap(Simulator, "run", "kernel")
    tracer.wrap(Simulator, "run_until_process", "kernel")
    tracer.wrap(LAN, "transfer", "lan")
    tracer.wrap(ServiceSwitch, "serve", "switch", on_call=note_switch)
    tracer.wrap(VirtualServiceNode, "serve", "node")
    tracer.wrap(Resource, "request", "resources")
    tracer.wrap(Resource, "release", "resources")
    tracer.wrap(ClassPriorityShedder, "should_shed", "sla")
    tracer.wrap(RequestTracer, "start_span", "obs.tracing")
    tracer.wrap(Span, "finish", "obs.tracing")
    for metric in (Counter, Gauge, Histogram):
        tracer.wrap(metric, "labels", "obs.metrics")
    tracer.wrap(Counter, "inc", "obs.metrics")
    tracer.wrap(Gauge, "inc", "obs.metrics")
    tracer.wrap(Histogram, "observe", "obs.metrics")
    tracer.wrap(FluidCluster, "dispatch_batch", "fluid", on_call=note_batch)
    tracer.wrap(ProportionalShareScheduler, "run", "scheduler", on_call=note_quanta)
    tracer.wrap(VanillaLinuxScheduler, "run", "scheduler", on_call=note_quanta)
    tracer.wrap(EconomicAdmission, "decide", "market")
    tracer.wrap(FCFSAdmission, "decide", "market")
    tracer.wrap(SpotPricer, "tick", "market")
    tracer.wrap(FaultInjector, "arm", "faults", on_call=note_injector)
    tracer.wrap(SODAAgent, "service_creation", "control")
    # Every simulator built while traced dispatches through the profiler.
    original_init = Simulator.__init__

    def profiled_init(sim, *args, **kwargs):
        original_init(sim, *args, **kwargs)
        profiler.install(sim)

    tracer.patch(Simulator, "__init__", profiled_init)


def run_traced(workload: Workload, seed: int, scale: float) -> Dict[str, Any]:
    from layers import AttributingProfiler, LayerTracer

    state = workload.setup(cell_seeds(workload, seed)[:1], scale)

    # Untraced reference arms, then the traced arm of the same cell.
    variant = "serial" if workload.name == "federated-fleet" else ""
    reference = workload.run_cell(state, 0)
    base = workload.run_cell(state, 0, variant) if variant else reference
    hub_off = (
        workload.run_cell(state, 0, "hub-off") if workload.name == "burst-observed" else None
    )

    run_id = f"{workload.name}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    tracer = LayerTracer(run_id)
    profiler = AttributingProfiler(tracer)
    seen: Dict[str, Any] = {"switches": {}, "injectors": {}, "quanta": 0, "fluid_requests": 0}
    install_layers(tracer, profiler, seen)
    try:
        traced = tracer.run(lambda: workload.run_cell(state, 0, variant))
    finally:
        tracer.uninstall()
    try:
        layers = tracer.attribution(profiler)
        attributed = True
    except ValueError:  # reported as a failed check, with the raw self times
        layers = dict(tracer.self_s)
        attributed = False
    wall = tracer.wall_s

    checks = check_cells([reference, traced])
    checks["self_times_sum_to_wall"] = attributed
    checks["traced_digest_matches"] = traced.digest == reference.digest == base.digest
    if hub_off is not None:
        checks["hub_off_digest_matches"] = hub_off.digest == reference.digest

    requests = traced.requests
    calls = tracer.calls
    flush_events, flush_wall = profiler.site_events("LAN._flush")
    transfers = calls["LAN.transfer"]
    creations = calls["SODAAgent.service_creation"]
    quanta = seen["quanta"]
    batches = calls["FluidCluster.dispatch_batch"]
    parallel = reference.detail if workload.name == "federated-fleet" else {}
    experiment_walls = reference.parts

    def share(layer: str) -> float:
        return layers.get(layer, 0.0) / wall

    def per_request(count: float) -> float:
        return mean_or_zero(count, requests)

    m: Dict[str, tuple] = {
        "kernel.events_per_request": (per_request(profiler.events_total), "count"),
        "kernel.us_per_event": (
            mean_or_zero(layers.get("kernel", 0.0) * 1e6, profiler.events_total), "us"
        ),
        "kernel.self_share": (share("kernel"), "share"),
        "kernel.heap_high_water": (profiler.heap_high_water, "count"),
        "lan.transfers_per_request": (per_request(transfers), "count"),
        "lan.flushes_per_transfer": (mean_or_zero(flush_events, transfers), "count"),
        "lan.us_per_flush": (mean_or_zero(flush_wall * 1e6, flush_events), "us"),
        "lan.self_share": (share("lan"), "share"),
        "switch.dispatches_per_request": (per_request(calls["VirtualServiceNode.serve"]), "count"),
        "switch.failovers": (sum(s.failovers for s in seen["switches"].values()), "count"),
        "switch.timeouts": (sum(s.timeouts for s in seen["switches"].values()), "count"),
        "switch.self_share": (share("switch"), "share"),
        "node.self_share": (share("node"), "share"),
        "resources.self_share": (share("resources"), "share"),
        "node.sim_queue_wait_ms": (reference.detail.get("queue_wait_s", 0.0) * 1e3, "ms"),
        "sla.shed_fraction": (
            mean_or_zero(reference.detail.get("shed", 0), reference.attempted), "fraction"
        ),
        "sla.self_share": (share("sla"), "share"),
        "obs.spans_per_request": (per_request(calls["RequestTracer.start_span"]), "count"),
        "obs.labels_calls_per_request": (
            per_request(sum(calls[f"{k}.labels"] for k in ("Counter", "Gauge", "Histogram"))),
            "count",
        ),
        "obs.tracing_self_share": (share("obs.tracing"), "share"),
        "obs.metrics_self_share": (share("obs.metrics"), "share"),
        # 0 where the workload has no observability hub to switch off.
        "obs.overhead_x": (
            reference.wall_s / hub_off.wall_s if hub_off is not None else 0.0, "x"
        ),
        "fluid.requests_per_batch": (mean_or_zero(seen["fluid_requests"], batches), "count"),
        "fluid.self_share": (share("fluid"), "share"),
        "parallel.epochs": (parallel.get("epochs", 0), "count"),
        "parallel.msgs_per_epoch": (parallel.get("msgs_per_epoch", 0.0), "count"),
        "parallel.barrier_stall_fraction": (
            parallel.get("barrier_stall_fraction", 0.0), "fraction"
        ),
        "parallel.critical_path_s": (parallel.get("critical_path_s", 0.0), "s"),
        "parallel.worker_busy_s": (parallel.get("worker_busy_s", 0.0), "s"),
        "scheduler.self_s": (layers.get("scheduler", 0.0), "s"),
        "scheduler.quanta": (quanta, "count"),
        "scheduler.us_per_quantum": (
            mean_or_zero(layers.get("scheduler", 0.0) * 1e6, quanta), "us"
        ),
        "market.decisions": (
            calls["EconomicAdmission.decide"] + calls["FCFSAdmission.decide"], "count"
        ),
        "market.self_s": (layers.get("market", 0.0), "s"),
        "faults.injected": (
            sum(sum(i.injected.values()) for i in seen["injectors"].values()), "count"
        ),
        "control.service_creations": (creations, "count"),
        "control.creation_self_ms": (
            mean_or_zero(layers.get("control", 0.0) * 1e3, creations), "ms"
        ),
        "scenario.compile_s": (state.get("compile_s", 0.0), "s"),
        "unattributed.self_share": (share("unattributed"), "share"),
        "traced_wall_s": (wall, "s"),
        "trace_overhead_x": (wall / base.wall_s, "x"),
    }
    for eid in SUITE:
        m[f"experiment.{eid}.wall_s"] = (experiment_walls.get(eid, 0.0), "s")

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{workload.name}-seed{seed}.spans.json")
    with open(spans_path, "w") as handle:
        json.dump(tracer.spans_document(workload.name, seed), handle)

    return {
        "checks": checks,
        "attempted": reference.attempted,
        "metrics": m,
        "layers_self_s": dict(sorted(layers.items())),
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path),
        "digest": reference.digest,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(cell_seeds(workload, args.seed), args.scale)
        print(json.dumps({"setup_done_monotonic": time.monotonic()}), flush=True)
        return 0
    if args.trace:
        result = run_traced(workload, args.seed, args.scale)
    else:
        result = run_untraced(workload, args.seed, args.seconds, args.scale)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
