"""Golden digests: committed fingerprints of every deterministic run.

The determinism guard (``tests/sim/test_determinism_guard.py``) checks
that a run repeats itself; a refactor that changes behaviour the same
way on both runs passes it silently.  The goldens close that gap: each
entry is :func:`golden_sha` — sha256 of ``repr()`` — of a digest the
code base already exposes, computed once and committed in
``tests/golden/digests.json``.  ``test_golden_digests.py`` recomputes
every entry and compares.

Covered runs, all at fast sizes and seeds :data:`SEEDS`:

* every registered experiment (``fast=True``), digested like the
  determinism guard's ``_digest``;
* the chaos fault-injection scenario (:func:`run_chaos_scenario`);
* every scenario-library family under each admission policy;
* every scenario-library family compiled at its *default* horizon:
  the compiled digest plus where each ``scenario:*`` stream is left;
* the market contention scenario (:func:`fast_params`);
* the federated run of the ``federation-scale`` fast topology
  (:func:`run_federation`, serial), via ``FederationRun.digest_sha``;
* the deterministic event counts of the switch dispatch bench.

Re-pin with ``make regold`` (``python -m tests.golden.digests``) only
for an intended behaviour change, and justify it in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

GOLDEN_PATH = Path(__file__).with_name("digests.json")
SEEDS = (0, 7)
CHAOS_DURATION_S = 30.0
SCENARIO_DURATION_S = 15.0
SCENARIO_POLICIES = ("fcfs", "sla", "market")
#: The ``federation-scale`` experiment's fast size.
FEDERATION_HOSTS = 20
FEDERATION_DURATION_S = 2.0
#: The deterministic keys of ``bench_switch_dispatch_throughput``.
SWITCH_BENCH_COUNTS = ("unbatched_events", "batched_events", "batches_dispatched")


def golden_sha(digest: Any) -> str:
    """sha256 of ``repr()`` of a digest — the one golden format."""
    return hashlib.sha256(repr(digest).encode()).hexdigest()


def experiment_digest(result) -> dict:
    """Everything observable about an ExperimentResult, exact floats."""
    return {
        "id": result.experiment_id,
        "rows": [tuple(row) for row in result.rows],
        "series": {
            name: (tuple(xs), tuple(ys))
            for name, (xs, ys) in sorted(result.series.items())
        },
        "comparisons": [
            (c.name, c.paper, c.measured, c.tolerance_rel)
            for c in result.comparisons
        ],
        "rendered": result.render(),
    }


def _experiment_cases() -> List[Tuple[str, Callable[[], Any]]]:
    from repro.experiments.runner import EXPERIMENTS, _experiments

    _experiments()
    return [
        (
            f"experiment/{name}/seed{seed}",
            lambda name=name, seed=seed: experiment_digest(
                EXPERIMENTS[name](seed=seed, fast=True)
            ),
        )
        for name in sorted(EXPERIMENTS)
        for seed in SEEDS
    ]


def _chaos_cases() -> List[Tuple[str, Callable[[], Any]]]:
    from repro.faults.chaos import run_chaos_scenario

    return [
        (
            f"chaos/seed{seed}",
            lambda seed=seed: run_chaos_scenario(
                seed=seed, duration_s=CHAOS_DURATION_S
            ).digest(),
        )
        for seed in SEEDS
    ]


def _scenario_cases() -> List[Tuple[str, Callable[[], Any]]]:
    from repro.scenario.library import get_scenario, list_scenarios
    from repro.scenario.run import run_scenario

    return [
        (
            f"scenario/{name}/{policy}/seed{seed}",
            lambda name=name, policy=policy, seed=seed: run_scenario(
                get_scenario(name, SCENARIO_DURATION_S), seed=seed, policy=policy
            ).digest(),
        )
        for name in list_scenarios()
        for policy in SCENARIO_POLICIES
        for seed in SEEDS
    ]


def compiled_digest(name: str, seed: int) -> Tuple[str, Dict[str, float]]:
    """A library scenario compiled at its default horizon on a shared
    :class:`RandomStreams`: ``(digest_sha, {stream: next draw})``.

    The next uniform of every ``scenario:*`` stream the compiler owns
    pins how many draws compilation consumed from each."""
    from repro.scenario.compile import compile_scenario
    from repro.scenario.library import get_scenario
    from repro.sim.rng import RandomStreams

    spec = get_scenario(name)
    streams = RandomStreams(seed)
    sha = compile_scenario(spec, seed, streams=streams).digest_sha()
    names = [f"scenario:{spec.name}:bursts"] + [
        f"scenario:{spec.name}:{load.tenant}:{role}"
        for load in spec.loads
        for role in ("gap", "thin", "size")
    ]
    return sha, {stream: float(streams.stream(stream).random()) for stream in names}


def _compiled_cases() -> List[Tuple[str, Callable[[], Any]]]:
    from repro.scenario.library import list_scenarios

    return [
        (
            f"compiled/{name}/seed{seed}",
            lambda name=name, seed=seed: compiled_digest(name, seed),
        )
        for name in list_scenarios()
        for seed in SEEDS
    ]


def _market_cases() -> List[Tuple[str, Callable[[], Any]]]:
    from repro.market import fast_params, run_market_scenario

    return [
        (
            f"market/seed{seed}",
            lambda seed=seed: run_market_scenario(
                seed=seed, params=fast_params()
            ).digest(),
        )
        for seed in SEEDS
    ]


def _federation_cases() -> List[Tuple[str, Callable[[], Any]]]:
    from repro.experiments.federation_scale import build_topology
    from repro.sim.parallel import run_federation

    return [
        (
            f"federation/seed{seed}",
            lambda seed=seed: run_federation(
                build_topology(n_hosts=FEDERATION_HOSTS),
                duration_s=FEDERATION_DURATION_S, seed=seed,
            ).digest_sha,
        )
        for seed in SEEDS
    ]


def switch_bench_counts() -> Dict[str, int]:
    """The switch dispatch bench's deterministic counts (no wall clocks)."""
    from repro.bench import bench_switch_dispatch_throughput

    result = bench_switch_dispatch_throughput()
    return {key: result[key] for key in SWITCH_BENCH_COUNTS}


def cases() -> List[Tuple[str, Callable[[], Any]]]:
    """``(golden name, digest thunk)`` for every pinned run."""
    return (
        _experiment_cases()
        + _chaos_cases()
        + _scenario_cases()
        + _compiled_cases()
        + _market_cases()
        + _federation_cases()
    )


def compute() -> Dict[str, Any]:
    """Recompute every golden: ``{"digests": {name: sha}, "switch_bench": counts}``."""
    return {
        "digests": {name: golden_sha(thunk()) for name, thunk in cases()},
        "switch_bench": switch_bench_counts(),
    }


def main() -> int:
    fresh = compute()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(fresh, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(fresh['digests'])} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
