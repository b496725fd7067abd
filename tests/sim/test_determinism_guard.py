"""Determinism guard: same seed, same machine, bit-identical output.

These tests pin the reproduction's core guarantee — a seeded run is a
pure function of its inputs.  They exercise three full end-to-end paths
(the Figure 4 load-balancing experiment, the SLA billing scenario, and
the chaos fault-injection scenario),
run each twice with the same seed, and compare every float bit-for-bit
(``==``, never ``approx``).  Any hidden nondeterminism introduced by
substrate changes (set iteration order, batched recomputation, direct
resume paths, idle-quantum batching) fails here before it can silently
shift experiment numbers.

The observability guard extends the same guarantee across the
instrumentation boundary: with tracing + metrics + profiling fully
enabled, both paths must stay bit-identical to a run with the stack
disabled — `repro.obs` observes, never perturbs.
"""

import repro.experiments.fig4_loadbalance as fig4
from repro.faults.chaos import CHAOS_RUN, chaos_spec
from repro.market import fast_params, run_market_scenario
from repro.obs import FederationObservability, Observability
from repro.scenario.library import get_scenario
from repro.scenario.run import run_scenario
from repro.sim.parallel import run_federation
from tests.sim.test_parallel import build_topology as build_federation
from tests.sla.test_e2e import run_sla_scenario


def _digest(result):
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


def test_fig4_loadbalance_bit_identical_across_runs():
    first = _digest(fig4.run(seed=0, fast=True))
    second = _digest(fig4.run(seed=0, fast=True))
    assert first == second


def test_fig4_loadbalance_bit_identical_nonzero_seed():
    first = _digest(fig4.run(seed=1234, fast=True))
    second = _digest(fig4.run(seed=1234, fast=True))
    assert first == second


def _sla_digest(seed):
    # run_sla_scenario returns (testbed, records, monitors, autoscaler,
    # summaries, digest); only the digest is value-comparable.
    return run_sla_scenario(seed=seed)[5]


def test_sla_scenario_bit_identical_across_runs():
    assert _sla_digest(7) == _sla_digest(7)


def test_different_seeds_actually_differ():
    # Guard the guard: if seeding were ignored, the tests above would
    # pass vacuously.  Distinct seeds must change at least something.
    assert _sla_digest(1) != _sla_digest(2)


# -- observability must observe, never perturb -------------------------------


def test_fig4_digest_unchanged_by_full_observability():
    plain = _digest(fig4.run(seed=0, fast=True))
    hub = Observability(tracing=True, metrics=True, profile=True)
    with hub.activate():
        observed = _digest(fig4.run(seed=0, fast=True))
    assert plain == observed
    # The instrumentation actually ran — it just didn't perturb.
    assert len(hub.tracer.spans()) > 0
    assert "soda_switch_requests_total" in hub.prometheus()
    assert hub.profiler.events_total > 0


def test_fig4_digest_unchanged_by_observability_nonzero_seed():
    plain = _digest(fig4.run(seed=1234, fast=True))
    with Observability(tracing=True, metrics=True).activate():
        observed = _digest(fig4.run(seed=1234, fast=True))
    assert plain == observed


def test_sla_digest_unchanged_by_full_observability():
    plain = _sla_digest(7)
    hub = Observability(tracing=True, metrics=True, profile=True)
    with hub.activate():
        observed = _sla_digest(7)
    assert plain == observed
    assert len(hub.tracer.spans()) > 0


# -- federated runs join the observability contract ---------------------------


def test_federated_digest_unchanged_by_full_observability():
    """Cross-shard tracing, metrics federation and the epoch profiler
    must not move a federated digest at any worker count — spans ride
    messages as inert payload and profilers only read process_time."""
    topology = build_federation()
    for n_workers in (1, 2, 4):
        plain = run_federation(
            topology, duration_s=1.0, seed=5, n_workers=n_workers
        )
        observed = run_federation(
            topology, duration_s=1.0, seed=5, n_workers=n_workers,
            obs=FederationObservability(),
        )
        assert observed.digest_sha == plain.digest_sha
        assert observed.digests == plain.digests
        # The federation stack actually observed — it just didn't perturb.
        fed = observed.observability
        assert len(fed.spans) > 0
        assert "soda_shard_messages_total" in fed.metrics.render()
        assert fed.profiler.n_epochs == plain.epochs


# -- fault injection joins the determinism contract ---------------------------


def _chaos_digest(seed):
    return run_scenario(chaos_spec(30.0), seed=seed, **CHAOS_RUN).digest()


def test_chaos_digest_bit_identical_across_runs():
    # Same seed drives the same campaign, the same failovers, the same
    # watchdog reboots — every fault-log entry and outcome identical.
    assert _chaos_digest(0) == _chaos_digest(0)


def test_chaos_different_seeds_actually_differ():
    assert _chaos_digest(1) != _chaos_digest(2)


def test_chaos_digest_unchanged_by_full_observability():
    plain = _chaos_digest(0)
    hub = Observability(tracing=True, metrics=True, profile=True)
    with hub.activate():
        observed = _chaos_digest(0)
    assert plain == observed
    # Fault spans and counters were actually emitted — without
    # perturbing a single injection or retry instant.
    assert len(hub.tracer.spans()) > 0
    assert "soda_faults_injected_total" in hub.prometheus()


# -- the market ablation joins the determinism contract -----------------------

_MARKET_PARAMS = fast_params(duration_s=120.0, n_tenants=50)


def _market_digest(seed, policy="market"):
    return run_market_scenario(
        seed=seed, policy=policy, params=_MARKET_PARAMS
    ).digest()


def test_market_digest_bit_identical_across_runs():
    # Same seed drives the same tenants, arrivals, repricing path,
    # admissions, preemptions and invoices — every float identical.
    assert _market_digest(0) == _market_digest(0)
    assert _market_digest(0, "fcfs") == _market_digest(0, "fcfs")


def test_market_different_seeds_actually_differ():
    assert _market_digest(3) != _market_digest(4)


# -- the scenario layer joins the determinism contract ------------------------


def _scenario_digest(name, seed, policy="sla"):
    return run_scenario(
        get_scenario(name, duration_s=15.0), seed=seed, policy=policy
    ).digest()


def test_scenario_flash_crowd_digest_bit_identical_across_runs():
    # Same seed compiles the same flash-crowd trace and replays it to
    # the same outcomes — every arrival instant, response float and
    # shedding decision identical.
    assert _scenario_digest("flash-crowd", 0) == _scenario_digest("flash-crowd", 0)


def test_scenario_heavy_tail_digest_bit_identical_across_runs():
    # Heavy-tailed sizes stress the size-sampler streams; the digest
    # (which embeds every exact dataset draw via the compiled sha and
    # every response float) must still be a pure function of the seed.
    assert _scenario_digest("heavy-tail", 0) == _scenario_digest("heavy-tail", 0)
    assert (
        _scenario_digest("heavy-tail", 0, "market")
        == _scenario_digest("heavy-tail", 0, "market")
    )


def test_scenario_different_seeds_actually_differ():
    assert _scenario_digest("flash-crowd", 1) != _scenario_digest("flash-crowd", 2)
    assert _scenario_digest("heavy-tail", 1) != _scenario_digest("heavy-tail", 2)


def test_scenario_digest_unchanged_by_full_observability():
    plain = _scenario_digest("flash-crowd", 0)
    hub = Observability(tracing=True, metrics=True, profile=True)
    with hub.activate():
        observed = _scenario_digest("flash-crowd", 0)
    assert plain == observed
    assert len(hub.tracer.spans()) > 0
