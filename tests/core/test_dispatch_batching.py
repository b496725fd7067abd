"""Dispatch batching at the service switch.

The contract: batching is opt-in, coalesces same-class requests into
one dispatcher slot + one classify slice + one combined forward
transfer per back-end, *reduces kernel events* under bursts — and
leaves per-request accounting (dispatch counts, response-time samples,
outcome stream, span tiling) exactly as rich as the plain path.  It
composes with failover: a retried attempt re-batches.
"""

import pytest

from repro.core import MachineConfig, ResourceRequirement, build_paper_testbed
from repro.core.auth import Credentials
from repro.core.node import Request
from repro.faults.injector import FaultInjector
from repro.faults.retry import BackoffPolicy
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.guestos.syscall import SyscallMix
from repro.image.profiles import make_s1_web_content
from repro.obs import Observability
from repro.workload.clients import ClientPool
from repro.workload.siege import Siege
from tests.core.conftest import create_service
from tests.faults.conftest import _three_host_testbed


def make_request(client, response_mb=0.1):
    mix = SyscallMix(
        user_mcycles=1.0 + 2.0 * response_mb, n_syscalls=30 + 32 * response_mb
    )
    return Request(client=client, response_mb=response_mb, mix=mix)


def burst(tb, record, client, n):
    """Fire n concurrent requests; return their responses in order."""

    def proc(sim):
        procs = [
            sim.process(record.switch.serve(make_request(client)))
            for _ in range(n)
        ]
        responses = []
        for p in procs:
            responses.append((yield p))
        return responses

    return tb.run(proc(tb.sim), name="burst")


def test_burst_is_coalesced_and_fully_served(testbed):
    _, record = create_service(testbed, n=3)
    client = testbed.add_client("client-1")
    record.switch.enable_batching(window_s=0.001, max_batch=64)
    responses = burst(testbed, record, client, 12)
    assert len(responses) == 12
    assert all(r.elapsed > 0 for r in responses)
    # One coalesced dispatch, but twelve per-request accounts.
    assert record.switch.batches_dispatched == 1
    assert record.switch.dispatched == 12
    assert len(record.switch.response_times.values) == 12
    assert sum(record.switch.per_node_count.values()) == 12


def test_batching_reduces_kernel_events_for_the_same_burst():
    def run_once(batched):
        tb = build_paper_testbed(seed=7)
        repo = tb.add_repository()
        repo.publish(make_s1_web_content())
        tb.agent.register_asp("acme", "supersecret")
        tb.repo, tb.creds = repo, Credentials("acme", "supersecret")
        _, record = create_service(tb, n=3)
        if batched:
            record.switch.enable_batching(window_s=0.001, max_batch=64)
        client = tb.add_client("client-1")
        before = tb.sim.events_scheduled
        burst(tb, record, client, 20)
        return record, tb.sim.events_scheduled - before

    plain, plain_events = run_once(batched=False)
    coalesced, batched_events = run_once(batched=True)
    assert plain.switch.dispatched == coalesced.switch.dispatched == 20
    assert batched_events < plain_events


def test_max_batch_splits_an_oversized_burst(testbed):
    _, record = create_service(testbed, n=3)
    client = testbed.add_client("client-1")
    record.switch.enable_batching(window_s=0.001, max_batch=3)
    burst(testbed, record, client, 8)
    # 8 simultaneous arrivals with max_batch=3: batches of 3, 3, 2.
    assert record.switch.batches_dispatched == 3
    assert record.switch.dispatched == 8


def test_wrr_split_preserved_under_batching(testbed):
    # The §5 2:1 layout must survive coalescing: select() still runs per
    # member, so the weighted rotation is untouched.
    create_service(testbed, name="honeypot", image="honeypot", n=1)
    _, record = create_service(testbed, name="web", n=3)
    client = testbed.add_client("client-1")
    record.switch.enable_batching(window_s=0.001, max_batch=64)
    burst(testbed, record, client, 30)
    seattle_node = next(n for n in record.nodes if n.host.name == "seattle")
    tacoma_node = next(n for n in record.nodes if n.host.name == "tacoma")
    assert seattle_node.served == 20
    assert tacoma_node.served == 10


def test_unavailable_component_fails_only_its_members(testbed):
    _, record = create_service(testbed, n=2)
    client = testbed.add_client("client-1")
    record.switch.enable_batching(window_s=0.001, max_batch=64)
    for node in record.nodes:
        node.vm.crash(cause="fault")

    def proc(sim):
        procs = [
            sim.process(record.switch.serve(make_request(client)))
            for _ in range(3)
        ]
        failures = 0
        for p in procs:
            try:
                yield p
            except Exception:
                failures += 1
        return failures

    assert testbed.run(proc(testbed.sim), name="burst") == 3
    assert record.switch.dispatched == 0


def test_enable_batching_validates_its_knobs(testbed):
    _, record = create_service(testbed, n=1)
    with pytest.raises(ValueError):
        record.switch.enable_batching(window_s=0.0)
    with pytest.raises(ValueError):
        record.switch.enable_batching(max_batch=0)


def test_disable_batching_restores_the_plain_path(testbed):
    _, record = create_service(testbed, n=2)
    client = testbed.add_client("client-1")
    record.switch.enable_batching(window_s=0.001, max_batch=64)
    burst(testbed, record, client, 4)
    record.switch.disable_batching()
    burst(testbed, record, client, 4)
    assert record.switch.batches_dispatched == 1
    assert record.switch.dispatched == 8


def test_spans_still_tile_under_batching():
    # The acceptance bar: every traced request's segments sum to its
    # response time within 1e-9 even when its dispatch span covers a
    # shared batch window.
    hub = Observability(tracing=True, metrics=True)
    with hub.activate():
        testbed = build_paper_testbed(seed=3)
        repo = testbed.add_repository()
        repo.publish(make_s1_web_content())
        testbed.agent.register_asp("acme", "supersecret")
        testbed.run(
            testbed.agent.service_creation(
                Credentials("acme", "supersecret"), "web", repo, "web-content",
                ResourceRequirement(n=2, machine=MachineConfig()),
            )
        )
        record = testbed.master.get_service("web")
        record.switch.enable_batching(window_s=0.005, max_batch=16)
        clients = ClientPool(testbed.lan, n=2)
        siege = Siege(
            testbed.sim, record.switch, clients,
            streams=testbed.streams, dataset_mb=0.5,
        )
        report = testbed.run(siege.run_open_loop(rate_rps=300.0, duration_s=1.5))
    assert report.completed > 0
    # Dense arrivals against a 5ms window: coalescing really happened.
    assert 0 < record.switch.batches_dispatched < report.completed
    requests = hub.tracer.requests(status="ok")
    assert len(requests) == report.completed
    for root, segments in requests:
        assert [s.name for s in segments] == [
            "dispatch", "queue_wait", "cpu_service", "tx"
        ]
        assert sum(s.duration for s in segments) == pytest.approx(
            root.duration, abs=1e-9
        )
        assert segments[0].start == root.start
        assert segments[-1].end == root.end
        for left, right in zip(segments, segments[1:]):
            assert left.end == right.start


@pytest.mark.parametrize("seed", [3, 5, 9])
def test_batching_composes_with_failover_under_node_crashes(seed):
    # Batching, a retry policy and a timeout budget on one switch, with
    # a replica crashing mid-burst: every request is accounted for once,
    # crashed attempts fail over (re-batching), and the spans of every
    # served request still tile its response time.
    hub = Observability(tracing=True, metrics=True)
    with hub.activate():
        # Three equal hosts: the service gets one replica per host.
        testbed = _three_host_testbed(seed=seed)
        _, record = create_service(testbed, n=3)
        switch = record.switch
        switch.enable_batching(window_s=0.005, max_batch=16)
        switch.retry_policy = BackoffPolicy(base_s=0.01, max_attempts=4)
        switch.request_timeout_s = 2.0
        outcomes = {"ok": 0, "failed": 0, "shed": 0}
        switch.add_outcome_listener(
            lambda _t, _lat, outcome: outcomes.__setitem__(
                outcome, outcomes[outcome] + 1
            )
        )
        FaultInjector(testbed.sim, testbed.lan, record.nodes).arm(
            FaultSchedule([
                FaultEvent(at=0.4, kind=FaultKind.NODE_CRASH, target=record.nodes[0].name),
                FaultEvent(at=0.9, kind=FaultKind.NODE_CRASH, target=record.nodes[1].name),
            ])
        )
        siege = Siege(
            testbed.sim, switch, ClientPool(testbed.lan, n=2),
            streams=testbed.streams, dataset_mb=0.5,
        )
        report = testbed.run(siege.run_open_loop(rate_rps=40.0, duration_s=1.5))
    issued = report.completed + report.failures
    assert outcomes["ok"] + outcomes["failed"] + outcomes["shed"] == issued
    assert outcomes["ok"] == report.completed == len(switch.response_times.values)
    assert switch.failovers > 0
    assert switch.batches_dispatched > 0
    requests = [
        (root, segments)
        for root, segments in hub.tracer.requests(status="ok")
        if root.name == "request"
    ]
    assert len(requests) == report.completed
    retried = 0
    for root, segments in requests:
        retried += sum(s.name == "dispatch" for s in segments) > 1
        assert sum(s.duration for s in segments) == pytest.approx(
            root.duration, abs=1e-9
        )
        assert segments[0].start == root.start
        assert segments[-1].end == root.end
        for left, right in zip(segments, segments[1:]):
            assert left.end == right.start
    assert retried > 0
