"""Tracing the simulated platform on the one span model.

Service creation, partitioned creation and resizing are span trees on
the same :class:`~repro.obs.tracing.RequestTracer` as the request path:
a Master root tiled by admission / priming / switch_setup, with one
``prime`` span per daemon call tiled by the priming stages.  Also the
bounded ring's bookkeeping: ``clear`` and evictions in the exposition.
"""

import pytest

from repro.core import MachineConfig, ResourceRequirement, build_paper_testbed
from repro.core.auth import Credentials
from repro.core.errors import PrimingError
from repro.host.reservation import ResourceVector
from repro.image.profiles import paper_profiles
from repro.obs import Observability, RequestTracer
from repro.obs.federation import trace_completeness
from repro.obs.tracing import STATUS_FAILED, STATUS_OK
from tests.core.test_partitioned import shop_image

ROOT_SEGMENTS = ["admission", "priming", "switch_setup"]
PRIME_SEGMENTS = ["reserve", "download", "tailor", "boot", "configure"]


def build(seed=5):
    tb = build_paper_testbed(seed=seed)
    tb.repo = tb.add_repository()
    for image in paper_profiles().values():
        tb.repo.publish(image)
    tb.agent.register_asp("acme", "supersecret")
    tb.creds = Credentials("acme", "supersecret")
    return tb


def create(tb, name="web", image="web-content", n=1):
    requirement = ResourceRequirement(n=n, machine=MachineConfig())
    return tb.run(tb.agent.service_creation(tb.creds, name, tb.repo, image, requirement))


def assert_tiled(tracer, span, names):
    """``span``'s children are ``names`` in order and tile it to 1e-9."""
    children = tracer.children_of(span)
    assert [c.name for c in children] == names
    assert abs(children[0].start - span.start) <= 1e-9
    assert abs(children[-1].end - span.end) <= 1e-9
    for left, right in zip(children, children[1:]):
        assert abs(left.end - right.start) <= 1e-9
    assert sum(c.duration for c in children) == pytest.approx(span.duration, abs=1e-9)
    return children


def assert_complete(hub):
    stats = trace_completeness([s.to_dict() for s in hub.tracer.spans()])
    assert stats["open_spans"] == 0, stats
    assert stats["orphan_parents"] == 0, stats


def operation(hub, name):
    (root,) = [r for r in hub.tracer.roots() if r.name == name]
    return root


def primes_of(hub, root, segments=ROOT_SEGMENTS, stages=PRIME_SEGMENTS):
    """The ``prime`` spans under ``root``'s priming segment, each tiled
    by ``stages`` in stage order."""
    priming = assert_tiled(hub.tracer, root, segments)[1]
    primes = hub.tracer.children_of(priming)
    assert primes and all(p.name == "prime" for p in primes)
    for prime in primes:
        assert prime.lane in ("seattle", "tacoma")
        assert_tiled(hub.tracer, prime, stages)
    return primes


def test_priming_pipeline_traced():
    """Service creation is one create_service tree covering creation latency."""
    hub = Observability()
    with hub.activate():
        tb = build()
        create(tb, n=3)
    record = tb.master.get_service("web")
    root = operation(hub, "create_service")
    assert root.lane == "master" and root.status == STATUS_OK
    assert root.duration == pytest.approx(record.primed_at - record.created_at, abs=1e-9)
    primes = primes_of(hub, root)
    assert len(primes) == len(record.nodes)
    assert all(p.status == STATUS_OK for p in primes)
    # The stage counter and the span segments mark the same boundaries.
    primed = hub.registry.get("soda_daemon_priming_total")
    assert sum(c.value for key, c in primed.samples() if key[1] == "node_primed") == len(primes)
    assert hub.tracer.requests() == []  # control-plane roots are not requests
    assert_complete(hub)


def test_partitioned_creation_traced():
    hub = Observability()
    with hub.activate():
        tb = build()
        tb.repo.publish(shop_image())
        requirement = ResourceRequirement(n=3, machine=MachineConfig())
        tb.run(tb.master.create_partitioned_service("shop", "acme", tb.repo, "shop", requirement))
    record = tb.master.get_service("shop")
    root = operation(hub, "create_partitioned_service")
    assert root.duration == pytest.approx(record.primed_at - record.created_at, abs=1e-9)
    assert len(primes_of(hub, root)) == len(record.nodes) == 2
    assert_complete(hub)


def test_resize_traced():
    """A grow that spills past in-place growth primes a new node."""
    hub = Observability()
    with hub.activate():
        tb = build()
        create(tb, n=1)
        tb.run(tb.agent.service_resizing(tb.creds, "web", tb.repo, 4))
        tb.run(tb.agent.service_teardown(tb.creds, "web"))
    grow = operation(hub, "grow_service")
    assert grow.status == STATUS_OK
    assert len(primes_of(hub, grow)) >= 1
    teardown = operation(hub, "teardown_service")
    assert teardown.duration == 0.0
    assert_complete(hub)


def _exhaust_seattle_ips(tb):
    pool = tb.daemons["seattle"].ip_pool
    while pool.n_free:
        pool.allocate()


def _starve_tacoma_memory(tb):
    tacoma = tb.hosts["tacoma"]
    tacoma.memory.allocate(tacoma.memory.free_mb - 10, purpose="hog")
    tb.hosts["seattle"].reservations.reserve(ResourceVector(2500, 0, 0, 0), label="cpu-hog")


@pytest.mark.parametrize(
    "breakage, failed_stage",
    [(_exhaust_seattle_ips, "configure"), (_starve_tacoma_memory, "boot")],
)
def test_forced_priming_failure_closes_every_span(breakage, failed_stage):
    hub = Observability()
    with hub.activate():
        tb = build()
        breakage(tb)
        with pytest.raises(PrimingError):
            create(tb)
    root = operation(hub, "create_service")
    assert root.status == STATUS_FAILED
    # The failure ends both trees at the failed stage: no switch is set up.
    stages = PRIME_SEGMENTS[: PRIME_SEGMENTS.index(failed_stage) + 1]
    (prime,) = primes_of(hub, root, ROOT_SEGMENTS[:2], stages)
    assert prime.status == STATUS_FAILED
    assert hub.tracer.children_of(root)[-1].status == STATUS_FAILED
    segments = hub.tracer.children_of(prime)
    assert [s.status for s in segments] == [STATUS_OK] * (len(stages) - 1) + [STATUS_FAILED]
    assert_complete(hub)


def test_unknown_image_at_daemon_level_closes_prime_root():
    hub = Observability()
    with hub.activate():
        tb = build()
        requirement = ResourceRequirement(n=1, machine=MachineConfig())
        from repro.core.allocation import inflated_unit_vector

        with pytest.raises(PrimingError, match="unknown image"):
            tb.run(
                tb.daemons["seattle"].prime(
                    service_name="ghost", repository=tb.repo, image_name="missing",
                    units=1, unit_vector=inflated_unit_vector(requirement),
                    machine=requirement.machine,
                )
            )
    prime = operation(hub, "prime")
    assert prime.status == STATUS_FAILED
    segments = hub.tracer.children_of(prime)
    assert [(s.name, s.status) for s in segments] == [
        ("reserve", STATUS_OK), ("download", STATUS_FAILED),
    ]
    assert_complete(hub)


def test_dropped_events_surface_in_metrics():
    """Ring evictions of a bounded hub's tracer reach its exposition."""
    hub = Observability(span_capacity=2)
    assert "soda_trace_events_dropped_total" not in hub.prometheus()
    for i in range(5):
        hub.tracer.start_span(f"s{i}", lane="l", start=float(i))
    assert hub.tracer.dropped == 3
    assert "soda_trace_events_dropped_total 3" in hub.prometheus()


def test_clear():
    tracer = RequestTracer(capacity=1)
    tracer.start_span("a", lane="l", start=0.0)
    tracer.start_span("b", lane="l", start=1.0)
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.dropped == 0
