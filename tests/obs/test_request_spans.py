"""End-to-end: spans and metrics over a real traced siege.

The acceptance criterion pinned here: every traced request decomposes
into dispatch / queue_wait / cpu_service / tx segments whose durations
sum — within 1e-9 — to its measured response time.
"""

import pytest

from repro.core import MachineConfig, ResourceRequirement, build_paper_testbed
from repro.core.auth import Credentials
from repro.image.profiles import make_s1_web_content
from repro.obs import Observability, active
from repro.workload.clients import ClientPool
from repro.workload.siege import Siege

SEGMENT_NAMES = ["dispatch", "queue_wait", "cpu_service", "tx"]


@pytest.fixture(scope="module")
def sieged_hub():
    """One traced siege shared by the assertions below."""
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
        clients = ClientPool(testbed.lan, n=2)
        siege = Siege(
            testbed.sim, record.switch, clients,
            streams=testbed.streams, dataset_mb=0.5,
        )
        report = testbed.run(siege.run_open_loop(rate_rps=15.0, duration_s=4.0))
    return hub, report


def test_ok_requests_decompose_into_the_four_segments(sieged_hub):
    hub, report = sieged_hub
    requests = hub.tracer.requests(status="ok")
    assert len(requests) == report.completed > 0
    for root, segments in requests:
        assert [s.name for s in segments] == SEGMENT_NAMES
        assert all(s.finished for s in segments)


def test_segments_sum_to_measured_response_time(sieged_hub):
    hub, _report = sieged_hub
    for root, segments in hub.tracer.requests(status="ok"):
        total = sum(s.duration for s in segments)
        assert total == pytest.approx(root.duration, abs=1e-9)


def test_segments_tile_the_request_interval(sieged_hub):
    hub, _report = sieged_hub
    for root, segments in hub.tracer.requests(status="ok"):
        assert segments[0].start == root.start
        assert segments[-1].end == root.end
        for left, right in zip(segments, segments[1:]):
            assert left.end == right.start  # contiguous, no gaps


def test_switch_and_node_metrics_agree_with_the_report(sieged_hub):
    hub, report = sieged_hub
    ok = hub.registry.get("soda_switch_requests_total").value(
        service="web", outcome="ok"
    )
    assert ok == report.completed
    served = hub.registry.get("soda_node_served_total")
    assert sum(child.value for _labels, child in served.samples()) == report.completed
    inflight = hub.registry.get("soda_node_inflight")
    assert all(child.value == 0 for _labels, child in inflight.samples())
    text = hub.prometheus()
    assert "soda_daemon_priming_total" in text
    assert "soda_master_admissions_total" in text
    assert "soda_lan_flushes_total" in text


def test_hub_reporting_surfaces(sieged_hub, tmp_path):
    hub, report = sieged_hub
    breakdown = hub.breakdown(limit=5)
    assert "cpu_service ms" in breakdown
    # Provisioning and serving share one trace; creation outranks the
    # short siege's requests by total time, so look past the top rows.
    flame = hub.flame_summary()
    assert "request" in flame and "create_service" in flame
    spans_path = str(tmp_path / "siege.spans.json")
    hub.write_spans(spans_path)
    hub.write_chrome_trace(str(tmp_path / "siege.chrome.json"))
    hub.write_prometheus(str(tmp_path / "siege.prom"))
    from repro.obs.export import load_spans_json

    assert len(load_spans_json(spans_path)) == len(hub.tracer.spans())


def test_ambient_activation_scopes_and_nests():
    assert active() is None
    outer, inner = Observability(), Observability()
    with outer.activate():
        assert active() is outer
        with inner.activate():
            assert active() is inner  # newest wins
        assert active() is outer
    assert active() is None


def test_disabled_pillars_raise_on_use():
    hub = Observability(tracing=False, metrics=False)
    with pytest.raises(ValueError, match="tracing is disabled"):
        hub.breakdown()
    with pytest.raises(ValueError, match="metrics are disabled"):
        hub.prometheus()
    with pytest.raises(ValueError, match="profiling is disabled"):
        hub.kernel_profile()


def test_requests_are_only_request_roots_under_chaos():
    """Fault and control-plane roots share the tracer but are not requests."""
    from repro.faults.chaos import CHAOS_RUN, chaos_spec
    from repro.scenario.run import run_scenario

    hub = Observability()
    with hub.activate():
        report = run_scenario(chaos_spec(20.0), seed=0, **CHAOS_RUN)
    requests = hub.tracer.requests()
    assert all(root.name == "request" for root, _segments in requests)
    assert len(requests) == report.issued == 512
    other = {root.name.split(":")[0] for root in hub.tracer.roots()} - {"request"}
    assert {"fault", "create_service"} <= other
