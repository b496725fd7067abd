"""Tests for the WAN link between LANs."""

import math

import pytest

from repro.net.lan import LAN
from repro.net.wan import WanLink
from repro.sim import Simulator


def build(wan_mbps=20.0, latency=0.0):
    sim = Simulator()
    lan_a = LAN(sim, bandwidth_mbps=100.0)
    lan_b = LAN(sim, bandwidth_mbps=100.0)
    wan = WanLink(sim, lan_a, lan_b, bandwidth_mbps=wan_mbps, latency_s=latency)
    src = lan_a.nic("src", 100.0)
    dst = lan_b.nic("dst", 100.0)
    return sim, lan_a, lan_b, wan, src, dst


def test_validation():
    sim = Simulator()
    lan = LAN(sim)
    other = LAN(sim)
    with pytest.raises(ValueError):
        WanLink(sim, lan, other, bandwidth_mbps=0)
    with pytest.raises(ValueError):
        WanLink(sim, lan, other, bandwidth_mbps=10, latency_s=-1)
    with pytest.raises(ValueError):
        WanLink(sim, lan, lan, bandwidth_mbps=10)
    # Non-finite values are rejected by the link itself, not by the
    # gateway NIC, and never reach the federation lookahead.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="WAN bandwidth"):
            WanLink(sim, lan, other, bandwidth_mbps=bad)
        with pytest.raises(ValueError, match="WAN latency"):
            WanLink(sim, lan, other, bandwidth_mbps=10, latency_s=bad)


def test_wan_is_the_bottleneck():
    sim, lan_a, lan_b, wan, src, dst = build(wan_mbps=20.0)
    transfer = wan.transfer(src, dst, size_mb=2.5)  # 2.5 MB at 2.5 MB/s
    sim.run()
    assert transfer.done.triggered
    assert transfer.elapsed == pytest.approx(1.0, rel=0.02)


def test_latency_added_once():
    sim, *_ , wan, src, dst = build(wan_mbps=20.0, latency=0.05)
    transfer = wan.transfer(src, dst, size_mb=2.5)
    sim.run()
    assert transfer.elapsed == pytest.approx(1.05, rel=0.02)


def test_concurrent_transfers_share_the_pipe():
    sim, lan_a, lan_b, wan, src, dst = build(wan_mbps=20.0)
    src2 = lan_a.nic("src2", 100.0)
    dst2 = lan_b.nic("dst2", 100.0)
    t1 = wan.transfer(src, dst, size_mb=2.5)
    t2 = wan.transfer(src2, dst2, size_mb=2.5)
    sim.run()
    # Each gets 10 Mbps -> 2 s.
    assert t1.elapsed == pytest.approx(2.0, rel=0.05)
    assert t2.elapsed == pytest.approx(2.0, rel=0.05)


def test_share_released_when_transfer_completes():
    sim, lan_a, lan_b, wan, src, dst = build(wan_mbps=20.0)
    src2 = lan_a.nic("src2", 100.0)
    dst2 = lan_b.nic("dst2", 100.0)
    small = wan.transfer(src, dst, size_mb=1.25)
    large = wan.transfer(src2, dst2, size_mb=2.5)
    sim.run()
    # small: 1.25 MB at 1.25 MB/s -> 1 s; large then gets the full pipe:
    # 1.25 MB shared + 1.25 MB at 2.5 MB/s -> 1.5 s.
    assert small.elapsed == pytest.approx(1.0, rel=0.05)
    assert large.elapsed == pytest.approx(1.5, rel=0.05)


def test_wan_leaves_intra_lan_traffic_alone():
    sim, lan_a, lan_b, wan, src, dst = build(wan_mbps=20.0)
    other_src = lan_a.nic("o1", 1000.0)
    other_dst = lan_a.nic("o2", 1000.0)
    wan.transfer(src, dst, size_mb=2.5)
    local = lan_a.transfer(other_src, other_dst, size_mb=10.0)
    sim.run()
    # Local flow gets the LAN minus the WAN flow's 20 Mbps: 80 Mbps.
    assert local.finished_at == pytest.approx(1.0, rel=0.05)


def test_endpoint_validation():
    sim, lan_a, lan_b, wan, src, dst = build()
    src_b = lan_b.nic("src-b", 100.0)
    with pytest.raises(ValueError, match="share a LAN"):
        wan.transfer(src_b, dst, size_mb=1.0)
    foreign_lan = LAN(sim)
    foreign = foreign_lan.nic("x", 100.0)
    with pytest.raises(ValueError, match="linked LANs"):
        wan.transfer(foreign, dst, size_mb=1.0)


def test_active_transfer_listing():
    sim, *_, wan, src, dst = build()
    transfer = wan.transfer(src, dst, size_mb=1.0)
    assert wan.active_transfers == [transfer]
    sim.run()
    assert wan.active_transfers == []


def test_cross_site_image_download_slower_than_local():
    """The federation story: priming from a remote repository pays the
    WAN price."""
    from repro.net.http import TCP_EFFICIENCY

    sim, lan_a, lan_b, wan, src, dst = build(wan_mbps=10.0)
    remote = wan.transfer(src, dst, size_mb=29.3)
    local = lan_a.transfer(
        lan_a.nic("l1", 100.0), lan_a.nic("l2", 100.0), size_mb=29.3
    )
    sim.run()
    assert remote.elapsed > 7 * (local.finished_at or 0)


# -- size validation and latency-dominated transfers (PR 8) ----------------

def test_transfer_rejects_zero_and_negative_size():
    sim, *_, wan, src, dst = build()
    with pytest.raises(ValueError, match="positive"):
        wan.transfer(src, dst, size_mb=0.0)
    with pytest.raises(ValueError, match="positive"):
        wan.transfer(src, dst, size_mb=-1.0)
    assert wan.active_transfers == []


def test_tiny_transfer_is_latency_dominated():
    sim, *_, wan, src, dst = build(wan_mbps=20.0, latency=0.5)
    transfer = wan.transfer(src, dst, size_mb=1e-6)
    sim.run()
    assert transfer.done.triggered
    assert transfer.elapsed == pytest.approx(0.5, rel=0.01)


def test_descriptor_models_latency_only_messages():
    from repro.net.wan import WanTransferDescriptor

    descriptor = WanTransferDescriptor(
        src="a", dst="b", size_mb=0.0, bandwidth_mbps=100.0, lookahead_s=0.03
    )
    assert descriptor.transfer_s == 0.0
    assert descriptor.delivery_time(10.0) == pytest.approx(10.03)
    sized = WanTransferDescriptor(
        src="a", dst="b", size_mb=12.5, bandwidth_mbps=100.0, lookahead_s=0.03
    )
    assert sized.delivery_time(0.0) == pytest.approx(0.03 + 1.0)


def test_descriptor_validation():
    from repro.net.wan import WanTransferDescriptor

    with pytest.raises(ValueError, match="size_mb"):
        WanTransferDescriptor("a", "b", -0.1, 100.0, 0.03)
    with pytest.raises(ValueError, match="bandwidth"):
        WanTransferDescriptor("a", "b", 1.0, 0.0, 0.03)
    with pytest.raises(ValueError, match="lookahead"):
        WanTransferDescriptor("a", "b", 1.0, 100.0, 0.0)


def test_describe_builds_descriptor_from_link():
    sim, *_, wan, src, dst = build(wan_mbps=20.0, latency=0.04)
    descriptor = wan.describe(2.5, label="img")
    assert descriptor.lookahead_s == 0.04
    assert descriptor.bandwidth_mbps == 20.0
    assert descriptor.label == "img"
    assert descriptor.delivery_time(0.0) == pytest.approx(0.04 + 1.0)
    assert wan.lookahead_s == 0.04


# -- _reshare under concurrent transfer churn (PR 8) ------------------------

def test_reshare_under_transfer_churn():
    """Staggered joins/leaves re-share the pipe; caps track membership."""
    sim, lan_a, lan_b, wan, src, dst = build(wan_mbps=20.0)

    endpoints = [
        (lan_a.nic(f"s{i}", 100.0), lan_b.nic(f"d{i}", 100.0)) for i in range(4)
    ]
    transfers = []

    def churn(sim):
        # t=0: two transfers join together.
        transfers.append(wan.transfer(*endpoints[0], size_mb=2.5))
        transfers.append(wan.transfer(*endpoints[1], size_mb=2.5))
        yield sim.timeout(0.5)
        # t=0.5: two more join mid-flight; caps drop to a quarter.
        transfers.append(wan.transfer(*endpoints[2], size_mb=1.25))
        transfers.append(wan.transfer(*endpoints[3], size_mb=1.25))
        assert len(wan.active_transfers) == 4
        for transfer in wan.active_transfers:
            assert transfer.flow_a.rate_cap_mbps == pytest.approx(5.0)

    sim.process(churn(sim))
    sim.run()
    assert all(t.done.triggered for t in transfers)
    assert wan.active_transfers == []
    # Survivors re-expand to the full pipe as leavers release shares:
    # exact completion times are allocator-dependent, but everything
    # finishes and nothing exceeds the serial bound.
    assert max(t.elapsed for t in transfers) < 7.5 / 2.5 + 0.01


# -- fault hooks: stall/restore (PR 8 satellite) ----------------------------

def test_stalled_link_blocks_transfers_and_restores_cleanly():
    sim, *_, wan, src, dst = build(wan_mbps=20.0)

    transfer = wan.transfer(src, dst, size_mb=2.5)  # 1 s unstalled

    def fault(sim):
        yield sim.timeout(0.5)
        wan.stall()
        assert wan.stalled
        yield sim.timeout(2.0)
        wan.restore()
        assert not wan.stalled

    sim.process(fault(sim))
    sim.run()
    assert transfer.done.triggered
    # 0.5 s of progress + 2 s frozen + remaining 0.5 s.
    assert transfer.elapsed == pytest.approx(3.0, rel=0.02)


def test_stall_blocks_transfers_started_while_down():
    sim, *_, wan, src, dst = build(wan_mbps=20.0)
    wan.stall()
    transfer = wan.transfer(src, dst, size_mb=2.5)

    def restore(sim):
        yield sim.timeout(4.0)
        wan.restore()

    sim.process(restore(sim))
    sim.run()
    assert transfer.done.triggered
    assert transfer.elapsed == pytest.approx(5.0, rel=0.02)


def test_stall_and_restore_are_idempotent():
    sim, *_, wan, src, dst = build(wan_mbps=20.0)
    wan.restore()  # restore with no stall: no-op
    wan.stall()
    wan.stall()
    assert wan.stalled
    wan.restore()
    assert not wan.stalled
    transfer = wan.transfer(src, dst, size_mb=2.5)
    sim.run()
    assert transfer.elapsed == pytest.approx(1.0, rel=0.02)


def test_injector_stalls_wan_link():
    """The PR 5 injector freezes a registered WAN link and restores it."""
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule

    sim, lan_a, lan_b, wan, src, dst = build(wan_mbps=20.0)
    injector = FaultInjector(sim, lan_a)
    injector.add_wan_link(wan)
    schedule = FaultSchedule(
        [FaultEvent(at=0.5, kind=FaultKind.LINK_STALL, target=wan.name,
                    duration_s=2.0)]
    )
    transfer = wan.transfer(src, dst, size_mb=2.5)
    injector.arm(schedule)
    sim.run()
    assert transfer.done.triggered
    assert transfer.elapsed == pytest.approx(3.0, rel=0.02)
    phases = [(kind, target, phase) for _, kind, target, phase in injector.log]
    assert phases == [
        ("link_stall", wan.name, "inject"),
        ("link_stall", wan.name, "restore"),
    ]
    assert not wan.stalled
