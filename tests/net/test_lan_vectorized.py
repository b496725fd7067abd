"""Wide wire groups through the LAN's progressive fill.

A 30-flow simultaneous fan-in is wider than any group the small unit
tests build; the one scalar allocator must still finish every flow at
its exact fair share of the bottleneck NIC.
"""

from repro.net.lan import LAN
from repro.sim.kernel import Simulator


def test_default_threshold_engages_on_wide_fan_in():
    sim = Simulator()
    lan = LAN(sim, bandwidth_mbps=10_000.0, latency_s=0.0)
    sink = lan.nic("sink", rate_mbps=1000.0)
    srcs = [lan.nic(f"s{i}", rate_mbps=1000.0) for i in range(30)]
    flows = [lan.transfer(src, sink, 1.0) for src in srcs]
    sim.run()
    # The sink NIC is the bottleneck: 30 MB at 125 MB/s, and identical
    # flows finish together.
    assert [f.finished_at for f in flows] == [0.24] * 30
