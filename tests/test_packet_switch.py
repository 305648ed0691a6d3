"""Tests for the packet-switch application and its fairness shapes."""

import pytest

from repro.kernel import ns, us
from repro.apps import build_packet_switch, make_packet
from repro.apps.packet_switch import HEADER_WORDS


class TestPacketFormat:
    def test_header_layout(self):
        packet = make_packet(dst=2, src=1, seq=5, sent_ns=777,
                             payload_words=3)
        assert packet[:HEADER_WORDS] == [2, 1, 5, 777]
        assert len(packet) == HEADER_WORDS + 3

    def test_payload_deterministic(self):
        assert make_packet(0, 1, 2) == make_packet(0, 1, 2)


class TestSwitchFunctional:
    def test_crossbar_delivers_everything_in_order(self):
        system = build_packet_switch(ports=4, packets_per_port=8)
        system.ctx.run(us(1_000_000))
        assert system.total_received == 32
        assert system.flows_in_order()
        assert system.forwarder.forwarded == 32
        assert system.forwarder.drops == 0

    def test_packets_reach_the_right_port(self):
        system = build_packet_switch(ports=3, packets_per_port=6)
        system.ctx.run(us(1_000_000))
        for egress in system.egress:
            for packet in egress.packets:
                assert packet[0] == egress.port_id

    def test_shared_bus_variant_delivers_everything(self):
        system = build_packet_switch(ports=3, packets_per_port=5,
                                     fabric_kind="bus",
                                     arbiter="round-robin")
        system.ctx.run(us(1_000_000))
        assert system.total_received == 15
        assert system.flows_in_order()

    def test_ingress_finish_times_recorded(self):
        system = build_packet_switch(ports=2, packets_per_port=3)
        system.ctx.run(us(1_000_000))
        finish = system.ingress_finish_times()
        assert set(finish) == {0, 1}
        assert all(v >= 0 for v in finish.values())


class TestFairnessShapes:
    def _spread(self, arbiter):
        system = build_packet_switch(
            ports=4, packets_per_port=8,
            fabric_kind="bus", arbiter=arbiter, gap=ns(20),
        )
        system.ctx.run(us(1_000_000))
        assert system.total_received == 32
        latency = system.per_source_mean_latency_ns()
        return max(latency.values()) - min(latency.values()), latency

    def test_priority_starves_low_priority_ports(self):
        spread, latency = self._spread("static-priority")
        # port 0 (highest priority) must be served far faster than
        # port 3 (lowest)
        assert latency[0] < latency[3] * 0.6
        assert spread > 500

    def test_round_robin_equalizes(self):
        spread, latency = self._spread("round-robin")
        assert spread < 0.2 * max(latency.values())

    def test_round_robin_fairer_than_priority(self):
        rr_spread, _ = self._spread("round-robin")
        prio_spread, _ = self._spread("static-priority")
        assert rr_spread < prio_spread

    def test_crossbar_uniform_under_load(self):
        system = build_packet_switch(ports=4, packets_per_port=8,
                                     gap=ns(20))
        system.ctx.run(us(1_000_000))
        latency = system.per_source_mean_latency_ns()
        assert max(latency.values()) == pytest.approx(
            min(latency.values()), rel=0.1
        )

    def test_tdma_schedule_names_every_ingress_master(self):
        """Every TDMA slot owner is an ingress link's master socket on
        the fabric; an owner naming no socket would hand its slots to
        the round-robin fallback without a word."""
        system = build_packet_switch(ports=4, packets_per_port=4,
                                     fabric_kind="bus", arbiter="tdma")
        system.ctx.run(us(1_000_000))
        assert system.total_received == 16
        schedule = system.fabric.arbiter.schedule
        assert len(schedule) == 4
        assert set(schedule) == set(system.fabric.stats.latency_by_master)
