"""A packet-switch dataplane on a communication architecture.

The second domain application: an N-port packet switch whose input
links are SHIP connections mapped over a fabric (crossbar or shared
bus) by the :class:`~repro.flow.mapping.SystemMapper`.  Each input port
streams packets to a forwarding engine, which routes them by
destination port to per-output collectors.

Beyond being a realistic workload, the app stages the classic
**arbitration-fairness experiment**: let one port be a hog (zero
inter-packet gap) and compare how static-priority vs TDMA arbitration
shares the ingress fabric — priority starves the low-priority ports,
TDMA bounds everyone's service lag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.kernel import Module, SimContext, SimTime, ns, us
from repro.cam import CrossbarCam, GenericBus, TdmaArbiter, make_arbiter
from repro.flow.mapping import SystemMapper, master_socket_name
from repro.models import ProcessingElement
from repro.ship import ShipChannel, ShipIntArray, ShipMasterPort, ShipSlavePort
from repro.trace.stats import TimeStats

#: Packet layout inside the ShipIntArray:
#: [dst_port, src_port, seq, sent_ns, *payload]
HEADER_WORDS = 4


def make_packet(dst: int, src: int, seq: int, sent_ns: int = 0,
                payload_words: int = 4) -> List[int]:
    """Build one packet's words (deterministic payload)."""
    payload = [(src * 1000 + seq * 7 + i) % 977
               for i in range(payload_words)]
    return [dst, src, seq, sent_ns] + payload


class IngressPE(ProcessingElement):
    """One input port: streams packets into the switch."""

    def __init__(self, name, parent, chan, port_id: int, packets: int,
                 ports: int, gap: SimTime, payload_words: int = 4):
        super().__init__(name, parent)
        self.port_id = port_id
        self.packets = packets
        self.ports = ports
        self.gap = gap
        self.payload_words = payload_words
        self.sent = 0
        self.finished_at: Optional[SimTime] = None
        self.out = self.ship_port("out", ShipMasterPort)
        self.out.bind(chan)
        self.add_thread(self.run)

    def run(self):
        """Send ``packets`` packets round-robining the destinations."""
        for seq in range(self.packets):
            if self.gap > ns(0):
                yield self.gap
            dst = (self.port_id + 1 + seq) % self.ports
            packet = make_packet(dst, self.port_id, seq,
                                 int(self.ctx.now.to("ns")),
                                 self.payload_words)
            yield from self.out.send(ShipIntArray(packet))
            self.sent += 1
        self.finished_at = self.ctx.now


#: The forwarder's route lookup time per packet.
LOOKUP_TIME = ns(50)


class ForwardingPE(ProcessingElement):
    """The switch core: one forwarding thread per input port."""

    def __init__(self, name, parent, in_chans, out_chans):
        super().__init__(name, parent)
        self.forwarded = 0
        self.drops = 0
        self._outs = []
        for i, chan in enumerate(out_chans):
            port = self.ship_port(f"out{i}", ShipMasterPort)
            port.bind(chan)
            self._outs.append(port)
        for i, chan in enumerate(in_chans):
            port = self.ship_port(f"in{i}", ShipSlavePort)
            port.bind(chan)
            self.add_thread(
                lambda p=port: self._forward(p), name=f"fwd{i}"
            )

    def _forward(self, in_port):
        while True:
            packet = yield from in_port.recv()
            yield LOOKUP_TIME
            dst = packet.values[0]
            if 0 <= dst < len(self._outs):
                yield from self._outs[dst].send(packet)
                self.forwarded += 1
            else:
                self.drops += 1


class EgressPE(ProcessingElement):
    """One output port: collects packets and records per-flow order."""

    def __init__(self, name, parent, chan, port_id: int):
        super().__init__(name, parent)
        self.port_id = port_id
        self.packets: List[List[int]] = []
        #: per source: sequence numbers in arrival order
        self.flows: Dict[int, List[int]] = {}
        #: per source: delivery latency statistics
        self.latency_by_src: Dict[int, TimeStats] = {}
        self.inp = self.ship_port("inp", ShipSlavePort)
        self.inp.bind(chan)
        self.add_thread(self.run)

    def run(self):
        """Collect packets forever."""
        while True:
            packet = yield from self.inp.recv()
            words = packet.values
            self.packets.append(words)
            src, seq, sent_ns = words[1], words[2], words[3]
            self.flows.setdefault(src, []).append(seq)
            latency_ns = int(self.ctx.now.to("ns")) - sent_ns
            self.latency_by_src.setdefault(src, TimeStats()).add(
                ns(max(latency_ns, 0))
            )


@dataclass
class PacketSwitchSystem:
    """Handle to a built switch."""

    ctx: SimContext
    ingress: List[IngressPE]
    forwarder: ForwardingPE
    egress: List[EgressPE]
    fabric: object

    @property
    def total_received(self) -> int:
        """Packets that reached an output port."""
        return sum(len(e.packets) for e in self.egress)

    def flows_in_order(self) -> bool:
        """Per-flow FIFO: every (src -> dst) flow arrived in seq order."""
        for egress in self.egress:
            for seqs in egress.flows.values():
                if seqs != sorted(seqs):
                    return False
        return True

    def per_source_mean_latency_ns(self) -> Dict[int, float]:
        """Mean ingress->egress delivery latency per source port."""
        totals: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for egress in self.egress:
            for src, stats in egress.latency_by_src.items():
                totals[src] = totals.get(src, 0.0) + stats.total_ns
                counts[src] = counts.get(src, 0) + stats.count
        return {
            src: totals[src] / counts[src]
            for src in totals if counts[src]
        }


def build_packet_switch(
    ports: int = 4,
    packets_per_port: int = 12,
    fabric_kind: str = "crossbar",
    arbiter: str = "round-robin",
    gap: SimTime = ns(300),
    payload_words: int = 4,
    tdma_slot_cycles: int = 8,
) -> PacketSwitchSystem:
    """Build the switch with ingress links mapped over a fabric."""
    ctx = SimContext("packet_switch")
    top = Module("top", ctx=ctx)
    if fabric_kind == "crossbar":
        fabric = CrossbarCam("fabric", top, clock_period=ns(10))
    else:
        names = [master_socket_name(f"in{i}") for i in range(ports)]
        if arbiter == "tdma":
            arb = TdmaArbiter(names, slot_cycles=tdma_slot_cycles)
        else:
            arb = make_arbiter(arbiter)
        fabric = GenericBus("fabric", top, clock_period=ns(10),
                            arbiter=arb)
    mapper = SystemMapper(top, fabric, poll_interval=ns(100),
                          capacity_words=16)
    # port index doubles as bus priority (port 0 wins under
    # static-priority arbitration — the fairness experiment's knob)
    in_links = [
        mapper.connect(f"in{i}", bus_priority=i) for i in range(ports)
    ]
    # output links stay local point-to-point channels (egress is on the
    # same die as the forwarder); the fabric carries the ingress side
    out_chans = [ShipChannel(f"out{i}", top) for i in range(ports)]

    ingress = [
        IngressPE(
            f"ingress{i}", top, in_links[i].master_attach, i,
            packets_per_port, ports, gap=gap,
            payload_words=payload_words,
        )
        for i in range(ports)
    ]
    forwarder = ForwardingPE(
        "switch", top,
        [link.slave_attach for link in in_links],
        out_chans,
    )
    egress = [
        EgressPE(f"egress{i}", top, out_chans[i], i)
        for i in range(ports)
    ]
    return PacketSwitchSystem(
        ctx=ctx, ingress=ingress, forwarder=forwarder, egress=egress,
        fabric=fabric,
    )
