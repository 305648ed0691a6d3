#!/usr/bin/env python3
"""Observability walkthrough: hooks, metrics, trace export, profiling.

Builds a small producer/consumer design — two OCP masters bursting
through a CoreConnect PLB into a wait-stated memory, plus a FIFO-coupled
pipeline stage — and attaches the full ``repro.obs`` stack:

* a ``MetricsRegistry`` collecting bus / arbiter / FIFO instruments,
* a ``TraceEventCollector`` writing a Chrome trace-event JSON you can
  open in ui.perfetto.dev (the PLB reports each transaction to it), and
* a ``SimProfiler`` ranking processes by host dispatch time.

Run:  python examples/observability_demo.py
"""

import json

from repro.cam.coreconnect import PlbBus
from repro.cam.memory import MemorySlave
from repro.kernel import Fifo, Module, SimContext, ns, us
from repro.obs import (
    MetricsRegistry,
    ObserverGroup,
    SimProfiler,
    TraceEventCollector,
    watch_fifo,
)
from repro.ocp.types import OcpCmd, OcpRequest

BURST = 8
TRANSACTIONS = 12


def build(ctx, registry):
    """Two masters on a PLB plus a FIFO pipeline stage; returns the PLB."""
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top, metrics=registry)
    memory = MemorySlave("mem", top, size=1 << 16, read_wait=1,
                         write_wait=1)
    plb.attach_slave(memory, 0, 1 << 16)

    fifo = Fifo("work", top, capacity=4)
    watch_fifo(fifo, registry)

    def master(index):
        socket = plb.master_socket(f"m{index}", priority=index)

        def proc():
            for i in range(TRANSACTIONS):
                addr = index * 0x1000 + (i % 8) * BURST * 4
                if i % 2:
                    request = OcpRequest(OcpCmd.RD, addr,
                                         burst_length=BURST)
                else:
                    request = OcpRequest(OcpCmd.WR, addr,
                                         data=[i] * BURST,
                                         burst_length=BURST)
                response = yield from socket.transport(request)
                assert response.ok
                yield from fifo.write((index, i))
                yield ns(80)

        return proc

    def consumer():
        for _ in range(2 * TRANSACTIONS):
            item = yield from fifo.read()
            assert item is not None
            yield ns(200)   # slow consumer: the FIFO visibly fills

    for index in range(2):
        top.add_thread(master(index), f"gen{index}")
    top.add_thread(consumer, "consumer")
    return plb


def main():
    ctx = SimContext()
    registry = MetricsRegistry()
    plb = build(ctx, registry)

    profiler = SimProfiler()
    collector = TraceEventCollector()
    ctx.attach_observer(ObserverGroup(profiler, collector))

    profiler.start()
    ctx.run(us(100))
    profiler.stop()

    print(f"simulated {ctx.now}: {plb.stats.transactions} bus transactions, "
          f"{plb.stats.bytes} bytes\n")

    print("process hotspots (host dispatch time)")
    print(profiler.format_table(5))

    snapshot = registry.snapshot(ctx._now_fs)
    util = snapshot["bus.top.plb.utilization"]["value"]
    occupancy = snapshot["fifo.top.work.occupancy"]
    print(f"\nPLB utilization:       {util:.1%}")
    print(f"FIFO mean occupancy:   {occupancy['mean']:.2f} "
          f"(max {occupancy['max']})")
    print(f"arbiter grants:        "
          f"{snapshot['bus.top.plb.arbiter.grants']['value']}")

    collector.write("observability_demo.trace.json")
    registry.write_json("observability_demo.metrics.json",
                        now_fs=ctx._now_fs)
    with open("observability_demo.trace.json", encoding="utf-8") as fh:
        n_events = len(json.load(fh)["traceEvents"])
    print(f"\nwrote observability_demo.trace.json ({n_events} events; "
          f"open in ui.perfetto.dev)")
    print("wrote observability_demo.metrics.json")


if __name__ == "__main__":
    main()
