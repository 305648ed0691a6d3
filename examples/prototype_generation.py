#!/usr/bin/env python3
"""Automatic prototype generation with accessors, verified on the pins.

The bottom of the design flow (§3 of the paper): the designer has
refined PEs to pin-level OCP, picks a target communication architecture,
and accessors connect everything automatically.  This script:

1. builds a two-PE prototype on the cycle-by-cycle PLB-like fabric with
   `build_prototype`, wired like any fabric: `attach_slave` maps the
   memory, and each `master_socket` is a PE's pin-level OCP master with
   its own accessor;
2. attaches a passive OCP protocol monitor to each socket's pins and a
   VCD tracer to one socket's pins;
3. runs a DMA-style transfer, checks data integrity, prints the
   monitors' protocol reports, and leaves `prototype_pins.vcd` for
   GTKWave.

Run:  python examples/prototype_generation.py
"""

from repro.kernel import Clock, Module, SimContext, ns, us
from repro.accessors import build_prototype
from repro.cam import MemorySlave
from repro.ocp import OcpCmd, OcpPinMonitor, OcpRequest
from repro.trace import VcdTracer


def main():
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    clk = Clock("clk", top, period=ns(10))

    mem = MemorySlave("ddr", top, size=1 << 16, read_wait=2,
                      write_wait=1)
    prototype = build_prototype("proto", top, clk, fabric="plb")
    prototype.attach_slave(mem, 0x0, 1 << 16)
    # RTL-refined PEs present pin-level OCP: one writer, one reader.
    masters = {
        "dma": prototype.master_socket("dma", priority=1),
        "cpu": prototype.master_socket("cpu", priority=0),
    }
    monitors = {
        name: OcpPinMonitor(f"{name}_mon", top, bundle=master.bundle)
        for name, master in masters.items()
    }

    tracer = VcdTracer("prototype_pins.vcd", ctx)
    dma_pins = masters["dma"].bundle
    tracer.trace(clk, "clk")
    tracer.trace(dma_pins.m_cmd, "dma_MCmd", width=3)
    tracer.trace(dma_pins.m_addr, "dma_MAddr", width=32)
    tracer.trace(dma_pins.s_cmd_accept, "dma_SCmdAccept")
    tracer.trace(dma_pins.s_resp, "dma_SResp", width=2)

    payload = [(i * 2654435761) & 0xFFFFFFFF for i in range(64)]
    checked = []

    def dma_writer():
        for offset in range(0, 64, 16):  # PLB-legal 16-beat bursts
            yield from masters["dma"].transport(OcpRequest(
                OcpCmd.WR, 0x1000 + offset * 4,
                data=payload[offset:offset + 16], burst_length=16,
            ))

    def cpu_reader():
        yield us(4)  # let the DMA run first
        data = []
        for offset in range(0, 64, 16):
            resp = yield from masters["cpu"].transport(OcpRequest(
                OcpCmd.RD, 0x1000 + offset * 4, burst_length=16,
            ))
            data.extend(resp.data)
        checked.append(data == payload)
        ctx.stop()

    ctx.register_thread(dma_writer, "dma")
    ctx.register_thread(cpu_reader, "cpu")
    ctx.run(us(1_000))
    tracer.close()

    print(f"prototype ran {prototype.core.cycles} bus cycles, "
          f"{prototype.core.transactions_completed} transactions, "
          f"utilization {prototype.core.utilization():.1%}")
    print(f"data integrity through the pin-level path: "
          f"{'PASS' if checked == [True] else 'FAIL'}")
    for name, monitor in monitors.items():
        report = monitor.report()
        status = "clean" if monitor.clean else "VIOLATIONS"
        print(f"  {name} socket: {report['bursts']} bursts, "
              f"{report['request_beats']} request beats, "
              f"{report['stall_cycles']} stall cycles — {status}")
        for violation in monitor.violations:
            print(f"    {violation}")
    print("waveform written to prototype_pins.vcd")
    assert checked == [True]
    assert all(m.clean for m in monitors.values())


if __name__ == "__main__":
    main()
