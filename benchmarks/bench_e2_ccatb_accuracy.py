"""E2 — "fast yet timing-accurate" (§3): CCATB cycle-count accuracy.

CCATB's defining property (Pasricha et al., adopted by the paper for
the CAM library) is that transactions stay *cycle-count accurate at the
boundaries* while simulating much faster.  We replay one deterministic
transaction schedule on the CCATB PLB model and on the cycle-by-cycle
RTL fabric with identical protocol parameters and compare:

* per-transaction completion cycles (mean absolute error),
* total workload cycles,
* wall-clock cost.

Shape: cycle-count error within a few percent (the residue is
request-sampling synchronization in the clocked model), with a clear
CCATB wall-clock win.
"""

import time


from repro.kernel import Clock, Module, SimContext, ns, us
from repro.cam import PLB_TIMING, MemorySlave, PlbBus
from repro.ocp import OcpCmd, OcpRequest
from repro.rtl import RtlBusCore

from _util import print_table

PERIOD = ns(10)
TRANSACTIONS = 40


def schedule():
    """(start_offset_cycles, request) pairs for one master."""
    plan = []
    for i in range(TRANSACTIONS):
        gap = 20 + (i % 5) * 6
        if i % 3 == 0:
            req = OcpRequest(OcpCmd.RD, (i % 8) * 64, burst_length=8)
        else:
            req = OcpRequest(OcpCmd.WR, (i % 8) * 64,
                             data=[i] * 4, burst_length=4)
        plan.append((gap, req))
    return plan


def run_ccatb():
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top, clock_period=PERIOD)
    mem = MemorySlave("mem", top, size=1 << 12, read_wait=1,
                      write_wait=1)
    plb.attach_slave(mem, 0, 1 << 12)
    socket = plb.master_socket("m0")
    completions = []

    def body():
        for gap, req in schedule():
            yield PERIOD * gap
            yield from socket.transport(req)
            completions.append(ctx.now // PERIOD)

    ctx.register_thread(body, "m0")
    start = time.perf_counter()
    ctx.run()
    wall = time.perf_counter() - start
    return completions, wall


def run_rtl():
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    clk = Clock("clk", top, period=PERIOD)
    core = RtlBusCore(
        "core", top, clock=clk,
        timing=PLB_TIMING,
    )
    mem = MemorySlave("mem", top, size=1 << 12, read_wait=1,
                      write_wait=1)
    core.attach_slave(mem, 0, 1 << 12)
    port = core.master_socket("m0")
    completions = []

    def body():
        for gap, req in schedule():
            yield PERIOD * gap
            yield from port.transport(req)
            completions.append(ctx.now // PERIOD)
        ctx.stop()

    ctx.register_thread(body, "m0")
    start = time.perf_counter()
    ctx.run(us(10_000))
    wall = time.perf_counter() - start
    return completions, wall


def test_e2_ccatb_vs_pin_accuracy(benchmark):
    ccatb, ccatb_wall = benchmark.pedantic(
        run_ccatb, rounds=1, iterations=1
    )
    rtl, rtl_wall = run_rtl()
    assert len(ccatb) == len(rtl) == TRANSACTIONS

    per_txn_err = [abs(a - b) for a, b in zip(ccatb, rtl)]
    total_err_pct = abs(ccatb[-1] - rtl[-1]) / rtl[-1] * 100
    mean_err_cycles = sum(per_txn_err) / len(per_txn_err)
    rows = [{
        "metric": "total cycles",
        "ccatb": ccatb[-1],
        "pin_accurate": rtl[-1],
        "error_pct": round(total_err_pct, 3),
    }, {
        "metric": "mean |completion error| (cycles)",
        "ccatb": "-",
        "pin_accurate": "-",
        "error_pct": round(mean_err_cycles, 2),
    }, {
        "metric": "wall clock (ms)",
        "ccatb": round(ccatb_wall * 1e3, 2),
        "pin_accurate": round(rtl_wall * 1e3, 2),
        "error_pct": f"speedup {rtl_wall / ccatb_wall:.1f}x",
    }]
    print_table("E2: CCATB cycle-count accuracy vs pin-accurate", rows)

    # cycle-count accuracy at the boundaries: within a few cycles per
    # transaction (clock-sampling skew), <2% on the workload total
    assert total_err_pct < 2.0
    assert mean_err_cycles <= 3.0
    # and meaningfully faster
    assert ccatb_wall < rtl_wall


def test_e2_ccatb_benchmark(benchmark):
    benchmark(lambda: run_ccatb()[0])


def test_e2_rtl_benchmark(benchmark):
    benchmark(lambda: run_rtl()[0])
