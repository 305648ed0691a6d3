#!/usr/bin/env python3
"""Fault injection & resilience walkthrough.

Three short acts, all driven by one seeded ``FaultPlan`` so every run
of this script prints exactly the same story:

1. **Recovering from a flaky bus slave.**  Two retrying masters drive a
   CoreConnect PLB; one address region is served by a ``FaultySlave``
   that returns ERR on a deterministic schedule.  Timeouts + exponential
   backoff turn the faults into retries instead of failures.
2. **Surviving a lossy SHIP link.**  A producer issues requests over a
   SHIP channel whose injector drops, corrupts, and delays frames;
   a ``with_timeout`` deadline around each ``request`` and
   ``retry_call`` recover dropped messages, and
   payload corruption surfaces as detectable value mismatches.
3. **Diagnosing a silent hang.**  A slave that never responds hangs the
   bus — no timeout can help the master, because the bus process itself
   is stuck.  A ``SimWatchdog`` converts the silent hang into a
   ``WatchdogError`` whose report names the blocked processes and what
   each one is waiting on.

Run:  python examples/fault_injection_demo.py
"""

from repro.cam.coreconnect import PlbBus
from repro.cam.memory import MemorySlave
from repro.faults import (
    BusFaultInjector,
    FaultPlan,
    FaultRule,
    FaultySlave,
    LinkFaultInjector,
    RetryPolicy,
    RetryingMaster,
    retry_call,
)
from repro.kernel import (
    Module,
    SimContext,
    SimWatchdog,
    WatchdogError,
    ns,
    us,
    with_timeout,
)
from repro.obs import MetricsRegistry
from repro.ocp.types import OcpCmd, OcpRequest
from repro.ship import ShipChannel, ShipInt, ShipPort, ShipTiming

SEED = 2026
TRANSACTIONS = 24
MESSAGES = 16


class BusDriver(Module):
    """Writes then reads back words through a retrying master."""

    def __init__(self, name, parent, master, base):
        super().__init__(name, parent)
        self.master = master
        self.base = base
        self.ok = 0
        self.add_thread(self.drive)

    def drive(self):
        """Alternate word writes and reads over the retry layer."""
        for i in range(TRANSACTIONS):
            addr = self.base + (i % 8) * 4
            if i % 2 == 0:
                request = OcpRequest(OcpCmd.WR, addr, data=[i])
            else:
                request = OcpRequest(OcpCmd.RD, addr)
            yield from self.master.transport(request)
            self.ok += 1
            yield ns(40)


class Producer(Module):
    """Requests echoes over the lossy link with timeout + retry."""

    def __init__(self, name, parent, policy):
        super().__init__(name, parent)
        self.port = ShipPort("port", self)
        self.policy = policy
        self.ok = 0
        self.mismatches = 0
        self.add_thread(self.produce)

    def produce(self):
        """Issue MESSAGES echo requests, retrying lost ones."""
        for i in range(MESSAGES):
            reply = yield from retry_call(
                lambda: with_timeout(
                    self.ctx, self.port.request(ShipInt(i)), us(2)),
                self.policy,
                what=f"echo request {i}",
            )
            if reply.value == i + 1:
                self.ok += 1
            else:
                self.mismatches += 1


class Echo(Module):
    """Replies value+1 to every request, forever."""

    def __init__(self, name, parent):
        super().__init__(name, parent)
        self.port = ShipPort("port", self)
        self.add_thread(self.serve)

    def serve(self):
        """Echo loop."""
        while True:
            msg = yield from self.port.recv()
            yield from self.port.reply(ShipInt(msg.value + 1))


def recovery_demo():
    """Acts 1 & 2: flaky slave + lossy link, fully recovered."""
    ctx = SimContext(name="recovery")
    top = Module("top", ctx=ctx)
    metrics = MetricsRegistry()
    plan = FaultPlan(seed=SEED, metrics=metrics)

    # -- act 1: PLB with a healthy memory and a flaky one ------------
    plb = PlbBus("plb", top, clock_period=ns(10), metrics=metrics)
    plb.fault_injector = BusFaultInjector(
        plan, error=FaultRule(every_nth=9))
    good = MemorySlave("good", top, size=0x1000)
    plb.attach_slave(good, base=0x0000, size=0x1000)
    flaky_mem = MemorySlave("flaky_mem", top, size=0x1000)
    flaky = FaultySlave(
        "flaky", top, target=flaky_mem, plan=plan,
        rule=FaultRule(every_nth=4), mode="error",
    )
    plb.attach_slave(flaky, base=0x2000, size=0x1000, localize=True)

    policy = RetryPolicy(max_attempts=5, backoff=ns(100),
                         exponential=True)
    drivers = []
    for i, base in enumerate((0x0000, 0x2000)):
        socket = plb.master_socket(f"m{i}", priority=i)
        master = RetryingMaster(
            f"retry{i}", top, socket=socket, policy=policy,
            timeout=us(4), plan=plan,
        )
        drivers.append(BusDriver(f"drv{i}", top, master, base))

    # -- act 2: SHIP link that drops / corrupts / delays frames ------
    link = ShipChannel(
        "link", top,
        timing=ShipTiming(base_latency=ns(20), per_byte=ns(1)),
    )
    link.fault_injector = LinkFaultInjector(
        plan,
        drop=FaultRule(every_nth=5),
        corrupt=FaultRule(every_nth=7),
        delay=FaultRule(every_nth=6),
        extra_latency=ns(300),
    )
    producer = Producer("producer", top, policy)
    echo = Echo("echo", top)
    producer.port.bind(link)
    echo.port.bind(link)

    ctx.run(us(10_000))

    print(f"act 1+2 finished at {ctx.now}")
    for drv in drivers:
        print(f"  {drv.name}: {drv.ok}/{TRANSACTIONS} transactions ok, "
              f"{drv.master.retries} retries, "
              f"{drv.master.recoveries} recoveries")
    print(f"  producer: {producer.ok}/{MESSAGES} echoes ok, "
          f"{producer.mismatches} corrupted payload(s) detected")
    print("  injected faults by kind:")
    for kind, count in sorted(plan.counts_by_kind().items()):
        print(f"    {kind:18s} {count}")
    print(f"  fault log digest: {plan.digest()[:16]}…")


def watchdog_demo():
    """Act 3: a silent slave hangs the bus; the watchdog names it."""
    ctx = SimContext(name="hang")
    top = Module("top", ctx=ctx)
    plan = FaultPlan(seed=SEED)
    plb = PlbBus("plb", top, clock_period=ns(10))
    mem = MemorySlave("mem", top, size=0x1000)
    silent = FaultySlave(
        "silent", top, target=mem, plan=plan,
        rule=FaultRule(every_nth=3), mode="no_response",
    )
    plb.attach_slave(silent, base=0x0000, size=0x1000, localize=True)
    socket = plb.master_socket("m0")

    def master():
        """Writes until the silent slave swallows one transaction."""
        for i in range(8):
            yield from socket.transport(
                OcpRequest(OcpCmd.WR, i * 4, data=[i]))

    ctx.register_thread(master, "master")
    SimWatchdog("wd", top, timeout=us(5))
    try:
        ctx.run(us(1_000))
    except WatchdogError as err:
        print(f"act 3: watchdog fired at {ctx.now}")
        print("  " + str(err).replace("\n", "\n  "))
    else:
        raise AssertionError("watchdog should have fired")


def main():
    """Run all three acts."""
    recovery_demo()
    print()
    watchdog_demo()


if __name__ == "__main__":
    main()
