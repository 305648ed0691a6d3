"""A seeded, fully deterministic multi-layer fault campaign.

One :func:`run_campaign` call builds a small system exercising every
injector in the package — a CCATB bus with a forced-error/decode-miss
injector and a faulty slave, retrying masters, a memory bit-flip
injector, and a SHIP link with drop/corrupt faults under timeout+retry —
runs it to completion, and renders a stable text summary.

Because every random decision flows through one seeded
:class:`~repro.faults.plan.FaultPlan` and the kernel is deterministic,
the summary (and its SHA-256 digest) is bit-identical for a given seed
across runs and Python versions.  CI pins the seed-1 summary as a golden
file (``benchmarks/golden_fault_campaign.txt``); run this module as a
script to check or regenerate it::

    PYTHONPATH=src python -m repro.faults.campaign --check benchmarks/golden_fault_campaign.txt
    PYTHONPATH=src python -m repro.faults.campaign --write benchmarks/golden_fault_campaign.txt
"""

from __future__ import annotations

from typing import Generator, List

from repro.kernel.context import SimContext
from repro.kernel.module import Module
from repro.kernel.simtime import ns, us
from repro.kernel.sync import with_timeout
from repro.cam.bus import GenericBus
from repro.cam.memory import MemorySlave
from repro.obs.metrics import MetricsRegistry
from repro.ocp.types import OcpCmd, OcpRequest
from repro.ship.channel import ShipChannel, ShipTiming
from repro.ship.ports import ShipPort
from repro.ship.serializable import ShipInt
from repro.faults.bus import BusFaultInjector, FaultySlave
from repro.faults.link import LinkFaultInjector
from repro.faults.memory import MemoryFaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.retry import (
    RetryExhaustedError,
    RetryPolicy,
    RetryingMaster,
    retry_call,
)


class _BusDriver(Module):
    """Issues alternating word writes/reads through a retrying master."""

    def __init__(self, name, parent, master: RetryingMaster,
                 base: int, transactions: int):
        super().__init__(name, parent)
        self.master = master
        self.base = base
        self.transactions = transactions
        self.ok = 0
        self.exhausted = 0
        self.add_thread(self._drive)

    def _drive(self) -> Generator:
        for i in range(self.transactions):
            addr = self.base + (i % 16) * 4
            if i % 2 == 0:
                request = OcpRequest(OcpCmd.WR, addr, data=[i])
            else:
                request = OcpRequest(OcpCmd.RD, addr)
            try:
                yield from self.master.transport(request)
                self.ok += 1
            except RetryExhaustedError:
                self.exhausted += 1
            yield ns(40)


class _ShipProducer(Module):
    """Requests ``count`` echoes over a lossy link, with timeout+retry."""

    def __init__(self, name, parent, count: int, policy: RetryPolicy):
        super().__init__(name, parent)
        self.port = ShipPort("port", self)
        self.count = count
        self.policy = policy
        self.ok = 0
        self.mismatches = 0
        self.exhausted = 0
        self.add_thread(self._produce)

    def _produce(self) -> Generator:
        for i in range(self.count):
            try:
                reply = yield from retry_call(
                    lambda: with_timeout(
                        self.ctx, self.port.request(ShipInt(i)), us(1)),
                    self.policy,
                    what=f"{self.full_name} request {i}",
                )
            except RetryExhaustedError:
                self.exhausted += 1
                continue
            if reply.value == i + 1:
                self.ok += 1
            else:
                self.mismatches += 1


class _ShipEcho(Module):
    """Replies value+1 to every request, forever."""

    def __init__(self, name, parent):
        super().__init__(name, parent)
        self.port = ShipPort("port", self)
        self.served = 0
        self.add_thread(self._serve)

    def _serve(self) -> Generator:
        while True:
            msg = yield from self.port.recv()
            yield from self.port.reply(ShipInt(msg.value + 1))
            self.served += 1


class CampaignResult:
    """Everything a campaign run produced, renderable as stable text."""

    def __init__(self, seed: int, plan: FaultPlan,
                 metrics: MetricsRegistry, lines: List[str]):
        self.seed = seed
        self.plan = plan
        self.metrics = metrics
        self.lines = lines

    def summary(self) -> str:
        """The full stable text summary (what the golden file stores)."""
        return "\n".join(self.lines) + "\n"


def run_campaign(seed: int = 1, transactions: int = 40,
                 messages: int = 24) -> CampaignResult:
    """Run the standard multi-layer fault campaign for one seed."""
    ctx = SimContext(name=f"fault_campaign_{seed}")
    top = Module("top", ctx=ctx)
    metrics = MetricsRegistry()
    plan = FaultPlan(seed=seed, metrics=metrics)

    bus = GenericBus("bus", top, clock_period=ns(10), metrics=metrics)
    bus.fault_injector = BusFaultInjector(
        plan,
        error=FaultRule(probability=0.10),
        decode=FaultRule(every_nth=17),
    )
    mem = MemorySlave("mem", top, size=0x1000)
    bus.attach_slave(mem, base=0x0000, size=0x1000)
    flaky_mem = MemorySlave("flaky_mem", top, size=0x1000)
    flaky = FaultySlave(
        "flaky", top, target=flaky_mem, plan=plan,
        rule=FaultRule(every_nth=5), mode="error",
    )
    bus.attach_slave(flaky, base=0x2000, size=0x1000, localize=True)

    policy = RetryPolicy(max_attempts=4, backoff=ns(80), exponential=True)
    drivers = []
    for i, base in enumerate((0x0000, 0x2000)):
        socket = bus.master_socket(f"m{i}", priority=i)
        master = RetryingMaster(
            f"retry{i}", top, socket=socket, policy=policy,
            timeout=us(4), plan=plan,
        )
        drivers.append(
            _BusDriver(f"drv{i}", top, master, base, transactions)
        )

    MemoryFaultInjector(
        "seu", top, memory=mem, plan=plan, period=us(3), max_flips=5,
    )

    link = ShipChannel(
        "link", top,
        timing=ShipTiming(base_latency=ns(20), per_byte=ns(1)),
    )
    link.fault_injector = LinkFaultInjector(
        plan,
        drop=FaultRule(every_nth=7),
        corrupt=FaultRule(every_nth=5),
        delay=FaultRule(every_nth=11),
        extra_latency=ns(200),
    )
    producer = _ShipProducer("producer", top, messages, policy)
    echo = _ShipEcho("echo", top)
    producer.port.bind(link)
    echo.port.bind(link)

    ctx.run(us(10_000))

    lines = [f"fault campaign seed={seed} finished at {ctx.now}"]
    for drv in drivers:
        lines.append(
            f"bus {drv.name}: ok={drv.ok} exhausted={drv.exhausted} "
            f"retries={drv.master.retries} "
            f"recoveries={drv.master.recoveries}"
        )
    lines.append(
        f"ship producer: ok={producer.ok} "
        f"mismatches={producer.mismatches} "
        f"exhausted={producer.exhausted} served={echo.served} "
        f"replies_dropped={link.replies_dropped}"
    )
    lines.extend(plan.summary_lines())
    snapshot = metrics.snapshot()
    for name in sorted(snapshot):
        if name.startswith("fault."):
            lines.append(f"metric {name} = {snapshot[name]['value']}")
    lines.append(f"digest {plan.digest()}")
    return CampaignResult(seed, plan, metrics, lines)


#: Bus-error pressures the golden fault-rate sweep visits, in order.
SWEEP_RATES = (0.0, 0.1, 0.25)


def sweep_points(seed: int = 1) -> List[object]:
    """The fault-rate sweep's design points, one per error rate.

    A fixed two-master PLB point crossed with rising bus-error
    pressure — fault rates swept through the same
    :class:`~repro.sweep.SweepEngine` as any architecture parameter.
    """
    from repro.explore.runner import FaultSpec
    from repro.explore.space import ArchitectureConfig
    from repro.explore.workload import MasterTrafficSpec
    from repro.sweep.points import SweepPoint

    config = ArchitectureConfig(fabric="plb")
    specs = (
        MasterTrafficSpec(name="m0", pattern="stream", base=0x0000,
                          size=4096, transactions=30),
        MasterTrafficSpec(name="m1", pattern="random", base=0x2000,
                          size=4096, transactions=30, priority=1),
    )
    return [
        SweepPoint(
            config=config, specs=specs, workload="sweep",
            max_sim_time=us(500), seed=seed,
            faults=FaultSpec(seed=seed, bus_error_rate=rate,
                             mem_flip_period=us(20)),
        )
        for rate in SWEEP_RATES
    ]


def run_sweep(seed: int = 1, engine=None) -> List[str]:
    """Seeded fault-rate sweep through the parallel sweep engine.

    Sweeps bus-error pressure over a fixed two-master PLB design point
    via :class:`repro.sweep.SweepEngine` (the one sweep code path in
    the repo), proving fault pressure can be swept like any other
    architecture parameter — and that each point's fault log is
    reproducible regardless of worker count or caching, because the
    engine canonicalizes every result through the same serialization
    round-trip.  Returns stable text lines (pinned by
    ``benchmarks/golden_fault_sweep.txt``).

    ``engine`` defaults to an in-process, cache-less engine so the
    golden check needs no pool or scratch directory; passing one with
    workers or a store must produce byte-identical lines.  Callers who
    sweep repeatedly (multiple seeds, resume loops) should pass one
    engine and keep it: its warm worker pool persists across
    ``run_sweep`` calls, so only the first sweep pays process startup.
    """
    from repro.sweep.engine import SweepEngine

    if engine is None:
        engine = SweepEngine(workers=1)
    points = sweep_points(seed=seed)
    lines = [f"fault sweep seed={seed} "
             f"fabric={points[0].config.fabric}"]
    for rate, outcome in zip(SWEEP_RATES, engine.run(points)):
        result = outcome.result
        errors = sum(m.errors for m in result.masters)
        completed = sum(m.completed for m in result.masters)
        counts = ", ".join(
            f"{kind}={n}" for kind, n in
            sorted(result.fault_plan.counts_by_kind().items())
        )
        lines.append(
            f"rate={rate}: completed={completed} master_errors={errors} "
            f"faults[{counts}] digest={result.fault_plan.digest()}"
        )
    return lines


def main(argv=None) -> int:
    """CLI: print, write, or check the campaign summary."""
    import argparse
    import os

    from repro.sweep.cli import _workers_arg

    parser = argparse.ArgumentParser(
        description="run the deterministic fault campaign"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--sweep", action="store_true",
        help="run the explore-based fault-rate sweep instead of the "
             "multi-layer campaign",
    )
    parser.add_argument(
        "--workers", type=_workers_arg, default=None,
        help="with --sweep: worker processes for the sweep engine "
             "(a count or 'auto'; default: in-process). All sweep "
             "phases share one engine and thus one warm pool.",
    )
    parser.add_argument(
        "--write", metavar="PATH",
        help="write the summary to PATH (regenerate the golden file)",
    )
    parser.add_argument(
        "--check", metavar="PATH",
        help="compare the summary against PATH; exit 1 on mismatch",
    )
    args = parser.parse_args(argv)
    if args.workers is not None and not args.sweep:
        parser.error("--workers applies only to --sweep")
    if args.check and not os.path.isfile(args.check):
        parser.error(f"--check: no such file: {args.check}")
    if args.sweep:
        from repro.sweep.engine import SweepEngine

        # One engine for the whole invocation: every sweep phase below
        # dispatches onto the same warm pool (golden output is
        # byte-identical regardless of worker count).
        with SweepEngine(workers=args.workers) as engine:
            lines = run_sweep(seed=args.seed, engine=engine)
        text = "\n".join(lines) + "\n"
        result = None
    else:
        result = run_campaign(seed=args.seed)
        text = result.summary()
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.write}")
        return 0
    if args.check:
        with open(args.check, "r", encoding="utf-8") as fh:
            golden = fh.read()
        if golden != text:
            print("fault campaign summary DIFFERS from golden file:")
            import difflib

            for line in difflib.unified_diff(
                golden.splitlines(), text.splitlines(),
                fromfile=args.check, tofile="current", lineterm="",
            ):
                print(line)
            return 1
        detail = ("sweep" if result is None
                  else f"{result.plan.count()} faults")
        print(f"fault campaign matches {args.check} "
              f"({detail}, seed {args.seed})")
        return 0
    print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
