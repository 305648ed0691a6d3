"""The CCATB bus engine on integer time matches the SimTime engine.

``BusCam``'s bus process is one loop that grants, decodes, times and
completes a functional transaction on integer femtoseconds, with
per-slave facts resolved once at ``attach_slave``.  ``SimTimeEngine``
below keeps the whole engine as it was written on :class:`SimTime`
arithmetic: its own bus process with a sub-generator per transaction,
cycle alignment, data-cycle and channel hooks, ``dataclasses.replace``
localization and a per-call wait-state lookup, the way
``tests/test_clock.py`` keeps ``ProcessClock``.  Random multi-master
schedules on every fabric and arbiter, with zero-gap streams, wait
states, decode misses, bursts over ``max_burst``, a localized
transported slave and, in part of them, a seeded fault injector, must
give identical completion times, responses, bus statistics, metrics,
fault logs, memory and end-of-run bus snapshots, and the reference's
own list of completed transfers must equal what the engine reports to
the context's observer.

The last test pins the PLB's kernel activations per transaction.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.cam.crossbar as crossbar_module
from repro.cam import (
    AhbBus,
    BusCam,
    BusStats,
    CrossbarCam,
    GenericBus,
    MemorySlave,
    OpbBus,
    PlbBus,
)
from repro.cam.arbiters import make_arbiter
from repro.faults import BusFaultInjector, FaultPlan, FaultRule
from repro.kernel import Event, Module, SimContext, ns, ps
from repro.kernel.object import SimObject
from repro.kernel.simtime import ZERO_TIME
from repro.obs.metrics import MetricsRegistry
from repro.ocp import OcpCmd, OcpRequest, OcpResponse
from tests.test_burst_access import PerBeatMemory
from tests.test_obs_hooks import TransferLog
from tests.test_pin_wakeups import ActivationCounter


# ---------------------------------------------------------------------------
# Reference engine: SimTime arithmetic throughout
# ---------------------------------------------------------------------------


class _SimTimeTransaction:
    __slots__ = (
        "request", "master", "priority", "seq", "arrival",
        "done", "response", "completed_at",
    )

    def __init__(self, request, master, priority, seq, arrival, done):
        self.request = request
        self.master = master
        self.priority = priority
        self.seq = seq
        self.arrival = arrival
        self.done = done
        self.response = None
        self.completed_at = None


class SimTimeBusStats(BusStats):
    def record(self, nbytes, data_cycles):
        self.transactions += 1
        self.bytes += nbytes
        self.data_busy_cycles += data_cycles


def _localized(binding, request):
    if not binding.localize or binding.base == 0:
        return request
    return replace(request, addr=request.addr - binding.base)


class SimTimeEngine:
    """Mixin: the bus engine methods on SimTime values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stats = SimTimeBusStats()
        #: completed transfers, in TransferLog's tuple form
        self.transfers = []

    def __snapshot__(self):
        state = super().__snapshot__()
        # the checkpoint payload of SimTime channel-free times
        state["channel_free"] = {
            channel: when._fs
            for channel, when in self._channel_free.items()
        }
        return state

    @property
    def current_cycle(self):
        return self.ctx.now // self.clock_period

    def data_cycles(self, request, binding):
        waits = binding.read_wait if request.cmd.is_read else (
            binding.write_wait)
        if waits is None:
            getter = getattr(binding.target, "wait_states", None)
            waits = getter(request) if getter is not None else 0
        return waits + request.burst_length * self.timing.cycles_per_beat

    def channel_of(self, request):
        if self.timing.split_rw:
            return "read" if request.cmd.is_read else "write"
        return "data"

    def _submit(self, request, master, priority):
        txn = _SimTimeTransaction(
            request=request,
            master=master,
            priority=priority,
            seq=next(self._seq),
            arrival=self.ctx.now,
            done=Event(self, f"{self.full_name}.done_{next(self._seq)}"),
        )
        self._pending.append(txn)
        self._request_event.notify()
        return txn

    def _align_to_cycle(self):
        now = self.ctx.now
        remainder = now - self.clock_period * (now // self.clock_period)
        if remainder == ZERO_TIME:
            return None
        return self.clock_period - remainder

    def _bus_process(self):
        period = self.clock_period
        timing = self.timing
        while True:
            while not self._pending:
                yield self._request_event
            align = self._align_to_cycle()
            if align is not None:
                yield align
            if not self._pending:
                continue
            txn = self.arbiter.pick(self._pending, self.current_cycle)
            if self._m_grants is not None:
                self._m_grants.inc()
                if len(self._pending) > 1:
                    self._m_contended.inc(len(self._pending) - 1)
            self._pending.remove(txn)
            request = txn.request
            inj = self.fault_injector
            if inj is not None and inj.force_error(self, request):
                yield period * timing.cmd_cycles
                self._complete(txn, OcpResponse.error(), data_cycles=0,
                               channel="fault-injected")
                continue
            binding = self.decode(request)
            if (binding is not None and inj is not None
                    and inj.decode_miss(self, request)):
                binding = None
            if binding is None:
                yield period * timing.cmd_cycles
                self._complete(txn, OcpResponse.error(), data_cycles=0,
                               channel="decode-error")
                continue
            if binding.is_functional:
                yield from self._run_functional(txn, binding)
            else:
                yield from self._run_transported(txn, binding)

    def _run_functional(self, txn, binding):
        period = self.clock_period
        timing = self.timing
        request = txn.request
        data_cycles = self.data_cycles(request, binding)
        channel = self.channel_of(request)
        if timing.pipelined:
            yield period * timing.cmd_cycles
            start = max(
                self.ctx.now,
                self._channel_free.get(channel, ZERO_TIME),
            )
            end = start + period * data_cycles
            self._channel_free[channel] = end
            response = self._functional_access(binding, request)
            txn.response = response
            txn.completed_at = end
            delay = end - self.ctx.now
            txn.done.notify_after(delay)
            self._account(txn, response, end, data_cycles, channel)
        else:
            yield period * (timing.cmd_cycles + data_cycles)
            response = self._functional_access(binding, request)
            self._complete(txn, response, data_cycles, channel)

    def _run_transported(self, txn, binding):
        period = self.clock_period
        timing = self.timing
        request = txn.request
        channel = self.channel_of(request)
        yield period * timing.cmd_cycles
        start = self.ctx.now
        response = yield from binding.target.transport(
            _localized(binding, request)
        )
        busy = (self.ctx.now - start) // period
        self._complete(txn, response, int(busy), channel)

    def _functional_access(self, binding, request):
        try:
            return binding.target.access(_localized(binding, request))
        except Exception:
            return OcpResponse.error()

    def _complete(self, txn, response, data_cycles, channel):
        txn.response = response
        txn.completed_at = self.ctx.now
        txn.done.notify()
        self._account(txn, response, self.ctx.now, data_cycles, channel)

    def _account(self, txn, response, end, data_cycles, channel):
        latency = end - txn.arrival
        self.stats.record(
            nbytes=txn.request.nbytes,
            data_cycles=data_cycles,
        )
        if self._m_grants is not None:
            self._m_transactions.inc()
            self._m_bytes.inc(txn.request.nbytes)
            if not response.ok:
                self._m_errors.inc()
            self._m_latency.observe(latency.to("ns"))
            self._m_utilization.set(self.utilization(), self.ctx._now_fs)
        self.transfers.append((
            self.full_name,
            txn.request.cmd.name.lower(),
            txn.master,
            channel,
            txn.arrival.femtoseconds,
            end.femtoseconds,
            txn.request.nbytes,
            txn.request.burst_length,
        ))


FABRICS = {
    "plb": PlbBus,
    "opb": OpbBus,
    "ahb": AhbBus,
    "generic": GenericBus,
}
SIMTIME_FABRICS = {
    name: type(f"SimTime{cls.__name__}", (SimTimeEngine, cls), {})
    for name, cls in FABRICS.items()
}
SimTimeBusCam = type("SimTimeBusCam", (SimTimeEngine, BusCam), {})


class DelayedMemory(SimObject):
    """A transported-only slave: a memory that answers after ``delay``."""

    def __init__(self, name, parent, memory, delay):
        super().__init__(name, parent)
        self.memory = memory
        self.delay = delay

    def transport(self, request):
        yield self.delay
        return self.memory.access(request)


# ---------------------------------------------------------------------------
# Generated schedules
# ---------------------------------------------------------------------------

#: (base, size) of the two memories and the transported slave; anything
#: else decodes to nothing
REGIONS = ((0x0, 0x200), (0x1000, 0x200), (0x2000, 0x200))


def random_schedule(rng, masters):
    """Per master: a start delay and (gap, request spec) pairs."""
    schedule = []
    for _ in range(masters):
        items = []
        for _ in range(rng.randint(1, 7)):
            beats = rng.choice([1, 1, 2, 4, 8, 16, 17, 24])
            if rng.random() < 0.1:
                # unmapped, or running past a region's end
                addr = rng.choice([0x3000, 0x1200 - 4 * (beats - 1) + 4,
                                   0x0800])
            else:
                base, size = rng.choice(REGIONS)
                addr = base + 4 * rng.randrange(size // 4 - beats + 1)
            cmd = rng.choice([OcpCmd.RD, OcpCmd.WR, OcpCmd.WRNP])
            data = ([rng.randrange(1 << 32) for _ in range(beats)]
                    if cmd.is_write else [])
            gap = rng.choice([0, 0, 0, 1, 2500, 7000, 10_000, 33_300])
            items.append((gap, (cmd, addr, data, beats)))
        schedule.append((rng.choice([0, 0, 3000, 10_000]), items))
    return schedule


def new_fault_injector(rng):
    """Half the schedules: a seeded injector forcing errors and decode
    misses, by probability or on every nth candidate."""
    if rng.random() < 0.5:
        return None

    def rule():
        if rng.random() < 0.3:
            return FaultRule(every_nth=rng.randint(2, 5))
        return FaultRule(probability=rng.choice([0.05, 0.2, 0.5]))
    return BusFaultInjector(FaultPlan(seed=rng.randrange(1 << 30)),
                            error=rule(), decode=rule())


def run_schedule(seed, fabric, arbiter, reference):
    """Run generated system ``seed``; return everything observable."""
    rng = random.Random(seed)
    masters = rng.randint(1, 4)
    schedule = random_schedule(rng, masters)
    period = rng.choice([ns(10), ns(7), ps(3300)])
    injector = new_fault_injector(rng)
    names = [f"m{i}" for i in range(masters)]

    def new_arbiter():
        if arbiter == "tdma":
            return make_arbiter("tdma", schedule=names,
                                slot_cycles=rng.choice([1, 4]))
        return make_arbiter(arbiter)

    ctx = SimContext()
    top = Module("top", ctx=ctx)
    metrics = MetricsRegistry() if fabric != "crossbar" else None
    if fabric == "crossbar":
        bus = CrossbarCam("bus", top, clock_period=period,
                          arbiter_factory=new_arbiter)
    else:
        cls = (SIMTIME_FABRICS if reference else FABRICS)[fabric]
        bus = cls("bus", top, clock_period=period, arbiter=new_arbiter(),
                  metrics=metrics)
    memory_cls = PerBeatMemory if reference else MemorySlave
    memories = [
        memory_cls(f"mem{i}", top, size=0x200,
                   read_wait=rng.randint(0, 3), write_wait=rng.randint(0, 3))
        for i in range(3)
    ]
    far = DelayedMemory("far", top, memories[2],
                        ps(rng.choice([0, 1, 4000, 25_000])))
    paths = (mock.patch.object(crossbar_module, "BusCam", SimTimeBusCam)
             if reference and fabric == "crossbar" else nullcontext())
    with paths:
        bus.attach_slave(memories[0], *REGIONS[0])
        bus.attach_slave(memories[1], *REGIONS[1],
                         read_wait=rng.choice([None, 0, 2]),
                         write_wait=rng.choice([None, 1]))
        bus.attach_slave(far, *REGIONS[2], localize=True)
    bus.fault_injector = injector
    buses = bus.paths if fabric == "crossbar" else [bus]
    if reference:
        # the reference's own list; a crossbar's paths share one, in
        # completion order
        transfers = []
        for path in buses:
            path.transfers = transfers
    else:
        reports = TransferLog()
        ctx.attach_observer(reports)
        transfers = reports.transfers
    records = []
    running = list(names)

    for index, (start, items) in enumerate(schedule):
        socket = bus.master_socket(names[index], priority=rng.randint(0, 2))

        def master(name=names[index], start=start, items=items,
                   socket=socket):
            if start:
                yield ps(start)
            for number, (gap, (cmd, addr, data, beats)) in enumerate(items):
                if gap:
                    yield ps(gap)
                request = OcpRequest(cmd, addr, data=list(data),
                                     burst_length=beats)
                response = yield from socket.transport(request)
                records.append((name, number, ctx._now_fs, response.resp,
                                tuple(response.data)))
            running.remove(name)
            if not running:
                ctx.stop()

        ctx.register_thread(master, names[index])
    ctx.run(ns(100_000))
    return {
        "outcome": ctx.last_run_outcome,
        "records": records,
        "end": ctx._now_fs,
        "stats": [b.stats.__snapshot__() for b in buses],
        "utilization": [b.utilization() for b in buses],
        "snapshots": [b.__snapshot__() for b in buses],
        "faults": (injector.plan.__snapshot__() if injector is not None
                   else None),
        "metrics": metrics.snapshot() if metrics is not None else None,
        "transfers": transfers,
        "memory": [list(memory._words.items()) for memory in memories],
    }


@given(seed=st.integers(0, 1 << 30),
       fabric=st.sampled_from(["plb", "opb", "ahb", "generic", "crossbar"]),
       arbiter=st.sampled_from(["static-priority", "round-robin", "tdma"]))
@settings(max_examples=200, deadline=None)
def test_integer_time_engine_matches_simtime_engine(seed, fabric, arbiter):
    fast = run_schedule(seed, fabric, arbiter, reference=False)
    slow = run_schedule(seed, fabric, arbiter, reference=True)
    assert fast["outcome"] == "stopped"
    assert fast == slow


# ---------------------------------------------------------------------------
# Kernel activations per transaction
# ---------------------------------------------------------------------------

#: (masters, gap in ns before each read) -> (activations of the bus
#: process, then of each master; end time in ns).  A gap that ends
#: mid-cycle adds the bus's wake to align on the next edge.
PLB_ACTIVATIONS = {
    (1, 0): ((401, 201), 14_000),
    (1, 25): ((601, 401), 20_000),
    (2, 0): ((800, 201, 201), 20_020),
    (2, 25): ((1_199, 401, 401), 20_050),
}


@pytest.mark.parametrize("masters,gap_ns", sorted(PLB_ACTIVATIONS))
def test_plb_kernel_activations_per_transaction(masters, gap_ns):
    """200 four-beat reads per master from one memory on the PLB."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    plb = PlbBus("plb", top)
    plb.attach_slave(MemorySlave("mem", top, size=0x1000), 0x0, 0x1000)
    names = [f"m{i}" for i in range(masters)]
    for name in names:
        def master(socket=plb.master_socket(name)):
            for _ in range(200):
                if gap_ns:
                    yield ns(gap_ns)
                response = yield from socket.transport(
                    OcpRequest(OcpCmd.RD, 0x40, burst_length=4))
                assert response.ok
        ctx.register_thread(master, name)
    counter = ActivationCounter()
    ctx.attach_observer(counter)
    ctx.run()
    activations = tuple(counter.counts[name]
                        for name in ["top.plb.bus_process", *names])
    assert (activations, ctx.now.to("ns")) == PLB_ACTIVATIONS[masters,
                                                             gap_ns]
    assert sum(counter.counts.values()) == sum(activations)
