"""Pin-level state machines wake only on edges that can change them.

The RTL accessor and the OCP pin master sleep on a signal or an event
while nothing can happen, instead of waking on every rising clock edge.
The differential tests here rebuild the same random systems with
reference versions of those machines that poll every edge (the bodies
they had before they learned to sleep), on a reference bus core that
latches requests and breaks ties the way the core did before it ranked
same-delta requests by port, and require identical pins, transaction
timing, responses, memory and core cycle counts.  The same systems also
run on the reference toggling-thread clock of ``tests/test_clock.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.accessors import RtlAccessor
from repro.cam import BusTiming, MemorySlave
from repro.cam.arbiters import (
    RoundRobinArbiter,
    StaticPriorityArbiter,
    TdmaArbiter,
)
from repro.kernel import Clock, Module, SimContext, ns, us
from repro.kernel.signal import Signal
from repro.obs.hooks import SimObserver
from repro.ocp import (
    OcpCmd,
    OcpPinBundle,
    OcpPinMaster,
    OcpPinSlave,
    OcpRequest,
    OcpResp,
    OcpResponse,
)
from repro.rtl import RtlBusCore
from repro.rtl.buscore import RtlMasterPort
from tests.test_clock import ProcessClock

_NULL = OcpResp.NULL.value


# ---------------------------------------------------------------------------
# Reference machines: sample every rising edge
# ---------------------------------------------------------------------------


class PolledAccessor(RtlAccessor):
    def _machine(self):
        bundle = self.bundle
        edge = bundle.clock.posedge_event
        bundle.s_cmd_accept.write(False)
        bundle.idle_response()
        while True:
            yield edge
            if not bundle.request_active:
                continue
            for _ in range(self.accept_latency):
                yield edge
            cmd = OcpCmd(bundle.m_cmd.read())
            first_addr = bundle.m_addr.read()
            burst_length = bundle.m_burst_length.read()
            byte_en = bundle.m_byte_en.read()
            data = []
            bundle.s_cmd_accept.write(True)
            beats = 0
            while beats < burst_length:
                yield edge
                if not bundle.request_active:
                    continue
                if cmd.is_write:
                    data.append(bundle.m_data.read())
                beats += 1
            bundle.s_cmd_accept.write(False)
            request = OcpRequest(cmd, first_addr, data=data,
                                 burst_length=burst_length, byte_en=byte_en)
            request.master_id = self.full_name
            self.bus_port.submit(request)
            while self.bus_port.response is None:
                yield edge
            response = self.bus_port.response
            if cmd.is_read:
                for word in response.data or [0] * burst_length:
                    bundle.s_resp.write(response.resp.value)
                    bundle.s_data.write(word)
                    yield edge
            elif cmd is OcpCmd.WRNP:
                bundle.s_resp.write(response.resp.value)
                yield edge
            bundle.idle_response()
            self.bursts += 1


class PolledPinMaster(OcpPinMaster):
    def transport(self, request):
        bundle = self.bundle
        clk_edge = bundle.clock.posedge_event
        yield from self._lock.lock()
        try:
            for beat in range(request.burst_length):
                bundle.m_cmd.write(request.cmd.value)
                bundle.m_addr.write(request.beat_address(beat))
                bundle.m_burst_length.write(request.burst_length - beat)
                if request.byte_en is not None:
                    bundle.m_byte_en.write(request.byte_en)
                if request.cmd.is_write:
                    bundle.m_data.write(request.data[beat])
                while True:
                    yield clk_edge
                    if bundle.s_cmd_accept.read():
                        break
            bundle.idle_request()
            expected = (request.burst_length if request.cmd.is_read
                        else (1 if request.cmd is OcpCmd.WRNP else 0))
            data = []
            resp_code = OcpResp.DVA
            for _ in range(expected):
                while True:
                    yield clk_edge
                    code = bundle.s_resp.read()
                    if code != _NULL:
                        break
                resp_code = OcpResp(code)
                data.append(bundle.s_data.read())
            self.transactions += 1
            if request.cmd.is_read:
                return OcpResponse(resp_code, data)
            return OcpResponse(resp_code)
        finally:
            self._lock.unlock()


class _ArrivalOrderPort(RtlMasterPort):
    def submit(self, request):
        super().submit(request)
        self.seq = next(self.core._arrivals)


class ArrivalOrderCore(RtlBusCore):
    """Samples a request on the first edge that finds it raised and
    breaks arbitration ties by the order the submits ran in."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._arrivals = itertools.count()

    def master_socket(self, name, priority=0):
        port = _ArrivalOrderPort(name, self, priority)
        self.ports.append(port)
        return port

    def _try_grant(self):
        if (not self.timing.pipelined
                and any(e.busy_cycles or e.queue
                        for e in self._engines.values())):
            return
        pending = [p for p in self.ports if p.req and not p.granted]
        if not pending:
            return
        chosen = self.arbiter.pick(pending, self.cycles)
        if chosen is None:
            return
        chosen.granted = True
        request = chosen.request
        binding = self.decode(request)
        self._cmd_current = (chosen, binding, request)
        self._cmd_countdown = self.timing.cmd_cycles


EVENT_DRIVEN = (RtlAccessor, OcpPinMaster, RtlBusCore)
POLLED = (PolledAccessor, PolledPinMaster, ArrivalOrderCore)


class ActivationCounter(SimObserver):
    """Activations per process."""

    def __init__(self):
        self.counts = Counter()

    def on_process_activate(self, process, now_fs: int) -> None:
        self.counts[process.name] += 1


# ---------------------------------------------------------------------------
# Clock.sample
# ---------------------------------------------------------------------------


@given(steps=st.lists(st.tuples(st.integers(0, 25), st.integers(0, 2),
                                st.booleans()), max_size=40))
@settings(max_examples=60, deadline=None)
def test_sample_returns_where_a_polling_loop_does(steps):
    """Whatever the write schedule (mid-cycle, on an edge's own instant,
    in the delta after an edge, glitches between edges), Clock.sample
    returns at the same time and delta cycle as polling every edge."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    clk = Clock("clk", top, period=ns(10))
    sig = Signal("sig", top, init=0, check_writer=False)
    polled, sampled = [], []

    def writer():
        for delay, value, after_edge in steps:
            if after_edge:
                yield clk.posedge_event
            else:
                yield ns(delay)
            sig.write(value)
        yield ns(30)
        ctx.stop()

    def poller():
        while True:
            yield clk.posedge_event
            if sig.read() != 0:
                polled.append((ctx._now_fs, ctx.delta_count))

    def sampler():
        while True:
            yield from clk.sample(sig, 0)
            sampled.append((ctx._now_fs, ctx.delta_count))

    ctx.register_thread(writer, "writer")
    ctx.register_thread(poller, "poller")
    ctx.register_thread(sampler, "sampler")
    ctx.run(us(10))
    assert sampled == polled


# ---------------------------------------------------------------------------
# Random systems
# ---------------------------------------------------------------------------


def random_requests(rng, count, base):
    requests = []
    for _ in range(count):
        burst = rng.choice([1, 1, 2, 4, 8])
        addr = base + rng.randrange(64) * 4
        kind = rng.random()
        if kind < 0.45:
            requests.append(OcpRequest(OcpCmd.RD, addr, burst_length=burst))
        else:
            cmd = OcpCmd.WR if kind < 0.9 else OcpCmd.WRNP
            requests.append(OcpRequest(
                cmd, addr, burst_length=burst,
                data=[rng.randrange(1 << 16) for _ in range(burst)]))
    return requests


def record_pins(ctx, log):
    """Log every bundle signal change as (time, value), per signal."""
    for obj in list(ctx.objects.values()):
        if isinstance(obj, Signal) and not isinstance(obj, Clock):
            obj.on_change(lambda sig, old, new: log.setdefault(
                sig.full_name, []).append((ctx._now_fs, new)))


def run_system(seed, machines, clock_cls=Clock, pin_slave=False,
               count_activations=True):
    """Build and run random system ``seed``; return everything a
    behaviour change could show in, plus per-process activations (when
    ``count_activations``; counting attaches a kernel observer)."""
    accessor_cls, master_cls, core_cls = machines
    rng = random.Random(seed)
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    clk = clock_cls("clk", top, period=ns(10))
    mem = MemorySlave("mem", top, size=1 << 14,
                      read_wait=rng.randint(0, 2),
                      write_wait=rng.randint(0, 2))
    pes = rng.randint(1, 2 if pin_slave else 4)
    core = None
    if not pin_slave:
        pipelined = rng.random() < 0.5
        timing = BusTiming(arb_cycles=rng.choice([1, 2]), addr_cycles=1,
                           cycles_per_beat=1, pipelined=pipelined,
                           split_rw=pipelined and rng.random() < 0.7)
        arbiter = rng.choice([
            StaticPriorityArbiter(), RoundRobinArbiter(),
            TdmaArbiter([f"pe{i}" for i in range(pes)],
                        slot_cycles=rng.choice([1, 4])),
        ])
        core = core_cls("core", top, clock=clk, timing=timing,
                        arbiter=arbiter)
        core.attach_slave(mem, 0, 1 << 14)
    records = []
    running = []

    def finish():
        running.pop()
        if not running:
            ctx.stop()

    for i in range(pes):
        bundle = OcpPinBundle(f"pins{i}", top, clock=clk)
        latency = rng.choice([0, 0, 1, 2])
        if pin_slave:
            OcpPinSlave(f"slave{i}", top, bundle=bundle, target=mem,
                        accept_latency=latency)
        else:
            # priority ties are deliberate: they exercise arrival order
            accessor_cls(f"acc{i}", top, bundle=bundle,
                         bus_port=core.master_socket(
                             f"pe{i}", priority=rng.choice([0, 0, 1])),
                         accept_latency=latency)
        master = master_cls(f"drv{i}", top, bundle=bundle)
        requests = random_requests(rng, rng.randint(2, 8), i * 0x400)
        gaps = [rng.choice([0, 0, 3, 10, 17, 40]) for _ in requests]
        start = rng.choice([0, 0, 5, 10, 13])
        running.append(i)

        def pe(master=master, requests=requests, gaps=gaps, start=start,
               i=i):
            if start:
                yield ns(start)
            for request, gap in zip(requests, gaps):
                response = yield from master.transport(request)
                records.append((i, ctx._now_fs, response.resp.name,
                                tuple(response.data)))
                if gap:
                    yield ns(gap)
            finish()

        ctx.register_thread(pe, f"pe{i}")
    if core is not None and rng.random() < 0.4:
        # a transaction-level master straight on the core
        port = core.master_socket("tl", priority=rng.choice([0, 1]))
        requests = random_requests(rng, rng.randint(2, 6), 0x3000)
        gaps = [rng.choice([1, 7, 20]) for _ in requests]
        running.append("tl")

        def tl():
            for request, gap in zip(requests, gaps):
                response = yield from port.transport(request)
                records.append(("tl", ctx._now_fs, response.resp.name,
                                tuple(response.data)))
                yield ns(gap)
            finish()

        ctx.register_thread(tl, "tl")
    pins = {}
    record_pins(ctx, pins)
    counter = ActivationCounter()
    if count_activations:
        ctx.attach_observer(counter)
    ctx.run(us(500))
    words = repr([mem.peek_word(a) for a in range(0, 1 << 14, 4)])
    outcome = {
        # same-instant completions append in process order: sort them
        "records": sorted(records, key=repr),
        "pins": pins,
        "end": ctx.now,
        "stopped": ctx.last_run_outcome,
        "memory": hashlib.sha256(words.encode()).hexdigest(),
    }
    if core is not None:
        outcome["core"] = (core.cycles, core.transactions_completed,
                           core.utilization())
    return outcome, counter.counts


@given(seed=st.integers(0, 1 << 30))
@settings(max_examples=30, deadline=None)
def test_sleeping_machines_match_polling_machines(seed):
    """Accessors and pin masters that sleep between state changes
    produce exactly the pins, timing, results and core cycle counts of
    machines that sample every edge — with fewer process activations."""
    fast, fast_counts = run_system(seed, EVENT_DRIVEN)
    slow, slow_counts = run_system(seed, POLLED)
    assert fast["stopped"] == "stopped"
    assert fast == slow
    assert sum(fast_counts.values()) <= sum(slow_counts.values())


@given(seed=st.integers(0, 1 << 30), pin_slave=st.booleans())
@settings(max_examples=30, deadline=None)
def test_native_clock_matches_process_clock(seed, pin_slave):
    """The same systems on the scheduler-entry clock and on a toggling
    thread: identical pins, transaction times, responses, memory and
    core cycles.  No observer is attached, so edges that nothing waits
    on are triggered in place."""
    fast, _ = run_system(seed, EVENT_DRIVEN, Clock, pin_slave=pin_slave,
                         count_activations=False)
    slow, _ = run_system(seed, EVENT_DRIVEN, ProcessClock,
                         pin_slave=pin_slave, count_activations=False)
    assert fast["stopped"] == "stopped"
    assert fast == slow


@given(seed=st.integers(0, 1 << 30))
@settings(max_examples=15, deadline=None)
def test_sleeping_pin_master_matches_polling_master_on_pin_slave(seed):
    """The same comparison for pin masters driving OcpPinSlave adapters
    in front of a transaction-level target."""
    machines = (RtlAccessor, OcpPinMaster, None)
    polled = (RtlAccessor, PolledPinMaster, None)
    fast, _ = run_system(seed, machines, pin_slave=True)
    slow, _ = run_system(seed, polled, pin_slave=True)
    assert fast["stopped"] == "stopped"
    assert fast == slow


# ---------------------------------------------------------------------------
# Idle cost
# ---------------------------------------------------------------------------


def test_idle_prototype_wakes_no_pin_machine():
    """While the PE computes for 1000 cycles, neither its accessor nor
    its pin master wakes; a transaction then costs a handful of
    activations each.  The bus core still counts every edge."""
    from repro.accessors import build_prototype

    ctx = SimContext()
    top = Module("top", ctx=ctx)
    clk = Clock("clk", top, period=ns(10))
    mem = MemorySlave("mem", top, size=4096, read_wait=1, write_wait=1)
    proto = build_prototype("proto", top, clk)
    proto.attach_slave(mem, 0, 4096)
    master = proto.master_socket("pe")
    results = []

    def pe():
        yield clk.period * 1000
        response = yield from master.transport(
            OcpRequest(OcpCmd.RD, 0x40, burst_length=4))
        results.append(response.resp)
        yield clk.period * 1000
        ctx.stop()

    ctx.register_thread(pe, "pe")
    counter = ActivationCounter()
    ctx.attach_observer(counter)
    ctx.run(us(100))
    assert results == [OcpResp.DVA]
    counts = counter.counts
    assert proto.core.cycles > 2000
    # a polling accessor would wake on all 2000+ edges
    assert counts["pe"] <= 20
    assert counts[f"{proto.accessors['pe'].full_name}.machine"] <= 20


# ---------------------------------------------------------------------------
# RTL core: arbitration does not depend on process evaluation order
# ---------------------------------------------------------------------------


def _core_run(masters_first, register_order):
    """Two equal-priority TL masters that wake on the same rising edge
    and submit at once; returns each master's completion cycle."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    clk = Clock("clk", top, period=ns(10))
    done = {"a": [], "b": []}
    finished = []
    ports = {}

    def master(tag):
        def body():
            port = ports[tag]
            for _ in range(3):
                yield clk.posedge_event
                yield from port.transport(
                    OcpRequest(OcpCmd.WR, 0, data=[1] * 4, burst_length=4))
                done[tag].append(ctx.now // clk.period)
            finished.append(tag)
            if len(finished) == 2:
                ctx.stop()
        return body

    if masters_first:
        # the masters' threads exist before the core's, so they run
        # ahead of it in every rising-edge delta
        for tag in register_order:
            ctx.register_thread(master(tag), tag)
    core = RtlBusCore("core", top, clock=clk,
                      timing=BusTiming(pipelined=False, split_rw=False))
    mem = MemorySlave("mem", top, size=4096, read_wait=1, write_wait=1)
    core.attach_slave(mem, 0, 4096)
    ports["a"] = core.master_socket("a")
    ports["b"] = core.master_socket("b")
    if not masters_first:
        for tag in register_order:
            ctx.register_thread(master(tag), tag)
    ctx.run(us(100))
    return done


def test_core_arbitration_ignores_process_order():
    """Equal-priority requests raised in one delta rank by port, and a
    request raised in a rising edge's delta is sampled by the next edge,
    whether the submitting process runs before or after the core."""
    runs = [_core_run(first, order) for first in (False, True)
            for order in ("ab", "ba")]
    assert all(run == runs[0] for run in runs[1:])
    # port "a" was created first, so it wins every tie
    assert runs[0]["a"][0] < runs[0]["b"][0]
