"""Cross-cutting property-based tests on core invariants.

These pin down the library's load-bearing contracts with randomized
inputs: the CCATB timing formula, CCATB/RTL cycle agreement, mailbox
chunk reassembly, and SHIP delivery order.
"""

from hypothesis import given, settings, strategies as st

from repro.kernel import Clock, Module, SimContext, ns, us
from repro.cam import BusCam, BusTiming, MemorySlave
from repro.models import MailboxLayout, chunk_message
from repro.models.mailbox import CTRL_MORE, CTRL_REQUEST, CTRL_VALID
from repro.ocp import OcpCmd, OcpRequest
from repro.rtl import RtlBusCore
from repro.ship import ShipChannel, ShipInt


# ---------------------------------------------------------------------------
# CCATB timing formula
# ---------------------------------------------------------------------------

timing_params = st.tuples(
    st.integers(1, 3),    # arb_cycles
    st.integers(1, 3),    # addr_cycles
    st.integers(1, 2),    # cycles_per_beat
    st.integers(0, 5),    # wait states
    st.integers(1, 16),   # burst length
    st.booleans(),        # read or write
)


@given(params=timing_params)
@settings(max_examples=40, deadline=None)
def test_ccatb_latency_equals_formula(params):
    """A lone transaction's latency is exactly the documented formula:
    (arb + addr + wait + beats * per_beat) bus cycles."""
    arb, addr_cycles, per_beat, wait, beats, is_read = params
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    bus = BusCam(
        "bus", top, clock_period=ns(10),
        timing=BusTiming(arb_cycles=arb, addr_cycles=addr_cycles,
                         cycles_per_beat=per_beat),
    )
    mem = MemorySlave("m", top, size=1 << 12, read_wait=wait,
                      write_wait=wait)
    bus.attach_slave(mem, 0, 1 << 12)
    sock = bus.master_socket("m0")
    done = []

    def body():
        if is_read:
            req = OcpRequest(OcpCmd.RD, 0, burst_length=beats)
        else:
            req = OcpRequest(OcpCmd.WR, 0, data=[0] * beats,
                             burst_length=beats)
        yield from sock.transport(req)
        done.append(ctx.now // ns(10))

    ctx.register_thread(body, "t")
    ctx.run()
    expected = arb + addr_cycles + wait + beats * per_beat
    assert done == [expected]


@given(
    wait=st.integers(0, 4),
    beats=st.integers(1, 16),
    gap_cycles=st.integers(1, 40),
    is_read=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_ccatb_and_rtl_agree_cycle_for_cycle(wait, beats, gap_cycles,
                                             is_read):
    """One master, same schedule: the CCATB bus and the clocked RTL
    fabric complete every transaction on the same cycle."""
    period = ns(10)
    timing = BusTiming(arb_cycles=1, addr_cycles=1, cycles_per_beat=1,
                       pipelined=True, split_rw=True)

    def make_request():
        if is_read:
            return OcpRequest(OcpCmd.RD, 0, burst_length=beats)
        return OcpRequest(OcpCmd.WR, 0, data=[1] * beats,
                          burst_length=beats)

    def run_ccatb():
        ctx = SimContext()
        top = Module("top", ctx=ctx)
        bus = BusCam("bus", top, clock_period=period, timing=timing)
        mem = MemorySlave("m", top, size=1 << 12, read_wait=wait,
                          write_wait=wait)
        bus.attach_slave(mem, 0, 1 << 12)
        sock = bus.master_socket("m0")
        out = []

        def body():
            for _ in range(3):
                yield period * gap_cycles
                yield from sock.transport(make_request())
                out.append(ctx.now // period)

        ctx.register_thread(body, "t")
        ctx.run()
        return out

    def run_rtl():
        ctx = SimContext()
        top = Module("top", ctx=ctx)
        clk = Clock("clk", top, period=period)
        core = RtlBusCore("core", top, clock=clk, timing=timing)
        mem = MemorySlave("m", top, size=1 << 12, read_wait=wait,
                          write_wait=wait)
        core.attach_slave(mem, 0, 1 << 12)
        port = core.master_socket("m0")
        out = []

        def body():
            for _ in range(3):
                yield period * gap_cycles
                yield from port.transport(make_request())
                out.append(ctx.now // period)
            ctx.stop()

        ctx.register_thread(body, "t")
        ctx.run(us(100_000))
        return out

    assert run_ccatb() == run_rtl()


# ---------------------------------------------------------------------------
# Mailbox chunking
# ---------------------------------------------------------------------------


@given(
    payload=st.binary(max_size=1200),
    capacity_words=st.integers(1, 64),
    is_request=st.booleans(),
)
@settings(max_examples=60)
def test_chunking_reassembles_exactly(payload, capacity_words,
                                      is_request):
    layout = MailboxLayout(capacity_words)
    chunks = chunk_message(payload, layout, is_request)
    # reassembly is exact
    assert b"".join(data for data, _ in chunks) == payload
    # every chunk fits the window
    assert all(len(data) <= layout.chunk_capacity_bytes
               for data, _ in chunks)
    # control-bit discipline: VALID everywhere, MORE on all but the
    # last, REQUEST only on the last and only when asked for
    for i, (_, ctrl) in enumerate(chunks):
        last = i == len(chunks) - 1
        assert ctrl & CTRL_VALID
        assert bool(ctrl & CTRL_MORE) == (not last)
        assert bool(ctrl & CTRL_REQUEST) == (last and is_request)


# ---------------------------------------------------------------------------
# SHIP delivery order
# ---------------------------------------------------------------------------


@given(
    values=st.lists(st.integers(-1000, 1000), min_size=1, max_size=30),
    capacity=st.integers(1, 8),
)
@settings(max_examples=30, deadline=None)
def test_ship_channel_preserves_order(values, capacity):
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    chan = ShipChannel("c", top, capacity=capacity)
    a = chan.claim_end("tx")
    b = chan.claim_end("rx")
    received = []

    def tx():
        for v in values:
            yield from chan.send(a, ShipInt(v))

    def rx():
        for _ in values:
            msg = yield from chan.recv(b)
            received.append(msg.value)

    ctx.register_thread(tx, "tx")
    ctx.register_thread(rx, "rx")
    ctx.run()
    assert received == values


# ---------------------------------------------------------------------------
# RTOS scheduling invariants
# ---------------------------------------------------------------------------


@given(
    priorities=st.lists(st.integers(1, 9), min_size=2, max_size=5),
    work_us=st.lists(st.integers(1, 5), min_size=2, max_size=5),
)
@settings(max_examples=20, deadline=None)
def test_rtos_cpu_time_conservation(priorities, work_us):
    """One CPU: with all tasks compute-only, the makespan equals the
    summed CPU time and every task's accounting matches its request."""
    from repro.rtos import Rtos

    n = min(len(priorities), len(work_us))
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    os = Rtos("os", top)
    tasks = []
    for i in range(n):
        def body(w=work_us[i]):
            yield from os.execute(us(w))

        tasks.append(os.create_task(body, f"t{i}",
                                    priority=priorities[i]))
    ctx.run()
    assert os.all_finished()
    total = us(sum(work_us[:n]))
    assert ctx.last_activity_time == total
    for i, task in enumerate(tasks):
        assert task.cpu_time == us(work_us[i])


@given(
    low_work=st.integers(2, 8),
    high_delay=st.integers(1, 3),
)
@settings(max_examples=15, deadline=None)
def test_rtos_highest_priority_never_waits_for_lower(low_work,
                                                     high_delay):
    """A high-priority task that wakes mid-run preempts promptly: its
    response time is its own work, not the low task's remainder."""
    from repro.rtos import Rtos

    ctx = SimContext()
    top = Module("top", ctx=ctx)
    os = Rtos("os", top)
    finish = {}

    def low():
        yield from os.execute(us(low_work))
        finish["low"] = ctx.now

    def high():
        yield from os.delay(us(high_delay))
        yield from os.execute(us(1))
        finish["high"] = ctx.now

    os.create_task(low, "low", priority=10)
    os.create_task(high, "high", priority=1)
    ctx.run()
    # high runs exactly [delay, delay+1]us despite the busy low task
    assert finish["high"] == us(high_delay + 1)
    # low slips by high's execution only if high actually preempted it
    slip = 1 if high_delay < low_work else 0
    assert finish["low"] == us(low_work + slip)
