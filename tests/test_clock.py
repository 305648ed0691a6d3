"""Unit tests for the clock channel.

``ProcessClock`` below is the reference for the kernel's clock: the
toggling thread the clock was before it became a scheduler entry.  The
differential property runs random designs on both and requires the
same per-process traces.
"""

import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import (
    Clock,
    ElaborationError,
    Module,
    SimContext,
    SimTime,
    SimulationError,
    fs,
    ns,
    ps,
)
from repro.kernel.signal import Signal
from repro.obs.hooks import SimObserver
from repro.snapshot import SnapshotError


class ProcessClock(Clock):
    """Reference clock: a thread writes each edge, then waits one phase."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ctx.register_thread(self._toggle, f"{self.full_name}._toggle")

    def start_of_simulation(self):
        """The toggle thread drives every edge, the first one included."""

    def _toggle(self):
        # The first edge rises at time 0.
        high = SimTime(self._high_fs)
        low = SimTime(self._low_fs)
        while True:
            self.write(True)
            yield high
            self.write(False)
            yield low


class TestClockBasics:
    def test_posedges_at_period(self, ctx, top):
        clk = Clock("clk", top, period=ns(10))
        edges = []

        def counter():
            while True:
                yield clk.posedge_event
                edges.append(str(ctx.now))

        ctx.register_thread(counter, "c")
        ctx.run(ns(35))
        assert edges == ["0 s", "10 ns", "20 ns", "30 ns"]

    def test_duty_cycle_controls_fall_time(self, ctx, top):
        clk = Clock("clk", top, period=ns(10))
        falls = []

        def neg():
            while True:
                yield clk.negedge_event
                falls.append(str(ctx.now))

        ctx.register_thread(neg, "n")
        ctx.run(ns(25))
        assert falls == ["5 ns", "15 ns", "25 ns"]

    def test_level_readable(self, ctx, top):
        clk = Clock("clk", top, period=ns(10))
        samples = []

        def sampler():
            yield ns(2)     # high phase
            samples.append(clk.read())
            yield ns(5)     # 7ns: low phase
            samples.append(clk.read())

        ctx.register_thread(sampler, "s")
        ctx.run(ns(20))
        assert samples == [True, False]


class TestClockValidation:
    def test_zero_period_rejected(self, ctx, top):
        with pytest.raises(SimulationError):
            Clock("clk", top, period=ns(0))

    def test_missing_period_rejected(self, ctx, top):
        with pytest.raises(SimulationError):
            Clock("clk", top)

    @pytest.mark.parametrize("period_ns", [0.3, 0.7])
    def test_phase_rounding_to_zero_rejected(self, ctx, top, period_ns):
        """A 0 fs phase would re-arm the edge at its own instant forever
        (the delta limit never fires: each drain is a new timestep).
        The rejected clock leaves nothing behind: a valid clock of
        ``period_ns`` takes its name and ticks."""
        with pytest.raises(SimulationError) as info:
            Clock("clk", top, period=fs(1))
        message = str(info.value)
        assert "'clk'" in message
        assert "1 fs" in message
        assert "top.clk" not in ctx.objects
        period = ns(period_ns)
        clk = Clock("clk", top, period=period)
        edges = []

        def counter():
            while True:
                yield clk.posedge_event
                edges.append(ctx.now)

        ctx.register_thread(counter, "c")
        ctx.run(ns(1))
        assert ctx.now == ns(1)
        assert edges == [SimTime(k * period.femtoseconds)
                         for k in range(ns(1) // period + 1)]

    def test_clock_after_elaboration_rejected(self, ctx, top):
        ctx.elaborate()
        with pytest.raises(ElaborationError):
            Clock("late", top, period=ns(10))


# ---------------------------------------------------------------------------
# Differential oracle: Clock against ProcessClock
# ---------------------------------------------------------------------------

_EDGE_EVENTS = {"posedge": "posedge_event", "negedge": "negedge_event",
                "changed": "value_changed_event"}

_durations = st.one_of(st.integers(0, 15).map(ns),
                       st.integers(1, 15_000).map(ps))
# Each thread writes only its own signal: two writers in one delta
# would make the value depend on evaluation order.
_steps = st.one_of(
    st.tuples(st.sampled_from(["posedge", "negedge", "changed"]),
              st.integers(0, 1)),
    # clock index, index of the thread whose signal is sampled
    st.tuples(st.just("sample"), st.tuples(st.integers(0, 1),
                                           st.integers(0, 3))),
    st.tuples(st.just("wait"), _durations),
    # clock index, edges ahead: a timed wait that lands on an edge
    st.tuples(st.just("to_edge"), st.tuples(st.integers(0, 1),
                                            st.integers(1, 3))),
    st.tuples(st.just("write"), st.integers(0, 2)),
)
_designs = st.fixed_dictionaries({
    # clock periods (ns)
    "clocks": st.lists(st.integers(2, 12), min_size=1, max_size=2),
    # a script of steps, run 1-4 times
    "threads": st.lists(st.tuples(st.lists(_steps, min_size=1, max_size=8),
                                  st.integers(1, 4)), max_size=4),
    # clock index, static sensitivity, dont_initialize
    "methods": st.lists(st.tuples(st.integers(0, 1),
                                  st.sampled_from(["level", "posedge",
                                                   "negedge"]),
                                  st.booleans()), max_size=2),
    "on_change": st.booleans(),
    "observer": st.booleans(),
    "segments": st.lists(st.integers(1, 80), min_size=1, max_size=3),
})


def until_edge(clk, now_fs, ahead):
    """Time from ``now_fs`` to the ``ahead``-th edge of ``clk`` after it."""
    period = clk.period.femtoseconds
    high = clk._high_fs
    when = now_fs
    for _ in range(ahead):
        cycles, offset = divmod(when, period)
        when = cycles * period + (high if offset < high else period)
    return SimTime(when - now_fs)


class FireCounter(SimObserver):
    """Event fires per event name."""

    def __init__(self):
        self.fires = Counter()

    def on_event_fire(self, event, kind, now_fs):
        self.fires[event.name] += 1


def simulate_design(clock_cls, design):
    """Run ``design`` with clocks of ``clock_cls``; return per-process
    traces, per-signal value changes, event fires and run ends."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    clocks = [
        clock_cls(f"clk{i}", top, period=ns(period))
        for i, period in enumerate(design["clocks"])
    ]
    sigs = [Signal(f"sig{i}", top, init=0)
            for i in range(max(1, len(design["threads"])))]
    traces = {}

    def record(name):
        row = [ctx._now_fs, ctx.delta_count]
        row += [sig.read() for sig in sigs]
        for clk in clocks:
            row += [clk.read(), clk.posedge(), clk.negedge(), clk.event]
            for ev in (clk.value_changed_event, clk.posedge_event,
                       clk.negedge_event):
                row += [ev.triggered, ev.trigger_count]
        traces[name].append(tuple(row))

    for i, (script, reps) in enumerate(design["threads"]):
        name = f"t{i}"
        traces[name] = []

        def body(script=script, reps=reps, name=name, sig=sigs[i]):
            for _ in range(reps):
                for kind, arg in script:
                    if kind == "write":
                        sig.write(arg)
                        continue
                    if kind == "wait":
                        yield arg
                    elif kind == "to_edge":
                        clock, ahead = arg
                        yield until_edge(clocks[clock % len(clocks)],
                                         ctx._now_fs, ahead)
                    elif kind == "sample":
                        clock, other = arg
                        yield from clocks[clock % len(clocks)].sample(
                            sigs[other % len(sigs)], 0)
                    else:
                        clk = clocks[arg % len(clocks)]
                        yield getattr(clk, _EDGE_EVENTS[kind])
                    record(name)

        ctx.register_thread(body, name)
    for j, (index, source, lazy) in enumerate(design["methods"]):
        clk = clocks[index % len(clocks)]
        sensitive = {"level": clk, "posedge": clk.posedge_event,
                     "negedge": clk.negedge_event}[source]
        name = f"m{j}"
        traces[name] = []
        ctx.register_method(lambda name=name: record(name), name,
                            sensitive=[sensitive], dont_initialize=lazy)
    changes = {}
    if design["on_change"]:
        for signal in clocks + sigs:
            signal.on_change(lambda s, old, new: changes.setdefault(
                s.full_name, []).append((ctx._now_fs, ctx.delta_count,
                                         old, new)))
    counter = FireCounter()
    if design["observer"]:
        ctx.attach_observer(counter)
    ends = []
    until = 0
    for segment in design["segments"]:
        until += segment
        ctx.run(until=ns(until))
        ends.append((ctx.now, ctx.delta_count, ctx.last_activity_time,
                     ctx.last_run_outcome))
    return traces, changes, counter.fires, ends


@given(design=_designs)
@settings(max_examples=300, deadline=None)
def test_clock_matches_process_clock(design):
    """Processes see the same times, delta cycles, levels, edge flags
    and event trigger state on the scheduler-entry clock as on a
    toggling thread; observers see the same value changes and event
    fires, and every run segment ends in the same kernel state.
    Traces are compared per process: evaluation order within a delta
    cycle may differ."""
    assert simulate_design(Clock, design) == \
        simulate_design(ProcessClock, design)


# ---------------------------------------------------------------------------
# Snapshot round trips
# ---------------------------------------------------------------------------


class EdgeLog(Module):
    """Logs every clock edge, and the level read by a timed sampler
    whose wake-ups sometimes land on an edge's own instant."""

    def __init__(self, name, parent, clk):
        super().__init__(name, parent)
        self.clk = clk
        self.edges = []
        self.samples = []
        self.add_thread(self._edges, "edges")
        self.add_thread(self._sampler, "sampler")

    def _edges(self):
        while True:
            yield self.clk.value_changed_event
            self.edges.append((self.ctx._now_fs, self.ctx.delta_count,
                               self.clk.read()))

    def _sampler(self):
        while True:
            yield ns(7)
            self.samples.append((self.ctx._now_fs, self.ctx.delta_count,
                                 self.clk.read()))


def _clocked_design():
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    # edges: rise at 10k ns, fall at 5 + 10k ns
    clk = Clock("clk", top, period=ns(10))
    return ctx, EdgeLog("log", top, clk)


@pytest.mark.parametrize("at_ns", [32, 37, 35],
                         ids=["high", "low", "on_edge"])
def test_clock_snapshot_round_trip(at_ns):
    """Restoring a clocked snapshot and running on equals one
    uninterrupted run: same edges, levels, deltas and last activity."""
    whole, log = _clocked_design()
    whole.run(until=ns(200))

    first, first_log = _clocked_design()
    first.run(until=ns(at_ns))
    snapshot = json.loads(json.dumps(first.checkpoint()))
    assert any(kind == "clock" and name == "top.clk"
               for _, _, kind, name in snapshot["heap"])
    second, second_log = _clocked_design()
    second.resume(snapshot)
    second.run(until=ns(200))

    assert first_log.edges + second_log.edges == log.edges
    assert first_log.samples + second_log.samples == log.samples
    assert second.delta_count == whole.delta_count
    assert second.last_activity_time == whole.last_activity_time
    assert second.now == whole.now


def test_toggle_thread_snapshot_rejected():
    """A snapshot whose clock is a toggling thread's timed resume (the
    format written before the clock became a scheduler entry) names a
    process that no longer exists."""
    ctx, _ = _clocked_design()
    ctx.run(until=ns(40))
    snapshot = ctx.checkpoint()
    for entry in snapshot["heap"]:
        if entry[2] == "clock":
            entry[2:] = ["resume", "top.clk._toggle"]
            snapshot["processes"]["top.clk._toggle"] = {
                "kind": "thread", "state": "waiting", "started": True,
                "wait": {"mode": "timed", "events": [],
                         "timeout": entry[:2]},
            }
    fresh, _ = _clocked_design()
    with pytest.raises(SnapshotError):
        fresh.resume(snapshot)
