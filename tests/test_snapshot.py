"""Tests for ``repro.snapshot`` — kernel checkpoint/restore.

The core gate everywhere: a run restored from a snapshot taken at time
``t`` must finish **byte-identical** to the uninterrupted run.  The
round-trips cover the three abstraction levels the paper's flow spans
(CAM cycle-approximate bus, RTL pin-accurate bus core, SHIP message
channel), a fault-injected workload (property-style over random save
instants), the content-addressed :class:`Checkpoint` file format with
corruption detection, and :class:`FaultReplay` prefix reuse.
"""

import json
import random

import pytest

from repro.cam import BusTiming, GenericBus, MemorySlave
from repro.explore import FABRICS, ArchitectureConfig, standard_workloads
from repro.explore.runner import _build_point
from repro.explore.workload import MasterTrafficSpec, TrafficMaster
from repro.faults import FaultPlan, FaultRule, MemoryFaultInjector
from repro.kernel import Clock, Module, SimContext, ns, us
from repro.kernel.simtime import SimTime
from repro.ocp import OcpCmd, OcpRequest
from repro.rtl import RtlBusCore
from repro.ship import ShipChannel, ShipInt, ShipTiming
from repro.snapshot import (
    Checkpoint,
    CheckpointError,
    FaultReplay,
    SnapshotError,
    capture_state,
    checkpoint_digest,
    restore_state,
)


# --- model builders -------------------------------------------------------

def build_cam(transactions=60, seed=7):
    """Fresh CAM model: random traffic through a GenericBus into memory."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    spec = MasterTrafficSpec("m", pattern="random",
                             transactions=transactions, gap=ns(50))
    bus = GenericBus("bus", top, clock_period=ns(10))
    mem = MemorySlave("mem", top, size=spec.size, read_wait=1,
                      write_wait=1)
    bus.attach_slave(mem, spec.base, spec.size)
    tm = TrafficMaster("tm", top, socket=bus.master_socket(spec.name),
                       spec=spec, seed=seed, rng_streams=True)
    return ctx, tm, mem


def fp_cam(ctx, tm, mem):
    """Determinism fingerprint of a CAM run (counters + kernel state)."""
    return (tm.completed, tm.bytes_done, tm.errors, tm.latency.total_ns,
            str(tm.last_done), mem.reads, mem.writes, ctx._now_fs,
            ctx._delta_count)


def build_rtl():
    """Fresh RTL model: pipelined split-R/W bus core behind a clock."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    clk = Clock("clk", top, period=ns(10))
    core = RtlBusCore("core", top, clock=clk,
                      timing=BusTiming(pipelined=True, split_rw=True))
    mem = MemorySlave("mem", top, size=1 << 16, read_wait=1,
                      write_wait=1)
    core.attach_slave(mem, 0x0, 1 << 16)
    spec = MasterTrafficSpec("m", pattern="random", transactions=40,
                             gap=ns(70))
    tm = TrafficMaster("tm", top, socket=core.master_port(spec.name),
                       spec=spec, seed=11, rng_streams=True)
    return ctx, tm, mem, core


def fp_rtl(ctx, tm, mem, core):
    """Determinism fingerprint of an RTL run."""
    return (tm.completed, tm.bytes_done, tm.latency.total_ns,
            str(tm.last_done), mem.reads, mem.writes, core.cycles,
            core.transactions_completed, ctx._now_fs, ctx._delta_count)


class Producer(Module):
    """SHIP producer whose loop counter participates in snapshots."""

    def __init__(self, name, parent, chan, count):
        super().__init__(name, parent)
        self.chan = chan
        self.end = chan.claim_end(self)
        self.count = count
        self.sent = 0
        self.add_thread(self._run, "p")

    def __snapshot__(self):
        """Loop state: messages sent so far."""
        return {"sent": self.sent}

    def __restore__(self, state):
        """Restore the send counter captured by :meth:`__snapshot__`."""
        self.sent = state["sent"]

    def _run(self):
        while self.sent < self.count:
            yield from self.chan.send(self.end, ShipInt(self.sent))
            self.sent += 1


class Consumer(Module):
    """SHIP consumer whose accumulators participate in snapshots."""

    def __init__(self, name, parent, chan):
        super().__init__(name, parent)
        self.chan = chan
        self.end = chan.claim_end(self)
        self.total = 0
        self.got = 0
        self.add_thread(self._run, "c")

    def __snapshot__(self):
        """Loop state: message count and running sum."""
        return {"total": self.total, "got": self.got}

    def __restore__(self, state):
        """Restore the accumulators captured by :meth:`__snapshot__`."""
        self.total = state["total"]
        self.got = state["got"]

    def _run(self):
        while True:
            obj = yield from self.chan.recv(self.end)
            self.total += obj.value
            self.got += 1


def build_ship():
    """Fresh SHIP model: bounded channel between producer and consumer."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    chan = ShipChannel("chan", top, capacity=2,
                       timing=ShipTiming(base_latency=ns(100)))
    prod = Producer("prod", top, chan, count=50)
    cons = Consumer("cons", top, chan)
    return ctx, chan, prod, cons


def fp_ship(ctx, chan, prod, cons):
    """Determinism fingerprint of a SHIP run."""
    return (prod.sent, cons.got, cons.total,
            chan.bytes_sent(prod.end), chan.messages_sent(prod.end),
            ctx._now_fs, ctx._delta_count)


def build_faulty():
    """Fresh fault-injected CAM model; returns ``(ctx, tm, mem, plan)``."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    spec = MasterTrafficSpec("m", pattern="random", transactions=80,
                             gap=ns(200))
    bus = GenericBus("bus", top, clock_period=ns(10))
    mem = MemorySlave("mem", top, size=spec.size, read_wait=1,
                      write_wait=1)
    bus.attach_slave(mem, spec.base, spec.size)
    plan = FaultPlan(seed=13)
    MemoryFaultInjector("seu", top, memory=mem, plan=plan,
                        period=us(1))
    tm = TrafficMaster("tm", top, socket=bus.master_socket(spec.name),
                       spec=spec, seed=5, rng_streams=True)
    return ctx, tm, mem, plan


def fp_faulty(ctx, tm, mem, plan):
    """Fingerprint of a fault-injected run including the fault log."""
    return (tm.completed, tm.bytes_done, tm.errors, tm.latency.total_ns,
            mem.reads, mem.writes, plan.digest(), plan.count(),
            ctx._now_fs, ctx._delta_count)


def roundtrip_instants(tag, count, lo_ns, hi_ns):
    """Deterministic pseudo-random capture instants for property tests.

    String-seeded for cross-platform stability, matching the traffic
    generator's convention.
    """
    rng = random.Random(f"snapshot-test:{tag}")
    return sorted(rng.randrange(lo_ns, hi_ns) for _ in range(count))


def capture_cam_quiescent():
    """Run a fresh CAM build to the first capturable ladder instant.

    Returns ``(snapshot, t_ns)``.  Quiescence depends on in-flight
    transactions, so file-format tests probe a ladder instead of
    hard-coding one instant.
    """
    for t_ns in (777, 1303, 2222, 3001, 4747):
        ctx, tm, mem = build_cam()
        ctx.run(ns(t_ns))
        try:
            return capture_state(ctx), t_ns
        except SnapshotError:
            continue
    raise AssertionError("no capturable CAM instant on the ladder")


# --- save -> restore -> run byte-identical round-trips --------------------

class TestCamRoundTrip:
    def test_restored_run_matches_baseline(self):
        """CAM: resume from random instants; finals match cold run."""
        ctx, tm, mem = build_cam()
        ctx.run(us(1000))
        base = fp_cam(ctx, tm, mem)

        ok = 0
        for t_ns in roundtrip_instants("cam", 6, 200, 5000):
            c1, t1, m1 = build_cam()
            c1.run(ns(t_ns))
            try:
                snap = c1.checkpoint()
            except SnapshotError:
                continue  # mid-transaction: correctly refused
            c2, t2, m2 = build_cam()
            c2.resume(snap)
            assert c2._now_fs == c1._now_fs
            c2.run(until=us(1000))
            assert fp_cam(c2, t2, m2) == base, f"t={t_ns}ns diverged"
            ok += 1
        assert ok >= 2, f"only {ok} capturable instants"

    def test_snapshot_is_json_serializable(self):
        """Snapshots must survive a JSON round-trip unchanged."""
        snap, _ = capture_cam_quiescent()
        again = json.loads(json.dumps(snap, sort_keys=True))
        c2, t2, m2 = build_cam()
        restore_state(c2, again)
        c2.run(until=us(1000))
        c3, t3, m3 = build_cam()
        c3.run(us(1000))
        assert fp_cam(c2, t2, m2) == fp_cam(c3, t3, m3)


class TestRtlRoundTrip:
    def test_restored_run_matches_baseline(self):
        """RTL pin-accurate: resume at bus-idle instants matches cold."""
        ctx, tm, mem, core = build_rtl()
        ctx.run(us(100))
        base = fp_rtl(ctx, tm, mem, core)

        ok = 0
        for t_ns in (333, 777, 1501, 2999, 4303):
            c1, t1, m1, co1 = build_rtl()
            c1.run(ns(t_ns))
            try:
                snap = capture_state(c1)
            except SnapshotError:
                continue
            c2, t2, m2, co2 = build_rtl()
            restore_state(c2, snap)
            c2.run(until=us(100))
            assert fp_rtl(c2, t2, m2, co2) == base, f"t={t_ns}ns diverged"
            ok += 1
        assert ok >= 2, f"only {ok} capturable instants"


class TestShipRoundTrip:
    def test_restored_run_matches_baseline(self):
        """SHIP message channel: restored run matches the cold run."""
        ctx, chan, prod, cons = build_ship()
        ctx.run(us(100))
        base = fp_ship(ctx, chan, prod, cons)

        ok = 0
        for t_ns in (250, 777, 1450, 2650, 3333):
            c1, ch1, p1, q1 = build_ship()
            c1.run(ns(t_ns))
            try:
                snap = capture_state(c1)
            except SnapshotError:
                continue
            c2, ch2, p2, q2 = build_ship()
            restore_state(c2, snap)
            c2.run(until=us(100))
            assert fp_ship(c2, ch2, p2, q2) == base, f"t={t_ns}ns diverged"
            ok += 1
        assert ok >= 2, f"only {ok} capturable instants"


# --- a capture leaves the captured run as it was ------------------------

def build_sweep_point(fabric):
    """Fresh two-master sweep point (``mixed`` at a quarter of its
    transactions) on ``fabric``; returns its context."""
    specs = [spec.scaled(0.25) for spec in standard_workloads()["mixed"][:2]]
    ctx, _, _, _ = _build_point(ArchitectureConfig(fabric=fabric), specs,
                                seed=1, memory_read_wait=1,
                                memory_write_wait=1)
    return ctx


class Requester(Module):
    """SHIP requester: a gap, then one request, per round."""

    def __init__(self, name, parent, chan, count):
        super().__init__(name, parent)
        self.chan = chan
        self.end = chan.claim_end(self)
        self.count = count
        self.done = 0
        self.total = 0
        self.add_thread(self._run, "r")

    def __snapshot__(self):
        """Loop state: rounds done and the replies' sum."""
        return {"done": self.done, "total": self.total}

    def __restore__(self, state):
        """Restore the state captured by :meth:`__snapshot__`."""
        self.done = state["done"]
        self.total = state["total"]

    def _run(self):
        while self.done < self.count:
            yield ns(150)
            reply = yield from self.chan.request(self.end, ShipInt(self.done))
            self.total += reply.value
            self.done += 1


class Doubler(Module):
    """SHIP server: replies to each request with twice its value."""

    def __init__(self, name, parent, chan):
        super().__init__(name, parent)
        self.chan = chan
        self.end = chan.claim_end(self)
        self.add_thread(self._run, "s")

    def _run(self):
        while True:
            msg = yield from self.chan.recv(self.end)
            yield from self.chan.reply(self.end, ShipInt(2 * msg.value))


def build_request_reply():
    """Fresh SHIP request/reply system; returns its context."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    chan = ShipChannel("chan", top, timing=ShipTiming(base_latency=ns(40)))
    Requester("req", top, chan, count=40)
    Doubler("srv", top, chan)
    return ctx


def capture_from(ctx, start_ns):
    """Run ``ctx`` on from ``start_ns`` in 50 ns steps to the first
    capturable instant; return ``(snapshot, t_ns)``."""
    for t_ns in range(start_ns, start_ns + 5000, 50):
        ctx.run(until=ns(t_ns))
        try:
            return capture_state(ctx), t_ns
        except SnapshotError:
            continue
    raise AssertionError(f"no capturable instant after {start_ns} ns")


def continuing_and_restored(build, first_ns, second_ns):
    """Checkpoint one run twice and restore a twin from its first
    checkpoint; return both runs' second checkpoints."""
    run = build()
    first, _ = capture_from(run, first_ns)
    second, t_ns = capture_from(run, second_ns)
    twin = build()
    restore_state(twin, json.loads(json.dumps(first)))
    twin.run(until=ns(t_ns))
    return second, capture_state(twin)


class TestCaptureLeavesRunAsItWas:
    """A run that is checkpointed and carries on numbers everything
    after the checkpoint (heap seqs, bus transaction seqs, SHIP request
    ids) as its restored twin does."""

    @pytest.mark.parametrize("fabric", FABRICS)
    def test_sweep_point(self, fabric):
        continuing, restored = continuing_and_restored(
            lambda: build_sweep_point(fabric), 2000, 5000)
        assert continuing == restored

    def test_ship_request_reply(self):
        continuing, restored = continuing_and_restored(
            build_request_reply, 1000, 3000)
        assert continuing["objects"]["top.chan"]["next_txn_id"] > 1
        assert continuing == restored


class TestFaultRoundTrip:
    def test_fault_injected_run_matches_baseline(self):
        """Fault campaign: restored runs reproduce the exact fault log.

        Property-style: random save instants; non-quiescent instants
        are skipped (capture refuses them), and every capturable one
        must replay to the baseline fingerprint — including the fault
        plan digest, so injection order and RNG draws line up exactly.
        """
        ctx, tm, mem, plan = build_faulty()
        ctx.run(us(1000))
        base = fp_faulty(ctx, tm, mem, plan)
        assert plan.count() > 0  # the campaign actually fired

        ok = 0
        for t_ns in roundtrip_instants("faults", 12, 500, 8000):
            c1, t1, m1, p1 = build_faulty()
            c1.run(ns(t_ns))
            try:
                snap = c1.checkpoint(extras={"fault_plan": p1})
            except SnapshotError:
                continue
            c2, t2, m2, p2 = build_faulty()
            c2.resume(snap, extras={"fault_plan": p2})
            c2.run(until=us(1000))
            assert fp_faulty(c2, t2, m2, p2) == base, \
                f"t={t_ns}ns diverged"
            ok += 1
        assert ok >= 2, f"only {ok} capturable instants"


class TestQuiescence:
    def test_mid_transaction_capture_refused(self):
        """An in-flight bus transaction makes the instant uncapturable."""
        ctx = SimContext()
        top = Module("top", ctx=ctx)
        bus = GenericBus("bus", top, clock_period=ns(10))
        mem = MemorySlave("mem", top, size=1 << 12, read_wait=8,
                          write_wait=8)
        bus.attach_slave(mem, 0, 1 << 12)
        socket = bus.master_socket("m")

        def proc():
            response = yield from socket.transport(
                OcpRequest(OcpCmd.RD, 0x0, burst_length=8))
            assert response.ok

        top.add_thread(proc, "gen")
        ctx.run(ns(15))  # inside the burst: requester waits on a
        # transient per-transaction completion event
        with pytest.raises(SnapshotError):
            capture_state(ctx)

    def test_restore_into_mismatched_structure_fails(self):
        """A snapshot only restores into a structurally equal build."""
        snap, _ = capture_cam_quiescent()
        c2, ch2, p2, q2 = build_ship()
        with pytest.raises(SnapshotError):
            restore_state(c2, snap)


# --- checkpoint file format ----------------------------------------------

class TestCheckpointFile:
    def _capture(self):
        """A small captured CAM checkpoint for file-format tests."""
        for t_ns in (777, 1303, 2222, 3001, 4747):
            ctx, tm, mem = build_cam()
            ctx.run(ns(t_ns))
            try:
                return Checkpoint.capture(ctx, "cam-demo",
                                          meta={"k": "v"})
            except SnapshotError:
                continue
        raise AssertionError("no capturable CAM instant on the ladder")

    def test_save_load_roundtrip(self, tmp_path):
        """save() then load() returns an identical checkpoint."""
        ck = self._capture()
        path = ck.save(str(tmp_path))
        assert path == Checkpoint.path_for(str(tmp_path), ck.digest)
        loaded = Checkpoint.load(str(tmp_path), ck.digest)
        assert loaded.snapshot == ck.snapshot
        assert loaded.config_key == "cam-demo"
        assert loaded.meta == {"k": "v"}

        c2, t2, m2 = build_cam()
        loaded.resume(c2)
        c2.run(until=us(1000))
        c3, t3, m3 = build_cam()
        c3.run(us(1000))
        assert fp_cam(c2, t2, m2) == fp_cam(c3, t3, m3)

    def test_digest_is_content_addressed(self):
        """Digest depends on config key and capture instant only."""
        assert checkpoint_digest("a", 1) == checkpoint_digest("a", 1)
        assert checkpoint_digest("a", 1) != checkpoint_digest("b", 1)
        assert checkpoint_digest("a", 1) != checkpoint_digest("a", 2)

    def test_missing_checkpoint_raises(self, tmp_path):
        """Loading an absent digest is a CheckpointError."""
        with pytest.raises(CheckpointError):
            Checkpoint.load(str(tmp_path), "deadbeef")

    def test_corrupt_body_raises(self, tmp_path):
        """A flipped byte in the stored snapshot fails verification."""
        ck = self._capture()
        path = ck.save(str(tmp_path))
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        record["snapshot"]["kernel"]["delta_count"] += 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        with pytest.raises(CheckpointError):
            Checkpoint.load(str(tmp_path), ck.digest)

    def test_garbage_file_raises(self, tmp_path):
        """Non-JSON checkpoint files fail cleanly, not with a crash."""
        ck = self._capture()
        path = ck.save(str(tmp_path))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json {")
        with pytest.raises(CheckpointError):
            Checkpoint.load(str(tmp_path), ck.digest)

    def test_wrong_code_version_raises(self, tmp_path):
        """A checkpoint from a different snapshot code version is refused."""
        ck = self._capture()
        path = ck.save(str(tmp_path))
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        record["code_version"] = "snapshot-0"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        with pytest.raises(CheckpointError):
            Checkpoint.load(str(tmp_path), ck.digest)


# --- fault-campaign replay ------------------------------------------------

def _faulty_builder():
    """FaultReplay builder: fresh fault-injected CAM model."""
    ctx, tm, mem, plan = build_faulty()
    ctx._replay_parts = (tm, mem, plan)
    return ctx, {"fault_plan": plan}


class TestFaultReplay:
    def test_replay_matches_baseline(self):
        """Restoring before the injection reproduces the full campaign."""
        horizon = us(1000)
        replayer = FaultReplay(_faulty_builder)
        base_ctx, base_extras = replayer.baseline(horizon)
        base = fp_faulty(base_ctx, *base_ctx._replay_parts[:2],
                         base_extras["fault_plan"])
        assert base_extras["fault_plan"].count() > 0

        # Checkpoint at the latest capturable instant before the second
        # injection (period us(1)), then replay only the suffix.
        injection_fs = us(2)._fs
        ladder = [ns(250 * k)._fs for k in range(1, 8)]
        snap, chosen_fs = replayer.checkpoint_before(injection_fs, ladder)
        assert 0 <= chosen_fs < injection_fs
        ctx, extras = replayer.replay(snap, horizon)
        warm = fp_faulty(ctx, *ctx._replay_parts[:2],
                         extras["fault_plan"])
        assert warm == base

    def test_replay_mutate_variant_diverges(self):
        """The mutate hook changes the suffix without re-simulating the
        prefix: stopping the injector after restore yields fewer flips."""
        horizon = us(1000)
        replayer = FaultReplay(_faulty_builder)
        base_ctx, base_extras = replayer.baseline(horizon)
        base_injected = base_extras["fault_plan"].count()

        snap, _ = replayer.checkpoint_before(
            us(2)._fs, [ns(250 * k)._fs for k in range(1, 8)])

        def stop_injector(ctx, extras):
            injector = ctx.objects["top.seu"]
            injector.max_flips = injector.flips

        ctx, extras = replayer.replay(snap, horizon,
                                      mutate=stop_injector)
        assert extras["fault_plan"].count() < base_injected

    def test_no_capturable_instant_raises(self):
        """An empty candidate ladder is a clean SnapshotError."""
        replayer = FaultReplay(_faulty_builder)
        with pytest.raises(SnapshotError):
            replayer.checkpoint_before(us(2)._fs, [])
