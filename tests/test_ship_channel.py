"""Unit tests for the SHIP channel and its four interface method calls.

``ReferenceShipChannel`` below is the reference for the channel: the
implementation that kept each end's state in five ``ShipEnd``-keyed
dicts and encoded every reply twice.  The differential property runs
random schedules on both and requires the same deliveries, accounting
and checkpoint payload, and the reference's own list of received
transfers to equal what the channel reports to the context's observer
(replies, which the reference does not report, are checked on their
own).
"""

import itertools
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, FaultRule, LinkFaultInjector
from repro.kernel import (
    Event,
    Module,
    SimContext,
    SimObject,
    SimTime,
    SimTimeoutError,
    SimulationError,
    ns,
    ps,
    with_timeout,
)
from repro.ship import (
    ShipChannel,
    ShipEnd,
    ShipInt,
    ShipString,
    ShipTiming,
    classify,
    decode_message,
    encode_message,
    roles_consistent,
)
from repro.ship.serializable import FRAME_HEADER_BYTES
from repro.snapshot import SnapshotError
from tests.test_obs_hooks import TransferLog

_OTHER = {ShipEnd.A: ShipEnd.B, ShipEnd.B: ShipEnd.A}


class _ReferenceMessage:
    __slots__ = ("kind", "data", "obj", "txn_id", "nbytes", "sent_at")

    def __init__(self, kind, data, obj, txn_id, nbytes, sent_at):
        self.kind = kind
        self.data = data
        self.obj = obj
        self.txn_id = txn_id
        self.nbytes = nbytes
        self.sent_at = sent_at


class _ReferenceEndpoint:
    __slots__ = ("owner_name", "calls_used", "bytes_sent", "messages_sent")

    def __init__(self):
        self.owner_name = None
        self.calls_used = set()
        self.bytes_sent = 0
        self.messages_sent = 0


class ReferenceShipChannel(SimObject):
    """Reference channel: per-end state in ``ShipEnd``-keyed dicts."""

    def __init__(self, name, parent=None, ctx=None, capacity=8,
                 zero_copy=False, timing=None):
        super().__init__(name, parent, ctx)
        self.capacity = capacity
        self.zero_copy = zero_copy
        self.timing = timing or ShipTiming()
        #: received transfers, in TransferLog's tuple form
        self.transfers = []
        self._endpoints = {ShipEnd.A: _ReferenceEndpoint(),
                           ShipEnd.B: _ReferenceEndpoint()}
        self._claimed = {}
        self._queues = {ShipEnd.A: deque(), ShipEnd.B: deque()}
        self._data_events = {
            ShipEnd.A: Event(self, f"{self.full_name}.data_a"),
            ShipEnd.B: Event(self, f"{self.full_name}.data_b"),
        }
        self._space_events = {
            ShipEnd.A: Event(self, f"{self.full_name}.space_a"),
            ShipEnd.B: Event(self, f"{self.full_name}.space_b"),
        }
        self._pending_replies = {}
        self._unanswered = {ShipEnd.A: deque(), ShipEnd.B: deque()}
        self._txn_ids = itertools.count(1)
        self.fault_injector = None
        self.replies_dropped = 0

    def claim_end(self, owner):
        for end in (ShipEnd.A, ShipEnd.B):
            if end not in self._claimed:
                self._claimed[end] = owner
                self._endpoints[end].owner_name = getattr(
                    owner, "full_name", str(owner))
                return end
        raise SimulationError("point-to-point only")

    def send(self, end, obj):
        yield from self._transmit(end, obj, "send", None)

    def recv(self, end):
        self._note_call(end, "recv")
        source = _OTHER[end]
        queue = self._queues[source]
        while not queue:
            yield self._data_events[end]
        msg = queue.popleft()
        self._space_events[source].notify()
        obj = self._materialize(msg)
        if msg.kind == "request":
            self._unanswered[end].append(msg.txn_id)
        self.transfers.append((
            self.full_name,
            msg.kind,
            self._endpoints[source].owner_name or source.value,
            self._endpoints[end].owner_name or end.value,
            msg.sent_at.femtoseconds,
            self.ctx.now.femtoseconds,
            msg.nbytes,
            None,
        ))
        return obj

    def request(self, end, obj):
        txn_id = next(self._txn_ids)
        done = Event(self, f"{self.full_name}.reply_{txn_id}")
        slot = [None, done]
        self._pending_replies[txn_id] = slot
        try:
            yield from self._transmit(end, obj, "request", txn_id)
            while txn_id in self._pending_replies:
                yield done
        finally:
            self._pending_replies.pop(txn_id, None)
        return slot[0]

    def reply(self, end, obj):
        self._note_call(end, "reply")
        if not self._unanswered[end]:
            raise SimulationError(
                f"ship channel {self.full_name}: reply() with no "
                f"outstanding request at end {end.value}"
            )
        txn_id = self._unanswered[end].popleft()
        nbytes = self._wire_size(obj)
        delay_fs = self.timing.transfer_time_fs(nbytes)
        if delay_fs:
            try:
                yield SimTime._from_fs(delay_fs)
            except GeneratorExit:
                self._unanswered[end].appendleft(txn_id)
                raise
        slot = self._pending_replies.pop(txn_id, None)
        self._endpoints[end].bytes_sent += nbytes
        self._endpoints[end].messages_sent += 1
        if slot is None:
            self.replies_dropped += 1
            inj = self.fault_injector
            if inj is not None:
                inj.on_reply_dropped(self, end, txn_id)
            return
        slot[0] = self._roundtrip(obj)
        slot[1].notify()

    def _note_call(self, end, call):
        self._endpoints[end].calls_used.add(call)

    def _wire_size(self, obj):
        if self.zero_copy:
            serialize = getattr(obj, "serialize", None)
            if serialize is None:
                return 0
            return FRAME_HEADER_BYTES + len(serialize())
        return len(encode_message(obj))

    def _roundtrip(self, obj):
        if self.zero_copy:
            return obj
        decoded, _ = decode_message(encode_message(obj))
        return decoded

    def _materialize(self, msg):
        if msg.obj is not None:
            return msg.obj
        decoded, _ = decode_message(msg.data)
        return decoded

    def _transmit(self, end, obj, kind, txn_id):
        self._note_call(end, kind)
        sent_at = self.ctx.now
        if self.zero_copy:
            data, payload_obj = None, obj
            nbytes = self._wire_size(obj)
        else:
            data = encode_message(obj)
            payload_obj = None
            nbytes = len(data)
        delay_fs = self.timing.transfer_time_fs(nbytes)
        deliver = True
        inj = self.fault_injector
        if inj is not None:
            deliver, data, extra_fs = inj.on_message(
                self, end, kind, data, nbytes
            )
            delay_fs += extra_fs
        if delay_fs:
            yield SimTime._from_fs(delay_fs)
        ep = self._endpoints[end]
        if not deliver:
            ep.bytes_sent += nbytes
            ep.messages_sent += 1
            return
        queue = self._queues[end]
        while len(queue) >= self.capacity:
            yield self._space_events[end]
        queue.append(_ReferenceMessage(kind, data, payload_obj, txn_id,
                                       nbytes, sent_at))
        ep.bytes_sent += nbytes
        ep.messages_sent += 1
        self._data_events[_OTHER[end]].notify()

    def __snapshot__(self):
        if self._pending_replies:
            raise SnapshotError(
                f"ship channel {self.full_name}: "
                f"{len(self._pending_replies)} request(s) awaiting replies "
                "— not a checkpointable instant"
            )
        queues = {}
        for end, queue in self._queues.items():
            records = []
            for msg in queue:
                if msg.obj is not None:
                    raise SnapshotError(
                        f"ship channel {self.full_name}: zero-copy message "
                        "in flight cannot be serialized"
                    )
                records.append({
                    "kind": msg.kind,
                    "data": msg.data.hex(),
                    "txn_id": msg.txn_id,
                    "nbytes": msg.nbytes,
                    "sent_at_fs": msg.sent_at._fs,
                })
            queues[end.value] = records
        return {
            "queues": queues,
            "endpoints": {
                end.value: {
                    "calls_used": sorted(ep.calls_used),
                    "bytes_sent": ep.bytes_sent,
                    "messages_sent": ep.messages_sent,
                }
                for end, ep in self._endpoints.items()
            },
            "unanswered": {
                end.value: list(ids) for end, ids in self._unanswered.items()
            },
            "next_txn_id": next(self._txn_ids),
            "replies_dropped": self.replies_dropped,
        }

    def detected_role(self, end):
        return classify(self._endpoints[end].calls_used)

    def roles_consistent(self):
        return roles_consistent(self.detected_role(ShipEnd.A),
                                self.detected_role(ShipEnd.B))

    def bytes_sent(self, end):
        return self._endpoints[end].bytes_sent

    def messages_sent(self, end):
        return self._endpoints[end].messages_sent

    def pending_requests(self, end):
        return len(self._unanswered[end])


def two_enders(ctx, top, chan):
    """Claim both ends for direct channel-level tests."""
    end_a = chan.claim_end("tester_a")
    end_b = chan.claim_end("tester_b")
    return end_a, end_b


class TestSendRecv:
    def test_send_then_recv_delivers_copy(self, ctx, top):
        chan = ShipChannel("c", top)
        a, b = two_enders(ctx, top, chan)
        got = []

        def sender():
            yield from chan.send(a, ShipInt(42))

        def receiver():
            obj = yield from chan.recv(b)
            got.append(obj)

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        assert got == [ShipInt(42)]

    def test_serialization_produces_new_object(self, ctx, top):
        chan = ShipChannel("c", top)
        a, b = two_enders(ctx, top, chan)
        original = ShipInt(7)
        got = []

        def sender():
            yield from chan.send(a, original)

        def receiver():
            got.append((yield from chan.recv(b)))

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        assert got[0] == original
        assert got[0] is not original

    def test_zero_copy_passes_reference(self, ctx, top):
        chan = ShipChannel("c", top, zero_copy=True)
        a, b = two_enders(ctx, top, chan)
        original = ShipInt(7)
        got = []

        def sender():
            yield from chan.send(a, original)

        def receiver():
            got.append((yield from chan.recv(b)))

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        assert got[0] is original

    @staticmethod
    def _three_timed_sends(zero_copy):
        ctx = SimContext()
        top = Module("top", ctx=ctx)
        log = TransferLog()
        ctx.attach_observer(log)
        chan = ShipChannel(
            "c", top, zero_copy=zero_copy,
            timing=ShipTiming(base_latency=ns(10), per_byte=ns(1)),
        )
        a, b = two_enders(ctx, top, chan)

        def sender():
            for i in range(3):
                yield from chan.send(a, ShipInt(i))

        def receiver():
            for _ in range(3):
                yield from chan.recv(b)

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        nbytes = [transfer[6] for transfer in log.transfers]
        return ctx.now, chan.bytes_sent(a), nbytes

    def test_zero_copy_moves_no_simulated_value(self):
        # zero_copy is a host-speed ablation: both modes charge the
        # framed 14 bytes (6-byte tag|length header + 8-byte int) for
        # 10 + 14 = 24 ns per send
        serialized = self._three_timed_sends(zero_copy=False)
        assert serialized == (ns(72), 42, [14, 14, 14])
        assert self._three_timed_sends(zero_copy=True) == serialized

    def test_recv_blocks_until_send(self, ctx, top):
        chan = ShipChannel("c", top)
        a, b = two_enders(ctx, top, chan)
        got = []

        def receiver():
            obj = yield from chan.recv(b)
            got.append((obj.value, str(ctx.now)))

        def sender():
            yield ns(20)
            yield from chan.send(a, ShipInt(1))

        ctx.register_thread(receiver, "r")
        ctx.register_thread(sender, "s")
        ctx.run()
        assert got == [(1, "20 ns")]

    def test_capacity_backpressure(self, ctx, top):
        chan = ShipChannel("c", top, capacity=2)
        a, b = two_enders(ctx, top, chan)
        sent_times = []

        def sender():
            for i in range(4):
                yield from chan.send(a, ShipInt(i))
                sent_times.append(str(ctx.now))

        def receiver():
            yield ns(100)
            for _ in range(4):
                yield from chan.recv(b)

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        # first two fit the queue at t=0; the rest wait for the receiver
        assert sent_times[0] == "0 s"
        assert sent_times[1] == "0 s"
        assert sent_times[2] == "100 ns"

    def test_bidirectional_streams_are_independent(self, ctx, top):
        chan = ShipChannel("c", top)
        a, b = two_enders(ctx, top, chan)
        got = {"a": None, "b": None}

        def pa():
            yield from chan.send(a, ShipString("from-a"))
            got["a"] = (yield from chan.recv(a)).value

        def pb():
            yield from chan.send(b, ShipString("from-b"))
            got["b"] = (yield from chan.recv(b)).value

        ctx.register_thread(pa, "pa")
        ctx.register_thread(pb, "pb")
        ctx.run()
        assert got == {"a": "from-b", "b": "from-a"}


class TestRequestReply:
    def test_round_trip(self, ctx, top):
        chan = ShipChannel("c", top)
        a, b = two_enders(ctx, top, chan)
        results = []

        def client():
            reply = yield from chan.request(a, ShipInt(5))
            results.append(reply.value)

        def server():
            req = yield from chan.recv(b)
            yield from chan.reply(b, ShipInt(req.value * 3))

        ctx.register_thread(client, "c")
        ctx.register_thread(server, "s")
        ctx.run()
        assert results == [15]

    def test_pipelined_requests_replied_in_order(self, ctx, top):
        chan = ShipChannel("c", top, capacity=8)
        a, b = two_enders(ctx, top, chan)
        results = []

        def client():
            # two outstanding requests via helper processes
            r1 = yield from chan.request(a, ShipInt(1))
            results.append(r1.value)

        def client2():
            r2 = yield from chan.request(a, ShipInt(2))
            results.append(r2.value)

        def server():
            for _ in range(2):
                req = yield from chan.recv(b)
                yield from chan.reply(b, ShipInt(req.value + 100))

        ctx.register_thread(client, "c1")
        ctx.register_thread(client2, "c2")
        ctx.register_thread(server, "s")
        ctx.run()
        assert sorted(results) == [101, 102]

    def test_reply_without_request_rejected(self, ctx, top):
        chan = ShipChannel("c", top)
        a, b = two_enders(ctx, top, chan)

        def server():
            yield from chan.reply(b, ShipInt(1))

        ctx.register_thread(server, "s")
        with pytest.raises(SimulationError, match="no\\s+outstanding"):
            ctx.run()

    def test_pending_requests_counter(self, ctx, top):
        chan = ShipChannel("c", top)
        a, b = two_enders(ctx, top, chan)
        counts = []

        def client():
            yield from chan.request(a, ShipInt(1))

        def server():
            yield from chan.recv(b)
            counts.append(chan.pending_requests(b))
            yield from chan.reply(b, ShipInt(2))
            counts.append(chan.pending_requests(b))

        ctx.register_thread(client, "c")
        ctx.register_thread(server, "s")
        ctx.run()
        assert counts == [1, 0]


class TestTiming:
    def test_untimed_channel_takes_zero_time(self, ctx, top):
        chan = ShipChannel("c", top)
        a, b = two_enders(ctx, top, chan)
        times = []

        def sender():
            yield from chan.send(a, ShipInt(1))
            times.append(str(ctx.now))

        def receiver():
            yield from chan.recv(b)
            times.append(str(ctx.now))

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        assert times == ["0 s", "0 s"]

    def test_base_latency_charged_per_transfer(self, ctx, top):
        chan = ShipChannel("c", top, timing=ShipTiming(base_latency=ns(10)))
        a, b = two_enders(ctx, top, chan)
        arrival = []

        def sender():
            yield from chan.send(a, ShipInt(1))
            yield from chan.send(a, ShipInt(2))

        def receiver():
            for _ in range(2):
                obj = yield from chan.recv(b)
                arrival.append((obj.value, str(ctx.now)))

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        assert arrival == [(1, "10 ns"), (2, "20 ns")]

    def test_per_byte_cost_scales_with_size(self, ctx, top):
        chan = ShipChannel(
            "c", top, timing=ShipTiming(per_byte=ns(1))
        )
        a, b = two_enders(ctx, top, chan)
        arrival = []

        def sender():
            yield from chan.send(a, ShipInt(1))  # 6B frame + 8B payload

        def receiver():
            yield from chan.recv(b)
            arrival.append(str(ctx.now))

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        assert arrival == ["14 ns"]

    def test_reply_charged_too(self, ctx, top):
        chan = ShipChannel("c", top, timing=ShipTiming(base_latency=ns(5)))
        a, b = two_enders(ctx, top, chan)
        done = []

        def client():
            yield from chan.request(a, ShipInt(1))
            done.append(str(ctx.now))

        def server():
            yield from chan.recv(b)
            yield from chan.reply(b, ShipInt(2))

        ctx.register_thread(client, "c")
        ctx.register_thread(server, "s")
        ctx.run()
        assert done == ["10 ns"]


class TestEndpointManagement:
    def test_third_endpoint_rejected(self, ctx, top):
        chan = ShipChannel("c", top)
        chan.claim_end("x")
        chan.claim_end("y")
        with pytest.raises(SimulationError, match="point-to-point"):
            chan.claim_end("z")

    def test_capacity_validation(self, ctx, top):
        with pytest.raises(SimulationError):
            ShipChannel("c", top, capacity=0)

    def test_statistics(self, ctx, top):
        chan = ShipChannel("c", top)
        a, b = two_enders(ctx, top, chan)

        def sender():
            yield from chan.send(a, ShipInt(1))
            yield from chan.send(a, ShipInt(2))

        def receiver():
            yield from chan.recv(b)
            yield from chan.recv(b)

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        assert chan.messages_sent(ShipEnd.A) == 2
        assert chan.bytes_sent(ShipEnd.A) == 2 * 14
        assert chan.messages_sent(ShipEnd.B) == 0


class TestRecording:
    """What a channel reports to the context's observer."""

    @staticmethod
    def _logged_channel(ctx, top, **options):
        log = TransferLog()
        ctx.attach_observer(log)
        chan = ShipChannel("c", top, **options)
        return log, chan, *two_enders(ctx, top, chan)

    def test_recorder_captures_transfers(self, ctx, top):
        log, chan, a, b = self._logged_channel(
            ctx, top, timing=ShipTiming(base_latency=ns(5)))

        def sender():
            yield from chan.send(a, ShipInt(1))

        def receiver():
            yield from chan.recv(b)

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        assert log.transfers == [("top.c", "send", "tester_a", "tester_b",
                                  0, ns(5).femtoseconds, 14, None)]

    def test_recorded_latency_includes_transfer_time(self, ctx, top):
        """A reported transfer begins when ``send`` is called, so its
        latency is the wire time, as a bus CAM stamps at submit."""
        log, chan, a, b = self._logged_channel(
            ctx, top, timing=ShipTiming(base_latency=ns(10)))

        def sender():
            yield from chan.send(a, ShipInt(1))

        def receiver():
            yield from chan.recv(b)

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        ((*_, begin_fs, end_fs, _, _),) = log.transfers
        assert (begin_fs, end_fs) == (0, ns(10).femtoseconds)

    def test_reply_is_reported_from_call_to_delivery(self, ctx, top):
        """A round trip reports both legs: the request when it is
        received, the reply from the replying end to the requester's
        when it is delivered."""
        log, chan, a, b = self._logged_channel(
            ctx, top, timing=ShipTiming(base_latency=ns(10)))

        def client():
            yield from chan.request(a, ShipInt(1))

        def server():
            msg = yield from chan.recv(b)
            yield from chan.reply(b, ShipInt(msg.value + 1))

        ctx.register_thread(client, "client")
        ctx.register_thread(server, "server")
        ctx.run()
        ten, twenty = ns(10).femtoseconds, ns(20).femtoseconds
        assert log.transfers == [
            ("top.c", "request", "tester_a", "tester_b", 0, ten, 14, None),
            ("top.c", "reply", "tester_b", "tester_a", ten, twenty, 14,
             None),
        ]

    def test_dropped_reply_is_not_reported(self, ctx, top):
        log, chan, a, b = self._logged_channel(
            ctx, top, timing=ShipTiming(base_latency=ns(10)))

        def client():
            with pytest.raises(SimTimeoutError):
                yield from with_timeout(ctx, chan.request(a, ShipInt(1)),
                                        ns(15))

        def server():
            msg = yield from chan.recv(b)
            yield from chan.reply(b, ShipInt(msg.value + 1))

        ctx.register_thread(client, "client")
        ctx.register_thread(server, "server")
        ctx.run()
        assert chan.replies_dropped == 1
        assert [transfer[1] for transfer in log.transfers] == ["request"]


class TestCodecPasses:
    """Each transfer runs the codec once each way, through the names
    ``repro.ship.channel`` imports (where perfbench's tracer counts)."""

    @pytest.fixture
    def passes(self, monkeypatch):
        import repro.ship.channel as channel_module

        counts = {"encode": 0, "decode": 0}

        def counting_encode(obj):
            counts["encode"] += 1
            return encode_message(obj)

        def counting_decode(data):
            counts["decode"] += 1
            return decode_message(data)

        monkeypatch.setattr(channel_module, "encode_message",
                            counting_encode)
        monkeypatch.setattr(channel_module, "decode_message",
                            counting_decode)
        return counts

    def test_send_recv_encodes_once_and_decodes_once(self, ctx, top,
                                                     passes):
        chan = ShipChannel("c", top)
        a, b = two_enders(ctx, top, chan)
        got = []

        def sender():
            yield from chan.send(a, ShipInt(1))

        def receiver():
            got.append((yield from chan.recv(b)))

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        assert got == [ShipInt(1)]
        assert passes == {"encode": 1, "decode": 1}

    def test_request_reply_encodes_once_and_decodes_once_per_transfer(
            self, ctx, top, passes):
        chan = ShipChannel("c", top)
        a, b = two_enders(ctx, top, chan)
        got = []
        after_request = []

        def client():
            got.append((yield from chan.request(a, ShipInt(5))))

        def server():
            req = yield from chan.recv(b)
            after_request.append(dict(passes))
            yield from chan.reply(b, ShipInt(req.value * 3))

        ctx.register_thread(client, "c")
        ctx.register_thread(server, "s")
        ctx.run()
        assert got == [ShipInt(15)]
        assert after_request == [{"encode": 1, "decode": 1}]
        assert passes == {"encode": 2, "decode": 2}
        assert chan.bytes_sent(b) == 14


class _FlipBit:
    """Link fault stub: flips one bit of every serialized frame."""

    def __init__(self, index, bit):
        self.index = index
        self.bit = bit

    def on_message(self, channel, end, kind, data, nbytes):
        corrupted = bytearray(data)
        corrupted[self.index] ^= 1 << self.bit
        return True, bytes(corrupted), 0


def test_corrupted_string_fails_with_the_codec_error(ctx, top):
    """Bit 7 of the first payload byte turns ``"abc"`` into invalid
    UTF-8: the receiver raises SerializationError, not a UnicodeError."""
    from repro.ship import SerializationError

    chan = ShipChannel("c", top)
    a, b = two_enders(ctx, top, chan)
    chan.fault_injector = _FlipBit(FRAME_HEADER_BYTES, 7)

    def sender():
        yield from chan.send(a, ShipString("abc"))

    def receiver():
        yield from chan.recv(b)

    ctx.register_thread(sender, "s")
    ctx.register_thread(receiver, "r")
    with pytest.raises(SerializationError, match="ShipString.*UTF-8"):
        ctx.run()


# ---------------------------------------------------------------------------
# The channel against its reference
# ---------------------------------------------------------------------------


def test_checkpoint_payload_restores_across_implementations():
    """Queued frames snapshot to the reference's payload, and a payload
    written by the reference restores into the channel."""
    def queued(channel_cls):
        ctx = SimContext()
        top = Module("top", ctx=ctx)
        chan = channel_cls("c", top, capacity=4,
                           timing=ShipTiming(base_latency=ns(2)))
        a, b = two_enders(ctx, top, chan)

        def sender(end, values):
            for value in values:
                yield from chan.send(end, ShipInt(value))

        ctx.register_thread(lambda: sender(a, (1, 2, 3)), "sa")
        ctx.register_thread(lambda: sender(b, (7,)), "sb")
        ctx.run()
        return chan

    reference = queued(ReferenceShipChannel).__snapshot__()
    assert queued(ShipChannel).__snapshot__() == reference
    assert [record["sent_at_fs"] for record in reference["queues"]["a"]] \
        == [0, ns(2)._fs, ns(4)._fs]

    ctx = SimContext()
    top = Module("top", ctx=ctx)
    chan = ShipChannel("c", top, capacity=4)
    a, b = two_enders(ctx, top, chan)
    chan.__restore__(reference)
    got = []

    def receiver(end, count):
        for _ in range(count):
            got.append((end.value, (yield from chan.recv(end)).value))

    ctx.register_thread(lambda: receiver(b, 3), "rb")
    ctx.register_thread(lambda: receiver(a, 1), "ra")
    ctx.run()
    assert got == [("b", 1), ("b", 2), ("b", 3), ("a", 7)]
    assert chan.messages_sent(ShipEnd.A) == 3
    assert chan.bytes_sent(ShipEnd.B) == 14


_client_ops = st.lists(st.one_of(
    st.tuples(st.just("send"), st.integers(0, 999)),
    # request deadline in ns; None waits for the reply
    st.tuples(st.just("request"), st.integers(0, 999),
              st.sampled_from([None, 1, 4, 12, 40])),
    st.tuples(st.just("compute"), st.integers(1, 20)),
), max_size=6)

_schedules = st.fixed_dictionaries({
    "capacity": st.integers(1, 4),
    "timed": st.booleans(),
    "zero_copy": st.booleans(),
    "faults": st.booleans(),
    "clients": st.lists(st.tuples(st.sampled_from(list(ShipEnd)),
                                  _client_ops), min_size=1, max_size=4),
    # per end, 1-2 servers: (compute delay before a reply, reply
    # deadline in ns or None); two servers keep two requests owed
    "servers": st.tuples(*[st.lists(
        st.tuples(st.integers(0, 15), st.sampled_from([None, 2, 6])),
        min_size=1, max_size=2)] * 2),
})


def _observe(channel_cls, schedule):
    """Run one schedule; everything the channel lets a user observe."""
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    reports = TransferLog()
    ctx.attach_observer(reports)
    timing = (ShipTiming(base_latency=ns(3), per_byte=ps(100))
              if schedule["timed"] else None)
    chan = channel_cls("c", top, capacity=schedule["capacity"],
                       zero_copy=schedule["zero_copy"], timing=timing)
    plan = None
    if schedule["faults"]:
        plan = FaultPlan(seed=7)
        chan.fault_injector = LinkFaultInjector(
            plan, drop=FaultRule(probability=0.1),
            corrupt=FaultRule(probability=0.2),
            delay=FaultRule(probability=0.2), extra_latency=ns(5))
    ends = {ShipEnd.A: chan.claim_end("pe_a"),
            ShipEnd.B: chan.claim_end("pe_b")}
    log = []
    replies_sent = []

    def note(*what):
        log.append((ctx.now, *what))

    def client(name, end, ops):
        for op in ops:
            if op[0] == "send":
                yield from chan.send(end, ShipInt(op[1]))
                note(name, "sent", op[1])
            elif op[0] == "request":
                call = chan.request(end, ShipInt(op[1]))
                if op[2] is not None:
                    call = with_timeout(ctx, call, ns(op[2]))
                try:
                    reply = yield from call
                except SimTimeoutError:
                    note(name, "gave up", op[1])
                else:
                    # serialized replies are copies, zero-copy ones not
                    note(name, "reply", reply.value,
                         any(reply is sent for sent in replies_sent))
            else:
                yield ns(op[1])

    def server(name, end, delay, deadline):
        while True:
            msg = yield from chan.recv(end)
            note(name, "got", msg.value)
            if not chan.pending_requests(end):
                continue
            if delay:
                yield ns(delay)
            # the other server of this end may have answered meanwhile
            # (a reply answers the oldest request owed at its end)
            while chan.pending_requests(end):
                reply = ShipInt(msg.value + 1000)
                replies_sent.append(reply)
                call = chan.reply(end, reply)
                if deadline is not None:
                    # a cut reply stays owed; the retry waits it out
                    call, deadline = with_timeout(ctx, call, ns(deadline)), None
                try:
                    yield from call
                except SimTimeoutError:
                    note(name, "reply cut")
                else:
                    note(name, "replied")
                    break

    for i, (end, ops) in enumerate(schedule["clients"]):
        ctx.register_thread(lambda e=ends[end], o=ops, n=f"c{i}":
                            client(n, e, o), f"c{i}")
    for end, servers in zip(ShipEnd, schedule["servers"]):
        for j, (delay, deadline) in enumerate(servers):
            name = f"s{end.value}{j}"
            ctx.register_thread(
                lambda n=name, e=ends[end], d=delay, t=deadline:
                server(n, e, d, t), name)
    ctx.run()
    try:
        snapshot = chan.__snapshot__()
    except SnapshotError as exc:
        snapshot = str(exc)
    return {
        "log": log,
        # the reference keeps its own list; the channel reports
        "transfers": (chan.transfers if channel_cls is ReferenceShipChannel
                      else reports.transfers),
        "ends": [(chan.bytes_sent(end), chan.messages_sent(end),
                  chan.pending_requests(end), chan.detected_role(end))
                 for end in ShipEnd],
        "roles_consistent": chan.roles_consistent(),
        "replies_dropped": chan.replies_dropped,
        "faults": None if plan is None else [
            (r.now_fs, r.kind, r.detail) for r in plan.log],
        "snapshot": snapshot,
        "end_fs": ctx.now._fs,
    }


@settings(max_examples=150, deadline=None)
@given(schedule=_schedules)
def test_channel_matches_reference_on_random_schedules(schedule):
    got = _observe(ShipChannel, schedule)
    replies = [t for t in got["transfers"] if t[1] == "reply"]
    got["transfers"] = [t for t in got["transfers"] if t[1] != "reply"]
    assert got == _observe(ReferenceShipChannel, schedule)
    # Each delivered reply is one report, to the requester's end, ending
    # when its requester resumes with the reply; it began one wire time
    # earlier, at the reply call.  A dropped reply reports nothing.
    owner = {f"c{i}": f"pe_{end.value}"
             for i, (end, _) in enumerate(schedule["clients"])}
    delivered = sorted((when.femtoseconds, owner[name])
                       for when, name, what, *_ in got["log"]
                       if what == "reply")
    assert sorted((end_fs, target)
                  for _, _, _, target, _, end_fs, _, _ in replies) \
        == delivered
    wire_fs = ((ns(3) + ps(100) * 14).femtoseconds if schedule["timed"]
               else 0)
    for track, _, initiator, target, begin_fs, end_fs, nbytes, burst \
            in replies:
        assert (track, nbytes, burst) == ("top.c", 14, None)
        assert {initiator, target} == {"pe_a", "pe_b"}
        assert end_fs - begin_fs == wire_fs
