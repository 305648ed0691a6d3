"""Unit tests for the SHIP channel and its four interface method calls."""

import pytest

from repro.kernel import Module, SimContext, SimulationError, ns
from repro.ship import ShipChannel, ShipEnd, ShipInt, ShipString, ShipTiming
from repro.trace import TransactionRecorder


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
        recorder = TransactionRecorder()
        chan = ShipChannel(
            "c", top, zero_copy=zero_copy, recorder=recorder,
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
        nbytes = [record.nbytes for record in recorder.records]
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
    def test_recorder_captures_transfers(self, ctx, top):
        from repro.trace import TransactionRecorder

        rec = TransactionRecorder()
        chan = ShipChannel("c", top, recorder=rec,
                           timing=ShipTiming(base_latency=ns(5)))
        a, b = two_enders(ctx, top, chan)

        def sender():
            yield from chan.send(a, ShipInt(1))

        def receiver():
            yield from chan.recv(b)

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        assert rec.count == 1
        assert rec.records[0].kind == "send"
        assert rec.records[0].nbytes == 14

    def test_recorded_latency_includes_transfer_time(self, ctx, top):
        """A recorded transfer begins when ``send`` is called, so its
        latency is the wire time, as a bus CAM stamps at submit."""
        rec = TransactionRecorder()
        chan = ShipChannel("c", top, recorder=rec,
                           timing=ShipTiming(base_latency=ns(10)))
        a, b = two_enders(ctx, top, chan)

        def sender():
            yield from chan.send(a, ShipInt(1))

        def receiver():
            yield from chan.recv(b)

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()
        (record,) = rec.records
        assert (record.begin, record.end) == (ns(0), ns(10))
        assert record.latency == ns(10)
