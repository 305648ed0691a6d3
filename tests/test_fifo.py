"""Unit tests for the bounded FIFO channel (sc_fifo semantics)."""

import pytest

from repro.kernel import (
    Fifo,
    SimTimeoutError,
    SimulationError,
    ns,
    with_timeout,
)


class TestNonBlocking:
    def test_write_visible_next_delta(self, ctx, top):
        fifo = Fifo("f", top, capacity=4)
        snapshots = []

        def body():
            assert fifo.nb_write(1)
            snapshots.append(fifo.num_available())  # not yet visible
            yield fifo.data_written_event
            snapshots.append(fifo.num_available())

        ctx.register_thread(body, "t")
        ctx.run()
        assert snapshots == [0, 1]

    def test_nb_write_fails_when_full(self, ctx, top):
        fifo = Fifo("f", top, capacity=2)
        assert fifo.nb_write(1)
        assert fifo.nb_write(2)
        assert not fifo.nb_write(3)

    def test_nb_read_empty_returns_false(self, ctx, top):
        fifo = Fifo("f", top)
        ok, item = fifo.nb_read()
        assert not ok and item is None

    def test_capacity_validation(self, ctx, top):
        with pytest.raises(SimulationError):
            Fifo("bad", top, capacity=0)


class TestBlocking:
    def test_producer_consumer_order_preserved(self, ctx, top):
        fifo = Fifo("f", top, capacity=2)
        got = []

        def producer():
            for i in range(6):
                yield from fifo.write(i)

        def consumer():
            for _ in range(6):
                item = yield from fifo.read()
                got.append(item)

        ctx.register_thread(producer, "p")
        ctx.register_thread(consumer, "c")
        ctx.run()
        assert got == list(range(6))

    def test_write_blocks_until_space(self, ctx, top):
        fifo = Fifo("f", top, capacity=1)
        timeline = []

        def producer():
            yield from fifo.write("a")
            timeline.append(("wrote a", str(ctx.now)))
            yield from fifo.write("b")  # blocks until read at 10ns
            timeline.append(("wrote b", str(ctx.now)))

        def consumer():
            yield ns(10)
            item = yield from fifo.read()
            timeline.append((f"read {item}", str(ctx.now)))

        ctx.register_thread(producer, "p")
        ctx.register_thread(consumer, "c")
        ctx.run()
        assert ("wrote a", "0 s") in timeline
        assert ("wrote b", "10 ns") in timeline

    def test_read_blocks_until_data(self, ctx, top):
        fifo = Fifo("f", top)
        got = []

        def consumer():
            item = yield from fifo.read()
            got.append((item, str(ctx.now)))

        def producer():
            yield ns(30)
            yield from fifo.write("x")

        ctx.register_thread(consumer, "c")
        ctx.register_thread(producer, "p")
        ctx.run()
        assert got == [("x", "30 ns")]

    def test_counters_track_totals(self, ctx, top):
        fifo = Fifo("f", top, capacity=8)

        def producer():
            for i in range(5):
                yield from fifo.write(i)

        def consumer():
            for _ in range(3):
                yield from fifo.read()

        ctx.register_thread(producer, "p")
        ctx.register_thread(consumer, "c")
        ctx.run()
        assert fifo.total_written == 5
        assert fifo.total_read == 3
        assert len(fifo) == 2


class TestDeterministicVisibility:
    def test_reader_in_same_delta_sees_empty(self, ctx, top):
        """sc_fifo rule: a write only becomes readable next delta, so a
        same-delta reader polls empty regardless of process order."""
        fifo = Fifo("f", top)
        result = []

        def reader():
            yield ns(1)
            result.append(fifo.nb_read()[0])

        def writer():
            yield ns(1)
            fifo.nb_write(1)

        # register reader first so it runs after writer is also possible;
        # both orders must give the same outcome
        ctx.register_thread(writer, "w")
        ctx.register_thread(reader, "r")
        ctx.run()
        assert result == [False]


class TestTimeouts:
    def test_read_timeout_expires_on_empty_fifo(self, ctx, top):
        fifo = Fifo("f", top)
        out = []

        def reader():
            try:
                yield from with_timeout(ctx, fifo.read(), ns(100),
                                        what="fifo read")
            except SimTimeoutError as exc:
                out.append((str(exc), ctx.now))

        ctx.register_thread(reader, "r")
        ctx.run()
        assert len(out) == 1
        assert "read timed out" in out[0][0]
        assert out[0][1] == ns(100)

    def test_read_completes_before_timeout(self, ctx, top):
        fifo = Fifo("f", top)
        out = []

        def reader():
            item = yield from with_timeout(ctx, fifo.read(), ns(100))
            out.append((item, ctx.now))

        def writer():
            yield ns(30)
            yield from fifo.write(7)

        ctx.register_thread(reader, "r")
        ctx.register_thread(writer, "w")
        ctx.run()
        assert out[0][0] == 7
        assert out[0][1] < ns(100)

    def test_write_timeout_expires_on_full_fifo(self, ctx, top):
        fifo = Fifo("f", top, capacity=1)
        out = []

        def writer():
            yield from fifo.write(1)
            try:
                yield from with_timeout(ctx, fifo.write(2), ns(50))
            except SimTimeoutError:
                out.append(ctx.now)

        ctx.register_thread(writer, "w")
        ctx.run()
        assert out == [ns(50)]

    def test_write_completes_when_space_frees_in_time(self, ctx, top):
        fifo = Fifo("f", top, capacity=1)
        order = []

        def writer():
            yield from fifo.write(1)
            yield from with_timeout(ctx, fifo.write(2), ns(100))
            order.append(("wrote", ctx.now))

        def reader():
            yield ns(20)
            item = yield from fifo.read()
            order.append(("read", item))

        ctx.register_thread(writer, "w")
        ctx.register_thread(reader, "r")
        ctx.run()
        assert ("read", 1) in order
        wrote = [t for kind, t in order if kind == "wrote"]
        assert wrote and wrote[0] < ns(100)
