"""Unit tests for signals: delta update semantics, edges, drivers."""

import pytest

from repro.kernel import (
    Module,
    Port,
    Signal,
    SimulationError,
    ns,
)


class TestUpdateSemantics:
    def test_write_visible_after_update_phase(self, ctx, top):
        sig = Signal("s", top, init=0, check_writer=False)
        observed = []

        def writer():
            yield ns(1)
            sig.write(7)
            observed.append(sig.read())  # still old in same delta
            yield sig.value_changed_event
            observed.append(sig.read())

        ctx.register_thread(writer, "w")
        ctx.run()
        assert observed == [0, 7]

    def test_write_same_value_no_event(self, ctx, top):
        sig = Signal("s", top, init=5, check_writer=False)
        wakes = []

        def listener():
            while True:
                yield sig.value_changed_event
                wakes.append(sig.read())

        def writer():
            yield ns(1)
            sig.write(5)  # no change: no event
            yield ns(1)
            sig.write(6)

        ctx.register_thread(listener, "l")
        ctx.register_thread(writer, "w")
        ctx.run()
        assert wakes == [6]

    def test_last_write_in_delta_wins(self, ctx, top):
        sig = Signal("s", top, init=0, check_writer=False)

        def writer():
            yield ns(1)
            sig.write(1)
            sig.write(2)
            sig.write(3)

        ctx.register_thread(writer, "w")
        ctx.run()
        assert sig.read() == 3

    def test_event_property_true_in_change_delta(self, ctx, top):
        sig = Signal("s", top, init=False, check_writer=False)
        snap = []

        def listener():
            yield sig.value_changed_event
            snap.append(sig.event)

        def writer():
            yield ns(1)
            sig.write(True)

        ctx.register_thread(listener, "l")
        ctx.register_thread(writer, "w")
        ctx.run()
        assert snap == [True]


class TestEdges:
    def test_posedge_and_negedge_events(self, ctx, top):
        sig = Signal("s", top, init=False, check_writer=False)
        log = []

        def pos():
            while True:
                yield sig.posedge_event
                log.append(("pos", str(ctx.now)))

        def neg():
            while True:
                yield sig.negedge_event
                log.append(("neg", str(ctx.now)))

        def driver():
            yield ns(1)
            sig.write(True)
            yield ns(1)
            sig.write(False)

        for i, fn in enumerate((pos, neg, driver)):
            ctx.register_thread(fn, f"t{i}")
        ctx.run()
        assert log == [("pos", "1 ns"), ("neg", "2 ns")]

    def test_posedge_on_truthy_int_transition(self, ctx, top):
        sig = Signal("s", top, init=0, check_writer=False)
        log = []

        def pos():
            yield sig.posedge_event
            log.append(sig.read())

        def driver():
            yield ns(1)
            sig.write(3)

        ctx.register_thread(pos, "p")
        ctx.register_thread(driver, "d")
        ctx.run()
        assert log == [3]


class TestDriverCheck:
    def test_two_writers_rejected(self, ctx, top):
        sig = Signal("s", top, init=0)

        def w1():
            yield ns(1)
            sig.write(1)

        def w2():
            yield ns(2)
            sig.write(2)

        ctx.register_thread(w1, "w1")
        ctx.register_thread(w2, "w2")
        with pytest.raises(SimulationError, match="driven by both"):
            ctx.run()

    def test_check_disabled_allows_sharing(self, ctx, top):
        sig = Signal("s", top, init=0, check_writer=False)

        def w1():
            yield ns(1)
            sig.write(1)

        def w2():
            yield ns(2)
            sig.write(2)

        ctx.register_thread(w1, "w1")
        ctx.register_thread(w2, "w2")
        ctx.run()
        assert sig.read() == 2


class TestObservers:
    def test_observer_sees_old_and_new(self, ctx, top):
        sig = Signal("s", top, init=0, check_writer=False)
        changes = []
        sig.on_change(lambda s, old, new: changes.append((old, new)))

        def writer():
            yield ns(1)
            sig.write(4)
            yield ns(1)
            sig.write(9)

        ctx.register_thread(writer, "w")
        ctx.run()
        assert changes == [(0, 4), (4, 9)]


class TestSignalPorts:
    def test_method_sensitive_to_bound_port(self, ctx, top):
        sig = Signal("s", top, init=0)

        class Consumer(Module):
            def __init__(self, name, parent):
                super().__init__(name, parent)
                self.inp = Port("inp", self, iface_type=Signal)
                self.seen = []
                self.add_method(self.on_change, sensitive=[self.inp],
                                dont_initialize=True)

            def on_change(self):
                self.seen.append(self.inp.channel.read())

        def producer():
            yield ns(1)
            sig.write(11)

        c = Consumer("c", top)
        c.inp.bind(sig)
        ctx.register_thread(producer, "p")
        ctx.run()
        assert c.seen == [11]
