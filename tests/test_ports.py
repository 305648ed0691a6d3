"""Unit tests for port/export binding."""

import pytest

from repro.kernel import BindingError, Fifo, Module, Port, Signal


class TestDirectBinding:
    def test_port_resolves_channel(self, ctx, top):
        fifo = Fifo("f", top)
        port = Port("p", top)
        port.bind(fifo)
        port.complete_binding()
        assert port.channel is fifo
        assert port.bound

    def test_double_bind_rejected(self, ctx, top):
        f1, f2 = Fifo("f1", top), Fifo("f2", top)
        port = Port("p", top)
        port.bind(f1)
        with pytest.raises(BindingError, match="already bound"):
            port.bind(f2)

    def test_unbound_required_port_fails_elaboration(self, ctx, top):
        Port("p", top)
        with pytest.raises(BindingError, match="unbound"):
            ctx.run()

    def test_optional_port_may_stay_unbound(self, ctx, top):
        port = Port("p", top, required=False)
        ctx.run()
        assert not port.bound
        with pytest.raises(BindingError):
            port.channel

    def test_interface_type_enforced(self, ctx, top):
        sig = Signal("s", top)
        port = Port("p", top, iface_type=Fifo)
        port.bind(sig)
        with pytest.raises(BindingError, match="requires interface"):
            port.complete_binding()


class TestHierarchicalBinding:
    def test_child_port_through_parent_port(self, ctx, top):
        fifo = Fifo("f", top)

        class Inner(Module):
            def __init__(self, name, parent):
                super().__init__(name, parent)
                self.p = Port("p", self)

        class Outer(Module):
            def __init__(self, name, parent):
                super().__init__(name, parent)
                self.p = Port("p", self)
                self.inner = Inner("inner", self)
                self.inner.p.bind(self.p)

        outer = Outer("outer", top)
        outer.p.bind(fifo)
        ctx.run()
        assert outer.inner.p.channel is fifo

    def test_binding_cycle_detected(self, ctx, top):
        p1 = Port("p1", top)
        p2 = Port("p2", top)
        p1.bind(p2)
        p2.bind(p1)
        with pytest.raises(BindingError, match="cycle"):
            p1.complete_binding()

    def test_chain_of_three_ports(self, ctx, top):
        fifo = Fifo("f", top)
        p1, p2, p3 = (Port(f"p{i}", top) for i in (1, 2, 3))
        p1.bind(p2)
        p2.bind(p3)
        p3.bind(fifo)
        ctx.run()
        assert p1.channel is fifo


class TestDefaultEvent:
    def test_port_forwards_default_event(self, ctx, top):
        fifo = Fifo("f", top)
        port = Port("p", top)
        port.bind(fifo)
        assert port.default_event() is fifo.data_written_event

    def test_channel_without_default_event_rejected(self, ctx, top):
        class Bare:
            pass

        port = Port("p", top)
        port.bind(Bare())
        with pytest.raises(BindingError, match="default event"):
            port.default_event()


class TestCrossContextSafety:
    def test_binding_channel_from_other_context_rejected(self, ctx, top):
        from repro.kernel import SimContext

        other = SimContext("other")
        other_top = Module("top", ctx=other)
        foreign_fifo = Fifo("f", other_top)
        port = Port("p", top)
        port.bind(foreign_fifo)
        with pytest.raises(BindingError, match="different simulation"):
            port.complete_binding()
