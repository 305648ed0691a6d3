"""The SW communication library is the SHIP code itself: a SW PE is an
ordinary PE, re-hosted as an RTOS task by eSW generation, whose SHIP
port binds a :class:`~repro.ship.channel.ShipChannel` or a mapped link's
:class:`~repro.hwsw.commlib.SwShipEnd`."""

import inspect

import pytest

from repro.esw import PartitionSpec, generate_esw
from repro.hwsw import SwShipEnd
from repro.kernel import BindingError, Fifo, ns, us
from repro.models import ProcessingElement
from repro.rtos import Rtos
from repro.ship import (
    ALL_CALLS,
    Role,
    ShipChannel,
    ShipInt,
    ShipInterface,
    ShipMasterPort,
    ShipPort,
    ShipSlavePort,
)


@pytest.fixture
def os(ctx, top):
    # zero context-switch cost so the tests assert pure channel timing
    return Rtos("os", top)


class Script(ProcessingElement):
    """A SHIP PE whose behaviour is ``body(port)``."""

    def __init__(self, name, parent, chan, body):
        super().__init__(name, parent)
        self.body = body
        self.port = self.ship_port("port")
        self.port.bind(chan)
        self.add_thread(self.run)

    def run(self):
        yield from self.body(self.port)


def rehost(os, *pes):
    """Re-host ``pes`` as tasks of ``os``, at priorities 5, 6, ..."""
    return generate_esw(PartitionSpec(
        software=list(pes),
        priorities={pe.name: 5 + i for i, pe in enumerate(pes)},
    ), os)


class TestSwPeOnChannel:
    def test_sw_task_talks_to_hw_pe(self, ctx, top, os):
        chan = ShipChannel("c", top)
        got = []

        def sw_body(port):
            reply = yield from port.request(ShipInt(4))
            got.append(reply.value)
            yield from port.send(ShipInt(99))

        def hw_body(port):
            req = yield from port.recv()
            yield ns(50)
            yield from port.reply(ShipInt(req.value * 2))
            tail = yield from port.recv()
            got.append(tail.value)

        sw = Script("sw", top, chan, sw_body)
        Script("hw", top, chan, hw_body)
        rehost(os, sw)
        ctx.run(us(1000))
        assert got == [8, 99]

    def test_two_sw_tasks_share_a_channel(self, ctx, top, os):
        chan = ShipChannel("c", top)
        got = []

        def client(port):
            reply = yield from port.request(ShipInt(10))
            got.append(reply.value)

        def server(port):
            req = yield from port.recv()
            yield from port.reply(ShipInt(req.value + 1))

        image = rehost(os, Script("client", top, chan, client),
                       Script("server", top, chan, server))
        ctx.run(us(1000))
        assert got == [11]
        assert len(image.tasks) == 2

    def test_channel_blocking_releases_cpu(self, ctx, top, os):
        """While a SW PE waits on a channel, lower-priority tasks run."""
        chan = ShipChannel("c", top)
        progress = []

        def waiting(port):
            msg = yield from port.recv()
            progress.append(("recv", msg.value, str(ctx.now)))

        def background():
            yield from os.execute(us(2))
            progress.append(("bg", str(ctx.now)))

        def hw_body(port):
            yield us(5)
            yield from port.send(ShipInt(1))

        waiter = Script("waiter", top, chan, waiting)
        Script("hw", top, chan, hw_body)
        rehost(os, waiter)
        os.create_task(background, "bg", priority=20)
        ctx.run(us(1000))
        # low-priority work completed during the high-priority wait
        assert ("bg", "2 us") in progress
        assert ("recv", 1, "5 us") in progress

    def test_role_detection_through_sw_port(self, ctx, top, os):
        chan = ShipChannel("c", top)

        def sw_body(port):
            yield from port.send(ShipInt(1))

        def hw_body(port):
            yield from port.recv()

        sw = Script("sw", top, chan, sw_body)
        hw = Script("hw", top, chan, hw_body)
        rehost(os, sw)
        ctx.run(us(1000))
        assert sw.port.detected_role is Role.MASTER
        assert hw.port.detected_role is Role.SLAVE


#: the end every call of a SHIP interface takes first
END = inspect.Parameter("end", inspect.Parameter.POSITIONAL_OR_KEYWORD)


def _parameters(method):
    return [(p.name, p.kind, p.default)
            for p in inspect.signature(method).parameters.values()]


def test_every_ship_endpoint_offers_the_four_calls_with_one_signature():
    """eSW generation moves PE code onto an RTOS unchanged, so every
    SHIP port takes the same parameters for each of the paper's four
    calls, and both things a port binds take them after the end."""
    reference = {call: _parameters(getattr(ShipPort, call))
                 for call in ALL_CALLS}
    for port in (ShipMasterPort, ShipSlavePort):
        for call in ALL_CALLS:
            assert _parameters(getattr(port, call)) == reference[call], \
                (port.__name__, call)
    for bound in (ShipChannel, SwShipEnd):
        assert issubclass(bound, ShipInterface)
        for call in ALL_CALLS:
            params = _parameters(getattr(bound, call))
            assert params[1] == ("end", END.kind, END.default), \
                (bound.__name__, call)
            assert [params[0]] + params[2:] == reference[call], \
                (bound.__name__, call)


def test_ship_port_binds_only_a_ship_interface(ctx, top):
    port = ShipPort("p", top)
    port.bind(Fifo("f", top))
    with pytest.raises(BindingError, match="ShipInterface"):
        port.complete_binding()
