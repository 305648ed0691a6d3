"""Unit tests for the RTOS-hosted channel access helper
(``SwChannelPort``)."""

import inspect

import pytest

from repro.kernel import ns, us
from repro.esw import SwChannelPort
from repro.hwsw import SwShipMaster, SwShipSlave
from repro.rtos import Rtos
from repro.ship import (
    ALL_CALLS,
    Role,
    ShipChannel,
    ShipInt,
    ShipMasterPort,
    ShipPort,
    ShipSlavePort,
)


@pytest.fixture
def os(ctx, top):
    # zero context-switch cost so the tests assert pure channel timing
    return Rtos("os", top)


class TestSwChannelPort:
    def test_sw_task_talks_to_hw_pe(self, ctx, top, os):
        chan = ShipChannel("c", top)
        sw = SwChannelPort(os, chan)
        hw = ShipPort("hw", top)
        hw.bind(chan)
        got = []

        def sw_task():
            reply = yield from sw.request(ShipInt(4))
            got.append(reply.value)
            yield from sw.send(ShipInt(99))

        def hw_pe():
            req = yield from hw.recv()
            yield ns(50)
            yield from hw.reply(ShipInt(req.value * 2))
            tail = yield from hw.recv()
            got.append(tail.value)

        os.create_task(sw_task, "t", priority=5)
        ctx.register_thread(hw_pe, "hw")
        ctx.run(us(1000))
        assert got == [8, 99]

    def test_two_sw_tasks_share_a_channel(self, ctx, top, os):
        chan = ShipChannel("c", top)
        port_a = SwChannelPort(os, chan)
        port_b = SwChannelPort(os, chan)
        got = []

        def client():
            reply = yield from port_a.request(ShipInt(10))
            got.append(reply.value)

        def server():
            req = yield from port_b.recv()
            yield from port_b.reply(ShipInt(req.value + 1))

        os.create_task(client, "client", priority=5)
        os.create_task(server, "server", priority=6)
        ctx.run(us(1000))
        assert got == [11]

    def test_channel_blocking_releases_cpu(self, ctx, top, os):
        """While a SW task waits on a channel, lower-priority tasks run."""
        chan = ShipChannel("c", top)
        sw = SwChannelPort(os, chan)
        hw = ShipPort("hw", top)
        hw.bind(chan)
        progress = []

        def waiting_task():
            msg = yield from sw.recv()
            progress.append(("recv", msg.value, str(ctx.now)))

        def background():
            yield from os.execute(us(2))
            progress.append(("bg", str(ctx.now)))

        def hw_pe():
            yield us(5)
            yield from hw.send(ShipInt(1))

        os.create_task(waiting_task, "waiter", priority=1)
        os.create_task(background, "bg", priority=20)
        ctx.register_thread(hw_pe, "hw")
        ctx.run(us(1000))
        # low-priority work completed during the high-priority wait
        assert ("bg", "2 us") in progress
        assert ("recv", 1, "5 us") in progress

    def test_role_detection_through_sw_port(self, ctx, top, os):
        chan = ShipChannel("c", top)
        sw = SwChannelPort(os, chan)
        hw = ShipPort("hw", top)
        hw.bind(chan)

        def sw_task():
            yield from sw.send(ShipInt(1))

        def hw_pe():
            yield from hw.recv()

        os.create_task(sw_task, "t", priority=5)
        ctx.register_thread(hw_pe, "hw")
        ctx.run(us(1000))
        assert sw.detected_role is Role.MASTER
        assert hw.detected_role is Role.SLAVE


def _parameters(method):
    return [(p.name, p.kind, p.default)
            for p in inspect.signature(method).parameters.values()]


def test_every_ship_endpoint_offers_the_four_calls_with_one_signature():
    """eSW generation moves PE code onto a SW communication library
    unchanged, so every SHIP endpoint takes the same parameters for
    each of the paper's four calls it offers."""
    reference = {call: _parameters(getattr(ShipPort, call))
                 for call in ALL_CALLS}
    offered = set()
    for endpoint in (ShipPort, ShipMasterPort, ShipSlavePort,
                     SwChannelPort, SwShipMaster, SwShipSlave):
        for call in sorted(ALL_CALLS):
            method = getattr(endpoint, call, None)
            if method is None:
                continue
            offered.add((endpoint, call))
            assert _parameters(method) == reference[call], \
                (endpoint.__name__, call)
    assert {call for cls, call in offered if cls is SwShipMaster} \
        == {"send", "request"}
    assert {call for cls, call in offered if cls is SwShipSlave} \
        == {"recv", "reply"}
