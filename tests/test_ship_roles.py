"""Unit tests for SHIP ports and automatic master/slave detection."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel import ProcessError
from repro.ship import (
    ALL_CALLS,
    MASTER_CALLS,
    SLAVE_CALLS,
    Role,
    ShipChannel,
    ShipInt,
    ShipMasterPort,
    ShipPort,
    ShipSlavePort,
    classify,
    roles_consistent,
)


class TestClassify:
    @pytest.mark.parametrize("calls,expected", [
        (set(), Role.UNKNOWN),
        ({"send"}, Role.MASTER),
        ({"request"}, Role.MASTER),
        ({"send", "request"}, Role.MASTER),
        ({"recv"}, Role.SLAVE),
        ({"reply"}, Role.SLAVE),
        ({"recv", "reply"}, Role.SLAVE),
        ({"send", "recv"}, Role.MIXED),
        ({"request", "reply"}, Role.MIXED),
        (ALL_CALLS, Role.MIXED),
    ])
    def test_classification_table(self, calls, expected):
        assert classify(calls) is expected

    def test_unknown_call_rejected(self):
        with pytest.raises(ValueError):
            classify({"send", "push"})

    @given(st.sets(st.sampled_from(sorted(ALL_CALLS))))
    def test_classification_properties(self, calls):
        role = classify(calls)
        has_master = bool(calls & MASTER_CALLS)
        has_slave = bool(calls & SLAVE_CALLS)
        if has_master and has_slave:
            assert role is Role.MIXED
        elif has_master:
            assert role is Role.MASTER
        elif has_slave:
            assert role is Role.SLAVE
        else:
            assert role is Role.UNKNOWN


class TestRoleConsistency:
    @pytest.mark.parametrize("a,b,ok", [
        (Role.MASTER, Role.SLAVE, True),
        (Role.SLAVE, Role.MASTER, True),
        (Role.MASTER, Role.MASTER, False),
        (Role.SLAVE, Role.SLAVE, False),
        (Role.MIXED, Role.SLAVE, False),
        (Role.MASTER, Role.MIXED, False),
        (Role.UNKNOWN, Role.MASTER, True),
        (Role.UNKNOWN, Role.UNKNOWN, True),
    ])
    def test_consistency_table(self, a, b, ok):
        assert roles_consistent(a, b) is ok

    def test_is_determined(self):
        assert Role.MASTER.is_determined
        assert Role.SLAVE.is_determined
        assert not Role.UNKNOWN.is_determined
        assert not Role.MIXED.is_determined


class TestAutomaticDetection:
    def _run_pair(self, ctx, top, master_body, slave_body):
        chan = ShipChannel("c", top)
        mp = ShipPort("mp", top)
        sp = ShipPort("sp", top)
        mp.bind(chan)
        sp.bind(chan)
        ctx.register_thread(lambda: master_body(mp), "m")
        ctx.register_thread(lambda: slave_body(sp), "s")
        ctx.run()
        return chan, mp, sp

    def test_send_recv_detected(self, ctx, top):
        def master(p):
            yield from p.send(ShipInt(1))

        def slave(p):
            yield from p.recv()

        chan, mp, sp = self._run_pair(ctx, top, master, slave)
        assert mp.detected_role is Role.MASTER
        assert sp.detected_role is Role.SLAVE
        assert chan.roles_consistent()

    def test_request_reply_detected(self, ctx, top):
        def master(p):
            yield from p.request(ShipInt(1))

        def slave(p):
            yield from p.recv()
            yield from p.reply(ShipInt(2))

        chan, mp, sp = self._run_pair(ctx, top, master, slave)
        assert mp.detected_role is Role.MASTER
        assert sp.detected_role is Role.SLAVE

    def test_mixed_usage_detected_as_violation(self, ctx, top):
        chan = ShipChannel("c", top)
        a = chan.claim_end("a")
        b = chan.claim_end("b")

        def confused():
            yield from chan.send(a, ShipInt(1))
            yield from chan.recv(a)

        def peer():
            yield from chan.recv(b)
            yield from chan.send(b, ShipInt(2))

        ctx.register_thread(confused, "c")
        ctx.register_thread(peer, "p")
        ctx.run()
        assert chan.detected_role(a) is Role.MIXED
        assert not chan.roles_consistent()

    def test_unused_channel_is_unknown(self, ctx, top):
        chan = ShipChannel("c", top)
        assert chan.detected_roles() == {
            e: Role.UNKNOWN for e in chan.detected_roles()
        }
        assert chan.roles_consistent()


class TestRestrictedPorts:
    def test_master_port_blocks_slave_calls(self, ctx, top):
        chan = ShipChannel("c", top)
        port = ShipMasterPort("p", top)
        port.bind(chan)

        def body():
            yield from port.recv()

        ctx.register_thread(body, "t")
        with pytest.raises(ProcessError, match="does not permit"):
            ctx.run()

    def test_slave_port_blocks_master_calls(self, ctx, top):
        chan = ShipChannel("c", top)
        port = ShipSlavePort("p", top)
        port.bind(chan)

        def body():
            yield from port.send(ShipInt(1))

        ctx.register_thread(body, "t")
        with pytest.raises(ProcessError, match="does not permit"):
            ctx.run()

    def test_ports_claim_distinct_ends(self, ctx, top):
        chan = ShipChannel("c", top)
        p1 = ShipPort("p1", top)
        p2 = ShipPort("p2", top)
        p1.bind(chan)
        p2.bind(chan)
        ctx.elaborate()
        assert p1.end is not p2.end
