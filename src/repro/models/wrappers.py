"""Wrappers mapping SHIP channels onto communication architectures.

The paper's §3: *"By the use of wrappers, virtually any PE can be
connected to the CAM, independent of its communication interface."*
This module provides the SHIP side of that promise — a PE keeps talking
SHIP while its channel is transparently carried over a bus CAM:

* :class:`ShipBusMasterWrapper` sits at the SHIP master PE: it receives
  the PE's messages on a local SHIP channel and converts them into bus
  transactions against the slave's memory-mapped mailbox (writes for
  message chunks, reads or a sideband IRQ for replies).
* :class:`ShipBusSlaveWrapper` sits at the SHIP slave PE: it owns a
  :class:`~repro.models.mailbox.MailboxSlave` on the bus, reassembles
  chunks into SHIP messages and delivers them over a local SHIP channel.

Both only frame SHIP objects and talk to their channel; the mailbox
procedure itself is :class:`~repro.models.mailbox.MailboxBusSide` and
:class:`~repro.models.mailbox.MailboxOwnerSide`, which the wrappers run
as kernel processes.
:class:`~repro.flow.mapping.SystemMapper` assembles them into a link:
it maps the mailbox and gives each HW end its wrapper.  A SW end gets
no process: its :class:`~repro.hwsw.commlib.SwShipEnd` runs the same
side inside the calling task.

Pin-level PEs connect with :class:`~repro.ocp.pin.OcpPinSlave` pointed at
a bus socket (see :func:`connect_pin_master_to_bus`), and TL PEs bind an
:class:`~repro.ocp.tl.OcpMasterPort` directly to a bus socket — together
these three cover the wrapper matrix of experiment E8.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.kernel.clock import Clock
from repro.kernel.errors import SimulationError
from repro.kernel.module import Module
from repro.kernel.signal import Signal
from repro.kernel.simtime import SimTime
from repro.ocp.pin import OcpPinBundle, OcpPinSlave
from repro.ocp.tl import OcpTargetIf
from repro.models.mailbox import (
    CTRL_REQUEST,
    MailboxBusSide,
    MailboxLayout,
    MailboxOwnerSide,
    MailboxSlave,
)
from repro.ship.channel import ShipChannel, ShipEnd
from repro.ship.serializable import decode_message, encode_message


class ShipBusMasterWrapper(Module, MailboxBusSide):
    """Carries a SHIP master PE's traffic over a bus to a remote mailbox.

    Parameters
    ----------
    channel:
        The local SHIP channel shared with the master PE; the wrapper
        claims the free end and behaves as the local slave.
    socket:
        Bus attachment point (any blocking-transport target).
    mailbox_base:
        Bus address of the remote :class:`MailboxSlave` block.
    layout:
        Mailbox register layout (must match the remote mailbox).
    poll_interval:
        Delay between CTRL polls; None (the default) polls back to back,
        each poll costing one bus read.
    irq:
        Optional sideband interrupt signal from the remote mailbox;
        when given, replies wait on the IRQ instead of polling.
    """

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        channel: ShipChannel = None,
        socket: OcpTargetIf = None,
        mailbox_base: int = 0,
        layout: Optional[MailboxLayout] = None,
        poll_interval: Optional[SimTime] = None,
        irq: Optional[Signal] = None,
    ):
        super().__init__(name, parent, ctx)
        if channel is None or socket is None:
            raise SimulationError(
                f"wrapper {name!r} needs a SHIP channel and a bus socket"
            )
        MailboxBusSide.__init__(self, socket, mailbox_base,
                                layout or MailboxLayout(), irq,
                                poll_interval)
        self.channel = channel
        self.end: ShipEnd = channel.claim_end(self)
        self.messages_forwarded = 0
        self.replies_returned = 0
        self.add_thread(self._forward, "forward")

    def _forward(self) -> Generator:
        while True:
            obj = yield from self.channel.recv(self.end)
            is_request = self.channel.pending_requests(self.end) > 0
            yield from self.push_message(encode_message(obj), is_request)
            self.messages_forwarded += 1
            if is_request:
                reply_bytes, _ = yield from self.pull_message()
                reply_obj, _ = decode_message(reply_bytes)
                yield from self.channel.reply(self.end, reply_obj)
                self.replies_returned += 1


class ShipBusSlaveWrapper(Module, MailboxOwnerSide):
    """Delivers mailbox traffic to a SHIP slave PE over a local channel."""

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        channel: ShipChannel = None,
        mailbox: MailboxSlave = None,
    ):
        super().__init__(name, parent, ctx)
        if channel is None or mailbox is None:
            raise SimulationError(
                f"wrapper {name!r} needs a SHIP channel and a mailbox"
            )
        MailboxOwnerSide.__init__(self, mailbox)
        self.channel = channel
        self.end: ShipEnd = channel.claim_end(self)
        self.messages_delivered = 0
        self.replies_sent = 0
        self.add_thread(self._deliver, "deliver")

    def _deliver(self) -> Generator:
        while True:
            payload, ctrl = yield from self.pull_in_message()
            obj, _ = decode_message(payload)
            if ctrl & CTRL_REQUEST:
                reply = yield from self.channel.request(self.end, obj)
                self.messages_delivered += 1
                yield from self.push_out_message(encode_message(reply))
                self.replies_sent += 1
            else:
                yield from self.channel.send(self.end, obj)
                self.messages_delivered += 1


def connect_pin_master_to_bus(
    name: str,
    parent,
    bus,
    clock: Clock,
    priority: int = 0,
    accept_latency: int = 0,
) -> Tuple[OcpPinBundle, OcpPinSlave]:
    """Give a pin-level OCP master PE a path onto a bus CAM.

    Returns the pin bundle the PE should drive and the adapter that
    samples it into bus transactions — the "wrapper for pin-accurate OCP
    interfaces" of §3.
    """
    bundle = OcpPinBundle(f"{name}_pins", parent, clock=clock)
    socket = bus.master_socket(f"{name}_master", priority=priority)
    adapter = OcpPinSlave(
        f"{name}_pinadapter", parent,
        bundle=bundle, target=socket, accept_latency=accept_latency,
    )
    return bundle, adapter
