"""The SW end of a mapped HW/SW link: driver and communication library.

The paper's SW adapter is a device driver plus a communication library
that *"implements the SHIP channel interface method calls"*; here both
are :class:`SwShipEnd`.  A SW PE's SHIP port binds it as it binds a
channel, and each call runs the end's half of the mailbox procedure
(:mod:`repro.models.mailbox`) inside the calling task, where the eSW
interpreter gives every yield its RTOS meaning: entry overhead and
copies burn CPU time, sleeps between polls and waits for the IRQ or a
doorbell release the CPU, and programmed I/O holds it, because the
master's bus socket is a :class:`PioSocket`.
"""

from __future__ import annotations

from typing import Generator, Union

from repro.esw.synthesis import CpuHeld
from repro.kernel.errors import SimulationError
from repro.models.mailbox import (
    CTRL_REQUEST,
    MailboxBusSide,
    MailboxOwnerSide,
)
from repro.ocp.tl import OcpTargetIf
from repro.ocp.types import OcpRequest
from repro.ship.channel import ShipEnd, ShipInterface
from repro.ship.roles import MASTER_CALLS, SLAVE_CALLS, Role, classify
from repro.ship.serializable import decode_message, encode_message


class PioSocket(OcpTargetIf):
    """A bus socket for programmed I/O: the calling task keeps the CPU
    through every wait of each bus access."""

    def __init__(self, socket: OcpTargetIf):
        self.socket = socket

    def transport(self, request: OcpRequest) -> Generator:
        """The socket's blocking transport, each wait marked CPU-held."""
        access = self.socket.transport(request)
        wake = None
        while True:
            try:
                condition = access.send(wake)
            except StopIteration as done:
                return done.value
            wake = yield CpuHeld(condition)


class SwShipEnd(ShipInterface):
    """One end of a mapped link, run inside the calling task.

    ``side`` is the end's half of the mailbox procedure: a
    :class:`MailboxBusSide` for the link's master (``send``/``request``),
    a :class:`MailboxOwnerSide` for its slave (``recv``/``reply``).  One
    port claims the end; the ``end`` argument of each call is that claim.
    """

    def __init__(self, name: str,
                 side: Union[MailboxBusSide, MailboxOwnerSide]):
        self.name = name
        self.side = side
        self.calls = (MASTER_CALLS if isinstance(side, MailboxBusSide)
                      else SLAVE_CALLS)
        self.calls_used = set()
        self.owner_name = None
        #: requests received and not yet replied to, answered oldest first
        self.owed = 0

    def claim_end(self, owner) -> ShipEnd:
        """Hand the end to ``owner`` (a port); one owner only."""
        if self.owner_name is not None:
            raise SimulationError(
                f"SW SHIP end {self.name} already belongs to "
                f"{self.owner_name}"
            )
        self.owner_name = getattr(owner, "full_name", str(owner))
        return ShipEnd.A

    def _use(self, call: str) -> None:
        if call not in self.calls:
            raise SimulationError(
                f"SW SHIP end {self.name} offers only {sorted(self.calls)}, "
                f"not {call!r}"
            )
        self.calls_used.add(call)

    # -- the four SHIP interface method calls ------------------------------

    def send(self, end: ShipEnd, obj) -> Generator:
        """Push one message through the mailbox (master call)."""
        self._use("send")
        yield from self.side.push_message(encode_message(obj),
                                          is_request=False)

    def request(self, end: ShipEnd, obj) -> Generator:
        """Push one message, then collect its reply (master call)."""
        self._use("request")
        side = self.side
        yield from side.push_message(encode_message(obj), is_request=True)
        reply, _ = yield from side.pull_message()
        return decode_message(reply)[0]

    def recv(self, end: ShipEnd) -> Generator:
        """Wait for and return the next message (slave call)."""
        self._use("recv")
        payload, ctrl = yield from self.side.pull_in_message()
        if ctrl & CTRL_REQUEST:
            self.owed += 1
        return decode_message(payload)[0]

    def reply(self, end: ShipEnd, obj) -> Generator:
        """Answer the oldest outstanding request (slave call)."""
        self._use("reply")
        if not self.owed:
            raise SimulationError(
                f"SW SHIP end {self.name}: reply() with no outstanding "
                f"request"
            )
        self.owed -= 1
        yield from self.side.push_out_message(encode_message(obj))

    # -- read-outs ---------------------------------------------------------

    def pending_requests(self, end: ShipEnd) -> int:
        """Requests received and not yet replied to."""
        return self.owed

    def detected_role(self, end: ShipEnd) -> Role:
        """Role of this end from its observed calls."""
        return classify(self.calls_used)
