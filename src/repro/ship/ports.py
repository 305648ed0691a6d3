"""SHIP ports: how processing elements attach to SHIP channels.

A PE declares :class:`ShipPort` members and calls the four SHIP
interface methods on them; the port forwards to the endpoint it claimed
at binding, on a :class:`~repro.ship.channel.ShipChannel` or on the SW
end of a mapped HW/SW link (either is a
:class:`~repro.ship.channel.ShipInterface`).  :class:`ShipMasterPort`
and :class:`ShipSlavePort` statically restrict the callable subset for
designers who want the master/slave discipline enforced at
model-authoring time rather than detected at run time.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.kernel.errors import ProcessError
from repro.kernel.port import Port
from repro.ship.channel import ShipEnd, ShipInterface
from repro.ship.roles import MASTER_CALLS, SLAVE_CALLS, Role
from repro.ship.serializable import ShipSerializable


class ShipPort(Port):
    """A port requiring a :class:`ShipInterface`; all four calls allowed.

    The port claims its end when its binding completes (elaboration),
    so each call goes straight to the bound channel or SW end and hands
    back its generator.
    """

    def __init__(self, name, parent=None, ctx=None, required: bool = True):
        super().__init__(name, parent, ctx, iface_type=ShipInterface,
                         required=required)
        self._end: Optional[ShipEnd] = None

    @property
    def end(self) -> ShipEnd:
        """The channel endpoint this port claimed (claims lazily)."""
        if self._end is None:
            self._end = self.channel.claim_end(self)
        return self._end

    def complete_binding(self) -> None:
        super().complete_binding()
        if self.bound and self._end is None:
            self._end = self._channel.claim_end(self)

    # -- the four SHIP interface method calls ----------------------------------

    def send(self, obj: ShipSerializable) -> Generator:
        """Blocking one-way transfer (master call)."""
        return self._channel.send(self._end, obj)

    def recv(self) -> Generator:
        """Blocking receive (slave call); returns the received object."""
        return self._channel.recv(self._end)

    def request(self, obj: ShipSerializable) -> Generator:
        """Blocking round trip (master call); returns the reply."""
        return self._channel.request(self._end, obj)

    def reply(self, obj: ShipSerializable) -> Generator:
        """Answer the oldest outstanding request (slave call)."""
        return self._channel.reply(self._end, obj)

    # -- role introspection -------------------------------------------------------

    @property
    def detected_role(self) -> Role:
        """Role of this port as observed by the channel so far."""
        return self.channel.detected_role(self.end)

    def _refusal(self, call: str, allowed: frozenset) -> ProcessError:
        return ProcessError(
            f"{type(self).__name__} {self.full_name} does not permit "
            f"{call!r} (allowed: {sorted(allowed)})"
        )


class ShipMasterPort(ShipPort):
    """A SHIP port restricted to the master calls ``send``/``request``."""

    def recv(self) -> Generator:
        """Refused: a slave call."""
        raise self._refusal("recv", MASTER_CALLS)

    def reply(self, obj: ShipSerializable) -> Generator:
        """Refused: a slave call."""
        raise self._refusal("reply", MASTER_CALLS)


class ShipSlavePort(ShipPort):
    """A SHIP port restricted to the slave calls ``recv``/``reply``."""

    def send(self, obj: ShipSerializable) -> Generator:
        """Refused: a master call."""
        raise self._refusal("send", SLAVE_CALLS)

    def request(self, obj: ShipSerializable) -> Generator:
        """Refused: a master call."""
        raise self._refusal("request", SLAVE_CALLS)
