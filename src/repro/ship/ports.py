"""SHIP ports: how processing elements attach to SHIP channels.

A PE declares :class:`ShipPort` members and calls the four SHIP
interface methods on them; the port forwards to the channel endpoint it
claimed at binding.  :class:`ShipMasterPort` and :class:`ShipSlavePort`
statically restrict the callable subset for designers who want the
master/slave discipline enforced at model-authoring time rather than
detected at run time.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.kernel.errors import ProcessError
from repro.kernel.port import Port
from repro.ship.channel import ShipChannel, ShipEnd
from repro.ship.roles import Role
from repro.ship.serializable import ShipSerializable


class ShipPort(Port):
    """A port requiring a :class:`ShipChannel`; all four calls allowed."""

    #: interface calls this port type permits (None = all)
    _allowed_calls: Optional[frozenset] = None

    def __init__(self, name, parent=None, ctx=None, required: bool = True):
        super().__init__(name, parent, ctx, iface_type=ShipChannel,
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
            self._end = self.channel.claim_end(self)

    def _check_allowed(self, call: str) -> None:
        if self._allowed_calls is not None and call not in self._allowed_calls:
            raise ProcessError(
                f"{type(self).__name__} {self.full_name} does not permit "
                f"{call!r} (allowed: {sorted(self._allowed_calls)})"
            )

    # -- the four SHIP interface method calls ----------------------------------

    def send(self, obj: ShipSerializable) -> Generator:
        """Blocking one-way transfer (master call)."""
        self._check_allowed("send")
        yield from self.channel.send(self.end, obj)

    def recv(self) -> Generator:
        """Blocking receive (slave call); returns the received object."""
        self._check_allowed("recv")
        return (yield from self.channel.recv(self.end))

    def request(self, obj: ShipSerializable) -> Generator:
        """Blocking round trip (master call); returns the reply."""
        self._check_allowed("request")
        return (yield from self.channel.request(self.end, obj))

    def reply(self, obj: ShipSerializable) -> Generator:
        """Answer the oldest outstanding request (slave call)."""
        self._check_allowed("reply")
        yield from self.channel.reply(self.end, obj)

    # -- role introspection -------------------------------------------------------

    @property
    def detected_role(self) -> Role:
        """Role of this port as observed by the channel so far."""
        return self.channel.detected_role(self.end)


class ShipMasterPort(ShipPort):
    """A SHIP port restricted to the master calls ``send``/``request``."""

    _allowed_calls = frozenset({"send", "request"})


class ShipSlavePort(ShipPort):
    """A SHIP port restricted to the slave calls ``recv``/``reply``."""

    _allowed_calls = frozenset({"recv", "reply"})
