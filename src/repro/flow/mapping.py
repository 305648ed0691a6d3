"""Automatic mapping of a system's communication onto an architecture.

The paper's abstract promises *"a methodology for automatic mapping of
the communication part of a system to a given architecture, including
HW/SW interfaces."*  :class:`SystemMapper` is that methodology as an
API: the designer declares the system's point-to-point SHIP connections
once — with each endpoint marked HW or SW — and selects a target; the
mapper allocates all communication resources:

=========  ==========================================================
target     what a connection becomes
=========  ==========================================================
``pv``     one untimed :class:`ShipChannel`
``ccatb``  one :class:`ShipChannel` with the mapper's timing annotation
a fabric   one mailbox link, whichever end is software: the mailbox
           at the next free address, the master's bus side on a new
           socket (HW: :class:`ShipBusMasterWrapper`; SW: the device
           driver :class:`MailboxDriver` under :class:`SwShipMaster`),
           then the slave's owner side (HW:
           :class:`ShipBusSlaveWrapper`; SW: :class:`LocalMailboxDriver`
           under :class:`SwShipSlave`).  SW<->SW stays a local channel
           with the RTOS communication library on both ends
=========  ==========================================================

The mapper's options (mailbox capacity, IRQ or polling, poll interval,
driver overhead, bus priority) apply to every orientation alike.  PE
code binds SHIP ports to the returned attachment exactly as at the
component-assembly level; SW tasks call the returned port object.  No
endpoint source changes between targets — the paper's core promise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.kernel.errors import ElaborationError
from repro.kernel.module import Module
from repro.kernel.simtime import SimTime, ZERO_TIME
from repro.models.mailbox import MailboxBusSide, MailboxOwnerSide, map_mailbox
from repro.models.wrappers import ShipBusMasterWrapper, ShipBusSlaveWrapper
from repro.rtos.core import Rtos
from repro.ship.channel import ShipChannel, ShipTiming
from repro.esw.synthesis import SwChannelPort
from repro.hwsw.commlib import SwShipMaster, SwShipSlave
from repro.hwsw.driver import LocalMailboxDriver, MailboxDriver


def master_socket_name(connection: str) -> str:
    """The fabric socket the mapper opens for ``connection``'s master
    (what a TDMA schedule names)."""
    return f"{connection}_lnk_master"


@dataclass
class MappedConnection:
    """The realized resources for one point-to-point connection.

    ``master_attach`` / ``slave_attach`` are what the two endpoints
    use: a :class:`ShipChannel` for HW PEs (bind a SHIP port to it) or
    a SW port object for RTOS tasks (call the four SHIP methods on it).
    On a fabric, ``bus_side`` runs the master's half of the mailbox
    procedure (wrapper or device driver) and ``owner_side`` the slave's
    on the mapped mailbox (``owner_side.mailbox``); both stay None on a
    channel.
    """

    name: str
    master_kind: str   # "hw" | "sw"
    slave_kind: str    # "hw" | "sw"
    mapping: str       # human-readable resource description
    master_attach: object = None
    slave_attach: object = None
    bus_side: Optional[MailboxBusSide] = None
    owner_side: Optional[MailboxOwnerSide] = None

    def as_row(self) -> Dict[str, str]:
        """Flat dict row for the mapping report."""
        return {
            "connection": self.name,
            "master": self.master_kind,
            "slave": self.slave_kind,
            "mapped_to": self.mapping,
        }


class SystemMapper:
    """Allocates communication resources for SHIP connections.

    Parameters
    ----------
    parent:
        Module under which mapper-created objects live.
    target:
        ``"pv"``, ``"ccatb"``, or a fabric instance (any object with
        ``attach_slave`` and ``master_socket`` — the CAM duck type).
    rtos:
        Required when any endpoint is software.
    ship_timing:
        The CCATB annotation (``target="ccatb"``).
    mailbox_base / mailbox_stride:
        Address allocator for fabric-mapped connections.
    capacity_words:
        Data words per mailbox direction (one chunk).
    use_irq:
        Whether the master waits for replies on the mailbox's sideband
        IRQ (True) or polls its control register (False).
    poll_interval:
        Delay between control-register polls; None polls back to back.
    driver_overhead:
        CPU time a SW end's driver charges on entry to each call.
    """

    def __init__(
        self,
        parent: Module,
        target: Union[str, object] = "pv",
        rtos: Optional[Rtos] = None,
        ship_timing: Optional[ShipTiming] = None,
        mailbox_base: int = 0x100000,
        mailbox_stride: int = 0x10000,
        capacity_words: int = 64,
        use_irq: bool = False,
        poll_interval: Optional[SimTime] = None,
        driver_overhead: SimTime = ZERO_TIME,
    ):
        if isinstance(target, str):
            if target not in ("pv", "ccatb"):
                raise ElaborationError(
                    f"unknown mapping target {target!r}; pass 'pv', "
                    f"'ccatb', or a fabric instance"
                )
            self.fabric = None
        else:
            for attr in ("attach_slave", "master_socket"):
                if not hasattr(target, attr):
                    raise ElaborationError(
                        f"mapping target must provide {attr}()"
                    )
            self.fabric = target
            target = "cam"
        self.target = target
        self.parent = parent
        self.rtos = rtos
        self.ship_timing = ship_timing or ShipTiming()
        self.capacity_words = capacity_words
        self.use_irq = use_irq
        self.poll_interval = poll_interval
        self.driver_overhead = driver_overhead
        self._next_base = mailbox_base
        self._stride = mailbox_stride
        self.connections: List[MappedConnection] = []
        self._names: set = set()

    # -- the mapping step ------------------------------------------------------------

    def connect(self, name: str, master: str = "hw",
                slave: str = "hw",
                bus_priority: int = 0) -> MappedConnection:
        """Map one directed point-to-point connection.

        ``bus_priority`` sets the fabric arbitration priority of the
        master-side attachment (lower wins); ignored for channel
        targets.
        """
        if name in self._names:
            raise ElaborationError(
                f"connection name {name!r} already mapped"
            )
        if master not in ("hw", "sw") or slave not in ("hw", "sw"):
            raise ElaborationError(
                f"endpoint kinds must be 'hw' or 'sw', got "
                f"{master!r}/{slave!r}"
            )
        if self.rtos is None and "sw" in (master, slave):
            raise ElaborationError(
                f"connection {name!r} has a software endpoint but the "
                f"mapper was built without an RTOS"
            )
        self._names.add(name)
        if self.target == "pv":
            conn = self._map_channel(name, master, slave,
                                     timing=None, label="untimed channel")
        elif self.target == "ccatb":
            conn = self._map_channel(name, master, slave,
                                     timing=self.ship_timing,
                                     label="annotated channel (CCATB)")
        elif master == "sw" and slave == "sw":
            # same-CPU software: no bus resources needed
            conn = self._map_channel(name, master, slave, timing=None,
                                     label="local channel (same CPU)")
        else:
            conn = self._map_fabric(name, master, slave, bus_priority)
        self.connections.append(conn)
        return conn

    def _map_channel(self, name, master, slave, timing,
                     label) -> MappedConnection:
        channel = ShipChannel(f"{name}_ch", self.parent, timing=timing)
        master_attach: object = channel
        slave_attach: object = channel
        if master == "sw":
            master_attach = SwChannelPort(self.rtos, channel)
            label += " + SW comm library (master)"
        if slave == "sw":
            slave_attach = SwChannelPort(self.rtos, channel)
            label += " + SW comm library (slave)"
        return MappedConnection(
            name=name, master_kind=master, slave_kind=slave,
            mapping=label,
            master_attach=master_attach, slave_attach=slave_attach,
        )

    def _map_fabric(self, name, master, slave,
                    bus_priority: int) -> MappedConnection:
        """One mailbox link: the mailbox, the master's bus side, then
        the slave's owner side, each built for its end's kind."""
        parent, prefix = self.parent, f"{name}_lnk"
        base = self._next_base
        self._next_base += self._stride
        mailbox = map_mailbox(prefix, parent, self.fabric, base,
                              self.capacity_words, with_irq=self.use_irq)
        socket = self.fabric.master_socket(master_socket_name(name),
                                           priority=bus_priority)
        if master == "hw":
            master_attach = ShipChannel(f"{prefix}_mch", parent)
            bus_side = ShipBusMasterWrapper(
                f"{prefix}_mwrap", parent,
                channel=master_attach,
                socket=socket,
                mailbox_base=base,
                layout=mailbox.layout,
                poll_interval=self.poll_interval,
                irq=mailbox.irq,
            )
        else:
            bus_side = MailboxDriver(
                self.rtos, socket, base,
                layout=mailbox.layout,
                irq=mailbox.irq,
                poll_interval=self.poll_interval or ZERO_TIME,
                access_overhead=self.driver_overhead,
            )
            master_attach = SwShipMaster(bus_side)
        if slave == "hw":
            slave_attach = ShipChannel(f"{prefix}_sch", parent)
            owner_side = ShipBusSlaveWrapper(
                f"{prefix}_swrap", parent,
                channel=slave_attach, mailbox=mailbox,
            )
        else:
            owner_side = LocalMailboxDriver(
                self.rtos, mailbox, access_overhead=self.driver_overhead,
            )
            slave_attach = SwShipSlave(owner_side)
        fabric_name = getattr(self.fabric, "full_name", "fabric")
        return MappedConnection(
            name=name, master_kind=master, slave_kind=slave,
            mapping=(f"SHIP-over-{fabric_name} link ({master.upper()} "
                     f"master, {slave.upper()} slave), mailbox @ "
                     f"{base:#x}"),
            master_attach=master_attach, slave_attach=slave_attach,
            bus_side=bus_side, owner_side=owner_side,
        )

    # -- reporting -------------------------------------------------------------------

    def report_rows(self) -> List[Dict[str, str]]:
        """The mapping table: one row per connection."""
        return [conn.as_row() for conn in self.connections]
