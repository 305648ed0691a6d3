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
``pv``     one untimed :class:`ShipChannel`, whichever end is software
``ccatb``  one :class:`ShipChannel` with the mapper's timing annotation
a fabric   one mailbox link: the mailbox at the next free address,
           the master's bus side on a new socket, then the slave's
           owner side.  A HW end gets a kernel-process wrapper on a
           local :class:`ShipChannel` (:class:`ShipBusMasterWrapper`,
           :class:`ShipBusSlaveWrapper`); a SW end gets a
           :class:`SwShipEnd` that runs its side inside the calling
           task (a :class:`MailboxBusSide` on a :class:`PioSocket`, or
           a :class:`MailboxOwnerSide` on the mailbox).  SW<->SW stays
           a local :class:`ShipChannel`
=========  ==========================================================

The mapper's options (mailbox capacity, IRQ or polling, poll interval,
driver overhead, bus priority) apply to every orientation alike.  Every
PE, HW or SW, binds its SHIP port to the returned attachment exactly as
at the component-assembly level, and
:func:`~repro.esw.synthesis.generate_esw` re-hosts the SW PEs on an
RTOS; the mapper needs no RTOS.  No endpoint source changes between
targets — the paper's core promise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.kernel.errors import ElaborationError
from repro.kernel.module import Module
from repro.kernel.simtime import SimTime, ZERO_TIME
from repro.models.mailbox import MailboxBusSide, MailboxOwnerSide, map_mailbox
from repro.models.wrappers import ShipBusMasterWrapper, ShipBusSlaveWrapper
from repro.ship.channel import ShipChannel, ShipInterface, ShipTiming
from repro.hwsw.commlib import PioSocket, SwShipEnd


def master_socket_name(connection: str) -> str:
    """The fabric socket the mapper opens for ``connection``'s master
    (what a TDMA schedule names)."""
    return f"{connection}_lnk_master"


@dataclass
class MappedConnection:
    """The realized resources for one point-to-point connection.

    ``master_attach`` / ``slave_attach`` are what the two endpoints'
    SHIP ports bind: a :class:`ShipChannel`, or on a fabric a
    :class:`SwShipEnd` for a SW end.  On a fabric, ``bus_side`` runs
    the master's half of the mailbox procedure (wrapper or SW end's
    driver) and ``owner_side`` the slave's on the mapped mailbox
    (``owner_side.mailbox``); both stay None on a channel.
    """

    name: str
    master_kind: str   # "hw" | "sw"
    slave_kind: str    # "hw" | "sw"
    mapping: str       # human-readable resource description
    master_attach: Optional[ShipInterface] = None
    slave_attach: Optional[ShipInterface] = None
    bus_side: Optional[MailboxBusSide] = None
    owner_side: Optional[MailboxOwnerSide] = None


#: Address distance between consecutive fabric-mapped mailboxes.
MAILBOX_STRIDE = 0x10000


class SystemMapper:
    """Allocates communication resources for SHIP connections.

    Parameters
    ----------
    parent:
        Module under which mapper-created objects live.
    target:
        ``"pv"``, ``"ccatb"``, or a fabric instance: any object with
        ``attach_slave``, ``master_socket`` and the ``full_name`` a
        link's ``mapping`` names, as every CAM, the RTL bus core
        (:class:`~repro.rtl.RtlBusCore`) and a generated prototype
        (:func:`~repro.accessors.build_prototype`) offer.
    ship_timing:
        The CCATB annotation (``target="ccatb"``).
    mailbox_base:
        Address of the first fabric-mapped connection's mailbox; each
        later one sits :data:`MAILBOX_STRIDE` bytes above the last.
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
        ship_timing: Optional[ShipTiming] = None,
        mailbox_base: int = 0x100000,
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
        self.ship_timing = ship_timing or ShipTiming()
        self.capacity_words = capacity_words
        self.use_irq = use_irq
        self.poll_interval = poll_interval
        self.driver_overhead = driver_overhead
        self._next_base = mailbox_base
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
        return MappedConnection(
            name=name, master_kind=master, slave_kind=slave,
            mapping=label, master_attach=channel, slave_attach=channel,
        )

    def _map_fabric(self, name, master, slave,
                    bus_priority: int) -> MappedConnection:
        """One mailbox link: the mailbox, the master's bus side, then
        the slave's owner side, each built for its end's kind."""
        parent, prefix = self.parent, f"{name}_lnk"
        base = self._next_base
        self._next_base += MAILBOX_STRIDE
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
            bus_side = MailboxBusSide(PioSocket(socket), base,
                                      mailbox.layout, mailbox.irq,
                                      self.poll_interval)
            bus_side.access_overhead = self.driver_overhead
            master_attach = SwShipEnd(f"{prefix}_msw", bus_side)
        if slave == "hw":
            slave_attach = ShipChannel(f"{prefix}_sch", parent)
            owner_side = ShipBusSlaveWrapper(
                f"{prefix}_swrap", parent,
                channel=slave_attach, mailbox=mailbox,
            )
        else:
            owner_side = MailboxOwnerSide(mailbox)
            owner_side.access_overhead = self.driver_overhead
            slave_attach = SwShipEnd(f"{prefix}_ssw", owner_side)
        return MappedConnection(
            name=name, master_kind=master, slave_kind=slave,
            mapping=(f"SHIP-over-{self.fabric.full_name} link "
                     f"({master.upper()} master, {slave.upper()} slave), "
                     f"mailbox @ {base:#x}"),
            master_attach=master_attach, slave_attach=slave_attach,
            bus_side=bus_side, owner_side=owner_side,
        )
