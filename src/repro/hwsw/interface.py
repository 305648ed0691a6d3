"""The generic SHIP-based HW/SW interface, assembled.

The paper: *"we specify a generic HW/SW interface supporting SHIP-based
communication.  This interface virtually realizes a SHIP channel with
one end in the HW partition and one end in the SW partition."*  The two
factories here build that virtual channel for both orientations:

* :func:`build_sw_master_interface` — software initiates (the common
  CPU-drives-accelerator case): the SW adapter is a
  :class:`~repro.hwsw.driver.MailboxDriver` (device driver) plus
  :class:`~repro.hwsw.commlib.SwShipMaster` (communication library); the
  HW adapter is a bus-mapped mailbox plus slave wrapper feeding a real
  :class:`~repro.ship.channel.ShipChannel` whose far end the HW PE binds.

* :func:`build_sw_slave_interface` — hardware initiates (streaming
  input, sensor frontends): the HW adapter is a SHIP bus-master wrapper
  writing into a CPU-local mailbox; the SW adapter is a
  :class:`~repro.hwsw.driver.LocalMailboxDriver` plus
  :class:`~repro.hwsw.commlib.SwShipSlave`.

In both cases the HW PE's source uses ordinary SHIP ports and the SW
task's source uses the same four calls — neither knows the channel
crosses the HW/SW boundary, which is the paper's headline property
("HW/SW communication without requiring any changes to the source
code").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.kernel.simtime import SimTime, ZERO_TIME
from repro.models.mailbox import MailboxSlave, map_mailbox
from repro.models.wrappers import ShipBusMasterWrapper, ShipBusSlaveWrapper
from repro.rtos.core import Rtos
from repro.ship.channel import ShipChannel
from repro.hwsw.commlib import SwShipMaster, SwShipSlave
from repro.hwsw.driver import LocalMailboxDriver, MailboxDriver
from repro.hwsw.irq import IrqController


@dataclass
class SwMasterLink:
    """SW-initiates HW/SW channel: SW master port + HW-side channel."""

    sw_port: SwShipMaster
    hw_channel: ShipChannel
    mailbox: MailboxSlave
    driver: MailboxDriver
    hw_wrapper: ShipBusSlaveWrapper


@dataclass
class SwSlaveLink:
    """HW-initiates HW/SW channel: HW-side channel + SW slave port."""

    hw_channel: ShipChannel
    sw_port: SwShipSlave
    mailbox: MailboxSlave
    driver: LocalMailboxDriver
    hw_wrapper: ShipBusMasterWrapper


def build_sw_master_interface(
    name: str,
    parent,
    bus,
    os: Rtos,
    mailbox_base: int,
    capacity_words: int = 256,
    use_irq: bool = True,
    poll_interval: SimTime = ZERO_TIME,
    access_overhead: SimTime = ZERO_TIME,
    cpu_socket=None,
    cpu_priority: int = 0,
    irq_controller: Optional[IrqController] = None,
    irq_line: int = 0,
    max_burst: int = 16,
) -> SwMasterLink:
    """Build the SW-master orientation of the generic HW/SW interface.

    The HW PE binds a SHIP slave port to ``link.hw_channel``; SW tasks
    call ``link.sw_port.send/request``.  ``cpu_socket`` lets several
    interfaces share the CPU's single bus port.
    """
    mailbox = map_mailbox(name, parent, bus, mailbox_base, capacity_words,
                          with_irq=use_irq)
    if cpu_socket is None:
        cpu_socket = bus.master_socket(f"{name}_cpu", priority=cpu_priority)
    if mailbox.irq is not None and irq_controller is not None:
        irq_controller.connect(irq_line, mailbox.irq)
    driver = MailboxDriver(
        os, cpu_socket, mailbox_base,
        layout=mailbox.layout,
        irq=mailbox.irq,
        poll_interval=poll_interval,
        access_overhead=access_overhead,
        max_burst=max_burst,
    )
    hw_channel = ShipChannel(f"{name}_hwch", parent)
    hw_wrapper = ShipBusSlaveWrapper(
        f"{name}_hwwrap", parent, channel=hw_channel, mailbox=mailbox
    )
    return SwMasterLink(
        sw_port=SwShipMaster(driver),
        hw_channel=hw_channel,
        mailbox=mailbox,
        driver=driver,
        hw_wrapper=hw_wrapper,
    )


def build_sw_slave_interface(
    name: str,
    parent,
    bus,
    os: Rtos,
    mailbox_base: int,
    capacity_words: int = 256,
    hw_priority: int = 0,
    hw_poll_interval: Optional[SimTime] = None,
    copy_cost_per_word: SimTime = ZERO_TIME,
    access_overhead: SimTime = ZERO_TIME,
    use_irq_for_reply: bool = True,
    max_burst: int = 16,
) -> SwSlaveLink:
    """Build the HW-master orientation of the generic HW/SW interface.

    The HW PE binds a SHIP master port to ``link.hw_channel``; SW tasks
    call ``link.sw_port.recv/reply``.  The mailbox models the CPU-side
    kernel buffer the HW masters into.
    """
    mailbox = map_mailbox(name, parent, bus, mailbox_base, capacity_words,
                          with_irq=use_irq_for_reply)
    hw_socket = bus.master_socket(f"{name}_hw", priority=hw_priority)
    hw_channel = ShipChannel(f"{name}_hwch", parent)
    hw_wrapper = ShipBusMasterWrapper(
        f"{name}_hwwrap", parent,
        channel=hw_channel,
        socket=hw_socket,
        mailbox_base=mailbox_base,
        layout=mailbox.layout,
        poll_interval=hw_poll_interval,
        irq=mailbox.irq,
        max_burst=max_burst,
    )
    driver = LocalMailboxDriver(
        os, mailbox,
        copy_cost_per_word=copy_cost_per_word,
        access_overhead=access_overhead,
    )
    return SwSlaveLink(
        hw_channel=hw_channel,
        sw_port=SwShipSlave(driver),
        mailbox=mailbox,
        driver=driver,
        hw_wrapper=hw_wrapper,
    )
