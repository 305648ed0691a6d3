"""The device driver: memory-mapped mailbox access from RTOS tasks.

This is the *"device driver"* half of the paper's SW adapter.  It runs
the mailbox procedure of :mod:`repro.models.mailbox` — the same code the
SHIP bus wrappers run as kernel processes — as RTOS tasks.  Only how a
task idles and what CPU time it charges differ, so the driver overrides
just those hooks.  Both handshaking disciplines come with the procedure:

* **polling**: the calling task re-reads the control register with a
  configurable period, holding the CPU only during the bus accesses and
  sleeping in between (``os.delay``);
* **interrupt**: the calling task blocks on the mailbox's sideband IRQ
  (releasing the CPU entirely) and reads only after the doorbell.

Bus accesses are PIO: the task *holds the CPU* for the duration of each
bus transaction, which is what makes the polling-vs-IRQ crossover of
experiment E5 real — polling burns CPU and bus cycles, interrupts cost
latency.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.kernel.event import Event
from repro.kernel.signal import Signal
from repro.kernel.simtime import SimTime, ZERO_TIME
from repro.ocp.tl import OcpTargetIf
from repro.models.mailbox import (
    MailboxBusSide,
    MailboxLayout,
    MailboxOwnerSide,
)
from repro.rtos.core import Rtos


class _RtosTask:
    """Runs the mailbox procedure as a task of ``self.os``: sleeps and
    blocks release the CPU, charges execute on it."""

    os: Rtos

    def _delay(self, duration: SimTime) -> Generator:
        return self.os.delay(duration)

    def _block_on(self, event: Event) -> Generator:
        return self.os.block_on(event)

    def _execute(self, duration: SimTime) -> Generator:
        return self.os.execute(duration)


class MailboxDriver(_RtosTask, MailboxBusSide):
    """Bus-side mailbox access for one memory-mapped mailbox block.

    ``push_message`` and ``pull_message`` are generators and must be
    called from RTOS task context (``yield from driver.method(...)``);
    each charges ``access_overhead`` of CPU time (syscall and setup)
    on entry.
    """

    def __init__(
        self,
        os: Rtos,
        socket: OcpTargetIf,
        base: int,
        layout: Optional[MailboxLayout] = None,
        irq: Optional[Signal] = None,
        poll_interval: SimTime = ZERO_TIME,
        access_overhead: SimTime = ZERO_TIME,
    ):
        super().__init__(socket, base, layout or MailboxLayout(), irq,
                         poll_interval)
        self.os = os
        self.access_overhead = access_overhead


class LocalMailboxDriver(_RtosTask, MailboxOwnerSide):
    """Owner-side mailbox access for a mailbox in CPU-local memory.

    Used when the *hardware* is the bus master (HW->SW direction): a HW
    wrapper writes chunks into a mailbox that lives on the CPU side, and
    the SW task consumes them locally — no bus PIO, just doorbell waits
    and buffer copies.  Setting ``copy_cost_per_word`` (zero by default)
    charges CPU time for the kernel-space copy.
    """

    def __init__(
        self,
        os: Rtos,
        mailbox,
        access_overhead: SimTime = ZERO_TIME,
    ):
        self.os = os
        self.mailbox = mailbox
        self.access_overhead = access_overhead
