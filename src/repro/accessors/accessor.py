"""Communication architecture accessors.

From the paper (§3): *"Communication architecture accessors ... are
intended for the automatic generation of a synthesizable prototype of
the hardware part.  Their use implies that the designer has refined all
PEs to the RTL level and has implemented a pin-level OCP interface.
Then, to connect a PE to a selected target communication architecture,
the appropriate accessor is attached to the PE.  Since accessors are
implemented as RTL, they are fully synthesizable."*

:class:`RtlAccessor` is that component in the simulation: a clocked
state machine with a pin-level OCP slave interface toward the PE and a
request/grant interface toward the :class:`~repro.rtl.buscore.RtlBusCore`
fabric.  Everything it does happens at rising clock edges — no
transaction-level shortcuts — so an accessor-based system keeps
pin-accurate cycle fidelity; its beats are the pin-slave sequences of
:class:`~repro.ocp.pin.OcpPinBundle`, shared with
:class:`~repro.ocp.pin.OcpPinSlave`.  It is woken only on the edges that
can change its state, though: while the PE's request group is idle it
sleeps on ``MCmd``, and while the fabric works on a transaction it
sleeps on the master port's ``done`` event.  Its pins and cycle counts
are those of a state machine that samples every edge.
"""

from __future__ import annotations

from typing import Generator

from repro.kernel.errors import SimulationError
from repro.kernel.module import Module
from repro.ocp.pin import OcpPinBundle
from repro.ocp.types import OcpCmd
from repro.rtl.buscore import RtlMasterPort


class RtlAccessor(Module):
    """Pin-level OCP slave -> RTL bus master, fully clocked.

    Parameters
    ----------
    bundle:
        The PE's pin-level OCP interface (the PE is the OCP master).
    bus_port:
        Master latch on the target fabric, from
        :meth:`RtlBusCore.master_socket`.
    accept_latency:
        Extra cycles before the first beat of each burst is accepted
        (models the accessor's decode/synchronization stage).
    """

    def __init__(self, name, parent=None, ctx=None,
                 bundle: OcpPinBundle = None,
                 bus_port: RtlMasterPort = None,
                 accept_latency: int = 0):
        super().__init__(name, parent, ctx)
        if bundle is None or bus_port is None:
            raise SimulationError(
                f"accessor {name!r} needs an OCP pin bundle and a bus "
                f"master port"
            )
        self.bundle = bundle
        self.bus_port = bus_port
        self.accept_latency = accept_latency
        self.bursts = 0
        self.add_thread(self._machine, "machine")

    def _machine(self) -> Generator:
        bundle = self.bundle
        port = self.bus_port
        bundle.s_cmd_accept.write(False)
        bundle.idle_response()
        while True:
            # ---- OCP request phase: asleep until the PE drives MCmd ----
            yield from bundle.clock.sample(bundle.m_cmd, OcpCmd.IDLE.value)
            request = yield from bundle.accept_request(self.accept_latency)
            request.master_id = self.full_name
            # ---- fabric side: asleep until the core completes it -----
            # The core notifies ``done`` from its own rising-edge
            # activation, so this resumes in the delta a per-cycle poll
            # of ``response`` would have seen it.
            port.submit(request)
            while port.response is None:
                yield port.done
            yield from bundle.drive_response(request, port.response)
            self.bursts += 1
