"""Cycle-by-cycle bus core: the pin-accurate reference fabric.

Where the CCATB :class:`~repro.cam.bus.BusCam` computes a transaction's
duration arithmetically, :class:`RtlBusCore` *simulates every bus
cycle*: a clocked process advances an arbitration/command unit and one
or two data engines each rising edge.  Functionally and in cycle counts
it implements the same protocol family (arb cycles, address cycles, one
beat per cycle, wait states, optional address pipelining with split
read/write data paths) — it is the reference model experiments E1/E2
compare the CCATB models against, playing the role the authors' RTL/BCA
models play in the literature.

It is wired like every CAM: slaves go into its address map with
``attach_slave``, and ``master_socket`` returns a master's
:class:`RtlMasterPort`, a request/grant/done latch that an accessor
drives pin-accurately and a TL master through its ``transport``.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, List, Optional

from repro.kernel.clock import Clock
from repro.kernel.errors import ElaborationError, SimulationError
from repro.kernel.event import Event
from repro.kernel.module import Module
from repro.ocp.types import OcpRequest, OcpResponse
from repro.cam.arbiters import Arbiter, StaticPriorityArbiter
from repro.cam.bus import BusTiming, SlaveBinding, decode_region, map_slave
from repro.cam.coreconnect import PLB_TIMING


class RtlMasterPort:
    """One master's request latch on the RTL bus core.

    Protocol (all observed at rising clock edges by the core):

    1. master sets ``request`` and raises ``req``;
    2. the core arbitrates, runs the command phase, queues the data
       phase; when the transaction's data phase completes it stores
       ``response`` and notifies ``done``;
    3. master lowers ``req`` (automatically on completion here) and may
       issue the next request.

    The latch behaves like a register: a request raised in the delta
    cycle of a rising edge is sampled by the next edge, whether the
    submitting process ran before or after the core in that delta.
    ``seq`` (the arbiters' arrival-order tie-break) is the submitting
    delta cycle, then the port's index, so simultaneous requests rank
    by port and never by process evaluation order.
    """

    def __init__(self, name: str, core: "RtlBusCore", priority: int):
        self.name = name
        self.core = core
        self.priority = priority
        self.index = len(core.ports)
        self.req = False
        self.request: Optional[OcpRequest] = None
        self.response: Optional[OcpResponse] = None
        self.done = Event(core, f"{core.full_name}.{name}.done")
        #: (delta cycle of the submit, port index)
        self.seq = (-1, self.index)
        self.granted = False
        self.transactions = 0

    def submit(self, request: OcpRequest) -> None:
        """Latch a request; the core samples it next edge."""
        if self.req:
            raise SimulationError(
                f"rtl bus master {self.name!r}: request already pending"
            )
        self.request = request
        self.response = None
        self.granted = False
        self.seq = (self.core.ctx._delta_count, self.index)
        self.req = True

    def transport(self, request: OcpRequest) -> Generator:
        """Blocking convenience used by TL masters and tests."""
        if request.master_id is None:
            request.master_id = self.name
        self.submit(request)
        while self.response is None:
            yield self.done
        self.transactions += 1
        return self.response

    # attributes the shared Arbiter policies expect
    @property
    def master(self) -> str:
        """Arbiter-facing alias for the port name."""
        return self.name


class _DataEngine:
    """One data path: counts down wait states + beats, then completes."""

    __slots__ = ("name", "busy_cycles", "current", "queue", "total_busy")

    def __init__(self, name: str):
        self.name = name
        self.busy_cycles = 0
        self.current = None  # (port, binding, request)
        self.queue: deque = deque()
        self.total_busy = 0

    def tick(self, core: "RtlBusCore") -> None:
        if self.busy_cycles > 0:
            self.busy_cycles -= 1
            self.total_busy += 1
            if self.busy_cycles == 0:
                core._finish(self, *self.current)
                self.current = None
        if self.busy_cycles == 0 and self.queue:
            port, binding, request = self.queue.popleft()
            self.current = (port, binding, request)
            self.busy_cycles = (
                binding.wait_states(request) + request.burst_length
            )


class RtlBusCore(Module):
    """The clocked bus fabric."""

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        clock: Clock = None,
        timing: Optional[BusTiming] = None,
        arbiter: Optional[Arbiter] = None,
    ):
        super().__init__(name, parent, ctx)
        if clock is None:
            raise ElaborationError(f"rtl bus {name!r} needs a clock")
        self.clock = clock
        self.timing = timing or PLB_TIMING
        self.arbiter = arbiter or StaticPriorityArbiter()
        self.slaves: List[SlaveBinding] = []
        self.ports: List[RtlMasterPort] = []
        if self.timing.split_rw:
            self._engines = {
                "read": _DataEngine("read"),
                "write": _DataEngine("write"),
            }
        else:
            self._engines = {"data": _DataEngine("data")}
        self._cmd_countdown = 0
        self._cmd_current = None  # (port, binding, request)
        self.cycles = 0
        self.transactions_completed = 0
        self.add_thread(self._core, "core")

    # -- wiring ------------------------------------------------------------------

    def master_socket(self, name: str, priority: int = 0) -> RtlMasterPort:
        """Create (or fetch) the request latch of master ``name``."""
        for port in self.ports:
            if port.name == name:
                return port
        port = RtlMasterPort(name, self, priority)
        self.ports.append(port)
        return port

    def attach_slave(self, target, base: int, size: int,
                     name: Optional[str] = None,
                     read_wait: Optional[int] = None,
                     write_wait: Optional[int] = None,
                     localize: Optional[bool] = None) -> SlaveBinding:
        """Map a functional slave into the address map (see
        :func:`~repro.cam.bus.map_slave`)."""
        return map_slave(f"rtl bus {self.full_name}", self.slaves, target,
                         base, size, name=name, read_wait=read_wait,
                         write_wait=write_wait, localize=localize,
                         transported=False)

    def decode(self, request: OcpRequest) -> Optional[SlaveBinding]:
        """Address decode; every beat of the burst must fit one region."""
        return decode_region(self.slaves, request)

    def _engine_for(self, request: OcpRequest) -> _DataEngine:
        if self.timing.split_rw:
            return self._engines["read" if request.cmd.is_read else "write"]
        return self._engines["data"]

    # -- the clocked core -----------------------------------------------------------

    def _core(self) -> Generator:
        edge = self.clock.posedge_event
        while True:
            yield edge
            self.cycles += 1
            for engine in self._engines.values():
                engine.tick(self)
            self._command_unit_tick()

    def _command_unit_tick(self) -> None:
        # The grant edge itself does not count (arbitration elapses on
        # the following ``cmd_cycles`` edges) and the data engine starts
        # on the hand-off edge — together this makes one transaction
        # cost exactly cmd_cycles + wait + beats edges, matching the
        # CCATB formula cycle for cycle.
        if self._cmd_countdown > 0:
            self._cmd_countdown -= 1
            if self._cmd_countdown == 0:
                port, binding, request = self._cmd_current
                self._cmd_current = None
                if binding is None:
                    self._complete(port, OcpResponse.error())
                else:
                    engine = self._engine_for(request)
                    entry = (port, binding, request)
                    if engine.busy_cycles == 0 and not engine.queue:
                        # Engine free: the data phase starts on this
                        # edge (its first wait/beat cycle elapses by the
                        # next tick).
                        engine.current = entry
                        engine.busy_cycles = (
                            binding.wait_states(request)
                            + request.burst_length
                        )
                    else:
                        engine.queue.append(entry)
            return
        self._try_grant()

    def _try_grant(self) -> None:
        if (not self.timing.pipelined
                and any(e.busy_cycles or e.queue
                        for e in self._engines.values())):
            return
        # Requests raised in this very delta wait for the next edge.
        delta = self.ctx._delta_count
        pending = [
            p for p in self.ports
            if p.req and not p.granted and p.seq[0] < delta
        ]
        if not pending:
            return
        chosen = self.arbiter.pick(pending, self.cycles)
        if chosen is None:
            return
        chosen.granted = True
        request = chosen.request
        binding = self.decode(request)
        self._cmd_current = (chosen, binding, request)
        self._cmd_countdown = self.timing.cmd_cycles

    def _finish(self, engine: _DataEngine, port: RtlMasterPort,
                binding: SlaveBinding, request: OcpRequest) -> None:
        try:
            response = binding.target.access(binding.localized(request))
        except Exception:
            response = OcpResponse.error()
        self._complete(port, response)

    def _complete(self, port: RtlMasterPort,
                  response: OcpResponse) -> None:
        port.req = False
        port.granted = False
        port.response = response
        self.transactions_completed += 1
        port.done.notify()

    # -- checkpoint/restore protocol (see repro.snapshot) ---------------------

    def __snapshot_events__(self):
        return tuple(port.done for port in self.ports)

    def __snapshot__(self) -> dict:
        from repro.snapshot.state import SnapshotError

        # The pin-accurate core is only checkpointable bus-idle: the
        # command unit and data engines hold live object tuples that
        # cannot be serialized by name, so a mid-transaction capture is
        # refused rather than approximated.
        if self._cmd_current is not None or self._cmd_countdown:
            raise SnapshotError(
                f"rtl bus {self.full_name}: command phase in flight"
            )
        for engine in self._engines.values():
            if engine.busy_cycles or engine.current is not None \
                    or engine.queue:
                raise SnapshotError(
                    f"rtl bus {self.full_name}: data engine "
                    f"{engine.name!r} busy"
                )
        for port in self.ports:
            if port.req:
                raise SnapshotError(
                    f"rtl bus {self.full_name}: port {port.name!r} has a "
                    "pending request"
                )
        return {
            "cycles": self.cycles,
            "transactions_completed": self.transactions_completed,
            "arbiter": self.arbiter.snapshot_state(),
            "engines": {
                name: engine.total_busy
                for name, engine in self._engines.items()
            },
            "ports": {
                port.name: {"transactions": port.transactions}
                for port in self.ports
            },
        }

    def __restore__(self, state: dict) -> None:
        self.cycles = state["cycles"]
        self.transactions_completed = state["transactions_completed"]
        self.arbiter.restore_state(state["arbiter"])
        for name, total_busy in state["engines"].items():
            self._engines[name].total_busy = total_busy
        by_name = {port.name: port for port in self.ports}
        for name, payload in state["ports"].items():
            port = by_name[name]
            port.transactions = payload["transactions"]
            port.req = False
            port.granted = False
            port.request = None
            port.response = None

    # -- reporting -------------------------------------------------------------------

    def utilization(self) -> float:
        """Fraction of cycles with an active data phase."""
        if self.cycles == 0:
            return 0.0
        busy = sum(e.total_busy for e in self._engines.values())
        return min(busy / (self.cycles * len(self._engines)), 1.0)
