"""Crossbar communication architecture model.

A crossbar gives every slave its own arbitrated path, so transactions to
*different* slaves proceed concurrently — the fabric that exposes
whether a workload's contention is slave-side or interconnect-side in
the exploration experiment (E3).

Internally each attached slave gets a private single-slave
:class:`~repro.cam.bus.BusCam` ("path"); the crossbar socket decodes the
address and forwards to the per-path socket.  This reuses the CCATB
timing engine unchanged, so crossbar timing is directly comparable with
the shared-bus models.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.kernel.module import Module
from repro.kernel.object import SimObject
from repro.kernel.simtime import SimTime, ns
from repro.ocp.tl import OcpTargetIf
from repro.ocp.types import OcpRequest, OcpResponse
from repro.cam.arbiters import Arbiter, RoundRobinArbiter
from repro.cam.bus import GENERIC_TIMING, BusCam, SlaveBinding, map_slave


class _CrossbarSocket(SimObject, OcpTargetIf):
    """Master attachment point: decodes, then rides the per-slave path."""

    def __init__(self, name, xbar: "CrossbarCam", priority: int):
        super().__init__(name, xbar)
        self.xbar = xbar
        self.priority = priority
        #: per-path sockets, created lazily per (this master, path)
        self._path_sockets: Dict[int, OcpTargetIf] = {}

    def transport(self, request: OcpRequest) -> Generator:
        if request.master_id is None:
            request.master_id = self.full_name
        path = self.xbar._decode_path(request)
        if path is None:
            # Decode error: charge one command phase, like the buses do.
            yield self.xbar.clock_period * self.xbar.timing.cmd_cycles
            return OcpResponse.error()
        socket = self._path_sockets.get(id(path))
        if socket is None:
            socket = path.master_socket(self.name, priority=self.priority)
            self._path_sockets[id(path)] = socket
        return (yield from socket.transport(request))

    # -- checkpoint/restore protocol (see repro.snapshot) -------------------

    def __snapshot__(self) -> dict:
        # Per-path sockets are created lazily during simulation; record
        # which paths this master has touched so restore re-links them
        # (the per-path BusCam re-creates the underlying _MasterSocket
        # from its own socket roster).
        touched = [
            index for index, path in enumerate(self.xbar.paths)
            if id(path) in self._path_sockets
        ]
        return {"paths": touched}

    def __restore__(self, state: dict) -> None:
        self._path_sockets = {}
        for index in state["paths"]:
            path = self.xbar.paths[index]
            socket = path.master_socket(self.name, priority=self.priority)
            self._path_sockets[id(path)] = socket


class CrossbarCam(Module):
    """A full crossbar fabric built from per-slave CCATB paths."""

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        clock_period: SimTime = None,
        arbiter_factory: Callable[[], Arbiter] = RoundRobinArbiter,
    ):
        super().__init__(name, parent, ctx)
        self.clock_period = clock_period if clock_period is not None else ns(10)
        self.timing = GENERIC_TIMING
        self.arbiter_factory = arbiter_factory
        #: the address map: one binding per path, in path order
        self.slaves: List[SlaveBinding] = []
        self.paths: List[BusCam] = []
        self._sockets: Dict[str, _CrossbarSocket] = {}
        self._fault_injector = None

    @property
    def fault_injector(self):
        """Bus fault injector shared by every path (see
        :attr:`BusCam.fault_injector`), including paths attached later."""
        return self._fault_injector

    @fault_injector.setter
    def fault_injector(self, injector) -> None:
        self._fault_injector = injector
        for path in self.paths:
            path.fault_injector = injector

    # -- wiring -------------------------------------------------------------------

    def master_socket(self, name: str, priority: int = 0) -> _CrossbarSocket:
        """Create (or fetch) this master's attachment point."""
        if name in self._sockets:
            return self._sockets[name]
        socket = _CrossbarSocket(name, self, priority)
        self._sockets[name] = socket
        return socket

    def attach_slave(
        self,
        target,
        base: int,
        size: int,
        name: Optional[str] = None,
        read_wait: Optional[int] = None,
        write_wait: Optional[int] = None,
        localize: Optional[bool] = None,
    ) -> SlaveBinding:
        """Map a slave onto its own arbitrated path (see
        :func:`~repro.cam.bus.map_slave`)."""
        binding = map_slave(
            f"crossbar {self.full_name}", self.slaves, target, base, size,
            name=name, read_wait=read_wait, write_wait=write_wait,
            localize=localize,
        )
        path = BusCam(
            f"path{len(self.paths)}",
            self,
            clock_period=self.clock_period,
            timing=self.timing,
            arbiter=self.arbiter_factory(),
        )
        path.fault_injector = self._fault_injector
        path.slaves.append(binding)
        self.paths.append(path)
        return binding

    def _decode_path(self, request: OcpRequest) -> Optional[BusCam]:
        for path in self.paths:
            if path.decode(request) is not None:
                return path
        return None

    # -- reporting -----------------------------------------------------------------

    def utilization(self, until=None) -> float:
        """Mean utilization across paths (see :meth:`BusCam.utilization`)."""
        if not self.paths:
            return 0.0
        return sum(
            path.utilization(until) for path in self.paths
        ) / len(self.paths)
