"""Bus-CAM faults: forced errors, decode misses, bad slaves.

:class:`BusFaultInjector` attaches to a :class:`~repro.cam.bus.BusCam`
(or a :class:`~repro.cam.crossbar.CrossbarCam`, which shares it with
every path) via its ``fault_injector`` attribute; the bus process
consults it for each granted transaction (forced error, then decode
miss).  A fault-free bus pays one attribute test per transaction.

:class:`FaultySlave` wraps any slave target and misbehaves on selected
requests: forced ERR, a stall of configurable length, or no response at
all — the last turns into a bus-wide hang (the bus holds the data path
for a transported slave), which a :class:`~repro.kernel.SimWatchdog` or
per-attempt timeout must catch.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.errors import SimulationError
from repro.kernel.event import Event
from repro.kernel.object import SimObject
from repro.kernel.simtime import SimTime
from repro.ocp.types import OcpRequest, OcpResponse
from repro.faults.plan import FaultPlan, FaultRule


class BusFaultInjector:
    """Arbitration-round fault decisions for one bus CAM.

    Parameters
    ----------
    plan:
        The campaign's :class:`FaultPlan`.
    error:
        Rule forcing an ERR completion after the command phase (the
        transaction never reaches its slave).
    decode:
        Rule turning a successful address decode into a miss (ERR on
        the ``decode-error`` channel).
    """

    def __init__(
        self,
        plan: FaultPlan,
        error: Optional[FaultRule] = None,
        decode: Optional[FaultRule] = None,
    ):
        self.plan = plan
        self.error = error
        self.decode = decode

    def __snapshot__(self) -> dict:
        state = {}
        for name in ("error", "decode"):
            rule = getattr(self, name)
            if rule is not None:
                state[name] = rule.__snapshot__()
        return state

    def __restore__(self, state: dict) -> None:
        for name in ("error", "decode"):
            rule = getattr(self, name)
            if rule is not None and name in state:
                rule.__restore__(state[name])

    def force_error(self, bus, request: OcpRequest) -> bool:
        """Bus hook: complete this granted request with ERR?"""
        if self.error is None:
            return False
        if self.error.matches(self.plan.rng):
            self.plan.record(
                "bus.error", bus.ctx._now_fs,
                f"{bus.full_name}: forced ERR for "
                f"{request.master_id or 'master'} at "
                f"addr {request.addr:#x}",
            )
            return True
        return False

    def decode_miss(self, bus, request: OcpRequest) -> bool:
        """Bus hook: pretend address decode failed?"""
        if self.decode is None:
            return False
        if self.decode.matches(self.plan.rng):
            self.plan.record(
                "bus.decode_miss", bus.ctx._now_fs,
                f"{bus.full_name}: decode miss injected at "
                f"addr {request.addr:#x}",
            )
            return True
        return False


class FaultySlave(SimObject):
    """A transported slave wrapper that misbehaves on selected requests.

    ``mode`` picks the misbehaviour when ``rule`` matches a request:

    * ``"error"`` — return ERR immediately (well-behaved failure);
    * ``"stall"`` — respond correctly but ``stall`` late;
    * ``"no_response"`` — never respond: the wrapped bus transaction
      (and the whole bus data path) hangs until a timeout or watchdog
      intervenes.

    The wrapper is always a *transported* slave (it implements
    ``transport``, not ``access``), so when mapping it at a non-zero
    base pass ``localize=True`` to :meth:`BusCam.attach_slave` if the
    wrapped target expects region-relative addresses.
    """

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        target=None,
        plan: FaultPlan = None,
        rule: FaultRule = None,
        mode: str = "error",
        stall: Optional[SimTime] = None,
    ):
        super().__init__(name, parent, ctx)
        if target is None or plan is None or rule is None:
            raise SimulationError(
                f"faulty slave {name!r}: target, plan and rule are required"
            )
        if mode not in ("error", "stall", "no_response"):
            raise SimulationError(
                f"faulty slave {name!r}: unknown mode {mode!r}"
            )
        if mode == "stall" and (stall is None or stall._fs <= 0):
            raise SimulationError(
                f"faulty slave {name!r}: stall mode needs a positive "
                f"stall time"
            )
        self.target = target
        self.plan = plan
        self.rule = rule
        self.mode = mode
        self.stall = stall
        self.requests_seen = 0
        self._never = Event(self, f"{self.full_name}.never")

    def transport(self, request: OcpRequest):
        """Blocking access; misbehaves when the rule matches."""
        self.requests_seen += 1
        now_fs = self.ctx._now_fs
        if self.rule.matches(self.plan.rng):
            if self.mode == "error":
                self.plan.record(
                    "slave.error", now_fs,
                    f"{self.full_name}: forced ERR at "
                    f"addr {request.addr:#x}",
                )
                return OcpResponse.error()
            if self.mode == "stall":
                self.plan.record(
                    "slave.stall", now_fs,
                    f"{self.full_name}: stalling {self.stall} at "
                    f"addr {request.addr:#x}",
                )
                yield self.stall
            else:  # no_response
                self.plan.record(
                    "slave.no_response", now_fs,
                    f"{self.full_name}: going silent at "
                    f"addr {request.addr:#x}",
                )
                while True:
                    yield self._never
        if hasattr(self.target, "transport"):
            return (yield from self.target.transport(request))
        return self.target.access(request)
