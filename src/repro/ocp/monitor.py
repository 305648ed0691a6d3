"""OCP pin-level protocol monitor.

A passive checker attached to an :class:`~repro.ocp.pin.OcpPinBundle`:
it samples the signal group on every rising clock edge, collects
traffic statistics, and reports protocol violations — the tool a
verification engineer drops on the socket while bringing up an
RTL-refined PE or an accessor.

Checked rules (OCP 2.0 basic dataflow subset):

* **cmd-hold** — once a request beat is presented (``MCmd != IDLE``) it
  must stay unchanged until the slave accepts it (``SCmdAccept``).
* **addr-hold** / **data-hold** — MAddr and MData must be stable while
  the beat is held.
* **resp-without-request** — the slave must not present a response
  beat before any request burst was accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from repro.kernel.module import Module
from repro.ocp.pin import OcpPinBundle
from repro.ocp.types import OcpCmd, OcpResp


@dataclass(frozen=True)
class OcpViolation:
    """One observed protocol violation."""

    rule: str
    time_str: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.time_str}] {self.rule}: {self.detail}"


class OcpPinMonitor(Module):
    """Passive pin-level OCP protocol checker and statistics counter."""

    def __init__(self, name, parent=None, ctx=None,
                 bundle: OcpPinBundle = None, metrics=None):
        super().__init__(name, parent, ctx)
        if bundle is None:
            raise ValueError(f"monitor {name!r} needs a pin bundle")
        self.bundle = bundle
        self.violations: List[OcpViolation] = []
        # Traffic statistics live in a MetricsRegistry under
        # ``ocp.<full_name>.*`` — pass a shared registry to aggregate
        # several monitors; a private one is created otherwise, so the
        # counter attributes below work either way.  The import is lazy
        # so loading the OCP package (the whole simulation stack does)
        # never loads the observability layer.
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        base = f"ocp.{self.full_name}"
        self._c_request_beats = self.metrics.counter(f"{base}.request_beats")
        self._c_response_beats = self.metrics.counter(
            f"{base}.response_beats"
        )
        self._c_bursts = self.metrics.counter(f"{base}.bursts_started")
        self._c_read_beats = self.metrics.counter(f"{base}.read_beats")
        self._c_write_beats = self.metrics.counter(f"{base}.write_beats")
        self._c_stall_cycles = self.metrics.counter(f"{base}.stall_cycles")
        self._c_idle_cycles = self.metrics.counter(f"{base}.idle_cycles")
        self._c_cycles = self.metrics.counter(f"{base}.cycles_observed")
        self._outstanding_responses = 0
        self.add_thread(self._watch, "watch")

    # -- statistics (registry-backed, read-only attribute views) -----------------

    @property
    def request_beats(self) -> int:
        """Accepted request beats."""
        return self._c_request_beats.value

    @property
    def response_beats(self) -> int:
        """Response beats presented by the slave."""
        return self._c_response_beats.value

    @property
    def bursts_started(self) -> int:
        """Distinct request bursts observed."""
        return self._c_bursts.value

    @property
    def read_beats(self) -> int:
        """Accepted read beats."""
        return self._c_read_beats.value

    @property
    def write_beats(self) -> int:
        """Accepted write beats."""
        return self._c_write_beats.value

    @property
    def stall_cycles(self) -> int:
        """Cycles a request beat was held but not accepted."""
        return self._c_stall_cycles.value

    @property
    def idle_cycles(self) -> int:
        """Cycles with neither request nor response activity."""
        return self._c_idle_cycles.value

    @property
    def cycles_observed(self) -> int:
        """Total rising clock edges sampled."""
        return self._c_cycles.value

    def _flag(self, rule: str, detail: str) -> None:
        self.violations.append(
            OcpViolation(rule, str(self.ctx.now), detail)
        )

    def _watch(self) -> Generator:
        bundle = self.bundle
        edge = bundle.clock.posedge_event
        held = None          # (cmd, addr, data) of an unaccepted beat
        beats_remaining = 0  # beats left (incl. current) in this burst
        while True:
            yield edge
            self._c_cycles.inc()
            cmd = bundle.m_cmd.read()
            accept = bundle.s_cmd_accept.read()
            resp = bundle.s_resp.read()

            # ---- request group -----------------------------------------
            if cmd != OcpCmd.IDLE.value:
                snapshot = (
                    cmd, bundle.m_addr.read(), bundle.m_data.read()
                )
                if held is not None:
                    self._check_hold(held, snapshot)
                elif beats_remaining == 0:
                    # first sight of a new burst
                    self._c_bursts.inc()
                    burst = max(bundle.m_burst_length.read(), 1)
                    beats_remaining = burst
                    if OcpCmd(cmd).is_read:
                        self._outstanding_responses += burst
                    elif OcpCmd(cmd) is OcpCmd.WRNP:
                        self._outstanding_responses += 1
                if accept:
                    self._c_request_beats.inc()
                    if OcpCmd(cmd).is_read:
                        self._c_read_beats.inc()
                    else:
                        self._c_write_beats.inc()
                    beats_remaining = max(beats_remaining - 1, 0)
                    held = None
                else:
                    self._c_stall_cycles.inc()
                    held = snapshot
            else:
                held = None
                if resp == OcpResp.NULL.value:
                    self._c_idle_cycles.inc()

            # ---- response group ----------------------------------------
            if resp != OcpResp.NULL.value:
                self._c_response_beats.inc()
                if self._outstanding_responses <= 0:
                    self._flag(
                        "resp-without-request",
                        f"SResp={OcpResp(resp).name} with no "
                        f"outstanding request",
                    )
                else:
                    self._outstanding_responses -= 1

    def _check_hold(self, held, snapshot) -> None:
        """A held (unaccepted) beat must stay byte-identical."""
        if snapshot[0] != held[0]:
            self._flag(
                "cmd-hold",
                f"MCmd changed {held[0]} -> {snapshot[0]} while "
                f"unaccepted",
            )
        if snapshot[1] != held[1]:
            self._flag(
                "addr-hold",
                f"MAddr changed {held[1]:#x} -> {snapshot[1]:#x} "
                f"while unaccepted",
            )
        if OcpCmd(held[0]).is_write and snapshot[2] != held[2]:
            self._flag("data-hold", "MData changed while unaccepted")

    # -- reporting --------------------------------------------------------------

    @property
    def clean(self) -> bool:
        """True while no violation has been observed."""
        return not self.violations

    def report(self) -> dict:
        """Statistics dict: cycles, bursts, beats, stalls, violations."""
        return {
            "cycles": self.cycles_observed,
            "bursts": self.bursts_started,
            "request_beats": self.request_beats,
            "response_beats": self.response_beats,
            "read_beats": self.read_beats,
            "write_beats": self.write_beats,
            "stall_cycles": self.stall_cycles,
            "idle_cycles": self.idle_cycles,
            "violations": len(self.violations),
        }
