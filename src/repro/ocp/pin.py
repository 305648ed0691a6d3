"""Pin-accurate OCP: the signal bundle and pin<->TL adapters.

This is the "pin-level OCP interface" of the paper's flow: the interface
every PE must present once refined to RTL, and the interface the RTL
accessors attach to.  The bundle contains the basic OCP 2.0 dataflow
signals (request group, response group) clocked on a single rising edge:

===========  =========  ==============================================
signal       driver     meaning
===========  =========  ==============================================
MCmd         master     command for the current beat (IDLE when none)
MAddr        master     byte address of the current beat
MData        master     write data for the current beat
MBurstLength master     beats remaining in the burst (incl. current)
MByteEn      master     byte-enable mask
SCmdAccept   slave      request-beat handshake
SResp        slave      response code for the current response beat
SData        slave      read data for the current response beat
===========  =========  ==============================================

Per OCP, a request beat transfers on a rising clock edge where the
master drives ``MCmd != IDLE`` and the slave drives ``SCmdAccept = 1``;
a response beat transfers on an edge where ``SResp != NULL`` (response
accept is tied off high, a legal OCP configuration).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.kernel.clock import Clock
from repro.kernel.module import Module
from repro.kernel.object import SimObject
from repro.kernel.signal import Signal
from repro.kernel.sync import Mutex
from repro.ocp.tl import OcpTargetIf
from repro.ocp.types import OcpCmd, OcpRequest, OcpResp, OcpResponse

# Enum ``.value`` goes through a descriptor on every access; these two
# are read every clock edge of every pin-level model, so bind them once.
_IDLE = OcpCmd.IDLE.value
_NULL = OcpResp.NULL.value


class OcpPinBundle(SimObject):
    """The OCP signal group between one master and one slave."""

    def __init__(self, name, parent=None, ctx=None, clock: Clock = None):
        super().__init__(name, parent, ctx)
        if clock is None:
            raise ValueError(f"OCP pin bundle {name!r} needs a clock")
        self.clock = clock
        # Request group (master-driven).  Writer checks are disabled
        # because adapters hand the bundle between helper processes.
        self.m_cmd = Signal("MCmd", self, init=OcpCmd.IDLE.value,
                            check_writer=False)
        self.m_addr = Signal("MAddr", self, init=0, check_writer=False)
        self.m_data = Signal("MData", self, init=0, check_writer=False)
        self.m_burst_length = Signal("MBurstLength", self, init=0,
                                     check_writer=False)
        self.m_byte_en = Signal("MByteEn", self, init=0xF, check_writer=False)
        # Response group (slave-driven).
        self.s_cmd_accept = Signal("SCmdAccept", self, init=False,
                                   check_writer=False)
        self.s_resp = Signal("SResp", self, init=OcpResp.NULL.value,
                             check_writer=False)
        self.s_data = Signal("SData", self, init=0, check_writer=False)

    def idle_request(self) -> None:
        """Master helper: drive the request group idle."""
        self.m_cmd.write(_IDLE)
        self.m_burst_length.write(0)

    def idle_response(self) -> None:
        """Slave helper: drive the response group idle."""
        self.s_resp.write(_NULL)

    def accept_request(self, accept_latency: int = 0) -> Generator:
        """Slave helper: accept the burst whose first beat the current
        edge sampled, after ``accept_latency`` stalled edges; returns it
        as an :class:`OcpRequest`."""
        edge = self.clock.posedge_event
        for _ in range(accept_latency):
            yield edge
        cmd = OcpCmd(self.m_cmd.read())
        first_addr = self.m_addr.read()
        burst_length = self.m_burst_length.read()
        byte_en = self.m_byte_en.read()
        data = []
        # Accept each beat; the master advances after each accepted edge.
        self.s_cmd_accept.write(True)
        beats = 0
        while beats < burst_length:
            yield edge
            if not self.request_active:
                continue  # master stalled mid-burst
            if cmd.is_write:
                data.append(self.m_data.read())
            beats += 1
        self.s_cmd_accept.write(False)
        return OcpRequest(cmd, first_addr, data=data,
                          burst_length=burst_length, byte_en=byte_en)

    def drive_response(self, request: OcpRequest,
                       response: OcpResponse) -> Generator:
        """Slave helper: drive ``response`` one beat per edge (read
        data, or the ``WRNP`` ack), then idle the response group."""
        edge = self.clock.posedge_event
        if request.cmd.is_read:
            for word in response.data or [0] * request.burst_length:
                self.s_resp.write(response.resp.value)
                self.s_data.write(word)
                yield edge
        elif request.cmd is OcpCmd.WRNP:
            self.s_resp.write(response.resp.value)
            yield edge
        self.idle_response()

    @property
    def request_active(self) -> bool:
        """True while the master presents a request beat."""
        return self.m_cmd.read() != _IDLE

    @property
    def response_active(self) -> bool:
        """True while the slave presents a response beat."""
        return self.s_resp.read() != _NULL


class OcpPinMaster(SimObject, OcpTargetIf):
    """Drives a pin bundle from blocking-transport calls.

    The refinement shim for a TL master talking to a pin-level slave:
    presents :class:`OcpTargetIf` upward, wiggles pins downward with a
    cycle-true request/response state machine.  While it waits for
    ``SCmdAccept`` or ``SResp`` it sleeps on that signal rather than
    waking every edge (see :meth:`Clock.sample`).  Concurrent transports
    from multiple processes serialize on an internal mutex, as they
    would on the physical socket.
    """

    def __init__(self, name, parent=None, ctx=None,
                 bundle: OcpPinBundle = None):
        super().__init__(name, parent, ctx)
        if bundle is None:
            raise ValueError(f"OcpPinMaster {name!r} needs a pin bundle")
        self.bundle = bundle
        self._lock = Mutex("lock", self)
        self.transactions = 0

    def transport(self, request: OcpRequest) -> Generator:
        bundle = self.bundle
        clock = bundle.clock
        yield from self._lock.lock()
        try:
            # --- request phase: one beat per accepted cycle ---------------
            for beat, address in enumerate(request.beat_addresses()):
                bundle.m_cmd.write(request.cmd.value)
                bundle.m_addr.write(address)
                bundle.m_burst_length.write(request.burst_length - beat)
                if request.byte_en is not None:
                    bundle.m_byte_en.write(request.byte_en)
                if request.cmd.is_write:
                    bundle.m_data.write(request.data[beat])
                # Hold the beat until a rising edge samples it accepted.
                yield from clock.sample(bundle.s_cmd_accept, False)
            bundle.idle_request()
            # --- response phase -------------------------------------------
            expected = (
                request.burst_length if request.cmd.is_read
                else (1 if request.cmd is OcpCmd.WRNP else 0)
            )
            data = []
            resp_code = OcpResp.DVA
            for _ in range(expected):
                yield from clock.sample(bundle.s_resp, _NULL)
                resp_code = OcpResp(bundle.s_resp.read())
                data.append(bundle.s_data.read())
            self.transactions += 1
            if request.cmd.is_read:
                return OcpResponse(resp_code, data)
            return OcpResponse(resp_code)
        finally:
            self._lock.unlock()


class OcpPinSlave(Module):
    """Samples a pin bundle and forwards bursts to a TL target.

    The inverse shim: a pin-level master (e.g. an RTL PE) on one side, a
    blocking-transport target (memory model, bus attachment point) on the
    other.  ``accept_latency`` stalls SCmdAccept for that many cycles on
    the first beat of each burst, modeling slave-side decode time.

    Its beats are the bundle's slave sequences
    (:meth:`~OcpPinBundle.accept_request`,
    :meth:`~OcpPinBundle.drive_response`), shared with the RTL accessor.
    Unlike the master and the RTL accessor, it samples every edge while
    idle.  Its target is usually a transaction-level bus, which ranks
    requests that arrive in the same delta cycle by process evaluation
    order; waking it only on ``MCmd`` changes would move it in that
    order and so change arbitration between pin adapters on one bus.
    """

    def __init__(self, name, parent=None, ctx=None,
                 bundle: OcpPinBundle = None,
                 target: Optional[OcpTargetIf] = None,
                 accept_latency: int = 0):
        super().__init__(name, parent, ctx)
        if bundle is None:
            raise ValueError(f"OcpPinSlave {name!r} needs a pin bundle")
        self.bundle = bundle
        self.target = target
        self.accept_latency = accept_latency
        self.bursts_handled = 0
        self.add_thread(self._serve, "serve")

    def _serve(self) -> Generator:
        bundle = self.bundle
        clk_edge = bundle.clock.posedge_event
        bundle.s_cmd_accept.write(False)
        bundle.idle_response()
        while True:
            # Wait for the first beat of a burst.
            yield clk_edge
            if not bundle.request_active:
                continue
            request = yield from bundle.accept_request(self.accept_latency)
            if self.target is None:
                response = OcpResponse.error()
            else:
                response = yield from self.target.transport(request)
            yield from bundle.drive_response(request, response)
            self.bursts_handled += 1
