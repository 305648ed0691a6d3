"""A bus-mastering CPU core executing the :mod:`repro.cpu.isa` ISA.

The core is a transaction-level instruction-set simulator that fetches
and loads/stores through a blocking OCP transport socket, so firmware
execution generates *real* bus traffic — the missing "standard SW
component" when modeling a whole embedded platform at the CAM level.

Timing model: one :data:`CYCLE` per executed instruction for the core
itself (decode + ALU), plus whatever the bus charges for each fetch,
load and store.  The instruction cache skips fetch traffic on a hit,
which is what makes firmware polling loops affordable on a shared bus.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.kernel.errors import SimulationError
from repro.kernel.event import Event
from repro.kernel.module import Module
from repro.kernel.simtime import ns
from repro.ocp.tl import OcpTargetIf
from repro.ocp.types import OcpCmd, OcpRequest
from repro.cpu.isa import Op, decode

_WORD_MASK = 0xFFFFFFFF


def _signed32(value: int) -> int:
    value &= _WORD_MASK
    return value - (1 << 32) if value & (1 << 31) else value


#: Core time per executed instruction.
CYCLE = ns(10)
#: One-word I-cache entries (first in, first out).
ICACHE_LINES = 32
#: Runaway-firmware guard: instructions retired before the core faults.
MAX_INSTRUCTIONS = 1_000_000


class SimpleCpu(Module):
    """A single-issue accumulator CPU on a bus socket.

    Execution starts at byte address 0; each instruction costs
    :data:`CYCLE` of core time plus its bus accesses, and fetches go
    through an :data:`ICACHE_LINES`-entry I-cache.

    Parameters
    ----------
    socket:
        Blocking OCP transport (a bus master socket or a memory).
    """

    def __init__(self, name, parent=None, ctx=None,
                 socket: OcpTargetIf = None):
        super().__init__(name, parent, ctx)
        if socket is None:
            raise SimulationError(f"cpu {name!r} needs a bus socket")
        self.socket = socket
        self.pc = 0
        self.acc = 0
        self.idx = 0
        self._icache: Dict[int, int] = {}
        self.halted = False
        self.halted_event = Event(self, f"{self.full_name}.halted")
        self.instructions_retired = 0
        self.fetches = 0
        self.icache_hits = 0
        self.loads = 0
        self.stores = 0
        self.fault: Optional[str] = None
        self.add_thread(self._execute, "execute")

    # -- bus helpers ---------------------------------------------------------------

    def _read_word(self, addr: int) -> Generator:
        response = yield from self.socket.transport(
            OcpRequest(OcpCmd.RD, addr, burst_length=1)
        )
        if not response.ok:
            raise SimulationError(
                f"cpu {self.full_name}: bus read fault at {addr:#x}"
            )
        return response.data[0] & _WORD_MASK

    def _write_word(self, addr: int, value: int) -> Generator:
        response = yield from self.socket.transport(
            OcpRequest(OcpCmd.WR, addr, data=[value & _WORD_MASK],
                       burst_length=1)
        )
        if not response.ok:
            raise SimulationError(
                f"cpu {self.full_name}: bus write fault at {addr:#x}"
            )

    def _fetch(self, addr: int) -> Generator:
        self.fetches += 1
        cached = self._icache.get(addr)
        if cached is not None:
            self.icache_hits += 1
            return cached
        word = yield from self._read_word(addr)
        if len(self._icache) >= ICACHE_LINES:
            self._icache.pop(next(iter(self._icache)))
        self._icache[addr] = word
        return word

    # -- the core loop ---------------------------------------------------------------

    def _execute(self) -> Generator:
        try:
            while not self.halted:
                if self.instructions_retired >= MAX_INSTRUCTIONS:
                    raise SimulationError(
                        f"cpu {self.full_name}: exceeded "
                        f"{MAX_INSTRUCTIONS} instructions "
                        f"(runaway firmware?)"
                    )
                word = yield from self._fetch(self.pc)
                op, operand = decode(word)
                next_pc = self.pc + 4
                yield CYCLE
                if op is Op.NOP:
                    pass
                elif op is Op.LDI:
                    self.acc = _signed32(operand)
                elif op is Op.LOAD:
                    self.loads += 1
                    self.acc = _signed32(
                        (yield from self._read_word(operand))
                    )
                elif op is Op.STORE:
                    self.stores += 1
                    yield from self._write_word(operand, self.acc)
                elif op is Op.ADD:
                    self.loads += 1
                    value = yield from self._read_word(operand)
                    self.acc = _signed32(self.acc + _signed32(value))
                elif op is Op.SUB:
                    self.loads += 1
                    value = yield from self._read_word(operand)
                    self.acc = _signed32(self.acc - _signed32(value))
                elif op is Op.ADDI:
                    self.acc = _signed32(self.acc + operand)
                elif op is Op.ANDI:
                    self.acc = self.acc & operand
                elif op is Op.LOADX:
                    self.loads += 1
                    self.acc = _signed32((yield from self._read_word(
                        operand + self.idx)))
                elif op is Op.STOREX:
                    self.stores += 1
                    yield from self._write_word(
                        operand + self.idx, self.acc)
                elif op is Op.SETX:
                    self.idx = self.acc & _WORD_MASK
                elif op is Op.INCX:
                    self.idx = (self.idx + operand) & _WORD_MASK
                elif op is Op.JMP:
                    next_pc = operand
                elif op is Op.BEQZ:
                    if self.acc == 0:
                        next_pc = operand
                elif op is Op.BNEZ:
                    if self.acc != 0:
                        next_pc = operand
                elif op is Op.HALT:
                    self.halted = True
                self.pc = next_pc
                self.instructions_retired += 1
        except SimulationError as exc:
            self.fault = str(exc)
            self.halted = True
            raise
        finally:
            if self.halted:
                self.halted_event.notify_delta()

    @property
    def icache_hit_rate(self) -> float:
        """Fraction of fetches served by the I-cache."""
        return self.icache_hits / self.fetches if self.fetches else 0.0
