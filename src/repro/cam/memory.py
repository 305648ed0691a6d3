"""Memory slave models.

:class:`MemorySlave` is the standard bus slave: sparse word-addressed
storage with configurable wait states.  It exposes both access styles
used in the library:

* ``access(request)`` — zero-time functional access, what the CCATB bus
  models call after they have accounted for all timing themselves;
* ``transport(request)`` — blocking :class:`~repro.ocp.tl.OcpTargetIf`
  access that charges the wait states itself, for direct point-to-point
  use (pin adapters, test benches).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.kernel.object import SimObject
from repro.kernel.simtime import SimTime
from repro.ocp.tl import OcpTargetIf
from repro.ocp.types import OcpRequest, OcpResponse


class MemorySlave(SimObject, OcpTargetIf):
    """Sparse RAM with word-granular storage.

    Parameters
    ----------
    size:
        Region size in bytes; accesses outside ``[0, size)`` (after the
        bus strips the region base) return ERR.
    word_bytes:
        Word width; addresses are truncated to word alignment.
    read_wait / write_wait:
        Wait states in cycles charged by ``transport`` (and advertised to
        CCATB buses through :meth:`wait_states`).
    cycle:
        Cycle duration used by ``transport``; unused for ``access``.
    """

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        size: int = 1 << 20,
        word_bytes: int = 4,
        read_wait: int = 1,
        write_wait: int = 1,
        cycle: Optional[SimTime] = None,
    ):
        super().__init__(name, parent, ctx)
        if size <= 0:
            raise ValueError(f"memory {name!r}: size must be positive")
        if word_bytes not in (1, 2, 4, 8):
            raise ValueError(
                f"memory {name!r}: word_bytes must be 1/2/4/8"
            )
        self.size = size
        self.word_bytes = word_bytes
        self.read_wait = read_wait
        self.write_wait = write_wait
        self.cycle = cycle
        self._words: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        self._word_mask = (1 << (8 * word_bytes)) - 1

    # -- raw storage helpers -----------------------------------------------------

    def _word_index(self, addr: int) -> int:
        return addr // self.word_bytes

    def load_words(self, addr: int, values) -> None:
        """Test/bootstrap helper: poke words starting at ``addr``."""
        for i, value in enumerate(values):
            self._words[self._word_index(addr) + i] = value & self._word_mask

    def peek_word(self, addr: int) -> int:
        """Read one word without simulating an access."""
        return self._words.get(self._word_index(addr), 0)

    def wait_states(self, request: OcpRequest) -> int:
        """Wait states a CCATB bus should charge for this request."""
        return self.read_wait if request.cmd.is_read else self.write_wait

    # -- functional access (zero simulated time) -----------------------------------

    def access(self, request: OcpRequest) -> OcpResponse:
        """Zero-time functional access; bounds-checked."""
        last = request.beat_address(request.burst_length - 1)
        if not (0 <= request.addr and last + self.word_bytes <= self.size):
            return OcpResponse.error()
        if request.cmd.is_write:
            for beat in range(request.burst_length):
                index = self._word_index(request.beat_address(beat))
                value = request.data[beat] & self._word_mask
                if request.byte_en is not None:
                    value = self._merge_bytes(index, value, request.byte_en)
                self._words[index] = value
            self.writes += 1
            return OcpResponse.write_ok()
        data = [
            self._words.get(
                self._word_index(request.beat_address(beat)), 0
            )
            for beat in range(request.burst_length)
        ]
        self.reads += 1
        return OcpResponse.read_ok(data)

    def _merge_bytes(self, index: int, new: int, byte_en: int) -> int:
        old = self._words.get(index, 0)
        merged = 0
        for byte in range(self.word_bytes):
            mask = 0xFF << (8 * byte)
            source = new if byte_en & (1 << byte) else old
            merged |= source & mask
        return merged

    # -- checkpoint/restore protocol (see repro.snapshot) -----------------------

    def __snapshot__(self) -> dict:
        return {
            "words": {str(index): value
                      for index, value in self._words.items()},
            "reads": self.reads,
            "writes": self.writes,
        }

    def __restore__(self, state: dict) -> None:
        self._words = {int(index): value
                       for index, value in state["words"].items()}
        self.reads = state["reads"]
        self.writes = state["writes"]

    # -- blocking transport ------------------------------------------------------------

    def transport(self, request: OcpRequest) -> Generator:
        waits = self.wait_states(request)
        if self.cycle is not None and waits:
            yield self.cycle * waits
        return self.access(request)
